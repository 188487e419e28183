//! Malformed numeric flags and unknown report sections are usage
//! errors: `fediscope` exits 2 before it generates or loads anything.
//! Every report section renders from a crawled dataset.

use std::process::Command;

#[test]
fn malformed_numbers_are_usage_errors() {
    let cases: [&[&str]; 10] = [
        &["dynamics", "storm", "--ticks", "abc"],
        &["dynamics", "storm", "--ticks", "0"],
        &["dynamics", "storm", "--scale", "-1"],
        &["dynamics", "storm", "--scale", "nan"],
        &["dynamics", "storm", "--scale", "0"],
        &["dynamics", "storm", "--scale", "inf"],
        &["experiment", "--threads", "two"],
        &["dynamics", "census", "--census-every", "x"],
        &["shard", "--out", "unused", "--post-scale", "0"],
        &["crawl", "--seed", "-7"],
    ];
    for args in cases {
        let out = fediscope(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid value for {flag}")),
            "{args:?}: {stderr}"
        );
        for started in ["generating world", "sharding world", "loading world"] {
            assert!(!stderr.contains(started), "{args:?}: {stderr}");
        }
    }
}

fn fediscope(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fediscope"))
        .args(args)
        .output()
        .expect("run fediscope")
}

#[test]
fn unknown_report_section_fails_before_loading() {
    let out = fediscope(&["report", "/nonexistent", "fig9"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown report"), "{stderr}");
    assert!(!stderr.contains("cannot load"), "{stderr}");
}

/// Every section the usage text lists renders from one small dataset.
#[test]
fn every_report_section_renders() {
    let usage = String::from_utf8_lossy(&fediscope(&[]).stderr).into_owned();
    let sections: Vec<&str> = usage
        .lines()
        .find_map(|l| l.trim().strip_prefix("fediscope report FILE <"))
        .and_then(|l| l.strip_suffix('>'))
        .expect("usage lists the report sections")
        .split('|')
        .collect();
    assert!(sections.len() >= 15, "{sections:?}");

    let dir = std::env::temp_dir().join(format!("fediscope-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dataset = dir.join("dataset.json");
    let dataset = dataset.to_str().expect("utf-8 temp path");
    let out = fediscope(&["crawl", "--scale", "0.02", "--out", dataset]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for section in sections {
        let out = fediscope(&["report", dataset, section]);
        assert!(
            out.status.success(),
            "{section}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).trim().is_empty(),
            "{section} printed nothing"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
