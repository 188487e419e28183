//! Malformed numeric flags are usage errors: `fediscope` exits 2 with a
//! message naming the flag, before it generates any world.

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
        let out = Command::new(env!("CARGO_BIN_EXE_fediscope"))
            .args(args)
            .output()
            .expect("run fediscope");
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
