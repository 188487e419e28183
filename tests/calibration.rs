//! Calibration integration tests: does *measuring* the synthetic world
//! reproduce the paper's numbers?
//!
//! The full-scale structural checks run without post text (fast even in
//! debug builds); the §5 content checks run at small scale with text.

use fediscope::harness;
use fediscope::prelude::*;
use fediscope_core::paper;

/// Full-scale world without post text: structural calibration.
fn paper_structural_run() -> Dataset {
    let mut config = WorldConfig::paper();
    config.generate_text = false;
    let world = World::generate(config);
    harness::crawl_world(&world, CrawlerConfig::default())
}

#[test]
fn census_matches_section3() {
    let dataset = paper_structural_run();
    assert_eq!(
        dataset.pleroma_all().count() as u32,
        paper::PLEROMA_INSTANCES
    );
    assert_eq!(
        dataset.pleroma_crawled().count() as u32,
        paper::CRAWLED_INSTANCES
    );
    assert_eq!(
        dataset.non_pleroma().count() as u32,
        paper::NON_PLEROMA_INSTANCES
    );
    // Exact failure taxonomy.
    let mut failed = std::collections::HashMap::new();
    for inst in dataset.pleroma_all() {
        if let fediscope::crawler::CrawlOutcome::Failed { status } = inst.outcome {
            *failed.entry(status).or_insert(0u32) += 1;
        }
    }
    assert_eq!(failed[&404], paper::crawl_failures::NOT_FOUND);
    assert_eq!(failed[&403], paper::crawl_failures::FORBIDDEN);
    assert_eq!(failed[&502], paper::crawl_failures::BAD_GATEWAY);
    assert_eq!(failed[&503], paper::crawl_failures::UNAVAILABLE);
    assert_eq!(failed[&410], paper::crawl_failures::GONE);
    // Users within 5% of 111k.
    let users = dataset.total_users() as f64;
    let drift = (users - paper::TOTAL_USERS as f64).abs() / (paper::TOTAL_USERS as f64);
    assert!(drift < 0.05, "user drift {drift}");
}

#[test]
fn reject_graph_matches_section42() {
    let dataset = paper_structural_run();
    let counts = dataset.reject_counts();
    let pleroma: std::collections::HashSet<&str> =
        dataset.pleroma_all().map(|i| i.domain.as_str()).collect();
    let pleroma_rejected = counts
        .keys()
        .filter(|d| pleroma.contains(d.as_str()))
        .count() as i64;
    assert!(
        (pleroma_rejected - paper::REJECTED_PLEROMA_INSTANCES as i64).abs() <= 10,
        "rejected Pleroma {pleroma_rejected}"
    );
    let total = counts.len() as i64;
    assert!(
        (total - paper::REJECTED_INSTANCES_TOTAL as i64).abs() <= 60,
        "total rejected {total}"
    );
    // freespeechextremist.com tops the Pleroma list with ~97 rejects.
    let fse = counts
        .iter()
        .find(|(d, _)| d.as_str() == "freespeechextremist.com")
        .map(|(_, &c)| c)
        .unwrap_or(0);
    assert!((90..=100).contains(&fse), "fse rejects {fse}");
    // gab.com (Mastodon) beats it overall, as in the paper.
    let gab = counts
        .iter()
        .find(|(d, _)| d.as_str() == "gab.com")
        .map(|(_, &c)| c)
        .unwrap_or(0);
    assert!(gab > fse, "gab {gab} must exceed fse {fse}");
}

#[test]
fn policy_prevalence_matches_table3() {
    let dataset = paper_structural_run();
    let spectrum = fediscope::analysis::figures::policy_spectrum(&dataset);
    // All 46 observed policy types appear.
    assert_eq!(spectrum.len() as u32, paper::UNIQUE_POLICY_TYPES);
    // Instance counts for the headline rows within a few instances.
    for row in paper::TABLE3_PREVALENCE.iter().take(8) {
        let got = spectrum
            .iter()
            .find(|r| r.name == row.name)
            .map(|r| r.instances as i64)
            .unwrap_or(0);
        assert!(
            (got - row.instances as i64).abs() <= 5,
            "{}: {got} vs {}",
            row.name,
            row.instances
        );
    }
}

#[test]
fn headline_shares_match_section41() {
    let dataset = paper_structural_run();
    let impact = fediscope::analysis::headline::policy_impact(&dataset);
    let get = |label: &str| {
        impact
            .iter()
            .find(|c| c.label == label)
            .map(|c| c.measured)
            .unwrap()
    };
    let users_affected = get("users affected by policies");
    assert!(
        (users_affected - paper::USERS_AFFECTED_BY_POLICIES).abs() < 0.03,
        "users affected {users_affected}"
    );
    let users_rejected = get("users on rejected instances");
    assert!(
        (users_rejected - paper::USERS_ON_REJECTED_INSTANCES).abs() < 0.05,
        "users on rejected {users_rejected}"
    );
    let reject_share = get("reject share of moderation events");
    assert!(
        (reject_share - paper::REJECT_SHARE_OF_EVENTS).abs() < 0.03,
        "reject event share {reject_share}"
    );
}

/// Small world WITH text: the §5 content pipeline.
#[test]
fn collateral_damage_shape_holds_at_small_scale() {
    let world = World::generate(WorldConfig::test_small());
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());
    let annotations = HarmAnnotations::annotate(&dataset);
    let damage = fediscope::analysis::headline::collateral_damage(&dataset, &annotations);
    let get = |label_prefix: &str| {
        damage
            .iter()
            .find(|c| c.label.starts_with(label_prefix))
            .map(|c| c.measured)
            .unwrap()
    };
    // The headline §5 conclusion must hold at any scale: the overwhelming
    // majority of users on rejected instances are not harmful.
    let innocent = get("NON-harmful users");
    assert!(
        innocent > 0.9,
        "collateral damage share {innocent} should be ≈ 0.958"
    );
    let harmful = get("harmful users");
    assert!(harmful < 0.1, "harmful share {harmful} should be ≈ 0.042");
    // Table 2 monotonicity.
    let sweep = fediscope::analysis::tables::table2_threshold_sweep(&dataset, &annotations);
    for w in sweep.windows(2) {
        assert!(w[0].non_harmful_share <= w[1].non_harmful_share);
    }
}

#[test]
fn strawman_ablation_beats_reject_on_collateral_damage() {
    let world = World::generate(WorldConfig::test_small());
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());
    let annotations = HarmAnnotations::annotate(&dataset);
    let rows = fediscope::analysis::ablation::solutions(&dataset, &annotations);
    let reject = rows
        .iter()
        .find(|r| r.strategy == fediscope::analysis::ablation::Strategy::RejectInstance)
        .unwrap();
    let per_user = rows
        .iter()
        .find(|r| r.strategy == fediscope::analysis::ablation::Strategy::PerUserReject)
        .unwrap();
    assert_eq!(reject.innocent_blocked, 1.0);
    assert_eq!(per_user.innocent_blocked, 0.0);
    assert!(per_user.harmful_blocked > 0.9, "harm still mitigated");
}
