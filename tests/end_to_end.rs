//! End-to-end integration: generated world → materialised servers →
//! crawl → analysis, checked against generator ground truth.

use fediscope::harness;
use fediscope::prelude::*;

fn small_run() -> (World, Dataset) {
    let world = World::generate(WorldConfig::test_small());
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());
    (world, dataset)
}

#[test]
fn discovery_finds_every_instance() {
    let (world, dataset) = small_run();
    assert_eq!(dataset.instances.len(), world.instances.len());
    for inst in &world.instances {
        assert!(
            dataset.by_domain(inst.profile.domain.as_str()).is_some(),
            "{} missing from dataset",
            inst.profile.domain
        );
    }
}

#[test]
fn crawl_outcomes_match_failure_modes() {
    let (world, dataset) = small_run();
    for inst in &world.instances {
        let crawled = dataset.by_domain(inst.profile.domain.as_str()).unwrap();
        match inst.failure {
            FailureMode::Healthy => {
                assert!(
                    matches!(
                        crawled.outcome,
                        fediscope::crawler::CrawlOutcome::Crawled
                            | fediscope::crawler::CrawlOutcome::NonPleroma
                    ),
                    "{}: {:?}",
                    inst.profile.domain,
                    crawled.outcome
                );
            }
            mode => {
                let want = mode.forced_status().unwrap().0;
                assert_eq!(
                    crawled.outcome,
                    fediscope::crawler::CrawlOutcome::Failed { status: want },
                    "{}",
                    inst.profile.domain
                );
            }
        }
    }
}

#[test]
fn reject_counts_match_ground_truth() {
    let (world, dataset) = small_run();
    let measured = dataset.reject_counts();
    for inst in &world.instances {
        if inst.rejects_received == 0 {
            continue;
        }
        let got = measured
            .iter()
            .find(|(d, _)| d.as_str() == inst.profile.domain.as_str())
            .map(|(_, &c)| c)
            .unwrap_or(0);
        // Exact counts can differ slightly (self-rejection exclusion,
        // pool clamping at small scale), but every ground-truth-rejected
        // instance must be measured as rejected.
        assert!(
            got >= 1,
            "{} should be rejected (ground truth {})",
            inst.profile.domain,
            inst.rejects_received
        );
    }
}

#[test]
fn policy_exposure_is_respected() {
    let (world, dataset) = small_run();
    for inst in &world.instances {
        if !(inst.profile.is_pleroma() && inst.crawlable()) {
            continue;
        }
        let crawled = dataset.by_domain(inst.profile.domain.as_str()).unwrap();
        if inst.profile.exposes_policies {
            assert!(
                crawled.policies().is_some(),
                "{} should expose policies",
                inst.profile.domain
            );
        } else {
            assert!(
                crawled.policies().is_none(),
                "{} must hide policies",
                inst.profile.domain
            );
        }
    }
}

#[test]
fn exposed_configs_round_trip_through_the_api() {
    let (world, dataset) = small_run();
    for inst in &world.instances {
        if !(inst.profile.is_pleroma() && inst.crawlable() && inst.profile.exposes_policies) {
            continue;
        }
        let crawled = dataset.by_domain(inst.profile.domain.as_str()).unwrap();
        let measured = crawled.policies().unwrap();
        // Enabled kinds and reject targets survive the JSON round trip.
        for kind in &inst.moderation.enabled {
            assert!(
                measured.has(*kind),
                "{}: {kind} lost in transit",
                inst.profile.domain
            );
        }
        if let Some(truth) = &inst.moderation.simple {
            let got = measured.simple.as_ref().expect("simple config exposed");
            assert_eq!(
                got.targets(SimpleAction::Reject).len(),
                truth.targets(SimpleAction::Reject).len(),
                "{}: reject list length",
                inst.profile.domain
            );
        }
    }
}

#[test]
fn timeline_collection_matches_server_state() {
    let (world, dataset) = small_run();
    for inst in &world.instances {
        if !(inst.profile.is_pleroma() && inst.crawlable()) {
            continue;
        }
        let crawled = dataset.by_domain(inst.profile.domain.as_str()).unwrap();
        if !inst.profile.public_timeline_open {
            assert!(
                matches!(
                    crawled.timeline,
                    fediscope::crawler::TimelineCrawl::Forbidden
                ),
                "{} timeline should be 403",
                inst.profile.domain
            );
            continue;
        }
        // Public posts of the instance = collected posts (non-public are
        // not on the public timeline).
        let public_posts = inst
            .users
            .iter()
            .flat_map(|u| u.posts.iter())
            .filter(|p| p.visibility == fediscope::core::model::Visibility::Public)
            .count();
        assert_eq!(
            crawled.timeline.posts().len(),
            public_posts,
            "{}: pagination must collect every public post",
            inst.profile.domain
        );
    }
}

#[test]
fn dataset_is_deterministic_across_runs() {
    let (_, a) = small_run();
    let (_, b) = small_run();
    assert_eq!(a.instances.len(), b.instances.len());
    assert_eq!(a.collected_posts(), b.collected_posts());
    assert_eq!(a.total_users(), b.total_users());
    let ra = a.reject_counts();
    let rb = b.reject_counts();
    assert_eq!(ra.len(), rb.len());
}

#[test]
fn analysis_pipeline_runs_on_crawled_data() {
    let (_, dataset) = small_run();
    let annotations = HarmAnnotations::annotate(&dataset);
    assert!(annotations.posts_scored > 0);
    // Every figure/table computes without panicking and yields data.
    assert!(!fediscope::analysis::figures::fig1_policy_prevalence(&dataset).is_empty());
    assert!(!fediscope::analysis::figures::fig2_targeted_by_action(&dataset).is_empty());
    assert!(!fediscope::analysis::figures::fig3_targeting_by_action(&dataset).is_empty());
    assert!(!fediscope::analysis::figures::rejected_instances(&dataset, &annotations).is_empty());
    assert!(!fediscope::analysis::figures::fig6_user_harm(&dataset, &annotations).is_empty());
    assert!(!fediscope::analysis::figures::policy_spectrum(&dataset).is_empty());
    assert_eq!(
        fediscope::analysis::tables::table2_threshold_sweep(&dataset, &annotations).len(),
        5
    );
    assert!(!fediscope::analysis::headline::crawl_census(&dataset).is_empty());
    assert!(!fediscope::analysis::headline::policy_impact(&dataset).is_empty());
    assert!(!fediscope::analysis::headline::reject_graph(&dataset, &annotations).is_empty());
    assert!(!fediscope::analysis::headline::collateral_damage(&dataset, &annotations).is_empty());
    assert_eq!(
        fediscope::analysis::ablation::solutions(&dataset, &annotations).len(),
        5
    );
    assert!(!fediscope::analysis::ablation::federation_graph(&dataset, 10).is_empty());
}

#[test]
fn snapshots_are_collected_on_schedule() {
    let world = World::generate(WorldConfig::test_small());
    let config = CrawlerConfig {
        snapshot_rounds: 5,
        ..CrawlerConfig::default()
    };
    let dataset = harness::crawl_world(&world, config);
    let inst = dataset
        .pleroma_crawled()
        .next()
        .expect("at least one crawled instance");
    assert_eq!(inst.snapshots.len(), 5);
    // 4-hour cadence.
    for w in inst.snapshots.windows(2) {
        assert_eq!(w[1].at.as_secs() - w[0].at.as_secs(), 4 * 3600);
    }
}
