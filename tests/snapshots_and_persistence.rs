//! Integration: the 4-hourly snapshot machinery and dataset persistence,
//! end to end on a crawled world.

use fediscope::harness;
use fediscope::prelude::*;
use fediscope_analysis::timeseries;

#[test]
fn snapshot_timeseries_aggregates_across_the_fleet() {
    let world = World::generate(WorldConfig::test_small());
    let config = CrawlerConfig {
        snapshot_rounds: 4,
        ..CrawlerConfig::default()
    };
    let dataset = harness::crawl_world(&world, config);

    let rounds = timeseries::aggregate_snapshots(&dataset);
    assert_eq!(rounds.len(), 4, "one aggregate per polling round");
    let crawled = dataset.pleroma_crawled().count();
    for round in &rounds {
        assert_eq!(round.instances, crawled, "every live instance reports");
        assert_eq!(round.users, dataset.total_users());
    }
    // 4-hour cadence between rounds.
    for w in rounds.windows(2) {
        assert_eq!(w[1].at.as_secs() - w[0].at.as_secs(), 4 * 3600);
    }
    // Static world ⇒ no churn; the analysis must not invent any.
    assert!(timeseries::churning_instances(&dataset).is_empty());
    // Per-instance growth reads consistently.
    let domain = dataset.pleroma_crawled().next().unwrap().domain.to_string();
    let ((u0, u1), (p0, p1)) = timeseries::instance_growth(&dataset, &domain).unwrap();
    assert_eq!(u0, u1);
    assert_eq!(p0, p1);
}

#[test]
fn dataset_survives_a_full_persistence_round_trip() {
    let world = World::generate(WorldConfig::test_small());
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());

    let path = std::env::temp_dir().join("fediscope-e2e-dataset.json");
    dataset.save(&path).expect("save");
    let restored = Dataset::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    // The restored dataset is analysis-equivalent to the original.
    assert_eq!(restored.instances.len(), dataset.instances.len());
    assert_eq!(restored.total_users(), dataset.total_users());
    assert_eq!(restored.collected_posts(), dataset.collected_posts());
    assert_eq!(
        restored.reject_counts().len(),
        dataset.reject_counts().len()
    );

    let a = HarmAnnotations::annotate(&dataset);
    let b = HarmAnnotations::annotate(&restored);
    assert_eq!(a.posts_scored, b.posts_scored);
    assert_eq!(a.users.len(), b.users.len());

    // And the §5 result computed from the restored dataset matches.
    let da = fediscope::analysis::headline::collateral_damage(&dataset, &a);
    let db = fediscope::analysis::headline::collateral_damage(&restored, &b);
    for (x, y) in da.iter().zip(&db) {
        assert_eq!(x.label, y.label);
        assert!((x.measured - y.measured).abs() < 1e-12);
    }
}

#[test]
fn curation_pipeline_runs_on_crawled_data() {
    let world = World::generate(WorldConfig::test_small());
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());
    let annotations = HarmAnnotations::annotate(&dataset);
    let lists = fediscope::analysis::curation::curate(
        &dataset,
        &annotations,
        &fediscope::analysis::curation::CurationConfig::default(),
    );
    // The calibrated world has plenty of curatable instances.
    assert!(!lists.is_empty(), "curator must find list entries");
    // Lists only contain instances that are actually rejected in the data.
    let rejected: std::collections::HashSet<String> = dataset
        .reject_counts()
        .keys()
        .map(|d| d.to_string())
        .collect();
    for list in [&lists.no_hate, &lists.no_porn, &lists.no_profanity] {
        for entry in &list.entries {
            assert!(
                rejected.contains(&entry.to_string()),
                "{} on {} is not a rejected instance",
                entry,
                list.name
            );
        }
    }
    // The compiled policy is enableable.
    let policy = lists.into_policy();
    assert!(!policy.as_simple_policy().active_actions().is_empty());
}
