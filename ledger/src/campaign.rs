//! The `campaign` workload: the paper's measurement pipeline, in memory.
//!
//! `World::generate` → `harness::materialize` → `Crawler::run` →
//! `HarmAnnotations::annotate` → every §3–§7 table and figure →
//! rendered report → `Dataset::to_json` → `Dataset::from_json`.

use crate::spans::Tracer;
use crate::{fnv, meter, Outcome};
use fediscope::harness;
use fediscope_analysis::report::{render_comparisons, render_table, Comparison};
use fediscope_analysis::{ablation, curation, figures, headline, tables, HarmAnnotations};
use fediscope_crawler::{Crawler, CrawlerConfig, Dataset};
use fediscope_server::InstanceServer;
use fediscope_synthgen::{World, WorldConfig};
use std::collections::HashSet;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Everything the §3–§7 analysis computes, kept until rendering.
struct Tables {
    headline: Vec<(&'static str, Vec<Comparison>)>,
    fig1: Vec<figures::PolicyPrevalenceRow>,
    ablation: Vec<ablation::AblationRow>,
    /// Row counts of every other table and figure (their sizes go into
    /// the output check, so none of them is dead code to the optimiser).
    rows: usize,
}

fn analyse(dataset: &Dataset, ann: &HarmAnnotations) -> Tables {
    let headline = vec![
        ("§3 census", headline::crawl_census(dataset)),
        ("§4.1 policy impact", headline::policy_impact(dataset)),
        ("§4.2 reject graph", headline::reject_graph(dataset, ann)),
        ("§4.2 annotation", headline::annotation(dataset, ann)),
        (
            "§5 collateral damage",
            headline::collateral_damage(dataset, ann),
        ),
    ];
    let lists = curation::curate(dataset, ann, &curation::CurationConfig::default());
    let rows = figures::policy_spectrum(dataset).len()
        + figures::fig2_targeted_by_action(dataset).len()
        + figures::fig3_targeting_by_action(dataset).len()
        + figures::rejected_instances(dataset, ann).len()
        + figures::fig6_user_harm(dataset, ann).len()
        + tables::table1_top_rejected(dataset, ann).len()
        + tables::table2_threshold_sweep(dataset, ann).len()
        + tables::section5_users(dataset, ann).len()
        + tables::table3_policy_catalog(dataset).len()
        + ablation::federation_graph(dataset, 15).len()
        + lists.no_hate.entries.len()
        + lists.no_porn.entries.len()
        + lists.no_profanity.entries.len();
    Tables {
        headline,
        fig1: figures::fig1_policy_prevalence(dataset),
        ablation: ablation::solutions(dataset, ann),
        rows,
    }
}

fn render(t: &Tables) -> String {
    let mut out = String::new();
    for (title, rows) in &t.headline {
        out.push_str(&render_comparisons(title, rows));
    }
    let fig1: Vec<Vec<String>> = t
        .fig1
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.instances.to_string(),
                format!("{:.1}%", r.instance_share * 100.0),
                format!("{:.1}%", r.user_share * 100.0),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Figure 1",
        &["policy", "instances", "inst%", "users%"],
        &fig1,
    ));
    let ablation: Vec<Vec<String>> = t
        .ablation
        .iter()
        .map(|r| {
            vec![
                r.strategy.name().to_string(),
                format!("{:.1}%", r.innocent_blocked * 100.0),
                format!("{:.1}%", r.innocent_degraded * 100.0),
                format!("{:.1}%", r.harmful_blocked * 100.0),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "§7 ablation",
        &[
            "strategy",
            "innocent blocked",
            "innocent degraded",
            "harmful blocked",
        ],
        &ablation,
    ));
    out
}

/// Posts the annotation pass must score: every collected post of every
/// crawled Pleroma instance that at least one instance rejects.
fn expected_scored(dataset: &Dataset) -> usize {
    let rejected: HashSet<&str> = dataset.reject_counts().keys().map(|d| d.as_str()).collect();
    dataset
        .pleroma_crawled()
        .filter(|i| rejected.contains(i.domain.as_str()))
        .map(|i| i.timeline.posts().len())
        .sum()
}

/// Drops the network and its servers and waits until every server is
/// freed. Each endpoint's serving task holds its server until the task
/// sees its channel close, so without the wait the heap a later layer
/// runs next to would depend on task scheduling. False if a server
/// outlives a generous deadline.
fn teardown(materialized: harness::Materialized) -> bool {
    let servers: Vec<Weak<InstanceServer>> =
        materialized.servers.values().map(Arc::downgrade).collect();
    drop(materialized);
    let deadline = Instant::now() + Duration::from_secs(30);
    while servers.iter().any(|s| s.strong_count() > 0) {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// Median open-timeline corpus of paper-scale worlds over world seeds
/// 1–40, as `--calibrate 40` prints it.
pub const CORPUS_MEDIAN: f64 = 142_598.0;

/// The load a campaign's world is chosen by (see [`crate::input`]): its
/// open-timeline corpus — the posts of every crawlable Pleroma instance
/// whose public timeline is open, which is what a campaign collects.
pub fn corpus(config: &WorldConfig) -> f64 {
    World::generate(config.clone())
        .crawled_pleroma()
        .filter(|i| i.profile.public_timeline_open)
        .map(|i| i.post_count())
        .sum::<usize>() as f64
}

/// One campaign at `config`, every layer call inside a span.
///
/// `first` marks a run's first iteration, the one whose saved dataset is
/// re-serialised for the round-trip check; later iterations' datasets
/// must then digest to the same bytes.
pub fn run(config: WorldConfig, tr: &mut Tracer, first: bool) -> Outcome {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("the tokio shim runtime builds infallibly");
    let world = tr.span("synthgen.world", |_| World::generate(config));
    let materialized = tr.span("server.materialize", |_| {
        rt.block_on(async { harness::materialize(&world) })
    });
    let setup_s = tr.since_first();
    let posts_installed: usize = materialized.servers.values().map(|s| s.post_count()).sum();
    let dataset = tr.span("crawler.crawl", |_| {
        let crawler = Crawler::new(Arc::clone(&materialized.net), CrawlerConfig::default());
        rt.block_on(crawler.run(&world.directory))
    });
    let (requests, injected_failures, net_errors) = materialized.net.stats().snapshot();
    let torn_down = tr.span("server.teardown", |_| teardown(materialized));
    let ann = tr.span("perspective.annotate", |_| {
        HarmAnnotations::annotate(&dataset)
    });
    let tables = tr.span("analysis.tables", |_| analyse(&dataset, &ann));
    let report = tr.span("analysis.render", |_| render(&tables));
    let json = tr.span("persist.save", |_| {
        dataset.to_json().expect("a crawled dataset serialises")
    });
    let loaded = tr.span("persist.load", |_| Dataset::from_json(&json));
    let peak_heap_mib = meter::peak_mib();

    // Output checks and readings, outside the measured window.
    let (failures, digest, readings) = tr.aside(|| {
        let mut failures = Vec::new();
        let mut check = |ok: bool, what: &str| {
            if !ok {
                failures.push(what.to_string());
            }
        };
        check(
            dataset.pleroma_crawled().count() == world.crawled_pleroma().count(),
            "crawled Pleroma instances differ from the world's crawlable Pleroma instances",
        );
        check(
            dataset.total_users() == world.total_users(),
            "crawled user total differs from the world's ground truth",
        );
        check(
            ann.posts_scored == expected_scored(&dataset),
            "posts scored differ from the collected posts of rejected instances",
        );
        check(
            tables.rows > 0 && !report.is_empty(),
            "the §3–§7 analysis came out empty",
        );
        match &loaded {
            Ok(back) => check(
                !first || back.to_json().ok().as_deref() == Some(json.as_str()),
                "to_json(from_json(s)) differs from s",
            ),
            Err(_) => check(false, "from_json rejected the saved dataset"),
        }
        check(requests > 0, "the crawl issued no requests");
        check(torn_down, "servers outlived their network");
        let world_posts: usize = world.instances.iter().map(|i| i.post_count()).sum();
        let readings = [
            ("synthgen.posts", world_posts as f64),
            ("crawler.instances", dataset.instances.len() as f64),
            ("crawler.collected_posts", dataset.collected_posts() as f64),
            ("perspective.posts_scored", ann.posts_scored as f64),
            ("persist.bytes", json.len() as f64),
        ];
        (failures, fnv(json.as_bytes()), readings)
    });
    tr.span("teardown.drop", |_| {
        drop((world, dataset, ann, tables, report, json, loaded, rt))
    });
    let crawl_s = tr.total("crawler.crawl");
    let mut layers = vec![
        ("synthgen.world_s", tr.total("synthgen.world")),
        ("server.materialize_s", tr.total("server.materialize")),
        ("server.posts_installed", posts_installed as f64),
        ("server.teardown_s", tr.total("server.teardown")),
        ("crawler.crawl_s", crawl_s),
        ("crawler.requests", requests as f64),
        ("crawler.requests_per_s", requests as f64 / crawl_s),
        ("crawler.injected_failures", injected_failures as f64),
        ("crawler.net_errors", net_errors as f64),
        ("perspective.annotate_s", tr.total("perspective.annotate")),
        ("analysis.tables_s", tr.total("analysis.tables")),
        ("analysis.render_s", tr.total("analysis.render")),
        ("persist.save_s", tr.total("persist.save")),
        ("persist.load_s", tr.total("persist.load")),
        ("teardown.drop_s", tr.total("teardown.drop")),
    ];
    layers.extend(readings);
    Outcome {
        digest,
        setup_s,
        peak_heap_mib,
        loop_rate: requests as f64 / crawl_s,
        failures,
        layers,
    }
}
