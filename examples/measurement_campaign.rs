//! The paper's §3 measurement campaign, end to end, on a medium synthetic
//! world: generate → materialise → crawl → census + policy prevalence.
//!
//! ```text
//! cargo run --release --example measurement_campaign
//! ```

use fediscope::harness;
use fediscope::prelude::*;

fn main() {
    let config = WorldConfig::test_medium();
    println!(
        "generating a medium synthetic fediverse (seed {}) ...",
        config.seed
    );
    let world = World::generate(config);
    println!(
        "  {} instances ({} crawlable Pleroma), {} users, {} posts",
        world.instances.len(),
        world.crawled_pleroma().count(),
        world.total_users(),
        world.total_posts()
    );

    println!("running the measurement campaign ...");
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());

    let census = fediscope::analysis::headline::crawl_census(&dataset);
    println!(
        "{}",
        render_comparisons("§3 census (paper values are full-scale)", &census)
    );

    let rows = fediscope::analysis::figures::fig1_policy_prevalence(&dataset);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.1}%", r.instance_share * 100.0),
                format!("{:.1}%", r.user_share * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 1: top policies",
            &["policy", "instances", "users"],
            &table
        )
    );

    let impact = fediscope::analysis::headline::policy_impact(&dataset);
    println!("{}", render_comparisons("§4.1 policy impact", &impact));
}
