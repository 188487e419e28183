//! The paper's §5 collateral-damage analysis: who actually gets hit when
//! an instance is rejected?
//!
//! ```text
//! cargo run --release --example collateral_damage
//! ```

use fediscope::harness;
use fediscope::prelude::*;

fn main() {
    let world = World::generate(WorldConfig::test_medium());
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());
    println!(
        "crawled {} instances, collected {} posts",
        dataset.instances.len(),
        dataset.collected_posts()
    );

    println!("scoring every post of reject-targeted instances (Perspective substrate) ...");
    let annotations = HarmAnnotations::annotate(&dataset);
    println!(
        "  scored {} posts across {} users",
        annotations.posts_scored,
        annotations.users.len()
    );

    let damage = fediscope::analysis::headline::collateral_damage(&dataset, &annotations);
    println!("{}", render_comparisons("§5 collateral damage", &damage));

    let sweep = fediscope::analysis::tables::table2_threshold_sweep(&dataset, &annotations);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.threshold),
                format!("{:.1}%", r.non_harmful_share * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 2: non-harmful share by threshold",
            &["threshold", "non-harmful"],
            &rows
        )
    );

    println!("Whatever the threshold, the overwhelming majority of users on");
    println!("rejected instances never posted anything harmful — they are");
    println!("collateral damage of instance-level moderation.");
}
