//! §6: what a reject does to the federation graph — the audience a
//! rejected instance's users lose, plus the §7 solution ablation.
//!
//! ```text
//! cargo run --release --example federation_graph
//! ```

use fediscope::harness;
use fediscope::prelude::*;

fn main() {
    let world = World::generate(WorldConfig::test_medium());
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());
    let annotations = HarmAnnotations::annotate(&dataset);

    let rows = fediscope::analysis::ablation::federation_graph(&dataset, 12);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.domain.clone(),
                format!("{}", r.rejects),
                format!("{}", r.audience_lost),
                format!("{:.1}%", r.audience_lost_share * 100.0),
                format!("{:.1}%", r.peer_loss_share * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "§6 federation-graph damage (top rejected instances)",
            &[
                "instance",
                "rejects",
                "audience lost",
                "audience%",
                "peers rejecting%"
            ],
            &table
        )
    );

    let ablation = fediscope::analysis::ablation::solutions(&dataset, &annotations);
    let table: Vec<Vec<String>> = ablation
        .iter()
        .map(|r| {
            vec![
                r.strategy.name().to_string(),
                format!("{:.1}%", r.innocent_blocked * 100.0),
                format!("{:.1}%", r.innocent_degraded * 100.0),
                format!("{:.1}%", r.harmful_blocked * 100.0),
                format!("{:.1}%", r.harmful_degraded * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "§7 strawman-solution ablation",
            &[
                "strategy",
                "innocent blocked",
                "innocent degraded",
                "harmful blocked",
                "harmful degraded"
            ],
            &table
        )
    );
    println!("Instance-wide reject maximises both harm mitigation AND collateral");
    println!("damage; the paper's per-user proposals keep the former and shed the");
    println!("latter.");
}
