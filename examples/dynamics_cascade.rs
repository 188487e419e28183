//! Dynamics cascade: watch defederation propagate through the federation
//! graph — seed blocks come from the generated moderation profiles, then
//! neighbors imitate applied blocks with configurable probability, and
//! the per-tick trace shows the network fragmenting.
//!
//! ```text
//! cargo run --release --example dynamics_cascade
//! ```

use fediscope::dynamics::scenarios::{CascadeConfig, DefederationCascadeScenario};
use fediscope::dynamics::{exposure_score, DynamicsConfig, DynamicsEngine};
use fediscope::prelude::*;

fn main() {
    // A tenth-scale world keeps the run instant; the dynamics are the
    // same shape at any scale.
    let mut world_config = WorldConfig::paper();
    world_config.scale = 0.1;
    println!("generating world (seed {}) ...", world_config.seed);
    let world = World::generate(world_config);
    let seeds = ScenarioSeeds::from_world(&world);
    println!(
        "  {} instances, {} federation links",
        seeds.len(),
        seeds.links.len()
    );

    // Sweep the imitation probability: how much fragmentation does one
    // blocklist-copying habit cause?
    for imitation_p in [0.0, 0.2, 0.5] {
        let engine_config = DynamicsConfig {
            seed: seeds.seed,
            ticks: 30, // five days of 4-hour ticks
            ..Default::default()
        };
        let mut engine = DynamicsEngine::new(engine_config, &seeds);
        let mut scenario = DefederationCascadeScenario::new(CascadeConfig {
            imitation_p,
            ..CascadeConfig::default()
        });
        let trace = engine.run(&mut scenario);
        let summary = fediscope::analysis::dynamics::prevention_summary(&trace);
        println!(
            "\nimitation p={imitation_p:.1}: {} seed blocks, {} imitations, links {} -> {} ({:.1}% severed)",
            scenario.seed_blocks(),
            scenario.imitations(),
            summary.links.0,
            summary.links.1,
            (1.0 - summary.links.1 as f64 / summary.links.0.max(1) as f64) * 100.0
        );
        // The trace is a plain time series; print the first day's worth.
        for row in fediscope::analysis::dynamics::dynamics_timeseries(&trace)
            .iter()
            .take(6)
        {
            println!(
                "  tick {:>2}  links {:>5}  delivered {:>6}  rejected {:>4.1}%  prevented {:>8.1}",
                row.tick,
                row.links,
                row.delivered,
                row.rejected_share * 100.0,
                exposure_score(row.exposure_prevented)
            );
        }
    }
}
