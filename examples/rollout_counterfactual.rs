//! Rollout counterfactual: how much toxic exposure does MRF adoption
//! actually prevent?
//!
//! The paper can only measure the moderation landscape as it *is*; the
//! causal question needs the world where the policies never shipped.
//! This example runs a three-arm paired experiment over one shared
//! world — same seed, same traffic, same tick budget per arm:
//!
//! * `inaction`       — the *Will Admins Cope?* null arm: everyone
//!   stripped to the fresh-install default, nothing ever adopted;
//! * `rollout`        — the staged §4 adoption replay (cohorts of
//!   instances converge to their seed configs wave by wave);
//! * `import-partial` — a circulating blocklist imported with §4.2
//!   heavy-tailed subset adoption (most admins take a sliver, a few
//!   take nearly everything).
//!
//! Because every arm is bit-reproducible over the shared seeds, the
//! per-tick deltas are exact counterfactuals: the same senders draw the
//! same posts in every arm, so every difference is attributable to the
//! arms' diverging moderation state.
//!
//! ```text
//! cargo run --release --example rollout_counterfactual
//! ```

use fediscope::dynamics::scenarios::lookup;
use fediscope::dynamics::{exposure_score, Arm, DynamicsConfig, EngineBuilder, Experiment};
use fediscope::prelude::*;
use std::sync::Arc;

fn main() {
    // A tenth-scale world keeps the run instant; the deltas have the
    // same shape at any scale.
    let mut world_config = WorldConfig::paper();
    world_config.scale = 0.1;
    println!("generating world (seed {}) ...", world_config.seed);
    let world = World::generate(world_config);
    let seeds = Arc::new(ScenarioSeeds::from_world(&world));
    println!(
        "  {} instances, {} federation links",
        seeds.len(),
        seeds.links.len()
    );

    let engine_config = DynamicsConfig {
        seed: seeds.seed,
        ticks: 36, // six simulated days of 4-hour ticks
        ..Default::default()
    };
    // One builder, one world: every arm gets an identically configured
    // engine over the shared Arc'd seeds, and its scenario from the
    // registry the CLI's `experiment --arms` reads.
    let mut experiment = Experiment::new(EngineBuilder::new(engine_config, Arc::clone(&seeds)))
        .with_baseline("inaction");
    for name in ["inaction", "rollout", "import-partial"] {
        experiment.push(Arm::new(name, lookup(name).expect("registered").build));
    }
    println!(
        "running arms {:?} against the inaction baseline ...\n",
        experiment.arm_names(),
    );
    let result = experiment.run();

    // The attribution summary plus one per-tick delta table per arm.
    println!(
        "{}",
        fediscope::analysis::dynamics::render_experiment(&result)
    );
    for delta in result.deltas() {
        println!(
            "{:>14}: prevented {:.1} exposure that the inaction world delivered \
             ({} extra blocked deliveries)",
            delta.arm,
            exposure_score(delta.prevented_exposure()),
            delta.blocked_deliveries(),
        );
    }

    // The zero-drift contract in action: the experiment's rollout trace
    // is bit-identical to a standalone engine run of the same scenario.
    let mut standalone = fediscope::dynamics::DynamicsEngine::new(
        DynamicsConfig {
            seed: seeds.seed,
            ticks: 36,
            ..Default::default()
        },
        &seeds,
    );
    let trace = standalone.run((lookup("rollout").unwrap().build)().as_mut());
    assert_eq!(
        result.arm("rollout").unwrap().trace.digest(),
        trace.digest(),
        "the harness must add zero behavioural drift"
    );
    println!("\nzero-drift check: experiment arm == standalone run (digest match)");
}
