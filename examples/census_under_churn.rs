//! Census under churn: the dynamics ↔ simnet round-trip.
//!
//! The paper's §3 census crawled a decaying network — instances died
//! (and came back) underneath the crawler. This example reproduces that
//! measurement condition end to end: a composed scenario (toxicity
//! storm + §3 outage wave + staged MRF rollout) evolves the fleet, a
//! `LiveNetBridge` mirrors every transition onto a live `SimNet`, and
//! the crawler re-censuses that network every simulated day. The output
//! is the under-count bias table: what the census observed vs. what was
//! actually true, per snapshot, with the §3 failure taxonomy shifting
//! underneath.
//!
//! ```text
//! cargo run --release --example census_under_churn
//! ```

use fediscope::census::{run_round_trip_seeded, RoundTripConfig};
use fediscope::dynamics::scenarios::lookup;
use fediscope::dynamics::{exposure_score, CensusCadence, DynamicsConfig};
use fediscope::prelude::*;

fn main() {
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

    // The composed timeline: does a staged MRF rollout keep up with a
    // toxicity storm during an outage wave? (The registry's `composite`,
    // which `fediscope dynamics census` runs too.)
    let mut scenario = (lookup("composite").expect("registered").build)();

    let config = RoundTripConfig {
        engine: DynamicsConfig {
            seed: seeds.seed,
            ticks: 36, // six simulated days: past the 4-day outage ramp
            ..Default::default()
        },
        crawler: CrawlerConfig::default(),
        cadence: CensusCadence { every_ticks: 6 }, // one census per day
    };

    let result = run_round_trip_seeded(&world, &seeds, scenario.as_mut(), config);

    // The census series: observed vs. true counts and the §3 taxonomy
    // of each snapshot's failed probes.
    println!(
        "\n{}",
        fediscope::analysis::dynamics::render_census(&result.census)
    );

    // What the bridge mirrored while the crawler worked.
    let [n404, n403, n502, n503, n410] = result.net.stats().failure_taxonomy().as_array();
    println!(
        "bridge: {} deaths and {} recoveries mirrored onto the live net",
        result.bridge.failures_applied(),
        result.bridge.recoveries_applied(),
    );
    println!(
        "probe statuses across all censuses (NetStats::failure_taxonomy): \
         404×{n404} 403×{n403} 502×{n502} 503×{n503} 410×{n410}"
    );

    // The engine trace is unchanged by the round-trip: the storm burst,
    // the adoption ramp and the churn decay all in one timeline.
    let summary = fediscope::analysis::dynamics::prevention_summary(&result.trace);
    println!(
        "\nscenario summary: deliveries {} ({} rejected, {} lost to churn)   exposure {:.1}   prevented {:.1} ({:.1}%)",
        summary.deliveries.0,
        summary.deliveries.1,
        summary.deliveries.2,
        exposure_score(summary.exposure),
        exposure_score(summary.prevented),
        summary.prevented_share * 100.0
    );
}
