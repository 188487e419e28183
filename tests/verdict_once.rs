//! A batched run judges each (receiver, neighbor, template) MRF verdict
//! at most once, however many ticks it runs: stage 2 of the measurement
//! phase stores every verdict in the receiver's per-edge word and reads
//! it back on every later draw.
//!
//! Arming telemetry is process-global, so this binary holds one test
//! body and nothing else arms the registry beside it.

use fediscope_dynamics::scenarios::lookup;
use fediscope_dynamics::{DynamicsConfig, DynamicsEngine, MeasureMode};
use fediscope_synthgen::{ScenarioSeeds, World, WorldConfig};
use fediscope_telemetry::{HotCounter, Telemetry};

#[test]
fn armed_storm_judges_each_edge_template_once() {
    let seeds = ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small()));
    // Σ_r Σ_{s ∈ N(r)} |templates(s)|: every verdict a receiver can ever
    // need, over the seed links (a storm removes none).
    let edge_templates: u64 = seeds
        .links
        .iter()
        .map(|&(a, b)| {
            (seeds.templates[a as usize].len() + seeds.templates[b as usize].len()) as u64
        })
        .sum();
    assert!(edge_templates > 0);
    let telemetry = Telemetry::global();
    for ticks in [2, 12] {
        telemetry.reset();
        telemetry.arm();
        let config = DynamicsConfig {
            ticks,
            measure: MeasureMode::Batched,
            ..DynamicsConfig::default()
        };
        let trace =
            DynamicsEngine::new(config, &seeds).run((lookup("storm").unwrap().build)().as_mut());
        let calls = telemetry.counter(HotCounter::MrfFilterCalls);
        let credited = telemetry.counter(HotCounter::FilterFastHits)
            + telemetry.counter(HotCounter::FilterFastRejects);
        telemetry.disarm();
        telemetry.reset();
        assert!(
            trace.total_delivered() > 0,
            "{ticks} ticks: the storm delivered"
        );
        assert!(calls > 0, "{ticks} ticks: some verdict was judged");
        assert!(
            calls <= edge_templates,
            "{ticks} ticks: {calls} filter calls for {edge_templates} (receiver, neighbor, template) verdicts"
        );
        assert_eq!(
            credited,
            trace.total_delivered(),
            "{ticks} ticks: every delivery is credited from a verdict"
        );
    }
}
