//! A batched run scores each post template once, when its column is
//! built, however many ticks it runs: stage 1 of the measurement phase
//! only draws, and every delivery reads its template's stored score.
//!
//! Arming telemetry is process-global, so this binary holds one test
//! body and nothing else arms the registry beside it.

use fediscope_dynamics::scenarios::lookup;
use fediscope_dynamics::{DynamicsConfig, DynamicsEngine, MeasureMode};
use fediscope_synthgen::{ScenarioSeeds, World, WorldConfig};
use fediscope_telemetry::{HotCounter, Telemetry};

#[test]
fn armed_storm_scores_each_template_once() {
    let seeds = ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small()));
    let templates: u64 = seeds.templates.iter().map(|t| t.len() as u64).sum();
    assert!(templates > 0);
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
        let calls = telemetry.counter(HotCounter::ScorerCalls);
        let memo_hits = telemetry.counter(HotCounter::ScorerMemoHits);
        telemetry.disarm();
        telemetry.reset();
        assert!(
            trace.total_delivered() > 0,
            "{ticks} ticks: the storm delivered"
        );
        assert_eq!(
            calls, templates,
            "{ticks} ticks: one scorer call per template"
        );
        assert_eq!(
            memo_hits,
            trace.total_delivered(),
            "{ticks} ticks: every delivery reads a stored score"
        );
    }
}
