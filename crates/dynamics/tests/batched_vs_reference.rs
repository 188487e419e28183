//! The differential oracle for the sender-majorized measurement phase:
//! [`MeasureMode::Batched`] must produce whole-trace bit-identical
//! results to the per-post [`MeasureMode::Reference`] path — for every
//! shipped scenario family, for a rewriting-MRF world that forces the
//! batched path's clone fallback, and at 1, 2 and 8 worker threads.
//!
//! Thread counts are swept by resetting the global rayon pool size
//! between runs (the shim allows it); nothing else in this binary
//! touches the pool, so the sweep is race-free.

use fediscope_core::mrf::policies::{DropPolicy, RewritePolicy};
use fediscope_core::time::SimTime;
use fediscope_dynamics::scenarios::{
    CascadeConfig, ChurnConfig, ChurnScenario, Composite, DefederationCascadeScenario,
    PolicyRolloutScenario, ReliabilityScenario, RolloutConfig, StormConfig, ToxicityStormScenario,
};
use fediscope_dynamics::{
    DynamicsConfig, DynamicsEngine, DynamicsTrace, EventQueue, MeasureMode, NetworkState, Scenario,
};
use fediscope_synthgen::{ScenarioSeeds, World, WorldConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use std::sync::{Arc, OnceLock};

fn seeds() -> &'static ScenarioSeeds {
    static SEEDS: OnceLock<ScenarioSeeds> = OnceLock::new();
    SEEDS.get_or_init(|| ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small())))
}

/// Wraps any scenario and pushes a rewriting MRF policy into every third
/// instance's pipeline at init. `RewritePolicy` rewrites every template
/// containing an `e`, so those receivers exercise the batched path's
/// copy-on-write branch: the borrowed template is cloned at that stage
/// and the rest of the chain judges the clone.
struct WithRewriters(Box<dyn Scenario>);

impl Scenario for WithRewriters {
    fn name(&self) -> &'static str {
        "with-rewriters"
    }
    fn init(
        &mut self,
        start: SimTime,
        state: &mut NetworkState,
        queue: &mut EventQueue,
        rng: &mut SmallRng,
    ) {
        for (i, inst) in state.instances.iter_mut().enumerate() {
            if i % 3 == 0 {
                Arc::make_mut(&mut inst.pipeline).push(Arc::new(RewritePolicy {
                    rules: vec![("e".to_string(), "3".to_string())],
                }));
            }
        }
        self.0.init(start, state, queue, rng);
    }
    fn after_event(
        &mut self,
        event: &fediscope_dynamics::Scheduled,
        applied: bool,
        state: &NetworkState,
        queue: &mut EventQueue,
        rng: &mut SmallRng,
    ) {
        self.0.after_event(event, applied, state, queue, rng);
    }
}

/// The five scenario families, the reactive composition, the
/// retry-armed composite, and the rewriting-MRF world.
fn scenario_by_id(id: usize) -> Box<dyn Scenario> {
    match id % 8 {
        0 => Box::new(PolicyRolloutScenario::new(RolloutConfig::default())),
        1 => Box::new(DefederationCascadeScenario::new(CascadeConfig::default())),
        2 => Box::new(ChurnScenario::new(ChurnConfig::default())),
        3 => Box::new(ToxicityStormScenario::new(StormConfig::default())),
        4 => Box::new(
            Composite::new()
                .with(Box::new(ToxicityStormScenario::new(StormConfig::default())))
                .with(Box::new(ChurnScenario::new(ChurnConfig::default())))
                .with(Box::new(PolicyRolloutScenario::new(
                    RolloutConfig::default(),
                ))),
        ),
        5 => Box::new(
            Composite::new()
                .with(Box::new(DefederationCascadeScenario::new(
                    CascadeConfig::default(),
                )))
                .with(Box::new(ChurnScenario::new(ChurnConfig::default()))),
        ),
        // Retry composite: churn with the delivery-reliability layer
        // armed, so retry/recover/dead-letter columns are exercised too.
        6 => Box::new(
            Composite::new()
                .with(Box::new(ReliabilityScenario::default()))
                .with(Box::new(ChurnScenario::new(ChurnConfig {
                    transient_p: 0.5,
                    ..ChurnConfig::default()
                }))),
        ),
        // Rewriting-MRF world over a storm: forces the clone fallback.
        _ => Box::new(WithRewriters(Box::new(ToxicityStormScenario::new(
            StormConfig::default(),
        )))),
    }
}

fn run(
    scenario_id: usize,
    engine_seed: u64,
    threads: usize,
    measure: MeasureMode,
) -> DynamicsTrace {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global();
    let config = DynamicsConfig {
        seed: engine_seed,
        ticks: 6,
        measure,
        ..DynamicsConfig::default()
    };
    let mut engine = DynamicsEngine::new(config, seeds());
    let mut scenario = scenario_by_id(scenario_id);
    engine.run(scenario.as_mut())
}

proptest! {
    /// Whole-trace equality (not just digests) between the batched and
    /// reference measurement paths, with the batched side swept across
    /// 1, 2 and 8 threads.
    #[test]
    fn batched_measurement_matches_reference(
        scenario_id in 0_usize..8,
        engine_seed in 0_u64..1_000_000,
    ) {
        let reference = run(scenario_id, engine_seed, 1, MeasureMode::Reference);
        for threads in [1_usize, 2, 8] {
            let batched = run(scenario_id, engine_seed, threads, MeasureMode::Batched);
            prop_assert_eq!(
                reference.digest(),
                batched.digest(),
                "batched digest diverged at {} threads (scenario {})",
                threads,
                scenario_id
            );
            prop_assert!(
                reference == batched,
                "batched trace diverged at {} threads (scenario {})",
                threads,
                scenario_id
            );
        }
    }
}

/// Pins that run-length grouping and verdict memoization never change
/// `rejected_authors` (distinct `(sender, author)` pairs) counting.
///
/// Every instance is cut down to a single template, so each sender's
/// whole tick collapses into one maximal run, and a reject-all pipeline
/// rejects every delivery. The batched path must still count exactly one
/// author per live `(receiver, sender)` edge — the same as the per-post
/// oracle — not one per emission.
#[test]
fn run_length_grouping_preserves_rejected_author_counting() {
    struct SingleTemplateRejectAll;
    impl Scenario for SingleTemplateRejectAll {
        fn name(&self) -> &'static str {
            "single-template-reject-all"
        }
        fn init(
            &mut self,
            _start: SimTime,
            state: &mut NetworkState,
            _queue: &mut EventQueue,
            _rng: &mut SmallRng,
        ) {
            for inst in &mut state.instances {
                if inst.templates.len() > 1 {
                    inst.templates = Arc::from(&inst.templates[..1]);
                }
                Arc::make_mut(&mut inst.pipeline).push(Arc::new(DropPolicy));
            }
        }
    }
    let run = |measure| {
        let config = DynamicsConfig {
            ticks: 4,
            measure,
            ..DynamicsConfig::default()
        };
        DynamicsEngine::new(config, seeds()).run(&mut SingleTemplateRejectAll)
    };
    let reference = run(MeasureMode::Reference);
    let batched = run(MeasureMode::Batched);
    assert_eq!(reference.digest(), batched.digest());
    assert_eq!(reference, batched);
    assert!(reference.total_rejected() > 0, "DropPolicy rejects all");
    for tick in &batched.ticks {
        // Many rejections, few authors: the memoized runs really did
        // collapse, yet the distinct-author count stayed exact.
        assert!(tick.rejected_authors > 0);
        assert!(
            tick.rejected_authors < tick.rejected,
            "tick {}: expected run-length collapse ({} authors vs {} rejections)",
            tick.tick,
            tick.rejected_authors,
            tick.rejected
        );
    }
}
