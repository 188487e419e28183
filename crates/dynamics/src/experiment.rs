//! Counterfactual experiments: paired arms over one shared world.
//!
//! The engine answers "what does this scenario do?"; an [`Experiment`]
//! answers the *causal* question — "what did the intervention change?"
//! — by running N [`Arm`]s (named scenario factories) against engines
//! stamped from one [`EngineBuilder`]: identical seed, identical tick
//! budget, identical world (shared `Arc<ScenarioSeeds>`), different
//! scenario per arm. Because every per-arm run is bit-reproducible on
//! its own, the paired per-tick differences ([`TraceDelta`]) are exact
//! counterfactuals, not noise estimates: the same sender would have
//! drawn the same posts in every arm, so any delta is attributable to
//! the arms' diverging moderation state.
//!
//! # Determinism contract
//!
//! The harness adds **zero behavioural drift**: an arm's trace is
//! bit-identical to a standalone [`DynamicsEngine::run`] of the same
//! scenario over the same seeds and config — at any worker count and
//! regardless of arm registration order (arms share nothing mutable;
//! execution across the rayon pool only decides *when* an arm runs,
//! never what it computes). The root `tests/contracts.rs` matrix checks
//! exactly this for every registered scenario at 1/2/8 workers under
//! arm-order permutation.

use crate::delta::TraceDelta;
use crate::engine::{DynamicsEngine, EngineBuilder};
use crate::scenario::Scenario;
use crate::sink::EventSink;
use crate::state::NetworkState;
use crate::trace::DynamicsTrace;
use rayon::prelude::*;
use serde::Serialize;

/// Produces a fresh scenario per run (arms own their scenario state).
type ScenarioFactory = Box<dyn Fn() -> Box<dyn Scenario> + Send + Sync>;

/// Produces an [`EventSink`] wired to a freshly built arm state.
type SinkFactory = Box<dyn Fn(&NetworkState) -> Box<dyn EventSink> + Send + Sync>;

/// One experimental arm: a name and the scenario it runs.
///
/// The factory is called once per [`Experiment::run`] so the scenario's
/// internal state (adoption counters, scheduled cohorts) never leaks
/// between runs or arms.
pub struct Arm {
    name: String,
    scenario: ScenarioFactory,
    sink: Option<SinkFactory>,
}

impl Arm {
    /// An arm running the scenario `factory` produces.
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Scenario> + Send + Sync + 'static,
    ) -> Self {
        Arm {
            name: name.into(),
            scenario: Box::new(factory),
            sink: None,
        }
    }

    /// Attaches a per-run [`EventSink`] factory (e.g. a
    /// [`crate::LiveNetBridge`] over the arm's own `SimNet`). The sink
    /// observes, never feeds back, so the determinism contract holds
    /// with or without it.
    pub fn with_sink(
        mut self,
        factory: impl Fn(&NetworkState) -> Box<dyn EventSink> + Send + Sync + 'static,
    ) -> Self {
        self.sink = Some(Box::new(factory));
        self
    }

    /// The arm's name (must be unique within an experiment — it is the
    /// baseline designator and the delta-table label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs this arm on a fresh engine from `builder`.
    fn run(&self, builder: &EngineBuilder) -> ArmRun {
        let mut engine: DynamicsEngine = builder.build();
        if let Some(sink) = &self.sink {
            engine.attach_sink(sink(engine.state()));
        }
        let mut scenario = (self.scenario)();
        let trace = engine.run(scenario.as_mut());
        ArmRun {
            name: self.name.clone(),
            trace,
        }
    }
}

/// A paired-arm experiment over one shared world.
pub struct Experiment {
    builder: EngineBuilder,
    arms: Vec<Arm>,
    baseline: Option<String>,
}

impl Experiment {
    /// An experiment whose arms all run engines from `builder`.
    pub fn new(builder: EngineBuilder) -> Self {
        Experiment {
            builder,
            arms: Vec::new(),
            baseline: None,
        }
    }

    /// Registers an arm (builder style).
    ///
    /// # Panics
    ///
    /// On a duplicate arm name — names designate baselines and label
    /// deltas, so they must be unique.
    pub fn with_arm(mut self, arm: Arm) -> Self {
        self.push(arm);
        self
    }

    /// Registers an arm. Panics on a duplicate name.
    pub fn push(&mut self, arm: Arm) {
        assert!(
            self.arms.iter().all(|a| a.name != arm.name),
            "duplicate arm name {:?}",
            arm.name
        );
        self.arms.push(arm);
    }

    /// Designates the baseline arm by name (builder style). Without a
    /// designation the first registered arm is the baseline.
    pub fn with_baseline(mut self, name: impl Into<String>) -> Self {
        self.baseline = Some(name.into());
        self
    }

    /// Number of registered arms.
    pub fn len(&self) -> usize {
        self.arms.len()
    }

    /// True when no arm is registered.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// Registered arm names, in registration order.
    pub fn arm_names(&self) -> Vec<&str> {
        self.arms.iter().map(|a| a.name()).collect()
    }

    /// The shared engine builder.
    pub fn builder(&self) -> &EngineBuilder {
        &self.builder
    }

    /// Runs every arm across the rayon pool and returns the paired
    /// result. Results land in registration order regardless of which
    /// worker finished first; each arm's trace is bit-identical to a
    /// standalone run of its scenario (the zero-drift contract).
    ///
    /// # Panics
    ///
    /// When no arm is registered, or the designated baseline name
    /// matches no arm.
    pub fn run(&self) -> ExperimentResult {
        assert!(
            !self.arms.is_empty(),
            "an experiment needs at least one arm"
        );
        let baseline = match &self.baseline {
            None => 0,
            Some(name) => self
                .arms
                .iter()
                .position(|a| &a.name == name)
                .unwrap_or_else(|| panic!("baseline arm {name:?} is not registered")),
        };
        let builder = &self.builder;
        let arms: Vec<ArmRun> = self.arms.par_iter().map(|arm| arm.run(builder)).collect();
        ExperimentResult {
            seed: self.builder.config().seed,
            baseline,
            arms,
        }
    }
}

/// One arm's completed run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ArmRun {
    /// The arm name.
    pub name: String,
    /// The arm's trace — bit-identical to a standalone run of the same
    /// scenario over the same seeds and config.
    pub trace: DynamicsTrace,
}

/// Every arm's trace plus the baseline designation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExperimentResult {
    /// The shared engine seed.
    pub seed: u64,
    /// Index of the baseline arm in [`arms`](Self::arms).
    pub baseline: usize,
    /// Arm runs, in registration order.
    pub arms: Vec<ArmRun>,
}

impl ExperimentResult {
    /// The baseline arm's run.
    pub fn baseline(&self) -> &ArmRun {
        &self.arms[self.baseline]
    }

    /// The named arm's run.
    pub fn arm(&self, name: &str) -> Option<&ArmRun> {
        self.arms.iter().find(|a| a.name == name)
    }

    /// Pairs `arm` against the baseline, labelling the delta with *arm*
    /// names (the experiment's vocabulary) rather than the scenario
    /// names inside the traces — two arms may run the same scenario
    /// under different knobs, and the arm name is what distinguishes
    /// them.
    fn paired(&self, arm: &ArmRun) -> TraceDelta {
        let baseline = self.baseline();
        let mut delta = TraceDelta::paired(&baseline.trace, &arm.trace);
        delta.baseline = baseline.name.clone();
        delta.arm = arm.name.clone();
        delta
    }

    /// Paired per-tick deltas of every non-baseline arm against the
    /// baseline, in registration order, labelled by arm name.
    pub fn deltas(&self) -> Vec<TraceDelta> {
        self.arms
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.baseline)
            .map(|(_, arm)| self.paired(arm))
            .collect()
    }

    /// The named arm's paired delta against the baseline (`None` for
    /// unknown arms and for the baseline itself).
    pub fn delta(&self, name: &str) -> Option<TraceDelta> {
        if self.baseline().name == name {
            return None;
        }
        self.arm(name).map(|arm| self.paired(arm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DynamicsConfig;
    use crate::scenarios::{InactionScenario, PolicyRolloutScenario};
    use crate::testutil::seeds_arc;

    fn builder(ticks: u64) -> EngineBuilder {
        let config = DynamicsConfig {
            ticks,
            ..DynamicsConfig::default()
        };
        EngineBuilder::new(config, seeds_arc())
    }

    fn rollout_vs_inaction(ticks: u64) -> Experiment {
        Experiment::new(builder(ticks))
            .with_arm(Arm::new("inaction", || Box::new(InactionScenario)))
            .with_arm(Arm::new("rollout", || {
                Box::new(PolicyRolloutScenario::default())
            }))
            .with_baseline("inaction")
    }

    #[test]
    fn rollout_prevents_exposure_vs_inaction() {
        let result = rollout_vs_inaction(24).run();
        assert_eq!(result.baseline().name, "inaction");
        assert_eq!(result.arms.len(), 2);
        let deltas = result.deltas();
        assert_eq!(deltas.len(), 1);
        let delta = &deltas[0];
        // Deltas speak the experiment's vocabulary: arm names, not the
        // scenario names embedded in the traces.
        assert_eq!(delta.baseline, "inaction");
        assert_eq!(delta.arm, "rollout");
        // The rollout blocks deliveries the inaction baseline accepts,
        // and keeps toxic mass out of timelines.
        assert!(delta.blocked_deliveries() > 0);
        assert!(delta.prevented_exposure() > 0);
        // Prevention accrues: the cumulative curve is non-decreasing
        // once adoption starts, and ends at the total.
        let cumulative = delta.cumulative_prevented();
        assert_eq!(
            *cumulative.last().unwrap(),
            delta.prevented_exposure(),
            "cumulative curve must end at the total"
        );
        // Identical traffic in both arms: same deliveries tick by tick
        // (neither arm churns or storms), so the delivered delta is 0.
        assert!(delta.ticks.iter().all(|t| t.delivered == 0));
    }

    #[test]
    fn arm_traces_match_standalone_runs() {
        let result = rollout_vs_inaction(12).run();
        let b = builder(12);
        let mut standalone_engine = DynamicsEngine::new(b.config().clone(), b.seeds());
        let mut scenario = PolicyRolloutScenario::default();
        let standalone = standalone_engine.run(&mut scenario);
        let arm = result.arm("rollout").unwrap();
        assert_eq!(arm.trace.digest(), standalone.digest());
        assert_eq!(arm.trace, standalone);
    }

    #[test]
    fn default_baseline_is_the_first_arm() {
        let result = Experiment::new(builder(6))
            .with_arm(Arm::new("a", || Box::new(InactionScenario)))
            .with_arm(Arm::new("b", || Box::new(InactionScenario)))
            .run();
        assert_eq!(result.baseline, 0);
        assert_eq!(result.baseline().name, "a");
        // Two arms of the same scenario: deltas are exactly zero.
        let delta = result.delta("b").unwrap();
        assert_eq!(delta.blocked_deliveries(), 0);
        assert_eq!(delta.prevented_exposure(), 0);
        // The baseline has no delta against itself.
        assert!(result.delta("a").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate arm name")]
    fn duplicate_arm_names_are_rejected() {
        let _ = Experiment::new(builder(6))
            .with_arm(Arm::new("a", || Box::new(InactionScenario)))
            .with_arm(Arm::new("a", || Box::new(InactionScenario)));
    }

    #[test]
    #[should_panic(expected = "is not registered")]
    fn unknown_baseline_is_rejected() {
        let _ = Experiment::new(builder(6))
            .with_arm(Arm::new("a", || Box::new(InactionScenario)))
            .with_baseline("nope")
            .run();
    }
}
