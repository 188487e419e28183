//! Scenario 6 — the delivery-reliability enabler.
//!
//! Real Pleroma never treats a failed inbox POST as terminal: its
//! federator publisher parks the delivery on a retry queue and redrives
//! it on an exponential-backoff schedule, giving up only after repeated
//! permanent failures. This scenario turns the engine's equivalent on:
//! it enables the [`RetryPolicy`] on the network state in `init` and
//! schedules nothing itself — the engine's control phase opens retry
//! chains whenever an instance drops off the network.
//!
//! Enablement is deliberately a *scenario* (not an engine knob): paired
//! experiment arms must share one `DynamicsConfig`, so "retries on" vs
//! "retries off" has to live in the one thing arms are allowed to vary.
//! Compose it with any failure-producing scenario:
//!
//! ```
//! use fediscope_dynamics::scenarios::{ChurnScenario, Composite, ReliabilityScenario};
//! let retry_churn = Composite::new()
//!     .with(Box::new(ReliabilityScenario::default()))
//!     .with(Box::new(ChurnScenario::default()));
//! ```
//!
//! The enabler draws nothing from its control stream and touches no
//! state other scenarios read, so registration order is irrelevant and
//! the composed churn events stay bit-identical to an un-composed
//! churn run.

use crate::event::EventQueue;
use crate::scenario::Scenario;
use crate::state::{NetworkState, RetryPolicy};
use fediscope_core::time::SimTime;
use rand::rngs::SmallRng;

/// Turns the engine's delivery-reliability layer on for the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReliabilityScenario {
    policy: RetryPolicy,
}

impl ReliabilityScenario {
    /// An enabler installing the given policy.
    pub fn new(policy: RetryPolicy) -> Self {
        ReliabilityScenario { policy }
    }

    /// The policy this enabler installs.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }
}

impl Scenario for ReliabilityScenario {
    fn name(&self) -> &'static str {
        "delivery_reliability"
    }

    fn init(
        &mut self,
        _start: SimTime,
        state: &mut NetworkState,
        _queue: &mut EventQueue,
        _rng: &mut SmallRng,
    ) {
        state.enable_retries(self.policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DynamicsConfig, DynamicsEngine, EngineBuilder};
    use crate::experiment::{Arm, Experiment};
    use crate::scenarios::{lookup, ChurnConfig, ChurnScenario, Composite};
    use crate::testutil::{seeds, seeds_arc};

    /// The registry's `retry` shape: the enabler over churn at
    /// `transient_p` 0.5, plenty of transient episodes so recoveries are
    /// guaranteed on the small test world (12 h outages against a 1 h-base
    /// backoff reaching ~31 h).
    fn retry() -> Box<dyn Scenario> {
        (lookup("retry").unwrap().build)()
    }

    fn config() -> DynamicsConfig {
        // The 4-day death ramp is 24 ticks; give late chains (outage at
        // the ramp edge + ~31 h of backoff) room to settle.
        DynamicsConfig {
            ticks: 36,
            ..DynamicsConfig::default()
        }
    }

    #[test]
    fn enabler_arms_the_state_and_resets_between_runs() {
        let mut engine = DynamicsEngine::new(config(), seeds());
        engine.begin(retry().as_mut());
        assert_eq!(
            engine.state().retry_policy(),
            Some(RetryPolicy::default()),
            "the enabler arms the state in init"
        );
        // A later run without the enabler starts with reliability off —
        // nothing leaks across begin().
        engine.begin((lookup("churn").unwrap().build)().as_mut());
        assert_eq!(engine.state().retry_policy(), None);
        assert_eq!(engine.state().pending_retry_count(), 0);
    }

    #[test]
    fn churn_run_with_retries_recovers_and_dead_letters() {
        let mut engine = DynamicsEngine::new(config(), seeds());
        let trace = engine.run(retry().as_mut());
        assert!(trace.total_retried() > 0, "some attempts must reschedule");
        assert!(
            trace.total_recovered() > 0,
            "12 h outages recover within the backoff reach"
        );
        assert!(
            trace.total_dead_lettered() > 0,
            "permanent seed deaths dead-letter their inbound batches"
        );
        // Settled chains balance: every recovery/dead-letter closed a
        // chain, and what is still open stays on the state.
        let settled = engine.state().recovered_total() + engine.state().dead_letter_total();
        assert_eq!(
            settled,
            trace.total_recovered() + trace.total_dead_lettered()
        );
    }

    #[test]
    fn retry_on_vs_retry_off_arms_attribute_recoveries_per_tick() {
        // Same seed, same config, same churn stream — the arms differ
        // only in the reliability enabler. The registry has no bare churn
        // at `retry`'s transient rate, so the baseline is built here. A
        // sub's stream follows its name, so both churns draw one stream.
        let experiment = Experiment::new(EngineBuilder::new(config(), seeds_arc()))
            .with_arm(Arm::new("churn", || {
                Box::new(
                    Composite::new().with(Box::new(ChurnScenario::new(ChurnConfig {
                        transient_p: 0.5,
                        ..ChurnConfig::default()
                    }))),
                )
            }))
            .with_arm(Arm::new("churn_retry", retry))
            .with_baseline("churn");
        let result = experiment.run();
        let off = result.baseline();
        let on = result.arm("churn_retry").unwrap();
        assert_eq!(
            off.trace.total_retried()
                + off.trace.total_recovered()
                + off.trace.total_dead_lettered(),
            0,
            "retry-off arm never touches the reliability layer"
        );
        assert!(on.trace.total_recovered() > 0);
        assert!(on.trace.total_dead_lettered() > 0);
        let delta = result.delta("churn_retry").unwrap();
        // Exact per-tick attribution: with a zero baseline, the delta's
        // reliability columns ARE the arm's — and nothing else moves,
        // because redelivery bookkeeping never feeds back into the
        // failure/link/emission state the measurement phase reads.
        for (td, at) in delta.ticks.iter().zip(&on.trace.ticks) {
            assert_eq!(td.retried, at.retried as i64);
            assert_eq!(td.recovered, at.recovered as i64);
            assert_eq!(td.dead_lettered, at.dead_lettered as i64);
            assert_eq!(td.links, 0);
            assert_eq!(td.instances_up, 0);
            assert_eq!(td.delivered, 0);
            assert_eq!(td.accepted, 0);
            assert_eq!(td.blocked, 0);
            assert_eq!(td.failed, 0);
            assert_eq!(td.toxic_exposure, 0);
            assert_eq!(td.exposure_prevented, 0);
        }
        assert!(delta.recovered_deliveries() > 0);
        assert!(delta.dead_lettered_deliveries() > 0);
    }
}
