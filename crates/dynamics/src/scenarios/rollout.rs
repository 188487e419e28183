//! Scenario 1 — staged MRF policy rollout.
//!
//! Every instance starts from the fresh-install default (`ObjectAge` +
//! `NoOp`, §4.1) and adopts its seed-world moderation profile in waves:
//! the heaviest moderators (largest reject lists — the curated-blocklist
//! crowd) move first, in cohorts, each instance splitting its final
//! config into [`fediscope_core::rollout::PolicyRollout`] waves. The
//! trace then answers the question the paper's static snapshot cannot:
//! how much toxic exposure does each stage of adoption actually prevent?

use crate::event::{Event, EventQueue};
use crate::scenario::Scenario;
use crate::state::NetworkState;
use fediscope_core::rollout::PolicyRollout;
use fediscope_core::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;

/// Rollout shape.
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// Waves each instance splits its target config into.
    pub waves: usize,
    /// Spacing between one instance's waves.
    pub wave_interval: SimDuration,
    /// Number of adoption cohorts (instances are dealt into cohorts in
    /// adoption order; cohort `c` starts `c × cohort_stagger` in).
    pub cohorts: usize,
    /// Delay between successive cohorts' starts.
    pub cohort_stagger: SimDuration,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            waves: 3,
            wave_interval: SimDuration::hours(8),
            cohorts: 5,
            cohort_stagger: SimDuration::hours(12),
        }
    }
}

/// The staged-rollout scenario.
#[derive(Debug, Default)]
pub struct PolicyRolloutScenario {
    config: RolloutConfig,
    adopters: usize,
}

impl PolicyRolloutScenario {
    /// A scenario with the given shape.
    pub fn new(config: RolloutConfig) -> Self {
        PolicyRolloutScenario {
            config,
            adopters: 0,
        }
    }

    /// Instances scheduled to adopt (available after `init`).
    pub fn adopters(&self) -> usize {
        self.adopters
    }
}

impl Scenario for PolicyRolloutScenario {
    fn name(&self) -> &'static str {
        "policy_rollout"
    }

    fn init(
        &mut self,
        start: SimTime,
        state: &mut NetworkState,
        queue: &mut EventQueue,
        _rng: &mut SmallRng,
    ) {
        // Everyone back to the fresh install.
        for i in 0..state.len() {
            state.reset_moderation_default(i);
        }
        // Adoption order: the canonical `ScenarioSeeds::adoption_order`
        // (heaviest final reject lists first, ties by index), carried on
        // the state — deterministic without touching the RNG.
        let order: Vec<u32> = state.adoption_order().to_vec();
        self.adopters = order.len();
        let cohorts = self.config.cohorts.max(1);
        for (pos, i) in order.into_iter().enumerate() {
            let cohort = pos * cohorts / self.adopters.max(1);
            let cohort_start = start + SimDuration(self.config.cohort_stagger.0 * cohort as u64);
            let rollout = PolicyRollout::staged(
                &state.instances[i as usize].target,
                self.config.waves,
                self.config.wave_interval,
            );
            for wave in rollout.waves {
                let at = cohort_start + wave.offset;
                queue.schedule(
                    at,
                    Event::AdoptWave {
                        instance: i,
                        wave: std::sync::Arc::new(wave),
                    },
                );
            }
        }
    }
}

/// The counterfactual null arm: every instance is stripped to the
/// fresh-install default — exactly the state a [`PolicyRolloutScenario`]
/// starts from — and *nothing is ever adopted*. The "admins do nothing"
/// world of the *Will Admins Cope?* comparison: pairing this against a
/// rollout arm in a [`crate::Experiment`] isolates what adoption itself
/// prevents, because both arms share identical initial moderation and
/// identical traffic.
#[derive(Debug, Default)]
pub struct InactionScenario;

impl Scenario for InactionScenario {
    fn name(&self) -> &'static str {
        "inaction"
    }

    fn init(
        &mut self,
        _start: SimTime,
        state: &mut NetworkState,
        _queue: &mut EventQueue,
        _rng: &mut SmallRng,
    ) {
        // The same strip a rollout performs — and then silence.
        for i in 0..state.len() {
            state.reset_moderation_default(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DynamicsConfig, DynamicsEngine};
    use crate::testutil::seeds;

    #[test]
    fn inaction_never_adopts() {
        let config = DynamicsConfig {
            ticks: 8,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        let trace = engine.run(&mut InactionScenario);
        assert_eq!(trace.ticks.iter().map(|t| t.events).sum::<u64>(), 0);
        assert!(trace.ticks.iter().all(|t| t.adopted == 0));
        // Stripped pipelines still run the fresh-install defaults, which
        // reject nothing by domain: exposure flows freely.
        assert!(trace.total_exposure() > 0);
    }

    #[test]
    fn rollout_ramps_rejections_up() {
        let config = DynamicsConfig {
            ticks: 30,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        let mut scenario = PolicyRolloutScenario::new(RolloutConfig::default());
        let trace = engine.run(&mut scenario);
        assert!(scenario.adopters() > 0);
        // Tick 0 fires the first cohort's first wave inside the control
        // phase, so some rejects may exist immediately; but the late
        // trace must reject strictly more than the early one, and end
        // with every adopter done.
        let early: u64 = trace.ticks[..5].iter().map(|t| t.rejected).sum();
        let late: u64 = trace.ticks[trace.ticks.len() - 5..]
            .iter()
            .map(|t| t.rejected)
            .sum();
        assert!(
            late > early,
            "adoption must ramp rejections: early {early}, late {late}"
        );
        assert_eq!(
            trace.ticks.last().unwrap().adopted,
            scenario.adopters() as u64
        );
        assert!(trace.total_prevented() > 0);
    }

    #[test]
    fn fully_rolled_out_config_matches_target() {
        let config = DynamicsConfig {
            ticks: 40,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        let mut scenario = PolicyRolloutScenario::new(RolloutConfig::default());
        engine.run(&mut scenario);
        use fediscope_core::mrf::policies::SimpleAction;
        for inst in &engine.state().instances {
            let want = inst
                .target
                .simple
                .as_ref()
                .map(|s| s.targets(SimpleAction::Reject).len())
                .unwrap_or(0);
            let got = inst
                .simple()
                .map(|s| s.targets(SimpleAction::Reject).len())
                .unwrap_or(0);
            assert_eq!(got, want, "{} must converge to its target", inst.domain);
        }
    }
}
