//! Scenario 3 — instance churn replaying the §3 failure taxonomy.
//!
//! The paper found 236 of 1,534 Pleroma instances unreachable: 110×404,
//! 84×403, 24×502, 11×503, 7×410. The generated world assigns those
//! modes statically; this scenario replays them as *deaths over time* —
//! everyone starts healthy, the doomed instances go down in their seed
//! failure mode across a ramp window, and a configurable fraction of
//! healthy instances suffers transient 502/503 outages with recovery.
//! The trace's `failure_mix` converges to exactly the seeded taxonomy,
//! and `failed` counts the deliveries the churn destroyed.

use crate::event::{Event, EventQueue};
use crate::scenario::Scenario;
use crate::state::NetworkState;
use fediscope_core::time::{SimDuration, SimTime};
use fediscope_simnet::FailureMode;
use rand::rngs::SmallRng;
use rand::Rng;

/// Window over which the seeded (permanent) deaths are spread, and
/// over which transient outage starts are drawn.
const RAMP: SimDuration = SimDuration::days(4);

/// Churn shape.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Probability that a healthy instance suffers transient outages.
    pub transient_p: f64,
    /// Length of a transient outage. No caller sets it; it stays a field
    /// only while the benchmark's `ChurnConfig { transient_p, rounds,
    /// ..ChurnConfig::default() }` literal needs a field it does not
    /// name (with none left, clippy's `needless_update` flags that
    /// literal), and becomes a constant with the next benchmark change.
    pub outage: SimDuration,
    /// Transient outage+recovery episodes each affected instance
    /// suffers (default 1 — the historical behaviour; event-flood
    /// benches crank it to stress the control phase). Episode start
    /// times are drawn independently across the ramp window, so
    /// episodes of one instance may overlap; a `Recover` always re-arms
    /// the instance, so overlapping windows coalesce (an earlier
    /// episode's recovery ends a later episode's outage early) — total
    /// downtime does *not* scale linearly with `rounds`.
    pub rounds: u32,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            transient_p: 0.05,
            outage: SimDuration::hours(12),
            rounds: 1,
        }
    }
}

/// The churn scenario.
#[derive(Debug, Default)]
pub struct ChurnScenario {
    config: ChurnConfig,
    permanent_deaths: u64,
    transients: u64,
}

impl ChurnScenario {
    /// A scenario with the given shape.
    pub fn new(config: ChurnConfig) -> Self {
        ChurnScenario {
            config,
            permanent_deaths: 0,
            transients: 0,
        }
    }

    /// Seeded (permanent) deaths scheduled (after `init`).
    pub fn permanent_deaths(&self) -> u64 {
        self.permanent_deaths
    }

    /// Transient outages scheduled (after `init`).
    pub fn transients(&self) -> u64 {
        self.transients
    }
}

impl Scenario for ChurnScenario {
    fn name(&self) -> &'static str {
        "instance_churn"
    }

    fn init(
        &mut self,
        start: SimTime,
        state: &mut NetworkState,
        queue: &mut EventQueue,
        rng: &mut SmallRng,
    ) {
        // Everyone starts alive; the taxonomy is *replayed*, not assumed.
        let doomed: Vec<(u32, FailureMode)> = (0..state.len())
            .filter_map(|i| {
                let mode = state.instances[i].seed_failure;
                (mode != FailureMode::Healthy).then_some((i as u32, mode))
            })
            .collect();
        for i in 0..state.len() {
            state.set_failure(i as u32, FailureMode::Healthy);
        }
        self.permanent_deaths = doomed.len() as u64;
        let n = doomed.len().max(1) as u64;
        for (pos, (i, mode)) in doomed.into_iter().enumerate() {
            let at = start + SimDuration(RAMP.0 * pos as u64 / n);
            queue.schedule(at, Event::GoDown { instance: i, mode });
        }
        // Transient outages on the survivors: 502/503 with recovery,
        // scheduled from the deterministic control RNG.
        for i in 0..state.len() {
            if state.instances[i].seed_failure != FailureMode::Healthy {
                continue;
            }
            if !rng.gen_bool(self.config.transient_p) {
                continue;
            }
            for _ in 0..self.config.rounds.max(1) {
                self.transients += 1;
                let mode = if rng.gen_bool(0.7) {
                    FailureMode::BadGateway
                } else {
                    FailureMode::Unavailable
                };
                let offset = SimDuration(rng.gen_range(0..RAMP.0));
                let down_at = start + offset;
                queue.schedule(
                    down_at,
                    Event::GoDown {
                        instance: i as u32,
                        mode,
                    },
                );
                queue.schedule(
                    down_at + self.config.outage,
                    Event::Recover { instance: i as u32 },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DynamicsConfig, DynamicsEngine};
    use crate::testutil::seeds;

    fn churn_config() -> DynamicsConfig {
        DynamicsConfig {
            ticks: 36, // 6 days of 4h ticks: past the 4-day ramp + outages
            ..DynamicsConfig::default()
        }
    }

    #[test]
    fn failure_mix_converges_to_the_seed_taxonomy() {
        let mut engine = DynamicsEngine::new(churn_config(), seeds());
        let mut scenario = ChurnScenario::new(ChurnConfig::default());
        let trace = engine.run(&mut scenario);
        assert!(scenario.permanent_deaths() > 0);
        // Tick 0: everyone alive (the ramp's first death fires at t0,
        // so allow up to one early casualty).
        let first = &trace.ticks[0];
        let down0: u64 = first.failure_mix.iter().sum();
        assert!(down0 <= 1, "churn must start from a healthy fleet");
        // Final tick: the taxonomy matches the seeds exactly (all
        // transients have recovered by then).
        let want: Vec<u64> = {
            let s = seeds();
            let mut mix = vec![0u64; 5];
            for &failure in &s.failures {
                if let Some(idx) = crate::trace::failure_mix_index(failure) {
                    mix[idx] += 1;
                }
            }
            mix
        };
        assert_eq!(trace.ticks.last().unwrap().failure_mix, want);
        assert_eq!(
            trace.ticks.last().unwrap().failure_mix.iter().sum::<u64>(),
            scenario.permanent_deaths()
        );
    }

    #[test]
    fn churn_destroys_deliveries() {
        let mut engine = DynamicsEngine::new(churn_config(), seeds());
        let mut scenario = ChurnScenario::new(ChurnConfig::default());
        let trace = engine.run(&mut scenario);
        let failed: u64 = trace.ticks.iter().map(|t| t.failed).sum();
        assert!(failed > 0, "dead receivers must lose deliveries");
        // The fleet shrinks over the ramp.
        assert!(trace.ticks.last().unwrap().instances_up < trace.ticks[0].instances_up);
    }
}
