//! Scenario 4 — toxicity-storm burst workload.
//!
//! The harmful population (instances with rejects against them — the
//! §4.2 targets) multiplies its posting rate for a burst window,
//! driving the receivers' `MrfPipeline::filter_inbound` and the
//! Perspective scorer at full rate. This is the engine's saturation
//! workload: the perf gates bench runs exactly this scenario and gates
//! on ≥ 8 M post-deliveries/sec through the filter path. The
//! trace shows the exposure spike and how much of it the already-rolled-
//! out reject edges absorb.

use crate::event::{Event, EventQueue};
use crate::scenario::Scenario;
use crate::state::NetworkState;
use fediscope_core::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;

/// Storm shape.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// When the burst starts, relative to the run start.
    pub start_offset: SimDuration,
    /// Burst length.
    pub duration: SimDuration,
    /// Emission multiplier during the burst.
    pub multiplier: f64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            start_offset: SimDuration::hours(16),
            duration: SimDuration::days(1),
            multiplier: 8.0,
        }
    }
}

/// The toxicity-storm scenario.
#[derive(Debug, Default)]
pub struct ToxicityStormScenario {
    config: StormConfig,
    stormers: u64,
}

impl ToxicityStormScenario {
    /// A scenario with the given shape.
    pub fn new(config: StormConfig) -> Self {
        ToxicityStormScenario {
            config,
            stormers: 0,
        }
    }

    /// Instances that surge during the burst (after `init`).
    pub fn stormers(&self) -> u64 {
        self.stormers
    }
}

impl Scenario for ToxicityStormScenario {
    fn name(&self) -> &'static str {
        "toxicity_storm"
    }

    fn init(
        &mut self,
        start: SimTime,
        state: &mut NetworkState,
        queue: &mut EventQueue,
        _rng: &mut SmallRng,
    ) {
        let burst_start = start + self.config.start_offset;
        let burst_end = burst_start + self.config.duration;
        for i in 0..state.len() {
            let inst = &state.instances[i];
            // The storm comes from the rejected (harmful) population.
            if inst.rejects_received == 0 || inst.templates.is_empty() {
                continue;
            }
            self.stormers += 1;
            queue.schedule(
                burst_start,
                Event::SetRate {
                    instance: i as u32,
                    rate: self.config.multiplier,
                },
            );
            queue.schedule(
                burst_end,
                Event::SetRate {
                    instance: i as u32,
                    rate: 1.0,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DynamicsConfig, DynamicsEngine};
    use crate::testutil::seeds;

    #[test]
    fn burst_spikes_volume_and_exposure() {
        let config = DynamicsConfig {
            ticks: 24, // 4 days: pre-burst, burst (ticks 4..10), post
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        let mut scenario = ToxicityStormScenario::new(StormConfig::default());
        let trace = engine.run(&mut scenario);
        assert!(scenario.stormers() > 0);
        // Ticks 0..4 are pre-burst, 4..10 in-burst, 12.. post-burst.
        let pre = trace.ticks[2].delivered;
        let during = trace.ticks[6].delivered;
        let post = trace.ticks[16].delivered;
        assert!(
            during > pre * 2,
            "burst must multiply volume: pre {pre}, during {during}"
        );
        assert_eq!(pre, post, "rates return to baseline after the burst");
        assert!(
            trace.ticks[6].toxic_exposure > trace.ticks[2].toxic_exposure,
            "the storm is toxic"
        );
        // The seed world's reject edges absorb part of the storm.
        assert!(trace.ticks[6].exposure_prevented > trace.ticks[2].exposure_prevented);
    }
}
