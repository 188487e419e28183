//! Phase spans: RAII wall-clock timers over the engine's tick phases
//! and the bridge's census pass.
//!
//! A [`PhaseTimer`] reads `Instant::now()` at construction and records
//! the elapsed nanoseconds into the phase's [`Log2Histogram`] on drop.
//! When the registry is disarmed, construction returns an inert timer
//! without touching the clock at all — the disarmed cost of a span is
//! one relaxed load and a branch, and (critically for the ≤ 5 %
//! overhead gate) zero syscalls.
//!
//! Wall-clock readings never feed back into simulation state, logical
//! [`SimTime`], RNG streams, or trace digests — they are observation
//! only, per the crate-level "observe, never perturb" contract.

use crate::Telemetry;
use std::time::Instant;

/// The instrumented phases of a run, in tick order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Engine construction + scenario init (`Engine::begin`).
    Begin,
    /// Single-threaded control phase: due events applied in
    /// `(time, seq)` order.
    Control,
    /// Retry-chain drain: RetryDelivery events fired this tick.
    RetryDrain,
    /// Parallel measurement fan-out across receivers.
    Measurement,
    /// Tick close: per-instance reduction + trace row emission.
    TickClose,
    /// One bridge census pass (live-crawl round trip).
    Census,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; 6] = [
        Phase::Begin,
        Phase::Control,
        Phase::RetryDrain,
        Phase::Measurement,
        Phase::TickClose,
        Phase::Census,
    ];

    /// Stable snake_case name (the Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Begin => "begin",
            Phase::Control => "control",
            Phase::RetryDrain => "retry_drain",
            Phase::Measurement => "measurement",
            Phase::TickClose => "tick_close",
            Phase::Census => "census",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// RAII span: times from construction to drop and records into the
/// phase's histogram. Inert (no clock read, no record) when the
/// registry was disarmed at construction.
pub struct PhaseTimer<'t> {
    telemetry: &'t Telemetry,
    phase: Phase,
    started: Option<Instant>,
}

impl<'t> PhaseTimer<'t> {
    /// Starts a span on the global registry.
    #[inline]
    pub fn start(phase: Phase) -> PhaseTimer<'static> {
        PhaseTimer::start_on(Telemetry::global(), phase)
    }

    /// Starts a span on a specific registry.
    #[inline]
    pub fn start_on(telemetry: &'t Telemetry, phase: Phase) -> PhaseTimer<'t> {
        PhaseTimer {
            telemetry,
            phase,
            started: if telemetry.armed() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Whether this span is live (registry was armed at construction).
    pub fn is_live(&self) -> bool {
        self.started.is_some()
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.telemetry.record_phase(self.phase, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_span_is_inert() {
        let t = Telemetry::new();
        {
            let span = PhaseTimer::start_on(&t, Phase::Control);
            assert!(!span.is_live());
        }
        assert_eq!(t.phase_histogram(Phase::Control).count(), 0);
    }

    #[test]
    fn armed_span_records_on_drop() {
        let t = Telemetry::new();
        t.arm();
        {
            let span = PhaseTimer::start_on(&t, Phase::Measurement);
            assert!(span.is_live());
            std::hint::black_box(());
        }
        let h = t.phase_histogram(Phase::Measurement);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn arming_mid_span_does_not_retroactively_record() {
        let t = Telemetry::new();
        {
            let _span = PhaseTimer::start_on(&t, Phase::TickClose);
            t.arm();
        }
        assert_eq!(t.phase_histogram(Phase::TickClose).count(), 0);
    }
}
