//! The pluggable scenario contract.

use crate::event::{EventQueue, Scheduled};
use crate::state::NetworkState;
use fediscope_core::time::SimTime;
use rand::rngs::SmallRng;

/// A scenario seeds the event queue and reacts to applied events.
///
/// The split of responsibilities is what keeps runs replayable:
///
/// * the **engine** owns every mechanical state transition (it applies
///   [`crate::Event`]s), so the same event stream always produces the
///   same state;
/// * the **scenario** owns the narrative — which events exist, when, and
///   what follows from them. Both its hooks run inside the
///   single-threaded control phase with a deterministic control RNG, so
///   anything it schedules is part of the total order.
///
/// # Import runs and `after_event`
///
/// A blocklist import schedules its adoptions as runs, one per instant
/// (see [`crate::EventQueue`]). The engine takes each due run off the
/// queue whole and applies its adoptions in sequence order, and it does
/// not call `after_event` for them: an import is one act, and no
/// scenario reacts to the single adoptions of one. Every such adoption
/// still passes through the engine's apply step, reaches the attached
/// [`crate::EventSink`] and counts in the tick's `events`. An
/// `AdoptWave` scheduled on its own (a staged rollout's wave) is an
/// ordinary event and does reach `after_event`.
pub trait Scenario {
    /// Display name (lands in the trace).
    fn name(&self) -> &'static str;

    /// Prepares initial state (e.g. stripping moderation for a rollout)
    /// and schedules the opening events. Called once before tick 0.
    fn init(
        &mut self,
        start: SimTime,
        state: &mut NetworkState,
        queue: &mut EventQueue,
        rng: &mut SmallRng,
    );

    /// Called after the engine applied `event`. `applied` is false when
    /// the event was a no-op (link already gone, rate unchanged, ...) —
    /// cascade scenarios use it as their propagation gate. Default: no
    /// reaction.
    fn after_event(
        &mut self,
        event: &Scheduled,
        applied: bool,
        state: &NetworkState,
        queue: &mut EventQueue,
        rng: &mut SmallRng,
    ) {
        let _ = (event, applied, state, queue, rng);
    }
}
