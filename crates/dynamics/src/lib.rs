//! # fediscope-dynamics
//!
//! A deterministic discrete-event simulation engine for *time-evolving*
//! moderation experiments over the synthetic fediverse.
//!
//! The paper measures Pleroma moderation as a static snapshot; its core
//! questions — how MRF policy adoption spreads, how defederation
//! fragments the network, how much toxic exposure a rollout actually
//! prevents — are dynamic. This crate adds the missing layer:
//!
//! * [`EventQueue`] — a calendar future-event list over logical
//!   [`fediscope_core::time::SimTime`] ticks (no wall clock anywhere;
//!   pops in exact `(time, seq)` order), in fixed-width 1,024 s buckets,
//!   each a binary heap. A bucket holds
//!   single events and runs: a run is one blocklist import's adoptions
//!   at one instant, scheduled as one entry with its sequence numbers
//!   reserved, and applied whole when it falls due;
//! * [`NetworkState`] — the mutable network (per-instance moderation
//!   configs with compiled [`fediscope_core::mrf::MrfPipeline`]s,
//!   federation links, §3 failure modes, post templates), built from
//!   [`fediscope_synthgen::ScenarioSeeds`];
//! * [`DynamicsEngine`] — the tick loop: a single-threaded control
//!   phase applies events in `(time, sequence)` order, then a
//!   measurement phase fans out per instance across the rayon pool
//!   (sized via `rayon::ThreadPoolBuilder`), crediting every live
//!   neighbor's emissions with the receiver's MRF verdict (judged once
//!   per neighbor template by `MrfPipeline::filter_inbound`, then read
//!   from a per-edge verdict word) and the template's stored
//!   Perspective score;
//! * [`DynamicsTrace`] — per-tick metrics (federation link count,
//!   rejected posts/users, per-instance toxic exposure) that
//!   `fediscope-analysis` turns into time-series tables next to the
//!   paper's static figures;
//! * the [`Scenario`] trait with four shipped scenarios
//!   ([`scenarios`]): staged policy rollout, defederation cascade,
//!   §3-taxonomy instance churn, and a toxicity-storm burst workload —
//!   plus [`scenarios::Composite`], which multiplexes any of them over
//!   one timeline (storm + churn + rollout in a single run) with
//!   deterministic per-sub RNG stream splitting;
//! * [`LiveNetBridge`] — the dynamics ↔ simnet round-trip: an
//!   [`EventSink`] that mirrors `GoDown`/`Recover` onto a shared
//!   [`fediscope_simnet::SimNet`] via `set_failure` and tears follow
//!   edges down through `InstanceServer::defederate`, so the §3
//!   crawler can census a *churning* network mid-scenario (the
//!   round-trip driver lives in the root crate's `fediscope::census`);
//! * the **experiment layer** — [`EngineBuilder`] stamps engines from
//!   one shared `Arc<ScenarioSeeds>`, [`Experiment`]/[`Arm`] run N
//!   named scenario arms (identical seed, tick budget and world) across
//!   the rayon pool, and [`TraceDelta`] pairs a treatment arm against a
//!   designated baseline arm tick by tick — the A/B harness that turns
//!   "how much toxic exposure did this rollout prevent?" from an
//!   eyeballed two-run comparison into an exact per-tick counterfactual.
//!
//! # Experiment determinism
//!
//! The experiment harness adds **zero behavioural drift**: an arm's
//! trace is bit-identical to a standalone [`DynamicsEngine::run`] of
//! the same scenario over the same seeds and config, at any worker
//! count and under any arm registration order — arms
//! share only immutable seeds, every arm builds its own state, and the
//! pool decides when an arm runs, never what it computes
//! (the root `tests/contracts.rs` matrix checks this for every
//! registered scenario at 1/2/8 workers under arm-order permutation). Paired deltas are therefore exact:
//! identical senders draw identical posts in every arm, so any
//! difference is attributable to the arms' diverging moderation state.
//!
//! # Time: ticks vs. wall clock
//!
//! The engine has no wall clock. One tick spans the paper's 4-hour
//! snapshot cadence ([`fediscope_core::time::SNAPSHOT_INTERVAL`]) of
//! *logical* time, so 6 ticks ≈ one simulated day and the default
//! 42-tick run ≈ one simulated week. Every run starts at
//! [`fediscope_core::time::CAMPAIGN_START`], and tick `t` carries the
//! logical timestamp `CAMPAIGN_START + SNAPSHOT_INTERVAL × t`;
//! nothing anywhere maps ticks to real seconds, which is why traces are
//! reproducible on any machine at any load. Round-trip census runs are
//! paced in the same units: [`CensusCadence::every_ticks`] (default 6,
//! i.e. one census per simulated day; tick 0 and the final tick always
//! census) decides after which ticks the crawler re-measures the
//! bridged network.
//!
//! # Determinism
//!
//! Same seeds + same scenario ⇒ **bit-identical trace at any thread
//! count**, by construction: all mutation happens in the totally-ordered
//! control phase; measurement randomness derives per `(seed, tick,
//! sender)` rather than from any shared stream; and every trace column
//! is an integer (toxic mass in exposure units, see [`exposure_score`]),
//! so reductions are exact in any order. The root `tests/contracts.rs`
//! matrix runs every registered scenario at 1, 2 and 8 workers and
//! checks whole traces with [`DynamicsTrace::first_divergence`].
//!
//! # Delivery-reliability contract
//!
//! Real Pleroma redrives failed inbox deliveries from a retry queue;
//! the engine models that as a first-class layer, off by default and
//! enabled per run by [`scenarios::ReliabilityScenario`] calling
//! [`NetworkState::enable_retries`]. The contract:
//!
//! * **Chain opening.** When a `GoDown` applies on an up→down edge in
//!   the control phase, every live federation neighbor's pending batch
//!   to that receiver opens a retry chain — at most one chain per
//!   directed `(sender, receiver)` edge, so overlapping outages never
//!   double-schedule. Receivers that go down with a *permanent* §3 mode
//!   (404/403/410) skip the queue and dead-letter immediately.
//! * **Backoff derivation.** Attempt `n` fires `base·2^(n−1) + jitter`
//!   after the previous one (doublings capped at 2^20, saturating
//!   arithmetic throughout). `jitter` is drawn uniformly from
//!   `[0, base)` by a throwaway `SmallRng` seeded with
//!   `seed ⊕ sender·0x9e3779b97f4a7c15 ⊕ attempt·0xc2b2ae3d27d4eb4f` —
//!   the same per-entity stream-splitting scheme the measurement phase
//!   uses, keyed on `(seed, sender, attempt)` instead of a shared
//!   stream. The schedule is fixed: 5 attempts on a 1 h base, so a
//!   chain reaches ≈ 31–36 h, deliberately straddling the churn
//!   scenario's 12 h transient outages.
//! * **Determinism guarantee.** Retry events ride the same calendar
//!   [`EventQueue`] and are applied in the same single-threaded
//!   `(time, seq)` total order as every other event; jitter never
//!   touches the control RNG. Enabling retries therefore perturbs *no*
//!   other scenario's stream, and traces stay bit-identical at any
//!   worker count (the contract matrix runs the `retry`
//!   scenario at 1/2/8 workers).
//! * **Dead-letter semantics.** A chain settles exactly once: as
//!   `recovered` (an attempt found the receiver up) or as
//!   `dead_lettered` (budget exhausted, permanent failure class at
//!   fire time, or the link was severed mid-window). The state keeps
//!   the two run totals ([`NetworkState::recovered_total`],
//!   [`NetworkState::dead_letter_total`]); [`TickTrace`] carries per-tick
//!   `retried`/`recovered`/`dead_lettered` columns, digested and
//!   diffed by [`TraceDelta`] like every other metric, so a retry-on
//!   vs retry-off experiment pair attributes every redelivery to its
//!   exact tick.
//!
//! ```
//! use fediscope_dynamics::{DynamicsConfig, DynamicsEngine};
//! use fediscope_dynamics::scenarios::{CascadeConfig, DefederationCascadeScenario};
//! use fediscope_synthgen::{ScenarioSeeds, World, WorldConfig};
//!
//! let world = World::generate(WorldConfig::test_small());
//! let seeds = ScenarioSeeds::from_world(&world);
//! let mut engine = DynamicsEngine::new(DynamicsConfig::with_seed(seeds.seed), &seeds);
//! let mut scenario = DefederationCascadeScenario::new(CascadeConfig::default());
//! let trace = engine.run(&mut scenario);
//! assert!(trace.final_links() <= trace.initial_links());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bridge;
mod delta;
mod engine;
mod event;
mod experiment;
mod queue_model;
mod scenario;
mod sink;
mod state;
mod trace;

pub mod scenarios;

pub use bridge::{BridgeStats, CensusCadence, CensusSnapshot, LiveNetBridge};
pub use delta::{TickDelta, TraceDelta};
pub use engine::{DynamicsConfig, DynamicsEngine, EngineBuilder, MeasureMode};
pub use event::{Event, EventQueue, Scheduled};
pub use experiment::{Arm, ArmRun, Experiment, ExperimentResult};
pub use scenario::Scenario;
pub use sink::EventSink;
pub use state::{InstanceState, NetworkState, PostTemplate, SharedColumns};
pub use trace::{exposure_score, failure_mix_index, Divergence, DynamicsTrace, TickTrace};

#[cfg(test)]
pub(crate) mod testutil {
    use fediscope_synthgen::{ScenarioSeeds, World, WorldConfig};
    use std::sync::{Arc, OnceLock};

    /// One shared small-world seed set per test binary (world generation
    /// dominates test time; every test reads the same immutable extract).
    pub fn seeds() -> &'static ScenarioSeeds {
        static SEEDS: OnceLock<ScenarioSeeds> = OnceLock::new();
        SEEDS.get_or_init(|| ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small())))
    }

    /// The same extract behind an [`Arc`], the shape [`crate::EngineBuilder`]
    /// shares across experiment arms.
    pub fn seeds_arc() -> Arc<ScenarioSeeds> {
        static ARC: OnceLock<Arc<ScenarioSeeds>> = OnceLock::new();
        Arc::clone(ARC.get_or_init(|| Arc::new(seeds().clone())))
    }
}
