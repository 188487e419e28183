//! The discrete-event engine: a control phase that applies events in a
//! total order, and a measurement phase that fans out per instance.
//!
//! # Determinism
//!
//! Two properties make a run bit-reproducible at any thread count:
//!
//! 1. **Total event order.** The control phase is single-threaded and
//!    consumes the queue in `(time, sequence)` order; all state
//!    mutation happens here.
//! 2. **Scheduling-independent randomness.** The measurement phase
//!    derives a fresh RNG per `(seed, tick, sender)` — never from a
//!    shared stream — so which worker processes which instance cannot
//!    change a single draw.
//!
//! Every per-instance metric is an integer (toxic mass in the exposure
//! units of [`crate::trace`]), so reductions are exact in any order.
//!
//! # The two-stage (sender-majorized) measurement phase
//!
//! [`delivery_seed`] is receiver-independent: every receiver replays the
//! *same* emission stream for a given `(seed, tick, sender)`. The default
//! measurement path ([`MeasureMode::Batched`]) exploits that:
//!
//! - **Stage 1 — parallel over senders.** Each sender's tick emissions
//!   are drawn exactly once, counted on the stack, and folded into a
//!   fixed-size [`SenderBatch`]: the mask of drawn templates, the draw
//!   total, the toxic mass (Σ count · toxicity) and the number of
//!   distinct authors among the drawn templates. Each drawn template is
//!   read once per sender-tick, and stage 1 allocates nothing. It only
//!   draws: every template was scored once, when its column was built
//!   ([`PostTemplate::toxic`]), so a run makes one scorer call per
//!   template whatever its tick count.
//! - **Stage 2 — parallel over receivers.** Each up receiver reads one
//!   verdict word per neighbor ([`NetworkState::verdict_row`]): a bit per
//!   template says whether its pipeline has judged that neighbor's
//!   template, and another whether it accepted it. Only the drawn
//!   templates the word does not know yet are judged, in index order,
//!   with [`MrfPipeline::filter_inbound`] on the borrowed template (a
//!   stage that actually rewrites *this* activity clones it once, and the
//!   walk continues from the clone); the word is stored back once if it
//!   changed. A steady run therefore makes one filter call per (receiver,
//!   neighbor, template) it ever draws, not one per tick. The edge is
//!   then credited in O(1) from the summary: whole-instance policies make
//!   a word accept every drawn template or reject every one, and the
//!   summary's totals go to one side. Only a *mixed* edge replays the
//!   sender's [`delivery_seed`] stream for per-template counts and
//!   de-duplicates its rejected authors. Since a receiver's neighbor
//!   list holds each sender once, de-duplicating per edge counts exactly
//!   the `(sender, author)` pairs the per-post path counts per receiver.
//!
//! A stored verdict is sound because every verdict is a pure function:
//! no policy keeps mutable memory, and under the engine's context (a
//! [`NullActorDirectory`], `published = now`, sender ≠ receiver) it
//! depends only on the receiver's pipeline and the template. The control
//! phase marks a receiver stale whenever it writes its pipeline, and a
//! measured tick clears the stale rows before stage 2; [`begin`] clears
//! every row after the scenario's `init`. One worker measures a receiver
//! per tick, so no word has two writers, and the thread join that ends
//! each parallel call orders one tick's stores before the next tick's
//! loads.
//!
//! Identity with the reference path holds because the draws are the
//! same RNG stream and every column is an integer: a template drawn
//! `count` times adds `count` times its stored quantised toxicity,
//! exactly what `count` single additions give. The per-post path is
//! retained as [`MeasureMode::Reference`] and serves as the differential
//! oracle in tests: it scores and filters every emission afresh, so it
//! also checks every stored score and every stored verdict it draws.
//!
//! [`PostTemplate::toxic`]: crate::PostTemplate::toxic
//! [`MrfPipeline::filter_inbound`]: fediscope_core::mrf::MrfPipeline::filter_inbound
//! [`begin`]: DynamicsEngine::begin

use crate::event::{Due, Event, EventQueue};
use crate::scenario::Scenario;
use crate::sink::EventSink;
use crate::state::{
    retry_backoff, NetworkState, SharedColumns, MAX_RETRY_ATTEMPTS, MAX_TEMPLATES,
    RETRY_BASE_BACKOFF,
};
use fediscope_simnet::FailureClass;

use crate::trace::{quantise_score, DynamicsTrace, TickTrace};
use fediscope_core::mrf::{Inbound, NullActorDirectory, PolicyContext};
use fediscope_core::time::{SimDuration, SimTime, CAMPAIGN_START, SNAPSHOT_INTERVAL};
use fediscope_perspective::Scorer;
use fediscope_synthgen::ScenarioSeeds;
use fediscope_telemetry::{GaugeId, HotCounter, Phase, PhaseTimer, Telemetry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which measurement-phase implementation [`DynamicsEngine::step`] runs.
///
/// Both produce bit-identical traces; they differ only in cost. The
/// batched path is the default, the per-post path is the differential
/// oracle the tests select explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureMode {
    /// Two-stage sender-majorized batching: summarise each sender's
    /// emissions once into a fixed-size summary, read each `(receiver,
    /// sender, template)` MRF verdict from the per-edge table, judging it
    /// only the first time it is drawn, and credit each edge from the
    /// summary.
    Batched,
    /// The original per-post path: every `(receiver, sender)` edge
    /// replays the sender's draws and clones + filters every emission.
    Reference,
}

/// Logical tick length: the paper's 4-hour snapshot cadence.
const TICK_LEN: SimDuration = SNAPSHOT_INTERVAL;

/// Logical start time of every run: the campaign start.
const START: SimTime = CAMPAIGN_START;

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct DynamicsConfig {
    /// Engine seed (scenario control RNG and per-tick delivery draws).
    pub seed: u64,
    /// Number of ticks to run.
    pub ticks: u64,
    /// Per-sender per-tick emission cap (keeps one giant instance from
    /// dominating a storm).
    pub emission_cap: u64,
    /// Measurement-phase implementation (default: [`MeasureMode::Batched`]).
    pub measure: MeasureMode,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            seed: 1534,
            ticks: 42,
            emission_cap: 64,
            measure: MeasureMode::Batched,
        }
    }
}

impl DynamicsConfig {
    /// Default knobs with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        DynamicsConfig {
            seed,
            ..DynamicsConfig::default()
        }
    }
}

/// Per-instance metrics of one tick's measurement phase.
#[derive(Debug, Default, Clone)]
struct InstanceTick {
    delivered: u64,
    accepted: u64,
    rejected: u64,
    failed: u64,
    rejected_authors: u64,
    exposure: u64,
    prevented: u64,
    filter_calls: u64,
}

/// A reusable engine factory over one shared seed extract.
///
/// [`DynamicsEngine::new`] fuses seed consumption, state construction
/// and sink wiring into a single non-reusable path — fine for one run,
/// wasteful for a counterfactual experiment that needs N engines over
/// the *same* world. The builder holds the [`ScenarioSeeds`] behind an
/// [`Arc`] and stamps out fresh engines from it: each [`build`]
/// constructs a new mutable [`NetworkState`] (arms must not share
/// mutable state), while the seed extract — domains, templates, links,
/// target configs — is read through the shared allocation.
///
/// Every engine a builder produces is configured identically (same
/// [`DynamicsConfig`]: seed, tick budget, emission cap), which is
/// exactly the pairing contract of [`crate::Experiment`]: arm traces
/// differ only because their scenarios differ.
///
/// [`build`]: Self::build
#[derive(Clone)]
pub struct EngineBuilder {
    config: DynamicsConfig,
    seeds: Arc<ScenarioSeeds>,
    /// The interned seed-derived columns (compiled pipelines, configs,
    /// template sets), built once: every engine this builder stamps out
    /// aliases them by refcount instead of rebuilding per arm.
    columns: Arc<SharedColumns>,
}

impl EngineBuilder {
    /// A builder producing engines with `config` over the shared seeds.
    /// Builds the interned [`SharedColumns`] once, up front.
    pub fn new(config: DynamicsConfig, seeds: Arc<ScenarioSeeds>) -> Self {
        let columns = Arc::new(SharedColumns::build(&seeds));
        EngineBuilder {
            config,
            seeds,
            columns,
        }
    }

    /// The configuration every built engine runs.
    pub fn config(&self) -> &DynamicsConfig {
        &self.config
    }

    /// The shared seed extract.
    pub fn seeds(&self) -> &Arc<ScenarioSeeds> {
        &self.seeds
    }

    /// The shared seed-derived columns every built engine aliases.
    pub fn columns(&self) -> &Arc<SharedColumns> {
        &self.columns
    }

    /// Stamps out a fresh engine: new state, no sink, tick 0. The
    /// state's `Arc` columns alias the builder's [`SharedColumns`].
    pub fn build(&self) -> DynamicsEngine {
        DynamicsEngine::assemble(
            self.config.clone(),
            NetworkState::from_seeds_shared(&self.seeds, &self.columns),
        )
    }
}

/// The engine: state + queue + clock.
pub struct DynamicsEngine {
    config: DynamicsConfig,
    state: NetworkState,
    queue: EventQueue,
    scorer: Scorer,
    sink: Option<Box<dyn EventSink>>,
    ctrl_rng: Option<SmallRng>,
    next_tick: u64,
    /// Tick-local reliability counters (batches): retry attempts that
    /// rescheduled, redeliveries that landed, batches given up on.
    /// Reset at the top of every [`Self::step`]; folded into the tick's
    /// trace row by [`Self::aggregate`].
    tick_retried: u64,
    tick_recovered: u64,
    tick_dead_lettered: u64,
    /// Reusable sender-id buffer for [`Self::on_receiver_down`]: a churn
    /// storm takes an instance down every few ticks, and re-allocating
    /// the inbound-edge list per outage showed up in the retry-storm
    /// profile.
    down_scratch: Vec<u32>,
}

impl DynamicsEngine {
    /// Builds an engine over the seeded network.
    pub fn new(config: DynamicsConfig, seeds: &ScenarioSeeds) -> Self {
        DynamicsEngine::assemble(config, NetworkState::from_seeds(seeds))
    }

    /// Builds an engine over an explicitly constructed state — the hook
    /// the differential tests and benches use to run the engine over
    /// [`NetworkState::from_seeds_reference`] (or a pre-shared state)
    /// without going through the interned default path.
    pub fn from_state(config: DynamicsConfig, state: NetworkState) -> Self {
        DynamicsEngine::assemble(config, state)
    }

    /// The one assembly path every constructor funnels through
    /// ([`Self::new`] and [`EngineBuilder::build`]): wires a built state
    /// to a fresh queue, scorer and clock.
    fn assemble(config: DynamicsConfig, state: NetworkState) -> Self {
        DynamicsEngine {
            config,
            state,
            queue: EventQueue::new(),
            scorer: Scorer::new(),
            sink: None,
            ctrl_rng: None,
            next_tick: 0,
            tick_retried: 0,
            tick_recovered: 0,
            tick_dead_lettered: 0,
            down_scratch: Vec::new(),
        }
    }

    /// The current network state.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// The engine configuration.
    pub fn config(&self) -> &DynamicsConfig {
        &self.config
    }

    /// Attaches an [`EventSink`] that mirrors every applied event (and
    /// scenario-`init` state rewrites, via [`EventSink::sync`]) onto an
    /// external system — a [`crate::LiveNetBridge`] keeping a live
    /// `SimNet` in step with the engine. The sink never feeds back into
    /// the engine, so the determinism contract is unaffected.
    pub fn attach_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Applies one event; returns whether it changed state (the
    /// propagation gate scenarios key their follow-up scheduling on).
    /// `now` is the event's fire time — the origin every follow-up the
    /// reliability layer schedules (backoff retries) is offset from.
    fn apply(&mut self, event: &Event, now: SimTime) -> bool {
        let applied = match event {
            Event::AdoptWave { instance, wave } => self.state.apply_wave(*instance, wave),
            Event::Defederate { instance, target } => self.state.defederate(*instance, *target),
            Event::GoDown { instance, mode } => {
                let was_up = self.state.instances[*instance as usize].up();
                let applied = self.state.set_failure(*instance, *mode);
                // Retry chains open on the up→down edge only: a mode
                // change while already down is covered by the chains
                // opened at the original outage (their next attempt
                // re-reads the current class).
                if applied && was_up {
                    self.on_receiver_down(*instance, now);
                }
                applied
            }
            Event::Recover { instance } => self
                .state
                .set_failure(*instance, fediscope_simnet::FailureMode::Healthy),
            Event::SetRate { instance, rate } => self.state.set_rate(*instance, *rate),
            Event::RetryDelivery {
                sender,
                receiver,
                attempt,
            } => self.apply_retry(*sender, *receiver, *attempt, now),
        };
        if let Some(sink) = self.sink.as_mut() {
            sink.on_event(event, applied, &self.state);
        }
        applied
    }

    /// Reliability hook for an instance that just dropped off the
    /// network (single-threaded control phase — the measurement fan-out
    /// never schedules). No-op unless the run opted in via
    /// [`NetworkState::enable_retries`].
    ///
    /// One delivery batch per inbound edge: a transient outage opens a
    /// retry chain per sender (attempt 1 scheduled at `now + backoff`),
    /// a permanent death short-circuits every batch straight to the
    /// senders' dead-letter queues — there is nothing to wait for.
    fn on_receiver_down(&mut self, receiver: u32, now: SimTime) {
        if !self.state.retries_enabled() {
            return;
        }
        let Some(class) = self.state.failure_class_of(receiver) else {
            return;
        };
        let mut senders = std::mem::take(&mut self.down_scratch);
        senders.clear();
        senders.extend_from_slice(self.state.neighbors(receiver as usize));
        for &s in &senders {
            match class {
                FailureClass::Permanent => {
                    self.state.settle_dead_letter(s, receiver);
                    self.tick_dead_lettered += 1;
                }
                FailureClass::Transient => {
                    if self.state.open_retry_chain(s, receiver) {
                        let delay = backoff_delay(self.config.seed, s, 1);
                        self.queue.schedule(
                            now + delay,
                            Event::RetryDelivery {
                                sender: s,
                                receiver,
                                attempt: 1,
                            },
                        );
                    }
                }
            }
        }
        self.down_scratch = senders;
    }

    /// One redelivery attempt fires. Resolution order: a severed link
    /// dead-letters (defederation is permanent by definition); a
    /// recovered receiver takes the batch; a permanently-dead receiver
    /// dead-letters; a still-transient outage reschedules until the
    /// attempt budget is spent, then dead-letters.
    fn apply_retry(&mut self, sender: u32, receiver: u32, attempt: u32, now: SimTime) -> bool {
        if !self.state.retries_enabled() {
            return false;
        }
        // Stale event (chain already settled): scenarios scheduling raw
        // `RetryDelivery` events by hand cannot double-settle a batch.
        if !self.state.retry_pending(sender, receiver) {
            return false;
        }
        if !self.state.linked(sender, receiver) {
            self.state.settle_dead_letter(sender, receiver);
            self.tick_dead_lettered += 1;
            return true;
        }
        match self.state.failure_class_of(receiver) {
            None => {
                self.state.settle_recovered(sender, receiver);
                self.tick_recovered += 1;
            }
            Some(FailureClass::Permanent) => {
                self.state.settle_dead_letter(sender, receiver);
                self.tick_dead_lettered += 1;
            }
            Some(FailureClass::Transient) => {
                if attempt >= MAX_RETRY_ATTEMPTS {
                    self.state.settle_dead_letter(sender, receiver);
                    self.tick_dead_lettered += 1;
                } else {
                    let next = attempt + 1;
                    self.state.bump_retry_attempt(sender, receiver, next);
                    self.tick_retried += 1;
                    let delay = backoff_delay(self.config.seed, sender, next);
                    self.queue.schedule(
                        now + delay,
                        Event::RetryDelivery {
                            sender,
                            receiver,
                            attempt: next,
                        },
                    );
                }
            }
        }
        true
    }

    /// Starts a run: resets the clock and queue, seeds the control RNG,
    /// lets `scenario` prepare state and schedule its opening events, and
    /// re-syncs any attached sink to the post-`init` state (scenarios
    /// rewrite state directly in `init` — failure resets, moderation
    /// strips — which never flows through `apply`).
    ///
    /// [`Self::run`] calls this internally; call it directly only when
    /// driving the tick loop by hand via [`Self::step`] — the
    /// dynamics↔simnet round-trip does, to interleave census crawls
    /// between ticks.
    pub fn begin(&mut self, scenario: &mut dyn Scenario) {
        let telemetry = Telemetry::global();
        let _span = PhaseTimer::start_on(telemetry, Phase::Begin);
        if telemetry.armed() {
            telemetry.set_instance_labels(self.state.instances.iter().map(|i| i.domain.as_str()));
        }
        // One deterministic control stream for the whole run; only the
        // single-threaded control phase draws from it.
        let mut ctrl_rng = SmallRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x5ced_1534),
        );
        self.queue = EventQueue::new();
        self.next_tick = 0;
        self.tick_retried = 0;
        self.tick_recovered = 0;
        self.tick_dead_lettered = 0;
        // Reliability is opt-in per run: clear any policy, open chains
        // and counters a previous run left behind, then let the scenario
        // re-enable in `init` if it wants retries.
        self.state.reset_reliability();
        scenario.init(START, &mut self.state, &mut self.queue, &mut ctrl_rng);
        // `init` may rewrite pipelines and templates directly, which no
        // stale mark sees: start the run with no stored verdict.
        self.state.clear_verdicts();
        self.ctrl_rng = Some(ctrl_rng);
        if let Some(sink) = self.sink.as_mut() {
            sink.sync(&self.state);
        }
    }

    /// Runs one tick — control phase (events in total order), then the
    /// parallel measurement phase — and returns its trace row. Returns
    /// `None` once the configured tick budget is spent. Requires
    /// [`Self::begin`] first.
    pub fn step(&mut self, scenario: &mut dyn Scenario) -> Option<TickTrace> {
        if self.next_tick >= self.config.ticks {
            return None;
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        let now = START + SimDuration(TICK_LEN.0 * tick);
        // ---- control phase: apply due events in total order ----
        let mut ctrl_rng = self
            .ctrl_rng
            .take()
            .expect("begin() must run before step()");
        let telemetry = Telemetry::global();
        let mut events = 0u64;
        self.tick_retried = 0;
        self.tick_recovered = 0;
        self.tick_dead_lettered = 0;
        {
            let _control = PhaseTimer::start_on(telemetry, Phase::Control);
            // An import run is one act: a due run comes off the queue
            // whole and its adoptions apply back to back, in seq order.
            // Each still reaches the sink and counts as an event, but
            // `after_event` does not see it (see `Scenario`); nothing can
            // be scheduled between them, since applying an adoption
            // schedules nothing.
            while let Some(due) = self.queue.pop_due_run(now) {
                let scheduled = match due {
                    Due::Run(at, run) => {
                        for (_, adoption) in run {
                            self.apply(&adoption, at);
                            events += 1;
                        }
                        continue;
                    }
                    Due::One(scheduled) => scheduled,
                };
                // Retry-chain events get their own sub-span: the drain is
                // the reliability layer's share of the control phase.
                let _retry = matches!(scheduled.event, Event::RetryDelivery { .. })
                    .then(|| PhaseTimer::start_on(telemetry, Phase::RetryDrain));
                let applied = self.apply(&scheduled.event, scheduled.at);
                drop(_retry);
                scenario.after_event(
                    &scheduled,
                    applied,
                    &self.state,
                    &mut self.queue,
                    &mut ctrl_rng,
                );
                events += 1;
            }
        }
        self.ctrl_rng = Some(ctrl_rng);
        // ---- measurement phase: read-only per-instance fan-out ----
        // Control-phase isolation: a zero emission cap means no sender
        // can emit, so every per-instance metric is exactly zero — skip
        // the fan-out (and its per-receiver context/allocation work)
        // instead of computing 0 the long way. Bit-identical by
        // construction, and what lets an event flood measure the control
        // phase alone.
        if self.config.emission_cap == 0 {
            let _close = PhaseTimer::start_on(telemetry, Phase::TickClose);
            return Some(self.aggregate(tick, now, events, &[]));
        }
        // Refresh the hoisted emissions column and drop the verdicts of
        // receivers whose pipeline changed, before the immutable fan-out
        // borrows state. Both are O(1) on quiet ticks.
        if self.config.measure == MeasureMode::Batched {
            self.state.refresh_emissions(self.config.emission_cap);
            self.state.clear_stale_verdicts();
        }
        let state = &self.state;
        let config = &self.config;
        let metrics: Vec<InstanceTick> = {
            let _measure = PhaseTimer::start_on(telemetry, Phase::Measurement);
            match config.measure {
                MeasureMode::Reference => (0..state.len())
                    .into_par_iter()
                    .map(|r| measure_receiver_reference(state, config, &self.scorer, tick, now, r))
                    .collect(),
                MeasureMode::Batched => {
                    // Stage 1: one summary per sender — its draws, once.
                    let emissions = state.emissions_col();
                    let batches: Vec<SenderBatch> = (0..state.len())
                        .into_par_iter()
                        .map(|s| build_sender_batch(state, config, tick, s, emissions[s]))
                        .collect();
                    // Stage 2: receivers credit each edge from the summaries.
                    (0..state.len())
                        .into_par_iter()
                        .map(|r| measure_receiver_batched(state, &batches, config, tick, now, r))
                        .collect()
                }
            }
        };
        let _close = PhaseTimer::start_on(telemetry, Phase::TickClose);
        let trace = self.aggregate(tick, now, events, &metrics);
        // Counter-only accounting (never read back by simulation code):
        // every batched delivery read its template's stored score.
        if config.measure == MeasureMode::Batched && telemetry.armed() {
            telemetry.add(HotCounter::ScorerMemoHits, trace.delivered);
        }
        Some(trace)
    }

    /// Assembles the run's trace from stepped-out tick rows — the one
    /// definition of trace construction, shared by [`Self::run`] and
    /// external step drivers (the census round-trip).
    pub fn finish(&self, scenario: &dyn Scenario, ticks: Vec<TickTrace>) -> DynamicsTrace {
        DynamicsTrace {
            scenario: scenario.name().to_string(),
            seed: self.config.seed,
            ticks,
        }
    }

    /// Runs `scenario` for the configured number of ticks and returns
    /// the trace.
    pub fn run(&mut self, scenario: &mut dyn Scenario) -> DynamicsTrace {
        self.begin(scenario);
        let mut ticks = Vec::with_capacity(self.config.ticks as usize);
        while let Some(tick) = self.step(scenario) {
            ticks.push(tick);
        }
        self.finish(scenario, ticks)
    }

    /// Folds per-instance metrics into a [`TickTrace`].
    ///
    /// An empty `metrics` slice is the idle (zero-emission) tick: all
    /// delivery metrics are zero and the per-instance exposure row is
    /// all zeros, exactly what folding `state.len()` default metrics
    /// would produce. The up/adopted/failure-mix columns come from the
    /// state's O(1) counters either way — the tick close never sweeps
    /// the instance vector.
    fn aggregate(
        &self,
        tick: u64,
        now: SimTime,
        events: u64,
        metrics: &[InstanceTick],
    ) -> TickTrace {
        let mut t = TickTrace {
            tick,
            at: now,
            links: self.state.link_count(),
            instances_up: self.state.up_count(),
            adopted: self.state.adopted_count(),
            events,
            delivered: 0,
            accepted: 0,
            rejected: 0,
            failed: 0,
            rejected_authors: 0,
            toxic_exposure: 0,
            exposure_prevented: 0,
            retried: self.tick_retried,
            recovered: self.tick_recovered,
            dead_lettered: self.tick_dead_lettered,
            failure_mix: self.state.failure_mix().to_vec(),
            per_instance_exposure: Vec::with_capacity(self.state.len()),
        };
        if metrics.is_empty() {
            t.per_instance_exposure = vec![0; self.state.len()];
            self.observe_tick(&t, metrics);
            return t;
        }
        for m in metrics {
            t.delivered += m.delivered;
            t.accepted += m.accepted;
            t.rejected += m.rejected;
            t.failed += m.failed;
            t.rejected_authors += m.rejected_authors;
            t.toxic_exposure += m.exposure;
            t.exposure_prevented += m.prevented;
            t.per_instance_exposure.push(m.exposure);
        }
        self.observe_tick(&t, metrics);
        t
    }

    /// Publishes the tick's telemetry — gauges, control/reliability
    /// counters, per-instance volumes. Write-only into the registry
    /// (nothing here is ever read back by simulation code), and a no-op
    /// beyond one relaxed load while disarmed.
    fn observe_tick(&self, t: &TickTrace, metrics: &[InstanceTick]) {
        let telemetry = Telemetry::global();
        if !telemetry.armed() {
            return;
        }
        telemetry.add(HotCounter::EventsApplied, t.events);
        telemetry.add(HotCounter::RetryEvents, t.retried);
        telemetry.add(HotCounter::RecoveredBatches, t.recovered);
        telemetry.add(HotCounter::DeadLetteredBatches, t.dead_lettered);
        telemetry.set_gauge(GaugeId::Links, t.links);
        telemetry.set_gauge(GaugeId::InstancesUp, t.instances_up);
        telemetry.set_gauge(GaugeId::Adopted, t.adopted);
        telemetry.add_instance_volumes(
            metrics
                .iter()
                .enumerate()
                .map(|(i, m)| (i, m.delivered, m.rejected)),
        );
    }
}

/// Mixes the engine seed, tick, and sender index into a per-stream RNG
/// seed. Every receiver recomputes the same stream for a given sender,
/// so a sender "posts" the same sequence to all its peers — and no
/// stream ever depends on thread scheduling.
fn delivery_seed(seed: u64, tick: u64, sender: u64) -> u64 {
    seed ^ tick.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ sender.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
}

/// Mixes the engine seed, sender, and attempt number into the jitter
/// stream seed — the same construction as [`delivery_seed`], keyed on
/// the attempt instead of the tick, so every chain's whole schedule is a
/// pure function of `(seed, sender, attempt)` and never of thread
/// scheduling or of *when* the chain happened to open.
fn retry_seed(seed: u64, sender: u64, attempt: u64) -> u64 {
    seed ^ sender.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempt.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
}

/// The jittered backoff delay before `attempt` of `sender`'s chain:
/// `base · 2^(attempt-1)` plus a uniform draw from `[0, base)` off the
/// [`retry_seed`] stream (full jitter keeps simultaneous outages from
/// retrying in lockstep).
fn backoff_delay(seed: u64, sender: u32, attempt: u32) -> SimDuration {
    let mut rng = SmallRng::seed_from_u64(retry_seed(seed, sender as u64, attempt as u64));
    retry_backoff(attempt, rng.gen_range(0..RETRY_BASE_BACKOFF.0))
}

/// One receiver's tick, per-post reference path: pull every live
/// neighbor's emissions through the receiver's MRF pipeline, scoring and
/// cloning each post individually.
///
/// This is the differential oracle for [`measure_receiver_batched`] —
/// kept deliberately simple and unbatched; a run opts into it with
/// [`MeasureMode::Reference`].
fn measure_receiver_reference(
    state: &NetworkState,
    config: &DynamicsConfig,
    scorer: &Scorer,
    tick: u64,
    now: SimTime,
    r: usize,
) -> InstanceTick {
    let mut m = InstanceTick::default();
    let receiver = &state.instances[r];
    if !receiver.up() {
        // A down receiver loses every inbound delivery; senders keep
        // POSTing (they cannot know) and the mass lands in `failed`.
        for &s in state.neighbors(r) {
            m.failed += state.instances[s as usize].emissions(config.emission_cap);
        }
        observe_receiver(&m);
        return m;
    }
    let actors = NullActorDirectory;
    let ctx = PolicyContext::new(&receiver.domain, now, &actors);
    let mut rejected_authors: HashSet<(u32, u64)> = HashSet::new();
    for &s in state.neighbors(r) {
        let sender = &state.instances[s as usize];
        let emissions = sender.emissions(config.emission_cap);
        if emissions == 0 {
            continue;
        }
        let mut draws = SmallRng::seed_from_u64(delivery_seed(config.seed, tick, s as u64));
        for _ in 0..emissions {
            let template = &sender.templates[draws.gen_range(0..sender.templates.len())];
            m.delivered += 1;
            let toxic = quantise_score(scorer.analyze(&template.content).max());
            let mut activity = template.activity.clone();
            activity.published = now;
            if let Some(post) = activity.note_mut() {
                post.created = now;
            }
            // The traced owning entry point, so this oracle also pins it
            // against the batched path's borrowed `filter_inbound`.
            m.filter_calls += 1;
            if receiver.pipeline.filter(&ctx, activity).accepted() {
                m.accepted += 1;
                m.exposure += toxic;
            } else {
                m.rejected += 1;
                m.prevented += toxic;
                if rejected_authors.insert((s, template.author)) {
                    m.rejected_authors += 1;
                }
            }
        }
    }
    // Side effects (emoji steals, prefetch warms) are intentionally
    // dropped with the context: the trace measures moderation outcomes.
    drop(ctx);
    observe_receiver(&m);
    m
}

/// One sender's tick, summarised once (stage 1 of the batched
/// measurement phase) and shared read-only by every receiver in stage 2.
/// A fixed-size `Copy` value: a silent sender's summary is all zeros.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SenderBatch {
    /// Bit `t` is set if template `t` was drawn at least once.
    drawn: u32,
    /// The draw total: the sender's emissions this tick.
    draws: u64,
    /// The toxic mass, Σ count · [`toxic`](crate::PostTemplate::toxic)
    /// over the drawn templates.
    mass: u64,
    /// The number of distinct authors among the drawn templates.
    authors: u64,
}

/// The indices of `mask`'s set bits, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let t = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (t < 64).then_some(t)
    })
}

/// Per-template draw counts of sender `s`'s tick: the [`delivery_seed`]
/// stream every receiver of the reference path replays, counted on the
/// stack. `templates` is the sender's template count (at most
/// [`MAX_TEMPLATES`], asserted when the state is built).
fn draw_counts(
    config: &DynamicsConfig,
    tick: u64,
    s: usize,
    templates: usize,
    draws: u64,
) -> [u64; MAX_TEMPLATES] {
    let mut counts = [0u64; MAX_TEMPLATES];
    let mut rng = SmallRng::seed_from_u64(delivery_seed(config.seed, tick, s as u64));
    for _ in 0..draws {
        counts[rng.gen_range(0..templates)] += 1;
    }
    counts
}

/// The distinct authors of at most [`MAX_TEMPLATES`] templates, kept on
/// the stack.
#[derive(Default)]
struct AuthorSet {
    seen: [u64; MAX_TEMPLATES],
    len: usize,
}

impl AuthorSet {
    fn insert(&mut self, author: u64) {
        if !self.seen[..self.len].contains(&author) {
            self.seen[self.len] = author;
            self.len += 1;
        }
    }
}

/// Draws sender `s`'s emissions for `tick` once and summarises them. The
/// RNG stream is exactly the one every receiver replays in the reference
/// path; each drawn template is read once, and nothing is allocated.
fn build_sender_batch(
    state: &NetworkState,
    config: &DynamicsConfig,
    tick: u64,
    s: usize,
    emissions: u64,
) -> SenderBatch {
    if emissions == 0 {
        return SenderBatch::default();
    }
    let templates = &state.instances[s].templates;
    let counts = draw_counts(config, tick, s, templates.len(), emissions);
    let mut batch = SenderBatch {
        draws: emissions,
        ..SenderBatch::default()
    };
    let mut authors = AuthorSet::default();
    for (t, (&count, template)) in counts.iter().zip(templates.iter()).enumerate() {
        if count != 0 {
            batch.drawn |= 1 << t;
            batch.mass += count * template.toxic;
            authors.insert(template.author);
        }
    }
    batch.authors = authors.len as u64;
    batch
}

/// One receiver's tick, batched path (stage 2). Per neighbor it loads
/// the verdict word once ([`NetworkState::verdict_row`]), judges only the
/// drawn templates the word does not know yet (on the borrowed template,
/// cloned only if a stage rewrites it), stores the word back once if it
/// changed, and credits the edge from the sender's summary — or, for the
/// rare word that accepts some drawn templates and rejects others, from
/// a replay of the sender's draws.
fn measure_receiver_batched(
    state: &NetworkState,
    batches: &[SenderBatch],
    config: &DynamicsConfig,
    tick: u64,
    now: SimTime,
    r: usize,
) -> InstanceTick {
    let mut m = InstanceTick::default();
    let receiver = &state.instances[r];
    if !receiver.up() {
        // A down receiver loses every inbound delivery; senders keep
        // POSTing (they cannot know) and the mass lands in `failed`.
        for &s in state.neighbors(r) {
            m.failed += batches[s as usize].draws;
        }
        observe_receiver(&m);
        return m;
    }
    let actors = NullActorDirectory;
    let ctx = PolicyContext::new(&receiver.domain, now, &actors);
    for (&s, word) in state.neighbors(r).iter().zip(state.verdict_row(r)) {
        let batch = batches[s as usize];
        if batch.draws == 0 {
            continue;
        }
        let templates = &state.instances[s as usize].templates;
        let drawn = u64::from(batch.drawn);
        let stored = word.load(Ordering::Relaxed);
        let mut verdicts = stored;
        for t in bits(drawn & !verdicts) {
            let mut activity = Inbound::borrowed(&templates[t].activity, now);
            m.filter_calls += 1;
            verdicts |= 1 << t;
            if receiver
                .pipeline
                .filter_inbound(&ctx, &mut activity)
                .is_ok()
            {
                verdicts |= 1 << (32 + t);
            }
        }
        if verdicts != stored {
            word.store(verdicts, Ordering::Relaxed);
        }
        m.delivered += batch.draws;
        let accepted = (verdicts >> 32) & drawn;
        if accepted == drawn {
            m.accepted += batch.draws;
            m.exposure += batch.mass;
        } else if accepted == 0 {
            m.rejected += batch.draws;
            m.prevented += batch.mass;
            m.rejected_authors += batch.authors;
        } else {
            let counts = draw_counts(config, tick, s as usize, templates.len(), batch.draws);
            let mut authors = AuthorSet::default();
            for t in bits(drawn) {
                let (count, template) = (counts[t], &templates[t]);
                if accepted & (1 << t) != 0 {
                    m.accepted += count;
                    m.exposure += count * template.toxic;
                } else {
                    m.rejected += count;
                    m.prevented += count * template.toxic;
                    authors.insert(template.author);
                }
            }
            m.rejected_authors += authors.len as u64;
        }
    }
    // Side effects are intentionally dropped with the context, exactly
    // as in the reference path.
    drop(ctx);
    observe_receiver(&m);
    m
}

/// Batch-publishes one receiver's tick counters: the counts were already
/// accumulated locally, so the parallel fan-out pays at most five
/// sharded adds per receiver per tick, never one per post.
#[inline]
fn observe_receiver(m: &InstanceTick) {
    let telemetry = Telemetry::global();
    if !telemetry.armed() {
        return;
    }
    telemetry.add(HotCounter::EngineDeliveries, m.delivered);
    telemetry.add(HotCounter::FilterFastHits, m.accepted);
    telemetry.add(HotCounter::FilterFastRejects, m.rejected);
    telemetry.add(HotCounter::FailedDeliveries, m.failed);
    telemetry.add(HotCounter::MrfFilterCalls, m.filter_calls);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::testutil::seeds;
    use fediscope_core::time::CAMPAIGN_START;

    /// A scenario that does nothing: steady-state traffic only.
    struct Steady;
    impl Scenario for Steady {
        fn name(&self) -> &'static str {
            "steady"
        }
        fn init(
            &mut self,
            _start: SimTime,
            _state: &mut NetworkState,
            _queue: &mut EventQueue,
            _rng: &mut SmallRng,
        ) {
        }
    }

    fn short_config() -> DynamicsConfig {
        DynamicsConfig {
            ticks: 6,
            ..DynamicsConfig::default()
        }
    }

    #[test]
    fn steady_state_delivers_and_scores() {
        let mut engine = DynamicsEngine::new(short_config(), seeds());
        let trace = engine.run(&mut Steady);
        assert_eq!(trace.ticks.len(), 6);
        assert!(trace.total_delivered() > 0, "live links must carry posts");
        assert!(trace.total_exposure() > 0, "some toxicity gets through");
        // The seed world already runs its full configs: rejections and
        // prevented exposure are nonzero from tick zero.
        assert!(trace.total_rejected() > 0);
        assert!(trace.total_prevented() > 0);
        // Steady state: links never change without events.
        assert_eq!(trace.initial_links(), trace.final_links());
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let a = DynamicsEngine::new(short_config(), seeds()).run(&mut Steady);
        let b = DynamicsEngine::new(short_config(), seeds()).run(&mut Steady);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut c1 = short_config();
        c1.seed = 1;
        let mut c2 = short_config();
        c2.seed = 2;
        let a = DynamicsEngine::new(c1, seeds()).run(&mut Steady);
        let b = DynamicsEngine::new(c2, seeds()).run(&mut Steady);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn events_count_in_the_trace() {
        struct OneShot;
        impl Scenario for OneShot {
            fn name(&self) -> &'static str {
                "oneshot"
            }
            fn init(
                &mut self,
                start: SimTime,
                _state: &mut NetworkState,
                queue: &mut EventQueue,
                _rng: &mut SmallRng,
            ) {
                queue.schedule(
                    start + SimDuration::hours(4),
                    Event::SetRate {
                        instance: 0,
                        rate: 2.0,
                    },
                );
            }
        }
        let trace = DynamicsEngine::new(short_config(), seeds()).run(&mut OneShot);
        assert_eq!(trace.ticks[0].events, 0);
        assert_eq!(trace.ticks[1].events, 1);
        assert_eq!(trace.ticks.iter().map(|t| t.events).sum::<u64>(), 1);
    }

    /// A scenario whose `init` runs a closure: how the verdict-table
    /// tests rewrite state and schedule events.
    struct Scripted<F>(F);
    impl<F: FnMut(SimTime, &mut NetworkState, &mut EventQueue)> Scenario for Scripted<F> {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn init(
            &mut self,
            start: SimTime,
            state: &mut NetworkState,
            queue: &mut EventQueue,
            _rng: &mut SmallRng,
        ) {
            (self.0)(start, state, queue)
        }
    }

    fn config(measure: MeasureMode) -> DynamicsConfig {
        DynamicsConfig {
            ticks: 8,
            measure,
            ..DynamicsConfig::default()
        }
    }

    /// The start of tick `k` under [`config`].
    fn tick_at(start: SimTime, k: u64) -> SimTime {
        start + SimDuration(SNAPSHOT_INTERVAL.0 * k)
    }

    fn assert_same_ticks(batched: &DynamicsTrace, reference: &DynamicsTrace) {
        assert_eq!(batched.ticks.len(), reference.ticks.len());
        for (b, r) in batched.ticks.iter().zip(&reference.ticks) {
            assert_eq!(b, r, "tick {} diverges from the per-post path", b.tick);
        }
    }

    /// Runs one scripted scenario on the batched path and on the per-post
    /// reference, asserts their traces agree tick by tick, and returns
    /// the batched trace.
    fn batched_matches_reference<F>(init: F) -> DynamicsTrace
    where
        F: FnMut(SimTime, &mut NetworkState, &mut EventQueue) + Clone,
    {
        let batched = DynamicsEngine::new(config(MeasureMode::Batched), seeds())
            .run(&mut Scripted(init.clone()));
        let reference =
            DynamicsEngine::new(config(MeasureMode::Reference), seeds()).run(&mut Scripted(init));
        assert_same_ticks(&batched, &reference);
        batched
    }

    /// Whether instance `r`'s pipeline accepts sender `s`'s template `t`.
    fn accepts(state: &NetworkState, r: usize, s: u32, t: usize) -> bool {
        let actors = NullActorDirectory;
        let ctx = PolicyContext::new(&state.instances[r].domain, CAMPAIGN_START, &actors);
        let template = &state.instances[s as usize].templates[t];
        let mut activity = Inbound::borrowed(&template.activity, CAMPAIGN_START);
        state.instances[r]
            .pipeline
            .filter_inbound(&ctx, &mut activity)
            .is_ok()
    }

    /// Whether instance `i` answers and has templates to emit.
    fn emitter(state: &NetworkState, i: u32) -> bool {
        let inst = &state.instances[i as usize];
        inst.up() && !inst.templates.is_empty()
    }

    #[test]
    fn a_mid_run_keyword_wave_rejects_a_stored_accept() {
        use fediscope_core::catalog::PolicyKind;
        use fediscope_core::config::PolicyConfig;
        use fediscope_core::mrf::policies::{KeywordAction, KeywordPolicy, KeywordRule};
        use fediscope_core::rollout::RolloutWave;
        let state = NetworkState::from_seeds(seeds());
        // A receiver without a keyword policy that accepts a neighbor's
        // first template.
        let (r, s) = (0..state.len())
            .filter(|&r| {
                state.instances[r].up()
                    && !state.instances[r].enabled().contains(&PolicyKind::Keyword)
            })
            .find_map(|r| {
                let s = *state
                    .neighbors(r)
                    .iter()
                    .find(|&&s| emitter(&state, s) && accepts(&state, r, s, 0))?;
                Some((r, s))
            })
            .expect("some receiver accepts a neighbor's template");
        let pattern = state.instances[s as usize].templates[0].content.to_string();
        let init = move |wave: bool| {
            let pattern = pattern.clone();
            move |start: SimTime, state: &mut NetworkState, queue: &mut EventQueue| {
                // The keyword rule waits in r's knobs until a wave
                // enables the policy; the sender draws every template
                // most ticks.
                let inst = &mut state.instances[r];
                let mut knobs = (*inst.moderation).clone();
                knobs.configs.retain(|c| c.kind() != PolicyKind::Keyword);
                knobs
                    .configs
                    .push(PolicyConfig::Keyword(KeywordPolicy::new(vec![
                        KeywordRule::new(pattern.clone(), KeywordAction::Reject),
                    ])));
                inst.moderation = Arc::new(knobs);
                state.set_rate(s, 64.0);
                if wave {
                    queue.schedule(
                        tick_at(start, 3),
                        Event::AdoptWave {
                            instance: r as u32,
                            wave: Arc::new(RolloutWave {
                                enable: vec![PolicyKind::Keyword],
                                ..RolloutWave::default()
                            }),
                        },
                    );
                }
            }
        };
        let with_wave = batched_matches_reference(init(true));
        let without = batched_matches_reference(init(false));
        // The wave bites from its tick on (on every tick the sender
        // draws the template), and not before.
        for (a, b) in with_wave.ticks.iter().zip(&without.ticks) {
            if a.tick < 3 {
                assert_eq!(a, b);
            } else {
                assert!(a.rejected >= b.rejected, "tick {}", a.tick);
            }
        }
        assert!(with_wave.total_rejected() > without.total_rejected());
    }

    #[test]
    fn a_defederation_shifts_the_receiver_verdicts_with_its_slots() {
        use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
        use fediscope_core::rollout::RolloutWave;
        let state = NetworkState::from_seeds(seeds());
        // A receiver with at least three emitting neighbors.
        let r = (0..state.len())
            .find(|&r| {
                state.instances[r].up()
                    && state.neighbors(r).len() >= 3
                    && state.neighbors(r).iter().all(|&s| emitter(&state, s))
            })
            .expect("some receiver has three emitting neighbors");
        let neighbors = state.neighbors(r).to_vec();
        let first = neighbors[0];
        let last = *neighbors.last().unwrap();
        let blocked = state.instances[last as usize].domain.clone();
        let trace = batched_matches_reference(
            move |start: SimTime, state: &mut NetworkState, queue: &mut EventQueue| {
                for &s in &neighbors {
                    state.set_rate(s, 64.0);
                }
                // r rejects its last neighbor and accepts the others, so
                // a word read from the wrong slot shows.
                let wave = RolloutWave {
                    simple: Some(
                        SimplePolicy::new().with_target(SimpleAction::Reject, blocked.clone()),
                    ),
                    ..RolloutWave::default()
                };
                state.apply_wave(r as u32, &wave);
                // The first neighbor blocks r: every slot of r's row
                // shifts down by one, and r's pipeline is unchanged.
                queue.schedule(
                    tick_at(start, 3),
                    Event::Defederate {
                        instance: first,
                        target: r as u32,
                    },
                );
            },
        );
        assert_eq!(trace.ticks[3].links + 1, trace.ticks[2].links);
    }

    #[test]
    fn pipelines_rewritten_in_init_drop_the_stored_verdicts() {
        use fediscope_core::mrf::MrfPipeline;
        // Rewrites every pipeline through `reset_moderation_default`.
        fn reset(_: SimTime, state: &mut NetworkState, _: &mut EventQueue) {
            for i in 0..state.len() {
                state.reset_moderation_default(i);
            }
        }
        // Rewrites every pipeline by a direct write of the public field,
        // which no stale mark sees.
        fn open(_: SimTime, state: &mut NetworkState, _: &mut EventQueue) {
            for inst in &mut state.instances {
                inst.pipeline = Arc::new(MrfPipeline::new());
            }
        }
        let steady = DynamicsEngine::new(config(MeasureMode::Reference), seeds()).run(&mut Steady);
        assert!(steady.total_rejected() > 0, "the seed pipelines reject");
        let rewrites: [fn(SimTime, &mut NetworkState, &mut EventQueue); 2] = [reset, open];
        for rewrite in rewrites {
            let expected = DynamicsEngine::new(config(MeasureMode::Reference), seeds())
                .run(&mut Scripted(rewrite));
            // The batched engine first fills every row under the seed
            // pipelines, then runs the rewrite on the same state.
            let mut batched = DynamicsEngine::new(config(MeasureMode::Batched), seeds());
            assert_same_ticks(&batched.run(&mut Steady), &steady);
            assert_same_ticks(&batched.run(&mut Scripted(rewrite)), &expected);
        }
        let opened =
            DynamicsEngine::new(config(MeasureMode::Reference), seeds()).run(&mut Scripted(open));
        assert_eq!(
            opened.total_rejected(),
            0,
            "an empty pipeline rejects nothing"
        );
    }

    #[test]
    fn sender_summaries_match_a_direct_replay() {
        let mut state = NetworkState::from_seeds(seeds());
        let config = DynamicsConfig::default();
        state.refresh_emissions(config.emission_cap);
        let emissions = state.emissions_col();
        let mut total = 0;
        for tick in 0..4 {
            for (s, &emitted) in emissions.iter().enumerate() {
                let templates = &state.instances[s].templates;
                let mut replay = SenderBatch {
                    draws: emitted,
                    ..SenderBatch::default()
                };
                let mut authors = Vec::new();
                let mut rng = SmallRng::seed_from_u64(delivery_seed(config.seed, tick, s as u64));
                for _ in 0..emitted {
                    let t = rng.gen_range(0..templates.len());
                    let template = &templates[t];
                    replay.drawn |= 1 << t;
                    replay.mass += template.toxic;
                    authors.push(template.author);
                }
                authors.sort_unstable();
                authors.dedup();
                replay.authors = authors.len() as u64;
                let batch = build_sender_batch(&state, &config, tick, s, emitted);
                assert_eq!(batch, replay, "sender {s}, tick {tick}");
                total += batch.draws;
            }
        }
        assert!(total > 0, "the seed world emits");
    }

    #[test]
    fn a_mixed_edge_replays_its_draws_and_dedups_its_rejected_authors() {
        use fediscope_core::catalog::PolicyKind;
        use fediscope_core::config::PolicyConfig;
        use fediscope_core::mrf::policies::{KeywordAction, KeywordPolicy, KeywordRule};
        use fediscope_core::rollout::RolloutWave;
        const MARKER: &str = "mixededgemarker";
        let state = NetworkState::from_seeds(seeds());
        // A receiver without a keyword policy that accepts template 2 of
        // a neighbor with at least three templates.
        let (r, s) = (0..state.len())
            .filter(|&r| {
                state.instances[r].up()
                    && !state.instances[r].enabled().contains(&PolicyKind::Keyword)
            })
            .find_map(|r| {
                let s = *state.neighbors(r).iter().find(|&&s| {
                    emitter(&state, s)
                        && state.instances[s as usize].templates.len() >= 3
                        && accepts(&state, r, s, 2)
                })?;
                Some((r, s))
            })
            .expect("some receiver accepts template 2 of a three-template neighbor");
        let init = move |_: SimTime, state: &mut NetworkState, _: &mut EventQueue| {
            // Templates 0 and 1 carry the marker and one author; template
            // 2 has another author and no marker.
            let mut templates = state.instances[s as usize].templates.to_vec();
            let author = templates[0].author;
            for template in &mut templates[..2] {
                template.author = author;
                let post = template.activity.note_mut().expect("templates are notes");
                post.content = format!("{} {MARKER}", post.content).into();
            }
            if templates[2].author == author {
                templates[2].author = author + 1;
            }
            state.instances[s as usize].templates = Arc::from(templates);
            state.set_rate(s, 64.0);
            // r rejects the marked templates from the first tick on.
            let inst = &mut state.instances[r];
            let mut knobs = (*inst.moderation).clone();
            knobs.configs.retain(|c| c.kind() != PolicyKind::Keyword);
            knobs
                .configs
                .push(PolicyConfig::Keyword(KeywordPolicy::new(vec![
                    KeywordRule::new(MARKER, KeywordAction::Reject),
                ])));
            inst.moderation = Arc::new(knobs);
            state.apply_wave(
                r as u32,
                &RolloutWave {
                    enable: vec![PolicyKind::Keyword],
                    ..RolloutWave::default()
                },
            );
        };
        batched_matches_reference(init);
        // The edge r ← s was mixed on some tick that drew both marked
        // templates, so both the replay and the de-duplication were used.
        let mut state = NetworkState::from_seeds(seeds());
        init(START, &mut state, &mut EventQueue::new());
        let config = config(MeasureMode::Batched);
        let emitted = state.instances[s as usize].emissions(config.emission_cap);
        let mixed = (0..config.ticks).any(|tick| {
            let drawn = build_sender_batch(&state, &config, tick, s as usize, emitted).drawn;
            let accepted = bits(drawn.into())
                .filter(|&t| accepts(&state, r, s, t))
                .fold(0u32, |mask, t| mask | 1 << t);
            drawn & 0b111 == 0b111 && accepted & 0b11 == 0 && accepted & 0b100 != 0
        });
        assert!(mixed, "no tick credited a mixed word");
    }

    #[test]
    #[should_panic(expected = "the per-edge verdict word holds at most 32")]
    fn a_33_template_instance_hits_the_cap() {
        let mut seeds = seeds().clone();
        let i = (0..seeds.len())
            .find(|&i| !seeds.templates[i].is_empty())
            .expect("some instance has templates");
        let more: Vec<_> = seeds.templates[i]
            .iter()
            .cycle()
            .take(33)
            .cloned()
            .collect();
        seeds.templates[i] = Arc::from(more);
        NetworkState::from_seeds(&seeds);
    }
}
