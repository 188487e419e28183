//! # fediscope-telemetry
//!
//! A zero-drift observability layer for the whole stack: phase spans,
//! sharded hot-path counters, log2 latency histograms, gauges, and a
//! machine-readable [`RunReport`] snapshot — all hanging off one
//! [`Telemetry`] registry (usually the process-global
//! [`Telemetry::global`]).
//!
//! # The "observe, never perturb" contract
//!
//! Instrumentation must be *provably* incapable of changing what the
//! engine computes. The contract, checked for every registered
//! scenario by the root `tests/contracts.rs` matrix and re-asserted
//! inside the perf gates bench (`crates/bench/benches/gates.rs`):
//!
//! * **No feedback.** Nothing in this crate is ever *read* by simulation
//!   code. Counters, histograms and spans are write-only from the
//!   instrumented layers; only reporting code (CLI `--telemetry-out`,
//!   `analysis::render_telemetry`, the server's `/metrics` formatter)
//!   snapshots them. Telemetry armed vs disarmed therefore yields
//!   bit-identical [`DynamicsTrace`](../fediscope_dynamics) digests at
//!   any worker count.
//! * **No randomness.** The registry draws from no RNG and seeds
//!   nothing; wall-clock readings ([`PhaseTimer`]) live strictly outside
//!   trace digests and RNG streams. Logical `SimTime` never passes
//!   through this crate.
//! * **Hot-path cost is one relaxed atomic.** A counter increment is a
//!   single `fetch_add(Relaxed)` on a per-worker shard (no CAS loops, no
//!   locks, no false sharing — shards are cache-line padded). Disarmed,
//!   every instrumentation point degrades to one relaxed load and a
//!   predictable branch. The perf gates bench holds the armed churn
//!   flood to ≤ 5 % overhead versus the disarmed baseline (its
//!   `telemetry_overhead` gate).
//! * **Deterministic reads.** [`ShardedCounter`] merges shards in fixed
//!   shard order on read; `u64` wrapping addition is associative and
//!   commutative, so a quiescent registry snapshots to the same value
//!   regardless of which worker incremented which shard (proptested as
//!   "counter merges are order-stable").
//!
//! # Layout
//!
//! * [`HotCounter`] — the fixed vocabulary of hot-path counters (scorer
//!   calls, MRF filter calls and the deliveries they passed or rejected,
//!   delivery POSTs, retry events,
//!   crawler probes by §3 status class). Fixed at compile time so an
//!   increment is an array index, never a hash lookup.
//! * [`GaugeId`] — last-write-wins point-in-time values (live links,
//!   instances up, adoption count), set at tick close.
//! * [`Phase`] — the engine tick phases (`begin` / `control` /
//!   `retry-drain` / `measurement` / `tick-close`) plus the bridge
//!   census pass, each accumulating wall-clock into a fixed-bucket
//!   [`Log2Histogram`] via the RAII [`PhaseTimer`].
//! * [`ProbeClass`] — crawler probe outcomes by §3 status class
//!   (success / transient / permanent / net-error), each with a
//!   simulated-latency histogram.
//! * [`RunReport`] — the serde snapshot of all of the above plus the
//!   per-instance top-K volume table, written as JSON by
//!   `fediscope … --telemetry-out` and rendered by
//!   `analysis::render_telemetry` / the server's Prometheus-style text
//!   exposition.
//!
//! ```
//! use fediscope_telemetry::{HotCounter, Phase, PhaseTimer, Telemetry};
//!
//! let t = Telemetry::new();
//! t.arm();
//! {
//!     let _span = PhaseTimer::start_on(&t, Phase::Control);
//!     t.inc(HotCounter::EventsApplied);
//! }
//! let report = t.report("doctest");
//! assert_eq!(report.counter(HotCounter::EventsApplied), 1);
//! assert_eq!(report.phase(Phase::Control).unwrap().count, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
mod histogram;
mod report;
mod span;

pub use counter::ShardedCounter;
pub use histogram::{Log2Histogram, HISTOGRAM_BUCKETS};
pub use report::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, InstanceVolume, PhaseSnapshot,
    ProbeLatencySnapshot, RunReport,
};
pub use span::{Phase, PhaseTimer};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// The fixed vocabulary of hot-path counters. An increment indexes a
/// static array — no string hashing anywhere near a hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotCounter {
    /// `Scorer::analyze` invocations (perspective crate).
    ScorerCalls,
    /// Deliveries whose toxicity score was read from the template's
    /// stored score instead of a fresh `Scorer::analyze` call: every
    /// delivery of the engine's batched measurement phase (its templates
    /// are scored once, when their column is built).
    ScorerMemoHits,
    /// Engine deliveries the receiver's MRF pipeline passed: a count of
    /// deliveries, not of verdicts (the batched measurement phase credits
    /// one verdict with every draw of its template). Filter calls are
    /// [`HotCounter::MrfFilterCalls`].
    FilterFastHits,
    /// Engine deliveries the receiver's MRF pipeline rejected: a count of
    /// deliveries, not of verdicts, like [`HotCounter::FilterFastHits`].
    FilterFastRejects,
    /// Simulated post deliveries attempted by the engine's measurement
    /// phase (per-receiver batched).
    EngineDeliveries,
    /// Deliveries lost to down receivers.
    FailedDeliveries,
    /// Real `POST /inbox` requests issued by `Federator::deliver`.
    DeliveryPosts,
    /// Control-phase events applied by the engine.
    EventsApplied,
    /// Retry attempts that fired and rescheduled.
    RetryEvents,
    /// Delivery batches redelivered to a recovered receiver.
    RecoveredBatches,
    /// Delivery batches given up on (dead-lettered).
    DeadLetteredBatches,
    /// Crawler probes answered 2xx.
    ProbesSuccess,
    /// Crawler probes answered a transient §3 status (502/503).
    ProbesTransient,
    /// Crawler probes answered a permanent §3 status (404/403/410).
    ProbesPermanent,
    /// Crawler probes that failed without any HTTP status (unknown host).
    ProbesNetError,
    /// Census rounds completed by the round-trip driver.
    CensusRounds,
    /// Compiled `MrfPipeline`s served from the structural interning pool
    /// (instances sharing a seed-identical moderation config).
    PipelineInternHits,
    /// Compiled `MrfPipeline`s the interning pool had to build fresh
    /// (first instance of each distinct moderation config).
    PipelineInternMisses,
    /// `MrfPipeline` filter calls made by the engine's measurement phase.
    /// The per-post path calls once per delivery; the batched path once
    /// per (receiver, neighbor, template) verdict its per-edge table does
    /// not yet hold.
    MrfFilterCalls,
}

impl HotCounter {
    /// Every counter, in reporting order.
    pub const ALL: [HotCounter; 19] = [
        HotCounter::ScorerCalls,
        HotCounter::ScorerMemoHits,
        HotCounter::FilterFastHits,
        HotCounter::FilterFastRejects,
        HotCounter::EngineDeliveries,
        HotCounter::FailedDeliveries,
        HotCounter::DeliveryPosts,
        HotCounter::EventsApplied,
        HotCounter::RetryEvents,
        HotCounter::RecoveredBatches,
        HotCounter::DeadLetteredBatches,
        HotCounter::ProbesSuccess,
        HotCounter::ProbesTransient,
        HotCounter::ProbesPermanent,
        HotCounter::ProbesNetError,
        HotCounter::CensusRounds,
        HotCounter::PipelineInternHits,
        HotCounter::PipelineInternMisses,
        HotCounter::MrfFilterCalls,
    ];

    /// Stable snake_case name (the Prometheus metric stem).
    pub fn name(self) -> &'static str {
        match self {
            HotCounter::ScorerCalls => "scorer_calls",
            HotCounter::ScorerMemoHits => "scorer_memo_hits",
            HotCounter::FilterFastHits => "filter_fast_hits",
            HotCounter::FilterFastRejects => "filter_fast_rejects",
            HotCounter::EngineDeliveries => "engine_deliveries",
            HotCounter::FailedDeliveries => "failed_deliveries",
            HotCounter::DeliveryPosts => "delivery_posts",
            HotCounter::EventsApplied => "events_applied",
            HotCounter::RetryEvents => "retry_events",
            HotCounter::RecoveredBatches => "recovered_batches",
            HotCounter::DeadLetteredBatches => "dead_lettered_batches",
            HotCounter::ProbesSuccess => "probes_success",
            HotCounter::ProbesTransient => "probes_transient",
            HotCounter::ProbesPermanent => "probes_permanent",
            HotCounter::ProbesNetError => "probes_net_error",
            HotCounter::CensusRounds => "census_rounds",
            HotCounter::PipelineInternHits => "pipeline_intern_hits",
            HotCounter::PipelineInternMisses => "pipeline_intern_misses",
            HotCounter::MrfFilterCalls => "mrf_filter_calls",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Point-in-time gauges, set (last-write-wins) at tick close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Live federation links (undirected).
    Links,
    /// Instances answering the network.
    InstancesUp,
    /// Instances that changed moderation since the run began.
    Adopted,
}

impl GaugeId {
    /// Every gauge, in reporting order.
    pub const ALL: [GaugeId; 3] = [GaugeId::Links, GaugeId::InstancesUp, GaugeId::Adopted];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::Links => "links",
            GaugeId::InstancesUp => "instances_up",
            GaugeId::Adopted => "adopted",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Crawler probe outcome classes, following the §3 retry taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeClass {
    /// 2xx answers.
    Success,
    /// Transient failures (502/503).
    Transient,
    /// Permanent failures (404/403/410).
    Permanent,
    /// No HTTP status at all (unknown host).
    NetError,
}

impl ProbeClass {
    /// Every class, in reporting order.
    pub const ALL: [ProbeClass; 4] = [
        ProbeClass::Success,
        ProbeClass::Transient,
        ProbeClass::Permanent,
        ProbeClass::NetError,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            ProbeClass::Success => "success",
            ProbeClass::Transient => "transient",
            ProbeClass::Permanent => "permanent",
            ProbeClass::NetError => "net_error",
        }
    }

    /// The matching [`HotCounter`] for probe counting.
    pub fn counter(self) -> HotCounter {
        match self {
            ProbeClass::Success => HotCounter::ProbesSuccess,
            ProbeClass::Transient => HotCounter::ProbesTransient,
            ProbeClass::Permanent => HotCounter::ProbesPermanent,
            ProbeClass::NetError => HotCounter::ProbesNetError,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-instance delivered/blocked volume, accumulated single-threaded at
/// tick close (the engine's `aggregate` already walks the per-instance
/// metrics there). Behind a mutex because it is cold: one lock per tick,
/// never touched by the measurement fan-out.
#[derive(Debug, Default)]
struct InstanceVolumes {
    labels: Vec<String>,
    delivered: Vec<u64>,
    blocked: Vec<u64>,
}

/// The telemetry registry: one [`Telemetry`] owns every counter, gauge,
/// histogram and span of a run. Most callers use the process-global
/// [`Telemetry::global`]; tests that need isolation construct their own.
pub struct Telemetry {
    armed: AtomicBool,
    counters: [ShardedCounter; HotCounter::ALL.len()],
    gauges: [AtomicU64; GaugeId::ALL.len()],
    phases: [Log2Histogram; Phase::ALL.len()],
    probe_latency: [Log2Histogram; ProbeClass::ALL.len()],
    instances: Mutex<InstanceVolumes>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh, disarmed registry.
    pub fn new() -> Self {
        Telemetry {
            armed: AtomicBool::new(false),
            counters: std::array::from_fn(|_| ShardedCounter::new()),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            phases: std::array::from_fn(|_| Log2Histogram::new()),
            probe_latency: std::array::from_fn(|_| Log2Histogram::new()),
            instances: Mutex::new(InstanceVolumes::default()),
        }
    }

    /// The process-global registry every instrumented layer writes to.
    pub fn global() -> &'static Telemetry {
        static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
        GLOBAL.get_or_init(Telemetry::new)
    }

    /// Starts recording. Until armed, every instrumentation point is a
    /// relaxed load and a predictable branch.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Stops recording (readings are kept until [`Self::reset`]).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Whether the registry is currently recording.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Clears every reading (armed state is unchanged). Call between
    /// runs that should not share a report.
    pub fn reset(&self) {
        for c in &self.counters {
            c.reset();
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for h in &self.phases {
            h.reset();
        }
        for h in &self.probe_latency {
            h.reset();
        }
        let mut volumes = self.instances.lock().expect("telemetry mutex");
        volumes.labels.clear();
        volumes.delivered.clear();
        volumes.blocked.clear();
    }

    /// Increments a hot counter by 1 (no-op while disarmed).
    #[inline]
    pub fn inc(&self, counter: HotCounter) {
        self.add(counter, 1);
    }

    /// Adds `n` to a hot counter (no-op while disarmed). Batch adds are
    /// the preferred shape on per-item loops: count locally, add once.
    #[inline]
    pub fn add(&self, counter: HotCounter, n: u64) {
        if self.armed() {
            self.counters[counter.index()].add(n);
        }
    }

    /// Merged value of a hot counter (shards summed in shard order).
    pub fn counter(&self, counter: HotCounter) -> u64 {
        self.counters[counter.index()].get()
    }

    /// Sets a gauge (no-op while disarmed).
    #[inline]
    pub fn set_gauge(&self, gauge: GaugeId, value: u64) {
        if self.armed() {
            self.gauges[gauge.index()].store(value, Ordering::Relaxed);
        }
    }

    /// Current gauge value.
    pub fn gauge(&self, gauge: GaugeId) -> u64 {
        self.gauges[gauge.index()].load(Ordering::Relaxed)
    }

    /// Records an elapsed phase duration in nanoseconds. Usually called
    /// by [`PhaseTimer`]'s drop, not directly.
    #[inline]
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        self.phases[phase.index()].record(nanos);
    }

    /// The histogram behind a phase.
    pub fn phase_histogram(&self, phase: Phase) -> &Log2Histogram {
        &self.phases[phase.index()]
    }

    /// Records one crawler probe: the class counter plus its
    /// simulated-latency histogram (no-op while disarmed).
    #[inline]
    pub fn record_probe(&self, class: ProbeClass, latency_ns: u64) {
        if self.armed() {
            self.counters[class.counter().index()].add(1);
            self.probe_latency[class.index()].record(latency_ns);
        }
    }

    /// The simulated-latency histogram of a probe class.
    pub fn probe_histogram(&self, class: ProbeClass) -> &Log2Histogram {
        &self.probe_latency[class.index()]
    }

    /// Installs the per-instance label table (seed-index order). Called
    /// once per run by the engine when armed; reporting uses the labels
    /// for the top-K table.
    pub fn set_instance_labels<I, S>(&self, labels: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        if !self.armed() {
            return;
        }
        let mut volumes = self.instances.lock().expect("telemetry mutex");
        volumes.labels = labels.into_iter().map(Into::into).collect();
        let n = volumes.labels.len();
        if volumes.delivered.len() < n {
            volumes.delivered.resize(n, 0);
            volumes.blocked.resize(n, 0);
        }
    }

    /// Accumulates one instance's tick volumes (no-op while disarmed).
    /// Single-threaded callers only (the engine's tick close); the mutex
    /// is for exclusion against concurrent *reporting*, not for hot-path
    /// sharing.
    pub fn add_instance_volume(&self, index: usize, delivered: u64, blocked: u64) {
        if !self.armed() {
            return;
        }
        let mut volumes = self.instances.lock().expect("telemetry mutex");
        if volumes.delivered.len() <= index {
            volumes.delivered.resize(index + 1, 0);
            volumes.blocked.resize(index + 1, 0);
        }
        volumes.delivered[index] += delivered;
        volumes.blocked[index] += blocked;
    }

    /// Accumulates many instances' tick volumes under one lock — the
    /// tick-close shape ([`Self::add_instance_volume`] per row would pay
    /// a lock per instance per tick).
    pub fn add_instance_volumes<I>(&self, rows: I)
    where
        I: IntoIterator<Item = (usize, u64, u64)>,
    {
        if !self.armed() {
            return;
        }
        let mut volumes = self.instances.lock().expect("telemetry mutex");
        for (index, delivered, blocked) in rows {
            if volumes.delivered.len() <= index {
                volumes.delivered.resize(index + 1, 0);
                volumes.blocked.resize(index + 1, 0);
            }
            volumes.delivered[index] += delivered;
            volumes.blocked[index] += blocked;
        }
    }

    /// The top-`k` instances by delivered volume (ties broken by seed
    /// index, so the ordering is total and deterministic).
    pub fn top_instances(&self, k: usize) -> Vec<InstanceVolume> {
        let volumes = self.instances.lock().expect("telemetry mutex");
        let mut rows: Vec<InstanceVolume> = volumes
            .delivered
            .iter()
            .zip(volumes.blocked.iter())
            .enumerate()
            .filter(|(_, (&d, &b))| d > 0 || b > 0)
            .map(|(i, (&delivered, &blocked))| InstanceVolume {
                index: i,
                domain: volumes.labels.get(i).cloned().unwrap_or_default(),
                delivered,
                blocked,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.delivered
                .cmp(&a.delivered)
                .then(b.blocked.cmp(&a.blocked))
                .then(a.index.cmp(&b.index))
        });
        rows.truncate(k);
        rows
    }

    /// Snapshots the whole registry into a [`RunReport`].
    pub fn report(&self, label: &str) -> RunReport {
        RunReport::capture(self, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_registry_records_nothing() {
        let t = Telemetry::new();
        t.inc(HotCounter::ScorerCalls);
        t.set_gauge(GaugeId::Links, 7);
        t.record_probe(ProbeClass::Success, 1000);
        t.add_instance_volume(3, 10, 2);
        assert_eq!(t.counter(HotCounter::ScorerCalls), 0);
        assert_eq!(t.gauge(GaugeId::Links), 0);
        assert_eq!(t.probe_histogram(ProbeClass::Success).count(), 0);
        assert!(t.top_instances(5).is_empty());
    }

    #[test]
    fn armed_registry_accumulates_and_resets() {
        let t = Telemetry::new();
        t.arm();
        t.inc(HotCounter::EventsApplied);
        t.add(HotCounter::EventsApplied, 4);
        t.set_gauge(GaugeId::InstancesUp, 42);
        t.record_probe(ProbeClass::Transient, 1_500_000);
        t.add_instance_volume(1, 10, 3);
        assert_eq!(t.counter(HotCounter::EventsApplied), 5);
        assert_eq!(t.gauge(GaugeId::InstancesUp), 42);
        assert_eq!(t.probe_histogram(ProbeClass::Transient).count(), 1);
        assert_eq!(t.counter(HotCounter::ProbesTransient), 1);
        let top = t.top_instances(5);
        assert_eq!(top.len(), 1);
        assert_eq!((top[0].delivered, top[0].blocked), (10, 3));
        t.reset();
        assert_eq!(t.counter(HotCounter::EventsApplied), 0);
        assert_eq!(t.gauge(GaugeId::InstancesUp), 0);
        assert!(t.top_instances(5).is_empty());
        assert!(t.armed(), "reset must not disarm");
    }

    #[test]
    fn top_instances_orders_by_volume_with_total_tiebreak() {
        let t = Telemetry::new();
        t.arm();
        t.set_instance_labels(["a.example", "b.example", "c.example", "d.example"]);
        t.add_instance_volume(0, 5, 0);
        t.add_instance_volume(1, 20, 1);
        t.add_instance_volume(2, 5, 9);
        t.add_instance_volume(3, 20, 1);
        let top = t.top_instances(3);
        let order: Vec<usize> = top.iter().map(|r| r.index).collect();
        // 1 and 3 tie on both volumes — seed index breaks the tie; 2
        // beats 0 on blocked volume at equal delivered.
        assert_eq!(order, vec![1, 3, 2]);
        assert_eq!(top[0].domain, "b.example");
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Telemetry::global() as *const _;
        let b = Telemetry::global() as *const _;
        assert_eq!(a, b);
    }
}
