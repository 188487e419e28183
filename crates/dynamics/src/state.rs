//! The mutable network state a scenario evolves.
//!
//! Built once from [`ScenarioSeeds`], then mutated only by the engine's
//! single-threaded control phase (event application). The parallel
//! measurement phase reads it immutably, which is what makes the
//! per-tick fan-out safe *and* bit-reproducible: no worker ever observes
//! a state another worker is changing. The one exception is the
//! per-edge verdict table ([`NetworkState::verdict_row`]): each worker
//! writes only the row of the receiver it measures.

use crate::trace::{failure_mix_index, quantise_score};
use fediscope_core::catalog::PolicyKind;
use fediscope_core::config::{InstanceModerationConfig, PipelinePool};
use fediscope_core::id::{Domain, PostId, UserId, UserRef};
use fediscope_core::model::{Activity, Post};
use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
use fediscope_core::mrf::MrfPipeline;
use fediscope_core::rollout::RolloutWave;
use fediscope_core::time::{SimDuration, CAMPAIGN_START};
use fediscope_perspective::Scorer;
use fediscope_simnet::{FailureClass, FailureMode};
use fediscope_synthgen::ScenarioSeeds;
use fediscope_telemetry::{HotCounter, Telemetry};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// The most templates an instance may carry: one bit per template in the
/// "known" and the "accepted" half of a verdict word.
const MAX_TEMPLATES: usize = 32;

/// Multiply-xor hasher for the retry ledger's dense `(sender, receiver)`
/// edge keys. The keys are small engine-internal integers, never
/// attacker-controlled, and the ledger is probed on every retry-chain
/// open/settle — std's SipHash would cost more than the rest of the
/// operation. The map is never iterated, so hash order cannot leak into
/// traces (determinism contract).
#[derive(Default)]
struct EdgeHasher(u64);

impl std::hash::Hasher for EdgeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }
}

/// Redelivery attempts per batch before it dead-letters. Five attempts
/// on the 1-hour [`RETRY_BASE_BACKOFF`] reach ≈ 1+2+4+8+16 = 31–36 h,
/// enough to straddle the churn scenario's 12 h outages.
pub(crate) const MAX_RETRY_ATTEMPTS: u32 = 5;

/// Base backoff delay of the retry schedule (doubles each attempt).
pub(crate) const RETRY_BASE_BACKOFF: SimDuration = SimDuration::hours(1);

/// Delay before retry attempt `attempt` (1-based):
/// `RETRY_BASE_BACKOFF · 2^(attempt-1)` plus a jitter in
/// `[0, RETRY_BASE_BACKOFF)` after the previous failure — the classic
/// exponential-backoff-with-full-jitter schedule Pleroma's federator
/// publisher uses. The caller draws `jitter_secs` from a per-`(seed,
/// sender, attempt)` stream, so the schedule is a pure function of the
/// run seed. The exponential term stops doubling after 20 steps and
/// the sum saturates instead of overflowing.
pub(crate) fn retry_backoff(attempt: u32, jitter_secs: u64) -> SimDuration {
    let doublings = attempt.saturating_sub(1).min(20);
    SimDuration(
        RETRY_BASE_BACKOFF
            .0
            .saturating_mul(1u64 << doublings)
            .saturating_add(jitter_secs),
    )
}

/// A reusable inbound post: the pre-built `Create` activity, the raw
/// text the scorer reads, and that text's score, taken once when the
/// template is built.
#[derive(Debug, Clone)]
pub struct PostTemplate {
    /// Authoring user id.
    pub author: u64,
    /// Post text — the seed template's shared allocation, refcounted,
    /// never copied.
    pub content: std::sync::Arc<str>,
    /// The text's toxicity (`Scorer::new().analyze(..).max()`) in
    /// exposure units ([`exposure_score`](crate::exposure_score) reads
    /// them back). A pure function of `content`, scored once when the
    /// column is built; the batched measurement phase only reads it.
    pub toxic: u64,
    /// The deliverable activity.
    pub activity: Activity,
}

/// One instance's live state.
#[derive(Debug)]
pub struct InstanceState {
    /// The instance domain.
    pub domain: Domain,
    /// Whether the instance runs Pleroma.
    pub pleroma: bool,
    /// Current network behaviour ([`FailureMode::Healthy`] = answering).
    pub failure: FailureMode,
    /// The §3 failure mode the world assigned (what churn replays).
    pub seed_failure: FailureMode,
    /// Emission-rate multiplier (storm bursts raise it).
    pub rate: f64,
    /// Posts emitted per tick at `rate == 1.0`.
    pub base_emission: u32,
    /// Whether the instance has changed moderation since the run began.
    pub adopted: bool,
    /// The enabled kinds and policy knobs the pipeline was compiled from
    /// (read them through [`enabled`](Self::enabled)). Not a live copy of
    /// the target lists: waves and blocks merge targets into `pipeline`
    /// only, and write this config just to record a newly enabled kind.
    /// Shared (`Arc`) with every instance whose seed config is
    /// structurally identical, and diverged copy-on-write on such a
    /// write.
    pub(crate) moderation: Arc<InstanceModerationConfig>,
    /// The compiled pipeline — the live store of the instance's
    /// moderation, [`simple`](Self::simple) target lists included. Waves
    /// and blocks update it in place through the MRF delta API
    /// (O(delta)); only a reset recompiles it from scratch. Interned:
    /// seed-identical configs share one compiled pipeline
    /// ([`PipelinePool`]) and diverge copy-on-write on first mutation.
    pub pipeline: Arc<MrfPipeline>,
    /// The final configuration the seeds prescribe (rollout target).
    /// Never mutated — at seed time it aliases `moderation`.
    pub target: Arc<InstanceModerationConfig>,
    /// Inbound-post templates — one shared column per instance, aliased
    /// by every engine built over the same [`SharedColumns`].
    pub templates: Arc<[PostTemplate]>,
    /// Registered users.
    pub users: u32,
    /// Ground truth: instances rejecting this one.
    pub rejects_received: u32,
}

impl InstanceState {
    /// Whether the instance answers the network.
    pub fn up(&self) -> bool {
        self.failure == FailureMode::Healthy
    }

    /// The enabled policy kinds, in pipeline order.
    pub fn enabled(&self) -> &[PolicyKind] {
        &self.moderation.enabled
    }

    /// The live `SimplePolicy` target lists, if the instance runs one.
    pub fn simple(&self) -> Option<&SimplePolicy> {
        self.pipeline.simple()
    }

    /// Posts this instance emits per tick right now, capped at `cap`.
    pub fn emissions(&self, cap: u64) -> u64 {
        if cap == 0 || self.templates.is_empty() || !self.up() {
            return 0;
        }
        ((self.base_emission as f64 * self.rate).round() as u64).min(cap)
    }
}

/// The whole simulated network.
#[derive(Debug)]
pub struct NetworkState {
    /// Per-instance state, indexed like the seeds. Mutate `failure`,
    /// `adopted` and moderation only through the state methods
    /// ([`set_failure`](Self::set_failure),
    /// [`apply_wave`](Self::apply_wave), …): they keep the O(1)
    /// aggregate counters below in step, which is what lets the engine
    /// close a tick without an O(instances) sweep. The pipeline writers
    /// ([`apply_wave`](Self::apply_wave), a new block in
    /// [`defederate`](Self::defederate),
    /// [`reset_moderation_default`](Self::reset_moderation_default)) also
    /// mark the instance stale in the engine's per-edge verdict table,
    /// and [`unlink`](Self::unlink) shifts the table with the neighbor
    /// slots. A direct write to `pipeline` or `templates` belongs in a
    /// scenario's `init` only: the engine clears every stored verdict
    /// after `init`, and no stale mark sees a write made later.
    pub instances: Vec<InstanceState>,
    /// Sorted neighbor lists (undirected federation links).
    neighbors: Vec<Vec<u32>>,
    link_count: u64,
    by_domain: HashMap<String, u32>,
    adoption_order: Vec<u32>,
    /// Instances currently answering the network.
    up_count: u64,
    /// Instances whose moderation changed since the run began.
    adopted_count: u64,
    /// Down instances by §3 failure-taxonomy slot
    /// ([`failure_mix_index`]): `[404, 403, 502, 503, 410]`.
    failure_mix: [u64; 5],
    /// Reliability layer: off (the default) means failed deliveries
    /// are terminal, exactly the pre-retry engine behaviour. A scenario
    /// opts in via [`enable_retries`](Self::enable_retries) — enablement
    /// lives on the state, not the engine config, so paired experiment
    /// arms can differ on it while sharing one `DynamicsConfig`
    /// (zero-drift contract).
    retries: bool,
    /// Open retry chains: `(sender, receiver) → last scheduled attempt`.
    /// At most one chain per directed edge; re-failures while a chain is
    /// open fold into it instead of double-scheduling. Keyed with
    /// [`EdgeHasher`]: a churn storm opens/settles a chain per inbound
    /// edge per outage, and std's SipHash dominated that drain.
    pending_retries: HashMap<(u32, u32), u32, std::hash::BuildHasherDefault<EdgeHasher>>,
    /// Batches recovered across all instances — maintained
    /// incrementally, O(1).
    recovered_total: u64,
    /// Batches dead-lettered across all instances — maintained
    /// incrementally, O(1).
    dead_letter_total: u64,
    /// Cached per-instance `emissions(cap)` column, rebuilt lazily by
    /// [`refresh_emissions`](Self::refresh_emissions). Invalidated by the
    /// churn mutators ([`set_failure`](Self::set_failure) /
    /// [`set_rate`](Self::set_rate)) — the only post-construction writes
    /// that change an instance's emission count.
    emissions_col: Vec<u64>,
    /// The cap the cached column was computed for.
    emissions_col_cap: u64,
    /// Whether a churn event invalidated the cached column.
    emissions_dirty: bool,
    /// The per-edge verdict table: one word per (receiver, neighbor
    /// slot), aligned with [`neighbors`](Self::neighbors). Bit `t` says
    /// the receiver's pipeline has judged the neighbor's template `t`,
    /// bit `32 + t` that it accepted it. Row `r` keeps its seed-time slot
    /// range `verdict_rows[r]..verdict_rows[r + 1]`, since neighbor lists
    /// only shrink. Relaxed atomics: stage 2 of the measurement phase
    /// writes only the row of the receiver it measures, and the thread
    /// join that ends each parallel call orders one tick's stores before
    /// the next tick's loads.
    verdicts: Vec<AtomicU64>,
    verdict_rows: Vec<u32>,
    /// Whether an instance's row is stale: its pipeline changed since the
    /// row was last cleared.
    stale: Vec<bool>,
    /// The stale instances, each once, in marking order.
    stale_list: Vec<u32>,
}

/// The per-instance template column for instance `i`: the seed template
/// set turned into deliverable activities, each scored once. Ids embed
/// the instance index, so the column is a pure function of `(seeds, i)`
/// — which is what lets [`SharedColumns`] build it once and every engine
/// alias it.
fn template_column(seeds: &ScenarioSeeds, i: usize) -> Vec<PostTemplate> {
    let domain = &seeds.domains[i];
    let scorer = Scorer::new();
    seeds.templates[i]
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let author = UserRef::new(UserId(t.author), domain.clone());
            // The template body is the seed's shared allocation — the
            // engine never copies post text, only refcounts.
            let post = Post::stub(
                PostId(((i as u64) << 24) | k as u64),
                author,
                CAMPAIGN_START,
                t.content.clone(),
            );
            PostTemplate {
                author: t.author,
                content: t.content.clone(),
                toxic: quantise_score(scorer.analyze(&t.content).max()),
                activity: Activity::create(
                    fediscope_core::id::ActivityId((i as u64) << 24 | k as u64),
                    post,
                ),
            }
        })
        .collect()
}

/// Panics if instance `i` carries more templates than a verdict word has
/// bits for. The cap is never met by truncation: a wider world needs a
/// wider word.
fn assert_template_cap(i: usize, templates: &[PostTemplate]) {
    assert!(
        templates.len() <= MAX_TEMPLATES,
        "instance {i} has {} post templates; the per-edge verdict word holds at most {MAX_TEMPLATES}",
        templates.len()
    );
}

/// The `Arc`-shared slice of one instance's state — what distinguishes
/// the interned construction path from the reference one.
struct InstanceParts {
    moderation: Arc<InstanceModerationConfig>,
    pipeline: Arc<MrfPipeline>,
    target: Arc<InstanceModerationConfig>,
    templates: Arc<[PostTemplate]>,
}

/// The seed-derived, instance-indexed columns every engine built over
/// the same [`ScenarioSeeds`] can share by refcount: interned compiled
/// pipelines, the moderation configs behind them, and the pre-built
/// template sets. Building the columns is the expensive part of
/// [`NetworkState::from_seeds`]; paired experiment arms (or repeated
/// runs over one seed set) pay it once via
/// [`NetworkState::from_seeds_shared`].
#[derive(Debug)]
pub struct SharedColumns {
    templates: Vec<Arc<[PostTemplate]>>,
    pipelines: Vec<Arc<MrfPipeline>>,
    configs: Vec<Arc<InstanceModerationConfig>>,
    intern_hits: u64,
    intern_misses: u64,
    intern_distinct: usize,
}

impl SharedColumns {
    /// Builds the columns: one template column per instance, scored and
    /// built in parallel (empty sets all alias a single allocation), then
    /// one [`PipelinePool`] lookup per instance in index order (so
    /// seed-identical configs share one compiled pipeline). Reports the
    /// pool's hit/miss tallies to telemetry as two batched adds — no
    /// per-instance atomics, nothing the zero-drift contract can see.
    pub fn build(seeds: &ScenarioSeeds) -> SharedColumns {
        let empty: Arc<[PostTemplate]> = Arc::from(Vec::new());
        let templates: Vec<Arc<[PostTemplate]>> = (0..seeds.len())
            .into_par_iter()
            .map(|i| {
                let column = template_column(seeds, i);
                if column.is_empty() {
                    Arc::clone(&empty)
                } else {
                    Arc::from(column)
                }
            })
            .collect();
        let mut pool = PipelinePool::new();
        let mut pipelines = Vec::with_capacity(seeds.len());
        let mut configs = Vec::with_capacity(seeds.len());
        for moderation in &seeds.moderation {
            pipelines.push(pool.get(moderation));
            configs.push(Arc::new(moderation.clone()));
        }
        let telemetry = Telemetry::global();
        telemetry.add(HotCounter::PipelineInternHits, pool.hits());
        telemetry.add(HotCounter::PipelineInternMisses, pool.misses());
        SharedColumns {
            templates,
            pipelines,
            configs,
            intern_hits: pool.hits(),
            intern_misses: pool.misses(),
            intern_distinct: pool.distinct(),
        }
    }

    /// Pipeline lookups served by sharing during the build.
    pub fn intern_hits(&self) -> u64 {
        self.intern_hits
    }

    /// Pipeline lookups that compiled fresh during the build.
    pub fn intern_misses(&self) -> u64 {
        self.intern_misses
    }

    /// Distinct moderation configs across the seed set.
    pub fn intern_distinct(&self) -> usize {
        self.intern_distinct
    }

    /// Number of instances the columns cover.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the columns are empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }
}

impl NetworkState {
    /// Builds the initial state from seeds: every instance runs its final
    /// seed moderation, links come from the Peers API extract, and
    /// everyone starts in their seed failure mode. Compiled pipelines are
    /// interned ([`SharedColumns`]) — instances with structurally equal
    /// configs share one `Arc<MrfPipeline>` until a wave/block/reset
    /// diverges them copy-on-write.
    pub fn from_seeds(seeds: &ScenarioSeeds) -> NetworkState {
        NetworkState::from_seeds_shared(seeds, &SharedColumns::build(seeds))
    }

    /// Builds the state over pre-built [`SharedColumns`]: every `Arc`
    /// column is refcounted, not cloned, so a second engine over the same
    /// seeds costs O(instances) pointer bumps instead of a rebuild.
    pub fn from_seeds_shared(seeds: &ScenarioSeeds, columns: &SharedColumns) -> NetworkState {
        assert_eq!(columns.len(), seeds.len(), "columns must match the seeds");
        NetworkState::assemble(seeds, |i| InstanceParts {
            moderation: Arc::clone(&columns.configs[i]),
            pipeline: Arc::clone(&columns.pipelines[i]),
            target: Arc::clone(&columns.configs[i]),
            templates: Arc::clone(&columns.templates[i]),
        })
    }

    /// The pre-interning construction path, kept as the differential
    /// oracle: every instance compiles its own pipeline and owns private
    /// config/template allocations — no sharing anywhere. Traces from a
    /// state built here must be bit-identical to the interned path (the
    /// root `tests/contracts.rs` matrix pins this).
    pub fn from_seeds_reference(seeds: &ScenarioSeeds) -> NetworkState {
        NetworkState::assemble(seeds, |i| {
            let moderation = seeds.moderation[i].clone();
            let pipeline = Arc::new(moderation.build_pipeline());
            InstanceParts {
                moderation: Arc::new(moderation.clone()),
                pipeline,
                target: Arc::new(moderation),
                templates: Arc::from(template_column(seeds, i)),
            }
        })
    }

    /// The shared assembly under every construction path: scalar columns
    /// come straight from the seeds, the `Arc`-shared parts from
    /// `parts(i)`.
    fn assemble(
        seeds: &ScenarioSeeds,
        mut parts: impl FnMut(usize) -> InstanceParts,
    ) -> NetworkState {
        let instances: Vec<InstanceState> = (0..seeds.len())
            .map(|i| {
                let InstanceParts {
                    moderation,
                    pipeline,
                    target,
                    templates,
                } = parts(i);
                assert_template_cap(i, &templates);
                // Posty instances emit more per tick, saturating at 8 —
                // enough spread to make storm multipliers visible without
                // letting one giant drown the trace.
                let base_emission = if templates.is_empty() {
                    0
                } else {
                    1 + (seeds.posts_full_scale[i] / 25_000).min(7) as u32
                };
                InstanceState {
                    domain: seeds.domains[i].clone(),
                    pleroma: seeds.pleroma[i],
                    failure: seeds.failures[i],
                    seed_failure: seeds.failures[i],
                    rate: 1.0,
                    base_emission,
                    adopted: false,
                    pipeline,
                    target,
                    moderation,
                    templates,
                    users: seeds.users[i],
                    rejects_received: seeds.rejects_received[i],
                }
            })
            .collect();
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); instances.len()];
        for &(a, b) in &seeds.links {
            neighbors[a as usize].push(b);
            neighbors[b as usize].push(a);
        }
        for list in &mut neighbors {
            list.sort_unstable();
        }
        let mut verdict_rows = vec![0u32];
        let mut slots = 0;
        for list in &neighbors {
            slots += list.len();
            verdict_rows.push(u32::try_from(slots).expect("verdict table fits u32 offsets"));
        }
        let by_domain = instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (inst.domain.as_str().to_string(), i as u32))
            .collect();
        let instances_len = instances.len();
        let mut up_count = 0;
        let mut failure_mix = [0u64; 5];
        for inst in &instances {
            if inst.up() {
                up_count += 1;
            } else if let Some(idx) = failure_mix_index(inst.failure) {
                failure_mix[idx] += 1;
            }
        }
        NetworkState {
            instances,
            neighbors,
            link_count: seeds.links.len() as u64,
            by_domain,
            adoption_order: seeds.adoption_order().iter().map(|&i| i as u32).collect(),
            up_count,
            adopted_count: 0,
            failure_mix,
            retries: false,
            pending_retries: HashMap::default(),
            recovered_total: 0,
            dead_letter_total: 0,
            emissions_col: Vec::new(),
            emissions_col_cap: 0,
            emissions_dirty: true,
            verdicts: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            verdict_rows,
            stale: vec![false; instances_len],
            stale_list: Vec::new(),
        }
    }

    /// Receiver `r`'s verdict words, one per neighbor, aligned with
    /// [`neighbors(r)`](Self::neighbors). Bit `t` (`t < 32`, the
    /// per-instance template cap) is set once `r`'s pipeline has judged the
    /// neighbor's template `t`, and bit `32 + t` if it accepted it. A
    /// word is valid while `r`'s pipeline is unchanged: the pipeline
    /// writers ([`apply_wave`](Self::apply_wave), a new block in
    /// [`defederate`](Self::defederate),
    /// [`reset_moderation_default`](Self::reset_moderation_default)) mark
    /// `r` stale in O(1), and the engine clears stale rows
    /// ([`clear_stale_verdicts`](Self::clear_stale_verdicts)) before a
    /// tick's measurement. [`unlink`](Self::unlink) shifts the words with
    /// the slots, so the remaining neighbors' verdicts stay valid. A
    /// direct write to the public `pipeline` or `templates` fields (a
    /// scenario's `init` may make one) is covered by the engine clearing
    /// every row ([`clear_verdicts`](Self::clear_verdicts)) after `init`.
    pub(crate) fn verdict_row(&self, r: usize) -> &[AtomicU64] {
        let start = self.verdict_rows[r] as usize;
        &self.verdicts[start..start + self.neighbors[r].len()]
    }

    /// Marks instance `i`'s verdict row stale: O(1), cleared at the next
    /// measured tick.
    fn mark_stale(&mut self, i: usize) {
        if !self.stale[i] {
            self.stale[i] = true;
            self.stale_list.push(i as u32);
        }
    }

    /// Zeroes the verdict row of every instance marked stale since the
    /// last clear.
    pub(crate) fn clear_stale_verdicts(&mut self) {
        for i in std::mem::take(&mut self.stale_list) {
            let i = i as usize;
            self.stale[i] = false;
            let row = self.verdict_rows[i] as usize..self.verdict_rows[i + 1] as usize;
            for word in &mut self.verdicts[row] {
                *word.get_mut() = 0;
            }
        }
    }

    /// Zeroes every verdict row and re-checks the template cap: the
    /// start of a run, after a scenario's `init` may have rewritten any
    /// instance's `pipeline` or `templates` directly.
    pub(crate) fn clear_verdicts(&mut self) {
        for (i, inst) in self.instances.iter().enumerate() {
            assert_template_cap(i, &inst.templates);
        }
        for word in &mut self.verdicts {
            *word.get_mut() = 0;
        }
        for &i in &self.stale_list {
            self.stale[i as usize] = false;
        }
        self.stale_list.clear();
    }

    /// Rebuilds the cached emissions column for `cap` if a churn event
    /// invalidated it (or the cap changed) since the last refresh. O(1)
    /// when clean — the common case on churn-free ticks.
    pub fn refresh_emissions(&mut self, cap: u64) {
        if !self.emissions_dirty && self.emissions_col_cap == cap {
            return;
        }
        self.emissions_col.clear();
        self.emissions_col
            .extend(self.instances.iter().map(|inst| inst.emissions(cap)));
        self.emissions_col_cap = cap;
        self.emissions_dirty = false;
    }

    /// The cached per-instance emissions column. Only meaningful after a
    /// same-tick [`refresh_emissions`](Self::refresh_emissions) with the
    /// engine's cap.
    pub fn emissions_col(&self) -> &[u64] {
        &self.emissions_col
    }

    /// Turns the delivery-reliability layer on. Called from a scenario's
    /// `init`; the engine then opens retry chains when instances go down.
    pub fn enable_retries(&mut self) {
        self.retries = true;
    }

    /// Whether the run opted in to retries.
    pub fn retries_enabled(&self) -> bool {
        self.retries
    }

    /// Clears every trace of the reliability layer: enablement, open
    /// chains and both totals. The engine calls this at `begin()` so a
    /// reused engine never leaks retry state (or enablement) across runs.
    pub fn reset_reliability(&mut self) {
        self.retries = false;
        self.pending_retries.clear();
        self.recovered_total = 0;
        self.dead_letter_total = 0;
    }

    /// Opens a retry chain for the directed edge `sender → receiver`,
    /// recording attempt 1 as scheduled. Returns `false` (and changes
    /// nothing) if a chain is already open — the existing schedule
    /// absorbs the new failure.
    pub fn open_retry_chain(&mut self, sender: u32, receiver: u32) -> bool {
        use std::collections::hash_map::Entry;
        match self.pending_retries.entry((sender, receiver)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(1);
                true
            }
        }
    }

    /// Records that the chain's next attempt is scheduled.
    pub fn bump_retry_attempt(&mut self, sender: u32, receiver: u32, attempt: u32) {
        self.pending_retries.insert((sender, receiver), attempt);
    }

    /// Closes the chain with a successful redelivery.
    pub fn settle_recovered(&mut self, sender: u32, receiver: u32) {
        self.pending_retries.remove(&(sender, receiver));
        self.recovered_total += 1;
    }

    /// Closes the chain by giving up, parking the batch in the sender's
    /// dead-letter queue.
    pub fn settle_dead_letter(&mut self, sender: u32, receiver: u32) {
        self.pending_retries.remove(&(sender, receiver));
        self.dead_letter_total += 1;
    }

    /// Whether a chain is open for the directed edge `sender → receiver`.
    pub fn retry_pending(&self, sender: u32, receiver: u32) -> bool {
        self.pending_retries.contains_key(&(sender, receiver))
    }

    /// Open retry chains right now.
    pub fn pending_retry_count(&self) -> usize {
        self.pending_retries.len()
    }

    /// Batches recovered across all instances — O(1).
    pub fn recovered_total(&self) -> u64 {
        self.recovered_total
    }

    /// Batches dead-lettered across all instances — O(1).
    pub fn dead_letter_total(&self) -> u64 {
        self.dead_letter_total
    }

    /// The retry class of instance `i`'s current condition: `None` while
    /// it answers, otherwise whether its §3 failure mode is worth
    /// retrying.
    pub fn failure_class_of(&self, i: u32) -> Option<FailureClass> {
        self.instances[i as usize].failure.class()
    }

    /// Instances currently answering the network — maintained
    /// incrementally, O(1).
    pub fn up_count(&self) -> u64 {
        self.up_count
    }

    /// Instances whose moderation changed since the run began —
    /// maintained incrementally, O(1).
    pub fn adopted_count(&self) -> u64 {
        self.adopted_count
    }

    /// Down instances by §3 failure-taxonomy slot (`[404, 403, 502,
    /// 503, 410]`, the [`failure_mix_index`] order) — maintained
    /// incrementally, O(1).
    pub fn failure_mix(&self) -> [u64; 5] {
        self.failure_mix
    }

    /// The canonical rollout adoption order, carried verbatim from
    /// [`ScenarioSeeds::adoption_order`]: instances with a non-default
    /// final config, heaviest reject lists first.
    pub fn adoption_order(&self) -> &[u32] {
        &self.adoption_order
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if the network is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Current federation neighbors of `i`, sorted ascending.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[i]
    }

    /// Live federation links (undirected).
    pub fn link_count(&self) -> u64 {
        self.link_count
    }

    /// Whether `a` and `b` are currently linked.
    pub fn linked(&self, a: u32, b: u32) -> bool {
        self.neighbors[a as usize].binary_search(&b).is_ok()
    }

    /// Instance index for a domain.
    pub fn index_of(&self, domain: &str) -> Option<u32> {
        self.by_domain.get(domain).copied()
    }

    /// Removes the undirected link `a`–`b`; returns whether it existed.
    /// Both ends' verdict words shift with their neighbor slots, so no
    /// remaining verdict goes stale.
    pub fn unlink(&mut self, a: u32, b: u32) -> bool {
        let Ok(pos) = self.neighbors[a as usize].binary_search(&b) else {
            return false;
        };
        self.remove_slot(a as usize, pos);
        if let Ok(pos) = self.neighbors[b as usize].binary_search(&a) {
            self.remove_slot(b as usize, pos);
        }
        self.link_count -= 1;
        true
    }

    /// Removes neighbor slot `pos` of instance `i`, shifting the later
    /// slots' verdict words down with their neighbors.
    fn remove_slot(&mut self, i: usize, pos: usize) {
        let len = self.neighbors[i].len();
        self.neighbors[i].remove(pos);
        let start = self.verdict_rows[i] as usize;
        let row = &mut self.verdicts[start..start + len];
        row[pos..].rotate_left(1);
        *row[len - 1].get_mut() = 0;
    }

    /// Applies a rollout wave to instance `i`, updating its compiled
    /// pipeline in place through the delta API — O(wave), never
    /// O(policy). Returns whether the wave changed anything.
    pub fn apply_wave(&mut self, i: u32, wave: &RolloutWave) -> bool {
        if wave.is_empty() {
            return false;
        }
        let inst = &mut self.instances[i as usize];
        // First wave on a shared pipeline diverges this instance
        // copy-on-write; later waves find the refcount at 1 and mutate in
        // place, so the delta API stays O(wave).
        Arc::make_mut(&mut inst.pipeline).apply_wave(wave, &mut inst.moderation);
        self.mark_adopted(i as usize);
        self.mark_stale(i as usize);
        true
    }

    /// Flags instance `i` as having changed moderation, keeping the
    /// adopted counter in step.
    fn mark_adopted(&mut self, i: usize) {
        if !self.instances[i].adopted {
            self.instances[i].adopted = true;
            self.adopted_count += 1;
        }
    }

    /// Instance `a` defederates from `t`: reject-lists `t`'s domain as a
    /// one-target delta on the compiled pipeline, and tears the link
    /// down. Returns whether a live link was actually severed (the
    /// cascade propagation gate — re-blocking an already-severed pair is
    /// a no-op and must not re-trigger imitation).
    pub fn defederate(&mut self, a: u32, t: u32) -> bool {
        let target = &self.instances[t as usize].domain;
        let already = self.instances[a as usize]
            .simple()
            .is_some_and(|s| s.matches(SimpleAction::Reject, target));
        if !already {
            let target = target.clone();
            let inst = &mut self.instances[a as usize];
            // A block diverges a shared pipeline copy-on-write — the
            // instances still sharing the seed allocation are untouched.
            let pipeline = Arc::make_mut(&mut inst.pipeline);
            if pipeline.simple().is_none() {
                let enable = RolloutWave {
                    enable: vec![PolicyKind::Simple],
                    ..RolloutWave::default()
                };
                pipeline.apply_wave(&enable, &mut inst.moderation);
            }
            pipeline.add_simple_target(SimpleAction::Reject, target);
            self.mark_adopted(a as usize);
            self.mark_stale(a as usize);
        }
        self.unlink(a, t)
    }

    /// Forces a failure mode; returns whether it changed. Keeps the
    /// up/failure-mix counters in step (O(1)).
    pub fn set_failure(&mut self, i: u32, mode: FailureMode) -> bool {
        let old = self.instances[i as usize].failure;
        if old == mode {
            return false;
        }
        match failure_mix_index(old) {
            None => self.up_count -= 1,
            Some(idx) => self.failure_mix[idx] -= 1,
        }
        match failure_mix_index(mode) {
            None => self.up_count += 1,
            Some(idx) => self.failure_mix[idx] += 1,
        }
        self.instances[i as usize].failure = mode;
        self.emissions_dirty = true;
        true
    }

    /// Sets the emission multiplier; returns whether it changed.
    pub fn set_rate(&mut self, i: u32, rate: f64) -> bool {
        let inst = &mut self.instances[i as usize];
        let changed = inst.rate != rate;
        inst.rate = rate;
        if changed {
            self.emissions_dirty = true;
        }
        changed
    }

    /// Resets instance `i` to the fresh-install moderation default
    /// (rollout scenarios start everyone here and replay adoption).
    ///
    /// Removal is the one mutation the additive delta API cannot
    /// express, so this is the reference-path site: the default config
    /// is compiled from scratch — O(2) stages, and it runs in scenario
    /// `init`, never in the per-event control phase.
    pub fn reset_moderation_default(&mut self, i: usize) {
        let inst = &mut self.instances[i];
        inst.moderation = Arc::new(if inst.pleroma {
            InstanceModerationConfig::pleroma_default()
        } else {
            InstanceModerationConfig::default()
        });
        inst.pipeline = Arc::new(inst.moderation.build_pipeline());
        if inst.adopted {
            inst.adopted = false;
            self.adopted_count -= 1;
        }
        self.mark_stale(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::seeds;

    #[test]
    fn state_mirrors_seed_topology() {
        let s = seeds();
        let state = NetworkState::from_seeds(s);
        assert_eq!(state.len(), s.len());
        assert_eq!(state.link_count(), s.links.len() as u64);
        let &(a, b) = s.links.first().unwrap();
        assert!(state.linked(a, b));
        assert!(state.linked(b, a));
    }

    #[test]
    fn every_template_carries_its_score() {
        let s = seeds();
        let scorer = Scorer::new();
        for state in [
            NetworkState::from_seeds(s),
            NetworkState::from_seeds_reference(s),
        ] {
            let templates: Vec<&PostTemplate> = state
                .instances
                .iter()
                .flat_map(|inst| inst.templates.iter())
                .collect();
            let seeded: usize = s.templates.iter().map(|t| t.len()).sum();
            assert_eq!(templates.len(), seeded);
            for t in &templates {
                let score = quantise_score(scorer.analyze(&t.content).max());
                assert_eq!(t.toxic, score, "{:?}", t.content);
            }
            assert!(templates.iter().any(|t| t.toxic > 0), "some text is toxic");
        }
    }

    #[test]
    fn unlink_and_defederate() {
        let s = seeds();
        let mut state = NetworkState::from_seeds(s);
        let &(a, b) = s.links.first().unwrap();
        let before = state.link_count();
        assert!(state.defederate(a, b));
        assert!(!state.linked(a, b));
        assert_eq!(state.link_count(), before - 1);
        let target = state.instances[b as usize].domain.clone();
        assert!(state.instances[a as usize]
            .simple()
            .unwrap()
            .matches(SimpleAction::Reject, &target));
        assert!(state.instances[a as usize].adopted);
        // Re-blocking the severed pair applies nothing new.
        assert!(!state.defederate(a, b));
    }

    #[test]
    fn reset_to_default_disarms_rejects() {
        let s = seeds();
        let mut state = NetworkState::from_seeds(s);
        let rejector = (0..state.len())
            .find(|&i| {
                state.instances[i]
                    .simple()
                    .is_some_and(|sp| !sp.targets(SimpleAction::Reject).is_empty())
            })
            .expect("the seed world has rejectors");
        state.reset_moderation_default(rejector);
        assert!(state.instances[rejector].simple().is_none());
        // The target config is untouched — rollouts replay it.
        assert!(state.instances[rejector].target.simple.as_ref().is_some());
    }

    #[test]
    fn aggregate_counters_stay_in_step_with_the_instances() {
        let s = seeds();
        let mut state = NetworkState::from_seeds(s);
        let recount = |state: &NetworkState| {
            let mut up = 0u64;
            let mut adopted = 0u64;
            let mut mix = [0u64; 5];
            for inst in &state.instances {
                if inst.up() {
                    up += 1;
                } else if let Some(idx) = failure_mix_index(inst.failure) {
                    mix[idx] += 1;
                }
                if inst.adopted {
                    adopted += 1;
                }
            }
            (up, adopted, mix)
        };
        let check = |state: &NetworkState, what: &str| {
            let (up, adopted, mix) = recount(state);
            assert_eq!(state.up_count(), up, "up after {what}");
            assert_eq!(state.adopted_count(), adopted, "adopted after {what}");
            assert_eq!(state.failure_mix(), mix, "mix after {what}");
        };
        check(&state, "from_seeds");
        state.set_failure(0, FailureMode::Gone);
        state.set_failure(0, FailureMode::Gone); // no-op repeat
        state.set_failure(1, FailureMode::BadGateway);
        check(&state, "failures");
        state.set_failure(0, FailureMode::Healthy);
        check(&state, "recovery");
        let &(a, b) = s.links.first().unwrap();
        state.defederate(a, b);
        state.defederate(a, b); // idempotent re-block
        check(&state, "defederate");
        state.reset_moderation_default(a as usize);
        state.reset_moderation_default(a as usize);
        check(&state, "reset");
        let wave = fediscope_core::rollout::PolicyRollout::staged(
            &state.instances[a as usize].target.clone(),
            1,
            fediscope_core::time::SimDuration::hours(1),
        )
        .waves
        .remove(0);
        state.apply_wave(a, &wave);
        state.apply_wave(a, &wave);
        check(&state, "wave");
    }

    #[test]
    fn reliability_counters_stay_in_step() {
        let s = seeds();
        let mut state = NetworkState::from_seeds(s);
        assert!(!state.retries_enabled(), "retries default off");
        state.enable_retries();
        assert!(state.retries_enabled());
        assert!(state.open_retry_chain(0, 1));
        assert!(!state.open_retry_chain(0, 1), "one chain per directed edge");
        assert!(state.open_retry_chain(2, 1));
        assert!(state.open_retry_chain(3, 1));
        state.bump_retry_attempt(0, 1, 2);
        assert_eq!(state.pending_retry_count(), 3);
        state.settle_recovered(0, 1);
        state.settle_dead_letter(2, 1);
        state.settle_dead_letter(3, 1);
        assert_eq!(state.pending_retry_count(), 0);
        assert!(!state.retry_pending(0, 1), "a settled chain closes");
        assert_eq!(state.recovered_total(), 1);
        assert_eq!(state.dead_letter_total(), 2);
        state.reset_reliability();
        assert!(!state.retries_enabled());
        assert_eq!(state.recovered_total() + state.dead_letter_total(), 0);
    }

    #[test]
    fn backoff_schedule_doubles_and_never_overflows() {
        // A 1-hour base, doubling per attempt; the 5th attempt is the
        // last before a batch dead-letters.
        assert_eq!(RETRY_BASE_BACKOFF, SimDuration::hours(1));
        assert_eq!(MAX_RETRY_ATTEMPTS, 5);
        assert_eq!(retry_backoff(1, 0), SimDuration(3600));
        assert_eq!(retry_backoff(2, 10), SimDuration(7210));
        assert_eq!(retry_backoff(3, 0), SimDuration(14_400));
        assert_eq!(retry_backoff(MAX_RETRY_ATTEMPTS, 0), SimDuration::hours(16));
        // Attempt `u32::MAX` stops doubling after 20 steps, and the sum
        // saturates instead of overflowing.
        assert_eq!(retry_backoff(u32::MAX, 0), SimDuration(3600 << 20));
        assert_eq!(retry_backoff(u32::MAX, u64::MAX), SimDuration(u64::MAX));
    }

    #[test]
    fn failure_class_tracks_the_taxonomy() {
        let s = seeds();
        let mut state = NetworkState::from_seeds(s);
        state.set_failure(0, FailureMode::Healthy);
        assert_eq!(state.failure_class_of(0), None);
        state.set_failure(0, FailureMode::BadGateway);
        assert_eq!(state.failure_class_of(0), Some(FailureClass::Transient));
        state.set_failure(0, FailureMode::Gone);
        assert_eq!(state.failure_class_of(0), Some(FailureClass::Permanent));
    }

    #[test]
    fn interned_pipelines_are_shared_and_diverge_cow() {
        let s = seeds();
        let mut state = NetworkState::from_seeds(s);
        let mut pair = None;
        'outer: for a in 0..state.len() {
            for b in a + 1..state.len() {
                if Arc::ptr_eq(&state.instances[a].pipeline, &state.instances[b].pipeline) {
                    pair = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("the seed world repeats moderation configs");
        // At seed time an instance's active and target configs alias one
        // allocation.
        assert!(Arc::ptr_eq(
            &state.instances[a].moderation,
            &state.instances[a].target
        ));
        // A block on `a` diverges only `a`; `b` keeps the shared copy.
        let shared = Arc::clone(&state.instances[b].pipeline);
        let target = if a == 0 { 1 } else { 0 } as u32;
        let ran_simple = state.instances[a].enabled().contains(&PolicyKind::Simple);
        state.defederate(a as u32, target);
        // The block lands in the pipeline only: the config is copied just
        // to record a newly enabled Simple.
        assert_eq!(
            Arc::ptr_eq(&state.instances[a].moderation, &state.instances[a].target),
            ran_simple
        );
        assert!(!Arc::ptr_eq(
            &state.instances[a].pipeline,
            &state.instances[b].pipeline
        ));
        assert!(Arc::ptr_eq(&state.instances[b].pipeline, &shared));
        assert!(state.instances[b].simple().is_none_or(|sp| !sp.matches(
            SimpleAction::Reject,
            &state.instances[target as usize].domain
        )));
    }

    #[test]
    fn shared_columns_alias_across_states() {
        let s = seeds();
        let cols = SharedColumns::build(s);
        assert_eq!(cols.intern_hits() + cols.intern_misses(), s.len() as u64);
        assert_eq!(cols.intern_distinct() as u64, cols.intern_misses());
        let s1 = NetworkState::from_seeds_shared(s, &cols);
        let s2 = NetworkState::from_seeds_shared(s, &cols);
        for i in 0..s1.len() {
            assert!(Arc::ptr_eq(
                &s1.instances[i].pipeline,
                &s2.instances[i].pipeline
            ));
            assert!(Arc::ptr_eq(
                &s1.instances[i].templates,
                &s2.instances[i].templates
            ));
            assert!(Arc::ptr_eq(
                &s1.instances[i].moderation,
                &s2.instances[i].moderation
            ));
        }
    }

    #[test]
    fn emissions_scale_with_rate_and_cap() {
        let s = seeds();
        let mut state = NetworkState::from_seeds(s);
        let emitter = (0..state.len())
            .find(|&i| !state.instances[i].templates.is_empty())
            .expect("some instance has posts");
        let base = state.instances[emitter].emissions(64);
        assert!(base >= 1);
        state.set_rate(emitter as u32, 10.0);
        assert!(state.instances[emitter].emissions(u64::MAX) >= base * 9);
        assert_eq!(state.instances[emitter].emissions(2), 2);
        state.set_failure(emitter as u32, FailureMode::Gone);
        assert_eq!(state.instances[emitter].emissions(64), 0);
    }
}
