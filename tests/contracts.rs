//! The contract matrix: every scenario a user can run must give one
//! canonical trace however it is run.
//!
//! Rows are every [`registry`] entry plus three test-only worlds:
//! `with-rewriters` (a rewriting MRF policy in every third pipeline, so
//! the batched path takes its copy-on-write clone fallback and the
//! interned state diverges from its intern pool at init),
//! `one-template-reject-all` (each sender's tick collapses into one
//! memoised run that is rejected, so `rejected_authors` must still count
//! one author per edge, not one per emission), and `import-partial-dense`
//! (the partial import in 8-domain chunks over 2 days, so more of its
//! copy-on-write waves land inside the run; batched and as an arm only).
//! Each row runs at 1, 2 and 8 worker threads, under its [`Variant`]s,
//! at every engine seed in [`SEEDS`], and every cell must show no
//! [`DynamicsTrace::first_divergence`] from the canonical trace: the
//! batched run at one thread. Exposure is integer, so two sums must hold
//! exactly: each canonical tick's `toxic_exposure` is the sum of its
//! `per_instance_exposure`, and each experiment delta's prevented
//! exposure is the difference of the two arms' total exposure.
//!
//! Pool resizing and telemetry arming are process-global, so the whole
//! matrix is one test body.

use fediscope_core::mrf::policies::{DropPolicy, RewritePolicy};
use fediscope_core::time::{SimDuration, SimTime};
use fediscope_dynamics::scenarios::{
    lookup, registry, AdoptionModel, BlocklistImportScenario, Composite, ImportConfig,
};
use fediscope_dynamics::{
    Arm, DynamicsConfig, DynamicsEngine, DynamicsTrace, EngineBuilder, EventQueue, Experiment,
    MeasureMode, NetworkState, Scenario, Scheduled, TraceDelta,
};
use fediscope_synthgen::{write_shard_dir, ScenarioSeeds, SeedKnobs, World, WorldConfig};
use fediscope_telemetry::{HotCounter, Telemetry};
use rand::rngs::SmallRng;
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 8];
const SEEDS: [u64; 4] = [1534, 42, 0xdead_beef, 987_654_321];
const TICKS: u64 = 6;

/// How a cell runs its row.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// `DynamicsEngine::new`, batched measurement.
    Batched,
    /// The same again: a same-seed repeat.
    Repeat,
    /// Per-post `MeasureMode::Reference` measurement.
    PerPost,
    /// Share-nothing `NetworkState::from_seeds_reference`.
    ShareNothing,
    /// With the global telemetry registry armed.
    Armed,
    /// Seeds reloaded from a `write_shard_dir` directory.
    Shards,
    /// As an arm of an `Experiment` holding every row.
    Arm,
}

const STANDALONE: [Variant; 6] = [
    Variant::Batched,
    Variant::Repeat,
    Variant::PerPost,
    Variant::ShareNothing,
    Variant::Armed,
    Variant::Shards,
];

/// Pushes a rewriting policy into every third instance's pipeline at
/// init, then runs the wrapped scenario.
struct WithRewriters(Box<dyn Scenario>);

impl Scenario for WithRewriters {
    fn name(&self) -> &'static str {
        "with-rewriters"
    }
    fn init(&mut self, start: SimTime, s: &mut NetworkState, q: &mut EventQueue, r: &mut SmallRng) {
        for inst in s.instances.iter_mut().step_by(3) {
            Arc::make_mut(&mut inst.pipeline).push(Arc::new(RewritePolicy {
                rules: vec![("e".to_string(), "3".to_string())],
            }));
        }
        self.0.init(start, s, q, r);
    }
    fn after_event(
        &mut self,
        e: &Scheduled,
        applied: bool,
        s: &NetworkState,
        q: &mut EventQueue,
        r: &mut SmallRng,
    ) {
        self.0.after_event(e, applied, s, q, r);
    }
}

/// Cuts every instance to one template and rejects every delivery.
struct OneTemplateRejectAll;

impl Scenario for OneTemplateRejectAll {
    fn name(&self) -> &'static str {
        "one-template-reject-all"
    }
    fn init(&mut self, _: SimTime, s: &mut NetworkState, _: &mut EventQueue, _: &mut SmallRng) {
        for inst in &mut s.instances {
            if inst.templates.len() > 1 {
                inst.templates = Arc::from(&inst.templates[..1]);
            }
            Arc::make_mut(&mut inst.pipeline).push(Arc::new(DropPolicy));
        }
    }
}

/// The `composite` trio registered in another order. Storm, churn and
/// rollout commute, so every order must give the canonical trace.
fn composite_in_order(order: [usize; 3]) -> Box<dyn Scenario> {
    let mut composite = Composite::new();
    for i in order {
        composite.push((lookup(["storm", "churn", "rollout"][i]).unwrap().build)());
    }
    Box::new(composite)
}

/// A row's name, its scenario, and the standalone variants it runs
/// under (every row also runs as an experiment arm).
type Row = (&'static str, fn() -> Box<dyn Scenario>, &'static [Variant]);

fn rows() -> Vec<Row> {
    let mut rows: Vec<Row> = registry()
        .iter()
        .map(|e| (e.name, e.build, &STANDALONE[..]))
        .collect();
    rows.push((
        "with-rewriters",
        || Box::new(WithRewriters((lookup("storm").unwrap().build)())),
        &STANDALONE,
    ));
    rows.push((
        "one-template-reject-all",
        || Box::new(OneTemplateRejectAll),
        &STANDALONE,
    ));
    rows.push((
        "import-partial-dense",
        || {
            Box::new(BlocklistImportScenario::new(ImportConfig {
                chunk: 8,
                window: SimDuration::days(2),
                adoption: AdoptionModel::HeavyTail { alpha: 3.0 },
                reset_to_default: true,
            }))
        },
        &[Variant::Batched],
    ));
    rows
}

fn config(seed: u64, measure: MeasureMode) -> DynamicsConfig {
    DynamicsConfig {
        seed,
        ticks: TICKS,
        measure,
        ..DynamicsConfig::default()
    }
}

struct Worlds {
    seeds: Arc<ScenarioSeeds>,
    shard_seeds: ScenarioSeeds,
}

/// Runs `row` under a standalone `variant` at every seed in [`SEEDS`],
/// the seeds concurrently, each engine on the global pool.
fn cell(worlds: &Worlds, row: &Row, variant: Variant) -> Vec<DynamicsTrace> {
    let measure = match variant {
        Variant::PerPost => MeasureMode::Reference,
        _ => MeasureMode::Batched,
    };
    let run = |seed| {
        let mut engine = match variant {
            Variant::ShareNothing => DynamicsEngine::from_state(
                config(seed, measure),
                NetworkState::from_seeds_reference(&worlds.seeds),
            ),
            Variant::Shards => DynamicsEngine::new(config(seed, measure), &worlds.shard_seeds),
            _ => DynamicsEngine::new(config(seed, measure), &worlds.seeds),
        };
        engine.run((row.1)().as_mut())
    };
    let telemetry = Telemetry::global();
    let armed = matches!(variant, Variant::Armed);
    if armed {
        telemetry.reset();
        telemetry.arm();
    }
    let traces = std::thread::scope(|s| {
        let runs: Vec<_> = SEEDS.map(|seed| s.spawn(move || run(seed))).into();
        runs.into_iter().map(|h| h.join().unwrap()).collect()
    });
    if armed {
        let readings = telemetry.counter(HotCounter::EventsApplied)
            + telemetry.counter(HotCounter::EngineDeliveries);
        telemetry.disarm();
        telemetry.reset();
        assert!(readings > 0, "{}: armed runs recorded nothing", row.0);
    }
    traces
}

const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The experiment's arm order for pass `k`: the counterfactual trio in
/// its `k % 6`-th permutation, then the other rows rotated by `k`.
fn arm_order(rows: &[Row], k: usize) -> Vec<usize> {
    let trio = ["inaction", "rollout", "import-partial"]
        .map(|n| rows.iter().position(|r| r.0 == n).unwrap());
    let mut order: Vec<usize> = PERMS[k % 6].iter().map(|&p| trio[p]).collect();
    let mut rest: Vec<usize> = (0..rows.len()).filter(|i| !trio.contains(i)).collect();
    let shift = k % rest.len();
    rest.rotate_left(shift);
    order.extend(rest);
    order
}

#[test]
fn every_scenario_gives_one_trace_under_every_variant() {
    let world_config = WorldConfig::test_small();
    let shard_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-shards");
    write_shard_dir(&world_config, &shard_dir).expect("write shards");
    let worlds = Worlds {
        seeds: Arc::new(ScenarioSeeds::from_world(&World::generate(world_config))),
        shard_seeds: ScenarioSeeds::from_shards(&shard_dir, &SeedKnobs::default())
            .expect("reload shards"),
    };
    let rows = rows();
    // The first cell of each row (batched, one thread) is its canon.
    let mut canonical: Vec<Vec<DynamicsTrace>> = Vec::new();
    let mut check = |r: usize, si: usize, trace: &DynamicsTrace, variant, threads| {
        if canonical.len() == r {
            canonical.push(Vec::new());
        }
        if canonical[r].len() == si {
            canonical[r].push(trace.clone());
        }
        let at = (rows[r].0, variant, threads, SEEDS[si]);
        let divergence = trace.first_divergence(&canonical[r][si]);
        assert_eq!(divergence, None, "(row, variant, threads, seed) = {at:?}");
    };
    let mut deltas: Vec<Vec<TraceDelta>> = vec![Vec::new(); SEEDS.len()];
    for (ti, threads) in THREADS.into_iter().enumerate() {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
        for (r, row) in rows.iter().enumerate() {
            for &variant in row.2 {
                for (si, trace) in cell(&worlds, row, variant).iter().enumerate() {
                    check(r, si, trace, variant, threads);
                }
            }
        }
        // Every row as an arm of one experiment, in a pass-specific
        // order (the composite's subs too); the baseline follows its
        // name, not its slot.
        for (si, &seed) in SEEDS.iter().enumerate() {
            let builder = EngineBuilder::new(
                config(seed, MeasureMode::Batched),
                Arc::clone(&worlds.seeds),
            );
            let mut experiment = Experiment::new(builder).with_baseline("inaction");
            let k = ti * SEEDS.len() + si;
            for r in arm_order(&rows, k) {
                let (name, build, _) = rows[r];
                experiment.push(match name {
                    "composite" => Arm::new(name, move || composite_in_order(PERMS[k % 6])),
                    _ => Arm::new(name, build),
                });
            }
            let result = experiment.run();
            assert_eq!(result.baseline().name, "inaction");
            for (r, row) in rows.iter().enumerate() {
                let trace = &result.arm(row.0).expect("every arm ran").trace;
                check(r, si, trace, Variant::Arm, threads);
            }
            let mut by_arm = result.deltas();
            // Prevention is exact: each arm's delta is the difference of
            // the two arms' total exposure.
            let baseline_total = result.baseline().trace.total_exposure() as i64;
            for delta in &by_arm {
                let arm_total = result.arm(&delta.arm).unwrap().trace.total_exposure() as i64;
                assert_eq!(
                    delta.prevented_exposure(),
                    baseline_total - arm_total,
                    "{}, seed {seed}",
                    delta.arm
                );
            }
            by_arm.sort_by(|a, b| a.arm.cmp(&b.arm));
            if deltas[si].is_empty() {
                let rollout = by_arm.iter().find(|d| d.arm == "rollout").unwrap();
                assert!(rollout.prevented_exposure() > 0, "seed {seed}");
                assert!(rollout.blocked_deliveries() > 0, "seed {seed}");
                deltas[si] = by_arm;
            } else {
                assert_eq!(by_arm, deltas[si], "{threads} threads, seed {seed}");
            }
        }
    }
    // A tick's exposure is exactly the sum of its per-instance row.
    for (row, traces) in rows.iter().zip(&canonical) {
        for trace in traces {
            for t in &trace.ticks {
                let sum: u64 = t.per_instance_exposure.iter().sum();
                assert_eq!(t.toxic_exposure, sum, "{}: tick {}", row.0, t.tick);
            }
        }
    }
    // A different engine seed gives a different trace, seed field aside.
    // The reject-all world is exempt: one template per sender makes its
    // emissions seed-independent.
    for (row, traces) in rows.iter().zip(&canonical) {
        for (i, a) in traces.iter().enumerate() {
            for b in &traces[i + 1..] {
                let reseeded = DynamicsTrace {
                    seed: a.seed,
                    ..b.clone()
                };
                let collide = a.digest() == reseeded.digest();
                assert!(
                    !collide || row.0 == "one-template-reject-all",
                    "{}: seeds {} and {}",
                    row.0,
                    a.seed,
                    b.seed
                );
            }
        }
    }
    let reject_all = rows.iter().position(|r| r.0 == "one-template-reject-all");
    for trace in &canonical[reject_all.unwrap()] {
        assert!(trace.total_rejected() > 0, "DropPolicy rejects all");
        for tick in &trace.ticks {
            assert!(
                0 < tick.rejected_authors && tick.rejected_authors < tick.rejected,
                "tick {}: memoised runs collapse, yet authors count exactly ({} of {})",
                tick.tick,
                tick.rejected_authors,
                tick.rejected
            );
        }
    }
}
