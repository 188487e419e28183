//! The perf gates: every throughput, scaling, overhead and memory floor
//! the scorer, worldgen and the dynamics engine must hold, in one binary.
//!
//! ```text
//! cargo bench -q -p fediscope-bench --bench gates
//! ```
//!
//! Each gate prints one line with its reading and its bar. The bench
//! checks every gate before it fails, then panics once naming each
//! missed gate, so one miss cannot hide another. Reproducibility and
//! zero-drift checks are plain asserts that stop the run at once: a rate
//! taken over a run that does not repeat means nothing. Two exact
//! contracts live in tier-1 tests instead: the scorer's agreement with
//! its naive reference (`tests/scorer_reference.rs`) and worldgen's bit
//! identity at 1/2/8 workers (`tests/worldgen_identity.rs`).
//!
//! The pool is left at its default, one worker per available core
//! (`available_parallelism`); the scaling and worldgen sweeps resize it
//! themselves. Engine rates are best-of-n over the fifth-scale bench
//! world. Worldgen timings and memory readings are on the paper's full
//! population, the latter from the counting allocator below.

use fediscope_core::time::SimDuration;
use fediscope_dynamics::scenarios::{
    AdoptionModel, BlocklistImportScenario, CascadeConfig, ChurnConfig, ChurnScenario, Composite,
    DefederationCascadeScenario, ImportConfig, InactionScenario, PolicyRolloutScenario,
    ReliabilityScenario, RolloutConfig, StormConfig, ToxicityStormScenario,
};
use fediscope_dynamics::{
    Arm, DynamicsConfig, DynamicsEngine, DynamicsTrace, EngineBuilder, EventSink, Experiment,
    ExperimentResult, LiveNetBridge, NetworkState, Scenario, SharedColumns,
};
use fediscope_perspective::{reference, Scorer};
use fediscope_simnet::SimNet;
use fediscope_synthgen::{Parallelism, ScenarioSeeds, SeedKnobs, World, WorldConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Byte-counting allocator: the live heap and its high-water mark,
/// resettable between measured sections. Live heap, not cumulative
/// volume, is what the memory gates bound: the streamed and materialised
/// seed paths allocate nearly the same total, and interning shrinks what
/// is resident, not what was ever allocated.
mod meter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);
    static COUNTING: AtomicBool = AtomicBool::new(true);

    /// Counts through to [`System`].
    pub struct Meter;

    // SAFETY: every call forwards unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the counters only observe sizes.
    unsafe impl GlobalAlloc for Meter {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: the caller's `layout` obligations pass through.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
                let size = layout.size() as u64;
                let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
            p
        }
        unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
            // SAFETY: `p` came from `alloc` above, i.e. from `System`,
            // with this `layout`.
            unsafe { System.dealloc(p, layout) };
            if COUNTING.load(Ordering::Relaxed) {
                LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Runs `f` uncounted. Every thread's allocations hit the same two
    /// counters, which serializes an allocation-heavy parallel section:
    /// on a 2-vCPU host, paper-scale worldgen read 0.8x at 2 workers
    /// over 1 metered and 1.2–1.7x unmetered. `f` must free whatever it allocates, or the
    /// live count drifts. Relaxed suffices: the pool's workers are
    /// spawned and joined inside `f`, which orders both stores around
    /// their loads.
    pub fn paused<T>(f: impl FnOnce() -> T) -> T {
        COUNTING.store(false, Ordering::Relaxed);
        let out = f();
        COUNTING.store(true, Ordering::Relaxed);
        out
    }

    /// Currently live heap bytes.
    pub fn live_bytes() -> u64 {
        LIVE.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live size.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Live-heap high-water mark since the last [`reset_peak`].
    pub fn peak_bytes() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static METER: meter::Meter = meter::Meter;

/// Live-heap budget, on the paper's full population, for streamed seed
/// extraction (measured ≈ 9 MiB; corpus materialisation peaks well
/// past it) and, separately, for the engine state built from those seeds
/// (measured ≈ 11 MiB).
const HEAP_BUDGET: u64 = 256 << 20;

/// Wall-clock budget for building the full-scale engine state
/// (interning pool, column assembly, per-instance state).
const CONSTRUCTION_BUDGET_SECS: f64 = 1.0;

/// Every gate's verdict, collected so one run reports all misses.
#[derive(Default)]
struct Gates {
    missed: Vec<String>,
}

impl Gates {
    /// Records one gate; `reading` states the measurement and its bar.
    fn check(&mut self, name: &str, met: bool, reading: String) {
        let verdict = if met { "met" } else { "MISSED" };
        println!("[gates] {name}: {reading} — {verdict}");
        if !met {
            self.missed.push(format!("{name} ({reading})"));
        }
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("[gates] {cores} core(s) available");
    let mut gates = Gates::default();
    scorer(&mut gates);
    // The engine's rates come before the full-scale worlds, whose freed
    // pages would otherwise sit under every flood's allocations.
    let seeds = Arc::new(ScenarioSeeds::from_world(&World::generate(bench_config())));
    dynamics(&mut gates, &seeds);
    scaling(&mut gates, cores, &seeds);
    drop(seeds);
    worldgen(&mut gates, cores);
    assert!(
        gates.missed.is_empty(),
        "{} gate(s) missed: {}",
        gates.missed.len(),
        gates.missed.join("; ")
    );
}

fn set_pool(threads: usize) {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global();
}

/// Best-of-`n` wall-clock rate for `f`, where `f` reports units done.
fn best_rate(n: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = 0.0_f64;
    for _ in 0..n {
        let start = Instant::now();
        let units = f();
        best = best.max(units as f64 / start.elapsed().as_secs_f64());
    }
    best
}

// ---------------------------------------------------------------- scorer

/// The unified-table `Scorer::analyze` must beat the frozen
/// `reference::analyze_naive` by ≥ 5× on the mixed corpus.
fn scorer(gates: &mut Gates) {
    let scorer = Scorer::new();
    let corpus = reference::mixed_corpus();
    let naive = best_rate(8, || {
        for text in &corpus {
            black_box(reference::analyze_naive(&scorer, text));
        }
        corpus.len() as u64
    });
    let unified = best_rate(8, || {
        for text in &corpus {
            black_box(scorer.analyze(text));
        }
        corpus.len() as u64
    });
    let speedup = unified / naive;
    gates.check(
        "scorer",
        speedup >= 5.0,
        format!(
            "unified {:.2} M posts/s vs naive {:.2} M, {speedup:.2}x (bar >= 5x)",
            unified / 1e6,
            naive / 1e6
        ),
    );
}

// -------------------------------------------------------------- worldgen

/// The fifth-scale world the engine's rate gates run on.
fn bench_config() -> WorldConfig {
    WorldConfig {
        seed: 1534,
        scale: 0.2,
        post_scale: 0.004,
        generate_text: true,
        parallelism: Parallelism::AUTO,
    }
}

/// Best-of-3 seconds for one generation of `config` at `threads` workers,
/// with the meter paused and each world's drop off the clock.
fn worldgen_secs(config: &WorldConfig, threads: usize) -> f64 {
    set_pool(threads);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let secs = meter::paused(|| {
            let start = Instant::now();
            let world = black_box(World::generate(config.clone()));
            let secs = start.elapsed().as_secs_f64();
            drop(world);
            secs
        });
        best = best.min(secs);
    }
    best
}

/// Sharded worldgen against one worker; the full-scale seed paths'
/// live-heap peaks; and the full-scale engine state's memory and
/// construction time, built from the streamed seeds. All on the paper's
/// full population: at fifth scale both heap peaks drown in the
/// baseline, and a generation takes ~25 ms, too short for one worker
/// more to show through the noise.
fn worldgen(gates: &mut Gates, cores: usize) {
    let config = WorldConfig::paper();
    let sequential = worldgen_secs(&config, 1);

    // At 1 worker. Streaming holds one `WORLDGEN_CHUNK` plus the columns
    // and composes only the posts the templates keep;
    // materialise-then-extract holds the whole corpus at once. Both
    // peaks count from the same baseline: the streamed seeds stay live
    // for the agreement check, so their bytes are taken off the
    // materialised peak.
    let baseline = meter::live_bytes();
    meter::reset_peak();
    let seeds = ScenarioSeeds::from_config_streamed(&config, &SeedKnobs::default());
    let streamed = meter::peak_bytes();
    let held = meter::live_bytes().saturating_sub(baseline);
    meter::reset_peak();
    let materialised_seeds = ScenarioSeeds::from_world(&World::generate(config.clone()));
    let materialised = meter::peak_bytes().saturating_sub(held);
    assert_eq!(
        materialised_seeds.first_difference(&seeds),
        None,
        "the two seed paths must agree on every column"
    );
    drop(materialised_seeds);
    gates.check(
        "seed_memory_ratio",
        (streamed as f64) < 0.7 * materialised as f64,
        format!(
            "streamed {} MiB vs materialised {} MiB, {:.2}x (bar < 0.7x)",
            streamed >> 20,
            materialised >> 20,
            streamed as f64 / materialised as f64
        ),
    );
    gates.check(
        "fullscale_seeds",
        streamed < HEAP_BUDGET,
        format!(
            "{} instances / {} links, live-heap peak {} MiB (bar < {} MiB)",
            seeds.len(),
            seeds.links.len(),
            streamed >> 20,
            HEAP_BUDGET >> 20
        ),
    );

    set_pool(cores);
    engine_memory(gates, &seeds);
    drop(seeds);

    let sharded = worldgen_secs(&config, cores);
    let reading = format!(
        "paper scale, sequential {sequential:.3}s, sharded {sharded:.3}s on {cores} workers ({:.2}x)",
        sequential / sharded
    );
    if cores >= 2 {
        gates.check("worldgen_sharding", sharded < sequential, reading);
    } else {
        println!("[gates] worldgen_sharding: {reading} — skipped (< 2 cores)");
    }
}

/// The 1.0-scale `NetworkState`, built through the interning pool, must
/// hold < 256 MiB of live heap (columns included) and build in < 1 s.
fn engine_memory(gates: &mut Gates, seeds: &ScenarioSeeds) {
    let live_before = meter::live_bytes();
    let start = Instant::now();
    let columns = SharedColumns::build(seeds);
    let state = NetworkState::from_seeds_shared(seeds, &columns);
    let secs = start.elapsed().as_secs_f64();
    let live = meter::live_bytes().saturating_sub(live_before);
    let lookups = (columns.intern_hits() + columns.intern_misses()).max(1);
    gates.check(
        "engine_memory",
        live < HEAP_BUDGET,
        format!(
            "{} instances, state live {} MiB (bar < {} MiB), intern hits {:.1}% over {} distinct pipelines",
            state.instances.len(),
            live >> 20,
            HEAP_BUDGET >> 20,
            columns.intern_hits() as f64 / lookups as f64 * 100.0,
            columns.intern_distinct()
        ),
    );
    gates.check(
        "engine_construction",
        secs < CONSTRUCTION_BUDGET_SECS,
        format!("{secs:.3}s (bar < {CONSTRUCTION_BUDGET_SECS}s)"),
    );
}

// -------------------------------------------------------------- dynamics

fn engine_config(seeds: &ScenarioSeeds, ticks: u64) -> DynamicsConfig {
    DynamicsConfig {
        seed: seeds.seed,
        ticks,
        ..DynamicsConfig::default()
    }
}

/// Attaches a live-net bridge (the round-trip configuration): every event
/// the run applies is mirrored onto a `SimNet`. No servers: failure
/// injection alone is the hot bridge path a census exercises.
fn bridge(engine: &mut DynamicsEngine) {
    let net = Arc::new(SimNet::new());
    let bridge = LiveNetBridge::new(net, engine.state());
    engine.attach_sink(Box::new(bridge));
}

/// Burst from tick 1 to the end: nearly the whole run is storm.
fn saturation_storm() -> ToxicityStormScenario {
    ToxicityStormScenario::new(StormConfig {
        start_offset: SimDuration::hours(4),
        duration: SimDuration::days(30),
        multiplier: 12.0,
    })
}

/// A 10-tick bridged run of `scenario`.
fn bridged_run(seeds: &ScenarioSeeds, scenario: &mut dyn Scenario) -> DynamicsTrace {
    let mut engine = DynamicsEngine::new(engine_config(seeds, 10), seeds);
    bridge(&mut engine);
    engine.run(scenario)
}

fn run_storm(seeds: &ScenarioSeeds) -> DynamicsTrace {
    bridged_run(seeds, &mut saturation_storm())
}

/// Best-of-`n` bridged-storm rate over states built by `make_state`,
/// construction outside the clock, so the interned and share-nothing
/// states compare on the measurement phase alone.
fn storm_rate_over(n: usize, seeds: &ScenarioSeeds, make_state: impl Fn() -> NetworkState) -> f64 {
    let mut best = 0.0_f64;
    for _ in 0..n {
        let mut engine = DynamicsEngine::from_state(engine_config(seeds, 10), make_state());
        bridge(&mut engine);
        let start = Instant::now();
        let delivered = engine.run(&mut saturation_storm()).total_delivered();
        best = best.max(delivered as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// A pure control-phase flood: repeated transient outages and recoveries
/// at every healthy instance. Flood runs cap emissions to zero.
fn churn_flood() -> Box<dyn Scenario> {
    Box::new(ChurnScenario::new(ChurnConfig {
        transient_p: 0.95,
        rounds: 8,
        ..ChurnConfig::default()
    }))
}

/// The churn flood with the delivery-reliability layer armed: every
/// outage also opens per-sender retry chains on the calendar queue.
fn retry_flood() -> Box<dyn Scenario> {
    Box::new(
        Composite::new()
            .with(Box::new(ReliabilityScenario::default()))
            .with(churn_flood()),
    )
}

/// Every event a policy mutation through the O(delta) API: full-union
/// and §4.2 subsampled blocklist imports, a high-imitation cascade and a
/// staged rollout.
fn policy_flood() -> Box<dyn Scenario> {
    let import = |adoption| ImportConfig {
        chunk: 1,
        window: SimDuration::days(5),
        adoption,
        reset_to_default: false,
    };
    Box::new(
        Composite::new()
            .with(Box::new(BlocklistImportScenario::new(import(
                AdoptionModel::Full,
            ))))
            .with(Box::new(BlocklistImportScenario::new(import(
                AdoptionModel::HeavyTail { alpha: 3.0 },
            ))))
            .with(Box::new(DefederationCascadeScenario::new(CascadeConfig {
                imitation_p: 0.9,
                ..CascadeConfig::default()
            })))
            .with(Box::new(PolicyRolloutScenario::new(
                RolloutConfig::default(),
            ))),
    )
}

fn flood_engine(seeds: &ScenarioSeeds) -> DynamicsEngine {
    DynamicsEngine::new(
        DynamicsConfig {
            emission_cap: 0,
            ..engine_config(seeds, 40)
        },
        seeds,
    )
}

fn run_flood(seeds: &ScenarioSeeds, make: fn() -> Box<dyn Scenario>) -> DynamicsTrace {
    flood_engine(seeds).run(make().as_mut())
}

fn events(trace: &DynamicsTrace) -> u64 {
    trace.ticks.iter().map(|t| t.events).sum()
}

/// Best-of-`n` control-phase rate and the events per run. Engine
/// construction stays outside the clock: state setup is not the control
/// phase.
fn flood_rate(n: usize, seeds: &ScenarioSeeds, make: fn() -> Box<dyn Scenario>) -> (u64, f64) {
    let mut best = 0.0_f64;
    let mut per_run = 0;
    for _ in 0..n {
        let mut engine = flood_engine(seeds);
        let mut scenario = make();
        let start = Instant::now();
        let trace = engine.run(scenario.as_mut());
        let secs = start.elapsed().as_secs_f64();
        per_run = events(&trace);
        best = best.max(per_run as f64 / secs);
    }
    (per_run, best)
}

/// The experiment's arms: the saturation storm over an inaction
/// baseline, and the same storm racing a staged rollout. One definition
/// for the arms and their standalone zero-drift runs.
fn experiment_arm(name: &str) -> Box<dyn Scenario> {
    let other: Box<dyn Scenario> = match name {
        "no_rollout" => Box::new(InactionScenario),
        "rollout" => Box::new(PolicyRolloutScenario::new(RolloutConfig::default())),
        other => panic!("unknown experiment arm {other}"),
    };
    Box::new(
        Composite::new()
            .with(Box::new(saturation_storm()))
            .with(other),
    )
}

/// Two bridged arms stamped from one `EngineBuilder` over shared seeds.
fn experiment(seeds: &Arc<ScenarioSeeds>) -> Experiment {
    let sink = |state: &NetworkState| -> Box<dyn EventSink> {
        Box::new(LiveNetBridge::new(Arc::new(SimNet::new()), state))
    };
    Experiment::new(EngineBuilder::new(
        engine_config(seeds, 10),
        Arc::clone(seeds),
    ))
    .with_arm(Arm::new("no_rollout", || experiment_arm("no_rollout")).with_sink(sink))
    .with_arm(Arm::new("rollout", || experiment_arm("rollout")).with_sink(sink))
    .with_baseline("no_rollout")
}

fn experiment_delivered(result: &ExperimentResult) -> u64 {
    result.arms.iter().map(|a| a.trace.total_delivered()).sum()
}

fn dynamics(gates: &mut Gates, seeds: &Arc<ScenarioSeeds>) {
    let storm = run_storm(seeds);
    assert_eq!(
        storm.digest(),
        run_storm(seeds).digest(),
        "storm runs must be reproducible"
    );
    let delivered = storm.total_delivered();
    assert!(
        delivered > 100_000,
        "storm must saturate ({delivered} posts)"
    );

    // The composed round-trip workload: storm + §3 outages + rollout.
    let composite = || {
        let mut scenario = Composite::new()
            .with(Box::new(saturation_storm()))
            .with(Box::new(ChurnScenario::new(ChurnConfig::default())))
            .with(Box::new(PolicyRolloutScenario::new(
                RolloutConfig::default(),
            )));
        bridged_run(seeds, &mut scenario)
    };
    let composite_trace = composite();
    assert_eq!(
        composite_trace.digest(),
        composite().digest(),
        "composite runs must be reproducible"
    );
    let composite_delivered = composite_trace.total_delivered();
    assert!(
        composite_delivered > 100_000,
        "composite must saturate ({composite_delivered} posts)"
    );

    // Zero drift: each bridged arm bit-identical to its standalone
    // bridged run; attribution: the rollout arm prevents exposure.
    let experiment = experiment(seeds);
    let arms = experiment.run();
    assert_eq!(
        experiment_delivered(&arms),
        experiment_delivered(&experiment.run()),
        "experiment runs must be reproducible"
    );
    for arm in &arms.arms {
        let standalone = bridged_run(seeds, experiment_arm(&arm.name).as_mut());
        assert_eq!(
            arm.trace.digest(),
            standalone.digest(),
            "arm {} must be bit-identical to its standalone run (zero drift)",
            arm.name
        );
    }
    let delta = arms.delta("rollout").expect("rollout arm");
    assert!(
        delta.prevented_exposure() > 0 && delta.blocked_deliveries() > 0,
        "the paired delta must attribute prevention to the rollout arm"
    );
    let experiment_deliveries = experiment_delivered(&arms);
    assert!(
        experiment_deliveries > 200_000,
        "two storm arms must saturate ({experiment_deliveries} posts)"
    );

    let storm_rate = best_rate(5, || run_storm(seeds).total_delivered());
    let interned = storm_rate_over(5, seeds, || NetworkState::from_seeds(seeds));
    let share_nothing = storm_rate_over(5, seeds, || NetworkState::from_seeds_reference(seeds));
    let experiment_rate = best_rate(3, || experiment_delivered(&experiment.run()));

    assert_eq!(
        run_flood(seeds, policy_flood).digest(),
        run_flood(seeds, policy_flood).digest(),
        "policy floods must be reproducible"
    );
    let (churn_events, churn_rate) = flood_rate(5, seeds, churn_flood);
    assert!(
        churn_events > 10_000,
        "the flood must exercise the queue ({churn_events} events)"
    );

    // Observe, never perturb: the armed trace equals the disarmed one,
    // then the armed rate is taken back to back with the disarmed one.
    let disarmed_digest = run_flood(seeds, churn_flood).digest();
    let telemetry = fediscope_telemetry::Telemetry::global();
    telemetry.reset();
    telemetry.arm();
    assert_eq!(
        run_flood(seeds, churn_flood).digest(),
        disarmed_digest,
        "arming telemetry must not perturb the flood trace"
    );
    assert!(
        telemetry.counter(fediscope_telemetry::HotCounter::EventsApplied) > 0,
        "the armed flood must record readings"
    );
    let (_, armed_rate) = flood_rate(5, seeds, churn_flood);
    telemetry.disarm();
    telemetry.reset();

    let policy = run_flood(seeds, policy_flood);
    assert!(
        policy.final_links() < policy.initial_links(),
        "the policy flood must sever federation links"
    );
    let (policy_events, policy_rate) = flood_rate(5, seeds, policy_flood);
    assert!(
        policy_events > 10_000,
        "the policy flood must exercise the delta API ({policy_events} events)"
    );

    let retry = run_flood(seeds, retry_flood);
    assert_eq!(
        retry.digest(),
        run_flood(seeds, retry_flood).digest(),
        "retry storms must be reproducible"
    );
    assert!(
        retry.total_recovered() > 0,
        "the retry storm must recover batches"
    );
    assert!(
        retry.total_dead_lettered() > 0,
        "the retry storm must dead-letter batches"
    );
    let (retry_events, retry_rate) = flood_rate(5, seeds, retry_flood);
    assert!(
        retry_events > 10_000,
        "the retry storm must exercise the queue ({retry_events} events)"
    );

    let m = |rate: f64| rate / 1e6;
    gates.check(
        "storm",
        storm_rate >= 8.0e6,
        format!(
            "{delivered} bridged deliveries/run, {:.2} M posts/s (bar >= 8 M)",
            m(storm_rate)
        ),
    );
    gates.check(
        "churn_flood",
        churn_rate >= 2.0e6,
        format!(
            "{churn_events} events/run, {:.2} M events/s (bar >= 2 M)",
            m(churn_rate)
        ),
    );
    gates.check(
        "policy_flood",
        policy_rate >= 2.0e6,
        format!(
            "{policy_events} events/run, {:.2} M events/s (bar >= 2 M)",
            m(policy_rate)
        ),
    );
    gates.check(
        "retry_storm",
        retry_rate >= 2.5e6,
        format!(
            "{retry_events} events/run, {:.2} M events/s (bar >= 2.5 M)",
            m(retry_rate)
        ),
    );
    gates.check(
        "experiment",
        experiment_rate >= 7.0e6,
        format!(
            "{experiment_deliveries} deliveries/run over 2 bridged arms, {:.2} M posts/s (bar >= 7 M)",
            m(experiment_rate)
        ),
    );
    gates.check(
        "telemetry_overhead",
        armed_rate >= 0.95 * churn_rate,
        format!(
            "armed {:.2} M vs disarmed {:.2} M events/s (bar: overhead <= 5%)",
            m(armed_rate),
            m(churn_rate)
        ),
    );
    gates.check(
        "interned_storm",
        interned >= 0.95 * share_nothing,
        format!(
            "interned {:.2} M vs share-nothing {:.2} M posts/s, {:.1}% (bar >= 95%)",
            m(interned),
            m(share_nothing),
            interned / share_nothing * 100.0
        ),
    );
}

/// The bridged storm must run ≥ 1.6× faster at 4 workers than at one.
/// A host with < 2 cores skips the sweep: a 4-thread pool on one core
/// measures the scheduler, not the engine.
fn scaling(gates: &mut Gates, cores: usize, seeds: &ScenarioSeeds) {
    if cores < 2 {
        println!("[gates] scaling: skipped (< 2 cores)");
        return;
    }
    let rates: Vec<f64> = [1, 2, 4]
        .into_iter()
        .map(|workers| {
            set_pool(workers);
            best_rate(3, || run_storm(seeds).total_delivered())
        })
        .collect();
    gates.check(
        "scaling",
        rates[2] >= 1.6 * rates[0],
        format!(
            "{:.2} / {:.2} / {:.2} M posts/s at 1 / 2 / 4 workers, {:.2}x (bar >= 1.6x)",
            rates[0] / 1e6,
            rates[1] / 1e6,
            rates[2] / 1e6,
            rates[2] / rates[0]
        ),
    );
}
