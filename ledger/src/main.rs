//! The fediscope benchmark: paper-scale workloads, timed end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload campaign|storm|policy_flood [--seed 1534] [--seconds 10] [--trace 0|1]
//!     [--calibrate N]
//! ```
//!
//! A closed loop: one process runs one workload iteration at a time,
//! over and over, until `--seconds` have passed (at least twice, so the
//! output digest is seen to repeat). With `--trace 0` it prints the
//! end-to-end metrics, each the median over the iterations. With
//! `--trace 1` it alternates untraced and traced iterations and prints
//! the per-layer metrics; the traced iterations arm the telemetry
//! registry and record spans, which are written to `ledger/out/`. The
//! last line of standard output is the JSON result; see `README.md` for
//! the metric map. `--calibrate N` instead prints the load the workload's
//! world is chosen by over world seeds 1–N (see [`input`]).

mod campaign;
mod engine;
mod input;
mod meter;
mod spans;

use fediscope_synthgen::{Parallelism, WorldConfig};
use fediscope_telemetry::{HotCounter, Phase, RunReport, Telemetry};
use serde_json::{json, Map, Value};
use spans::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static METER: meter::Meter = meter::Meter;

const USAGE: &str = "usage: ledger --workload campaign|storm|policy_flood [--seed N] \
[--seconds S] [--trace 0|1] [--calibrate N]";

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 3] = ["campaign", "storm", "policy_flood"];

/// Every workload runs at paper scale: the 9,969 instances of §3.
const SCALE: f64 = 1.0;

/// Ticks an engine workload runs: 20 simulated days at the 4-hour
/// snapshot cadence.
const TICKS: u64 = 120;

/// Least fraction of `wall_s` the layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Crates whose non-blank Rust lines are reported (`loc.<name>`); the
/// root package (`src`, `tests`, `examples`) reports as `loc.root`.
const CRATES: [&str; 11] = [
    "activitypub",
    "analysis",
    "bench",
    "core",
    "crawler",
    "dynamics",
    "perspective",
    "server",
    "simnet",
    "synthgen",
    "telemetry",
];

/// What one workload iteration hands back besides its spans.
pub struct Outcome {
    /// Digest of the iteration's output (dataset JSON or trace).
    pub digest: u64,
    /// Seconds from the first layer call until the main loop can start.
    pub setup_s: f64,
    /// Live-heap high-water mark of the layer calls, in MiB, read before
    /// the output checks run.
    pub peak_heap_mib: f64,
    /// Work of the main loop per second inside it: crawl requests
    /// (`campaign`), deliveries (`storm`) or control events
    /// (`policy_flood`).
    pub loop_rate: f64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Per-layer readings taken from the benchmark's side of each call.
    pub layers: Vec<(&'static str, f64)>,
}

/// One measured iteration.
struct Iteration {
    outcome: Outcome,
    wall_s: f64,
    unattributed_s: f64,
    report: Option<RunReport>,
    spans: Value,
}

struct Args {
    workload: String,
    seed: u64,
    /// The seed of the world the workload runs on (see [`input`]).
    world_seed: u64,
    seconds: f64,
    trace: bool,
    /// `--calibrate N`: print world loads over world seeds 1–N instead.
    calibrate: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1534,
        world_seed: 1534,
        seconds: 10.0,
        trace: false,
        calibrate: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--calibrate" => args.calibrate = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    args.world_seed = args.seed;
    Ok(args)
}

/// Cores this process may run on; the rayon pool has one worker each.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The `q`-quantile of sorted `xs` by linear interpolation (0 if empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile(&xs, 0.5)
}

/// The paper-scale world configuration at the run's scale and seed.
fn world_config(args: &Args) -> WorldConfig {
    WorldConfig {
        seed: args.world_seed,
        scale: SCALE,
        post_scale: WorldConfig::paper().post_scale,
        generate_text: true,
        parallelism: Parallelism(nproc()),
    }
}

/// Runs one iteration of the workload. A traced iteration records spans
/// and snapshots the armed telemetry registry; a panic is returned as
/// `Err` and counts as one failed operation.
fn iterate(args: &Args, traced: bool, first: bool) -> Result<Iteration, String> {
    let config = world_config(args);
    let telemetry = Telemetry::global();
    if traced {
        telemetry.reset();
        telemetry.arm();
    }
    meter::reset_peak();
    let mut tr = Tracer::new(traced);
    let outcome = catch_unwind(AssertUnwindSafe(|| match args.workload.as_str() {
        "campaign" => campaign::run(config, &mut tr, first),
        "storm" => engine::run(engine::Kind::Storm, config, TICKS, &mut tr, traced),
        _ => engine::run(engine::Kind::PolicyFlood, config, TICKS, &mut tr, traced),
    }));
    let report = traced.then(|| telemetry.report(&args.workload));
    if traced {
        telemetry.disarm();
        telemetry.reset();
    }
    let outcome = outcome.map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })?;
    Ok(Iteration {
        outcome,
        wall_s: tr.wall(),
        unattributed_s: tr.unattributed(),
        report,
        spans: tr.to_json(),
    })
}

/// Iterations of one run, with the failed-operation ledger.
struct Runs {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    untraced: Vec<Iteration>,
    traced: Vec<Iteration>,
}

impl Runs {
    /// Runs one iteration and books it: a panic, a failed output check
    /// or a digest differing from the run's first one fails it.
    fn push(&mut self, args: &Args, traced: bool) {
        self.attempted += 1;
        let kind = if traced { "traced" } else { "untraced" };
        let it = match iterate(args, traced, self.attempted == 1) {
            Ok(it) => it,
            Err(panic) => {
                eprintln!(
                    "[ledger] {kind} iteration {} panicked: {panic}",
                    self.attempted
                );
                self.failed += 1;
                return;
            }
        };
        let mut failures = it.outcome.failures.clone();
        let reference = *self.digest.get_or_insert(it.outcome.digest);
        if it.outcome.digest != reference {
            failures.push(format!(
                "{kind} digest {:016x} differs from the run's first {reference:016x}",
                it.outcome.digest
            ));
        }
        if traced && it.wall_s > 0.0 && 1.0 - it.unattributed_s / it.wall_s < MIN_COVERAGE {
            failures.push(format!(
                "layer spans cover {:.1}% of wall_s, below {:.0}%",
                100.0 * (1.0 - it.unattributed_s / it.wall_s),
                100.0 * MIN_COVERAGE
            ));
        }
        eprintln!(
            "[ledger] {kind} iteration {}: wall {:.3}s setup {:.3}s digest {:016x}",
            self.attempted, it.wall_s, it.outcome.setup_s, it.outcome.digest
        );
        if failures.is_empty() {
            if traced {
                self.traced.push(it);
            } else {
                self.untraced.push(it);
            }
        } else {
            for f in &failures {
                eprintln!("[ledger] check failed: {f}");
            }
            self.failed += 1;
        }
    }
}

/// Non-blank lines of every `.rs` file under `dir`.
fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                rust_lines(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&path).map_or(0, |s| {
                    s.lines().filter(|l| !l.trim().is_empty()).count() as u64
                })
            } else {
                0
            }
        })
        .sum()
}

/// The commit the source tree was checked out at, when it is a git
/// work tree; `unknown` otherwise.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn metric(metrics: &mut Map, name: &str, value: f64, unit: &str) {
    metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_mib") {
        "MiB"
    } else if name.ends_with("_share") {
        "share"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.starts_with("loc.") {
        "lines"
    } else {
        "count"
    }
}

/// End-to-end metrics: medians over the untraced iterations.
fn end_to_end(args: &Args, runs: &Runs, metrics: &mut Map) {
    let med = |f: fn(&Iteration) -> f64| median(runs.untraced.iter().map(f).collect());
    let loop_rate = med(|i| i.outcome.loop_rate);
    metric(metrics, "wall_s", med(|i| i.wall_s), "s");
    metric(metrics, "setup_s", med(|i| i.outcome.setup_s), "s");
    metric(
        metrics,
        "peak_heap_mib",
        med(|i| i.outcome.peak_heap_mib),
        "MiB",
    );
    metric(metrics, "loop_rate", loop_rate, "1/s");
    let loop_name = match args.workload.as_str() {
        "campaign" => "requests_per_s",
        "storm" => "deliveries_per_s",
        _ => "events_per_s",
    };
    for (name, m) in metrics.iter() {
        println!(
            "{name} = {} {}",
            m["value"],
            m["unit"].as_str().unwrap_or("")
        );
    }
    println!("{loop_name} = {loop_rate} 1/s (reported as loop_rate)");
    println!(
        "failed_share = {} share ({} of {} operations)",
        runs.failed as f64 / runs.attempted as f64,
        runs.failed,
        runs.attempted
    );
}

/// Per-layer metrics: medians over the traced iterations, with the
/// registry's phase split and hot counters, the telemetry overhead
/// against the untraced iterations, and line counts per crate.
fn per_layer(runs: &Runs, metrics: &mut Map) {
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for it in &runs.traced {
        let report = it
            .report
            .as_ref()
            .expect("traced iterations carry a report");
        let phase = |p: Phase| report.phase(p).map_or(0.0, |s| s.total_nanos as f64 / 1e9);
        let counter = |c: HotCounter| report.counter(c) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let calls = counter(HotCounter::ScorerCalls);
        let memo = counter(HotCounter::ScorerMemoHits);
        let rejects = counter(HotCounter::FilterFastRejects);
        let verdicts = counter(HotCounter::FilterFastHits) + rejects;
        let mut row = it.outcome.layers.clone();
        row.extend([
            ("perspective.scorer_calls", calls),
            ("perspective.memo_hit_share", ratio(memo, memo + calls)),
            ("mrf.verdicts", verdicts),
            ("mrf.reject_share", ratio(rejects, verdicts)),
            (
                "telemetry.events_applied",
                counter(HotCounter::EventsApplied),
            ),
            ("dynamics.control_s", phase(Phase::Control)),
            ("dynamics.retry_drain_s", phase(Phase::RetryDrain)),
            ("dynamics.measurement_s", phase(Phase::Measurement)),
            ("dynamics.tick_close_s", phase(Phase::TickClose)),
            ("trace.wall_s", it.wall_s),
            ("trace.unattributed_s", it.unattributed_s),
            (
                "trace.coverage_share",
                1.0 - ratio(it.unattributed_s, it.wall_s),
            ),
            ("trace.peak_heap_mib", it.outcome.peak_heap_mib),
        ]);
        rows.push(row);
    }
    for name in PER_LAYER {
        let values: Vec<f64> = rows
            .iter()
            .map(|row| row.iter().find(|(n, _)| n == name).map_or(0.0, |r| r.1))
            .collect();
        metric(metrics, name, median(values), layer_unit(name));
    }
    let traced_wall = median(runs.traced.iter().map(|i| i.wall_s).collect());
    let untraced_wall = median(runs.untraced.iter().map(|i| i.wall_s).collect());
    metric(
        metrics,
        "telemetry.overhead_share",
        if untraced_wall > 0.0 {
            traced_wall / untraced_wall - 1.0
        } else {
            0.0
        },
        "share",
    );
    for krate in CRATES {
        let lines = rust_lines(&Path::new("crates").join(krate));
        metric(metrics, &format!("loc.{krate}"), lines as f64, "lines");
    }
    let root: u64 = ["src", "tests", "examples"]
        .iter()
        .map(|d| rust_lines(Path::new(d)))
        .sum();
    metric(metrics, "loc.root", root as f64, "lines");
}

/// Per-layer readings every workload reports (0 where a layer is idle).
const PER_LAYER: &[&str] = &[
    "synthgen.world_s",
    "synthgen.seeds_s",
    "server.materialize_s",
    "server.teardown_s",
    "crawler.crawl_s",
    "crawler.requests_per_s",
    "perspective.annotate_s",
    "analysis.tables_s",
    "analysis.render_s",
    "persist.save_s",
    "persist.load_s",
    "persist.trace_json_s",
    "dynamics.columns_s",
    "dynamics.state_s",
    "dynamics.bridge_s",
    "dynamics.begin_s",
    "dynamics.steps_s",
    "dynamics.tick_p50_ms",
    "dynamics.tick_p90_ms",
    "dynamics.control_s",
    "dynamics.retry_drain_s",
    "dynamics.measurement_s",
    "dynamics.tick_close_s",
    "trace.wall_s",
    "trace.unattributed_s",
    "trace.coverage_share",
    "trace.peak_heap_mib",
    "synthgen.posts",
    "server.posts_installed",
    "crawler.requests",
    "crawler.injected_failures",
    "crawler.net_errors",
    "crawler.instances",
    "crawler.collected_posts",
    "perspective.posts_scored",
    "perspective.scorer_calls",
    "perspective.memo_hit_share",
    "persist.bytes",
    "persist.trace_bytes",
    "dynamics.intern_hit_share",
    "dynamics.intern_distinct",
    "dynamics.deliveries",
    "dynamics.events",
    "dynamics.retry_events",
    "dynamics.recovered",
    "dynamics.dead_lettered",
    "teardown.drop_s",
    "mrf.verdicts",
    "mrf.reject_share",
    "mrf.delta_events",
    "telemetry.events_applied",
];

/// Writes the last traced iteration's spans and registry snapshot.
fn write_spans(args: &Args, choice: &input::Choice, runs: &Runs) {
    let Some(last) = runs.traced.last() else {
        return;
    };
    let body = json!({
        "workload": args.workload,
        "seed": args.seed,
        "world_seed": args.world_seed,
        "world_candidates": choice.candidates,
        "scale": SCALE,
        "workers": nproc(),
        "commit": commit(),
        "digest": format!("{:016x}", last.outcome.digest),
        "wall_s": last.wall_s,
        "unattributed_s": last.unattributed_s,
        "spans": last.spans,
        "telemetry": serde_json::to_value(last.report.as_ref()).unwrap_or(Value::Null),
    });
    let dir = Path::new("ledger").join("out");
    let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&body).unwrap_or_default() + "\n",
        )
    });
    match written {
        Ok(()) => eprintln!("[ledger] spans written to {}", path.display()),
        Err(e) => eprintln!("[ledger] could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc())
        .build_global()
    {
        eprintln!("could not size the worker pool: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(n) = args.calibrate {
        return match input::calibrate(&args.workload, world_config(&args), n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let choice = match input::choose(&args.workload, world_config(&args)) {
        Ok(choice) => choice,
        Err(e) => {
            // No world to run on: one failed operation, nothing measured.
            eprintln!("[ledger] {e}");
            println!(
                "{}",
                json!({"correct": false, "attempted": 1, "failed": 1, "metrics": {}})
            );
            return ExitCode::SUCCESS;
        }
    };
    args.world_seed = choice.seed;
    println!(
        "workload {} seed {} world seed {} (candidate {}, load {:.1}% from the median) \
         scale {SCALE} ticks {TICKS} workers {} commit {}",
        args.workload,
        args.seed,
        args.world_seed,
        choice.candidates,
        100.0 * choice.distance,
        nproc(),
        commit()
    );
    let start = Instant::now();
    let mut runs = Runs {
        attempted: 0,
        failed: 0,
        digest: None,
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    // Closed loop: at least two iterations (one untraced + one traced
    // pair with --trace 1), then more while the next one is expected to
    // end closer to the deadline than not.
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let per_iteration = elapsed / runs.attempted.max(1) as f64;
        if runs.attempted >= 2 && elapsed + per_iteration / 2.0 > args.seconds {
            break;
        }
        runs.push(&args, false);
        if args.trace {
            runs.push(&args, true);
        }
    }
    let mut metrics = Map::new();
    let have = if args.trace {
        !runs.traced.is_empty() && !runs.untraced.is_empty()
    } else {
        !runs.untraced.is_empty()
    };
    if have {
        if args.trace {
            per_layer(&runs, &mut metrics);
            write_spans(&args, &choice, &runs);
        } else {
            end_to_end(&args, &runs, &mut metrics);
        }
    }
    if let Some(d) = runs.digest {
        println!("digest {d:016x}");
    }
    println!(
        "{}",
        json!({
            "correct": runs.failed == 0 && have,
            "attempted": runs.attempted,
            "failed": runs.failed,
            "metrics": Value::Object(metrics),
        })
    );
    ExitCode::SUCCESS
}
