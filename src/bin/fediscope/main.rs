//! The `fediscope` command-line tool: generate a calibrated world, run a
//! measurement campaign, save/load datasets, and print any of the paper's
//! analyses.
//!
//! ```text
//! fediscope crawl --scale 0.35 --out dataset.json   # campaign → dataset
//! fediscope report dataset.json census              # §3 census
//! fediscope report dataset.json headline            # §4/§5 headline stats
//! fediscope report dataset.json table2              # Table 2 sweep
//! fediscope report dataset.json fig1                # policy prevalence
//! fediscope report dataset.json fig4                # rejected instances' scores
//! fediscope report dataset.json curate              # §7 curated lists
//! fediscope report dataset.json ablation            # §7 strategy ablation
//! fediscope dynamics rollout --scale 0.1 --ticks 30 # staged MRF rollout
//! fediscope dynamics cascade                        # defederation cascade
//! fediscope dynamics churn                          # §3 failure churn
//! fediscope dynamics storm                          # toxicity-storm burst
//! fediscope dynamics composite                      # storm+churn+rollout in one timeline
//! fediscope dynamics retry                          # churn with delivery retries armed
//! fediscope dynamics import-full                    # every admin imports the union blocklist
//! fediscope dynamics census --census-every 6        # live census under churn (round-trip)
//! fediscope experiment --arms inaction,rollout,import-partial --baseline inaction
//!                                                   # paired-arm counterfactual with per-tick deltas
//! fediscope experiment --arms inaction,storm        # any registered scenario is an arm
//! ```
//!
//! Scenario names come from `fediscope_dynamics::scenarios::registry()`
//! and report sections from `report::SECTIONS`; `fediscope` with no
//! arguments lists both.

mod report;

use fediscope::dynamics::exposure_score;
use fediscope::dynamics::scenarios::{lookup, registry};
use fediscope::harness;
use fediscope::prelude::*;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("fediscope — measure content moderation in a (synthetic) fediverse");
    eprintln!();
    eprintln!("USAGE:");
    eprintln!(
        "  fediscope crawl [--scale S] [--post-scale P] [--seed N] [--peer-cap K] [--out FILE]"
    );
    let sections: Vec<&str> = report::SECTIONS.iter().map(|(name, _)| *name).collect();
    eprintln!("  fediscope report FILE <{}>", sections.join("|"));
    eprintln!("  fediscope shard --out DIR [--scale S] [--post-scale P] [--seed N] [--threads W]");
    eprintln!("  fediscope dynamics SCENARIO [--scale S] [--seed N] [--ticks T] [--threads W] [--from-shards DIR] [--out FILE] [--telemetry-out FILE]");
    eprintln!("  fediscope dynamics census [--scale S] [--seed N] [--ticks T] [--census-every C] [--threads W] [--out FILE] [--telemetry-out FILE]");
    eprintln!("  fediscope experiment [--arms A,B,..] [--baseline NAME] [--scale S] [--seed N] [--ticks T] [--threads W] [--from-shards DIR] [--out FILE] [--telemetry-out FILE]");
    eprintln!("      scenarios (dynamics SCENARIO, --arms):");
    for entry in registry() {
        eprintln!("        {:<18}{}", entry.name, entry.about);
    }
    eprintln!("      census runs composite against a live network, re-censused mid-run");
    eprintln!("      --scale and --post-scale must be finite and > 0; --ticks at least 1");
    eprintln!("      --from-shards DIR loads the world from a shard directory written by");
    eprintln!("      `fediscope shard` instead of regenerating it (the manifest's seed and");
    eprintln!("      scale win over --seed/--scale)");
    eprintln!("      --telemetry-out arms the observability registry (phase spans, hot");
    eprintln!("      counters, latency histograms) and writes the RunReport JSON there");
    ExitCode::from(2)
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `flag`'s value as a `T`: `Ok(None)` when the flag is absent, and a
/// usage error naming the flag when the value does not parse or fails
/// `valid`.
fn numeric_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    valid: fn(&T) -> bool,
) -> Result<Option<T>, ExitCode> {
    let Some(raw) = parse_flag(args, flag) else {
        return Ok(None);
    };
    match raw.parse() {
        Ok(value) if valid(&value) => Ok(Some(value)),
        _ => {
            eprintln!("invalid value for {flag}: {raw}");
            Err(usage())
        }
    }
}

fn any<T>(_: &T) -> bool {
    true
}

fn positive(v: &f64) -> bool {
    v.is_finite() && *v > 0.0
}

/// `--scale`, `--seed` and, where the command takes it, `--post-scale`
/// applied to `config`.
fn world_config(
    args: &[String],
    mut config: WorldConfig,
    post_scale: bool,
) -> Result<WorldConfig, ExitCode> {
    if let Some(s) = numeric_flag(args, "--scale", positive)? {
        config.scale = s;
    }
    if post_scale {
        if let Some(p) = numeric_flag(args, "--post-scale", positive)? {
            config.post_scale = p;
        }
    }
    if let Some(n) = numeric_flag(args, "--seed", any)? {
        config.seed = n;
    }
    Ok(config)
}

/// `--telemetry-out FILE`: arms the process-global telemetry registry
/// for the run (disarmed it costs nothing and records nothing) and
/// returns the path the `RunReport` JSON goes to afterwards.
fn arm_telemetry(args: &[String]) -> Option<String> {
    let out = parse_flag(args, "--telemetry-out")?;
    let telemetry = fediscope_telemetry::Telemetry::global();
    telemetry.reset();
    telemetry.arm();
    Some(out)
}

/// Snapshots the registry into a [`fediscope_telemetry::RunReport`],
/// prints the human tables, and writes the JSON to `out`.
fn write_telemetry(out: &str, label: &str) -> bool {
    let report = fediscope_telemetry::Telemetry::global().report(label);
    println!("{}", fediscope::analysis::render_telemetry(&report));
    match std::fs::write(out, report.to_json() + "\n") {
        Ok(()) => {
            eprintln!("telemetry written to {out}");
            true
        }
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            false
        }
    }
}

/// Shared `--scale/--seed/--threads/--ticks` handling for the
/// dynamics-layer subcommands (`dynamics` and `experiment`). The full
/// 10 K-instance population is overkill for a trace you read in a
/// terminal; default to a tenth and let `--scale` override. One pool
/// sizes every parallel stage — sharded world generation, the engine's
/// measurement fan-out, and experiment arms (all bit-identical at any
/// worker count).
fn world_flags(args: &[String]) -> Result<(WorldConfig, u64), ExitCode> {
    let tenth = WorldConfig {
        scale: 0.1,
        ..WorldConfig::paper()
    };
    let mut config = world_config(args, tenth, false)?;
    if let Some(w) = numeric_flag(args, "--threads", any)? {
        config.parallelism = fediscope::synthgen::Parallelism(w);
        if let Err(e) = rayon::ThreadPoolBuilder::new()
            .num_threads(w)
            .build_global()
        {
            eprintln!("warning: --threads not applied — {e}");
        }
    }
    let ticks = numeric_flag(args, "--ticks", |t: &u64| *t >= 1)?.unwrap_or(36);
    Ok((config, ticks))
}

/// Builds the scenario seed extract either from a shard directory
/// (`--from-shards DIR`, written by `fediscope shard`) or by generating
/// the world in-process. Neither materialises the corpus — records
/// stream one at a time — and a shard load ignores `--scale/--seed`:
/// the shard manifest is authoritative for both.
fn load_seeds(args: &[String], config: WorldConfig) -> Result<ScenarioSeeds, ExitCode> {
    let knobs = fediscope::synthgen::SeedKnobs::default();
    if let Some(dir) = parse_flag(args, "--from-shards") {
        eprintln!("loading world from shards at {dir} ...");
        ScenarioSeeds::from_shards(std::path::Path::new(&dir), &knobs).map_err(|e| {
            eprintln!("cannot load shards from {dir}: {e}");
            ExitCode::FAILURE
        })
    } else {
        eprintln!(
            "generating world (seed {}, scale {}) ...",
            config.seed, config.scale
        );
        Ok(ScenarioSeeds::from_config_streamed(&config, &knobs))
    }
}

/// Writes a generated world straight to an NDJSON shard directory —
/// `world.ndjson` plus `manifest.json` — for later `--from-shards`
/// reloads. Generation streams chunk-by-chunk, so sharding a 1.0-scale
/// world never holds the full corpus in memory either.
fn shard(args: &[String]) -> ExitCode {
    let Some(out) = parse_flag(args, "--out") else {
        eprintln!("shard requires --out DIR");
        return usage();
    };
    let tenth = WorldConfig {
        scale: 0.1,
        ..WorldConfig::paper()
    };
    let mut config = match world_config(args, tenth, true) {
        Ok(config) => config,
        Err(code) => return code,
    };
    match numeric_flag(args, "--threads", any) {
        Ok(Some(w)) => config.parallelism = fediscope::synthgen::Parallelism(w),
        Ok(None) => {}
        Err(code) => return code,
    }
    eprintln!(
        "sharding world (seed {}, scale {}, post_scale {}) to {out} ...",
        config.seed, config.scale, config.post_scale
    );
    match fediscope::synthgen::write_shard_dir(&config, std::path::Path::new(&out)) {
        Ok(manifest) => {
            eprintln!("wrote {} instances to {out}", manifest.instances);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to shard world to {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("crawl") => crawl(&args[1..]),
        Some("report") => report(&args[1..]),
        Some("shard") => shard(&args[1..]),
        Some("dynamics") => dynamics(&args[1..]),
        Some("experiment") => experiment(&args[1..]),
        _ => usage(),
    }
}

/// The counterfactual harness: N paired arms over one shared world,
/// reported as per-tick prevented-exposure deltas against a designated
/// baseline arm.
fn experiment(args: &[String]) -> ExitCode {
    use fediscope::dynamics::{Arm, EngineBuilder, Experiment};
    use std::sync::Arc;

    let (config, ticks) = match world_flags(args) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let arm_names: Vec<String> = parse_flag(args, "--arms")
        .unwrap_or_else(|| "inaction,rollout,import-partial".to_string())
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let baseline = parse_flag(args, "--baseline")
        .unwrap_or_else(|| arm_names.first().cloned().unwrap_or_default());
    // Validate the whole arm list before paying for world generation:
    // unknown names, duplicates (Experiment::push would panic on them)
    // and the baseline designation all fail fast with usage.
    let mut arms = Vec::new();
    for (i, name) in arm_names.iter().enumerate() {
        if arm_names[..i].contains(name) {
            eprintln!("duplicate arm: {name}");
            return usage();
        }
        match lookup(name) {
            Some(entry) => arms.push(Arm::new(name.as_str(), entry.build)),
            None => {
                eprintln!("unknown arm: {name}");
                return usage();
            }
        }
    }
    if !arm_names.iter().any(|a| a == &baseline) {
        eprintln!(
            "--baseline {baseline} is not among --arms {}",
            arm_names.join(",")
        );
        return usage();
    }
    let telemetry_out = arm_telemetry(args);
    let seeds = match load_seeds(args, config) {
        Ok(seeds) => Arc::new(seeds),
        Err(code) => return code,
    };
    let engine_config = fediscope::dynamics::DynamicsConfig {
        seed: seeds.seed,
        ticks,
        ..Default::default()
    };
    let mut experiment = Experiment::new(EngineBuilder::new(engine_config, Arc::clone(&seeds)))
        .with_baseline(baseline.clone());
    for arm in arms {
        experiment.push(arm);
    }
    eprintln!(
        "running {} paired arms ({} baseline) over {} instances / {} links for {ticks} ticks ...",
        arm_names.len(),
        baseline,
        seeds.len(),
        seeds.links.len()
    );
    let result = experiment.run();
    println!(
        "{}",
        fediscope::analysis::dynamics::render_experiment(&result)
    );
    for delta in result.deltas() {
        println!(
            "{} vs {}: prevented exposure {:.1} ({} extra blocked deliveries, {:+} links at the final tick)",
            delta.arm,
            delta.baseline,
            exposure_score(delta.prevented_exposure()),
            delta.blocked_deliveries(),
            delta.final_links(),
        );
    }
    if let Some(path) = &telemetry_out {
        if !write_telemetry(path, &format!("experiment {}", arm_names.join(","))) {
            return ExitCode::FAILURE;
        }
    }
    if let Some(out) = parse_flag(args, "--out") {
        let body = serde_json::json!({
            "result": result,
            "deltas": result.deltas(),
        });
        match serde_json::to_string_pretty(&body) {
            Ok(body) => {
                if let Err(e) = std::fs::write(&out, body + "\n") {
                    eprintln!("failed to write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("experiment written to {out}");
            }
            Err(e) => {
                eprintln!("failed to serialize experiment: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn dynamics(args: &[String]) -> ExitCode {
    let Some(which) = args.first() else {
        return usage();
    };
    let (config, ticks) = match world_flags(args) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    if which == "census" {
        return census(args, config, ticks);
    }
    let Some(entry) = lookup(which) else {
        eprintln!("unknown scenario: {which}");
        return usage();
    };
    let mut scenario = (entry.build)();
    let telemetry_out = arm_telemetry(args);
    let seeds = match load_seeds(args, config) {
        Ok(seeds) => seeds,
        Err(code) => return code,
    };
    let engine_config = fediscope::dynamics::DynamicsConfig {
        seed: seeds.seed,
        ticks,
        ..Default::default()
    };
    let mut engine = fediscope::dynamics::DynamicsEngine::new(engine_config, &seeds);
    eprintln!(
        "running {} over {} instances / {} links for {ticks} ticks ...",
        which,
        seeds.len(),
        seeds.links.len()
    );
    let trace = engine.run(scenario.as_mut());
    println!("{}", fediscope::analysis::dynamics::render_dynamics(&trace));
    let summary = fediscope::analysis::dynamics::prevention_summary(&trace);
    println!(
        "links {} -> {}   deliveries {} ({} rejected, {} lost)   exposure {:.1}   prevented {:.1} ({:.1}%)",
        summary.links.0,
        summary.links.1,
        summary.deliveries.0,
        summary.deliveries.1,
        summary.deliveries.2,
        exposure_score(summary.exposure),
        exposure_score(summary.prevented),
        summary.prevented_share * 100.0
    );
    if let Some(path) = &telemetry_out {
        if !write_telemetry(path, &format!("dynamics {which}")) {
            return ExitCode::FAILURE;
        }
    }
    if let Some(out) = parse_flag(args, "--out") {
        match serde_json::to_string_pretty(&trace) {
            Ok(body) => {
                if let Err(e) = std::fs::write(&out, body + "\n") {
                    eprintln!("failed to write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("trace written to {out}");
            }
            Err(e) => {
                eprintln!("failed to serialize trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The dynamics ↔ simnet round-trip: run the `composite` scenario
/// (storm + churn + rollout) against a live network and re-census it
/// mid-decay.
fn census(args: &[String], config: WorldConfig, ticks: u64) -> ExitCode {
    let every_ticks = match numeric_flag(args, "--census-every", any) {
        Ok(every) => every.unwrap_or(6),
        Err(code) => return code,
    };
    let composite = lookup("composite").expect("composite is registered");
    let mut scenario = (composite.build)();
    let telemetry_out = arm_telemetry(args);
    eprintln!(
        "generating world (seed {}, scale {}) and materialising the live net ...",
        config.seed, config.scale
    );
    let world = World::generate(config);
    let seeds = ScenarioSeeds::from_world(&world);
    let round_trip_config = fediscope::census::RoundTripConfig {
        engine: fediscope::dynamics::DynamicsConfig {
            seed: seeds.seed,
            ticks,
            ..Default::default()
        },
        crawler: CrawlerConfig::default(),
        cadence: fediscope::dynamics::CensusCadence { every_ticks },
    };
    eprintln!(
        "round-tripping {} ({}) over {} instances for {ticks} ticks (census every {every_ticks}) ...",
        composite.name,
        composite.about,
        seeds.len(),
    );
    let result = fediscope::census::run_round_trip_seeded(
        &world,
        &seeds,
        scenario.as_mut(),
        round_trip_config,
    );
    println!(
        "{}",
        fediscope::analysis::dynamics::render_census(&result.census)
    );
    println!(
        "{}",
        fediscope::analysis::dynamics::render_dynamics(&result.trace)
    );
    let [n404, n403, n502, n503, n410] = result.net.stats().failure_taxonomy().as_array();
    println!(
        "bridge: {} deaths, {} recoveries, {} defederations mirrored   probe statuses: 404×{n404} 403×{n403} 502×{n502} 503×{n503} 410×{n410}",
        result.bridge.failures_applied(),
        result.bridge.recoveries_applied(),
        result.bridge.defederations_applied(),
    );
    if let Some(path) = &telemetry_out {
        if !write_telemetry(path, "dynamics census") {
            return ExitCode::FAILURE;
        }
    }
    if let Some(out) = parse_flag(args, "--out") {
        let body = serde_json::json!({
            "trace": result.trace,
            "census": result.census,
        });
        match serde_json::to_string_pretty(&body) {
            Ok(body) => {
                if let Err(e) = std::fs::write(&out, body + "\n") {
                    eprintln!("failed to write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("round-trip written to {out}");
            }
            Err(e) => {
                eprintln!("failed to serialize round-trip: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn crawl(args: &[String]) -> ExitCode {
    let config = match world_config(args, WorldConfig::paper(), true) {
        Ok(config) => config,
        Err(code) => return code,
    };
    // §3 methodology: the real crawl saw truncated Peers responses, so a
    // capped crawl reproduces the directory-thinned census (and its
    // under-count — see `fediscope-analysis::calibration`).
    let peer_cap = match numeric_flag::<usize>(args, "--peer-cap", any) {
        Ok(cap) => cap,
        Err(code) => return code,
    };
    let out = parse_flag(args, "--out").unwrap_or_else(|| "dataset.json".to_string());

    eprintln!(
        "generating world (seed {}, scale {}, post_scale {}) ...",
        config.seed, config.scale, config.post_scale
    );
    let world = World::generate(config);
    eprintln!(
        "  {} instances, {} users, {} posts",
        world.instances.len(),
        world.total_users(),
        world.total_posts()
    );
    eprintln!("running the measurement campaign ...");
    if let Some(cap) = peer_cap {
        eprintln!("  (peer lists thinned to first {cap} — expect an under-count)");
    }
    let crawler_config = CrawlerConfig {
        peer_list_cap: peer_cap,
        ..CrawlerConfig::default()
    };
    let dataset = harness::crawl_world(&world, crawler_config);
    eprintln!(
        "  crawled {} domains, collected {} posts",
        dataset.instances.len(),
        dataset.collected_posts()
    );
    match dataset.save(&out) {
        Ok(()) => {
            eprintln!("dataset written to {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report(args: &[String]) -> ExitCode {
    let (Some(file), Some(which)) = (args.first(), args.get(1)) else {
        return usage();
    };
    // Checked before the dataset is read: at paper scale it is ~70 MB.
    let Some((_, print)) = report::SECTIONS.iter().find(|(name, _)| name == which) else {
        eprintln!("unknown report: {which}");
        return usage();
    };
    match Dataset::load(file) {
        Ok(dataset) => {
            print(&dataset);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot load {file}: {e}");
            ExitCode::FAILURE
        }
    }
}
