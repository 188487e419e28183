//! The live census under churn: the dynamics ↔ simnet round-trip.
//!
//! The paper's §3 census crawled a *decaying* network — instances went
//! down (and came back) underneath the crawler, so the measured
//! population systematically under-counts the true one. This module
//! closes the loop between the two halves of the toolkit that can
//! reproduce that: the dynamics engine evolves the fleet
//! (`GoDown`/`Recover`/`Defederate` events), a [`LiveNetBridge`] mirrors
//! every transition onto a live [`SimNet`](fediscope_simnet::SimNet), and the
//! §3 crawler re-censuses that network between ticks at a configurable
//! [`CensusCadence`]. The result is the under-count bias table the
//! static campaign cannot produce: observed vs. true instance counts,
//! per census, while the failure taxonomy shifts underneath.
//!
//! Censuses run *between* ticks — the engine never steps while a crawl
//! is in flight — so each snapshot is internally consistent: every
//! probe of one census sees the same network state. (What happens when
//! an instance flips mid-crawl is the crawler's contract, pinned by its
//! own tests: the failure mode at the moment of an instance's first
//! probe decides its census outcome.)
//!
//! ```no_run
//! use fediscope::census::{run_round_trip, RoundTripConfig};
//! use fediscope::dynamics::scenarios::{ChurnConfig, ChurnScenario};
//! use fediscope_synthgen::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig::test_small());
//! let mut scenario = ChurnScenario::new(ChurnConfig::default());
//! let rt = run_round_trip(&world, &mut scenario, RoundTripConfig::default());
//! println!("{}", fediscope_analysis::dynamics::render_census(&rt.census));
//! ```

use crate::harness;
use fediscope_crawler::{CrawlOutcome, Crawler, CrawlerConfig};
use fediscope_dynamics::{
    BridgeStats, CensusCadence, CensusSnapshot, DynamicsConfig, DynamicsEngine, DynamicsTrace,
    LiveNetBridge, Scenario, TickTrace,
};
use fediscope_synthgen::{ScenarioSeeds, World};

/// Round-trip knobs: the engine run, the per-census crawler, and how
/// often to census.
#[derive(Debug, Clone, Default)]
pub struct RoundTripConfig {
    /// Engine knobs. `seed: 0` (or any explicit value) is used as-is;
    /// callers typically set `seed: seeds.seed`.
    pub engine: DynamicsConfig,
    /// Per-census crawler knobs. `snapshot_rounds` is forced to 0 — the
    /// round-trip *is* the snapshot cadence.
    pub crawler: CrawlerConfig,
    /// Ticks between censuses.
    pub cadence: CensusCadence,
}

/// A completed round-trip: the engine trace plus the census series
/// measured against the live network, and the bridge's mirror counters.
pub struct RoundTrip {
    /// Per-tick engine metrics (identical to an unbridged run).
    pub trace: DynamicsTrace,
    /// One snapshot per census, in tick order.
    pub census: Vec<CensusSnapshot>,
    /// What the bridge mirrored onto the net.
    pub bridge: BridgeStats,
    /// The live network the censuses ran against; its cumulative
    /// [`NetStats`](fediscope_simnet::NetStats) (notably
    /// `failure_taxonomy()`) covers every probe of every census.
    pub net: std::sync::Arc<fediscope_simnet::SimNet>,
}

/// Materialises `world` onto a live [`SimNet`](fediscope_simnet::SimNet)
/// (every instance served, seed failures injected), runs `scenario`
/// through a bridged engine, and re-censuses the network at the
/// configured cadence. Each census crawls on the rayon pool.
pub fn run_round_trip(
    world: &World,
    scenario: &mut dyn Scenario,
    config: RoundTripConfig,
) -> RoundTrip {
    let seeds = ScenarioSeeds::from_world(world);
    run_round_trip_seeded(world, &seeds, scenario, config)
}

/// [`run_round_trip`] with pre-extracted seeds (the extraction is the
/// expensive part of small-world test setups; callers that already hold
/// seeds should not pay it twice).
pub fn run_round_trip_seeded(
    world: &World,
    seeds: &ScenarioSeeds,
    scenario: &mut dyn Scenario,
    config: RoundTripConfig,
) -> RoundTrip {
    let materialized = harness::materialize_full(world);
    let mut crawler_config = config.crawler.clone();
    crawler_config.snapshot_rounds = 0;

    let mut engine = DynamicsEngine::new(config.engine.clone(), seeds);
    let bridge = LiveNetBridge::new(std::sync::Arc::clone(&materialized.net), engine.state())
        .with_servers(
            materialized
                .servers
                .iter()
                .map(|(d, s)| (d.clone(), std::sync::Arc::clone(s))),
        );
    let stats = bridge.stats();
    engine.attach_sink(Box::new(bridge));
    engine.begin(scenario);

    let total_ticks = config.engine.ticks;
    let mut ticks: Vec<TickTrace> = Vec::with_capacity(total_ticks as usize);
    let mut census: Vec<CensusSnapshot> = Vec::new();
    while let Some(tick) = engine.step(scenario) {
        if config.cadence.due(tick.tick, total_ticks) {
            // Each census pass gets its own telemetry span + round
            // counter; the crawl happens between ticks, so the span
            // never overlaps an engine phase.
            let span = fediscope_telemetry::PhaseTimer::start(fediscope_telemetry::Phase::Census);
            census.push(census_once(
                &materialized,
                &crawler_config,
                engine.state(),
                &tick,
                world,
            ));
            drop(span);
            fediscope_telemetry::Telemetry::global()
                .inc(fediscope_telemetry::HotCounter::CensusRounds);
        }
        ticks.push(tick);
    }
    RoundTrip {
        trace: engine.finish(scenario, ticks),
        census,
        bridge: stats,
        net: std::sync::Arc::clone(&materialized.net),
    }
}

/// One census of the live network: a fresh §3 crawl from the world's
/// directory, diffed against engine ground truth.
///
/// The snapshot taxonomy counts *instances* per failure status — the
/// paper's §3 accounting ("110 are not found (404 status code), 84
/// instances require authorisation ...") — so it is derived from crawl
/// outcomes, not raw request counters: a healthy instance with a closed
/// timeline answers real 403s on its timeline endpoint without being a
/// §3 casualty. The request-level view stays available on the net's
/// cumulative `NetStats::failure_taxonomy()`.
fn census_once(
    materialized: &harness::Materialized,
    crawler_config: &CrawlerConfig,
    state: &fediscope_dynamics::NetworkState,
    tick: &TickTrace,
    world: &World,
) -> CensusSnapshot {
    let crawler = Crawler::new(
        std::sync::Arc::clone(&materialized.net),
        crawler_config.clone(),
    );
    let dataset = crawler.crawl(&world.directory);
    let mut taxonomy = [0u64; 5];
    let mut failed_probes = 0;
    let mut unreachable = 0;
    for inst in &dataset.instances {
        match inst.outcome {
            CrawlOutcome::Failed { status } => {
                failed_probes += 1;
                if let Some(idx) = match status {
                    404 => Some(0),
                    403 => Some(1),
                    502 => Some(2),
                    503 => Some(3),
                    410 => Some(4),
                    _ => None,
                } {
                    taxonomy[idx] += 1;
                }
            }
            CrawlOutcome::Unreachable => unreachable += 1,
            CrawlOutcome::Crawled | CrawlOutcome::NonPleroma => {}
        }
    }
    CensusSnapshot {
        tick: tick.tick,
        at: tick.at,
        true_total: state.instances.iter().filter(|i| i.pleroma).count() as u64,
        true_up: state
            .instances
            .iter()
            .filter(|i| i.pleroma && i.up())
            .count() as u64,
        observed: dataset.pleroma_crawled().count() as u64,
        failed_probes,
        unreachable,
        taxonomy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_dynamics::scenarios::{lookup, ChurnConfig, ChurnScenario};
    use fediscope_simnet::FailureMode;
    use fediscope_synthgen::WorldConfig;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_small()))
    }

    fn config(ticks: u64, every_ticks: u64) -> RoundTripConfig {
        RoundTripConfig {
            engine: DynamicsConfig {
                ticks,
                ..DynamicsConfig::default()
            },
            crawler: CrawlerConfig::default(),
            cadence: CensusCadence { every_ticks },
        }
    }

    #[test]
    fn census_tracks_the_decaying_fleet() {
        // 36 ticks cover the full 4-day churn ramp; census every day.
        let mut scenario = ChurnScenario::new(ChurnConfig::default());
        let rt = run_round_trip(world(), &mut scenario, config(36, 6));
        assert_eq!(rt.trace.ticks.len(), 36);
        assert!(rt.census.len() >= 6);
        let first = rt.census.first().unwrap();
        let last = rt.census.last().unwrap();
        // Tick 0: everyone churn-reset to healthy, full census (at most
        // one ramp death has fired inside tick 0's control phase).
        assert!(first.observed + 1 >= first.true_total);
        // Final census: the fleet decayed to the seeded §3 taxonomy,
        // and the crawler's view shrank with it.
        assert!(last.true_up < first.true_up);
        assert!(last.observed < first.observed);
        // The census never over-counts: the net is quiescent during a
        // crawl, so everything observed was genuinely up.
        for snap in &rt.census {
            assert!(snap.undercount() >= 0, "census over-counted: {snap:?}");
        }
        // The per-census probe statuses reproduce the exact §3 taxonomy
        // seeded into the world: the directory lists every doomed
        // instance ("found, then failed to answer"), so each one is
        // probed once per census and answers its seeded status. All
        // transients have healed by the final tick.
        let mut seed_mix = [0u64; 5];
        for inst in &world().instances {
            if let Some(idx) = fediscope_dynamics::failure_mix_index(inst.failure) {
                seed_mix[idx] += 1;
            }
        }
        assert_eq!(last.taxonomy, seed_mix, "§3 mix must reproduce");
        assert!(last.taxonomy[0] > 0, "the 404 class dominates §3");
        // The request-level counters agree: every per-census permanent
        // 404 / 410 probe landed in `NetStats::failure_taxonomy()`
        // exactly once (those statuses only ever come from failure
        // injection and are never retried), while transient 502 / 503
        // probes land exactly twice — the probe plus its single
        // `CrawlerConfig::transient_retries` re-probe against a failure
        // injection that holds for the whole (quiescent) census. 403 is
        // a superset at the request level — healthy closed-timeline
        // instances answer real 403s too.
        let taxonomy = rt.net.stats().failure_taxonomy();
        let sums: Vec<u64> = (0..5)
            .map(|k| rt.census.iter().map(|c| c.taxonomy[k]).sum())
            .collect();
        use fediscope_simnet::FailureMode;
        assert_eq!(taxonomy[FailureMode::NotFound], sums[0]);
        assert!(taxonomy[FailureMode::Forbidden] >= sums[1]);
        assert_eq!(taxonomy[FailureMode::BadGateway], 2 * sums[2]);
        assert_eq!(taxonomy[FailureMode::Unavailable], 2 * sums[3]);
        assert_eq!(taxonomy[FailureMode::Gone], sums[4]);
        // The bridge mirrored every death the scenario replayed.
        assert_eq!(
            rt.bridge.failures_applied(),
            scenario.permanent_deaths() + scenario.transients()
        );
    }

    #[test]
    fn composed_round_trip_couples_all_layers() {
        // Storm + churn + rollout in one timeline, censused mid-decay:
        // does a staged MRF rollout keep up with a toxicity storm
        // during an outage wave? The registry's `composite`.
        let mut scenario = (lookup("composite").unwrap().build)();
        let rt = run_round_trip(world(), scenario.as_mut(), config(24, 6));
        // All three dynamics visible in one trace ...
        let last = rt.trace.ticks.last().unwrap();
        assert!(last.adopted > 0, "rollout progressed");
        assert!(last.failure_mix.iter().sum::<u64>() > 0, "churn hit");
        assert!(rt.trace.total_prevented() > 0, "rollout prevented");
        // ... while the census under-counts the decaying fleet.
        let last_census = rt.census.last().unwrap();
        assert!(last_census.undercount() >= 0);
        assert!(last_census.true_up < rt.census[0].true_up);
    }

    #[test]
    fn bridged_trace_matches_unbridged_run() {
        // The round-trip must not perturb the engine: same seed, same
        // scenario ⇒ the bridged trace equals a plain engine run.
        let seeds = ScenarioSeeds::from_world(world());
        let cfg = config(12, 4);
        let mut scenario = ChurnScenario::new(ChurnConfig::default());
        let rt = run_round_trip_seeded(world(), &seeds, &mut scenario, cfg.clone());
        let mut plain = DynamicsEngine::new(cfg.engine, &seeds);
        let reference = plain.run(&mut ChurnScenario::new(ChurnConfig::default()));
        assert_eq!(rt.trace.digest(), reference.digest());
        assert_eq!(rt.trace, reference);
    }

    #[test]
    fn recovered_instances_reenter_the_census() {
        // Transient 502/503 outages recover inside the run: a later
        // census must see the instance again (the bridge cleared the
        // injection and uncovered the still-registered endpoint).
        let mut scenario = ChurnScenario::new(ChurnConfig {
            transient_p: 0.5,
            ..ChurnConfig::default()
        });
        let rt = run_round_trip(world(), &mut scenario, config(36, 1));
        assert!(scenario.transients() > 0, "need transient outages");
        assert_eq!(rt.bridge.recoveries_applied(), scenario.transients());
        // The recovery is visible to the measurement layer: some census
        // observed fewer live instances than a later one (transient
        // 502/503 hosts coming back through the cleared injection), even
        // though the permanent ramp only ever takes instances away.
        let observed: Vec<u64> = rt.census.iter().map(|c| c.observed).collect();
        assert!(
            observed.windows(2).any(|w| w[1] > w[0]),
            "recoveries must lift the census back up: {observed:?}"
        );
        // Ground truth mirrors it.
        let up: Vec<u64> = rt.census.iter().map(|c| c.true_up).collect();
        assert!(up.windows(2).any(|w| w[1] > w[0]));
    }

    #[test]
    fn defederation_round_trip_tears_live_graphs() {
        use fediscope_dynamics::scenarios::{CascadeConfig, DefederationCascadeScenario};
        let seeds = ScenarioSeeds::from_world(world());
        let mut scenario = DefederationCascadeScenario::new(CascadeConfig::default());
        let rt = run_round_trip_seeded(world(), &seeds, &mut scenario, config(18, 9));
        // Every engine link severed went over the bridge, exactly once.
        let severed = seeds.links.len() as u64 - rt.trace.final_links();
        assert!(severed > 0, "the cascade must sever links");
        assert_eq!(rt.bridge.defederations_applied(), severed);
    }

    #[test]
    fn fully_down_fleet_yields_wellformed_empty_census() {
        // Kill every instance before tick 0 via a scenario, then census:
        // the dataset is empty but structurally sound.
        struct Blackout;
        impl Scenario for Blackout {
            fn name(&self) -> &'static str {
                "blackout"
            }
            fn init(
                &mut self,
                _start: fediscope_core::time::SimTime,
                state: &mut fediscope_dynamics::NetworkState,
                _queue: &mut fediscope_dynamics::EventQueue,
                _rng: &mut rand::rngs::SmallRng,
            ) {
                for i in 0..state.len() {
                    state.set_failure(i as u32, FailureMode::Gone);
                }
            }
        }
        let rt = run_round_trip(world(), &mut Blackout, config(2, 1));
        for snap in &rt.census {
            assert_eq!(snap.observed, 0);
            assert_eq!(snap.true_up, 0);
            assert_eq!(snap.undercount(), 0);
            assert_eq!(snap.undercount_share(), 0.0);
            // Every directory probe answered 410 Gone; nothing beyond
            // the directory is discoverable on a dead network.
            assert_eq!(snap.taxonomy[4], snap.failed_probes);
            assert!(snap.failed_probes > 0);
        }
    }
}
