//! The dynamics ↔ simnet round-trip: driving a *live* network from the
//! event stream.
//!
//! Everything the engine simulates — §3 failure churn, defederation,
//! recovery — normally stays inside [`NetworkState`]. [`LiveNetBridge`]
//! mirrors it onto a shared [`SimNet`] as events apply: `GoDown` and
//! `Recover` become [`SimNet::set_failure`] calls, `Defederate` tears
//! down the blocker's follow edges via
//! [`InstanceServer::defederate`]. The crawler can then be pointed at
//! the bridged network *mid-scenario* and the §3 census re-measured
//! against a decaying fleet — the measurement layer and the simulation
//! layer coupled for the first time.
//!
//! The census side of the round-trip is captured in [`CensusSnapshot`]
//! rows (true vs. observed instance counts plus the per-status failure
//! taxonomy of the probes) paced by a [`CensusCadence`]; the driver
//! that actually runs the crawler between ticks lives in the
//! root `fediscope::census` module, because the dynamics crate itself
//! stays crawler-free.

use crate::event::Event;
use crate::sink::EventSink;
use crate::state::NetworkState;
use fediscope_core::id::Domain;
use fediscope_core::time::SimTime;
use fediscope_server::InstanceServer;
use fediscope_simnet::{FailureMode, SimNet};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct BridgeCounters {
    failures: AtomicU64,
    recoveries: AtomicU64,
    defederations: AtomicU64,
    follow_edges: AtomicU64,
}

/// A read handle on a bridge's mirroring counters. Cheap to clone;
/// stays valid after the bridge itself was boxed into the engine via
/// [`crate::DynamicsEngine::attach_sink`].
#[derive(Debug, Clone)]
pub struct BridgeStats {
    counters: Arc<BridgeCounters>,
}

impl BridgeStats {
    /// `GoDown` events mirrored to the net.
    pub fn failures_applied(&self) -> u64 {
        self.counters.failures.load(Ordering::Relaxed)
    }

    /// `Recover` events mirrored to the net.
    pub fn recoveries_applied(&self) -> u64 {
        self.counters.recoveries.load(Ordering::Relaxed)
    }

    /// `Defederate` events that severed a live engine link.
    pub fn defederations_applied(&self) -> u64 {
        self.counters.defederations.load(Ordering::Relaxed)
    }

    /// Follow edges destroyed on bridged servers by those defederations.
    pub fn follow_edges_severed(&self) -> u64 {
        self.counters.follow_edges.load(Ordering::Relaxed)
    }
}

/// Mirrors engine events onto a live [`SimNet`] (and its servers).
///
/// Attach via [`crate::DynamicsEngine::attach_sink`]. The bridge is a
/// pure observer: it applies the engine's *outcomes* to the network and
/// never feeds anything back, so a bridged run produces the exact same
/// [`crate::DynamicsTrace`] as an unbridged one.
pub struct LiveNetBridge {
    net: Arc<SimNet>,
    /// Seed-index → domain table, frozen at construction (instance
    /// indexing is immutable for a run).
    domains: Vec<Domain>,
    /// Servers to tear follow edges down on, by domain. Optional: a
    /// domain without a server still gets failure injection (exactly
    /// like the §3 dead instances, which answer without any endpoint).
    servers: HashMap<Domain, Arc<InstanceServer>>,
    counters: Arc<BridgeCounters>,
}

impl LiveNetBridge {
    /// A bridge from `state`'s instance table onto `net`.
    pub fn new(net: Arc<SimNet>, state: &NetworkState) -> Self {
        LiveNetBridge {
            net,
            domains: state.instances.iter().map(|i| i.domain.clone()).collect(),
            servers: HashMap::new(),
            counters: Arc::new(BridgeCounters::default()),
        }
    }

    /// Adds the servers whose follow graphs `Defederate` events tear
    /// down (typically the `harness::Materialized` server map).
    pub fn with_servers<I>(mut self, servers: I) -> Self
    where
        I: IntoIterator<Item = (Domain, Arc<InstanceServer>)>,
    {
        self.servers.extend(servers);
        self
    }

    /// The bridged network.
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// A counter handle that outlives attaching the bridge.
    pub fn stats(&self) -> BridgeStats {
        BridgeStats {
            counters: Arc::clone(&self.counters),
        }
    }
}

impl EventSink for LiveNetBridge {
    fn sync(&mut self, state: &NetworkState) {
        for inst in &state.instances {
            self.net.set_failure(inst.domain.clone(), inst.failure);
        }
    }

    fn on_event(&mut self, event: &Event, applied: bool, _state: &NetworkState) {
        match event {
            Event::GoDown { instance, mode } => {
                self.counters.failures.fetch_add(1, Ordering::Relaxed);
                self.net
                    .set_failure(self.domains[*instance as usize].clone(), *mode);
            }
            Event::Recover { instance } => {
                self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
                self.net.set_failure(
                    self.domains[*instance as usize].clone(),
                    FailureMode::Healthy,
                );
            }
            Event::Defederate { instance, target } => {
                // Only a block that actually severed an engine link tears
                // the live graph down: re-blocking an already-severed
                // pair must stay a no-op on the bridged side too.
                if applied {
                    self.counters.defederations.fetch_add(1, Ordering::Relaxed);
                    let target = &self.domains[*target as usize];
                    if let Some(server) = self.servers.get(&self.domains[*instance as usize]) {
                        let severed = server.defederate(target) as u64;
                        self.counters
                            .follow_edges
                            .fetch_add(severed, Ordering::Relaxed);
                    }
                }
            }
            // Retry redeliveries are an engine-internal reliability
            // mechanism: they change counters, not network reachability,
            // so there is nothing to mirror onto the live net.
            Event::AdoptWave { .. } | Event::SetRate { .. } | Event::RetryDelivery { .. } => {}
        }
    }
}

/// How often the round-trip driver re-runs the census, in ticks.
///
/// `every_ticks = 1` censuses after every tick; the default of 6 (one
/// simulated day of 4-hour ticks) matches the paper's daily reporting
/// granularity while keeping crawl volume manageable.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CensusCadence {
    /// Ticks between censuses. A census always runs after tick 0 and
    /// after the final tick, whatever the cadence.
    pub every_ticks: u64,
}

impl Default for CensusCadence {
    fn default() -> Self {
        CensusCadence { every_ticks: 6 }
    }
}

impl CensusCadence {
    /// Whether a census is due after `tick` of a `total_ticks` run.
    pub fn due(&self, tick: u64, total_ticks: u64) -> bool {
        tick == 0 || tick + 1 == total_ticks || tick.is_multiple_of(self.every_ticks.max(1))
    }
}

/// One census of the live network, mid-scenario: what the crawler saw
/// versus what was actually true.
///
/// `taxonomy` counts *instances* whose probe failed with each §3
/// status during this census — the paper's per-instance accounting —
/// in the paper's reporting order `[404, 403, 502, 503, 410]`, the
/// same order as `NetStats::failure_taxonomy()` (which keeps the
/// request-level cumulative view on the net itself).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CensusSnapshot {
    /// Tick after which the census ran.
    pub tick: u64,
    /// Logical time of that tick.
    pub at: SimTime,
    /// Ground truth: Pleroma instances in the engine state.
    pub true_total: u64,
    /// Ground truth: Pleroma instances answering the network.
    pub true_up: u64,
    /// Pleroma instances the crawler successfully crawled.
    pub observed: u64,
    /// Instances whose probe answered a failure status.
    pub failed_probes: u64,
    /// Instances the crawler never reached (no endpoint, no injection).
    pub unreachable: u64,
    /// §3 status-code counts for this census: `[404, 403, 502, 503, 410]`.
    pub taxonomy: [u64; 5],
}

impl CensusSnapshot {
    /// The census under-count: live Pleroma instances the crawl missed.
    /// Negative only in the pathological case of an instance dying
    /// between its probe and the end of the tick's census.
    pub fn undercount(&self) -> i64 {
        self.true_up as i64 - self.observed as i64
    }

    /// Under-count as a share of the live fleet (0 when nothing is up).
    pub fn undercount_share(&self) -> f64 {
        if self.true_up == 0 {
            0.0
        } else {
            self.undercount() as f64 / self.true_up as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DynamicsConfig, DynamicsEngine};
    use crate::scenarios::{ChurnConfig, ChurnScenario};
    use crate::testutil::seeds;

    fn bridged_engine(ticks: u64) -> (DynamicsEngine, Arc<SimNet>, BridgeStats) {
        let config = DynamicsConfig {
            ticks,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        let net = Arc::new(SimNet::new());
        let bridge = LiveNetBridge::new(Arc::clone(&net), engine.state());
        let stats = bridge.stats();
        engine.attach_sink(Box::new(bridge));
        (engine, net, stats)
    }

    #[test]
    fn bridge_mirrors_churn_onto_the_net() {
        let (mut engine, net, stats) = bridged_engine(36);
        let mut scenario = ChurnScenario::new(ChurnConfig::default());
        engine.run(&mut scenario);
        // After the full ramp the live net agrees with the engine state,
        // instance by instance.
        for inst in &engine.state().instances {
            assert_eq!(
                net.failure_of(&inst.domain),
                inst.failure,
                "{} diverged between engine and net",
                inst.domain
            );
        }
        // Every scheduled death went over the bridge, and every
        // transient recovered.
        assert_eq!(
            stats.failures_applied(),
            scenario.permanent_deaths() + scenario.transients()
        );
        assert_eq!(stats.recoveries_applied(), scenario.transients());
    }

    #[test]
    fn bridge_sync_applies_init_rewrites() {
        // Churn's init resets everyone healthy *before* tick 0 — the
        // sync hook must propagate that, or the net would keep the seed
        // failure modes the scenario explicitly cleared.
        let (mut engine, net, _stats) = bridged_engine(36);
        let mut scenario = ChurnScenario::new(ChurnConfig::default());
        engine.begin(&mut scenario);
        for inst in &engine.state().instances {
            assert_eq!(net.failure_of(&inst.domain), FailureMode::Healthy);
        }
    }

    #[test]
    fn bridged_run_traces_identically_to_unbridged() {
        let config = DynamicsConfig {
            ticks: 12,
            ..DynamicsConfig::default()
        };
        let mut plain = DynamicsEngine::new(config.clone(), seeds());
        let unbridged = plain.run(&mut ChurnScenario::new(ChurnConfig::default()));
        let (mut engine, _net, _stats) = bridged_engine(12);
        let bridged = engine.run(&mut ChurnScenario::new(ChurnConfig::default()));
        assert_eq!(unbridged.digest(), bridged.digest());
        assert_eq!(unbridged, bridged);
    }

    #[test]
    fn cadence_hits_endpoints_and_period() {
        let c = CensusCadence { every_ticks: 5 };
        assert!(c.due(0, 12));
        assert!(c.due(5, 12));
        assert!(c.due(10, 12));
        assert!(c.due(11, 12), "final tick always censuses");
        assert!(!c.due(3, 12));
        // Degenerate cadence never divides by zero.
        let z = CensusCadence { every_ticks: 0 };
        assert!(z.due(7, 12));
    }

    #[test]
    fn undercount_math() {
        let snap = CensusSnapshot {
            tick: 3,
            at: SimTime(0),
            true_total: 100,
            true_up: 80,
            observed: 72,
            failed_probes: 20,
            unreachable: 0,
            taxonomy: [10, 5, 3, 1, 1],
        };
        assert_eq!(snap.undercount(), 8);
        assert!((snap.undercount_share() - 0.1).abs() < 1e-12);
        let empty = CensusSnapshot {
            true_up: 0,
            observed: 0,
            ..snap
        };
        assert_eq!(empty.undercount_share(), 0.0);
    }
}
