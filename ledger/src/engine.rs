//! The `storm` and `policy_flood` workloads: the dynamics engine over a
//! paper-scale world, bridged to a live `SimNet`.
//!
//! Set-up is shared: `ScenarioSeeds::from_config_streamed` →
//! `SharedColumns::build` → `NetworkState::from_seeds_shared` → an engine
//! with a `LiveNetBridge` attached → `begin`. The main loop is `step`
//! until the tick budget is spent; `finish`, the dynamics tables, the
//! rendered report and the trace's JSON close the run.

use crate::spans::Tracer;
use crate::Outcome;
use fediscope_analysis::dynamics as report;
use fediscope_core::time::SimDuration;
use fediscope_dynamics::scenarios::{
    AdoptionModel, BlocklistImportScenario, CascadeConfig, ChurnConfig, ChurnScenario, Composite,
    DefederationCascadeScenario, ImportConfig, PolicyRolloutScenario, ReliabilityScenario,
    RolloutConfig, StormConfig, ToxicityStormScenario,
};
use fediscope_dynamics::{
    DynamicsConfig, DynamicsEngine, Event, EventSink, LiveNetBridge, NetworkState, Scenario,
    SharedColumns,
};
use fediscope_simnet::SimNet;
use fediscope_synthgen::{ScenarioSeeds, SeedKnobs, WorldConfig};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Which engine workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The saturation toxicity storm: measurement-phase bound.
    Storm,
    /// Blocklist imports, cascade, rollout and retrying churn with
    /// emissions silenced: control-phase bound.
    PolicyFlood,
}

/// The saturation storm: a 12× burst from the fourth hour to the end.
fn storm() -> Box<dyn Scenario> {
    Box::new(ToxicityStormScenario::new(StormConfig {
        start_offset: SimDuration::hours(4),
        duration: SimDuration::days(30),
        multiplier: 12.0,
    }))
}

/// Every policy mutation the delta API serves — full-union and
/// heavy-tailed blocklist imports one target per event, a high-imitation
/// defederation cascade and a staged rollout — racing a 0.95-transient
/// churn storm with the retry layer armed.
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
            )))
            .with(Box::new(ReliabilityScenario::default()))
            .with(Box::new(ChurnScenario::new(ChurnConfig {
                transient_p: 0.95,
                rounds: 8,
                ..ChurnConfig::default()
            }))),
    )
}

/// Median deliveries of the saturation storm's first full tick over
/// paper-scale worlds with seeds 1–40, as `--calibrate 40` prints it (a
/// run of `t` ticks delivers about `t - 1` times as many).
pub const STORM_TICK_MEDIAN: f64 = 236_418.5;

/// The load a storm's world is chosen by (see [`crate::input`]): the
/// deliveries of the storm's first full tick.
pub fn storm_tick(config: &WorldConfig) -> f64 {
    let seeds = ScenarioSeeds::from_config_streamed(config, &SeedKnobs::default());
    let engine_config = DynamicsConfig {
        seed: seeds.seed,
        ticks: 2,
        ..DynamicsConfig::default()
    };
    let trace = DynamicsEngine::new(engine_config, &seeds).run(storm().as_mut());
    trace.ticks[1].delivered as f64
}

/// Applied events by kind, shared with the [`CountingSink`].
#[derive(Default)]
struct EventCounts {
    /// `AdoptWave` and `Defederate`: writes through the MRF delta API.
    mrf_deltas: Cell<u64>,
}

/// Forwards to the live-net bridge and counts applied MRF deltas. Only
/// the traced run attaches it; like every sink it never feeds back.
struct CountingSink {
    inner: LiveNetBridge,
    counts: Rc<EventCounts>,
}

impl EventSink for CountingSink {
    fn sync(&mut self, state: &NetworkState) {
        self.inner.sync(state);
    }

    fn on_event(&mut self, event: &Event, applied: bool, state: &NetworkState) {
        if applied && matches!(event, Event::AdoptWave { .. } | Event::Defederate { .. }) {
            let c = &self.counts.mrf_deltas;
            c.set(c.get() + 1);
        }
        self.inner.on_event(event, applied, state);
    }
}

/// One engine workload run at `config` for `ticks` ticks.
pub fn run(kind: Kind, config: WorldConfig, ticks: u64, tr: &mut Tracer, traced: bool) -> Outcome {
    let seeds = tr.span("synthgen.seeds", |_| {
        ScenarioSeeds::from_config_streamed(&config, &SeedKnobs::default())
    });
    let columns = tr.span("dynamics.columns", |_| SharedColumns::build(&seeds));
    let state = tr.span("dynamics.state", |_| {
        NetworkState::from_seeds_shared(&seeds, &columns)
    });
    let engine_config = DynamicsConfig {
        seed: seeds.seed,
        ticks,
        emission_cap: if kind == Kind::Storm { 64 } else { 0 },
        ..DynamicsConfig::default()
    };
    let counts = Rc::new(EventCounts::default());
    let mut engine = tr.span("dynamics.bridge", |_| {
        let mut engine = DynamicsEngine::from_state(engine_config, state);
        let bridge = LiveNetBridge::new(Arc::new(SimNet::new()), engine.state());
        if traced {
            engine.attach_sink(Box::new(CountingSink {
                inner: bridge,
                counts: Rc::clone(&counts),
            }));
        } else {
            engine.attach_sink(Box::new(bridge));
        }
        engine
    });
    let mut scenario = match kind {
        Kind::Storm => storm(),
        Kind::PolicyFlood => policy_flood(),
    };
    tr.span("dynamics.begin", |_| engine.begin(scenario.as_mut()));
    let setup_s = tr.since_first();
    let rows = tr.span("dynamics.steps", |tr| {
        let mut rows = Vec::with_capacity(ticks as usize);
        while let Some(row) = tr.span("dynamics.step", |_| engine.step(scenario.as_mut())) {
            rows.push(row);
        }
        rows
    });
    let trace = tr.span("dynamics.finish", |_| {
        engine.finish(scenario.as_ref(), rows)
    });
    let tables = tr.span("analysis.tables", |_| {
        (
            report::prevention_summary(&trace),
            report::dynamics_timeseries(&trace).len()
                + report::reliability_timeseries(&trace).len(),
        )
    });
    let rendered = tr.span("analysis.render", |_| {
        report::render_dynamics(&trace) + &report::render_reliability(&trace)
    });
    let json = tr.span("persist.trace_json", |_| {
        serde_json::to_string(&trace).expect("a dynamics trace serialises")
    });
    let peak_heap_mib = crate::meter::peak_mib();

    // Output checks and readings, outside the measured window.
    let (failures, digest, work, readings) = tr.aside(|| {
        let delivered = trace.total_delivered();
        let events: u64 = trace.ticks.iter().map(|t| t.events).sum();
        let mut failures = Vec::new();
        if trace.ticks.len() as u64 != ticks {
            failures.push(format!("ran {} of {ticks} ticks", trace.ticks.len()));
        }
        if let Some(t) = trace
            .ticks
            .iter()
            .find(|t| t.accepted + t.rejected != t.delivered)
        {
            failures.push(format!("tick {}: accepted + rejected != delivered", t.tick));
        }
        match kind {
            Kind::Storm if delivered == 0 => failures.push("the storm delivered no posts".into()),
            Kind::PolicyFlood if events == 0 => failures.push("the flood applied no events".into()),
            _ => {}
        }
        if tables.1 == 0 || rendered.is_empty() || json.is_empty() {
            failures.push("the dynamics report came out empty".into());
        }
        let intern = (columns.intern_hits() + columns.intern_misses()).max(1);
        let templates: usize = seeds.templates.iter().map(|t| t.len()).sum();
        let readings = [
            ("synthgen.posts", templates as f64),
            ("persist.trace_bytes", json.len() as f64),
            (
                "dynamics.intern_hit_share",
                columns.intern_hits() as f64 / intern as f64,
            ),
            ("dynamics.intern_distinct", columns.intern_distinct() as f64),
            ("dynamics.deliveries", delivered as f64),
            ("dynamics.events", events as f64),
            ("dynamics.retry_events", trace.total_retried() as f64),
            ("dynamics.recovered", trace.total_recovered() as f64),
            ("dynamics.dead_lettered", trace.total_dead_lettered() as f64),
        ];
        let work = match kind {
            Kind::Storm => delivered,
            Kind::PolicyFlood => events,
        };
        (failures, trace.digest(), work as f64, readings)
    });
    tr.span("teardown.drop", |_| {
        drop((
            seeds, columns, engine, scenario, trace, tables, rendered, json,
        ))
    });
    let steps_s = tr.total("dynamics.step");
    let mut ticks_ms: Vec<f64> = tr
        .durations("dynamics.step")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    ticks_ms.sort_by(f64::total_cmp);
    let mut layers = vec![
        ("synthgen.seeds_s", tr.total("synthgen.seeds")),
        ("analysis.tables_s", tr.total("analysis.tables")),
        ("analysis.render_s", tr.total("analysis.render")),
        ("persist.trace_json_s", tr.total("persist.trace_json")),
        ("dynamics.columns_s", tr.total("dynamics.columns")),
        ("dynamics.state_s", tr.total("dynamics.state")),
        ("dynamics.bridge_s", tr.total("dynamics.bridge")),
        ("dynamics.begin_s", tr.total("dynamics.begin")),
        ("dynamics.steps_s", steps_s),
        ("dynamics.tick_p50_ms", crate::quantile(&ticks_ms, 0.5)),
        ("dynamics.tick_p90_ms", crate::quantile(&ticks_ms, 0.9)),
        ("mrf.delta_events", counts.mrf_deltas.get() as f64),
        ("teardown.drop_s", tr.total("teardown.drop")),
    ];
    layers.extend(readings);
    Outcome {
        digest,
        setup_s,
        peak_heap_mib,
        loop_rate: work / steps_s,
        failures,
        layers,
    }
}
