//! The shipped scenarios: rollout (and its inaction null arm), cascade,
//! churn, storm, blocklist imports (full or §4.2-partial), the
//! delivery-reliability enabler — and the [`Composite`] multiplexer
//! that runs any of them in one timeline.
//!
//! [`registry`] is the one catalog of runnable scenarios: the CLI's
//! `dynamics <name>` and `experiment --arms` look names up in it, and
//! the root `tests/contracts.rs` matrix checks every entry. It also
//! holds every storm and flood shape the gates bench, the root tests and
//! the benchmark run, so each shape's parameters live here once.

mod cascade;
mod churn;
mod composite;
mod import;
mod reliability;
mod rollout;
mod storm;

pub use cascade::{
    follower_weight, imitation_probability, CascadeConfig, DefederationCascadeScenario,
    REFERENCE_FOLLOWERS,
};
pub use churn::{ChurnConfig, ChurnScenario};
pub use composite::Composite;
pub use import::{
    heavy_tail_fraction, AdoptionModel, BlocklistImportScenario, ImportConfig,
    MIN_ADOPTION_FRACTION,
};
pub use reliability::ReliabilityScenario;
pub use rollout::{InactionScenario, PolicyRolloutScenario, RolloutConfig};
pub use storm::{StormConfig, ToxicityStormScenario};

use crate::scenario::Scenario;
use fediscope_core::time::SimDuration;

/// One runnable scenario: its name, a one-line description, and a
/// constructor that builds a fresh instance for each run.
pub struct Entry {
    /// Lookup name (`fediscope dynamics <name>`, `--arms a,b`).
    pub name: &'static str,
    /// One line for usage text.
    pub about: &'static str,
    /// Builds the scenario with its catalog configuration.
    pub build: fn() -> Box<dyn Scenario>,
}

/// Every import arm strips moderation back to the fresh install in
/// `init`, so it starts from the same null state as `inaction` and
/// `rollout`.
fn import_arm(adoption: AdoptionModel) -> Box<dyn Scenario> {
    Box::new(BlocklistImportScenario::new(ImportConfig {
        adoption,
        reset_to_default: true,
        ..ImportConfig::default()
    }))
}

/// `subs` as one flat [`Composite`], in order. A sub's control stream
/// follows its name and its place among same-name subs, so a nested
/// composite draws other streams: shapes compose by concatenating subs.
fn compose(subs: impl IntoIterator<Item = Box<dyn Scenario>>) -> Box<dyn Scenario> {
    Box::new(subs.into_iter().fold(Composite::new(), Composite::with))
}

/// A 12× burst from the fourth hour for 30 days: every tick of a
/// shorter run after the first is storm.
fn saturation_storm() -> Box<dyn Scenario> {
    Box::new(ToxicityStormScenario::new(StormConfig {
        start_offset: SimDuration::hours(4),
        duration: SimDuration::days(30),
        multiplier: 12.0,
    }))
}

/// Eight rounds of transient outages at nearly every healthy instance.
fn flood_churn() -> ChurnConfig {
    ChurnConfig {
        transient_p: 0.95,
        rounds: 8,
        ..ChurnConfig::default()
    }
}

/// Churn with the delivery-reliability layer armed: every outage also
/// opens per-sender retry chains on the calendar queue.
fn retrying(churn: ChurnConfig) -> [Box<dyn Scenario>; 2] {
    [
        Box::new(ReliabilityScenario::default()),
        Box::new(ChurnScenario::new(churn)),
    ]
}

/// Every writer of the MRF delta API, on top of the seed configs: full
/// and heavy-tailed blocklist imports one target per event, a
/// high-imitation defederation cascade and a staged rollout.
fn delta_writers() -> [Box<dyn Scenario>; 4] {
    let import = |adoption| {
        Box::new(BlocklistImportScenario::new(ImportConfig {
            chunk: 1,
            window: SimDuration::days(5),
            adoption,
            reset_to_default: false,
        }))
    };
    [
        import(AdoptionModel::Full),
        import(AdoptionModel::HeavyTail { alpha: 3.0 }),
        Box::new(DefederationCascadeScenario::new(CascadeConfig {
            imitation_p: 0.9,
            ..CascadeConfig::default()
        })),
        Box::new(PolicyRolloutScenario::default()),
    ]
}

static REGISTRY: [Entry; 15] = [
    Entry {
        name: "inaction",
        about: "null arm: moderation stripped to the fresh install, nothing changes",
        build: || Box::new(InactionScenario),
    },
    Entry {
        name: "rollout",
        about: "staged MRF rollout from the fresh install",
        build: || Box::new(PolicyRolloutScenario::default()),
    },
    Entry {
        name: "cascade",
        about: "defederation cascade with follower-weighted imitation",
        build: || Box::new(DefederationCascadeScenario::new(CascadeConfig::default())),
    },
    Entry {
        name: "churn",
        about: "instance outages and recoveries in the §3 failure mix",
        build: || Box::new(ChurnScenario::new(ChurnConfig::default())),
    },
    Entry {
        name: "storm",
        about: "toxicity-storm burst of emissions",
        build: || Box::new(ToxicityStormScenario::new(StormConfig::default())),
    },
    Entry {
        name: "composite",
        about: "storm + churn + rollout in one timeline",
        build: || {
            Box::new(
                Composite::new()
                    .with(Box::new(ToxicityStormScenario::new(StormConfig::default())))
                    .with(Box::new(ChurnScenario::new(ChurnConfig::default())))
                    .with(Box::new(PolicyRolloutScenario::default())),
            )
        },
    },
    Entry {
        name: "cascade-churn",
        about: "reactive mix: defederation cascade during churn",
        build: || {
            Box::new(
                Composite::new()
                    .with(Box::new(DefederationCascadeScenario::new(
                        CascadeConfig::default(),
                    )))
                    .with(Box::new(ChurnScenario::new(ChurnConfig::default()))),
            )
        },
    },
    Entry {
        name: "retry",
        about: "churn at ten times the transient-outage rate, delivery retries armed",
        build: || {
            compose(retrying(ChurnConfig {
                transient_p: 0.5,
                ..ChurnConfig::default()
            }))
        },
    },
    Entry {
        name: "import-full",
        about: "every admin imports the union blocklist, from the fresh install",
        build: || import_arm(AdoptionModel::Full),
    },
    Entry {
        name: "import-partial",
        about: "admins import heavy-tailed subsets of it (§4.2), from the fresh install",
        build: || import_arm(AdoptionModel::HeavyTail { alpha: 3.0 }),
    },
    Entry {
        name: "saturation-storm",
        about: "12x storm from the fourth hour for 30 days: nearly every tick saturated",
        build: saturation_storm,
    },
    Entry {
        name: "churn-flood",
        about: "eight rounds of transient outages at 95% of instances",
        build: || Box::new(ChurnScenario::new(flood_churn())),
    },
    Entry {
        name: "retry-flood",
        about: "churn-flood with delivery retries armed",
        build: || compose(retrying(flood_churn())),
    },
    Entry {
        name: "delta-flood",
        about: "full and heavy-tailed imports one domain per event, 0.9 cascade, rollout",
        build: || compose(delta_writers()),
    },
    Entry {
        name: "policy-flood",
        about: "delta-flood and retry-flood in one flat timeline",
        build: || compose(delta_writers().into_iter().chain(retrying(flood_churn()))),
    },
];

/// The scenario catalog, in a fixed order.
pub fn registry() -> &'static [Entry] {
    &REGISTRY
}

/// The registry entry called `name`.
pub fn lookup(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}
