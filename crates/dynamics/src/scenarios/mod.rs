//! The shipped scenarios: rollout (and its inaction null arm), cascade,
//! churn, storm, blocklist imports (full or §4.2-partial), the
//! delivery-reliability enabler — and the [`Composite`] multiplexer
//! that runs any of them in one timeline.
//!
//! [`registry`] is the one catalog of runnable scenarios: the CLI's
//! `dynamics <name>` and `experiment --arms` look names up in it, and
//! the root `tests/contracts.rs` matrix checks every entry.

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

static REGISTRY: [Entry; 10] = [
    Entry {
        name: "inaction",
        about: "null arm: moderation stripped to the fresh install, nothing changes",
        build: || Box::new(InactionScenario),
    },
    Entry {
        name: "rollout",
        about: "staged MRF rollout from the fresh install",
        build: || Box::new(PolicyRolloutScenario::new(RolloutConfig::default())),
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
                    .with(Box::new(PolicyRolloutScenario::new(
                        RolloutConfig::default(),
                    ))),
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
            Box::new(
                Composite::new()
                    .with(Box::new(ReliabilityScenario::default()))
                    .with(Box::new(ChurnScenario::new(ChurnConfig {
                        transient_p: 0.5,
                        ..ChurnConfig::default()
                    }))),
            )
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
];

/// The scenario catalog, in a fixed order.
pub fn registry() -> &'static [Entry] {
    &REGISTRY
}

/// The registry entry called `name`.
pub fn lookup(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}
