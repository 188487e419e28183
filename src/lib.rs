//! # fediscope
//!
//! A toolkit for measuring and analysing content moderation in the
//! decentralised web — a full reproduction of *"Exploring Content
//! Moderation in the Decentralised Web: The Pleroma Case"* (ACM CoNEXT
//! 2021).
//!
//! The workspace splits into substrates and apparatus:
//!
//! * [`core`] — domain model and the complete Pleroma MRF
//!   policy engine (every in-built policy, the Figure 7 custom policies,
//!   and the §7 strawman proposals);
//! * [`activitypub`] — the federation substrate:
//!   follow graph, timelines, delivery fan-out;
//! * [`simnet`] — an in-memory network with the §3
//!   failure taxonomy;
//! * [`server`] — Pleroma/Mastodon instance servers with
//!   the crawled API surface;
//! * [`perspective`] — the Perspective-API
//!   substitute scoring toxicity / profanity / sexually-explicit content;
//! * [`synthgen`] — the calibrated synthetic fediverse;
//! * [`crawler`] — the §3 measurement campaign;
//! * [`dynamics`] — the deterministic discrete-event
//!   engine for time-evolving scenarios (policy rollouts, defederation
//!   cascades, instance churn, toxicity storms, blocklist imports), plus
//!   the counterfactual experiment layer: paired arms over one shared
//!   world with exact per-tick trace deltas against a baseline arm;
//! * [`analysis`] — every figure, table and headline
//!   statistic of the paper, plus the §6/§7 extension studies and the
//!   dynamics time-series tables.
//!
//! The [`harness`] module materialises a generated world into running
//! servers and drives a crawl — the one-call entry point used by the
//! CLI, the examples, the integration tests and the benchmark. The
//! [`census`] module couples the two layers: it drives a *live* network
//! from the dynamics event stream (via
//! [`fediscope_dynamics::LiveNetBridge`]) and re-runs the §3 census
//! between ticks, measuring the crawler's under-count bias while the
//! fleet churns underneath it.
//!
//! ## Quickstart
//!
//! ```no_run
//! use fediscope::harness;
//! use fediscope_synthgen::WorldConfig;
//!
//! # #[tokio::main(flavor = "current_thread")] async fn main() {
//! let world = fediscope_synthgen::World::generate(WorldConfig::test_small());
//! let dataset = harness::crawl_world(&world, Default::default()).await;
//! let census = fediscope_analysis::headline::crawl_census(&dataset);
//! println!("{}", fediscope_analysis::report::render_comparisons("Census", &census));
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fediscope_activitypub as activitypub;
pub use fediscope_analysis as analysis;
pub use fediscope_core as core;
pub use fediscope_crawler as crawler;
pub use fediscope_dynamics as dynamics;
pub use fediscope_perspective as perspective;
pub use fediscope_server as server;
pub use fediscope_simnet as simnet;
pub use fediscope_synthgen as synthgen;

pub mod census;
pub mod harness;

/// Commonly used items in one import.
pub mod prelude {
    pub use fediscope_analysis::report::{render_comparisons, render_table, Comparison};
    pub use fediscope_analysis::HarmAnnotations;
    pub use fediscope_core::catalog::PolicyKind;
    pub use fediscope_core::config::InstanceModerationConfig;
    pub use fediscope_core::id::{Domain, InstanceId, PostId, UserId, UserRef};
    pub use fediscope_core::model::{Activity, InstanceKind, InstanceProfile, Post, User};
    pub use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
    pub use fediscope_core::mrf::{Inbound, MrfPipeline, MrfPolicy, PolicyContext, PolicyVerdict};
    pub use fediscope_core::time::{SimDuration, SimTime};
    pub use fediscope_crawler::{Crawler, CrawlerConfig, Dataset};
    pub use fediscope_dynamics::{DynamicsConfig, DynamicsEngine, DynamicsTrace, Scenario};
    pub use fediscope_perspective::{Attribute, AttributeScores, Scorer};
    pub use fediscope_server::InstanceServer;
    pub use fediscope_simnet::{FailureMode, SimNet};
    pub use fediscope_synthgen::{ScenarioSeeds, World, WorldConfig};
}
