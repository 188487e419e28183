//! # fediscope-synthgen
//!
//! A calibrated synthetic fediverse. The paper measured the *live* network
//! of December 2020 – April 2021; that population no longer exists, so this
//! crate generates one whose **measured statistics reproduce the paper's**:
//!
//! * the census of §3 — 1,534 Pleroma + 8,435 non-Pleroma instances, 1,298
//!   crawlable, the exact 404/403/502/503/410 failure taxonomy, 111 K
//!   users, 24.5 M posts (scaled by [`WorldConfig::post_scale`]);
//! * the policy prevalence of Table 3 / Figures 1 & 7;
//! * the `SimplePolicy` action distribution of Figures 2 & 3, including
//!   the 62.8% reject share of moderation events;
//! * the reject graph of §4.2 — 1,200 rejected instances (202 Pleroma),
//!   the heavy-tailed reject-count distribution, Table 1's named top
//!   instances, posts↔rejects Spearman ≈ 0.38 and no retaliation;
//! * the harm profile of §5 / Table 2 — user mean-score distribution with
//!   the exact non-harmful shares at thresholds 0.5–0.9, the 1:11 harmful
//!   post ratio, and the 69.7/57.6/43.9% attribute split.
//!
//! Everything flows from a single seed: `World::generate(config)` is
//! bit-for-bit reproducible.
//!
//! The output [`World`] is plain data (profiles, users, posts, moderation
//! configs, peer sets). The facade crate's `harness` module materialises it
//! into running `fediscope-server` instances on a `fediscope-simnet`
//! network for the crawler to measure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod character;
mod config;
mod content;
mod harm;
mod moderation;
mod names;
mod population;
mod scenario;
mod shard;
mod world;

pub use character::InstanceCharacter;
pub use config::{Parallelism, WorldConfig};
pub use content::ContentComposer;
pub use harm::{HarmProfile, UserHarm};
pub use scenario::{PostSeed, ScenarioSeeds, SeedKnobs};
pub use shard::{
    read_manifest, stream_shard_dir, write_shard_dir, ShardError, ShardManifest, ShardReader,
    MANIFEST_FILE, SHARD_FILE,
};
pub use world::{
    GeneratedInstance, GeneratedUser, ShardWriter, World, WorldSink, WORLDGEN_CHUNK,
    WORLDGEN_CHUNK_RECORDS,
};
