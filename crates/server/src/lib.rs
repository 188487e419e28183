//! # fediscope-server
//!
//! Simulated fediverse instance servers. A [`InstanceServer`] hosts users,
//! posts and (for Pleroma) an MRF policy pipeline, and serves the public
//! APIs the paper's measurement campaign used:
//!
//! | Endpoint | Paper usage |
//! |---|---|
//! | `GET /api/v1/instance` | metadata every 4 h: user/post counts, version, registrations, **enabled policies and their targets** |
//! | `GET /api/v1/instance/peers` | discovery: "the list of instances that each Pleroma instance has ever federated with" |
//! | `GET /api/v1/timelines/public?local=true` | the post collection (14.5 M posts) |
//! | `GET /.well-known/nodeinfo`, `/nodeinfo/2.0` | software identification (Pleroma vs Mastodon) |
//! | `POST /inbox` | federation deliveries (Create/Follow/...), filtered through MRF |
//!
//! Pleroma instances expose their moderation configuration through the
//! instance metadata (unless the admin hides it — 8.1% do, §4.1); Mastodon
//! instances serve the same Mastodon API surface but never expose policies,
//! which is exactly why the paper centres on Pleroma.
//!
//! [`Federator`] glues servers to `fediscope-simnet`: it fans out published
//! activities to follower instances' inboxes over the simulated network.
//! A server keeps no inbox or outbox log: its inbox remembers only the ids
//! of the remote activities it ingested, since delivery is at-least-once
//! and a replayed id must be an accepted no-op.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod api;
mod federate;
mod metrics;
mod server;

pub use api::{register_on, Account, Attachment, Mention, Status, Tag, DEFAULT_PAGE, MAX_PAGE};
pub use federate::{DeliveryReport, Federator};
pub use metrics::prometheus_text;
pub use server::{InstanceServer, PublishError, ServerStats};
