//! # fediscope-activitypub
//!
//! The federation substrate: an ActivityPub-style subscription protocol in
//! the shape the paper describes (§2 *Background*).
//!
//! > "A user on one instance can follow another user on a separate
//! > instance. [...] the local instance subscribes to the remote user on
//! > behalf of the local user, thereby federating with the remote
//! > instance."
//!
//! This crate provides the deterministic state machinery an instance server
//! builds on:
//!
//! * [`FollowGraph`] — who follows whom, and the instance-level *federation
//!   links* (peers) derived from it, which power the Peers API the paper's
//!   crawler used for discovery;
//! * [`Timelines`] — the three timelines of §3: *home*, *public* (local)
//!   and the *whole known network* (federated);
//! * [`Inbox`] — the ids of received activities, so that replays are
//!   dropped (delivery is at-least-once);
//! * [`Mailman`] — pure fan-out logic computing which instances must
//!   receive a given activity.
//!
//! Everything here is synchronous and allocation-light; the transport
//! lives in `fediscope-simnet` and the servers in `fediscope-server`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod follow;
mod mailbox;
mod timeline;

pub use follow::{FollowGraph, FollowOutcome};
pub use mailbox::{Inbox, Mailman};
pub use timeline::{TimelineKind, Timelines};
