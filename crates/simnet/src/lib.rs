//! # fediscope-simnet
//!
//! An in-memory simulated network standing in for the Internet the paper's
//! crawler ran over. Instances register HTTP-style endpoints under their
//! domain; clients issue requests by domain, and [`SimNet::request`], a
//! plain function, calls the endpoint in place on the requesting thread.
//! Nothing runs in the background and nothing needs a runtime: dropping
//! the network frees its endpoints at once.
//!
//! The network injects the exact failure taxonomy of §3 — for the 236
//! unreachable Pleroma instances: 110×404, 84×403, 24×502, 11×503, 7×410 —
//! via per-domain [`FailureMode`]s, and keeps request statistics the crawl
//! census reports on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod failure;
mod http;
mod net;

pub use failure::{FailureClass, FailureMode};
pub use http::{HttpRequest, HttpResponse, Method, StatusCode};
pub use net::{Endpoint, FailureTaxonomy, FnEndpoint, NetError, NetStats, SimNet};
