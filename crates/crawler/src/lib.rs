//! # fediscope-crawler
//!
//! The measurement apparatus of §3, reimplemented:
//!
//! 1. **Seeding** — start from a directory of Pleroma instances (the
//!    distsn.org / the-federation.info stand-in);
//! 2. **Discovery** — expand through each Pleroma instance's Peers API
//!    (`/api/v1/instance/peers`), classifying every discovered domain via
//!    nodeinfo (Pleroma vs Mastodon vs other);
//! 3. **Metadata** — collect `/api/v1/instance` (user/post counts, version,
//!    registrations, and the exposed moderation policies with their
//!    `SimplePolicy` targets), with periodic re-polling (the paper polled
//!    every 4 hours for ~5 months);
//! 4. **Timelines** — page through
//!    `/api/v1/timelines/public?local=true` with `max_id` pagination to
//!    collect every public post;
//! 5. **Error taxonomy** — record the same failure classes the paper
//!    reports (404/403/502/503/410, plus DNS failures).
//!
//! The crawler is synchronous: each BFS level's instances are crawled on
//! the rayon pool, requests to one instance are sequential, and the
//! dataset is sorted by domain, so the whole run is deterministic over
//! `fediscope-simnet` at any worker count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod crawl;
mod dataset;
mod persist;

pub use crawl::{Crawler, CrawlerConfig};
pub use dataset::{
    CollectedPost, CrawlOutcome, CrawledInstance, Dataset, InstanceMetadata, MetadataSnapshot,
    PageAccount, PageStatus, PageTag, TimelineCrawl,
};
