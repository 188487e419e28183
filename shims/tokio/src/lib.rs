//! Offline shim for the last `tokio` surface in the repository: the
//! benchmark (`ledger/`) builds a runtime and hands `block_on` the
//! crawler's `Crawler::run` and one `async` block. No workspace crate
//! depends on this shim. It goes once the benchmark calls the
//! synchronous `Crawler::crawl`.
//!
//! There is no executor, I/O reactor or timer: `block_on` polls its one
//! future on the calling thread and parks between polls.

#![forbid(unsafe_code)]

pub mod runtime;
