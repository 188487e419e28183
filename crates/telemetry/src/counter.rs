//! Sharded hot-path counters.
//!
//! The engine's measurement fan-out runs on a scoped thread pool whose
//! workers have no stable index (the rayon shim spawns fresh scoped
//! threads per parallel call), so shard assignment is self-contained:
//! each OS thread picks a shard once, round-robin over a fixed shard
//! array, and keeps it for its lifetime via a thread-local. An increment
//! is then one relaxed `fetch_add` on that shard — no CAS loop, no lock,
//! and (thanks to cache-line padding) no false sharing between workers.
//!
//! Reads merge the shards **in fixed shard order**. `u64` wrapping
//! addition is associative and commutative, so a quiescent counter
//! snapshots to the same value no matter which worker landed on which
//! shard — the "counter merges are order-stable" half of the zero-drift
//! contract, proptested below (`counter_merge_is_order_stable`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards per counter. Comfortably above any worker count the
/// engine runs with (tests sweep at most 8 workers; the
/// round-robin cursor wraps for larger fleets, which only costs shard
/// sharing, never correctness).
pub(crate) const SHARDS: usize = 64;

/// One cache line per shard so two workers incrementing neighbouring
/// shards never bounce the same line.
#[repr(align(64))]
struct Shard(AtomicU64);

/// Round-robin cursor handing each new thread its home shard.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home shard index, chosen once on first use.
    static HOME_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// A lock-free counter sharded across `SHARDS` (64) cache-line-padded
/// atomics. Writes are one relaxed `fetch_add` on the calling thread's
/// home shard; reads merge all shards in shard order.
pub struct ShardedCounter {
    shards: [Shard; SHARDS],
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        ShardedCounter {
            shards: std::array::from_fn(|_| Shard(AtomicU64::new(0))),
        }
    }

    /// Adds `n` on the calling thread's home shard.
    #[inline]
    pub fn add(&self, n: u64) {
        HOME_SHARD.with(|&s| {
            self.shards[s].0.fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Increments by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Merged value: shards summed in fixed shard order (wrapping, so a
    /// merge can never panic even under absurd totals).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }

    /// Zeroes every shard.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        /// Counter merges are order-stable: feed the same additions
        /// through any permutation of spawn order (so threads land on
        /// different home shards), the merged value is always the plain
        /// sum.
        #[test]
        fn counter_merge_is_order_stable(
            amounts in proptest::collection::vec(1_u64..10_000, 2..12),
            rotate in 0_usize..12,
        ) {
            let expected: u64 = amounts.iter().sum();
            let mut rotated = amounts.clone();
            rotated.rotate_left(rotate % amounts.len());
            for work in [amounts, rotated] {
                let counter = ShardedCounter::new();
                std::thread::scope(|scope| {
                    for n in &work {
                        scope.spawn(|| counter.add(*n));
                    }
                });
                prop_assert_eq!(counter.get(), expected);
            }
        }
    }

    #[test]
    fn single_thread_accumulates() {
        let c = ShardedCounter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Arc::new(ShardedCounter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn merge_is_order_stable_across_thread_placements() {
        // Two counters fed the same per-thread workloads but with the
        // threads started in opposite orders (so home shards differ)
        // must merge to the same total.
        let totals: Vec<u64> = [false, true]
            .iter()
            .map(|&reversed| {
                let c = Arc::new(ShardedCounter::new());
                let mut work: Vec<u64> = (1..=6).map(|k| k * 111).collect();
                if reversed {
                    work.reverse();
                }
                std::thread::scope(|scope| {
                    for n in work {
                        let c = Arc::clone(&c);
                        scope.spawn(move || c.add(n));
                    }
                });
                c.get()
            })
            .collect();
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[0], (1..=6u64).map(|k| k * 111).sum::<u64>());
    }
}
