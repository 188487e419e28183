//! Offline shim for the `rayon` surface this workspace uses.
//!
//! Parallel iterators over indexed inputs with `map` / `fold` / `reduce` /
//! `for_each` / `collect`, run on `std::thread::scope` threads spawned
//! per call (the calling thread is one of the workers). One driver,
//! `run_blocks`, runs every terminal: workers claim index blocks from a
//! shared counter until none are left, and the outputs come back in
//! index order. What an index stands for differs:
//!
//! - **An element** for the order-preserving terminals, `collect` /
//!   `collect_vec` and `for_each`. A worker that draws cheap elements
//!   simply claims more blocks, so heavy-tailed inputs (a few large
//!   instances at the low indices) keep every worker busy to the end of
//!   the call.
//! - **A contiguous chunk**, one per worker, for `fold`, `reduce` and
//!   `sum`. Their partial results, and so the grouping of a
//!   non-associative (e.g. floating-point) combine, depend on where the
//!   chunks fall; fixed chunks make that grouping a function of the
//!   input length and the worker count alone.
//!
//! The API shape matches the real crate, so swapping it back in is a
//! manifest-only change.

use std::sync::atomic::{AtomicUsize, Ordering};

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Mirrors `rayon::ThreadPoolBuilder` far enough to set the global
/// parallelism level.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error from [`ThreadPoolBuilder::build_global`] (never produced by the
/// shim; the global level is freely re-settable).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (0 = one per core).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the setting globally.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// The current global parallelism level.
pub fn current_num_threads() -> usize {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// The glob-import module, as in real rayon.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Chunk boundaries splitting `len` items over the worker count.
fn chunk_bounds(len: usize) -> Vec<(usize, usize)> {
    let workers = current_num_threads().max(1).min(len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        if size == 0 {
            continue;
        }
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Items per claimed block in [`run_blocks`]. Claiming every item from
/// the shared counter costs more than the balance it buys: on the
/// ledger's `storm` workload (shared 2-vCPU x86-64 host, seed 1534,
/// 30 s runs) one-item claiming ran at a median 28.7 M deliveries/s
/// against 35.1 M/s for 32-item blocks, slower in all 10 alternating
/// rounds.
const BLOCK: usize = 32;

/// Computes `item(i)` for every `i in 0..len` and returns the outputs in
/// index order. Workers claim `BLOCK`-item blocks (single items when
/// `len < BLOCK × workers`, so a handful of long items still spread)
/// from one counter until none are left; the calling thread is one of
/// them.
fn run_blocks<T, F>(len: usize, item: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = current_num_threads().max(1);
    let block = if len < BLOCK * workers { 1 } else { BLOCK };
    let blocks = len.div_ceil(block);
    let workers = workers.min(blocks);
    if workers <= 1 {
        return (0..len).map(item).collect();
    }
    let span = |b: usize| b * block..((b + 1) * block).min(len);
    let next = AtomicUsize::new(0);
    // Each worker's blocks, and so its outputs, come out in ascending
    // block order: the counter only moves forward. `Relaxed` suffices
    // because the counter publishes no data; outputs return via `join`.
    let claim = || {
        let (mut claimed, mut out) = (Vec::new(), Vec::new());
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= blocks {
                return (claimed, out);
            }
            claimed.push(b);
            out.extend(span(b).map(&item));
        }
    };
    let per_worker: Vec<(Vec<usize>, Vec<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mine = claim();
        let mut all: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rayon shim worker panicked"))
            .collect();
        all.push(mine);
        all
    });
    let mut owner = vec![0; blocks];
    let mut outputs = Vec::with_capacity(per_worker.len());
    for (w, (claimed, out)) in per_worker.into_iter().enumerate() {
        for b in claimed {
            owner[b] = w;
        }
        outputs.push(out.into_iter());
    }
    let mut ordered = Vec::with_capacity(len);
    for (b, &w) in owner.iter().enumerate() {
        ordered.extend(outputs[w].by_ref().take(span(b).len()));
    }
    ordered
}

/// The parallel-iterator core. Implementors expose indexed access so the
/// driver can hand out blocks and chunks of indices.
pub trait ParallelIterator: Sized + Send + Sync {
    /// Item produced per element.
    type Item: Send;

    /// Number of elements.
    fn pi_len(&self) -> usize;

    /// Produces the element at `index`. `&self` because blocks and chunks
    /// run concurrently.
    fn pi_get(&self, index: usize) -> Self::Item;

    /// Maps each element through `f`.
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync + Send>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Per-chunk folds: each worker folds its chunk from `identity()`.
    /// Combine the partials with [`Fold::reduce`].
    fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync + Send,
        F: Fn(A, Self::Item) -> A + Sync + Send,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }

    /// Runs `f` on every element.
    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F) {
        run_blocks(self.pi_len(), |i| f(self.pi_get(i)));
    }

    /// Collects into any `FromIterator` container, preserving element
    /// order. (Real rayon bounds this on `FromParallelIterator`; every
    /// container this workspace collects into implements both.)
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.collect_vec().into_iter().collect()
    }

    /// Collects into a `Vec`, preserving order.
    fn collect_vec(self) -> Vec<Self::Item> {
        run_blocks(self.pi_len(), |i| self.pi_get(i))
    }

    /// Reduces all elements with `op`, starting each worker at
    /// `identity()`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let bounds = chunk_bounds(self.pi_len());
        let this = &self;
        let op_ref = &op;
        let partials = run_blocks(bounds.len(), |c| {
            let (s, e) = bounds[c];
            let mut acc = this.pi_get(s);
            for i in (s + 1)..e {
                acc = op_ref(acc, this.pi_get(i));
            }
            acc
        });
        partials.into_iter().fold(identity(), op)
    }

    /// Sums all elements.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send + std::iter::Sum<S>,
    {
        let bounds = chunk_bounds(self.pi_len());
        let this = &self;
        let partials = run_blocks(bounds.len(), |c| {
            let (s, e) = bounds[c];
            (s..e).map(|i| this.pi_get(i)).sum::<S>()
        });
        partials.into_iter().sum()
    }

    /// Counts the elements.
    fn count(self) -> usize {
        self.pi_len()
    }
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts.
    fn into_par_iter(self) -> Self::Iter;
}

/// Conversion into a borrowing parallel iterator (`par_iter`).
pub trait IntoParallelRefIterator<'data> {
    /// Element type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrows into a parallel iterator.
    fn par_iter(&'data self) -> Self::Iter;
}

/// Borrowed-slice parallel iterator.
pub struct SliceParIter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceParIter<'a, T> {
    type Item = &'a T;
    fn pi_len(&self) -> usize {
        self.slice.len()
    }
    fn pi_get(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn par_iter(&'data self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn par_iter(&'data self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelIterator for &'data [T] {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn into_par_iter(self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelIterator for &'data Vec<T> {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn into_par_iter(self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

/// Owned-`Vec` parallel iterator (`vec.into_par_iter()`): elements move
/// to exactly one worker each. Slots hand elements out by value from
/// `&self` (the driver visits every index exactly once, so each take
/// succeeds; the mutex is uncontended — one lock per element).
pub struct VecParIter<T: Send> {
    slots: Vec<std::sync::Mutex<Option<T>>>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;
    fn pi_len(&self) -> usize {
        self.slots.len()
    }
    fn pi_get(&self, index: usize) -> T {
        self.slots[index]
            .lock()
            .expect("vec par-iter slot poisoned")
            .take()
            .expect("vec par-iter element taken twice")
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;
    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter {
            slots: self
                .into_iter()
                .map(|v| std::sync::Mutex::new(Some(v)))
                .collect(),
        }
    }
}

/// Owned range parallel iterator (`(0..n).into_par_iter()`).
pub struct RangeParIter {
    start: usize,
    len: usize,
}

impl ParallelIterator for RangeParIter {
    type Item = usize;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_get(&self, index: usize) -> usize {
        self.start + index
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = RangeParIter;
    fn into_par_iter(self) -> RangeParIter {
        RangeParIter {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

/// Map adapter.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, U, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    U: Send,
    F: Fn(B::Item) -> U + Sync + Send,
{
    type Item = U;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_get(&self, index: usize) -> U {
        (self.f)(self.base.pi_get(index))
    }
}

/// Fold adapter: holds the per-worker fold; terminal ops live here.
pub struct Fold<B, ID, F> {
    base: B,
    identity: ID,
    fold_op: F,
}

impl<B, A, ID, F> Fold<B, ID, F>
where
    B: ParallelIterator,
    A: Send,
    ID: Fn() -> A + Sync + Send,
    F: Fn(A, B::Item) -> A + Sync + Send,
{
    /// Folds each chunk, then combines the per-chunk accumulators with
    /// `op` starting from `identity()`.
    pub fn reduce<ID2, OP>(self, identity: ID2, op: OP) -> A
    where
        ID2: Fn() -> A + Sync + Send,
        OP: Fn(A, A) -> A + Sync + Send,
    {
        let bounds = chunk_bounds(self.base.pi_len());
        let base = &self.base;
        let fold_id = &self.identity;
        let fold_op = &self.fold_op;
        let partials = run_blocks(bounds.len(), |c| {
            let (s, e) = bounds[c];
            let mut acc = fold_id();
            for i in s..e {
                acc = fold_op(acc, base.pi_get(i));
            }
            acc
        });
        partials.into_iter().fold(identity(), op)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// Serialises the tests that set the global worker count.
    static POOL: Mutex<()> = Mutex::new(());

    /// Runs `f` with the global pool set to `workers`.
    fn at_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        crate::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build_global()
            .unwrap();
        f()
    }

    /// Lengths at and around the block edges: below, at and above one
    /// block, two blocks, the one-item threshold at 8 workers, and the
    /// paper's 9,969 instances (a partial last block).
    const EDGE_LENS: [usize; 10] = [0, 1, 31, 32, 33, 64, 255, 256, 257, 9_969];

    #[test]
    fn collect_preserves_order() {
        for workers in [1, 2, 8] {
            for len in EDGE_LENS {
                let data: Vec<usize> = (0..len).collect();
                let doubled = at_workers(workers, || data.par_iter().map(|&x| x * 2).collect_vec());
                let want: Vec<usize> = data.iter().map(|&x| x * 2).collect();
                assert_eq!(doubled, want, "len {len} at {workers} workers");
            }
        }
    }

    #[test]
    fn for_each_visits_every_index_once() {
        for workers in [1, 2, 8] {
            for len in EDGE_LENS {
                let visits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                at_workers(workers, || {
                    (0..len).into_par_iter().for_each(|i| {
                        visits[i].fetch_add(1, Ordering::Relaxed);
                    })
                });
                assert!(
                    visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                    "len {len} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn vec_par_iter_moves_every_element_once() {
        struct Counted(usize, Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::Relaxed);
            }
        }
        for workers in [1, 2, 8] {
            for len in EDGE_LENS {
                let drops = Arc::new(AtomicUsize::new(0));
                let items: Vec<Counted> =
                    (0..len).map(|i| Counted(i, Arc::clone(&drops))).collect();
                let got = at_workers(workers, || items.into_par_iter().map(|c| c.0).collect_vec());
                assert_eq!(got, (0..len).collect::<Vec<_>>());
                assert_eq!(
                    drops.load(Ordering::Relaxed),
                    len,
                    "len {len} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn folds_keep_one_contiguous_chunk_per_worker() {
        for workers in [1, 2, 8] {
            for len in EDGE_LENS {
                let data: Vec<f64> = (0..len).map(|i| 1.0 / (i as f64 + 3.0)).collect();
                let (bounds, partials, sum, reduced) = at_workers(workers, || {
                    // Each fold partial records the indices it saw.
                    let partials = (0..len)
                        .into_par_iter()
                        .fold(
                            || vec![Vec::new()],
                            |mut seen: Vec<Vec<usize>>, i| {
                                seen[0].push(i);
                                seen
                            },
                        )
                        .reduce(Vec::new, |mut all, seen| {
                            all.extend(seen);
                            all
                        });
                    (
                        crate::chunk_bounds(len),
                        partials,
                        data.par_iter().map(|&x| x).sum::<f64>(),
                        data.par_iter().map(|&x| x).reduce(|| 0.0, |a, b| a + b),
                    )
                });
                let chunks: Vec<Vec<usize>> =
                    bounds.iter().map(|&(s, e)| (s..e).collect()).collect();
                assert_eq!(partials, chunks, "len {len} at {workers} workers");
                // Float sums and reductions group by those same chunks.
                let chunk_sums: Vec<f64> = bounds
                    .iter()
                    .map(|&(s, e)| data[s..e].iter().sum::<f64>())
                    .collect();
                assert_eq!(sum.to_bits(), chunk_sums.iter().sum::<f64>().to_bits());
                let folded = chunk_sums.iter().fold(0.0, |a, &b| a + b);
                assert_eq!(reduced.to_bits(), folded.to_bits());
            }
        }
    }

    #[test]
    fn short_inputs_spread_one_item_per_worker() {
        // Each item waits until the other has started: two items run
        // one after the other would make the first one time out.
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let met = at_workers(2, || {
            (0..2_usize)
                .into_par_iter()
                .map(|i| {
                    started[i].store(true, Ordering::Release);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !started[1 - i].load(Ordering::Acquire) {
                        if Instant::now() > deadline {
                            return false;
                        }
                        std::thread::yield_now();
                    }
                    true
                })
                .collect_vec()
        });
        assert_eq!(met, [true, true], "the two items ran one after the other");
    }

    #[test]
    fn map_fold_reduce_matches_sequential() {
        let data: Vec<u64> = (0..10_000).collect();
        let total = data
            .par_iter()
            .map(|&x| x * 2)
            .fold(|| 0u64, |acc, x| acc + x)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(total, data.iter().map(|&x| x * 2).sum::<u64>());
    }

    #[test]
    fn empty_input_is_fine() {
        let data: Vec<u64> = Vec::new();
        let total = data
            .par_iter()
            .map(|&x| x)
            .fold(|| 0u64, |a, x| a + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 0);
        assert_eq!(data.par_iter().map(|&x| x).collect_vec(), Vec::<u64>::new());
    }

    #[test]
    fn thread_knob_applies() {
        assert_eq!(at_workers(2, crate::current_num_threads), 2);
        assert!(at_workers(0, crate::current_num_threads) >= 1);
    }
}
