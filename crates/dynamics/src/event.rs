//! The event queue: a calendar of fixed-width buckets over logical time.
//!
//! Events are ordered by `(time, sequence)` — the sequence number is
//! assigned at scheduling time, so two events scheduled for the same tick
//! pop in scheduling order. That total order is what makes a run
//! replayable: the control phase (event application) is single-threaded
//! and consumes events in exactly this order, regardless of how the
//! measurement phase fans out.
//!
//! The calendar keys its buckets by `at >> BUCKET_SHIFT`, so each bucket
//! covers 1,024 s of logical time whatever the tick length, and a
//! `BTreeMap` keeps the buckets in time order. Each bucket is a binary
//! heap ordered by `(time, sequence)`, so a push or pop costs O(log n)
//! in that one bucket's size, and many distinct instants share one
//! allocation (backoff jitter spreads a retry storm's reschedules over
//! many distinct instants). Narrow buckets keep that size small: one
//! global heap, or 16,384 s buckets, drained a retry storm more slowly.
//!
//! An entry is either one event or a [`Run`]: one blocklist import's
//! `AdoptWave` adoptions at one instant, in pop order. A run reserves
//! its sequence numbers when it is scheduled and sits in its bucket
//! keyed by the sequence number of its next adoption, so an import is
//! one entry per instant its waves land at, not one per adoption.
//! [`EventQueue::pop_due_run`], the engine's pop, hands a due run over
//! whole; [`EventQueue::pop_due`] takes one adoption off it and puts the
//! rest back, keyed by its next adoption. Both keep the exact
//! `(time, sequence)` order, because no other entry at a run's instant
//! has a sequence number inside the run's range: the import reserves
//! its numbers in one block, and anything scheduled later takes a
//! higher one. A zero-delay follow-up scheduled mid-drain — into an
//! earlier instant, or behind a run still expanding at the same
//! instant — stays in order because every pop re-reads the first
//! bucket.

use fediscope_core::rollout::RolloutWave;
use fediscope_core::time::SimTime;
use fediscope_simnet::FailureMode;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// A state transition the engine knows how to apply.
///
/// Instances are addressed by their seed index (dense `u32`), not by
/// domain: event application is the hot control path of cascade runs and
/// never needs a hash lookup. Wave payloads ride behind an `Arc` so a
/// shared blocklist import (one wave, thousands of adopters) schedules
/// by refcount bump instead of deep-cloning target lists per instance.
#[derive(Debug, Clone)]
pub enum Event {
    /// A staged-rollout wave lands on an instance: enable the wave's
    /// policy kinds and merge its `SimplePolicy` targets.
    AdoptWave {
        /// Adopting instance.
        instance: u32,
        /// The wave to apply (shared — imports schedule one wave to
        /// many instances).
        wave: Arc<RolloutWave>,
    },
    /// `instance` defederates from `target`: reject-lists the target's
    /// domain and tears the federation link down.
    Defederate {
        /// The blocking instance.
        instance: u32,
        /// The blocked instance.
        target: u32,
    },
    /// The instance stops answering, in the given §3 failure mode.
    GoDown {
        /// The failing instance.
        instance: u32,
        /// How it fails (404/403/502/503/410).
        mode: FailureMode,
    },
    /// The instance comes back.
    Recover {
        /// The recovering instance.
        instance: u32,
    },
    /// Sets the instance's emission-rate multiplier (storm bursts).
    SetRate {
        /// The instance whose posting rate changes.
        instance: u32,
        /// New multiplier (1.0 = baseline).
        rate: f64,
    },
    /// A scheduled redelivery attempt for a batch that failed
    /// transiently: `sender` retries its pending deliveries to
    /// `receiver`. Scheduled by the engine itself when a retry-enabled
    /// run sees an instance go down in a transient §3 mode; fires on the
    /// same calendar as every other event, so the backoff schedule is
    /// part of the deterministic total order.
    RetryDelivery {
        /// The instance retrying its outbound batch.
        sender: u32,
        /// The instance the batch is addressed to.
        receiver: u32,
        /// Which attempt this is (1-based; bounded by the retry budget).
        attempt: u32,
    },
}

/// An event with its scheduled time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling order among same-time events.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// One blocklist import's `AdoptWave` adoptions at one instant, in pop
/// order, scheduled as a single queue entry by
/// [`EventQueue::schedule_runs`].
///
/// Each adoption carries a sequence *offset* into the block of numbers
/// the import reserves; the queue adds the block's base when the runs
/// are scheduled. Offsets ascend through a run, so a run pops in the
/// same order its adoptions would have popped as separate events. As an
/// iterator it yields the remaining adoptions as `(seq, event)`.
#[derive(Debug)]
pub(crate) struct Run {
    base: u64,
    items: RunItems,
}

#[derive(Debug)]
enum RunItems {
    /// Every instance adopts each wave, instance-major; `(k, j)` is
    /// the next adoption's instance and wave index.
    Shared {
        instances: Arc<[u32]>,
        waves: Vec<Arc<RolloutWave>>,
        first: u64,
        stride: u64,
        k: usize,
        j: usize,
    },
    /// Explicit `(offset, instance, wave)` adoptions.
    Listed(std::vec::IntoIter<(u64, u32, Arc<RolloutWave>)>),
}

impl Run {
    /// Every one of `instances` adopts each of `waves` (a full import),
    /// instance-major and wave-minor. The adoption of wave `j` by the
    /// `k`-th instance has offset `first + k * stride + j`.
    pub(crate) fn shared(
        instances: Arc<[u32]>,
        waves: Vec<Arc<RolloutWave>>,
        first: u64,
        stride: u64,
    ) -> Run {
        Run {
            base: 0,
            items: RunItems::Shared {
                instances,
                waves,
                first,
                stride,
                k: 0,
                j: 0,
            },
        }
    }

    /// The listed `(offset, instance, wave)` adoptions (a partial
    /// import), in ascending offset order.
    pub(crate) fn listed(items: Vec<(u64, u32, Arc<RolloutWave>)>) -> Run {
        debug_assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
        Run {
            base: 0,
            items: RunItems::Listed(items.into_iter()),
        }
    }

    /// Adoptions not yet popped.
    fn len(&self) -> usize {
        match &self.items {
            RunItems::Shared {
                instances,
                waves,
                k,
                j,
                ..
            } => (instances.len() - k) * waves.len() - j,
            RunItems::Listed(items) => items.len(),
        }
    }

    /// The sequence number of the next adoption, if any is left.
    fn next_seq(&self) -> Option<u64> {
        let offset = match &self.items {
            RunItems::Shared {
                instances,
                waves,
                first,
                stride,
                k,
                j,
            } => (*k < instances.len() && !waves.is_empty())
                .then(|| first + *k as u64 * stride + *j as u64)?,
            RunItems::Listed(items) => items.as_slice().first()?.0,
        };
        Some(self.base + offset)
    }

    /// The sequence number of the last adoption (of a non-empty run).
    fn last_seq(&self) -> u64 {
        let offset = match &self.items {
            RunItems::Shared {
                instances,
                waves,
                first,
                stride,
                ..
            } => first + (instances.len() as u64 - 1) * stride + waves.len() as u64 - 1,
            RunItems::Listed(items) => items.as_slice().last().map_or(0, |item| item.0),
        };
        self.base + offset
    }
}

impl Iterator for Run {
    type Item = (u64, Event);

    fn next(&mut self) -> Option<(u64, Event)> {
        let (offset, instance, wave) = match &mut self.items {
            RunItems::Shared {
                instances,
                waves,
                first,
                stride,
                k,
                j,
            } => {
                let instance = *instances.get(*k)?;
                let item = (
                    *first + *k as u64 * *stride + *j as u64,
                    instance,
                    Arc::clone(waves.get(*j)?),
                );
                *j += 1;
                if *j == waves.len() {
                    (*k, *j) = (*k + 1, 0);
                }
                item
            }
            RunItems::Listed(items) => items.next()?,
        };
        Some((self.base + offset, Event::AdoptWave { instance, wave }))
    }
}

/// Bucket `b` holds the entries due in `[b << BUCKET_SHIFT, (b + 1) <<
/// BUCKET_SHIFT)`: 1,024 s of logical time.
const BUCKET_SHIFT: u32 = 10;

/// A bucket entry: one event, or a run expanded in place, keyed by the
/// `(at, seq)` it pops at next (a run's key is its next adoption's).
#[derive(Debug)]
struct Entry {
    at: SimTime,
    seq: u64,
    item: Item,
}

#[derive(Debug)]
enum Item {
    One(Event),
    Run(Box<Run>),
}

/// Reversed `(at, seq)` order: `BinaryHeap` is a max-heap, and the
/// queue pops the least key first. Sequence numbers are unique, so
/// equal keys mean the same entry.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Entry {}

/// What [`EventQueue::pop_due_run`] hands back: one event, or a whole
/// run whose adoptions all fire at the given instant.
#[derive(Debug)]
pub(crate) enum Due {
    /// A single event.
    One(Scheduled),
    /// The remaining adoptions of a run, in pop order.
    Run(SimTime, Box<Run>),
}

/// A deterministic future-event list: a calendar of fixed-width
/// buckets, consumed in exact `(time, sequence)` order.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// `at >> BUCKET_SHIFT` → the entries due in that bucket; buckets
    /// are never left empty.
    buckets: BTreeMap<u64, BinaryHeap<Entry>>,
    next_seq: u64,
    pending: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    fn push(&mut self, entry: Entry) {
        self.buckets
            .entry(entry.at.0 >> BUCKET_SHIFT)
            .or_default()
            .push(entry);
    }

    /// Schedules `event` at `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.push(Entry {
            at,
            seq,
            item: Item::One(event),
        });
    }

    /// Schedules one import's runs, at most one per instant. The runs'
    /// adoptions together use each offset in `0..total` exactly once,
    /// where `total` is their count; the queue reserves `total`
    /// sequence numbers and rebases every offset onto the first, so the
    /// adoptions pop exactly as if each had been [`Self::schedule`]d
    /// on its own in offset order.
    pub(crate) fn schedule_runs(&mut self, runs: impl IntoIterator<Item = (SimTime, Run)>) {
        let base = self.next_seq;
        let mut total = 0;
        for (at, mut run) in runs {
            let Some(seq) = run.next_seq() else {
                continue;
            };
            total += run.len();
            run.base = base;
            self.push(Entry {
                at,
                seq: base + seq,
                item: Item::Run(Box::new(run)),
            });
        }
        self.next_seq += total as u64;
        self.pending += total;
    }

    /// Pops the earliest event due at or before `now`, if any. A run
    /// gives up one adoption and goes back in, keyed by its next one.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Scheduled> {
        match self.pop_due_run(now)? {
            Due::One(scheduled) => Some(scheduled),
            Due::Run(at, mut run) => {
                let (seq, event) = run.next().expect("runs are never left empty");
                if let Some(next) = run.next_seq() {
                    self.pending += run.len();
                    self.push(Entry {
                        at,
                        seq: next,
                        item: Item::Run(run),
                    });
                }
                Some(Scheduled { at, seq, event })
            }
        }
    }

    /// Pops the earliest entry due at or before `now`, if any, taking a
    /// run whole: its adoptions are the next ones in `(time, sequence)`
    /// order, with nothing else between them.
    pub(crate) fn pop_due_run(&mut self, now: SimTime) -> Option<Due> {
        let mut bucket = self.buckets.first_entry()?;
        let heap = bucket.get_mut();
        if heap.peek().expect("buckets are never left empty").at > now {
            return None;
        }
        let Entry { at, seq, item } = heap.pop().expect("peeked above");
        let due = match item {
            Item::One(event) => {
                self.pending -= 1;
                Due::One(Scheduled { at, seq, event })
            }
            Item::Run(run) => {
                // The heap's new top is the least entry left; if it shares
                // the run's instant it must come after the run's last
                // adoption, or popping the run whole would reorder them.
                debug_assert!(
                    heap.peek()
                        .is_none_or(|next| next.at != at || next.seq > run.last_seq()),
                    "an entry at {at:?} falls inside a run's sequence range"
                );
                self.pending -= run.len();
                Due::Run(at, run)
            }
        };
        if heap.is_empty() {
            bucket.remove();
        }
        Some(due)
    }

    /// When the next event fires, if any are pending.
    pub fn next_at(&self) -> Option<SimTime> {
        Some(self.buckets.values().next()?.peek()?.at)
    }

    /// Pending events (each run counts its unpopped adoptions).
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total events ever scheduled on this queue (runs count every
    /// adoption they reserved a sequence number for).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(instance: u32, rate: f64) -> Event {
        Event::SetRate { instance, rate }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(20), rate(1, 1.0));
        q.schedule(SimTime(10), rate(2, 1.0));
        q.schedule(SimTime(10), rate(3, 1.0));
        q.schedule(SimTime(30), rate(4, 1.0));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_due(SimTime(25)))
            .map(|s| (s.at.0, s.seq))
            .collect();
        // Same-time events keep scheduling order (seq 1 before seq 2);
        // the t=30 event is not yet due.
        assert_eq!(order, vec![(10, 1), (10, 2), (20, 0)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_at(), Some(SimTime(30)));
    }

    #[test]
    fn mid_drain_scheduling_into_an_earlier_instant_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(20), rate(1, 1.0));
        q.schedule(SimTime(10), rate(2, 1.0));
        let first = q.pop_due(SimTime(25)).unwrap();
        assert_eq!((first.at.0, first.seq), (10, 1));
        // A zero-delay follow-up lands between already-queued instants
        // (earlier bucket, later seq) and still pops in time order; a
        // same-instant follow-up pops after the bucket's earlier seqs.
        q.schedule(SimTime(15), rate(3, 1.0));
        q.schedule(SimTime(20), rate(4, 1.0));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_due(SimTime(25)))
            .map(|s| (s.at.0, s.seq))
            .collect();
        assert_eq!(order, vec![(15, 2), (20, 0), (20, 3)]);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 4);
    }

    /// `(at, seq, instance)` of every event due by `now`.
    fn drain(q: &mut EventQueue, now: u64) -> Vec<(u64, u64, u32)> {
        std::iter::from_fn(|| q.pop_due(SimTime(now)))
            .map(|s| match s.event {
                Event::AdoptWave { instance, .. } | Event::SetRate { instance, .. } => {
                    (s.at.0, s.seq, instance)
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    fn waves(n: usize) -> Vec<Arc<RolloutWave>> {
        (0..n).map(|_| Arc::new(RolloutWave::default())).collect()
    }

    #[test]
    fn runs_pop_as_their_adoptions_would_have() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), rate(9, 1.0));
        // Two waves over three instances, stride 3 (a third wave lands
        // elsewhere): offsets k·3 + j at t=10, k·3 + 2 at t=20.
        let instances: Arc<[u32]> = Arc::from(vec![4, 5, 6]);
        let [a, b, c]: [Arc<RolloutWave>; 3] = waves(3).try_into().unwrap();
        q.schedule_runs([
            (
                SimTime(10),
                Run::shared(Arc::clone(&instances), vec![a, b], 0, 3),
            ),
            (SimTime(20), Run::shared(instances, vec![c], 2, 3)),
        ]);
        let listed = |items: &[(u64, u32)]| {
            let wave = Arc::new(RolloutWave::default());
            Run::listed(
                items
                    .iter()
                    .map(|&(o, i)| (o, i, Arc::clone(&wave)))
                    .collect(),
            )
        };
        q.schedule_runs([
            (SimTime(20), listed(&[(1, 8)])),
            (SimTime(10), listed(&[(0, 7), (2, 8)])),
            (SimTime(30), listed(&[])),
        ]);
        q.schedule(SimTime(10), rate(1, 1.0));
        assert_eq!(
            drain(&mut q, 25),
            vec![
                (10, 0, 9),
                (10, 1, 4),
                (10, 2, 4),
                (10, 4, 5),
                (10, 5, 5),
                (10, 7, 6),
                (10, 8, 6),
                (10, 10, 7),
                (10, 12, 8),
                (10, 13, 1),
                (20, 3, 4),
                (20, 6, 5),
                (20, 9, 6),
                (20, 11, 8),
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
        assert_eq!(q.scheduled_total(), 14);
    }

    #[test]
    fn mid_expansion_scheduling_pops_after_the_rest_of_the_run() {
        let mut q = EventQueue::new();
        let instances: Arc<[u32]> = Arc::from(vec![1, 2, 3]);
        q.schedule_runs([(SimTime(10), Run::shared(instances, waves(1), 0, 1))]);
        let first = q.pop_due(SimTime(10)).unwrap();
        assert_eq!((first.at.0, first.seq), (10, 0));
        // A same-instant follow-up takes the next sequence number, so it
        // queues behind the two adoptions the run still holds.
        q.schedule(SimTime(10), rate(7, 1.0));
        assert_eq!(drain(&mut q, 10), vec![(10, 1, 2), (10, 2, 3), (10, 3, 7)]);
        assert!(q.is_empty());
    }

    #[test]
    fn counters_count_run_items() {
        let mut q = EventQueue::new();
        let instances: Arc<[u32]> = Arc::from(vec![1, 2]);
        q.schedule_runs([
            (
                SimTime(5),
                Run::shared(Arc::clone(&instances), waves(2), 0, 3),
            ),
            (SimTime(8), Run::shared(instances, waves(1), 2, 3)),
        ]);
        q.schedule(SimTime(3), rate(4, 1.0));
        assert_eq!((q.len(), q.scheduled_total()), (7, 7));
        assert_eq!(q.next_at(), Some(SimTime(3)));
        q.pop_due(SimTime(5));
        q.pop_due(SimTime(5));
        // Half-way through the t=5 run: three of its items are left and
        // the bucket stays at the front.
        assert_eq!((q.len(), q.next_at()), (5, Some(SimTime(5))));
        assert_eq!(drain(&mut q, 5).len(), 3);
        assert_eq!((q.len(), q.next_at()), (2, Some(SimTime(8))));
        assert!(!q.is_empty());
        assert_eq!(drain(&mut q, 8).len(), 2);
        assert!(q.is_empty());
        assert_eq!((q.len(), q.next_at(), q.scheduled_total()), (0, None, 7));
    }

    #[test]
    fn empty_queue_pops_nothing() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop_due(SimTime(u64::MAX)).is_none());
        assert_eq!(q.scheduled_total(), 0);
    }
}
