//! [`EventQueue`] against a plain ordered map: the model keys every
//! pending event by `(at, seq)`, so its first due key is by definition
//! the next pop. Random interleavings of single events, import runs
//! (shared and listed, several imports at one instant, a zero window),
//! pops at a rising `now`, whole-run pops and mid-drain scheduling
//! around the last popped instant must pop exactly what the model pops,
//! and agree on `len`, `next_at` and `scheduled_total` after every step.
//! Instants straddle bucket edges and reach `SimTime(0)` and
//! `SimTime(u64::MAX)`.

#![cfg(test)]

use crate::event::{Due, Event, EventQueue, Run, Scheduled};
use fediscope_core::rollout::RolloutWave;
use fediscope_core::time::SimTime;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What identifies a queued event: its instance and, for an adoption,
/// which wave (by address); a single event carries no wave.
type Key = (u32, usize);

fn key(event: &Event) -> Key {
    match event {
        Event::AdoptWave { instance, wave } => (*instance, Arc::as_ptr(wave) as usize),
        Event::SetRate { instance, .. } => (*instance, 0),
        other => panic!("the model schedules no {other:?}"),
    }
}

/// One bucket is 1,024 s wide.
const EDGE: u64 = 1 << 10;

/// Instants on both sides of bucket edges, and both ends of time.
const PALETTE: [u64; 12] = [
    0,
    1,
    EDGE - 1,
    EDGE,
    EDGE + 1,
    2 * EDGE - 1,
    2 * EDGE,
    7 * EDGE + 5,
    (1 << 40) - 1,
    1 << 40,
    u64::MAX - 1,
    u64::MAX,
];

struct Harness {
    queue: EventQueue,
    model: BTreeMap<(SimTime, u64), Key>,
    next_seq: u64,
    now: SimTime,
    /// The instant of the last event popped (mid-drain scheduling
    /// lands around it).
    last: SimTime,
}

impl Harness {
    fn new() -> Self {
        Harness {
            queue: EventQueue::new(),
            model: BTreeMap::new(),
            next_seq: 0,
            now: SimTime(0),
            last: SimTime(0),
        }
    }

    /// An instant from the palette, or one relative to the last pop:
    /// earlier, the same, or later.
    fn instant(&self, rng: &mut SmallRng) -> SimTime {
        match rng.gen_range(0..4) {
            0 => SimTime(self.last.0.saturating_sub(rng.gen_range(1..3 * EDGE))),
            1 => self.last,
            2 => SimTime(self.last.0.saturating_add(rng.gen_range(1..3 * EDGE))),
            _ => SimTime(PALETTE[rng.gen_range(0..PALETTE.len())]),
        }
    }

    fn schedule(&mut self, at: SimTime, instance: u32) {
        self.queue.schedule(
            at,
            Event::SetRate {
                instance,
                rate: 1.0,
            },
        );
        self.model.insert((at, self.next_seq), (instance, 0));
        self.next_seq += 1;
    }

    /// One import: `instances` adopt each of `waves`, importer-major,
    /// the waves landing in contiguous groups at distinct instants (one
    /// group: a zero window). Shared runs keep every adoption; listed
    /// runs keep a random subset and number the kept ones densely.
    fn import(&mut self, rng: &mut SmallRng, listed: bool, at: &[SimTime]) {
        let instances: Vec<u32> = (0..rng.gen_range(0..4)).map(|i| 100 + i).collect();
        let waves: Vec<Arc<RolloutWave>> = (0..rng.gen_range(1..5))
            .map(|_| Arc::new(RolloutWave::default()))
            .collect();
        // `group[j]` is the index into `at` wave `j` lands at.
        let groups = rng.gen_range(1..=waves.len().min(at.len()));
        let mut group = vec![0; waves.len()];
        for g in group.iter_mut().skip(1) {
            *g = rng.gen_range(0..groups);
        }
        group.sort_unstable();
        let base = self.next_seq;
        let mut runs = Vec::new();
        let mut items: Vec<Vec<(u64, u32, Arc<RolloutWave>)>> = vec![Vec::new(); groups];
        let mut total = 0;
        for (k, &instance) in instances.iter().enumerate() {
            for (j, wave) in waves.iter().enumerate() {
                let kept = !listed || rng.gen_bool(0.6);
                if !kept {
                    continue;
                }
                let offset = if listed {
                    total
                } else {
                    (k * waves.len() + j) as u64
                };
                total += 1;
                items[group[j]].push((offset, instance, Arc::clone(wave)));
                self.model.insert(
                    (at[group[j]], base + offset),
                    (instance, Arc::as_ptr(wave) as usize),
                );
            }
        }
        for (g, listed_items) in items.into_iter().enumerate() {
            let run = if listed {
                Run::listed(listed_items)
            } else {
                let first = group.iter().position(|&x| x == g);
                let Some(first) = first else { continue };
                let last = group.iter().rposition(|&x| x == g).unwrap();
                Run::shared(
                    Arc::from(instances.clone()),
                    waves[first..=last].to_vec(),
                    first as u64,
                    waves.len() as u64,
                )
            };
            runs.push((at[g], run));
        }
        self.next_seq = base + total;
        self.queue.schedule_runs(runs);
    }

    /// The model's next due entry.
    fn model_pop(&mut self) -> Option<(SimTime, u64, Key)> {
        let entry = self.model.first_entry()?;
        if entry.key().0 > self.now {
            return None;
        }
        let ((at, seq), key) = entry.remove_entry();
        self.last = at;
        Some((at, seq, key))
    }

    fn pop(&mut self) -> Result<bool, String> {
        let got = self.queue.pop_due(self.now);
        let want = self.model_pop();
        let got = got.map(|Scheduled { at, seq, event }| (at, seq, key(&event)));
        prop_assert_eq!(got, want);
        Ok(got.is_some())
    }

    fn pop_run(&mut self) -> Result<(), String> {
        match self.queue.pop_due_run(self.now) {
            None => prop_assert_eq!(self.model_pop(), None),
            Some(Due::One(Scheduled { at, seq, event })) => {
                prop_assert_eq!(Some((at, seq, key(&event))), self.model_pop());
            }
            Some(Due::Run(at, run)) => {
                let mut popped = 0;
                for (seq, event) in *run {
                    prop_assert_eq!(Some((at, seq, key(&event))), self.model_pop());
                    popped += 1;
                }
                prop_assert!(popped > 0, "an empty run at {at:?}");
            }
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        prop_assert_eq!(self.queue.len(), self.model.len());
        prop_assert_eq!(self.queue.is_empty(), self.model.is_empty());
        prop_assert_eq!(
            self.queue.next_at(),
            self.model.keys().next().map(|&(at, _)| at)
        );
        prop_assert_eq!(self.queue.scheduled_total(), self.next_seq);
        Ok(())
    }
}

proptest! {
    #[test]
    fn queue_pops_what_an_ordered_map_pops(
        ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..160)
    ) {
        let mut h = Harness::new();
        for (op, seed) in ops {
            let mut rng = SmallRng::seed_from_u64(seed);
            match op {
                0 | 1 => {
                    let at = h.instant(&mut rng);
                    h.schedule(at, rng.gen_range(0..50));
                }
                2 | 3 => {
                    let mut at: Vec<SimTime> =
                        (0..rng.gen_range(1..4)).map(|_| h.instant(&mut rng)).collect();
                    at.sort_unstable();
                    at.dedup();
                    h.import(&mut rng, op == 3, &at);
                }
                4 => {
                    // Several imports at one instant.
                    let at = [h.instant(&mut rng)];
                    for _ in 0..rng.gen_range(2..4) {
                        let listed = rng.gen_bool(0.5);
                        h.import(&mut rng, listed, &at);
                    }
                }
                5 => {
                    h.now = SimTime(h.now.0.max(PALETTE[rng.gen_range(0..PALETTE.len())]));
                    for _ in 0..rng.gen_range(1..6) {
                        h.pop()?;
                    }
                }
                6 => {
                    h.now = SimTime(h.now.0.saturating_add(rng.gen_range(0..2 * EDGE)));
                    for _ in 0..rng.gen_range(1..6) {
                        h.pop()?;
                    }
                }
                _ => {
                    for _ in 0..rng.gen_range(1..4) {
                        h.pop_run()?;
                    }
                }
            }
            h.check()?;
        }
        // Drain everything, alternating both kinds of pop.
        h.now = SimTime(u64::MAX);
        let mut whole = false;
        while !h.model.is_empty() {
            if whole {
                h.pop_run()?;
            } else {
                h.pop()?;
            }
            whole = !whole;
            h.check()?;
        }
        prop_assert!(!h.pop()?);
        prop_assert!(h.queue.is_empty());
    }
}
