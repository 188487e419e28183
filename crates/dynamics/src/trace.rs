//! Per-tick metrics — the engine's observable output.
//!
//! A [`DynamicsTrace`] is the contract the determinism guarantee is
//! stated over: the same seeds and scenario must produce an identical
//! trace at any worker-thread count. Every field is an integer, so
//! derived `==` is the exact check and [`DynamicsTrace::digest`] folds
//! every field into one `u64` so tests and benches can compare whole
//! runs cheaply.
//!
//! Toxic mass is counted in integer exposure units: [`quantise_score`]
//! turns a post's score into units and [`exposure_score`] turns units
//! back into score mass for display. Nothing else knows the unit.

use fediscope_core::time::SimTime;
use fediscope_simnet::FailureMode;
use serde::Serialize;

/// Exposure units per unit of score: toxic mass is counted in
/// nano-scores.
const UNITS_PER_SCORE: f64 = 1e9;

/// Quantises one post's toxicity (its max attribute score, in `[0, 1]`)
/// to exposure units, rounding to nearest, so each delivery is off by at
/// most 5e-10 of a score. A delivery adds at most `1e9` units, so even
/// paper-scale `storm` (≈27 M deliveries per run) totals at most
/// 2.7e16 units: about 680× below `u64::MAX`, and 340× below `i64::MAX`
/// for the differences in a [`crate::TickDelta`].
pub(crate) fn quantise_score(score: f64) -> u64 {
    (score * UNITS_PER_SCORE).round() as u64
}

/// Exposure units (a trace total or a signed delta) as score mass, for
/// display.
pub fn exposure_score(units: impl Into<i128>) -> f64 {
    units.into() as f64 / UNITS_PER_SCORE
}

/// Everything measured in one tick.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TickTrace {
    /// Tick index (0-based).
    pub tick: u64,
    /// Logical time of the tick.
    pub at: SimTime,
    /// Live federation links (undirected).
    pub links: u64,
    /// Instances answering the network.
    pub instances_up: u64,
    /// Instances that changed moderation since the run began.
    pub adopted: u64,
    /// Events applied in this tick's control phase.
    pub events: u64,
    /// Inbound post deliveries attempted.
    pub delivered: u64,
    /// Deliveries that passed the receiver's MRF pipeline.
    pub accepted: u64,
    /// Deliveries rejected by the receiver's MRF pipeline.
    pub rejected: u64,
    /// Deliveries lost to down receivers.
    pub failed: u64,
    /// Distinct `(receiver, author)` pairs rejected this tick.
    pub rejected_authors: u64,
    /// Toxic mass (max attribute score) of accepted deliveries, in
    /// exposure units.
    pub toxic_exposure: u64,
    /// Toxic mass the pipelines kept out (rejected deliveries), in
    /// exposure units.
    pub exposure_prevented: u64,
    /// Retry attempts that fired and rescheduled (receiver still in a
    /// transient outage, budget left). Zero unless the run enabled the
    /// reliability layer.
    pub retried: u64,
    /// Delivery batches redelivered to a recovered receiver.
    pub recovered: u64,
    /// Delivery batches given up on: retry budget exhausted, permanent
    /// receiver death, or mid-retry defederation.
    pub dead_lettered: u64,
    /// Down instances by §3 failure mode: `[404, 403, 502, 503, 410]`.
    pub failure_mix: Vec<u64>,
    /// Accepted toxic mass per receiving instance (seed index order), in
    /// exposure units; sums to `toxic_exposure`.
    pub per_instance_exposure: Vec<u64>,
}

impl TickTrace {
    /// Every scalar column by name, in digest order.
    fn columns(&self) -> [(&'static str, u64); 16] {
        [
            ("tick", self.tick),
            ("at", self.at.0),
            ("links", self.links),
            ("instances_up", self.instances_up),
            ("adopted", self.adopted),
            ("events", self.events),
            ("delivered", self.delivered),
            ("accepted", self.accepted),
            ("rejected", self.rejected),
            ("failed", self.failed),
            ("rejected_authors", self.rejected_authors),
            ("toxic_exposure", self.toxic_exposure),
            ("exposure_prevented", self.exposure_prevented),
            ("retried", self.retried),
            ("recovered", self.recovered),
            ("dead_lettered", self.dead_lettered),
        ]
    }
}

/// Where two traces first differ (see
/// [`DynamicsTrace::first_divergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Position in `ticks`; `None` for the run-level `scenario` and
    /// `seed` fields.
    pub tick: Option<usize>,
    /// Field name, as in [`TickTrace`] (`"ticks"` when one trace has
    /// fewer ticks).
    pub field: &'static str,
    /// Element of `failure_mix` / `per_instance_exposure` (a missing
    /// element counts as different).
    pub index: Option<usize>,
}

/// Index of the first differing element of two slices, counting a
/// length mismatch as a difference at the shorter length.
fn first_mismatch(a: &[u64], b: &[u64]) -> Option<usize> {
    (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
}

/// Index of a failure mode in [`TickTrace::failure_mix`].
pub fn failure_mix_index(mode: FailureMode) -> Option<usize> {
    match mode {
        FailureMode::Healthy => None,
        FailureMode::NotFound => Some(0),
        FailureMode::Forbidden => Some(1),
        FailureMode::BadGateway => Some(2),
        FailureMode::Unavailable => Some(3),
        FailureMode::Gone => Some(4),
    }
}

/// A whole run: scenario name, seed, and one [`TickTrace`] per tick.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DynamicsTrace {
    /// Scenario that produced the trace.
    pub scenario: String,
    /// Engine seed.
    pub seed: u64,
    /// Per-tick metrics, in tick order.
    pub ticks: Vec<TickTrace>,
}

impl DynamicsTrace {
    /// FNV-1a over every field. Two traces are identical iff their
    /// digests match (up to hash collisions —
    /// [`first_divergence`](Self::first_divergence) is the exact check).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in self.scenario.bytes() {
            word(b as u64);
        }
        word(self.seed);
        for t in &self.ticks {
            for (_, v) in t.columns() {
                word(v);
            }
            for &v in t.failure_mix.iter().chain(&t.per_instance_exposure) {
                word(v);
            }
        }
        h
    }

    /// The first place `self` and `other` differ, or `None` exactly when
    /// `self == other`.
    pub fn first_divergence(&self, other: &DynamicsTrace) -> Option<Divergence> {
        let at = |tick, field, index| Some(Divergence { tick, field, index });
        if self.scenario != other.scenario {
            return at(None, "scenario", None);
        }
        if self.seed != other.seed {
            return at(None, "seed", None);
        }
        for (i, (a, b)) in self.ticks.iter().zip(&other.ticks).enumerate() {
            let (a_cols, b_cols) = (a.columns(), b.columns());
            if let Some(k) = a_cols.iter().zip(&b_cols).position(|(x, y)| x.1 != y.1) {
                return at(Some(i), a_cols[k].0, None);
            }
            for (field, x, y) in [
                ("failure_mix", &a.failure_mix, &b.failure_mix),
                (
                    "per_instance_exposure",
                    &a.per_instance_exposure,
                    &b.per_instance_exposure,
                ),
            ] {
                if let Some(k) = first_mismatch(x, y) {
                    return at(Some(i), field, Some(k));
                }
            }
        }
        if self.ticks.len() != other.ticks.len() {
            return at(Some(self.ticks.len().min(other.ticks.len())), "ticks", None);
        }
        None
    }

    /// Total deliveries attempted across the run.
    pub fn total_delivered(&self) -> u64 {
        self.ticks.iter().map(|t| t.delivered).sum()
    }

    /// Total deliveries rejected across the run.
    pub fn total_rejected(&self) -> u64 {
        self.ticks.iter().map(|t| t.rejected).sum()
    }

    /// Total toxic mass that got through, in exposure units.
    pub fn total_exposure(&self) -> u64 {
        self.ticks.iter().map(|t| t.toxic_exposure).sum()
    }

    /// Total toxic mass the pipelines prevented, in exposure units.
    pub fn total_prevented(&self) -> u64 {
        self.ticks.iter().map(|t| t.exposure_prevented).sum()
    }

    /// Link count at the first tick.
    pub fn initial_links(&self) -> u64 {
        self.ticks.first().map(|t| t.links).unwrap_or(0)
    }

    /// Link count at the last tick.
    pub fn final_links(&self) -> u64 {
        self.ticks.last().map(|t| t.links).unwrap_or(0)
    }

    /// Total retry attempts that rescheduled across the run.
    pub fn total_retried(&self) -> u64 {
        self.ticks.iter().map(|t| t.retried).sum()
    }

    /// Total delivery batches recovered across the run.
    pub fn total_recovered(&self) -> u64 {
        self.ticks.iter().map(|t| t.recovered).sum()
    }

    /// Total delivery batches dead-lettered across the run.
    pub fn total_dead_lettered(&self) -> u64 {
        self.ticks.iter().map(|t| t.dead_lettered).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(tick: u64, exposure: u64) -> TickTrace {
        TickTrace {
            tick,
            at: SimTime(tick * 100),
            links: 10,
            instances_up: 5,
            adopted: 0,
            events: 0,
            delivered: 20,
            accepted: 18,
            rejected: 2,
            failed: 0,
            rejected_authors: 1,
            toxic_exposure: exposure,
            exposure_prevented: 5,
            retried: 3,
            recovered: 2,
            dead_lettered: 1,
            failure_mix: vec![0; 5],
            per_instance_exposure: vec![exposure],
        }
    }

    #[test]
    fn digest_separates_different_traces() {
        let a = DynamicsTrace {
            scenario: "x".into(),
            seed: 1,
            ticks: vec![tick(0, 10), tick(1, 20)],
        };
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
        b.ticks[1].toxic_exposure += 1;
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a, b);
        // The reliability columns are digested too.
        let mut c = a.clone();
        c.ticks[0].recovered += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn first_divergence_locates_one_unit() {
        let mut ticks: Vec<TickTrace> = (0..3).map(|i| tick(i, 10)).collect();
        for t in &mut ticks {
            t.per_instance_exposure = vec![5, 2, 0, 0, 3];
        }
        let a = DynamicsTrace {
            scenario: "x".into(),
            seed: 1,
            ticks,
        };
        assert_eq!(a.first_divergence(&a.clone()), None);
        let mut b = a.clone();
        b.ticks[2].per_instance_exposure[3] = 1;
        assert_ne!(a, b);
        assert_ne!(a.digest(), b.digest());
        let d = a.first_divergence(&b).expect("one unit differs");
        assert_eq!(
            (d.tick, d.field, d.index),
            (Some(2), "per_instance_exposure", Some(3))
        );
        b.ticks.pop();
        let d = a.first_divergence(&b).expect("one tick short");
        assert_eq!((d.tick, d.field), (Some(2), "ticks"));
    }

    #[test]
    fn totals_sum_over_ticks() {
        let t = DynamicsTrace {
            scenario: "x".into(),
            seed: 1,
            ticks: vec![tick(0, 10), tick(1, 20)],
        };
        assert_eq!(t.total_delivered(), 40);
        assert_eq!(t.total_rejected(), 4);
        assert_eq!(t.total_retried(), 6);
        assert_eq!(t.total_recovered(), 4);
        assert_eq!(t.total_dead_lettered(), 2);
        assert_eq!(t.total_exposure(), 30);
        assert_eq!(t.total_prevented(), 10);
        assert_eq!(t.initial_links(), 10);
        assert_eq!(t.final_links(), 10);
    }

    #[test]
    fn scores_quantise_to_the_nearest_unit() {
        assert_eq!(quantise_score(0.0), 0);
        assert_eq!(quantise_score(1.0), 1_000_000_000);
        assert_eq!(quantise_score(0.123_456_789_4), 123_456_789);
        assert_eq!(exposure_score(quantise_score(0.25)), 0.25);
        assert_eq!(exposure_score(-1_500_000_000_i64), -1.5);
    }

    #[test]
    fn failure_mix_indexing_covers_the_taxonomy() {
        assert_eq!(failure_mix_index(FailureMode::Healthy), None);
        let idx: Vec<usize> = FailureMode::PAPER_TAXONOMY
            .iter()
            .filter_map(|&(m, _)| failure_mix_index(m))
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }
}
