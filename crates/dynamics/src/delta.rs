//! Paired per-tick trace differences — the counterfactual observable.
//!
//! A single [`DynamicsTrace`] answers "what happened"; the paper's
//! causal question (§4–§5: how much harmful exposure do MRF policies
//! actually *prevent*?) needs "what happened *relative to the world
//! where the policy never shipped*". [`TraceDelta`] computes that:
//! given two traces of the **same seed and tick budget** — a designated
//! baseline arm and a treatment arm — it pairs the ticks and diffs
//! every per-tick metric, so prevention is attributed tick by tick
//! instead of eyeballed across end-of-run totals.
//!
//! # Sign convention
//!
//! Every [`TickDelta`] field is **arm − baseline**. A rollout arm
//! compared against a no-rollout baseline therefore shows *negative*
//! `toxic_exposure` (the arm exposed less) and *positive* `blocked`
//! (the arm rejected more); the accessor
//! [`TraceDelta::prevented_exposure`] flips the sign once so the
//! headline number reads positive.
//!
//! Pairing is only meaningful under the [`crate::Experiment`] contract:
//! identical engine seed, tick budget and world. [`TraceDelta::paired`]
//! asserts both, so a mispaired diff fails loudly instead of producing
//! a plausible-looking artifact.

use crate::trace::{DynamicsTrace, TickTrace};
use fediscope_core::time::SimTime;
use serde::Serialize;

/// One tick's paired difference, every field arm − baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TickDelta {
    /// Tick index (0-based, identical in both traces).
    pub tick: u64,
    /// Logical time of the tick.
    pub at: SimTime,
    /// Δ live federation links.
    pub links: i64,
    /// Δ instances answering the network.
    pub instances_up: i64,
    /// Δ instances that changed moderation since the run began.
    pub adopted: i64,
    /// Δ deliveries attempted.
    pub delivered: i64,
    /// Δ deliveries that passed the receiver's MRF pipeline.
    pub accepted: i64,
    /// Δ deliveries rejected (blocked) by MRF pipelines.
    pub blocked: i64,
    /// Δ deliveries lost to down receivers.
    pub failed: i64,
    /// Δ accepted toxic mass, in exposure units. Negative when the arm
    /// exposed users to less toxicity than the baseline.
    pub toxic_exposure: i64,
    /// Δ rejected toxic mass, in exposure units.
    pub exposure_prevented: i64,
    /// Δ retry attempts that rescheduled (zero unless an arm enables
    /// the reliability layer).
    pub retried: i64,
    /// Δ delivery batches redelivered after recovery.
    pub recovered: i64,
    /// Δ delivery batches dead-lettered.
    pub dead_lettered: i64,
    /// Δ down instances per §3 failure slot (`[404, 403, 502, 503,
    /// 410]`).
    pub failure_mix: Vec<i64>,
}

impl TickDelta {
    /// Toxic mass this tick of the baseline run that the arm kept out
    /// of timelines: `baseline exposure − arm exposure`, the positive
    /// reading of [`toxic_exposure`](Self::toxic_exposure).
    pub fn prevented_vs_baseline(&self) -> i64 {
        -self.toxic_exposure
    }
}

/// A whole paired comparison: one [`TickDelta`] per tick.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceDelta {
    /// Name of the baseline arm (the subtrahend).
    pub baseline: String,
    /// Name of the compared arm (the minuend).
    pub arm: String,
    /// The shared engine seed both traces ran under.
    pub seed: u64,
    /// Per-tick differences, in tick order.
    pub ticks: Vec<TickDelta>,
}

impl TraceDelta {
    /// Diffs `arm` against `baseline`, tick by tick.
    ///
    /// # Panics
    ///
    /// When the traces are not a valid pair: different seeds or
    /// different tick counts (arms of one [`crate::Experiment`] always
    /// satisfy both).
    pub fn paired(baseline: &DynamicsTrace, arm: &DynamicsTrace) -> TraceDelta {
        assert_eq!(
            baseline.seed, arm.seed,
            "paired traces must share the engine seed ({} vs {})",
            baseline.seed, arm.seed
        );
        assert_eq!(
            baseline.ticks.len(),
            arm.ticks.len(),
            "paired traces must share the tick budget ({} vs {} ticks)",
            baseline.ticks.len(),
            arm.ticks.len()
        );
        let ticks = baseline
            .ticks
            .iter()
            .zip(&arm.ticks)
            .map(|(b, a)| Self::tick_delta(b, a))
            .collect();
        TraceDelta {
            baseline: baseline.scenario.clone(),
            arm: arm.scenario.clone(),
            seed: arm.seed,
            ticks,
        }
    }

    fn tick_delta(b: &TickTrace, a: &TickTrace) -> TickDelta {
        let d = |x: u64, y: u64| x as i64 - y as i64;
        TickDelta {
            tick: a.tick,
            at: a.at,
            links: d(a.links, b.links),
            instances_up: d(a.instances_up, b.instances_up),
            adopted: d(a.adopted, b.adopted),
            delivered: d(a.delivered, b.delivered),
            accepted: d(a.accepted, b.accepted),
            blocked: d(a.rejected, b.rejected),
            failed: d(a.failed, b.failed),
            toxic_exposure: d(a.toxic_exposure, b.toxic_exposure),
            exposure_prevented: d(a.exposure_prevented, b.exposure_prevented),
            retried: d(a.retried, b.retried),
            recovered: d(a.recovered, b.recovered),
            dead_lettered: d(a.dead_lettered, b.dead_lettered),
            failure_mix: a
                .failure_mix
                .iter()
                .zip(&b.failure_mix)
                .map(|(&x, &y)| x as i64 - y as i64)
                .collect(),
        }
    }

    /// Total toxic mass the arm kept out relative to the baseline, in
    /// exposure units (positive = the arm's users saw less toxicity):
    /// exactly the baseline's total exposure minus the arm's.
    pub fn prevented_exposure(&self) -> i64 {
        self.ticks.iter().map(|t| t.prevented_vs_baseline()).sum()
    }

    /// Total extra deliveries the arm's pipelines blocked relative to
    /// the baseline.
    pub fn blocked_deliveries(&self) -> i64 {
        self.ticks.iter().map(|t| t.blocked).sum()
    }

    /// Δ live federation links at the final tick — the fragmentation
    /// cost the arm paid (negative = the arm severed more links).
    pub fn final_links(&self) -> i64 {
        self.ticks.last().map(|t| t.links).unwrap_or(0)
    }

    /// Total extra delivery batches the arm redelivered after receiver
    /// recovery, relative to the baseline — the reliability layer's
    /// headline gain under churn.
    pub fn recovered_deliveries(&self) -> i64 {
        self.ticks.iter().map(|t| t.recovered).sum()
    }

    /// Total extra delivery batches the arm dead-lettered relative to
    /// the baseline — what even retries could not save.
    pub fn dead_lettered_deliveries(&self) -> i64 {
        self.ticks.iter().map(|t| t.dead_lettered).sum()
    }

    /// Running per-tick cumulative prevented exposure
    /// ([`TickDelta::prevented_vs_baseline`] partial sums) — the curve
    /// a rollout scenario is after: how prevention accrues as waves
    /// land.
    pub fn cumulative_prevented(&self) -> Vec<i64> {
        let mut acc = 0;
        self.ticks
            .iter()
            .map(|t| {
                acc += t.prevented_vs_baseline();
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(scenario: &str, seed: u64, exposures: &[u64], rejected: &[u64]) -> DynamicsTrace {
        let ticks = exposures
            .iter()
            .zip(rejected)
            .enumerate()
            .map(|(i, (&exposure, &rej))| TickTrace {
                tick: i as u64,
                at: SimTime(1000 + i as u64 * 100),
                links: 50 - i as u64,
                instances_up: 40,
                adopted: i as u64,
                events: 1,
                delivered: 100,
                accepted: 100 - rej,
                rejected: rej,
                failed: 2,
                rejected_authors: rej.min(3),
                toxic_exposure: exposure,
                exposure_prevented: rej * 5,
                retried: rej / 2,
                recovered: rej / 5,
                dead_lettered: rej / 10,
                failure_mix: vec![i as u64, 0, 0, 0, 0],
                per_instance_exposure: vec![exposure],
            })
            .collect();
        DynamicsTrace {
            scenario: scenario.into(),
            seed,
            ticks,
        }
    }

    #[test]
    fn paired_diffs_tick_by_tick() {
        let baseline = trace("inaction", 7, &[4, 6, 8], &[0, 0, 0]);
        let arm = trace("rollout", 7, &[4, 3, 1], &[0, 10, 25]);
        let delta = TraceDelta::paired(&baseline, &arm);
        assert_eq!(delta.baseline, "inaction");
        assert_eq!(delta.arm, "rollout");
        assert_eq!(delta.ticks.len(), 3);
        // Tick 0 is identical; the rollout has not landed yet.
        assert_eq!(delta.ticks[0].blocked, 0);
        assert_eq!(delta.ticks[0].toxic_exposure, 0);
        // Tick 2: 25 more blocked, 7 units less exposure.
        assert_eq!(delta.ticks[2].blocked, 25);
        assert_eq!(delta.ticks[2].toxic_exposure, -7);
        assert_eq!(delta.ticks[2].prevented_vs_baseline(), 7);
        // Totals and the cumulative curve.
        assert_eq!(delta.prevented_exposure(), 10);
        assert_eq!(delta.blocked_deliveries(), 35);
        assert_eq!(delta.cumulative_prevented(), vec![0, 3, 10]);
        // The reliability columns diff like everything else: the arm's
        // per-tick retried/recovered/dead-lettered minus the baseline's
        // (all zero here), with run totals on the accessors.
        assert_eq!(delta.ticks[2].retried, 12);
        assert_eq!(delta.ticks[2].recovered, 5);
        assert_eq!(delta.ticks[2].dead_lettered, 2);
        assert_eq!(delta.recovered_deliveries(), 7);
        assert_eq!(delta.dead_lettered_deliveries(), 3);
        // Same link trajectory in both runs: flat link delta.
        assert_eq!(delta.final_links(), 0);
        // Arm − baseline of identical failure ramps is zero per slot.
        assert_eq!(delta.ticks[2].failure_mix, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn identical_traces_have_zero_delta() {
        let a = trace("x", 3, &[1, 2], &[5, 6]);
        let delta = TraceDelta::paired(&a, &a.clone());
        assert!(delta.ticks.iter().all(|t| {
            t.links == 0
                && t.delivered == 0
                && t.blocked == 0
                && t.toxic_exposure == 0
                && t.exposure_prevented == 0
        }));
        assert_eq!(delta.prevented_exposure(), 0);
    }

    #[test]
    #[should_panic(expected = "tick budget")]
    fn mismatched_tick_budgets_refuse_to_pair() {
        let a = trace("a", 1, &[1], &[0]);
        let b = trace("b", 1, &[1, 2], &[0, 0]);
        TraceDelta::paired(&a, &b);
    }

    #[test]
    #[should_panic(expected = "engine seed")]
    fn mismatched_seeds_refuse_to_pair() {
        let a = trace("a", 1, &[1], &[0]);
        let b = trace("b", 2, &[1], &[0]);
        TraceDelta::paired(&a, &b);
    }
}
