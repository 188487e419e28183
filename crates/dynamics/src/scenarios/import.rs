//! Scenario 6 — circulating blocklist imports, full or partial.
//!
//! *Understanding Community-Level Blocklists* motivates the two arms
//! this scenario provides: a shared blocklist (here: the union of every
//! seed instance's final reject list) circulates, and each Pleroma
//! admin either imports it wholesale or — as §4.2's heavy-tailed
//! moderation effort suggests — adopts only a subset. Adoption
//! fractions are drawn per adopter from a heavy-tailed curve
//! ([`heavy_tail_fraction`]): most admins import a sliver, a few import
//! nearly everything.
//!
//! One artifact, many admins, literally: the union is built once as a
//! [`SharedTargets`] name index behind an `Arc`, and every chunk wave is
//! attached to it ([`SimplePolicy::from_shared`]). An adopter's reject
//! list attaches the index on its first such wave and from then on
//! records each imported name as one bit, so the adopters share one
//! index instead of each hashing the same names into a private one.
//!
//! Each import schedules one [`Run`] per instant its chunks land at:
//! the ordered `AdoptWave` adoptions of that instant, which the engine
//! applies whole, one adoption after another, when the run falls due
//! (see [`Scenario`]). A full import's run is the instant's shared
//! [`RolloutWave`]s over the shared importer list (`Arc` refcount
//! bumps), so scheduling costs O(importers + union), not one queue
//! entry per adoption. A partial import's run lists the
//! instant's kept `(importer, wave)` pairs, cloning per-adopter subset
//! waves through [`RolloutWave::subset_simple`], the core-side
//! counterfactual-arm primitive; the subsets stay attached to the
//! index. Either way the queue pops exactly the `(time, seq)`
//! sequence that scheduling each adoption on its own would give. Both
//! arms are pure control-phase load: every event is an `AdoptWave`
//! mutating a compiled pipeline through the O(delta) MRF API, which is
//! why the perf gates bench floods exactly this scenario.

use crate::event::{EventQueue, Run};
use crate::scenario::Scenario;
use crate::state::NetworkState;
use fediscope_core::mrf::policies::{SharedTargets, SimpleAction, SimplePolicy};
use fediscope_core::rollout::RolloutWave;
use fediscope_core::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Smallest adoption fraction a partial importer lands on — even the
/// laziest admin copies *something* from a list they bothered to open.
pub const MIN_ADOPTION_FRACTION: f64 = 0.02;

/// Maps a uniform draw `u ∈ [0, 1]` to a heavy-tailed adoption
/// fraction: `clamp(u^alpha, MIN_ADOPTION_FRACTION, 1)`.
///
/// For `alpha > 1` the density of the result is `∝ f^(1/alpha − 1)` —
/// monotonically decreasing, so mass concentrates near the floor while
/// the tail still reaches full adoption (`u → 1 ⇒ f → 1`): the §4.2
/// shape where a handful of heavy moderators carry most of the imported
/// volume. `alpha = 3` gives a median fraction of 0.125 and a mean of
/// ≈ 0.25. The curve is pinned by test; change it deliberately.
pub fn heavy_tail_fraction(u: f64, alpha: f64) -> f64 {
    // The upper clamp matters for out-of-domain alphas (< 1 inverts the
    // curve; negative sends u^alpha above 1): the result always stays a
    // fraction, so a mis-typed alpha degrades to heavier adoption
    // instead of breaking the [MIN, 1] contract downstream code pins.
    // A NaN alpha (or u) would pass through both clamps, so it degrades
    // the same way: to full adoption.
    let f = u.clamp(0.0, 1.0).powf(alpha);
    if f.is_nan() {
        1.0
    } else {
        f.clamp(MIN_ADOPTION_FRACTION, 1.0)
    }
}

/// How much of the circulating list each adopter imports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdoptionModel {
    /// Every importer adopts the whole union (the pre-PR 5 bench
    /// behaviour — shared waves, refcount-bump scheduling).
    Full,
    /// Each importer draws a heavy-tailed adoption fraction
    /// ([`heavy_tail_fraction`] with this `alpha`) and keeps each union
    /// entry independently with that probability.
    HeavyTail {
        /// Skew exponent (≥ 1; larger = heavier concentration near the
        /// minimum fraction).
        alpha: f64,
    },
}

/// Import shape.
#[derive(Debug, Clone)]
pub struct ImportConfig {
    /// Union entries per [`RolloutWave`] chunk (1 = one event per
    /// domain, the maximum-pressure flood shape).
    pub chunk: usize,
    /// Window the chunks spread over.
    pub window: SimDuration,
    /// Full or heavy-tailed subset adoption.
    pub adoption: AdoptionModel,
    /// Strip every instance to the fresh-install default first. Leave
    /// `false` to import on top of the seed configs (the flood/bench
    /// shape); set `true` for counterfactual arms so the import starts
    /// from the same null state as an inaction or rollout arm.
    pub reset_to_default: bool,
}

impl Default for ImportConfig {
    fn default() -> Self {
        ImportConfig {
            chunk: 16,
            window: SimDuration::days(3),
            adoption: AdoptionModel::HeavyTail { alpha: 3.0 },
            reset_to_default: false,
        }
    }
}

/// The blocklist-import scenario.
#[derive(Debug, Default)]
pub struct BlocklistImportScenario {
    config: ImportConfig,
    union_size: usize,
    fractions: Vec<f64>,
    scheduled_events: u64,
}

impl BlocklistImportScenario {
    /// A scenario with the given shape.
    pub fn new(config: ImportConfig) -> Self {
        BlocklistImportScenario {
            config,
            union_size: 0,
            fractions: Vec::new(),
            scheduled_events: 0,
        }
    }

    /// Size of the circulating union list (after `init`).
    pub fn union_size(&self) -> usize {
        self.union_size
    }

    /// Per-adopter adoption fractions, in importer index order (after
    /// `init`; all `1.0` under [`AdoptionModel::Full`]).
    pub fn adoption_fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// `AdoptWave` events scheduled (after `init`).
    pub fn scheduled_events(&self) -> u64 {
        self.scheduled_events
    }
}

impl Scenario for BlocklistImportScenario {
    fn name(&self) -> &'static str {
        match self.config.adoption {
            AdoptionModel::Full => "blocklist_import_full",
            AdoptionModel::HeavyTail { .. } => "blocklist_import_partial",
        }
    }

    fn init(
        &mut self,
        start: SimTime,
        state: &mut NetworkState,
        queue: &mut EventQueue,
        rng: &mut SmallRng,
    ) {
        if self.config.reset_to_default {
            for i in 0..state.len() {
                state.reset_moderation_default(i);
            }
        }
        // The circulating blocklist: union of every seed *target* reject
        // list (targets survive resets), deduplicated in deterministic
        // instance order, built straight into the index its adopters
        // share.
        let mut union = SharedTargets::default();
        for inst in &state.instances {
            if let Some(simple) = inst.target.simple.as_ref() {
                for d in simple.targets(SimpleAction::Reject) {
                    union.insert(d);
                }
            }
        }
        let union = Arc::new(union);
        self.union_size = union.len();
        let importers: Arc<[u32]> = (0..state.len())
            .filter(|&i| state.instances[i].pleroma)
            .map(|i| i as u32)
            .collect();
        // One shared wave per chunk: a full import hands it to every
        // importer by refcount bump, exactly how a circulating blocklist
        // is one artifact applied by many admins.
        let waves: Vec<(Arc<RolloutWave>, usize)> = union
            .names()
            .chunks(self.config.chunk.max(1))
            .map(|c| {
                (
                    Arc::new(RolloutWave {
                        offset: SimDuration(0),
                        enable: Vec::new(),
                        simple: Some(SimplePolicy::from_shared(SimpleAction::Reject, &union, c)),
                    }),
                    c.len(),
                )
            })
            .collect();
        // Wave `pos` lands at `start + window·pos/n`; waves that land at
        // one instant (a window shorter than the wave count) form one
        // run there. `instant[pos]` indexes `instants`.
        let n = waves.len().max(1) as u64;
        let mut instants: Vec<(SimTime, std::ops::Range<usize>)> = Vec::new();
        let mut instant = Vec::with_capacity(waves.len());
        for pos in 0..waves.len() {
            let at = start + SimDuration(self.config.window.0 * pos as u64 / n);
            match instants.last_mut() {
                Some((last, range)) if *last == at => range.end = pos + 1,
                _ => instants.push((at, pos..pos + 1)),
            }
            instant.push(instants.len() - 1);
        }
        // Per-adopter draws come off the control stream in importer
        // index order — deterministic, and independent of chunking. A
        // full import still draws each importer's (unused) keep seed:
        // both models take one keep seed per importer from the caller's
        // stream, which a caller may go on drawing from after `init`.
        let AdoptionModel::HeavyTail { alpha } = self.config.adoption else {
            for _ in importers.iter() {
                rng.gen::<u64>();
            }
            self.fractions
                .extend(std::iter::repeat_n(1.0, importers.len()));
            self.scheduled_events += (importers.len() * waves.len()) as u64;
            let stride = waves.len() as u64;
            queue.schedule_runs(instants.into_iter().map(|(at, range)| {
                let first = range.start as u64;
                let shared = waves[range].iter().map(|(w, _)| Arc::clone(w)).collect();
                (
                    at,
                    Run::shared(Arc::clone(&importers), shared, first, stride),
                )
            }));
            return;
        };
        // A partial import lists each instant's kept adoptions; offsets
        // count adoptions importer-major, wave-minor, so a run holding
        // several waves interleaves them as one adopter after another.
        let mut runs: Vec<Vec<(u64, u32, Arc<RolloutWave>)>> = vec![Vec::new(); instants.len()];
        let mut offset = 0u64;
        for &i in importers.iter() {
            let fraction = heavy_tail_fraction(rng.gen(), alpha);
            self.fractions.push(fraction);
            let mut keep_rng = SmallRng::seed_from_u64(rng.gen());
            for (pos, (wave, entries)) in waves.iter().enumerate() {
                let kept = if fraction >= 1.0 {
                    Some(Arc::clone(wave))
                } else {
                    // Fork a per-(adopter, wave) stream, count the keeps,
                    // and only clone a *proper* subset: a fully-kept
                    // chunk shares the circulating wave by refcount bump
                    // and an empty one schedules nothing — with 1-entry
                    // chunks (the flood shape) partial imports therefore
                    // never allocate a policy at all.
                    let stream = keep_rng.gen::<u64>();
                    let mut count_rng = SmallRng::seed_from_u64(stream);
                    let kept = (0..*entries)
                        .filter(|_| count_rng.gen::<f64>() < fraction)
                        .count();
                    if kept == 0 {
                        None
                    } else if kept == *entries {
                        Some(Arc::clone(wave))
                    } else {
                        let mut pick_rng = SmallRng::seed_from_u64(stream);
                        Some(Arc::new(
                            wave.subset_simple(|_, _| pick_rng.gen::<f64>() < fraction),
                        ))
                    }
                };
                if let Some(wave) = kept {
                    runs[instant[pos]].push((offset, i, wave));
                    offset += 1;
                }
            }
        }
        self.scheduled_events += offset;
        queue.schedule_runs(
            instants
                .into_iter()
                .zip(runs)
                .map(|((at, _), items)| (at, Run::listed(items))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DynamicsConfig, DynamicsEngine};
    use crate::testutil::seeds;

    fn run(config: ImportConfig, ticks: u64) -> (crate::DynamicsTrace, BlocklistImportScenario) {
        let engine_config = DynamicsConfig {
            ticks,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(engine_config, seeds());
        let mut scenario = BlocklistImportScenario::new(config);
        let trace = engine.run(&mut scenario);
        (trace, scenario)
    }

    #[test]
    fn heavy_tail_curve_is_pinned() {
        // The exact shape partial imports depend on — change deliberately.
        assert_eq!(heavy_tail_fraction(0.5, 3.0), 0.125);
        assert_eq!(heavy_tail_fraction(1.0, 3.0), 1.0);
        assert_eq!(heavy_tail_fraction(0.0, 3.0), MIN_ADOPTION_FRACTION);
        assert_eq!(heavy_tail_fraction(-1.0, 3.0), MIN_ADOPTION_FRACTION);
        assert_eq!(heavy_tail_fraction(2.0, 3.0), 1.0);
        // Monotone in u.
        let mut last = 0.0;
        for i in 0..=100 {
            let f = heavy_tail_fraction(i as f64 / 100.0, 3.0);
            assert!(f >= last);
            last = f;
        }
        // alpha = 1 is uniform (above the floor).
        assert_eq!(heavy_tail_fraction(0.4, 1.0), 0.4);
        // Out-of-domain alphas stay inside [MIN, 1] instead of blowing
        // past full adoption (negative exponents invert the curve).
        assert_eq!(heavy_tail_fraction(0.5, -2.0), 1.0);
        assert_eq!(heavy_tail_fraction(0.0, -2.0), 1.0);
        // NaN degrades to full adoption too, never to a NaN fraction.
        assert_eq!(heavy_tail_fraction(0.5, f64::NAN), 1.0);
        assert_eq!(heavy_tail_fraction(0.0, f64::NAN), 1.0);
        assert_eq!(heavy_tail_fraction(f64::NAN, 3.0), 1.0);
    }

    #[test]
    fn full_import_converges_everyone_to_the_union() {
        let mut engine = DynamicsEngine::new(
            DynamicsConfig {
                ticks: 18,
                ..DynamicsConfig::default()
            },
            seeds(),
        );
        let mut scenario = BlocklistImportScenario::new(ImportConfig {
            chunk: 16,
            window: SimDuration::days(2),
            adoption: AdoptionModel::Full,
            reset_to_default: false,
        });
        let trace = engine.run(&mut scenario);
        assert!(scenario.union_size() > 0);
        assert!(scenario.adoption_fractions().iter().all(|&f| f == 1.0));
        assert!(trace.ticks.iter().map(|t| t.events).sum::<u64>() >= scenario.scheduled_events());
        // Every Pleroma importer ends with the whole union rejected.
        let state = engine.state();
        let mut union = std::collections::HashSet::new();
        for inst in &state.instances {
            if let Some(simple) = inst.target.simple.as_ref() {
                union.extend(simple.targets(SimpleAction::Reject).iter().cloned());
            }
        }
        assert_eq!(union.len(), scenario.union_size());
        let importers: Vec<_> = state.instances.iter().filter(|i| i.pleroma).collect();
        assert_eq!(importers.len(), scenario.adoption_fractions().len());
        for inst in importers {
            let simple = inst.simple().expect("an importer runs the Simple stage");
            for domain in &union {
                assert!(
                    simple.matches(SimpleAction::Reject, domain),
                    "{} does not reject {}",
                    inst.domain.as_str(),
                    domain.as_str()
                );
            }
        }
    }

    #[test]
    fn partial_import_fractions_follow_the_heavy_tail() {
        let (_, scenario) = run(
            ImportConfig {
                chunk: 8,
                window: SimDuration::days(2),
                adoption: AdoptionModel::HeavyTail { alpha: 3.0 },
                reset_to_default: false,
            },
            2,
        );
        let fractions = scenario.adoption_fractions();
        assert!(
            fractions.len() >= 20,
            "the seed world must have enough Pleroma importers ({})",
            fractions.len()
        );
        // Pinned distribution shape: floor respected, right-skewed
        // (mean > median), small typical adoption, heavy tail present.
        assert!(fractions
            .iter()
            .all(|&f| (MIN_ADOPTION_FRACTION..=1.0).contains(&f)));
        let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
        let mut sorted = fractions.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            median < mean,
            "heavy tail must be right-skewed (median {median:.3} vs mean {mean:.3})"
        );
        assert!(
            (0.05..0.5).contains(&mean),
            "alpha=3 mean adoption should sit near 0.25, got {mean:.3}"
        );
        let small = fractions.iter().filter(|&&f| f <= 0.25).count();
        let large = fractions.iter().filter(|&&f| f >= 0.7).count();
        assert!(large >= 1, "someone imports nearly everything");
        assert!(
            small > fractions.len() / 2,
            "most admins import a sliver ({small}/{})",
            fractions.len()
        );
        assert!(small > large);
    }

    #[test]
    fn partial_import_schedules_fewer_events_than_full() {
        let full = run(
            ImportConfig {
                chunk: 1,
                window: SimDuration::days(2),
                adoption: AdoptionModel::Full,
                reset_to_default: false,
            },
            2,
        )
        .1;
        let partial = run(
            ImportConfig {
                chunk: 1,
                window: SimDuration::days(2),
                adoption: AdoptionModel::HeavyTail { alpha: 3.0 },
                reset_to_default: false,
            },
            2,
        )
        .1;
        assert!(partial.scheduled_events() < full.scheduled_events());
        assert!(partial.scheduled_events() > 0);
    }

    #[test]
    fn partial_import_is_deterministic() {
        let config = || ImportConfig {
            chunk: 4,
            window: SimDuration::days(2),
            adoption: AdoptionModel::HeavyTail { alpha: 3.0 },
            reset_to_default: true,
        };
        let (a, sa) = run(config(), 12);
        let (b, sb) = run(config(), 12);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
        assert_eq!(sa.adoption_fractions(), sb.adoption_fractions());
    }

    #[test]
    fn reset_to_default_starts_from_the_null_state() {
        let (trace, _) = run(
            ImportConfig {
                chunk: 16,
                window: SimDuration::days(2),
                adoption: AdoptionModel::HeavyTail { alpha: 3.0 },
                reset_to_default: true,
            },
            12,
        );
        // Tick 0 fires the first chunks inside the control phase, so the
        // cleanest null-state evidence is adoption accounting: only
        // importers ever adopt, and rejections ramp from the imports
        // alone (the seed configs were stripped).
        assert!(trace.ticks.last().unwrap().adopted > 0);
        assert!(trace.total_rejected() > 0);
    }
}
