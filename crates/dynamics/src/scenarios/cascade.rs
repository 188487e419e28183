//! Scenario 2 — defederation/blocklist cascade.
//!
//! Seed blocks come from the generated moderation profiles: every
//! instance whose final config reject-lists a linked peer defederates
//! from it early in the run. Each applied block then propagates along
//! federation links — a neighbor that still federates with both the
//! blocker and the target imitates the block after a delay, with a
//! probability weighted by the blocker's follower mass
//! ([`follower_weight`]): admins copy the lists of instances they
//! trust, and trust follows size — exactly the shared-blocklist dynamic
//! of the follow-up literature. The trace's falling link count is the
//! fragmentation curve.

use crate::event::{Event, EventQueue, Scheduled};
use crate::scenario::Scenario;
use crate::state::NetworkState;
use fediscope_core::mrf::policies::SimpleAction;
use fediscope_core::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Cascade shape.
#[derive(Debug, Clone)]
pub struct CascadeConfig {
    /// Base probability that a neighbor of a blocker imitates an applied
    /// block (per neighbor, per applied block), at the reference blocker
    /// size — scaled by [`follower_weight`] of the blocker's user count.
    pub imitation_p: f64,
    /// Delay before an imitated block fires. No caller sets it; it stays
    /// a field only while the benchmark's `CascadeConfig { imitation_p,
    /// ..CascadeConfig::default() }` literal needs a field it does not
    /// name (with none left, clippy's `needless_update` flags that
    /// literal), and becomes a constant with the next benchmark change.
    pub imitation_delay: SimDuration,
}

/// Window over which the seed blocks are spread.
const SEED_WINDOW: SimDuration = SimDuration::days(1);

/// Blocker size at which [`follower_weight`] is exactly 1.0, i.e.
/// [`CascadeConfig::imitation_p`] applies unscaled.
pub const REFERENCE_FOLLOWERS: u32 = 100;

/// Multiplier on the imitation probability from the *blocker's* user
/// count (the follower proxy): admins copy the blocklists of instances
/// people actually follow, so a block applied by a large curated-list
/// instance propagates harder than the same block from a single-user
/// server. Log-scaled — `ln(1 + users) / ln(1 + REFERENCE_FOLLOWERS)` —
/// and clamped to `[0.05, 2.5]`, so tiny blockers still occasionally
/// propagate and giants cannot push the probability past certainty.
pub fn follower_weight(users: u32) -> f64 {
    let reference = (1.0 + REFERENCE_FOLLOWERS as f64).ln();
    ((1.0 + users as f64).ln() / reference).clamp(0.05, 2.5)
}

/// The per-neighbor imitation probability for a block applied by an
/// instance with `users` registered users.
pub fn imitation_probability(base_p: f64, users: u32) -> f64 {
    (base_p * follower_weight(users)).clamp(0.0, 1.0)
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            imitation_p: 0.3,
            imitation_delay: SimDuration::hours(8),
        }
    }
}

/// The defederation-cascade scenario.
#[derive(Debug, Default)]
pub struct DefederationCascadeScenario {
    config: CascadeConfig,
    seed_blocks: u64,
    imitations: u64,
}

impl DefederationCascadeScenario {
    /// A scenario with the given shape.
    pub fn new(config: CascadeConfig) -> Self {
        DefederationCascadeScenario {
            config,
            seed_blocks: 0,
            imitations: 0,
        }
    }

    /// Blocks seeded from the moderation profiles (after `init`).
    pub fn seed_blocks(&self) -> u64 {
        self.seed_blocks
    }

    /// Imitated blocks scheduled so far.
    pub fn imitations(&self) -> u64 {
        self.imitations
    }
}

impl Scenario for DefederationCascadeScenario {
    fn name(&self) -> &'static str {
        "defederation_cascade"
    }

    fn init(
        &mut self,
        start: SimTime,
        state: &mut NetworkState,
        queue: &mut EventQueue,
        _rng: &mut SmallRng,
    ) {
        // Every reject edge of the seed configs that is also a live
        // federation link becomes a seed block, spread over the window.
        // Reciprocal rejects (a↔t) are deduplicated: the undirected link
        // can only fall once, and one block per pair keeps `seed_blocks`
        // equal to the links the seeds alone will sever.
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for a in 0..state.len() {
            let inst = &state.instances[a];
            // Only instances running a defederation-class policy
            // (SimplePolicy / Block / AutoReject) can seed blocks.
            if !inst.enabled().iter().any(|k| k.severs_federation()) {
                continue;
            }
            let Some(simple) = inst.simple() else {
                continue;
            };
            for target in simple.targets(SimpleAction::Reject) {
                if let Some(t) = state.index_of(target.as_str()) {
                    let a = a as u32;
                    if state.linked(a, t) && seen.insert((a.min(t), a.max(t))) {
                        edges.push((a, t));
                    }
                }
            }
        }
        self.seed_blocks = edges.len() as u64;
        let n = edges.len().max(1) as u64;
        for (pos, (a, t)) in edges.into_iter().enumerate() {
            let at = start + SimDuration(SEED_WINDOW.0 * pos as u64 / n);
            queue.schedule(
                at,
                Event::Defederate {
                    instance: a,
                    target: t,
                },
            );
        }
    }

    fn after_event(
        &mut self,
        event: &Scheduled,
        applied: bool,
        state: &NetworkState,
        queue: &mut EventQueue,
        rng: &mut SmallRng,
    ) {
        let Event::Defederate { instance, target } = &event.event else {
            return;
        };
        if !applied {
            return; // the link was already gone — nothing new to imitate
        }
        // Neighbors that still federate with both the blocker and the
        // target hear about the block and may copy it — with probability
        // weighted by how followed the *blocker* is (big curated-list
        // instances get copied more, §4.2's shared-blocklist dynamic).
        let p = imitation_probability(
            self.config.imitation_p,
            state.instances[*instance as usize].users,
        );
        for &b in state.neighbors(*instance as usize) {
            if b != *target && state.linked(b, *target) && rng.gen_bool(p) {
                self.imitations += 1;
                queue.schedule(
                    event.at + self.config.imitation_delay,
                    Event::Defederate {
                        instance: b,
                        target: *target,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DynamicsConfig, DynamicsEngine};
    use crate::testutil::seeds;

    #[test]
    fn cascade_fragments_the_network() {
        let config = DynamicsConfig {
            ticks: 24,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        let mut scenario = DefederationCascadeScenario::new(CascadeConfig::default());
        let trace = engine.run(&mut scenario);
        assert!(scenario.seed_blocks() > 0, "seed configs must yield blocks");
        assert!(
            trace.final_links() < trace.initial_links(),
            "links must fall: {} -> {}",
            trace.initial_links(),
            trace.final_links()
        );
        // Link counts are monotonically non-increasing: defederation
        // only ever tears down.
        for w in trace.ticks.windows(2) {
            assert!(w[1].links <= w[0].links);
        }
    }

    #[test]
    fn zero_imitation_stops_at_the_seed_blocks() {
        let config = DynamicsConfig {
            ticks: 24,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        // Measure from the pre-run state: the first seed block fires
        // inside tick 0's control phase, before the first trace row.
        let before = engine.state().link_count();
        let mut scenario = DefederationCascadeScenario::new(CascadeConfig {
            imitation_p: 0.0,
            ..CascadeConfig::default()
        });
        let trace = engine.run(&mut scenario);
        assert_eq!(scenario.imitations(), 0);
        assert_eq!(
            before - trace.final_links(),
            scenario.seed_blocks(),
            "without imitation exactly the seed edges fall"
        );
    }

    #[test]
    fn follower_weighting_is_pinned() {
        // Exactly 1.0 at the reference size: `imitation_p` is the
        // probability a 100-user blocker's block is copied.
        assert!((follower_weight(REFERENCE_FOLLOWERS) - 1.0).abs() < 1e-12);
        // The formula itself is pinned: ln(1+u)/ln(101).
        let expect = |u: u32| ((1.0 + u as f64).ln() / 101_f64.ln()).clamp(0.05, 2.5);
        for users in [0, 1, 10, 100, 1_800, 17_900, 1_000_000] {
            assert!(
                (follower_weight(users) - expect(users)).abs() < 1e-12,
                "weight({users})"
            );
        }
        // Monotone in the blocker's size, and clamped at both ends.
        assert!(follower_weight(1) < follower_weight(10));
        assert!(follower_weight(10) < follower_weight(1_000));
        assert_eq!(follower_weight(0), 0.05);
        assert_eq!(follower_weight(u32::MAX), 2.5);
        // The effective probability scales with the weight and stays a
        // probability.
        assert!(
            imitation_probability(0.3, 17_900) > imitation_probability(0.3, 1),
            "big blockers must be copied more"
        );
        assert_eq!(imitation_probability(0.0, u32::MAX), 0.0);
        assert_eq!(imitation_probability(1.0, u32::MAX), 1.0);
    }

    #[test]
    fn imitation_amplifies_fragmentation() {
        let run = |p: f64| {
            let config = DynamicsConfig {
                ticks: 24,
                ..DynamicsConfig::default()
            };
            let mut engine = DynamicsEngine::new(config, seeds());
            let mut scenario = DefederationCascadeScenario::new(CascadeConfig {
                imitation_p: p,
                ..CascadeConfig::default()
            });
            let trace = engine.run(&mut scenario);
            trace.initial_links() - trace.final_links()
        };
        assert!(
            run(0.6) > run(0.0),
            "imitation must sever strictly more links"
        );
    }
}
