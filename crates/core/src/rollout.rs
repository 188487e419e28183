//! Staged policy rollouts: an instance's moderation configuration as a
//! sequence of adoption waves.
//!
//! The paper measures moderation as a *snapshot*; real configurations are
//! reached over time — an admin enables `SimplePolicy`, adds a handful of
//! reject targets after an incident, extends the list as blocklists
//! circulate. [`PolicyRollout`] decomposes a final
//! [`InstanceModerationConfig`] into [`RolloutWave`]s that a
//! discrete-event scenario replays at logical offsets, so the dynamics
//! engine can ask "how much toxic exposure did each wave actually
//! prevent?" instead of treating the config as always-on.
//!
//! Decomposition is deterministic and free of randomness (the core crate
//! stays the deterministic heart): waves split each action's target list
//! into contiguous chunks and distribute enabled policy kinds
//! round-robin, with the Pleroma defaults always present from wave zero.

use crate::catalog::PolicyKind;
use crate::config::InstanceModerationConfig;
use crate::mrf::policies::SimplePolicy;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// One adoption step of a staged rollout.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RolloutWave {
    /// Logical offset from the rollout's start.
    pub offset: SimDuration,
    /// Policy kinds switched on in this wave.
    pub enable: Vec<PolicyKind>,
    /// `SimplePolicy` targets added in this wave (merged into whatever
    /// the instance already runs).
    pub simple: Option<SimplePolicy>,
}

impl RolloutWave {
    /// Whether the wave changes anything.
    pub fn is_empty(&self) -> bool {
        self.enable.is_empty()
            && self
                .simple
                .as_ref()
                .is_none_or(|s| s.events().next().is_none())
    }

    /// Clones the wave keeping only the `SimplePolicy` events `keep`
    /// accepts — the per-adopter subsampling primitive behind partial
    /// blocklist imports (§4.2: most admins adopt a *subset* of a
    /// circulating list, not its union). The predicate sees each
    /// `(action, domain)` pair in the wave's deterministic event order;
    /// `offset` and `enable` carry over verbatim, and a wave with no
    /// simple targets clones unchanged. When every event is dropped the
    /// clone's `simple` is `None`, so [`Self::is_empty`] answers
    /// correctly for enable-free waves and schedulers can skip them.
    /// Kept lists stay attached to the source's shared index
    /// ([`SimplePolicy::from_shared`]), so adopters of a subset record
    /// its names as bits too.
    pub fn subset_simple(
        &self,
        keep: impl FnMut(crate::mrf::policies::SimpleAction, &crate::id::Domain) -> bool,
    ) -> RolloutWave {
        RolloutWave {
            offset: self.offset,
            enable: self.enable.clone(),
            simple: self.simple.as_ref().and_then(|policy| policy.subset(keep)),
        }
    }
}

/// A full staged rollout: waves in chronological order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PolicyRollout {
    /// The waves, ordered by [`RolloutWave::offset`].
    pub waves: Vec<RolloutWave>,
}

impl PolicyRollout {
    /// Decomposes `target` into `waves` adoption steps spaced `interval`
    /// apart. Wave 0 (offset zero) carries the fresh-install defaults
    /// plus the first slice; applying every wave in order reproduces
    /// `target` exactly (verified by [`Self::replay`]).
    pub fn staged(
        target: &InstanceModerationConfig,
        waves: usize,
        interval: SimDuration,
    ) -> PolicyRollout {
        let waves = waves.max(1);
        let mut out: Vec<RolloutWave> = (0..waves)
            .map(|w| RolloutWave {
                offset: SimDuration(interval.0 * w as u64),
                enable: Vec::new(),
                simple: None,
            })
            .collect();
        // Defaults land in wave 0; the remaining kinds round-robin.
        let mut slot = 0;
        for &kind in &target.enabled {
            if kind.default_enabled() {
                out[0].enable.push(kind);
            } else {
                out[slot % waves].enable.push(kind);
                slot += 1;
            }
        }
        // Each action's target list splits into `waves` contiguous chunks.
        if let Some(simple) = &target.simple {
            for action in crate::mrf::policies::SimpleAction::ALL {
                let targets = simple.targets(action);
                if targets.is_empty() {
                    continue;
                }
                let chunk = targets.len().div_ceil(waves);
                for (w, slice) in targets.chunks(chunk).enumerate() {
                    let wave = &mut out[w.min(waves - 1)];
                    let cfg = wave.simple.get_or_insert_with(SimplePolicy::new);
                    for domain in slice {
                        cfg.add_target(action, domain.clone());
                    }
                }
            }
        }
        PolicyRollout { waves: out }
    }

    /// Applies every wave in order to a fresh config — the fixed point the
    /// staged decomposition converges to. Equals the original `target`
    /// up to policy order.
    pub fn replay(&self) -> InstanceModerationConfig {
        let mut config = InstanceModerationConfig::default();
        for wave in &self.waves {
            config.apply_wave(wave);
        }
        config
    }

    /// Total `(action, domain)` moderation events across all waves.
    pub fn total_events(&self) -> usize {
        self.waves
            .iter()
            .filter_map(|w| w.simple.as_ref())
            .map(|s| s.events().count())
            .sum()
    }
}

impl InstanceModerationConfig {
    /// Applies one rollout wave: enables the wave's policy kinds and
    /// merges its `SimplePolicy` targets into the current config.
    pub fn apply_wave(&mut self, wave: &RolloutWave) {
        for &kind in &wave.enable {
            self.enable(kind);
        }
        if let Some(addition) = &wave.simple {
            self.enable(PolicyKind::Simple);
            self.simple
                .get_or_insert_with(SimplePolicy::new)
                .merge(addition);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Domain;
    use crate::mrf::policies::SimpleAction;

    fn sample_config() -> InstanceModerationConfig {
        let mut simple = SimplePolicy::new();
        for i in 0..7 {
            simple.add_target(SimpleAction::Reject, Domain::new(format!("r{i}.example")));
        }
        simple.add_target(SimpleAction::MediaNsfw, Domain::new("lewd.example"));
        let mut config = InstanceModerationConfig::pleroma_default();
        config.enable(PolicyKind::Hellthread);
        config.enable(PolicyKind::StealEmoji);
        config.set_simple(simple);
        config
    }

    #[test]
    fn replay_reaches_the_target_config() {
        let target = sample_config();
        for waves in [1, 2, 3, 5, 9] {
            let rollout = PolicyRollout::staged(&target, waves, SimDuration::hours(4));
            let replayed = rollout.replay();
            let mut want = target.enabled.clone();
            let mut got = replayed.enabled.clone();
            want.sort();
            got.sort();
            assert_eq!(got, want, "{waves} waves");
            for action in SimpleAction::ALL {
                let mut w: Vec<_> = target.simple.as_ref().unwrap().targets(action).to_vec();
                let mut g: Vec<_> = replayed.simple.as_ref().unwrap().targets(action).to_vec();
                w.sort();
                g.sort();
                assert_eq!(g, w, "{waves} waves, {}", action.label());
            }
        }
    }

    #[test]
    fn waves_are_spaced_by_the_interval() {
        let rollout = PolicyRollout::staged(&sample_config(), 3, SimDuration::hours(4));
        assert_eq!(rollout.waves.len(), 3);
        assert_eq!(rollout.waves[0].offset, SimDuration(0));
        assert_eq!(rollout.waves[1].offset, SimDuration::hours(4));
        assert_eq!(rollout.waves[2].offset, SimDuration::hours(8));
    }

    #[test]
    fn defaults_land_in_wave_zero() {
        let rollout = PolicyRollout::staged(&sample_config(), 4, SimDuration::days(1));
        assert!(rollout.waves[0].enable.contains(&PolicyKind::ObjectAge));
        assert!(rollout.waves[0].enable.contains(&PolicyKind::NoOp));
    }

    #[test]
    fn event_mass_is_preserved() {
        let target = sample_config();
        let rollout = PolicyRollout::staged(&target, 3, SimDuration::hours(4));
        assert_eq!(
            rollout.total_events(),
            target.simple.as_ref().unwrap().events().count()
        );
    }

    #[test]
    fn merge_deduplicates() {
        let mut a = SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("x.example"));
        let b = SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("x.example"))
            .with_target(SimpleAction::Reject, Domain::new("y.example"));
        a.merge(&b);
        assert_eq!(a.targets(SimpleAction::Reject).len(), 2);
    }

    #[test]
    fn subset_keeps_exactly_the_accepted_events() {
        let target = sample_config();
        let wave = PolicyRollout::staged(&target, 1, SimDuration::hours(4))
            .waves
            .remove(0);
        // Keep every other simple event; enables carry over verbatim.
        let mut flip = false;
        let sub = wave.subset_simple(|_, _| {
            flip = !flip;
            flip
        });
        assert_eq!(sub.enable, wave.enable);
        assert_eq!(sub.offset, wave.offset);
        let total = wave.simple.as_ref().unwrap().events().count();
        let kept = sub.simple.as_ref().unwrap().events().count();
        assert_eq!(kept, total.div_ceil(2));
        // Every kept event exists in the original.
        for (action, domain) in sub.simple.as_ref().unwrap().events() {
            assert!(wave.simple.as_ref().unwrap().matches(action, domain));
        }
        // Keep-all is a faithful clone; drop-all leaves no simple stage.
        let all = wave.subset_simple(|_, _| true);
        assert_eq!(all.simple.as_ref().unwrap().events().count(), total);
        let none = wave.subset_simple(|_, _| false);
        assert!(none.simple.is_none());
        // An enable-free wave whose events are all dropped is empty.
        let import_wave = RolloutWave {
            offset: SimDuration(0),
            enable: Vec::new(),
            simple: wave.simple.clone(),
        };
        assert!(import_wave.subset_simple(|_, _| false).is_empty());
    }

    #[test]
    fn severing_class_is_the_defederation_trio() {
        assert!(PolicyKind::Simple.severs_federation());
        assert!(PolicyKind::Block.severs_federation());
        assert!(PolicyKind::AutoReject.severs_federation());
        assert!(!PolicyKind::NoOp.severs_federation());
        assert!(!PolicyKind::Hellthread.severs_federation());
    }

    #[test]
    fn single_wave_is_the_whole_config() {
        let target = sample_config();
        let rollout = PolicyRollout::staged(&target, 1, SimDuration::hours(4));
        assert_eq!(rollout.waves.len(), 1);
        assert!(!rollout.waves[0].is_empty());
        assert_eq!(
            rollout.waves[0]
                .simple
                .as_ref()
                .unwrap()
                .targets(SimpleAction::Reject)
                .len(),
            7
        );
    }
}
