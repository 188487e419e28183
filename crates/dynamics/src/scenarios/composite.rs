//! Scenario 5 — composition: several scenarios sharing one timeline.
//!
//! The interesting dynamics questions are *interactions*: does a staged
//! MRF rollout keep up with a toxicity storm that erupts during an
//! outage wave? [`Composite`] multiplexes any number of sub-scenarios
//! over one engine run — each seeds its own events and reacts to the
//! merged stream — so storm + churn + rollout run against the same
//! evolving state instead of three disconnected worlds.
//!
//! # Determinism and ordering
//!
//! Two rules make composed runs reproducible and (where semantics
//! allow) independent of registration order:
//!
//! 1. **Per-sub RNG stream splitting.** `init` draws one base value
//!    from the engine's control RNG, then derives each sub-scenario's
//!    private `SmallRng` as `base ⊕ fnv1a(sub.name())`. A sub's draws
//!    therefore never depend on how many draws its siblings made *or*
//!    on its registration position. Same-name duplicates are salted by
//!    per-name occurrence (so their draws stay decorrelated), which
//!    ties a duplicate's stream to its position among its namesakes —
//!    order invariance is promised across *distinct* names only.
//! 2. **Fixed merge order.** Sub-scenarios `init` and observe
//!    `after_event` in registration order, and the event queue's
//!    `(time, seq)` order means same-tick events from different subs
//!    apply in registration order too. That is the documented
//!    tie-break: for the shipped storm/churn/rollout trio the order is
//!    irrelevant (their events commute — they touch disjoint state
//!    fields — and their `after_event` hooks are no-ops), so the trace
//!    is bit-identical under any registration permutation; a *reactive*
//!    sub like the defederation cascade breaks that invariance, because
//!    its imitation draws follow the merged event order. The root
//!    `tests/contracts.rs` matrix pins exactly this contract: it runs
//!    the trio in all six orders.
//!
//! Scenarios that rewrite state in `init` (rollout strips moderation,
//! churn resets failure modes) do so in registration order as well;
//! the shipped trio touches disjoint fields, so composition order does
//! not change the post-`init` state.

use crate::event::{EventQueue, Scheduled};
use crate::scenario::Scenario;
use crate::state::NetworkState;
use fediscope_core::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a scenario name — the stream-split key.
fn name_stream(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Sub {
    scenario: Box<dyn Scenario>,
    /// Private control stream, split off in `init`.
    rng: Option<SmallRng>,
}

/// Multiplexes several scenarios over one engine run.
#[derive(Default)]
pub struct Composite {
    subs: Vec<Sub>,
}

impl Composite {
    /// An empty composition (a no-op scenario until subs are added).
    pub fn new() -> Self {
        Composite::default()
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, scenario: Box<dyn Scenario>) -> Self {
        self.push(scenario);
        self
    }

    /// Registers a sub-scenario. Registration order is the merge order:
    /// `init`/`after_event` fan out in this order, and same-tick events
    /// apply in it.
    pub fn push(&mut self, scenario: Box<dyn Scenario>) {
        self.subs.push(Sub {
            scenario,
            rng: None,
        });
    }

    /// Number of registered sub-scenarios.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when no sub-scenario is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Registered sub-scenario names, in merge order.
    pub fn sub_names(&self) -> Vec<&'static str> {
        self.subs.iter().map(|s| s.scenario.name()).collect()
    }
}

impl Scenario for Composite {
    fn name(&self) -> &'static str {
        "composite"
    }

    fn init(
        &mut self,
        start: SimTime,
        state: &mut NetworkState,
        queue: &mut EventQueue,
        rng: &mut SmallRng,
    ) {
        // One draw regardless of sub count or order: the split base.
        let base: u64 = rng.gen();
        // Duplicate names are salted by per-name occurrence so two subs
        // of the same scenario still get decorrelated streams (among
        // same-name duplicates the stream follows registration
        // position, so order invariance only ever holds across
        // *distinct* names — the module-doc contract).
        let mut occurrence: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        for sub in &mut self.subs {
            let name = sub.scenario.name();
            let salt = occurrence.entry(name).or_insert(0);
            let seed = base ^ name_stream(name) ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            *salt += 1;
            let mut stream = SmallRng::seed_from_u64(seed);
            sub.scenario.init(start, state, queue, &mut stream);
            sub.rng = Some(stream);
        }
    }

    fn after_event(
        &mut self,
        event: &Scheduled,
        applied: bool,
        state: &NetworkState,
        queue: &mut EventQueue,
        _rng: &mut SmallRng,
    ) {
        // Every sub observes every event (it cannot know which sibling
        // scheduled it), each reacting through its own stream.
        for sub in &mut self.subs {
            let stream = sub.rng.as_mut().expect("init splits the streams");
            sub.scenario
                .after_event(event, applied, state, queue, stream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DynamicsConfig, DynamicsEngine};
    use crate::scenarios::lookup;
    use crate::testutil::seeds;

    /// The registry's `subs`, composed in the given order.
    fn composed(subs: [&str; 3]) -> Composite {
        subs.into_iter().fold(Composite::new(), |c, name| {
            c.with((lookup(name).unwrap().build)())
        })
    }

    fn run(scenario: &mut dyn Scenario, ticks: u64) -> crate::DynamicsTrace {
        let config = DynamicsConfig {
            ticks,
            ..DynamicsConfig::default()
        };
        DynamicsEngine::new(config, seeds()).run(scenario)
    }

    #[test]
    fn composite_superimposes_all_three_dynamics() {
        let mut scenario = composed(["storm", "churn", "rollout"]);
        assert_eq!(scenario.len(), 3);
        assert_eq!(
            scenario.sub_names(),
            vec!["toxicity_storm", "instance_churn", "policy_rollout"]
        );
        let trace = run(&mut scenario, 36);
        let last = trace.ticks.last().unwrap();
        // Churn: the fleet decays to the seeded taxonomy.
        assert!(last.instances_up < trace.ticks[0].instances_up);
        assert!(last.failure_mix.iter().sum::<u64>() > 0);
        // Rollout: adopters converge.
        assert!(last.adopted > 0);
        // Storm: the burst window (ticks 4..10) spikes delivered volume
        // over the pre-burst baseline.
        assert!(trace.ticks[6].delivered > trace.ticks[2].delivered);
        // Deliveries are lost to churn *while* the rollout prevents
        // exposure — the composed interaction the trio exists for.
        assert!(trace.ticks.iter().map(|t| t.failed).sum::<u64>() > 0);
        assert!(trace.total_prevented() > 0);
    }

    #[test]
    fn empty_composite_is_steady_state() {
        let mut scenario = Composite::new();
        let trace = run(&mut scenario, 6);
        assert_eq!(trace.ticks.iter().map(|t| t.events).sum::<u64>(), 0);
        assert_eq!(trace.initial_links(), trace.final_links());
    }

    #[test]
    fn same_name_duplicates_get_decorrelated_streams() {
        use std::cell::Cell;
        use std::rc::Rc;

        // A probe that records the first draw of its private stream.
        struct Probe(Rc<Cell<u64>>);
        impl Scenario for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn init(
                &mut self,
                _start: SimTime,
                _state: &mut NetworkState,
                _queue: &mut EventQueue,
                rng: &mut SmallRng,
            ) {
                self.0.set(rng.gen());
            }
        }

        let draws = || {
            let a = Rc::new(Cell::new(0));
            let b = Rc::new(Cell::new(0));
            let mut composite = Composite::new()
                .with(Box::new(Probe(Rc::clone(&a))))
                .with(Box::new(Probe(Rc::clone(&b))));
            let mut rng = SmallRng::seed_from_u64(7);
            let mut state = NetworkState::from_seeds(seeds());
            let mut queue = EventQueue::new();
            composite.init(
                fediscope_core::time::CAMPAIGN_START,
                &mut state,
                &mut queue,
                &mut rng,
            );
            (a.get(), b.get())
        };
        let (a, b) = draws();
        assert_ne!(a, b, "same-name subs must not share a stream");
        // And the salting is itself deterministic.
        assert_eq!(draws(), (a, b));
    }

    #[test]
    fn trio_is_registration_order_invariant() {
        // Non-reactive subs with commuting events: any permutation
        // produces the bit-identical trace (the module-doc contract).
        let reference = run((lookup("composite").unwrap().build)().as_mut(), 18);
        let got = run(&mut composed(["rollout", "churn", "storm"]), 18);
        // Scenario name is the composite's own, so whole traces compare.
        assert_eq!(reference.digest(), got.digest());
        assert_eq!(reference, got);
    }
}
