//! A blocklist import schedules one queue run per instant, not one
//! entry per adoption. This test keeps the per-adoption scheduling loop
//! as the reference and checks that the runs pop the identical
//! `(at, seq, instance, wave contents)` sequence, leave the control
//! stream in the same place and count the same scheduled events, over
//! chunk sizes, adoption models, resets and windows (a zero window
//! lands every wave at one instant).

use fediscope_core::id::Domain;
use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
use fediscope_core::rollout::RolloutWave;
use fediscope_core::time::{SimDuration, SimTime};
use fediscope_dynamics::scenarios::{
    heavy_tail_fraction, AdoptionModel, BlocklistImportScenario, ImportConfig,
};
use fediscope_dynamics::{Event, EventQueue, NetworkState, Scenario};
use fediscope_synthgen::{ScenarioSeeds, World, WorldConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// The per-adoption scheduling loop: every kept `(importer, wave)` pair
/// is its own queue entry, importer-major and wave-minor. Returns the
/// number of events scheduled.
fn reference_init(
    config: &ImportConfig,
    start: SimTime,
    state: &mut NetworkState,
    queue: &mut EventQueue,
    rng: &mut SmallRng,
) -> u64 {
    if config.reset_to_default {
        for i in 0..state.len() {
            state.reset_moderation_default(i);
        }
    }
    let mut seen = HashSet::new();
    let mut union: Vec<Domain> = Vec::new();
    for inst in &state.instances {
        if let Some(simple) = inst.target.simple.as_ref() {
            for d in simple.targets(SimpleAction::Reject) {
                if seen.insert(d.as_str().to_string()) {
                    union.push(d.clone());
                }
            }
        }
    }
    let importers: Vec<u32> = (0..state.len())
        .filter(|&i| state.instances[i].pleroma)
        .map(|i| i as u32)
        .collect();
    let waves: Vec<(Arc<RolloutWave>, usize)> = union
        .chunks(config.chunk.max(1))
        .map(|c| {
            let mut s = SimplePolicy::new();
            for d in c {
                s.add_target(SimpleAction::Reject, d.clone());
            }
            (
                Arc::new(RolloutWave {
                    offset: SimDuration(0),
                    enable: Vec::new(),
                    simple: Some(s),
                }),
                c.len(),
            )
        })
        .collect();
    let n = waves.len().max(1) as u64;
    let mut scheduled_events = 0;
    for &i in &importers {
        let fraction = match config.adoption {
            AdoptionModel::Full => 1.0,
            AdoptionModel::HeavyTail { alpha } => heavy_tail_fraction(rng.gen(), alpha),
        };
        let mut keep_rng = SmallRng::seed_from_u64(rng.gen());
        for (pos, (wave, entries)) in waves.iter().enumerate() {
            let at = start + SimDuration(config.window.0 * pos as u64 / n);
            let scheduled = if fraction >= 1.0 {
                Some(Arc::clone(wave))
            } else {
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
            if let Some(wave) = scheduled {
                scheduled_events += 1;
                queue.schedule(at, Event::AdoptWave { instance: i, wave });
            }
        }
    }
    scheduled_events
}

/// Same event: same instance and, for adoptions, the same wave contents.
fn same_event(a: &Event, b: &Event) -> bool {
    match (a, b) {
        (
            Event::AdoptWave { instance, wave },
            Event::AdoptWave {
                instance: other,
                wave: other_wave,
            },
        ) => {
            instance == other
                && wave.enable == other_wave.enable
                && match (&wave.simple, &other_wave.simple) {
                    (Some(x), Some(y)) => x.events().eq(y.events()),
                    (x, y) => x.is_none() && y.is_none(),
                }
        }
        (Event::Recover { instance }, Event::Recover { instance: other }) => instance == other,
        _ => false,
    }
}

/// Pops both queues in lockstep, asserting each pop's `(at, seq, event)`
/// and the queues' `len` and `next_at` after it agree. Returns the pops.
fn assert_same_pops(got: &mut EventQueue, expected: &mut EventQueue, label: &str) -> u64 {
    let mut pops = 0;
    loop {
        let now = SimTime(u64::MAX);
        match (got.pop_due(now), expected.pop_due(now)) {
            (None, None) => break,
            (Some(g), Some(e)) => assert!(
                (g.at, g.seq) == (e.at, e.seq) && same_event(&g.event, &e.event),
                "{label}: pop {pops} is {g:?}, the reference pops {e:?}"
            ),
            (g, e) => panic!("{label}: pop {pops} is {g:?}, the reference pops {e:?}"),
        }
        pops += 1;
        assert_eq!(got.len(), expected.len(), "{label}: pop {pops}");
        assert_eq!(got.next_at(), expected.next_at(), "{label}: pop {pops}");
    }
    assert!(got.is_empty());
    pops
}

#[test]
fn import_runs_pop_the_per_adoption_sequence() {
    // Half the small test world: 4,680 adoptions per full import at
    // one domain per wave, enough to cross many instants.
    let world = World::generate(WorldConfig {
        scale: 0.05,
        ..WorldConfig::test_small()
    });
    let seeds = ScenarioSeeds::from_world(&world);
    let start = SimTime(1_000);
    // The union and the importers come from seed targets and flags that
    // resets leave alone, so both states serve every case.
    let mut state = NetworkState::from_seeds(&seeds);
    let mut ref_state = NetworkState::from_seeds(&seeds);
    let mut cases = 0;
    for chunk in [1, 8, 16] {
        for adoption in [AdoptionModel::Full, AdoptionModel::HeavyTail { alpha: 3.0 }] {
            for reset_to_default in [false, true] {
                for window in [SimDuration::days(5), SimDuration::days(2), SimDuration(0)] {
                    let config = ImportConfig {
                        chunk,
                        window,
                        adoption,
                        reset_to_default,
                    };
                    let label = format!("{config:?}");
                    let seed = 0x1534 ^ cases;

                    let mut queue = EventQueue::new();
                    // Something already queued at the start instant keeps
                    // its place ahead of the import.
                    queue.schedule(start, Event::Recover { instance: 0 });
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut scenario = BlocklistImportScenario::new(config.clone());
                    scenario.init(start, &mut state, &mut queue, &mut rng);

                    let mut ref_queue = EventQueue::new();
                    ref_queue.schedule(start, Event::Recover { instance: 0 });
                    let mut ref_rng = SmallRng::seed_from_u64(seed);
                    let ref_events = reference_init(
                        &config,
                        start,
                        &mut ref_state,
                        &mut ref_queue,
                        &mut ref_rng,
                    );

                    assert!(ref_events > 0, "{label}");
                    assert_eq!(scenario.scheduled_events(), ref_events, "{label}");
                    assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>(), "{label}");
                    assert!(state
                        .instances
                        .iter()
                        .zip(&ref_state.instances)
                        .all(|(a, b)| a.enabled() == b.enabled()));
                    assert_eq!(queue.len(), ref_queue.len(), "{label}");
                    assert_eq!(queue.next_at(), ref_queue.next_at(), "{label}");
                    assert_eq!(queue.scheduled_total(), ref_queue.scheduled_total());
                    let pops = assert_same_pops(&mut queue, &mut ref_queue, &label);
                    assert_eq!(pops, ref_events + 1, "{label}");
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 36);
}
