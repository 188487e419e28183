//! Sharded world generation is bit-identical to the sequential pass, and
//! the streamed seed extract is the materialised world's.
//!
//! `World::generate` fans its per-instance stage out on the rayon pool;
//! every skeleton draws from a private RNG stream, so the worker count
//! must never move a draw. This proptest generates each world at 1, 2 and
//! 8 workers and compares whole worlds by content digest.
//!
//! Worker counts are swept inside the test body by resetting the global
//! rayon pool size between runs (the shim allows it; real rayon would
//! degrade the sweep to same-size repeats). Nothing else in this test
//! binary sets the pool size, so the sweep is race-free.
//!
//! `ScenarioSeeds::from_config_streamed` composes only the posts its
//! templates keep (the extractor's post budget), so a second test checks
//! it against extraction from the fully generated world, column for
//! column, at several world seeds.

use fediscope::synthgen::{Parallelism, ScenarioSeeds, SeedKnobs, World, WorldConfig};
use proptest::prelude::*;

/// FNV-1a content digest of a generated world: everything the
/// per-instance generation streams decide (users, harm-driven posts,
/// media/hashtag/link habits) plus the network-level outputs (directory,
/// peers, timeline flags, reject ground truth).
fn world_digest(world: &World) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for domain in &world.directory {
        eat(domain.as_str().as_bytes());
    }
    for inst in &world.instances {
        eat(inst.profile.domain.as_str().as_bytes());
        eat(&[
            inst.profile.public_timeline_open as u8,
            inst.crawlable() as u8,
        ]);
        eat(&inst.rejects_received.to_le_bytes());
        eat(&(inst.peers.len() as u64).to_le_bytes());
        for user in &inst.users {
            eat(&user.user.id.0.to_le_bytes());
            eat(&user.user.created.0.to_le_bytes());
            eat(&user.user.followers.to_le_bytes());
            eat(&user.user.following.to_le_bytes());
            eat(&[user.user.bot as u8]);
            for post in &user.posts {
                eat(&post.id.0.to_le_bytes());
                eat(&post.created.0.to_le_bytes());
                eat(post.content.as_bytes());
                eat(&[
                    post.media.len() as u8,
                    post.hashtags.len() as u8,
                    post.has_links as u8,
                ]);
            }
        }
    }
    h
}

/// A small world (0.1 scale, 0.002 post scale) at `threads` workers.
fn generate(seed: u64, threads: usize) -> World {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global();
    World::generate(WorldConfig {
        seed,
        scale: 0.1,
        post_scale: 0.002,
        parallelism: Parallelism(threads),
        ..WorldConfig::paper()
    })
}

proptest! {
    /// Worlds at 2 and 8 workers equal the 1-worker world bit for bit,
    /// across random seeds; distinct seeds must still diverge (the digest
    /// really covers the content).
    #[test]
    fn sharded_worldgen_is_bit_identical(seed in 0_u64..100_000) {
        let reference = generate(seed, 1);
        let reference_digest = world_digest(&reference);
        for threads in [2_usize, 8] {
            let sharded = generate(seed, threads);
            prop_assert_eq!(
                reference.instances.len(),
                sharded.instances.len(),
                "instance count diverged at {} threads",
                threads
            );
            prop_assert_eq!(
                reference_digest,
                world_digest(&sharded),
                "world content diverged at {} threads (seed {})",
                threads,
                seed
            );
        }
        let other = generate(seed ^ 0x5eed_beef, 1);
        prop_assert_ne!(reference_digest, world_digest(&other));
    }
}

/// The streamed extract, which composes only `max_templates` posts per
/// instance, equals extraction from the whole world at three world
/// seeds and at the default and a one-template cap.
#[test]
fn budgeted_streamed_seeds_equal_the_materialised_extract() {
    for seed in [1534, 77, 3] {
        let config = WorldConfig {
            seed,
            scale: 0.1,
            post_scale: 0.002,
            ..WorldConfig::paper()
        };
        let world = World::generate(config.clone());
        for max_templates in [1, SeedKnobs::default().max_templates] {
            let knobs = SeedKnobs { max_templates };
            assert!(
                world
                    .instances
                    .iter()
                    .any(|i| i.post_count() > max_templates),
                "seed {seed}: the budget of {max_templates} must cut some instance short"
            );
            let materialised = ScenarioSeeds::from_world_with(&world, &knobs);
            let streamed = ScenarioSeeds::from_config_streamed(&config, &knobs);
            assert_eq!(
                materialised.first_difference(&streamed),
                None,
                "seed {seed}, max_templates {max_templates}"
            );
        }
    }
}
