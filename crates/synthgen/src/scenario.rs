//! Scenario seeding: the slice of a generated [`World`] that dynamic
//! (time-evolving) experiments consume.
//!
//! The dynamics engine does not want the whole world — it wants, per
//! instance, the *final* moderation profile (what a rollout converges
//! to), the §3 failure mode (what churn replays), a few representative
//! post templates (what storms deliver), and the federation links events
//! propagate along. [`ScenarioSeeds::from_world`] extracts exactly that,
//! deterministically, so `seed → world → seeds → trace` is one
//! reproducible pipeline.
//!
//! The extract is stored struct-of-arrays with a memory budget: one
//! column per field (so scans over a single attribute touch only that
//! attribute's cache lines), post bodies behind shared `Arc<str>`
//! allocations (one body is referenced by the world, the seed template
//! and every experiment arm's pre-built activity), and template sets
//! behind `Arc<[PostSeed]>`. [`ScenarioSeeds::from_config_streamed`]
//! builds the same extract without ever materialising the corpus: it
//! sits as a [`WorldSink`] under [`World::generate_streamed`] and keeps
//! only the columns, which is what makes 1.0-scale (millions of users)
//! scenario runs fit in an ordinary container. It also declares a post
//! budget of [`SeedKnobs::max_templates`]
//! ([`WorldSink::post_budget`]), so worldgen composes only the bodies
//! the templates keep — about a tenth of the corpus at paper scale —
//! and the extract is still the full world's, column for column.

use crate::config::WorldConfig;
use crate::world::{GeneratedInstance, GeneratedUser, World, WorldSink};
use fediscope_core::config::InstanceModerationConfig;
use fediscope_core::id::Domain;
use fediscope_core::mrf::policies::SimpleAction;
use fediscope_simnet::FailureMode;
use std::collections::HashMap;
use std::sync::Arc;

/// Knobs for seed extraction.
#[derive(Debug, Clone)]
pub struct SeedKnobs {
    /// Per-instance cap on post templates (the dynamics engine cycles
    /// through them; a handful is enough to reproduce the harm mix).
    pub max_templates: usize,
    /// Whether non-Pleroma instances join the seed set. They carry no
    /// posts or policies but are needed as resolvable reject targets.
    pub include_non_pleroma: bool,
}

impl Default for SeedKnobs {
    fn default() -> Self {
        SeedKnobs {
            max_templates: 32,
            include_non_pleroma: true,
        }
    }
}

/// One reusable post: author (instance-local user id) and content. The
/// body is a shared allocation — cloning a seed (or building an
/// engine-side template from it) bumps a refcount instead of copying
/// text.
#[derive(Debug, Clone)]
pub struct PostSeed {
    /// The authoring user's id.
    pub author: u64,
    /// Post text (what the Perspective substrate scores).
    pub content: Arc<str>,
}

/// The dynamics-facing extract of a generated world, struct-of-arrays:
/// every `Vec` below is one column indexed by instance (index order
/// matches the world's instance order, filtered by
/// [`SeedKnobs::include_non_pleroma`]).
#[derive(Debug, Clone)]
pub struct ScenarioSeeds {
    /// The world seed (scenario RNG streams derive from it).
    pub seed: u64,
    /// Instance domains.
    pub domains: Vec<Domain>,
    /// Whether each instance runs Pleroma.
    pub pleroma: Vec<bool>,
    /// The §3 failure mode the world assigned (churn replays this).
    pub failures: Vec<FailureMode>,
    /// Each instance's *final* moderation configuration — the target a
    /// staged rollout converges to.
    pub moderation: Vec<InstanceModerationConfig>,
    /// Registered users.
    pub users: Vec<u32>,
    /// Full-scale post volume (drives emission rates).
    pub posts_full_scale: Vec<u64>,
    /// Ground truth: instances rejecting each one.
    pub rejects_received: Vec<u32>,
    /// Representative posts (capped by [`SeedKnobs::max_templates`]),
    /// shared — experiment arms built over the same seeds alias one
    /// template set per instance.
    pub templates: Vec<Arc<[PostSeed]>>,
    /// Undirected federation links as `(i, j)` index pairs with `i < j`,
    /// sorted — derived from the Peers API payloads.
    pub links: Vec<(u32, u32)>,
}

/// The [`WorldSink`] behind both extraction paths: keeps the seed
/// columns, holds each instance's (shared) peer list for link resolution
/// at the end, and drops everything else — under
/// [`World::generate_streamed`] the full users/posts of an instance die
/// with its chunk.
struct SeedExtractor {
    knobs: SeedKnobs,
    seeds: ScenarioSeeds,
    peers: Vec<Arc<[Domain]>>,
}

impl SeedExtractor {
    fn new(knobs: &SeedKnobs, seed: u64) -> SeedExtractor {
        SeedExtractor {
            knobs: knobs.clone(),
            seeds: ScenarioSeeds {
                seed,
                domains: Vec::new(),
                pleroma: Vec::new(),
                failures: Vec::new(),
                moderation: Vec::new(),
                users: Vec::new(),
                posts_full_scale: Vec::new(),
                rejects_received: Vec::new(),
                templates: Vec::new(),
                links: Vec::new(),
            },
            peers: Vec::new(),
        }
    }

    /// Template extraction shared by the owned and borrowed paths: first
    /// `max_templates` non-empty bodies, refcounted out of the posts.
    fn templates_of(&self, users: &[GeneratedUser]) -> Arc<[PostSeed]> {
        let mut templates = Vec::new();
        'outer: for user in users {
            for post in &user.posts {
                if templates.len() >= self.knobs.max_templates {
                    break 'outer;
                }
                if !post.content.is_empty() {
                    templates.push(PostSeed {
                        author: user.user.id.0,
                        content: Arc::clone(&post.content),
                    });
                }
            }
        }
        Arc::from(templates)
    }

    fn keeps(&self, inst: &GeneratedInstance) -> bool {
        self.knobs.include_non_pleroma || inst.profile.is_pleroma()
    }

    /// Column push for a borrowed instance (the `from_world` path; the
    /// moderation config is cloned because the world keeps its copy).
    fn push(&mut self, inst: &GeneratedInstance) {
        if !self.keeps(inst) {
            return;
        }
        let templates = self.templates_of(&inst.users);
        self.seeds.domains.push(inst.profile.domain.clone());
        self.seeds.pleroma.push(inst.profile.is_pleroma());
        self.seeds.failures.push(inst.failure);
        self.seeds.moderation.push(inst.moderation.clone());
        self.seeds.users.push(inst.users.len() as u32);
        self.seeds.posts_full_scale.push(inst.posts_full_scale);
        self.seeds.rejects_received.push(inst.rejects_received);
        self.seeds.templates.push(templates);
        self.peers.push(Arc::clone(&inst.peers));
    }

    /// Resolves peer domains into canonical `(i, j)` link pairs and
    /// returns the finished extract. Runs after the last instance so the
    /// domain → index map is complete (peer lists legitimately reference
    /// instances generated later).
    fn finish(mut self) -> ScenarioSeeds {
        let index_of: HashMap<&str, u32> = self
            .seeds
            .domains
            .iter()
            .enumerate()
            .map(|(new, d)| (d.as_str(), new as u32))
            .collect();
        let mut links: Vec<(u32, u32)> = Vec::new();
        for (new, peers) in self.peers.iter().enumerate() {
            for peer in peers.iter() {
                if let Some(&j) = index_of.get(peer.as_str()) {
                    let i = new as u32;
                    if i != j {
                        links.push((i.min(j), i.max(j)));
                    }
                }
            }
        }
        links.sort_unstable();
        links.dedup();
        self.seeds.links = links;
        self.seeds
    }
}

impl WorldSink for SeedExtractor {
    fn instance(&mut self, _index: usize, instance: GeneratedInstance) {
        // The owned path: moderation configs (with their SimplePolicy
        // target lists) move into the column instead of being cloned;
        // users and posts drop right here, bounding the resident set.
        if !self.keeps(&instance) {
            return;
        }
        let templates = self.templates_of(&instance.users);
        self.seeds.domains.push(instance.profile.domain.clone());
        self.seeds.pleroma.push(instance.profile.is_pleroma());
        self.seeds.failures.push(instance.failure);
        self.seeds.moderation.push(instance.moderation);
        self.seeds.users.push(instance.users.len() as u32);
        self.seeds.posts_full_scale.push(instance.posts_full_scale);
        self.seeds.rejects_received.push(instance.rejects_received);
        self.seeds.templates.push(templates);
        self.peers.push(instance.peers);
    }

    /// [`templates_of`](Self::templates_of) reads the first
    /// `max_templates` non-empty bodies, and composed bodies are never
    /// empty, so no later post is read.
    fn post_budget(&self) -> usize {
        self.knobs.max_templates
    }
}

impl ScenarioSeeds {
    /// Extracts seeds with default knobs.
    pub fn from_world(world: &World) -> ScenarioSeeds {
        ScenarioSeeds::from_world_with(world, &SeedKnobs::default())
    }

    /// Extracts seeds with explicit knobs.
    pub fn from_world_with(world: &World, knobs: &SeedKnobs) -> ScenarioSeeds {
        let mut extractor = SeedExtractor::new(knobs, world.config.seed);
        for inst in &world.instances {
            extractor.push(inst);
        }
        extractor.finish()
    }

    /// Generates the world and extracts seeds in one streamed pass,
    /// without ever materialising the corpus: peak memory is the
    /// network-stage skeletons plus one generation chunk of instances
    /// ([`crate::WORLDGEN_CHUNK`], [`crate::WORLDGEN_CHUNK_RECORDS`]) plus
    /// the columns themselves. Worldgen composes only the first
    /// [`SeedKnobs::max_templates`] posts of each instance, the ones the
    /// templates keep. Bit-identical to
    /// `ScenarioSeeds::from_world_with(&World::generate(config), knobs)`
    /// — same draws for everything kept, same columns — at any thread
    /// count.
    pub fn from_config_streamed(config: &WorldConfig, knobs: &SeedKnobs) -> ScenarioSeeds {
        let mut extractor = SeedExtractor::new(knobs, config.seed);
        let _directory = World::generate_streamed(config, &mut extractor);
        extractor.finish()
    }

    /// Builds the extract from a shard directory written by
    /// [`crate::write_shard_dir`]: the instance stream replays from disk
    /// through the same [`WorldSink`] extractor as
    /// [`from_config_streamed`](Self::from_config_streamed), so the
    /// result is field-for-field identical to a direct extraction of the
    /// same config — without regenerating (or ever materialising) the
    /// corpus. Truncated or corrupt shards surface as a typed
    /// [`crate::ShardError`].
    pub fn from_shards(
        dir: &std::path::Path,
        knobs: &SeedKnobs,
    ) -> Result<ScenarioSeeds, crate::ShardError> {
        let manifest = crate::shard::read_manifest(dir)?;
        let mut extractor = SeedExtractor::new(knobs, manifest.seed);
        crate::shard::stream_shard_dir(dir, &mut extractor)?;
        Ok(extractor.finish())
    }

    /// The first column on which `self` and `other` differ, with the
    /// instance index where one differs, or `None` when the extracts are
    /// equal: moderation configs compare by their serialized JSON,
    /// templates by author and body. The seed paths (streamed,
    /// materialised, reloaded from shards) are equal by this measure.
    pub fn first_difference(&self, other: &ScenarioSeeds) -> Option<String> {
        fn column<T>(name: &str, a: &[T], b: &[T], eq: impl Fn(&T, &T) -> bool) -> Option<String> {
            if a.len() != b.len() {
                return Some(format!("{name}: {} vs {} entries", a.len(), b.len()));
            }
            let i = a.iter().zip(b).position(|(x, y)| !eq(x, y))?;
            Some(format!("{name}[{i}]"))
        }
        let templates = |a: &Arc<[PostSeed]>, b: &Arc<[PostSeed]>| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.author == y.author && x.content == y.content)
        };
        let json = |m: &InstanceModerationConfig| serde_json::to_string(m).ok();
        if self.seed != other.seed {
            return Some(format!("seed: {} vs {}", self.seed, other.seed));
        }
        column("domains", &self.domains, &other.domains, PartialEq::eq)
            .or_else(|| column("pleroma", &self.pleroma, &other.pleroma, PartialEq::eq))
            .or_else(|| column("failures", &self.failures, &other.failures, PartialEq::eq))
            .or_else(|| column("users", &self.users, &other.users, PartialEq::eq))
            .or_else(|| {
                let (a, b) = (&self.posts_full_scale, &other.posts_full_scale);
                column("posts_full_scale", a, b, PartialEq::eq)
            })
            .or_else(|| {
                let (a, b) = (&self.rejects_received, &other.rejects_received);
                column("rejects_received", a, b, PartialEq::eq)
            })
            .or_else(|| column("links", &self.links, &other.links, PartialEq::eq))
            .or_else(|| column("templates", &self.templates, &other.templates, templates))
            .or_else(|| {
                column("moderation", &self.moderation, &other.moderation, |a, b| {
                    json(a) == json(b)
                })
            })
    }

    /// Number of seeded instances (every column has this length).
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the seed set is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Outgoing reject edges in instance `i`'s final moderation config.
    pub fn outgoing_rejects(&self, i: usize) -> usize {
        self.moderation[i]
            .simple
            .as_ref()
            .map(|s| s.targets(SimpleAction::Reject).len())
            .unwrap_or(0)
    }

    /// Indices of instances whose final config differs from a fresh
    /// install (a `SimplePolicy` config or any non-default policy kind),
    /// ordered by descending reject-list size — the canonical adoption
    /// order for rollout waves: the heaviest moderators move first,
    /// exactly how blocklist adoption spreads from the big curated lists
    /// outward. Ties (equal reject-list sizes, which at small scales is
    /// *most* of the list) break by ascending instance index,
    /// explicitly: the comparator key is `(Reverse(rejects), index)`, so
    /// seed-identical worlds can never produce permuted rollout waves.
    /// The dynamics engine's `NetworkState` carries this order verbatim.
    pub fn adoption_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len())
            .filter(|&i| {
                let m = &self.moderation[i];
                m.simple.is_some() || m.enabled.iter().any(|k| !k.default_enabled())
            })
            .collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.outgoing_rejects(i)), i));
        order
    }

    /// The §3 failure taxonomy over the seed set: `(mode, count)` for
    /// every non-healthy mode present.
    pub fn failure_taxonomy(&self) -> Vec<(FailureMode, u32)> {
        FailureMode::PAPER_TAXONOMY
            .iter()
            .map(|&(mode, _)| {
                let n = self.failures.iter().filter(|&&f| f == mode).count() as u32;
                (mode, n)
            })
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Looks up an instance index by domain.
    pub fn index_of(&self, domain: &str) -> Option<usize> {
        self.domains.iter().position(|d| d.as_str() == domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn seeds() -> ScenarioSeeds {
        ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small()))
    }

    #[test]
    fn extraction_is_deterministic() {
        let a = seeds();
        let b = seeds();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.links, b.links);
        assert_eq!(a.domains, b.domains);
        for (x, y) in a.templates.iter().zip(&b.templates) {
            assert_eq!(x.len(), y.len());
        }
    }

    #[test]
    fn streamed_extraction_matches_materialised() {
        // The memory-bounded path must be the same extract, column for
        // column — this is the contract that lets 1.0-scale runs skip
        // `World::generate` entirely. The streamed path composes only
        // `max_templates` posts per instance, so the sweep covers caps
        // below, at and above typical instance sizes, and worlds
        // without text (zero templates either way).
        for generate_text in [true, false] {
            let config = WorldConfig {
                generate_text,
                ..WorldConfig::test_small()
            };
            let world = World::generate(config.clone());
            for max_templates in [1, 5, 32] {
                let knobs = SeedKnobs {
                    max_templates,
                    ..SeedKnobs::default()
                };
                // Precondition: the budget must cut some instance short.
                let cut = world
                    .instances
                    .iter()
                    .any(|i| i.post_count() > max_templates);
                assert!(cut, "no instance has more than {max_templates} posts");
                let via_world = ScenarioSeeds::from_world_with(&world, &knobs);
                let streamed = ScenarioSeeds::from_config_streamed(&config, &knobs);
                let what = format!("text {generate_text}, max_templates {max_templates}");
                assert_eq!(via_world.first_difference(&streamed), None, "{what}");
                assert_eq!(via_world.adoption_order(), streamed.adoption_order());
                let templates: usize = streamed.templates.iter().map(|t| t.len()).sum();
                assert_eq!(templates > 0, generate_text, "{what}: template count");
            }
        }
    }

    #[test]
    fn links_are_canonical_pairs() {
        let s = seeds();
        assert!(!s.links.is_empty());
        for &(i, j) in &s.links {
            assert!(i < j, "({i},{j}) must be ordered");
            assert!((j as usize) < s.len());
        }
        let mut sorted = s.links.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, s.links);
    }

    #[test]
    fn adoption_order_is_heaviest_first() {
        let s = seeds();
        let order = s.adoption_order();
        assert!(!order.is_empty());
        for w in order.windows(2) {
            assert!(s.outgoing_rejects(w[0]) >= s.outgoing_rejects(w[1]));
        }
    }

    #[test]
    fn adoption_order_ties_break_by_index_deterministically() {
        // The §4 reject-count distribution is heavy-tailed: at any scale
        // most adopters share a reject-list size, so the tie-break — not
        // the primary key — decides most of the wave order. Pin it:
        // equal keys must order by ascending instance index, and two
        // extractions of the same seed must agree element-wise (a
        // permuted wave order would silently change every rollout
        // trace).
        let s = seeds();
        let order = s.adoption_order();
        let mut saw_tie = false;
        for w in order.windows(2) {
            let (a, b) = (s.outgoing_rejects(w[0]), s.outgoing_rejects(w[1]));
            if a == b {
                saw_tie = true;
                assert!(
                    w[0] < w[1],
                    "tie on {a} rejects must order by index: {} before {}",
                    w[0],
                    w[1]
                );
            }
        }
        assert!(saw_tie, "the tie-break path must actually be exercised");
        assert_eq!(order, seeds().adoption_order(), "element-wise stable");
        // And the order is exactly the explicit sort it documents.
        let mut expected: Vec<usize> = (0..s.len())
            .filter(|&i| {
                let m = &s.moderation[i];
                m.simple.is_some() || m.enabled.iter().any(|k| !k.default_enabled())
            })
            .collect();
        expected.sort_by_key(|&i| (std::cmp::Reverse(s.outgoing_rejects(i)), i));
        assert_eq!(order, expected);
    }

    #[test]
    fn failure_taxonomy_present_at_small_scale() {
        let s = seeds();
        let total: u32 = s.failure_taxonomy().iter().map(|&(_, n)| n).sum();
        assert!(total > 0, "the scaled §3 failure set must survive");
    }

    #[test]
    fn templates_respect_the_cap_and_carry_text() {
        let s = ScenarioSeeds::from_world_with(
            &World::generate(WorldConfig::test_small()),
            &SeedKnobs {
                max_templates: 5,
                include_non_pleroma: false,
            },
        );
        assert!(s.pleroma.iter().all(|&p| p));
        for templates in &s.templates {
            assert!(templates.len() <= 5);
            for t in templates.iter() {
                assert!(!t.content.is_empty());
            }
        }
    }

    #[test]
    fn post_bodies_are_shared_not_copied() {
        // The seed template aliases the world post's allocation — the
        // whole point of the Arc<str> body representation.
        let world = World::generate(WorldConfig::test_small());
        let s = ScenarioSeeds::from_world(&world);
        let (i, t) = s
            .templates
            .iter()
            .enumerate()
            .find_map(|(i, ts)| ts.first().map(|t| (i, t)))
            .expect("some instance has templates");
        let inst = world.by_domain(s.domains[i].as_str()).unwrap();
        let shared = inst
            .users
            .iter()
            .flat_map(|u| &u.posts)
            .any(|p| Arc::ptr_eq(&p.content, &t.content));
        assert!(shared, "template body must alias a world post body");
    }
}
