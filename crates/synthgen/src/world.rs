//! World assembly: users, posts, peers, and the final [`World`].

use crate::character::InstanceCharacter;
use crate::config::WorldConfig;
use crate::content::ContentComposer;
use crate::harm::{HarmProfile, UserHarm};
use crate::moderation::{self, ModerationPlan};
use crate::population::{self, InstanceSkeleton};
use fediscope_core::catalog::PolicyKind;
use fediscope_core::config::InstanceModerationConfig;
use fediscope_core::id::{Domain, InstanceId, PostId, UserId, UserRef};
use fediscope_core::model::{InstanceProfile, MediaAttachment, MediaKind, Post, User, Visibility};
use fediscope_core::mrf::policies::SimplePolicy;
use fediscope_core::paper;
use fediscope_core::time::{CAMPAIGN_END, CAMPAIGN_START};
use fediscope_simnet::FailureMode;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// A generated user with their ground-truth harm profile and posts.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GeneratedUser {
    /// The account record.
    pub user: User,
    /// Harm ground truth (what the §5 analysis should re-discover).
    pub harm: UserHarm,
    /// The user's posts (already content-composed, sampled by
    /// `post_scale`).
    pub posts: Vec<Post>,
}

/// A generated instance: everything the materialiser needs to spin up a
/// server, and the ground truth the calibration tests verify against.
/// Serializable so streamed generation ([`World::generate_streamed`])
/// can shard a world to disk one JSON record at a time (see
/// [`ShardWriter`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GeneratedInstance {
    /// Identity and flags.
    pub profile: InstanceProfile,
    /// Network behaviour.
    pub failure: FailureMode,
    /// Moderation configuration (enabled policies + SimplePolicy targets).
    pub moderation: InstanceModerationConfig,
    /// Community character.
    pub character: InstanceCharacter,
    /// Users with their posts.
    pub users: Vec<GeneratedUser>,
    /// Domains this instance has ever federated with (Peers API payload).
    /// Shared, not owned: the peer topology is built once at the network
    /// stage and every instance holds a refcount on its list, so cloning
    /// an instance (or streaming one out of the generator) never copies
    /// domain vectors.
    pub peers: Arc<[Domain]>,
    /// Full-scale post count (before `post_scale` sampling) — what the
    /// instance's metadata would have reported in the real world.
    pub posts_full_scale: u64,
    /// Ground truth: number of instances rejecting this one.
    pub rejects_received: u32,
}

impl GeneratedInstance {
    /// Whether the instance answers the network.
    pub fn crawlable(&self) -> bool {
        self.failure == FailureMode::Healthy
    }

    /// All posts of the instance, sorted by id (= creation order), ready
    /// for in-order timeline installation.
    pub fn posts_sorted(&self) -> Vec<&Post> {
        let mut posts: Vec<&Post> = self.users.iter().flat_map(|u| u.posts.iter()).collect();
        posts.sort_by_key(|p| p.id);
        posts
    }

    /// Number of generated (sampled) posts.
    pub fn post_count(&self) -> usize {
        self.users.iter().map(|u| u.posts.len()).sum()
    }
}

/// The generated fediverse.
#[derive(Debug)]
pub struct World {
    /// Configuration it was generated from.
    pub config: WorldConfig,
    /// Every instance, Pleroma first (crawlable, then failed), then
    /// non-Pleroma. Indexed by `InstanceId`.
    pub instances: Vec<GeneratedInstance>,
    /// The seed directory (the distsn.org / the-federation.info stand-in):
    /// a subset of Pleroma domains; the crawler discovers the rest through
    /// the Peers API.
    pub directory: Vec<Domain>,
}

/// Receives generated instances as they stream out of the chunked
/// per-instance stage, in index order. A sink that extracts what it needs
/// and drops the rest (seed columns, disk shards) bounds the resident set
/// to one chunk ([`WORLDGEN_CHUNK`]) of instances instead of the whole
/// corpus — the difference between a 1.0-scale world fitting in a CI
/// container and not.
pub trait WorldSink {
    /// One generated instance. `index` is the world instance index
    /// (`InstanceId` order); calls arrive strictly in index order.
    fn instance(&mut self, index: usize, instance: GeneratedInstance);

    /// Posts per instance the sink reads, at most. Streamed generation
    /// composes only an instance's first `post_budget` posts in
    /// generation order (users by index, each user's posts in vec order)
    /// and skips the rest; every other field of the instance, every user
    /// included, is the full world's. The kept posts are exactly the
    /// full instance's prefix, because an instance's posts are the last
    /// draws on its private stream. Their ids are not the world's: ids
    /// follow time order over the posts kept. Composed bodies are never
    /// empty, so a sink that keeps the first `n` non-empty bodies may
    /// declare a budget of `n` (without `generate_text` every body is
    /// empty, and it keeps none either way). The default keeps every
    /// post.
    fn post_budget(&self) -> usize {
        usize::MAX
    }
}

/// Instances generated (and handed to the sink) per streaming chunk, at
/// most. Fixed — never derived from the pool size — so chunk boundaries
/// are identical at any worker count and the bit-identity contract
/// holds trivially.
pub const WORLDGEN_CHUNK: usize = 512;

/// Users plus sampled posts a streaming chunk generates, at most (a
/// chunk's first instance is taken whatever its size). Every user and
/// post belongs to a crawlable Pleroma instance, and those sit at the low
/// indices with heavy-tailed sizes: under the instance cap alone the
/// first chunk holds 170k–230k records at paper scale, depending on the
/// world drawn, and the streamed peak would move with the world. Like the
/// instance cap, the bound depends on the world alone, never on the pool
/// size.
pub const WORLDGEN_CHUNK_RECORDS: usize = 32_768;

/// The owned inputs of one instance's private generation stage: built by
/// consuming the network-stage outputs (skeletons, moderation plan,
/// peer topology), so the expensive pieces — the profile, the
/// `SimplePolicy` target lists, the peer list — move into the generated
/// instance instead of being cloned per instance.
struct InstanceJob {
    index: usize,
    skel: InstanceSkeleton,
    character: InstanceCharacter,
    timeline_open: bool,
    rejected: bool,
    rejects_received: u32,
    enabled: Vec<PolicyKind>,
    simple: Option<SimplePolicy>,
    peers: Arc<[Domain]>,
}

struct CollectSink {
    instances: Vec<GeneratedInstance>,
}

impl WorldSink for CollectSink {
    fn instance(&mut self, index: usize, instance: GeneratedInstance) {
        debug_assert_eq!(index, self.instances.len(), "sink order contract");
        self.instances.push(instance);
    }
}

/// A [`WorldSink`] that shards the world to disk as it streams: one JSON
/// record per instance, newline-delimited, in index order. Each instance
/// is serialized and dropped immediately, so generating a 1.0-scale world
/// to a shard file costs one chunk of resident instances — the corpus
/// only ever exists on disk.
///
/// ```no_run
/// # use fediscope_synthgen::{ShardWriter, World, WorldConfig};
/// let file = std::fs::File::create("world.ndjson").unwrap();
/// let mut sink = ShardWriter::new(std::io::BufWriter::new(file));
/// let directory = World::generate_streamed(&WorldConfig::paper(), &mut sink);
/// let (writer, count) = sink.finish().unwrap();
/// # let _ = (directory, writer, count);
/// ```
pub struct ShardWriter<W: std::io::Write> {
    out: W,
    written: usize,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> ShardWriter<W> {
    /// Wraps a writer (buffer it — one `write_all` per instance).
    pub fn new(out: W) -> Self {
        ShardWriter {
            out,
            written: 0,
            error: None,
        }
    }

    /// Flushes and returns the writer and the number of records written.
    /// Surfaces any I/O error swallowed mid-stream (the [`WorldSink`]
    /// contract is infallible, so errors are deferred to here).
    pub fn finish(mut self) -> std::io::Result<(W, usize)> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok((self.out, self.written))
    }
}

impl<W: std::io::Write> WorldSink for ShardWriter<W> {
    fn instance(&mut self, index: usize, instance: GeneratedInstance) {
        if self.error.is_some() {
            return;
        }
        debug_assert_eq!(index, self.written, "sink order contract");
        let result = serde_json::to_string(&instance)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
            .and_then(|line| {
                self.out.write_all(line.as_bytes())?;
                self.out.write_all(b"\n")
            });
        match result {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl World {
    /// Generates a world. Deterministic in `config.seed`.
    ///
    /// The network-level stages (population, moderation plan, characters,
    /// timelines, directory, peers) run sequentially on the master RNG
    /// stream; the expensive per-instance stage (users, harm profiles,
    /// content-composed posts) shards across the rayon pool with a
    /// private RNG stream per skeleton (`instance_stream_seed` — the
    /// same seed-splitting scheme as the dynamics engine's delivery
    /// streams). Chunking decides which worker generates an instance,
    /// never a single draw, so the world is bit-identical at any worker
    /// count — pinned by the root `tests/worldgen_identity.rs` proptest.
    ///
    /// This materialises the whole corpus in RAM. At 1.0 scale that is
    /// millions of users and hundreds of thousands of composed posts —
    /// use [`World::generate_streamed`] with a memory-bounded sink (or
    /// [`crate::ScenarioSeeds::from_config_streamed`]) when the caller
    /// only needs a projection of the world.
    pub fn generate(config: WorldConfig) -> World {
        let mut sink = CollectSink {
            instances: Vec::new(),
        };
        let directory = World::generate_streamed(&config, &mut sink);
        World {
            config,
            instances: sink.instances,
            directory,
        }
    }

    /// Streaming generation: identical draws, identical instances, but
    /// each generated instance is handed to `sink` (in index order) as
    /// soon as its chunk completes instead of being accumulated. Peak
    /// memory is the network-stage skeletons plus one chunk of
    /// fully-generated instances — at most [`WORLDGEN_CHUNK`] instances
    /// and [`WORLDGEN_CHUNK_RECORDS`] users and posts, or one larger
    /// instance alone — independent of what the sink retains. Returns the
    /// seed directory.
    ///
    /// A sink that reads only a few posts per instance declares so with
    /// [`WorldSink::post_budget`], and generation skips composing the
    /// rest; the kept posts are the full world's first ones.
    ///
    /// `World::generate` is exactly this with a collecting sink, so the
    /// bit-identity contract covers both paths with one digest.
    pub fn generate_streamed(config: &WorldConfig, sink: &mut dyn WorldSink) -> Vec<Domain> {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let skeletons = population::generate_population(config, &mut rng);
        let plan = moderation::plan(&skeletons, config, &mut rng);
        let characters = assign_characters(&skeletons, &plan, &mut rng);
        let timeline_open = fix_timelines(&skeletons, &plan, config, &mut rng);
        let directory = build_directory(&skeletons, &mut rng);
        let peers = build_peers(&skeletons, &directory, &mut rng);
        let peers: Vec<Arc<[Domain]>> = peers.into_iter().map(Arc::from).collect();

        // Consume every network-stage output into owned per-instance
        // jobs: profiles, policy target lists and peer lists *move* from
        // here on — the clone-per-instance chains this replaces were the
        // single largest allocation source in generation.
        let moderation::ModerationPlan {
            enabled,
            simple,
            reject_counts,
        } = plan;
        let jobs: Vec<InstanceJob> = skeletons
            .into_iter()
            .zip(enabled)
            .zip(simple)
            .zip(peers)
            .enumerate()
            .map(|(index, (((skel, enabled), simple), peers))| InstanceJob {
                index,
                skel,
                character: characters[index],
                timeline_open: timeline_open[index],
                rejected: reject_counts.contains_key(&index),
                rejects_received: reject_counts.get(&index).copied().unwrap_or(0),
                enabled,
                simple,
                peers,
            })
            .collect();

        let harm_profile = HarmProfile::new();
        let composer = ContentComposer::new();
        let seed = config.seed;
        let budget = sink.post_budget();
        let mut jobs = jobs.into_iter().peekable();
        loop {
            let batch = next_chunk(&mut jobs, |job| job_records(config, &job.skel));
            if batch.is_empty() {
                break;
            }
            let generated: Vec<(usize, GeneratedInstance)> = batch
                .into_par_iter()
                .map(|job| {
                    let index = job.index;
                    (
                        index,
                        generate_instance(config, seed, job, budget, &harm_profile, &composer),
                    )
                })
                .collect();
            for (index, instance) in generated {
                sink.instance(index, instance);
            }
        }
        directory
    }

    /// Crawlable Pleroma instances.
    pub fn crawled_pleroma(&self) -> impl Iterator<Item = &GeneratedInstance> {
        self.instances
            .iter()
            .filter(|i| i.profile.is_pleroma() && i.crawlable())
    }

    /// Rejected Pleroma instances (ground truth).
    pub fn rejected_pleroma(&self) -> impl Iterator<Item = &GeneratedInstance> {
        self.crawled_pleroma().filter(|i| i.rejects_received > 0)
    }

    /// Finds an instance by domain.
    pub fn by_domain(&self, domain: &str) -> Option<&GeneratedInstance> {
        self.instances
            .iter()
            .find(|i| i.profile.domain.as_str() == domain)
    }

    /// Total users on crawlable Pleroma instances.
    pub fn total_users(&self) -> u64 {
        self.crawled_pleroma().map(|i| i.users.len() as u64).sum()
    }

    /// Total generated (sampled) posts.
    pub fn total_posts(&self) -> u64 {
        self.crawled_pleroma().map(|i| i.post_count() as u64).sum()
    }
}

/// The next streaming chunk off `jobs`, in order: as many jobs as fit in
/// [`WORLDGEN_CHUNK`] instances and [`WORLDGEN_CHUNK_RECORDS`] records,
/// and at least one while any is left. Empty once `jobs` is.
fn next_chunk<T>(
    jobs: &mut std::iter::Peekable<impl Iterator<Item = T>>,
    records: impl Fn(&T) -> usize,
) -> Vec<T> {
    let mut chunk = Vec::new();
    let mut total = 0;
    while let Some(job) = jobs.next_if(|job| {
        chunk.is_empty()
            || (chunk.len() < WORLDGEN_CHUNK && total + records(job) <= WORLDGEN_CHUNK_RECORDS)
    }) {
        total += records(&job);
        chunk.push(job);
    }
    chunk
}

/// Whether [`generate_instance`] generates users and posts for `skel`:
/// only crawlable Pleroma instances carry any.
fn generates_users(skel: &InstanceSkeleton) -> bool {
    skel.profile.is_pleroma() && skel.crawlable()
}

/// Posts [`generate_users`] samples for `skel`. An instance with any
/// full-scale posts keeps at least one: "has post data" must survive
/// subsampling (§5 counts instances with posts, and small rejected
/// instances matter for the single-user filter).
fn sampled_posts(config: &WorldConfig, skel: &InstanceSkeleton) -> usize {
    let posts = ((skel.posts_full_scale as f64) * config.post_scale).round() as usize;
    if skel.posts_full_scale > 0 {
        posts.max(1)
    } else {
        posts
    }
}

/// Users plus sampled posts [`generate_instance`] builds for `skel`: its
/// weight against [`WORLDGEN_CHUNK_RECORDS`].
fn job_records(config: &WorldConfig, skel: &InstanceSkeleton) -> usize {
    if generates_users(skel) {
        skel.users_target.max(1) as usize + sampled_posts(config, skel)
    } else {
        0
    }
}

/// One instance's private generation stage, consuming its [`InstanceJob`]:
/// the profile, policy config and peer list move into the result — no
/// per-instance clones. Draw order is exactly the pre-streaming code's,
/// so digests are unchanged.
///
/// `post_budget` caps the posts composed ([`WorldSink::post_budget`]):
/// the kept posts are the unbudgeted instance's first `post_budget` in
/// generation order, with ids reassigned over the kept set (so a
/// budgeted instance's post ids are not the world's); users and every
/// other field are unchanged. A composed body is never empty, so a post
/// budget of `n` keeps the instance's first `n` template bodies.
fn generate_instance(
    config: &WorldConfig,
    seed: u64,
    job: InstanceJob,
    post_budget: usize,
    harm_profile: &HarmProfile,
    composer: &ContentComposer,
) -> GeneratedInstance {
    let mut rng = SmallRng::seed_from_u64(instance_stream_seed(seed, job.index as u64));
    let users = if generates_users(&job.skel) {
        generate_users(config, &job, post_budget, harm_profile, composer, &mut rng)
    } else {
        Vec::new()
    };
    let mut moderation = InstanceModerationConfig::default();
    for kind in job.enabled {
        moderation.enable(kind);
    }
    if let Some(simple) = job.simple {
        moderation.set_simple(simple);
    }
    let failure = job.skel.failure;
    let posts_full_scale = job.skel.posts_full_scale;
    let mut profile = job.skel.profile;
    profile.public_timeline_open = job.timeline_open;
    GeneratedInstance {
        profile,
        failure,
        moderation,
        character: job.character,
        users,
        peers: job.peers,
        posts_full_scale,
        rejects_received: job.rejects_received,
    }
}

fn assign_characters<R: Rng>(
    skeletons: &[InstanceSkeleton],
    plan: &ModerationPlan,
    rng: &mut R,
) -> Vec<InstanceCharacter> {
    skeletons
        .iter()
        .enumerate()
        .map(|(i, skel)| {
            // Named instances have documented characters.
            match skel.profile.domain.as_str() {
                "freespeechextremist.com" | "kiwifarms.cc" | "poa.st" | "gab.com" => {
                    return InstanceCharacter::Toxic
                }
                "neckbeard.xyz" | "baraag.net" | "social.myfreecams.com" => {
                    return InstanceCharacter::SexuallyExplicit
                }
                "spinster.xyz" => return InstanceCharacter::General,
                _ => {}
            }
            if plan.reject_counts.contains_key(&i) {
                InstanceCharacter::sample_rejected(rng)
            } else {
                InstanceCharacter::sample_unrejected(rng)
            }
        })
        .collect()
}

/// Decides which crawled instances keep their public timeline open.
///
/// Calibrates jointly: (a) the §3 count of unreachable timelines; (b) §5's
/// 61.9% of rejected Pleroma instances with post data; (c) the collected
/// post mass landing near 14.5 M / 24.5 M.
fn fix_timelines<R: Rng>(
    skeletons: &[InstanceSkeleton],
    plan: &ModerationPlan,
    config: &WorldConfig,
    rng: &mut R,
) -> Vec<bool> {
    let mut open: Vec<bool> = skeletons
        .iter()
        .map(|s| s.profile.public_timeline_open)
        .collect();
    let crawled: Vec<usize> = skeletons
        .iter()
        .enumerate()
        .filter(|(_, s)| s.profile.is_pleroma() && s.crawlable())
        .map(|(i, _)| i)
        .collect();
    let quota = config.scaled(paper::INSTANCES_TIMELINE_UNREACHABLE, 2) as usize;
    let mut closed: usize = crawled.iter().filter(|&&i| !open[i]).count();

    // (b) Close rejected instances until only ~61.9% of rejected Pleroma
    // instances with posts remain readable.
    let rejected_with_posts: Vec<usize> = crawled
        .iter()
        .copied()
        .filter(|&i| plan.reject_counts.contains_key(&i) && skeletons[i].posts_full_scale > 0)
        .collect();
    let keep_open =
        ((rejected_with_posts.len() as f64) * paper::REJECTED_WITH_POSTS_SHARE).round() as usize;
    let mut to_close = rejected_with_posts.len().saturating_sub(keep_open);
    let mut candidates = rejected_with_posts.clone();
    shuffle(&mut candidates, rng);
    for idx in candidates {
        if to_close == 0 {
            break;
        }
        // Keep the four open named Table 1 instances readable (their
        // scores exist in the paper); spinster is already closed.
        if skeletons[idx].named && skeletons[idx].profile.public_timeline_open {
            continue;
        }
        if open[idx] {
            open[idx] = false;
            closed += 1;
            to_close -= 1;
        }
    }

    // (a) Fill the remaining closure quota from non-rejected instances,
    // weighted towards posty instances so ~41% of post mass goes dark.
    // Rejected instances are left alone: their open share was calibrated
    // above.
    let mut guard = 0;
    while closed < quota && guard < 400_000 {
        guard += 1;
        let &idx = &crawled[rng.gen_range(0..crawled.len())];
        if !open[idx] || skeletons[idx].named || plan.reject_counts.contains_key(&idx) {
            continue;
        }
        let w = ((skeletons[idx].posts_full_scale as f64) + 1.0).powf(0.3);
        if rng.gen::<f64>() < (w / 60.0).clamp(0.02, 1.0) {
            open[idx] = false;
            closed += 1;
        }
    }
    open
}

fn generate_users<R: Rng>(
    config: &WorldConfig,
    job: &InstanceJob,
    post_budget: usize,
    harm_profile: &HarmProfile,
    composer: &ContentComposer,
    rng: &mut R,
) -> Vec<GeneratedUser> {
    let (skel, character, rejected) = (&job.skel, job.character, job.rejected);
    let n = skel.users_target.max(1);
    let instance_id = skel.profile.id;
    let domain = &skel.profile.domain;
    let mut users: Vec<GeneratedUser> = (0..n)
        .map(|k| {
            let harm = if rejected {
                harm_profile.sample_user(rng, character)
            } else {
                UserHarm::benign_default()
            };
            let created = CAMPAIGN_START.0 as i64 - rng.gen_range(0..86_400 * 600) + 86_400 * 30;
            GeneratedUser {
                user: User {
                    id: user_id(instance_id, k),
                    instance: instance_id,
                    domain: domain.clone(),
                    handle: format!("u{k}"),
                    created: fediscope_core::time::SimTime(created.max(0) as u64),
                    bot: rng.gen_bool(0.02),
                    followers: rng.gen_range(0..120),
                    following: rng.gen_range(0..150),
                    mrf_tags: Vec::new(),
                    report_count: 0,
                },
                harm,
                posts: Vec::new(),
            }
        })
        .collect();

    // ---- posts ----
    let total_posts = sampled_posts(config, skel);
    if total_posts == 0 {
        return users;
    }
    // §3: 48.7% of users published at least one post.
    let active: Vec<usize> = (0..users.len())
        .filter(|_| rng.gen_bool(paper::USERS_WITH_POSTS_FRACTION))
        .collect();
    let active = if active.is_empty() { vec![0] } else { active };
    // Post weights: rate multiplier × heavy-tailed activity.
    let weights: Vec<f64> = active
        .iter()
        .map(|&u| {
            let zipf: f64 = rng.gen_range(1e-3_f64..1.0);
            users[u].harm.rate_multiplier * zipf.powf(-0.45)
        })
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    // Two-phase allocation: every active user keeps at least one sampled
    // post when the budget allows (so "users with ≥1 post" survives the
    // post_scale subsampling), then the remainder follows the heavy-tailed
    // activity weights.
    let base = usize::from(total_posts >= active.len());
    let remainder = total_posts.saturating_sub(base * active.len());
    // The posts are the stream's last draws, so stopping at the budget
    // leaves every earlier post exactly as the full instance has it.
    let mut seq: u64 = 0;
    for (pos, &u) in active.iter().enumerate() {
        if seq as usize == post_budget {
            break;
        }
        let share = weights[pos] / weight_sum;
        let mut count = base + (share * remainder as f64).round() as usize;
        if pos == 0 {
            count = count.max(1);
        }
        let count = count.min(post_budget - seq as usize);
        let user_ref = users[u].user.user_ref();
        let harm = users[u].harm.clone();
        let mut posts = Vec::with_capacity(count);
        for _ in 0..count {
            let target = harm_profile.sample_post_target(rng, &harm);
            let content = if config.generate_text {
                let len = rng.gen_range(8..28);
                composer.compose(rng, &target, len)
            } else {
                String::new()
            };
            let created =
                fediscope_core::time::SimTime(rng.gen_range(CAMPAIGN_START.0..CAMPAIGN_END.0));
            let mut post = Post::stub(
                post_id(instance_id, seq),
                user_ref.clone(),
                created,
                content,
            );
            seq += 1;
            // Media habits follow the community character: §7 notes the
            // most rejected sexually-explicit instances carry their harm
            // "mostly in media form".
            let media_p = match character {
                InstanceCharacter::SexuallyExplicit => 0.45,
                InstanceCharacter::Toxic => 0.10,
                _ => 0.12,
            };
            if rng.gen_bool(media_p) {
                post.media.push(MediaAttachment {
                    host: domain.clone(),
                    kind: if rng.gen_bool(0.85) {
                        MediaKind::Image
                    } else {
                        MediaKind::Video
                    },
                    sensitive: false,
                });
            }
            if target.sexually_explicit > 0.6 && rng.gen_bool(0.25) {
                post.hashtags.push("nsfw".into());
            }
            post.has_links = rng.gen_bool(0.08);
            if rng.gen_bool(0.02) {
                post.visibility = Visibility::Unlisted;
            }
            posts.push(post);
        }
        // Post ids must be monotone in time within the instance; sort this
        // user's drafts by time and re-assign ids later in one pass.
        users[u].posts = posts;
    }
    // Re-assign ids instance-wide in timestamp order so that id order ==
    // chronological order (what makes max_id pagination exact).
    let mut all: Vec<(usize, usize, fediscope_core::time::SimTime)> = Vec::new();
    for (ui, gu) in users.iter().enumerate() {
        for (pi, p) in gu.posts.iter().enumerate() {
            all.push((ui, pi, p.created));
        }
    }
    all.sort_by_key(|&(_, _, t)| t);
    for (order, (ui, pi, _)) in all.into_iter().enumerate() {
        users[ui].posts[pi].id = post_id(instance_id, order as u64);
    }
    users
}

/// Mixes the world seed and a skeleton index into that instance's
/// private generation stream — the same splitting scheme as the dynamics
/// engine's per-`(seed, tick, sender)` delivery streams. Independent of
/// thread count and of every other instance's stream, which is what
/// makes sharded generation bit-identical to a sequential pass.
fn instance_stream_seed(seed: u64, instance: u64) -> u64 {
    seed ^ instance
        .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
}

/// Fisher–Yates shuffle.
fn shuffle<T, R: Rng>(v: &mut [T], rng: &mut R) {
    if v.is_empty() {
        return;
    }
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

fn user_id(instance: InstanceId, k: u32) -> UserId {
    UserId(((instance.0 as u64) << 24) | k as u64)
}

fn post_id(instance: InstanceId, seq: u64) -> PostId {
    PostId(((instance.0 as u64) << 36) | seq)
}

/// A user reference for mentions etc. (kept for API completeness).
#[allow(dead_code)]
fn user_ref(instance: InstanceId, domain: &Domain, k: u32) -> UserRef {
    UserRef::new(user_id(instance, k), domain.clone())
}

fn build_peers<R: Rng>(
    skeletons: &[InstanceSkeleton],
    directory: &[Domain],
    rng: &mut R,
) -> Vec<Vec<Domain>> {
    let n = skeletons.len();
    let mut peers: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    let crawled: Vec<usize> = skeletons
        .iter()
        .enumerate()
        .filter(|(_, s)| s.profile.is_pleroma() && s.crawlable())
        .map(|(i, _)| i)
        .collect();
    if crawled.is_empty() {
        return vec![Vec::new(); n];
    }
    // Peer-list sizes grow with activity.
    for &i in &crawled {
        let k = (4.0
            + ((skeletons[i].posts_full_scale as f64) + 1.0).powf(0.28) * rng.gen_range(0.5..2.0))
        .round() as usize;
        let k = k.clamp(3, 500).min(n - 1);
        let mut guard = 0;
        while peers[i].len() < k && guard < k * 30 {
            guard += 1;
            let j = rng.gen_range(0..n);
            if j != i {
                peers[i].insert(j);
            }
        }
    }
    // Coverage: the crawler's BFS starts from the directory, so every
    // domain outside the directory must appear in the peer list of a
    // *directory-listed, crawlable* instance to be guaranteed
    // discoverable.
    let directory_set: HashSet<&str> = directory.iter().map(|d| d.as_str()).collect();
    let seeds: Vec<usize> = crawled
        .iter()
        .copied()
        .filter(|&i| directory_set.contains(skeletons[i].profile.domain.as_str()))
        .collect();
    let seeds = if seeds.is_empty() {
        crawled.clone()
    } else {
        seeds
    };
    let mut covered: HashSet<usize> = (0..n)
        .filter(|&i| directory_set.contains(skeletons[i].profile.domain.as_str()))
        .collect();
    for &i in &seeds {
        covered.extend(peers[i].iter().copied());
    }
    for j in 0..n {
        if !covered.contains(&j) {
            let &host = &seeds[rng.gen_range(0..seeds.len())];
            peers[host].insert(j);
        }
    }
    peers
        .into_iter()
        .map(|set| {
            let mut v: Vec<Domain> = set
                .into_iter()
                .map(|j| skeletons[j].profile.domain.clone())
                .collect();
            v.sort();
            v
        })
        .collect()
}

fn build_directory<R: Rng>(skeletons: &[InstanceSkeleton], rng: &mut R) -> Vec<Domain> {
    // The public directories list most — not all — Pleroma instances,
    // including ones that have since died (the §3 failure set was *found*
    // and then failed to answer).
    skeletons
        .iter()
        .filter(|s| s.profile.is_pleroma())
        .filter(|s| s.named || !s.crawlable() || rng.gen_bool(0.85))
        .map(|s| s.profile.domain.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harm::HarmTier;

    fn small_world() -> World {
        World::generate(WorldConfig::test_small())
    }

    #[test]
    fn world_is_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.instances.len(), b.instances.len());
        assert_eq!(a.total_posts(), b.total_posts());
        let ia = &a.instances[7];
        let ib = &b.instances[7];
        assert_eq!(ia.profile.domain, ib.profile.domain);
        assert_eq!(ia.post_count(), ib.post_count());
        if let (Some(ua), Some(ub)) = (ia.users.first(), ib.users.first()) {
            assert_eq!(
                ua.posts.first().map(|p| p.content.clone()),
                ub.posts.first().map(|p| p.content.clone())
            );
        }
    }

    #[test]
    fn post_ids_are_monotone_in_time_per_instance() {
        let world = small_world();
        for inst in world.crawled_pleroma() {
            let posts = inst.posts_sorted();
            for w in posts.windows(2) {
                assert!(w[0].id < w[1].id);
                assert!(w[0].created <= w[1].created, "id order == time order");
            }
        }
    }

    #[test]
    fn user_ids_are_globally_unique() {
        let world = small_world();
        let mut seen = HashSet::new();
        for inst in &world.instances {
            for u in &inst.users {
                assert!(seen.insert(u.user.id), "duplicate {:?}", u.user.id);
            }
        }
    }

    #[test]
    fn directory_contains_named_and_failed_instances() {
        let world = small_world();
        let dir: HashSet<&str> = world.directory.iter().map(|d| d.as_str()).collect();
        assert!(dir.contains("freespeechextremist.com"));
        // Every failed instance is in the directory (they were listed,
        // then died).
        for inst in &world.instances {
            if inst.profile.is_pleroma() && !inst.crawlable() {
                assert!(dir.contains(inst.profile.domain.as_str()));
            }
        }
    }

    #[test]
    fn peers_cover_every_domain() {
        // Simulate the crawler's discovery: directory seeds + transitive
        // peers of crawlable Pleroma instances. Every instance must end up
        // discovered.
        let world = small_world();
        let by_domain: std::collections::HashMap<&str, &GeneratedInstance> = world
            .instances
            .iter()
            .map(|i| (i.profile.domain.as_str(), i))
            .collect();
        let mut discovered: HashSet<&str> = world.directory.iter().map(|d| d.as_str()).collect();
        let mut frontier: Vec<&str> = discovered.iter().copied().collect();
        while let Some(domain) = frontier.pop() {
            let Some(inst) = by_domain.get(domain) else {
                continue;
            };
            if !(inst.profile.is_pleroma() && inst.crawlable()) {
                continue;
            }
            for p in inst.peers.iter() {
                if discovered.insert(p.as_str()) {
                    frontier.push(p.as_str());
                }
            }
        }
        for inst in &world.instances {
            assert!(
                discovered.contains(inst.profile.domain.as_str()),
                "{} unreachable by BFS",
                inst.profile.domain
            );
        }
    }

    #[test]
    fn rejected_instances_have_harm_profiles() {
        let world = small_world();
        let mut saw_harmful = false;
        for inst in world.rejected_pleroma() {
            for u in &inst.users {
                if u.harm.tier == HarmTier::Harmful {
                    saw_harmful = true;
                }
            }
        }
        assert!(saw_harmful, "some harmful users must exist");
    }

    #[test]
    fn unrejected_users_are_benign() {
        let world = small_world();
        for inst in world.crawled_pleroma().filter(|i| i.rejects_received == 0) {
            for u in &inst.users {
                assert_eq!(u.harm.tier, HarmTier::Benign);
            }
        }
    }

    #[test]
    fn post_content_scores_match_declared_harm() {
        let world = small_world();
        let scorer = fediscope_perspective::Scorer::new();
        // Sample: harmful users' posts score high.
        let mut checked = 0;
        for inst in world.rejected_pleroma() {
            for u in &inst.users {
                if u.harm.tier == HarmTier::Harmful && !u.posts.is_empty() {
                    let mean: f64 = u
                        .posts
                        .iter()
                        .map(|p| scorer.analyze(&p.content).max())
                        .sum::<f64>()
                        / u.posts.len() as f64;
                    // Single-post users are noisy; demand only the bulk.
                    if u.posts.len() >= 3 {
                        assert!(
                            mean > 0.55,
                            "harmful user mean {mean} on {}",
                            inst.profile.domain
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "found harmful users with enough posts");
    }

    #[test]
    fn named_instances_keep_characters() {
        let world = small_world();
        assert_eq!(
            world
                .by_domain("freespeechextremist.com")
                .unwrap()
                .character,
            InstanceCharacter::Toxic
        );
        assert_eq!(
            world.by_domain("neckbeard.xyz").unwrap().character,
            InstanceCharacter::SexuallyExplicit
        );
        assert_eq!(
            world.by_domain("spinster.xyz").unwrap().character,
            InstanceCharacter::General
        );
    }

    #[test]
    fn spinster_timeline_is_closed() {
        let world = small_world();
        assert!(
            !world
                .by_domain("spinster.xyz")
                .unwrap()
                .profile
                .public_timeline_open,
            "Table 1 NA scores mean no post data"
        );
    }

    #[test]
    fn moderation_configs_are_buildable() {
        let world = small_world();
        for inst in world.crawled_pleroma().take(50) {
            let _ = inst.moderation.build_pipeline();
        }
    }

    #[test]
    fn streamed_generation_matches_collected() {
        // The streaming path is the collecting path: same directory,
        // same instances, in index order, with shared (not copied) peer
        // lists.
        struct Probe {
            domains: Vec<String>,
            posts: u64,
            next: usize,
        }
        impl WorldSink for Probe {
            fn instance(&mut self, index: usize, inst: GeneratedInstance) {
                assert_eq!(index, self.next, "instances must stream in order");
                self.next += 1;
                self.domains.push(inst.profile.domain.as_str().to_string());
                self.posts += inst.post_count() as u64;
            }
        }
        let mut probe = Probe {
            domains: Vec::new(),
            posts: 0,
            next: 0,
        };
        let config = WorldConfig::test_small();
        let directory = World::generate_streamed(&config, &mut probe);
        let world = small_world();
        assert_eq!(directory, world.directory);
        assert_eq!(probe.domains.len(), world.instances.len());
        assert_eq!(probe.posts, world.total_posts());
        for (inst, streamed) in world.instances.iter().zip(&probe.domains) {
            assert_eq!(inst.profile.domain.as_str(), streamed);
        }
    }

    #[test]
    fn post_budget_keeps_every_user_and_a_post_prefix() {
        // A budgeted sink gets each instance whole except its posts: all
        // users, and the full instance's first `budget` posts in
        // generation order, equal in everything but the id.
        struct Budgeted {
            budget: usize,
            instances: Vec<GeneratedInstance>,
        }
        impl WorldSink for Budgeted {
            fn instance(&mut self, _index: usize, inst: GeneratedInstance) {
                self.instances.push(inst);
            }
            fn post_budget(&self) -> usize {
                self.budget
            }
        }
        fn json<T: serde::Serialize>(v: &T) -> String {
            serde_json::to_string(v).expect("world records serialize")
        }
        let without_id = |p: &Post| {
            let mut p = p.clone();
            p.id = PostId(0);
            json(&p)
        };
        let without_users = |inst: &GeneratedInstance| {
            let mut inst = inst.clone();
            inst.users.clear();
            json(&inst)
        };
        let world = small_world();
        for budget in [0, 3, 32] {
            let mut sink = Budgeted {
                budget,
                instances: Vec::new(),
            };
            let directory = World::generate_streamed(&WorldConfig::test_small(), &mut sink);
            assert_eq!(directory, world.directory);
            assert_eq!(sink.instances.len(), world.instances.len());
            let mut cut = 0;
            for (full, kept) in world.instances.iter().zip(&sink.instances) {
                assert_eq!(without_users(full), without_users(kept));
                assert_eq!(full.users.len(), kept.users.len());
                for (a, b) in full.users.iter().zip(&kept.users) {
                    assert_eq!(json(&a.user), json(&b.user));
                    assert_eq!(json(&a.harm), json(&b.harm));
                }
                let posts = |inst: &GeneratedInstance| -> Vec<String> {
                    let all = inst.users.iter().flat_map(|u| &u.posts);
                    all.take(budget).map(without_id).collect()
                };
                assert_eq!(posts(full), posts(kept), "{}", full.profile.domain);
                assert_eq!(kept.post_count(), full.post_count().min(budget));
                cut += usize::from(full.post_count() > budget);
            }
            assert!(cut > 0, "budget {budget} must cut some instance short");
        }
    }

    #[test]
    fn chunks_respect_both_bounds_and_keep_order() {
        let chunks = |weights: &[usize]| {
            let mut jobs = weights.iter().copied().enumerate().peekable();
            let mut out: Vec<Vec<usize>> = Vec::new();
            loop {
                let chunk = next_chunk(&mut jobs, |&(_, w)| w);
                if chunk.is_empty() {
                    return out;
                }
                out.push(chunk.into_iter().map(|(i, _)| i).collect());
            }
        };
        let lens = |c: &[Vec<usize>]| c.iter().map(Vec::len).collect::<Vec<_>>();

        // Record-free instances (failed or non-Pleroma) fill whole chunks.
        let free = chunks(&[0; 1100]);
        assert_eq!(lens(&free), [512, 512, 76]);
        assert_eq!(free.concat(), (0..1100).collect::<Vec<_>>());

        // An instance over the budget goes alone; the budget is inclusive.
        let b = WORLDGEN_CHUNK_RECORDS;
        assert_eq!(chunks(&[b + 1, 1, 1]), [vec![0], vec![1, 2]]);
        assert_eq!(chunks(&[b / 2, b / 2, 1]), [vec![0, 1], vec![2]]);
        assert_eq!(chunks(&[1, b, 0, 0]), [vec![0], vec![1, 2, 3]]);
        assert!(chunks(&[]).is_empty());
    }

    #[test]
    fn shard_writer_emits_one_parseable_record_per_instance_in_order() {
        let config = WorldConfig::test_small();
        let mut sink = ShardWriter::new(Vec::new());
        World::generate_streamed(&config, &mut sink);
        let (bytes, written) = sink.finish().expect("in-memory sink cannot fail");

        let world = small_world();
        assert_eq!(written, world.instances.len());
        let shards = String::from_utf8(bytes).expect("shards are utf-8 json");
        let lines: Vec<&str> = shards.lines().collect();
        assert_eq!(lines.len(), written);
        for (inst, line) in world.instances.iter().zip(&lines) {
            let record: serde_json::Value =
                serde_json::from_str(line).expect("each shard line parses");
            assert_eq!(
                record["profile"]["domain"].as_str(),
                Some(inst.profile.domain.as_str()),
                "shards stream in index order"
            );
        }
    }
}
