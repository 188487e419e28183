//! Property-based tests for the MRF engine's laws.

#![cfg(test)]

use crate::catalog::PolicyKind;
use crate::config::{InstanceModerationConfig, PolicyConfig};
use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
use crate::model::{Activity, MediaAttachment, MediaKind, Post, Visibility};
use crate::mrf::policies::{
    EnsureRePrependedPolicy, HellthreadPolicy, KeywordAction, KeywordPolicy, KeywordRule,
    NoOpPolicy, NormalizeMarkupPolicy, SharedTargets, SimpleAction, SimplePolicy,
};
use crate::mrf::{
    filter_owned, Inbound, MrfPipeline, MrfPolicy, NullActorDirectory, PolicyContext,
    PolicyVerdict, RejectReason,
};
use crate::rollout::RolloutWave;
use crate::time::SimTime;
use proptest::prelude::*;
use std::sync::Arc;

fn ctx_bits() -> (Domain, NullActorDirectory) {
    (Domain::new("home.example"), NullActorDirectory)
}

/// A verdict in the untraced entry point's shape, so the two entry
/// points' outcomes compare as Debug text (`Activity` has no `PartialEq`).
fn as_result(verdict: PolicyVerdict) -> Result<Activity, RejectReason> {
    match verdict {
        PolicyVerdict::Pass(a) => Ok(a),
        PolicyVerdict::Reject(r) => Err(r),
    }
}

/// The traced owning entry point's outcome.
fn traced(pipeline: &MrfPipeline, ctx: &PolicyContext<'_>, act: Activity) -> String {
    format!("{:?}", as_result(pipeline.filter(ctx, act).verdict))
}

/// The untraced entry point's outcome on an owned activity.
fn untraced(pipeline: &MrfPipeline, ctx: &PolicyContext<'_>, act: Activity) -> String {
    let mut inbound = Inbound::owned(act);
    let verdict = pipeline.filter_inbound(ctx, &mut inbound);
    format!("{:?}", verdict.map(|()| inbound.into_owned()))
}

/// The receive time of the borrowed-vs-owned oracle: late enough that a
/// random `published` stamp can make a post older than `ObjectAgePolicy`'s
/// 7-day threshold.
const NOW: SimTime = SimTime(30 * 86_400);

/// The borrowed ≡ owned oracle: `template` stamped with `published` goes
/// through the traced owning `filter` (on a stamped clone) and through
/// `filter_inbound` (on the borrowed template). Both must agree on the
/// verdict, the surviving activity and the side effects. Each side gets
/// its own freshly built pipeline, so stateful policies (FollowBot,
/// StealEmoji, Sandbox) start from the same state.
fn check_borrowed_matches_owned(
    config: &InstanceModerationConfig,
    template: &Activity,
    published: SimTime,
) -> Result<(), String> {
    let (local, dir) = ctx_bits();
    let ctx = PolicyContext::new(&local, NOW, &dir);
    let mut stamped = template.clone();
    stamped.published = published;
    if let Some(post) = stamped.note_mut() {
        post.created = published;
    }
    let owned = traced(&config.build_pipeline(), &ctx, stamped);
    let owned_effects = ctx.take_effects();
    let mut inbound = Inbound::borrowed(template, published);
    let verdict = config.build_pipeline().filter_inbound(&ctx, &mut inbound);
    let borrowed = format!("{:?}", verdict.map(|()| inbound.into_owned()));
    prop_assert_eq!(owned, borrowed);
    prop_assert_eq!(owned_effects, ctx.take_effects());
    Ok(())
}

/// A rewriting stage ahead of a stage that decides on the rewrite:
/// NormalizeMarkup unmasks a word that only then trips a Keyword reject.
/// The borrowed walk must continue from the clone, not from the template.
#[test]
fn rewrite_is_visible_to_later_stages_on_the_borrowed_path() {
    let mut config = InstanceModerationConfig::default();
    config.enable(PolicyKind::NormalizeMarkup);
    config.enable(PolicyKind::Keyword);
    config
        .configs
        .push(PolicyConfig::Keyword(KeywordPolicy::new(vec![
            KeywordRule::new("elixir", KeywordAction::Reject),
        ])));
    let author = UserRef::new(UserId(1), Domain::new("a.example"));
    let template = Activity::create(
        ActivityId(1),
        Post::stub(PostId(1), author, SimTime(0), "<b>eli</b>xir rocks"),
    );
    check_borrowed_matches_owned(&config, &template, NOW).unwrap();
    let (local, dir) = ctx_bits();
    let ctx = PolicyContext::new(&local, NOW, &dir);
    let mut inbound = Inbound::borrowed(&template, NOW);
    let reason = config
        .build_pipeline()
        .filter_inbound(&ctx, &mut inbound)
        .unwrap_err();
    assert_eq!(reason.policy, PolicyKind::Keyword);
}

fn arb_post() -> impl Strategy<Value = Post> {
    (
        1u64..1_000_000,
        "[a-z]{2,8}\\.[a-z]{2,4}",
        proptest::collection::vec("[a-z]{1,10}", 0..12),
        0usize..30,
        prop_oneof![
            Just(Visibility::Public),
            Just(Visibility::Unlisted),
            Just(Visibility::FollowersOnly),
            Just(Visibility::Direct),
        ],
        proptest::option::of("[a-z ]{1,20}"),
        any::<bool>(),
    )
        .prop_map(
            |(id, domain, words, mentions, visibility, subject, reply)| {
                let author = UserRef::new(UserId(id % 977), Domain::new(domain));
                let mut post =
                    Post::stub(PostId(id), author, SimTime(id % 10_000), words.join(" "));
                post.visibility = visibility;
                post.subject = subject;
                post.in_reply_to = reply.then_some(PostId(1));
                for m in 0..mentions {
                    post.mentions
                        .push(UserRef::new(UserId(m as u64), Domain::new("m.example")));
                }
                post
            },
        )
}

/// One control-phase event of the delta-API differential test: a
/// rollout-wave merge, a single cascade block, or a policy enable —
/// exactly the event mix the dynamics engine routes through the
/// incremental compilation path.
#[derive(Debug, Clone)]
enum DeltaOp {
    Merge(Vec<(usize, String)>),
    Block(String),
    Enable(usize),
}

proptest! {
    /// NoOp is the identity: the activity comes out exactly as it went in.
    #[test]
    fn noop_is_identity(post in arb_post()) {
        let (local, dir) = ctx_bits();
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let act = Activity::create(ActivityId(1), post);
        let before = format!("{act:?}");
        match filter_owned(&NoOpPolicy, &ctx, act) {
            PolicyVerdict::Pass(after) => prop_assert_eq!(before, format!("{after:?}")),
            PolicyVerdict::Reject(_) => prop_assert!(false, "NoOp must never reject"),
        }
        prop_assert!(ctx.take_effects().is_empty());
    }

    /// An empty pipeline passes everything unchanged; appending NoOp never
    /// changes a pipeline's verdict.
    #[test]
    fn noop_append_preserves_verdict(post in arb_post(), reject_origin in any::<bool>()) {
        let (local, dir) = ctx_bits();
        let origin = post.author.domain.clone();
        let mut simple = SimplePolicy::new();
        if reject_origin {
            simple.add_target(SimpleAction::Reject, origin);
        }
        let base = MrfPipeline::new().with(Arc::new(simple.clone()));
        let extended = MrfPipeline::new()
            .with(Arc::new(simple))
            .with(Arc::new(NoOpPolicy));
        let act = Activity::create(ActivityId(1), post);
        let ctx1 = PolicyContext::new(&local, SimTime(0), &dir);
        let ctx2 = PolicyContext::new(&local, SimTime(0), &dir);
        let a = base.filter(&ctx1, act.clone()).accepted();
        let b = extended.filter(&ctx2, act).accepted();
        prop_assert_eq!(a, b);
    }

    /// EnsureRePrepended is idempotent: filtering twice equals filtering
    /// once.
    #[test]
    fn ensure_re_prepended_idempotent(post in arb_post()) {
        let (local, dir) = ctx_bits();
        let p = EnsureRePrependedPolicy;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let once = filter_owned(&p, &ctx, Activity::create(ActivityId(1), post)).expect_pass();
        let subject_once = once.note().unwrap().subject.clone();
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let twice = filter_owned(&p, &ctx, once).expect_pass();
        prop_assert_eq!(subject_once, twice.note().unwrap().subject.clone());
    }

    /// NormalizeMarkup is idempotent and never grows the content.
    #[test]
    fn normalize_markup_idempotent(raw in "[a-z<>/ ]{0,60}") {
        let (local, dir) = ctx_bits();
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let post = Post::stub(PostId(1), author, SimTime(0), raw.clone());
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let once = filter_owned(&NormalizeMarkupPolicy, &ctx, Activity::create(ActivityId(1), post))
            .expect_pass();
        let c1 = once.note().unwrap().content.clone();
        prop_assert!(c1.len() <= raw.len());
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let twice = filter_owned(&NormalizeMarkupPolicy, &ctx, once).expect_pass();
        prop_assert_eq!(&c1, &twice.note().unwrap().content);
        prop_assert!(!c1.contains('<') || !c1.contains('>') || raw.find('<') > raw.find('>'));
    }

    /// Hellthread verdicts are monotone in the mention count: if a post
    /// with n mentions is rejected, any post with more mentions is too.
    #[test]
    fn hellthread_monotone(n in 0usize..40) {
        let (local, dir) = ctx_bits();
        let p = HellthreadPolicy::default();
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let verdict_at = |k: usize| {
            let mut post = Post::stub(PostId(1), author.clone(), SimTime(0), "x");
            for i in 0..k {
                post.mentions.push(UserRef::new(UserId(i as u64), Domain::new("m.example")));
            }
            let ctx = PolicyContext::new(&local, SimTime(0), &dir);
            filter_owned(&p, &ctx, Activity::create(ActivityId(1), post)).is_pass()
        };
        if !verdict_at(n) {
            prop_assert!(!verdict_at(n + 1), "rejection must be monotone");
        }
    }

    /// Keyword Replace eliminates the pattern: after filtering, a
    /// case-insensitive search no longer finds it (when the replacement
    /// doesn't reintroduce it).
    #[test]
    fn keyword_replace_eliminates_pattern(
        body in "[a-f ]{0,40}",
        pattern in "[a-f]{2,6}",
    ) {
        let (local, dir) = ctx_bits();
        let p = KeywordPolicy::new(vec![KeywordRule::new(
            pattern.clone(),
            KeywordAction::Replace("XX".into()),
        )]);
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let post = Post::stub(PostId(1), author, SimTime(0), body);
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let out = filter_owned(&p, &ctx, Activity::create(ActivityId(1), post)).expect_pass();
        let content = out.note().unwrap().content.to_ascii_lowercase();
        prop_assert!(!content.contains(&pattern.to_ascii_lowercase()));
    }

    /// Pipeline trace length never exceeds the number of policies, and
    /// ends with the rejecting policy on rejection.
    #[test]
    fn trace_is_well_formed(post in arb_post(), drop_everything in any::<bool>()) {
        let (local, dir) = ctx_bits();
        let mut pipeline = MrfPipeline::new().with(Arc::new(NoOpPolicy));
        if drop_everything {
            pipeline.push(Arc::new(crate::mrf::policies::DropPolicy));
        }
        pipeline.push(Arc::new(NoOpPolicy));
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let out = pipeline.filter(&ctx, Activity::create(ActivityId(1), post));
        prop_assert!(out.trace.len() <= pipeline.len());
        if let Some(reason) = out.rejection() {
            prop_assert_eq!(reason.policy, PolicyKind::Drop);
            let last = out.trace.last().unwrap();
            prop_assert!(matches!(
                last.decision,
                crate::mrf::PolicyDecision::Rejected(_)
            ));
        } else {
            prop_assert_eq!(out.trace.len(), pipeline.len());
        }
    }

    /// The borrowed ≡ owned oracle over arbitrary catalog subsets, posts
    /// and `published` stamps: same verdict, same surviving activity
    /// (rewrites included) and same side effects. `decor` bits add markup,
    /// media and an `nsfw` hashtag, which give the rewriting stages something to rewrite, and
    /// random `SimplePolicy` actions on the post's origin reach every
    /// Simple branch.
    #[test]
    fn filter_inbound_borrowed_agrees_with_filter(
        post in arb_post(),
        subset_mask in any::<u64>(),
        simple_actions in proptest::collection::vec(0usize..SimpleAction::ALL.len(), 0..3),
        decor in 0u8..8,
        published in 0u64..=NOW.0,
    ) {
        let catalog = crate::catalog::PolicyCatalog::global();
        let mut config = InstanceModerationConfig::default();
        for (i, entry) in catalog.entries().iter().enumerate() {
            if subset_mask & (1 << (i % 64)) != 0 {
                config.enable(entry.kind);
            }
        }
        let mut simple = SimplePolicy::new();
        for &a in &simple_actions {
            simple.add_target(SimpleAction::ALL[a], post.author.domain.clone());
        }
        config.set_simple(simple);
        let mut post = post;
        if decor & 1 != 0 {
            post.content = format!("<p>{}</p>", post.content).into();
        }
        if decor & 2 != 0 {
            post.media.push(MediaAttachment {
                host: post.author.domain.clone(),
                kind: MediaKind::Image,
                sensitive: false,
            });
        }
        if decor & 4 != 0 {
            post.hashtags.push("nsfw".into());
        }
        let template = Activity::create(ActivityId(1), post);
        check_borrowed_matches_owned(&config, &template, SimTime(published))?;
    }

    /// `filter_inbound` agrees with `filter` on every *partially rolled
    /// out* pipeline: a staged rollout grows an instance's config by
    /// repeated `SimplePolicy::merge` (one wave at a time, exactly what
    /// the dynamics engine's `AdoptWave` replays), and the compiled
    /// pipeline after every wave must keep the two filter paths in
    /// lockstep — identical verdict and identical surviving activity.
    #[test]
    fn filter_inbound_agrees_with_filter_across_rollout_waves(
        post in arb_post(),
        reject_domains in proptest::collection::vec("[a-z]{2,6}\\.[a-z]{2,3}", 0..9),
        nsfw_domains in proptest::collection::vec("[a-z]{2,6}\\.[a-z]{2,3}", 0..5),
        target_origin in any::<bool>(),
        extra_kinds_mask in any::<u64>(),
        waves in 1_usize..6,
    ) {
        use crate::rollout::PolicyRollout;
        use crate::time::SimDuration;

        let (local, dir) = ctx_bits();
        // The final config a rollout converges to: a SimplePolicy with
        // arbitrary reject / media-NSFW lists (optionally including the
        // post's own origin, so both verdicts get exercised) plus a
        // random slice of the catalog.
        let mut simple = SimplePolicy::new();
        for d in &reject_domains {
            simple.add_target(SimpleAction::Reject, Domain::new(d.clone()));
        }
        if target_origin {
            simple.add_target(SimpleAction::Reject, post.author.domain.clone());
        }
        for d in &nsfw_domains {
            simple.add_target(SimpleAction::MediaNsfw, Domain::new(d.clone()));
        }
        let mut target = InstanceModerationConfig::pleroma_default();
        for (i, entry) in crate::catalog::PolicyCatalog::global().entries().iter().enumerate() {
            if extra_kinds_mask & (1 << (i % 64)) != 0 {
                target.enable(entry.kind);
            }
        }
        target.set_simple(simple);

        // Replay the staged adoption: merge wave after wave, checking
        // the two filter paths against each other at every stage.
        let rollout = PolicyRollout::staged(&target, waves, SimDuration::hours(8));
        prop_assert_eq!(rollout.waves.len(), waves);
        let mut config = InstanceModerationConfig::default();
        for (w, wave) in rollout.waves.iter().enumerate() {
            config.apply_wave(wave);
            let pipeline = config.build_pipeline();
            let act = Activity::create(ActivityId(1), post.clone());
            let ctx = PolicyContext::new(&local, SimTime(0), &dir);
            prop_assert_eq!(
                traced(&pipeline, &ctx, act.clone()),
                untraced(&pipeline, &ctx, act),
                "filter/filter_inbound diverged after wave {}",
                w
            );
        }
        // The fully merged config rejects the origin iff the target does
        // (local activities are exempt from SimplePolicy, so skip the
        // astronomically unlikely local-origin draw).
        if target_origin && post.author.domain.as_str() != "home.example" {
            let ctx = PolicyContext::new(&local, SimTime(0), &dir);
            let act = Activity::create(ActivityId(1), post.clone());
            prop_assert!(!config.build_pipeline().filter(&ctx, act).accepted());
        }
    }

    /// Differential check of the incremental (delta) compilation path:
    /// a random sequence of control-phase events — rollout-wave merges,
    /// single cascade blocks, policy enables — applied to a *live*
    /// pipeline via `MrfPipeline::apply_wave` / `add_simple_target` must
    /// yield a pipeline whose `filter` *and* `filter_inbound` verdicts on
    /// arbitrary posts are identical to a pipeline freshly
    /// `build_pipeline()`d from a config that had the same events applied
    /// — at every step, including after the pipeline and its knobs have
    /// been cloned (the copy-on-write branch of the delta API).
    #[test]
    fn delta_api_matches_reference_compilation(
        post in arb_post(),
        ops in proptest::collection::vec(
            prop_oneof![
                // A rollout-wave merge: up to 4 (action, domain) targets.
                proptest::collection::vec(
                    (0usize..SimpleAction::ALL.len(), "[a-e]{2,4}\\.[a-z]{2,3}"),
                    1..5
                ).prop_map(DeltaOp::Merge),
                // A cascade imitation block: one reject edge.
                "[a-e]{2,4}\\.[a-z]{2,3}".prop_map(DeltaOp::Block),
                // An admin enabling one more catalog policy.
                (0usize..64).prop_map(DeltaOp::Enable),
            ],
            1..16,
        ),
        target_origin_at in proptest::option::of(0usize..16),
        clone_at in proptest::option::of(0usize..16),
    ) {
        let (local, dir) = ctx_bits();
        let catalog = crate::catalog::PolicyCatalog::global();
        let mut reference = InstanceModerationConfig::pleroma_default();
        let mut knobs = Arc::new(reference.clone());
        let mut pipeline = reference.build_pipeline();
        // Clones held across deltas force the copy-on-write branch.
        let mut held_clone = None;

        for (step, op) in ops.into_iter().enumerate() {
            match op {
                DeltaOp::Merge(targets) => {
                    let mut addition = SimplePolicy::new();
                    for (a, d) in &targets {
                        addition.add_target(SimpleAction::ALL[*a], Domain::new(d.clone()));
                    }
                    if target_origin_at == Some(step) {
                        addition.add_target(
                            SimpleAction::Reject,
                            post.author.domain.clone(),
                        );
                    }
                    let wave = RolloutWave {
                        simple: Some(addition),
                        ..RolloutWave::default()
                    };
                    pipeline.apply_wave(&wave, &mut knobs);
                    reference.apply_wave(&wave);
                }
                DeltaOp::Block(domain) => {
                    // Mirrors the dynamics defederate site: enable the
                    // Simple stage if needed, then one-target delta.
                    if pipeline.simple().is_none() {
                        pipeline.apply_wave(&enabling(PolicyKind::Simple), &mut knobs);
                    }
                    prop_assert!(pipeline.add_simple_target(
                        SimpleAction::Reject,
                        Domain::new(domain.clone()),
                    ));
                    reference.enable(PolicyKind::Simple);
                    reference
                        .simple
                        .get_or_insert_with(SimplePolicy::new)
                        .add_target(SimpleAction::Reject, Domain::new(domain));
                }
                DeltaOp::Enable(i) => {
                    let kind = catalog.entries()[i % catalog.entries().len()].kind;
                    pipeline.apply_wave(&enabling(kind), &mut knobs);
                    reference.enable(kind);
                }
            }
            if clone_at == Some(step) {
                held_clone = Some((pipeline.clone(), Arc::clone(&knobs)));
            }
            // The delta-maintained pipeline must match a fresh reference
            // compile on both filter paths, every step of the way.
            let fresh = reference.build_pipeline();
            prop_assert_eq!(pipeline.kinds(), fresh.kinds(), "step {}", step);
            prop_assert_eq!(&knobs.enabled, &reference.enabled, "step {}", step);
            let act = Activity::create(ActivityId(1), post.clone());
            let ctx = PolicyContext::new(&local, SimTime(0), &dir);
            prop_assert_eq!(
                traced(&pipeline, &ctx, act.clone()),
                traced(&fresh, &ctx, act.clone()),
                "filter diverged at step {}",
                step
            );
            prop_assert_eq!(
                untraced(&pipeline, &ctx, act.clone()),
                untraced(&fresh, &ctx, act),
                "filter_inbound diverged at step {}",
                step
            );
        }
        drop(held_clone);
    }

    /// SimplePolicy events() always agrees with targets(): the number of
    /// events equals the sum of per-action list lengths, and removal
    /// shrinks it by exactly one.
    #[test]
    fn simple_policy_event_accounting(
        domains in proptest::collection::vec("[a-z]{2,6}\\.[a-z]{2,3}", 1..12),
    ) {
        let mut simple = SimplePolicy::new();
        for (i, d) in domains.iter().enumerate() {
            let action = SimpleAction::ALL[i % SimpleAction::ALL.len()];
            simple.add_target(action, Domain::new(d.clone()));
        }
        let total: usize = SimpleAction::ALL
            .iter()
            .map(|&a| simple.targets(a).len())
            .sum();
        prop_assert_eq!(simple.events().count(), total);
        // Remove the first event and re-check.
        let (action, domain) = {
            let (a, d) = simple.events().next().unwrap();
            (a, d.clone())
        };
        prop_assert!(simple.remove_target(action, &domain));
        prop_assert_eq!(simple.events().count(), total - 1);
    }
}

/// A wave that only enables `kind`.
fn enabling(kind: PolicyKind) -> RolloutWave {
    RolloutWave {
        enable: vec![kind],
        ..RolloutWave::default()
    }
}

/// `Subchain` and `FollowBot` compile to a `NoOp` stage, so only the
/// config can tell they were requested: enabling each twice through the
/// delta API must append one stage each, like a fresh compile.
#[test]
fn enable_is_idempotent_per_requested_kind() {
    let mut reference = InstanceModerationConfig::pleroma_default();
    let mut knobs = Arc::new(reference.clone());
    let mut pipeline = reference.build_pipeline();
    for kind in [PolicyKind::Subchain, PolicyKind::FollowBot].repeat(2) {
        pipeline.apply_wave(&enabling(kind), &mut knobs);
        reference.enable(kind);
    }
    assert_eq!(knobs.enabled, reference.enabled);
    assert_eq!(pipeline.kinds(), reference.build_pipeline().kinds());
    assert_eq!(pipeline.len(), 4, "ObjectAge, NoOp, and one NoOp each");
}

/// Names the shared-index differential draws from: nested labels, so
/// subdomain matching crosses between the shared and private indexes.
const POOL: [&str; 12] = [
    "x", "a.x", "b.x", "c.x", "a.b.x", "y", "a.y", "b.y", "c.y", "z", "a.z", "b.z",
];

/// One step of the shared-index differential, applied to the policy of
/// one live clone.
#[derive(Debug, Clone)]
enum TargetOp {
    /// Merge the chunk `names()[start..start + len]` (wrapped into range)
    /// of shared index `index` as a [`SimplePolicy::from_shared`] wave.
    Wave {
        index: usize,
        action: usize,
        start: usize,
        len: usize,
    },
    /// The same chunk, thinned by `mask` through
    /// [`RolloutWave::subset_simple`] before the merge.
    Subset {
        index: usize,
        action: usize,
        start: usize,
        len: usize,
        mask: u16,
    },
    /// `add_target`, as a cascade block does.
    Add { action: usize, name: usize },
    /// `add_simple_target` through a compiled pipeline's delta API.
    PipelineAdd { name: usize },
    /// `remove_target`.
    Remove { action: usize, name: usize },
    /// `remove_target` on every target of one action, which leaves its
    /// list present but empty.
    Clear { action: usize },
    /// Clone this policy into a new live clone that diverges from here.
    Clone,
    /// Merge another clone's policy, which may hold emptied lists.
    MergeFrom { src: usize },
}

fn arb_target_op() -> impl Strategy<Value = TargetOp> {
    prop_oneof![
        (0usize..2, 0usize..2, 0usize..12, 0usize..6).prop_map(|(index, action, start, len)| {
            TargetOp::Wave {
                index,
                action,
                start,
                len,
            }
        }),
        (0usize..2, 0usize..2, 0usize..12, 0usize..6, any::<u16>()).prop_map(
            |(index, action, start, len, mask)| TargetOp::Subset {
                index,
                action,
                start,
                len,
                mask
            }
        ),
        (0usize..2, 0usize..POOL.len()).prop_map(|(action, name)| TargetOp::Add { action, name }),
        (0usize..POOL.len()).prop_map(|name| TargetOp::PipelineAdd { name }),
        (0usize..2, 0usize..POOL.len())
            .prop_map(|(action, name)| TargetOp::Remove { action, name }),
        (0usize..2).prop_map(|action| TargetOp::Clear { action }),
        Just(TargetOp::Clone),
        (0usize..8).prop_map(|src| TargetOp::MergeFrom { src }),
    ]
}

/// A chunk of `index`'s names, wrapped into range.
fn chunk(index: &SharedTargets, start: usize, len: usize) -> &[Domain] {
    let names = index.names();
    if names.is_empty() {
        return names;
    }
    let start = start % names.len();
    &names[start..(start + len).min(names.len())]
}

/// The same chunk as a plain, unattached wave.
fn plain(action: SimpleAction, names: &[Domain]) -> SimplePolicy {
    let mut policy = SimplePolicy::new();
    for name in names {
        policy.add_target(action, name.clone());
    }
    policy
}

/// The reference merge: `addition`'s events one `add_target` at a time.
fn add_each(policy: &mut SimplePolicy, addition: &SimplePolicy) {
    for (action, domain) in addition.events() {
        policy.add_target(action, domain.clone());
    }
}

/// Runs `write` on a compiled pipeline whose Simple stage is `policy`,
/// the way the engine applies an `AdoptWave` or a block, and takes the
/// stage back.
fn through_pipeline(policy: &mut SimplePolicy, write: impl FnOnce(&mut MrfPipeline) -> bool) {
    let mut pipeline = MrfPipeline::new();
    pipeline.push(Arc::new(std::mem::take(policy)));
    assert!(write(&mut pipeline));
    *policy = pipeline.simple().expect("a Simple stage").clone();
}

/// Every observable of `attached` equals that of `reference`.
fn check_same(
    attached: &SimplePolicy,
    reference: &SimplePolicy,
    step: usize,
) -> Result<(), String> {
    for action in SimpleAction::ALL {
        prop_assert_eq!(
            attached.targets(action),
            reference.targets(action),
            "step {}",
            step
        );
        for name in POOL
            .iter()
            .flat_map(|p| [p.to_string(), format!("q.{p}")])
            .chain(["q".into()])
        {
            let domain = Domain::new(name);
            prop_assert_eq!(
                attached.matches(action, &domain),
                reference.matches(action, &domain),
                "step {} {:?} {}",
                step,
                action,
                domain
            );
        }
    }
    prop_assert!(attached.events().eq(reference.events()), "step {}", step);
    prop_assert_eq!(attached.describe(), reference.describe(), "step {}", step);
    prop_assert_eq!(
        serde_json::to_string(attached).unwrap(),
        serde_json::to_string(reference).unwrap(),
        "step {}",
        step
    );
    Ok(())
}

proptest! {
    /// Differential check of shared-index target lists: random
    /// interleavings of waves from one or two shared indexes (whole or
    /// subset), single adds and removes, merges between diverged clones
    /// and pipeline deltas must leave every observable — target order,
    /// events, subdomain matching, `describe` and the serialized bytes —
    /// equal to the same sequence applied to plain, unattached lists
    /// one `add_target` at a time. That reference never calls `merge`,
    /// so a merge that creates an action entry for a list `other` holds
    /// empty (a diverged clone's list emptied by removals) shows up as
    /// an extra `"reject": []` in the serialized bytes.
    #[test]
    fn shared_index_lists_match_unattached_lists(
        seeds in proptest::collection::vec(
            proptest::collection::vec(0usize..POOL.len(), 0..12),
            2..3,
        ),
        ops in proptest::collection::vec((0usize..8, arb_target_op()), 1..32),
    ) {
        let indexes: Vec<Arc<SharedTargets>> = seeds
            .iter()
            .map(|picks| {
                let mut index = SharedTargets::default();
                for &p in picks {
                    index.insert(&Domain::new(POOL[p]));
                }
                Arc::new(index)
            })
            .collect();
        // Live clones: (shared-index side, unattached reference side).
        let mut live = vec![(SimplePolicy::new(), SimplePolicy::new())];
        for (step, (who, op)) in ops.into_iter().enumerate() {
            let who = who % live.len();
            match op {
                TargetOp::Wave { index, action, start, len } => {
                    let action = SimpleAction::ALL[action];
                    let names = chunk(&indexes[index], start, len);
                    let (attached, reference) = &mut live[who];
                    attached.merge(&SimplePolicy::from_shared(action, &indexes[index], names));
                    add_each(reference, &plain(action, names));
                }
                TargetOp::Subset { index, action, start, len, mask } => {
                    let action = SimpleAction::ALL[action];
                    let names = chunk(&indexes[index], start, len);
                    let thin = |policy: SimplePolicy| {
                        let wave = RolloutWave { simple: Some(policy), ..RolloutWave::default() };
                        let mut bit = 0;
                        wave.subset_simple(|_, _| {
                            bit += 1;
                            mask & (1 << (bit - 1)) != 0
                        })
                        .simple
                    };
                    let (attached, reference) = &mut live[who];
                    let shared = SimplePolicy::from_shared(action, &indexes[index], names);
                    if let Some(wave) = thin(shared) {
                        through_pipeline(attached, |p| p.apply_simple_delta(&wave));
                    }
                    if let Some(wave) = thin(plain(action, names)) {
                        add_each(reference, &wave);
                    }
                }
                TargetOp::Add { action, name } => {
                    let (attached, reference) = &mut live[who];
                    attached.add_target(SimpleAction::ALL[action], Domain::new(POOL[name]));
                    reference.add_target(SimpleAction::ALL[action], Domain::new(POOL[name]));
                }
                TargetOp::PipelineAdd { name } => {
                    let (attached, reference) = &mut live[who];
                    let domain = Domain::new(POOL[name]);
                    through_pipeline(attached, |p| {
                        p.add_simple_target(SimpleAction::Reject, domain.clone())
                    });
                    reference.add_target(SimpleAction::Reject, domain);
                }
                TargetOp::Remove { action, name } => {
                    let (attached, reference) = &mut live[who];
                    let domain = Domain::new(POOL[name]);
                    prop_assert_eq!(
                        attached.remove_target(SimpleAction::ALL[action], &domain),
                        reference.remove_target(SimpleAction::ALL[action], &domain),
                        "step {}",
                        step
                    );
                }
                TargetOp::Clear { action } => {
                    let action = SimpleAction::ALL[action];
                    let (attached, reference) = &mut live[who];
                    for policy in [attached, reference] {
                        for domain in policy.targets(action).to_vec() {
                            prop_assert!(policy.remove_target(action, &domain));
                        }
                    }
                }
                TargetOp::Clone => live.push(live[who].clone()),
                TargetOp::MergeFrom { src } => {
                    let (attached, reference) = live[src % live.len()].clone();
                    live[who].0.merge(&attached);
                    add_each(&mut live[who].1, &reference);
                }
            }
            for (attached, reference) in &live {
                check_same(attached, reference, step)?;
            }
        }
    }
}
