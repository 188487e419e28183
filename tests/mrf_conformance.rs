//! MRF conformance: cross-crate pipeline semantics — configs compiled to
//! pipelines must behave like Pleroma's documented moderation.

use fediscope::prelude::*;
use fediscope_core::catalog::PolicyCatalog;
use fediscope_core::id::ActivityId;
use fediscope_core::model::{MediaAttachment, MediaKind, Visibility};
use fediscope_core::mrf::NullActorDirectory;
use fediscope_core::time::CAMPAIGN_START;

fn remote_note(domain: &str, content: &str) -> Activity {
    let author = UserRef::new(UserId(7), Domain::new(domain));
    Activity::create(
        ActivityId(1),
        Post::stub(PostId(1), author, CAMPAIGN_START, content),
    )
}

fn ctx_on<'a>(
    local: &'a Domain,
    dir: &'a NullActorDirectory,
) -> fediscope_core::mrf::PolicyContext<'a> {
    fediscope_core::mrf::PolicyContext::new(local, CAMPAIGN_START, dir)
}

#[test]
fn every_observed_policy_builds_and_filters() {
    let local = Domain::new("home.example");
    let dir = NullActorDirectory;
    for kind in PolicyKind::OBSERVED {
        let mut config = InstanceModerationConfig::default();
        config.enable(kind);
        let pipeline = config.build_pipeline();
        assert_eq!(pipeline.len(), 1, "{kind}");
        let ctx = ctx_on(&local, &dir);
        // Must not panic on any of the basic activity kinds.
        let _ = pipeline.filter(&ctx, remote_note("a.example", "hello fedi"));
        let ctx = ctx_on(&local, &dir);
        let follow = Activity::follow(
            ActivityId(2),
            UserRef::new(UserId(1), Domain::new("a.example")),
            UserRef::new(UserId(2), Domain::new("home.example")),
            CAMPAIGN_START,
        );
        let _ = pipeline.filter(&ctx, follow);
        let ctx = ctx_on(&local, &dir);
        let delete = Activity::delete(
            ActivityId(3),
            UserRef::new(UserId(1), Domain::new("a.example")),
            PostId(1),
            CAMPAIGN_START,
        );
        let _ = pipeline.filter(&ctx, delete);
    }
}

#[test]
fn reject_short_circuits_the_whole_chain() {
    // A pipeline with Simple(reject) followed by rewriting policies: the
    // rewriters must never see a rejected activity.
    let mut config = InstanceModerationConfig::pleroma_default();
    config.enable(PolicyKind::NormalizeMarkup);
    config.set_simple(
        SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("bad.example")),
    );
    let pipeline = config.build_pipeline();
    let local = Domain::new("home.example");
    let dir = NullActorDirectory;
    let ctx = ctx_on(&local, &dir);
    let outcome = pipeline.filter(&ctx, remote_note("bad.example", "<b>hi</b>"));
    assert!(!outcome.accepted());
    let rejected_at = outcome
        .trace
        .iter()
        .position(|t| matches!(t.decision, fediscope_core::mrf::PolicyDecision::Rejected(_)))
        .unwrap();
    assert_eq!(
        rejected_at,
        outcome.trace.len() - 1,
        "nothing runs after the rejection"
    );
}

#[test]
fn pleroma_default_config_is_permissive_for_fresh_content() {
    let pipeline = InstanceModerationConfig::pleroma_default().build_pipeline();
    let local = Domain::new("home.example");
    let dir = NullActorDirectory;
    let ctx = ctx_on(&local, &dir);
    let outcome = pipeline.filter(&ctx, remote_note("anywhere.example", "fresh post"));
    assert!(outcome.accepted(), "defaults must not block fresh content");
}

#[test]
fn object_age_default_delists_but_keeps_old_posts() {
    let pipeline = InstanceModerationConfig::pleroma_default().build_pipeline();
    let local = Domain::new("home.example");
    let dir = NullActorDirectory;
    let ctx = ctx_on(&local, &dir);
    let author = UserRef::new(UserId(1), Domain::new("slow.example"));
    let old_post = Post::stub(
        PostId(9),
        author,
        SimTime(CAMPAIGN_START.0 - 30 * 86_400),
        "from last month",
    );
    let outcome = pipeline.filter(&ctx, Activity::create(ActivityId(9), old_post));
    let act = outcome.verdict.expect_pass();
    let post = act.note().unwrap();
    assert_eq!(
        post.visibility,
        fediscope::core::model::Visibility::Unlisted,
        "delisted, not rejected — Pleroma's mrf_object_age default"
    );
    assert!(post.followers_stripped);
}

#[test]
fn rewrites_compose_across_policies_in_order() {
    // NormalizeMarkup strips tags, then KeywordPolicy replaces a word the
    // markup was hiding. Order matters and must be config order.
    let mut config = InstanceModerationConfig::default();
    config.enable(PolicyKind::NormalizeMarkup);
    config.enable(PolicyKind::Keyword);
    config
        .configs
        .push(fediscope_core::config::PolicyConfig::Keyword(
            fediscope_core::mrf::policies::KeywordPolicy::new(vec![
                fediscope_core::mrf::policies::KeywordRule::new(
                    "elixir",
                    fediscope_core::mrf::policies::KeywordAction::Replace("rust".into()),
                ),
            ]),
        ));
    let pipeline = config.build_pipeline();
    let local = Domain::new("home.example");
    let dir = NullActorDirectory;
    let ctx = ctx_on(&local, &dir);
    let outcome = pipeline.filter(&ctx, remote_note("a.example", "<p>elixir rocks</p>"));
    let act = outcome.verdict.expect_pass();
    assert_eq!(&*act.note().unwrap().content, "rust rocks");
}

/// The fixed activity set of the borrowed ≡ owned contract: Creates with
/// media, with markup, with `"."` placeholder text (and media, so
/// `NoPlaceholderTextPolicy` has something to strip) and with 30 mentions,
/// each at Public and at Unlisted; then a Follow, a Delete and a Flag.
fn contract_activities() -> Vec<Activity> {
    let origin = Domain::new("a.example");
    let author = UserRef::new(UserId(7), origin.clone());
    let note = |content: &str| Post::stub(PostId(1), author.clone(), CAMPAIGN_START, content);
    let mut with_media = note("look");
    with_media.media.push(MediaAttachment {
        host: origin,
        kind: MediaKind::Image,
        sensitive: false,
    });
    let mut placeholder = note(".");
    placeholder.media = with_media.media.clone();
    let mut mentions = note("hi all");
    for i in 0..30 {
        mentions
            .mentions
            .push(UserRef::new(UserId(100 + i), Domain::new("m.example")));
    }
    let mut activities = Vec::new();
    for post in [
        with_media,
        note("<p>hello <b>fedi</b></p>"),
        placeholder,
        mentions,
    ] {
        for visibility in [Visibility::Public, Visibility::Unlisted] {
            let mut post = post.clone();
            post.visibility = visibility;
            let id = ActivityId(activities.len() as u64 + 1);
            activities.push(Activity::create(id, post));
        }
    }
    let target = UserRef::new(UserId(2), Domain::new("home.example"));
    activities.push(Activity::follow(
        ActivityId(90),
        author.clone(),
        target.clone(),
        CAMPAIGN_START,
    ));
    activities.push(Activity::delete(
        ActivityId(91),
        author.clone(),
        PostId(1),
        CAMPAIGN_START,
    ));
    activities.push(Activity::report(
        ActivityId(92),
        author,
        target,
        "spam",
        CAMPAIGN_START,
    ));
    activities
}

/// The MRF contract: for every constructible policy, the traced owning
/// `filter` (on a stamped clone) and the untraced `filter_inbound` (on the
/// borrowed template) agree on verdict, surviving activity and side
/// effects. Stamps at and a week before the receive time make
/// `ObjectAgePolicy` both pass and rewrite.
#[test]
fn borrowed_and_owned_entry_points_agree_on_every_policy() {
    let local = Domain::new("home.example");
    let dir = NullActorDirectory;
    let now = SimTime(CAMPAIGN_START.0 + 8 * 86_400);
    let ctx = fediscope_core::mrf::PolicyContext::new(&local, now, &dir);
    let activities = contract_activities();
    for entry in PolicyCatalog::global().entries() {
        let mut config = InstanceModerationConfig::default();
        config.enable(entry.kind);
        if entry.kind == PolicyKind::Simple {
            let origin = Domain::new("a.example");
            let mut simple = SimplePolicy::new();
            for action in [
                SimpleAction::MediaRemoval,
                SimpleAction::MediaNsfw,
                SimpleAction::FederatedTimelineRemoval,
                SimpleAction::BannerRemoval,
                SimpleAction::RejectDeletes,
            ] {
                simple.add_target(action, origin.clone());
            }
            config.set_simple(simple);
        }
        if config.build_pipeline().is_empty() {
            continue; // strawman policies need an injected classifier
        }
        for template in &activities {
            for stamp in [CAMPAIGN_START, now] {
                // Fresh pipelines: stateful policies start equal.
                let mut stamped = template.clone();
                stamped.published = stamp;
                if let Some(post) = stamped.note_mut() {
                    post.created = stamp;
                }
                let owned = match config.build_pipeline().filter(&ctx, stamped).verdict {
                    PolicyVerdict::Pass(a) => Ok(a),
                    PolicyVerdict::Reject(r) => Err(r),
                };
                let owned_effects = ctx.take_effects();
                let mut inbound = Inbound::borrowed(template, stamp);
                let borrowed = config
                    .build_pipeline()
                    .filter_inbound(&ctx, &mut inbound)
                    .map(|()| inbound.into_owned());
                let case = format!("{} on {:?} at {stamp:?}", entry.name, template.id);
                assert_eq!(format!("{owned:?}"), format!("{borrowed:?}"), "{case}");
                assert_eq!(owned_effects, ctx.take_effects(), "{case}");
            }
        }
    }
}

#[test]
fn catalog_and_configs_agree_on_all_49_kinds() {
    let catalog = PolicyCatalog::global();
    assert_eq!(catalog.entries().len(), 49);
    for entry in catalog.entries() {
        // Strawman policies need injected dependencies; everything else
        // must be constructible from a bare config.
        let mut config = InstanceModerationConfig::default();
        config.enable(entry.kind);
        let pipeline = config.build_pipeline();
        if entry.kind == PolicyKind::UserTagModeration || entry.kind == PolicyKind::RepeatOffender {
            assert_eq!(pipeline.len(), 0, "{}: needs a classifier", entry.name);
        } else {
            assert_eq!(pipeline.len(), 1, "{}", entry.name);
        }
    }
}

#[test]
fn metadata_json_shape_is_stable() {
    // The exact JSON the paper's crawler parsed: mrf_policies +
    // mrf_simple with per-action target arrays.
    let mut config = InstanceModerationConfig::pleroma_default();
    config.set_simple(
        SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("gab.com"))
            .with_target(SimpleAction::FollowersOnly, Domain::new("spam.example")),
    );
    let json = config.to_metadata_json();
    assert!(json["mrf_policies"].is_array());
    assert_eq!(json["mrf_simple"]["reject"][0], "gab.com");
    assert_eq!(json["mrf_simple"]["followers_only"][0], "spam.example");
    // Every action key is present (empty arrays included), like Pleroma.
    for action in SimpleAction::ALL {
        assert!(
            json["mrf_simple"][action.config_key()].is_array(),
            "{} key missing",
            action.config_key()
        );
    }
}
