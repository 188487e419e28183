//! The compiled pipeline is each instance's only live copy of its
//! moderation: blocklist imports, cascade blocks and rollout waves write
//! their targets into it through the MRF delta API, never into a
//! mirrored config. This test rebuilds the mirror outside the engine as
//! the oracle. An event sink replays every `AdoptWave` and `Defederate`
//! (applied or not) into per-instance reference configs through the
//! config-side API, and at run end every instance's live pipeline must
//! equal a fresh compile of its reference config: same stage kinds,
//! same `SimplePolicy` target lists, same verdicts on both filter paths.
//! It runs the registry's `delta-flood`, and `policy-flood`, whose
//! deltas interleave with outages and retries.

use fediscope::core::catalog::PolicyKind;
use fediscope::core::config::InstanceModerationConfig;
use fediscope::core::id::{ActivityId, Domain, PostId, UserId, UserRef};
use fediscope::core::model::{Activity, MediaAttachment, MediaKind, Post};
use fediscope::core::mrf::policies::SimpleAction;
use fediscope::core::mrf::{Inbound, MrfPipeline, NullActorDirectory, PolicyContext};
use fediscope::core::time::SimTime;
use fediscope::dynamics::scenarios::lookup;
use fediscope::dynamics::{DynamicsConfig, DynamicsEngine, Event, EventSink, NetworkState};
use fediscope::synthgen::{ScenarioSeeds, World, WorldConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Reference configs, one per instance, shared with the test body.
type Mirror = Rc<RefCell<Vec<InstanceModerationConfig>>>;

/// Replays every moderation event into the mirror through the config
/// API — the path the engine no longer writes.
struct MirrorSink(Mirror);

impl EventSink for MirrorSink {
    fn sync(&mut self, state: &NetworkState) {
        // The seed world configures no policy knobs, so the enabled kinds
        // plus the live target lists are the whole post-`init` config.
        *self.0.borrow_mut() = state
            .instances
            .iter()
            .map(|inst| InstanceModerationConfig {
                enabled: inst.enabled().to_vec(),
                simple: inst.simple().cloned(),
                configs: Vec::new(),
            })
            .collect();
    }

    fn on_event(&mut self, event: &Event, _applied: bool, state: &NetworkState) {
        let mut mirror = self.0.borrow_mut();
        match event {
            Event::AdoptWave { instance, wave } => mirror[*instance as usize].apply_wave(wave),
            Event::Defederate { instance, target } => {
                // A block lands even when the link was already gone.
                let config = &mut mirror[*instance as usize];
                config.enable(PolicyKind::Simple);
                config
                    .simple
                    .as_mut()
                    .expect("enabling Simple creates its target lists")
                    .add_target(
                        SimpleAction::Reject,
                        state.instances[*target as usize].domain.clone(),
                    );
            }
            _ => {}
        }
    }
}

/// A post from `origin` with one media attachment, so reject, media and
/// NSFW targets all bite.
fn post_from(origin: &Domain, n: u64) -> Activity {
    let mut post = Post::stub(
        PostId(n),
        UserRef::new(UserId(n), origin.clone()),
        SimTime(0),
        "hello from the fediverse",
    );
    post.media.push(MediaAttachment {
        host: origin.clone(),
        kind: MediaKind::Image,
        sensitive: false,
    });
    Activity::create(ActivityId(n), post)
}

/// Both filter paths' outcomes, as comparable text.
fn verdicts(pipeline: &MrfPipeline, local: &Domain, activity: &Activity) -> (String, String) {
    let dir = NullActorDirectory;
    let ctx = PolicyContext::new(local, SimTime(0), &dir);
    let traced = format!("{:?}", pipeline.filter(&ctx, activity.clone()).verdict);
    let mut inbound = Inbound::owned(activity.clone());
    let result = pipeline.filter_inbound(&ctx, &mut inbound);
    let untraced = format!("{:?}", result.map(|()| inbound.into_owned()));
    (traced, untraced)
}

#[test]
fn live_pipelines_match_a_mirrored_reference_compile() {
    let seeds = ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small()));
    for name in ["delta-flood", "policy-flood"] {
        check_mirror(&seeds, name);
    }
}

/// A 60-tick flood of the registry scenario `name` with the mirror
/// attached, then every live pipeline against its mirror's compile.
fn check_mirror(seeds: &ScenarioSeeds, name: &str) {
    let config = DynamicsConfig {
        seed: seeds.seed,
        ticks: 60,
        emission_cap: 0,
        ..DynamicsConfig::default()
    };
    let mirror = Mirror::default();
    let mut engine = DynamicsEngine::new(config, seeds);
    engine.attach_sink(Box::new(MirrorSink(Rc::clone(&mirror))));
    let trace = engine.run((lookup(name).expect("registered").build)().as_mut());
    assert!(
        trace.ticks.iter().map(|t| t.events).sum::<u64>() > 0,
        "{name}"
    );

    let state = engine.state();
    let mirror = mirror.borrow();
    assert_eq!(mirror.len(), state.len());
    // Origins: a spread of instance domains plus a few domains the
    // mirror reject-lists somewhere.
    let mut origins: Vec<Domain> = state
        .instances
        .iter()
        .step_by(7)
        .map(|inst| inst.domain.clone())
        .collect();
    origins.extend(
        mirror
            .iter()
            .filter_map(|m| m.simple.as_ref())
            .flat_map(|s| s.targets(SimpleAction::Reject).iter().take(2).cloned())
            .take(8),
    );
    let activities: Vec<Activity> = origins
        .iter()
        .enumerate()
        .map(|(n, origin)| post_from(origin, n as u64 + 1))
        .collect();

    let mut blocked = 0;
    for (inst, reference) in state.instances.iter().zip(mirror.iter()) {
        let fresh = reference.build_pipeline();
        assert_eq!(
            inst.pipeline.kinds(),
            fresh.kinds(),
            "{name} {}",
            inst.domain
        );
        assert_eq!(
            inst.enabled(),
            &reference.enabled[..],
            "{name} {}",
            inst.domain
        );
        for action in SimpleAction::ALL {
            let live = inst.simple().map_or(&[][..], |s| s.targets(action));
            let want = reference
                .simple
                .as_ref()
                .map_or(&[][..], |s| s.targets(action));
            assert_eq!(live, want, "{name} {} {}", inst.domain, action.label());
        }
        for activity in &activities {
            let live = verdicts(&inst.pipeline, &inst.domain, activity);
            assert_eq!(
                live,
                verdicts(&fresh, &inst.domain, activity),
                "{name} {}",
                inst.domain
            );
            blocked += live.0.starts_with("Reject") as usize;
        }
    }
    assert!(blocked > 0, "{name} must leave rejecting pipelines");
}
