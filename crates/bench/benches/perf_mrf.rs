//! Performance: MRF pipeline filtering throughput.
//!
//! The MRF pipeline sits on the hot path of every federation delivery; an
//! instance receiving thousands of activities per minute filters each one
//! through its whole chain.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fediscope_core::catalog::PolicyKind;
use fediscope_core::config::InstanceModerationConfig;
use fediscope_core::id::{ActivityId, Domain, PostId, UserId, UserRef};
use fediscope_core::model::{Activity, Post};
use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
use fediscope_core::mrf::{Inbound, NullActorDirectory, PolicyContext};
use fediscope_core::time::SimTime;

fn sample_activity(i: u64) -> Activity {
    let author = UserRef::new(UserId(i), Domain::new("remote.example"));
    let mut post = Post::stub(
        PostId(i),
        author,
        SimTime(1_608_076_800),
        "coffee morning garden release server update music weather",
    );
    post.hashtags.push("caturday".into());
    Activity::create(ActivityId(i), post)
}

fn bench_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrf_filter");
    group.throughput(Throughput::Elements(1));

    // Default pipeline: ObjectAge + NoOp.
    let default_pipeline = InstanceModerationConfig::pleroma_default().build_pipeline();
    // Heavy pipeline: default + Tag + Simple (with 200 reject targets) +
    // Hellthread + Keyword + Hashtag.
    let mut heavy_cfg = InstanceModerationConfig::pleroma_default();
    for kind in [
        PolicyKind::Tag,
        PolicyKind::Hellthread,
        PolicyKind::Keyword,
        PolicyKind::Hashtag,
        PolicyKind::NormalizeMarkup,
        PolicyKind::AntiLinkSpam,
    ] {
        heavy_cfg.enable(kind);
    }
    let mut simple = SimplePolicy::new();
    for t in 0..200 {
        simple.add_target(
            SimpleAction::Reject,
            Domain::new(format!("blocked-{t}.example")),
        );
    }
    simple.add_target(SimpleAction::MediaNsfw, Domain::new("lewd.example"));
    heavy_cfg.set_simple(simple);
    let heavy_pipeline = heavy_cfg.build_pipeline();

    let local = Domain::new("home.example");
    let dir = NullActorDirectory;

    group.bench_function("default_pipeline_pass", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let ctx = PolicyContext::new(&local, SimTime(1_608_080_000), &dir);
            black_box(default_pipeline.filter(&ctx, sample_activity(i)))
        })
    });

    group.bench_function("heavy_pipeline_pass", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let ctx = PolicyContext::new(&local, SimTime(1_608_080_000), &dir);
            black_box(heavy_pipeline.filter(&ctx, sample_activity(i)))
        })
    });

    // The engine's verdict path: one template judged by borrow (no stage
    // rewrites it, so nothing is cloned).
    group.bench_function("heavy_pipeline_borrowed_pass", |b| {
        let template = sample_activity(1);
        b.iter(|| {
            let ctx = PolicyContext::new(&local, SimTime(1_608_080_000), &dir);
            let mut activity = Inbound::borrowed(&template, SimTime(1_608_076_800));
            black_box(heavy_pipeline.filter_inbound(&ctx, &mut activity).is_ok())
        })
    });

    group.bench_function("heavy_pipeline_reject", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let author = UserRef::new(UserId(i), Domain::new("blocked-77.example"));
            let act = Activity::create(
                ActivityId(i),
                Post::stub(PostId(i), author, SimTime(1_608_076_800), "x"),
            );
            let ctx = PolicyContext::new(&local, SimTime(1_608_080_000), &dir);
            black_box(heavy_pipeline.filter(&ctx, act))
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_pipelines
}
criterion_main!(benches);
