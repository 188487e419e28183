//! Quickstart: build a three-instance fediverse by hand, federate posts
//! over the simulated network, and watch MRF moderation act.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fediscope::prelude::*;
use fediscope_server::Federator;
use std::sync::Arc;

fn profile(id: u32, domain: &str) -> InstanceProfile {
    InstanceProfile {
        id: InstanceId(id),
        domain: Domain::new(domain),
        kind: InstanceKind::Pleroma(fediscope_core::model::SoftwareVersion::new(2, 2, 0)),
        title: format!("The {domain} community"),
        registrations_open: true,
        founded: fediscope_core::time::CAMPAIGN_START,
        exposes_policies: true,
        public_timeline_open: true,
    }
}

fn user(id: u64, instance: u32, domain: &str, handle: &str) -> User {
    User {
        id: UserId(id),
        instance: InstanceId(instance),
        domain: Domain::new(domain),
        handle: handle.into(),
        created: fediscope_core::time::CAMPAIGN_START,
        bot: false,
        followers: 0,
        following: 0,
        mrf_tags: Vec::new(),
        report_count: 0,
    }
}

fn main() {
    let net = Arc::new(SimNet::new());

    // wholesome.example moderates: it rejects troll.example outright and
    // strips media from lewd.example (the paper's §7 recommendation).
    let mut moderation = InstanceModerationConfig::pleroma_default();
    moderation.set_simple(
        SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("troll.example"))
            .with_target(SimpleAction::MediaRemoval, Domain::new("lewd.example")),
    );
    let wholesome = Arc::new(InstanceServer::new(
        profile(1, "wholesome.example"),
        moderation,
    ));
    let troll = Arc::new(InstanceServer::new(
        profile(2, "troll.example"),
        InstanceModerationConfig::pleroma_default(),
    ));
    let lewd = Arc::new(InstanceServer::new(
        profile(3, "lewd.example"),
        InstanceModerationConfig::pleroma_default(),
    ));

    let alice = user(1, 1, "wholesome.example", "alice");
    let tom = user(2, 2, "troll.example", "tom");
    let lena = user(3, 3, "lewd.example", "lena");
    wholesome.add_user(alice.clone());
    troll.add_user(tom.clone());
    lewd.add_user(lena.clone());

    for s in [&wholesome, &troll, &lewd] {
        let endpoint: Arc<dyn fediscope_simnet::Endpoint> = Arc::clone(s) as _;
        net.register(s.domain().clone(), endpoint);
    }

    // Alice follows both remote users; the follow edges live on the remote
    // instances' graphs (they fan deliveries out to followers).
    troll.follow(alice.user_ref(), tom.user_ref());
    lewd.follow(alice.user_ref(), lena.user_ref());

    // Tom posts hate; Lena posts art with an attachment.
    let troll_fed = Federator::new(Arc::clone(&net), Arc::clone(&troll));
    let lewd_fed = Federator::new(Arc::clone(&net), Arc::clone(&lewd));

    let hate = Post::stub(
        PostId(1),
        tom.user_ref(),
        fediscope_core::time::CAMPAIGN_START,
        "you grukk vrelk subhuman scum",
    );
    let (_, report) = troll_fed.publish_and_deliver(hate).unwrap();
    println!(
        "troll.example delivered to {} instance(s) — but was it ingested?",
        report.ok
    );

    let mut art = Post::stub(
        PostId(2),
        lena.user_ref(),
        fediscope_core::time::CAMPAIGN_START,
        "new painting, swipe for the spicy version",
    );
    art.media.push(fediscope_core::model::MediaAttachment {
        host: Domain::new("lewd.example"),
        kind: fediscope_core::model::MediaKind::Image,
        sensitive: false,
    });
    lewd_fed.publish_and_deliver(art).unwrap();

    // What did wholesome.example actually ingest?
    println!();
    println!("wholesome.example state after federation:");
    println!("  posts stored: {}", wholesome.post_count());
    wholesome.with_timelines(|t| {
        for post in t.page(
            fediscope::activitypub::TimelineKind::WholeKnownNetwork,
            None,
            None,
            10,
        ) {
            println!(
                "  - from {}: {:?} (media: {})",
                post.author.domain,
                post.content,
                post.media.len()
            );
        }
    });
    let stats = wholesome.stats();
    println!(
        "  accepted: {}, rejected by MRF: {}",
        stats.accepted.load(std::sync::atomic::Ordering::Relaxed),
        stats.rejected.load(std::sync::atomic::Ordering::Relaxed),
    );
    println!();
    println!("The troll's post was rejected at the door (SimplePolicy reject);");
    println!("Lena's post arrived, but its media was stripped — her words survive.");
    println!("That asymmetry is the whole story of the paper.");
}
