//! §7 proposal 1 end to end: measure the fediverse, curate "NoHate" /
//! "NoPorn" blocklists from the measurements, and verify that subscribing
//! to them moderates with less collateral damage than raw rejects.
//!
//! ```text
//! cargo run --release --example curated_lists
//! ```

use fediscope::harness;
use fediscope::prelude::*;
use fediscope_analysis::curation::{curate, CurationConfig};
use fediscope_core::id::ActivityId;
use fediscope_core::mrf::{Inbound, MrfPolicy, NullActorDirectory, PolicyContext};

fn main() {
    // 1. Measure.
    let world = World::generate(WorldConfig::test_medium());
    let dataset = harness::crawl_world(&world, CrawlerConfig::default());
    let annotations = HarmAnnotations::annotate(&dataset);

    // 2. Curate.
    let lists = curate(&dataset, &annotations, &CurationConfig::default());
    println!("curated from measurements:");
    println!(
        "  NoHate      ({} instances, action {:?})",
        lists.no_hate.entries.len(),
        lists.no_hate.action
    );
    println!(
        "  NoPorn      ({} instances, action {:?})",
        lists.no_porn.entries.len(),
        lists.no_porn.action
    );
    println!(
        "  NoProfanity ({} instances, action {:?})",
        lists.no_profanity.entries.len(),
        lists.no_profanity.action
    );
    let sample: Vec<&str> = lists
        .no_porn
        .entries
        .iter()
        .take(5)
        .map(|d| d.as_str())
        .collect();
    println!("  NoPorn sample: {sample:?}");

    // 3. Subscribe a fresh instance to the lists and watch them act.
    let porn_domain = lists
        .no_porn
        .entries
        .first()
        .cloned()
        .unwrap_or_else(|| Domain::new("lewd.example"));
    let policy = lists.into_policy();
    let local = Domain::new("home.example");
    let dir = NullActorDirectory;
    let ctx = PolicyContext::new(&local, fediscope_core::time::CAMPAIGN_START, &dir);

    let mut post = Post::stub(
        PostId(1),
        UserRef::new(UserId(1), porn_domain.clone()),
        fediscope_core::time::CAMPAIGN_START,
        "gallery drop",
    );
    post.media.push(fediscope_core::model::MediaAttachment {
        host: porn_domain.clone(),
        kind: fediscope_core::model::MediaKind::Image,
        sensitive: false,
    });
    let mut activity = Inbound::owned(Activity::create(ActivityId(1), post));
    match policy.filter(&ctx, &mut activity) {
        Ok(()) => {
            let p = activity.note().unwrap();
            println!();
            println!(
                "post from {porn_domain} passed with {} media attachment(s) left",
                p.media.len()
            );
            println!("→ the text got through; the harmful payload did not.");
        }
        Err(r) => println!("rejected: {r}"),
    }
}
