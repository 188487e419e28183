//! Materialisation and campaign driving.
//!
//! [`materialize`] turns a generated [`World`] into running
//! [`InstanceServer`]s registered on a [`SimNet`] (with the §3 failure
//! modes injected); [`crawl_world`] additionally runs the full §3
//! measurement campaign and returns the dataset.

use fediscope_core::id::Domain;
use fediscope_crawler::{Crawler, CrawlerConfig, Dataset};
use fediscope_server::InstanceServer;
use fediscope_simnet::SimNet;
use fediscope_synthgen::{GeneratedInstance, World};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A world materialised into servers on a network.
pub struct Materialized {
    /// The network (crawlers issue requests against it).
    pub net: Arc<SimNet>,
    /// Every healthy instance's server, by domain.
    pub servers: HashMap<Domain, Arc<InstanceServer>>,
}

impl Materialized {
    /// Looks up a server.
    pub fn server(&self, domain: &str) -> Option<&Arc<InstanceServer>> {
        self.servers.get(&Domain::new(domain))
    }
}

/// Spins up every instance of the world: builds servers, installs users,
/// posts and peer links, registers endpoints, injects failure modes.
///
/// Building a server — installing its users, sorted posts and peer links
/// — is pure per-instance work, so it fans out across the global rayon
/// pool. Sizing that pool is the caller's job (one process-wide
/// `ThreadPoolBuilder::build_global`, e.g. from
/// [`WorldConfig::parallelism`](fediscope_synthgen::WorldConfig)) —
/// doing it here would clobber or silently fight a pool another phase
/// already configured. Only the cheap endpoint registration stays sequential.
///
/// Registration only records each endpoint, and dropping the
/// [`Materialized`] frees every server at once.
pub fn materialize(world: &World) -> Materialized {
    materialize_inner(world, false)
}

/// Like [`materialize`], but builds and registers a server for *every*
/// instance — including the §3 casualties, which still get their seed
/// failure mode injected on top.
///
/// [`materialize`] leaves dead instances endpoint-less (nothing behind
/// the injection), which is all a static campaign needs. A dynamics
/// round-trip needs more: churn scenarios *recover* instances over
/// time, and a `LiveNetBridge` clearing the injection must uncover a
/// working endpoint, not an unknown host. Same server-building fan-out.
pub fn materialize_full(world: &World) -> Materialized {
    materialize_inner(world, true)
}

fn materialize_inner(world: &World, include_failed: bool) -> Materialized {
    let net = Arc::new(SimNet::new());
    let mut served: Vec<&GeneratedInstance> = Vec::with_capacity(world.instances.len());
    for inst in &world.instances {
        if inst.failure != fediscope_simnet::FailureMode::Healthy {
            // Dead instances answer with their failure status; the
            // endpoint behind the injection (if any) stays shielded
            // until something heals the domain.
            net.set_failure(inst.profile.domain.clone(), inst.failure);
            if include_failed {
                served.push(inst);
            }
        } else {
            served.push(inst);
        }
    }
    let built: Vec<(Domain, Arc<InstanceServer>)> = served
        .par_iter()
        .map(|inst| {
            let server = Arc::new(InstanceServer::new(
                inst.profile.clone(),
                inst.moderation.clone(),
            ));
            for gu in &inst.users {
                server.add_user(gu.user.clone());
            }
            for post in inst.posts_sorted() {
                server.install_post(post.clone());
            }
            for peer in inst.peers.iter() {
                server.note_peer(peer);
            }
            (inst.profile.domain.clone(), server)
        })
        .collect();
    let mut servers = HashMap::with_capacity(built.len());
    for (domain, server) in built {
        let endpoint: Arc<dyn fediscope_simnet::Endpoint> = Arc::clone(&server) as _;
        net.register(domain.clone(), endpoint);
        servers.insert(domain, server);
    }
    Materialized { net, servers }
}

/// Materialises the world and runs the full measurement campaign.
pub fn crawl_world(world: &World, config: CrawlerConfig) -> Dataset {
    let materialized = materialize(world);
    let crawler = Crawler::new(Arc::clone(&materialized.net), config);
    crawler.crawl(&world.directory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_synthgen::WorldConfig;

    #[test]
    fn materialize_small_world() {
        let world = fediscope_synthgen::World::generate(WorldConfig::test_small());
        let m = materialize(&world);
        // Healthy instances registered; failed ones only injected.
        let healthy = world.instances.iter().filter(|i| i.crawlable()).count();
        assert_eq!(m.servers.len(), healthy);
        assert_eq!(m.net.host_count(), healthy);
        // A named instance exists and holds its users and posts.
        let fse = m.server("freespeechextremist.com").unwrap();
        let gen = world.by_domain("freespeechextremist.com").unwrap();
        assert_eq!(fse.user_count(), gen.users.len());
        assert_eq!(fse.post_count(), gen.post_count());
    }

    #[test]
    fn materialize_full_serves_the_casualties_too() {
        let world = fediscope_synthgen::World::generate(WorldConfig::test_small());
        let m = materialize_full(&world);
        assert_eq!(m.servers.len(), world.instances.len());
        assert_eq!(m.net.host_count(), world.instances.len());
        // A §3 casualty still answers its failure status (injection
        // shields the endpoint) ...
        let dead = world
            .instances
            .iter()
            .find(|i| i.failure != fediscope_simnet::FailureMode::Healthy)
            .expect("the seed world has casualties");
        assert_eq!(m.net.failure_of(&dead.profile.domain), dead.failure);
        let resp = m.net.get(&dead.profile.domain, "/nodeinfo/2.0").unwrap();
        assert!(!resp.is_success());
        // ... until something heals it, which uncovers a live server.
        m.net.set_failure(
            dead.profile.domain.clone(),
            fediscope_simnet::FailureMode::Healthy,
        );
        let resp = m.net.get(&dead.profile.domain, "/nodeinfo/2.0").unwrap();
        assert!(resp.is_success(), "recovered casualty must serve");
    }

    #[test]
    fn servers_die_with_the_network() {
        // Nothing but the `Materialized` holds a server, so dropping it
        // frees every one of them straight away.
        let world = fediscope_synthgen::World::generate(WorldConfig::test_small());
        let m = materialize(&world);
        let servers: Vec<_> = m.servers.values().map(Arc::downgrade).collect();
        assert!(!servers.is_empty());
        drop(m);
        assert!(servers.iter().all(|s| s.strong_count() == 0));
    }

    #[test]
    fn crawl_small_world_produces_consistent_dataset() {
        let world = fediscope_synthgen::World::generate(WorldConfig::test_small());
        let dataset = crawl_world(&world, CrawlerConfig::default());
        // Every world instance is discovered (peers cover everything).
        assert_eq!(dataset.instances.len(), world.instances.len());
        // Crawled Pleroma count matches the healthy Pleroma count.
        let want = world.crawled_pleroma().count();
        assert_eq!(dataset.pleroma_crawled().count(), want);
        // Users totals agree with ground truth.
        assert_eq!(dataset.total_users(), world.total_users());
    }
}
