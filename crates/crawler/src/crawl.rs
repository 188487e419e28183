//! The crawl campaign.

use crate::dataset::{
    CollectedPost, CrawlOutcome, CrawledInstance, Dataset, InstanceMetadata, MetadataSnapshot,
    PageStatus, TimelineCrawl,
};
use fediscope_core::config::InstanceModerationConfig;
use fediscope_core::id::Domain;
use fediscope_core::time::{SimTime, CAMPAIGN_START, SNAPSHOT_INTERVAL};
use fediscope_simnet::{FailureClass, HttpResponse, NetError, SimNet, StatusCode};
use fediscope_telemetry::{ProbeClass, Telemetry};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Crawl parameters. The crawl runs on the rayon pool, so the pool
/// size is its worker count.
#[derive(Debug, Clone)]
pub struct CrawlerConfig {
    /// Timeline page size (the Mastodon API caps at 40).
    pub page_limit: usize,
    /// Safety cap on timeline pages per instance.
    pub max_pages_per_instance: usize,
    /// Number of periodic metadata snapshot rounds after discovery
    /// (the paper re-polled every 4 hours for ~5 months; benchmarks use a
    /// handful of rounds).
    pub snapshot_rounds: usize,
    /// Extra attempts granted to an outcome-deciding census probe that
    /// hits a *transient* §3 failure (502/503).
    /// Permanent answers (404/403/410, unknown hosts) are always taken
    /// at face value on the first probe. The default single retry
    /// shrinks the census under-count from gateway flaps without
    /// resurrecting genuinely dead instances.
    pub transient_retries: usize,
    /// Directory-thinned crawl mode (§3 methodology): cap on how many
    /// entries are taken from each instance's Peers API response during
    /// discovery. `None` (the default) keeps the full lists — at small
    /// scales every instance is named by many peers, so discovery is
    /// redundant and the census misses only genuinely dead hosts. A cap
    /// models the real crawl's thinned view (rate limits, partial
    /// directories): instances not in the seed directory whose every
    /// surviving mention falls beyond the cap are never discovered,
    /// which is exactly the §3 under-count bias the full-scale analysis
    /// calibrates. Truncation keeps the first `cap` entries of the
    /// server-sorted list, so a thinned campaign is as deterministic as
    /// a full one.
    pub peer_list_cap: Option<usize>,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            page_limit: 40,
            max_pages_per_instance: 100_000,
            snapshot_rounds: 3,
            transient_retries: 1,
            peer_list_cap: None,
        }
    }
}

/// The measurement crawler.
pub struct Crawler {
    net: Arc<SimNet>,
    config: CrawlerConfig,
}

impl Crawler {
    /// A crawler over the given network.
    pub fn new(net: Arc<SimNet>, config: CrawlerConfig) -> Self {
        Crawler { net, config }
    }

    /// Runs a full campaign: seed → BFS discovery → metadata + peers +
    /// timelines → periodic snapshots. Returns the dataset.
    ///
    /// Discovery crawls one BFS level at a time on the rayon pool; the
    /// peers no earlier level named form the next level. The dataset is
    /// sorted by domain and failure injection is keyed per domain, so
    /// the output does not depend on the worker count.
    pub fn crawl(&self, directory: &[Domain]) -> Dataset {
        let started = CAMPAIGN_START;
        let from_directory: HashSet<&Domain> = directory.iter().collect();
        let mut seen: HashSet<Domain> = HashSet::new();
        let mut frontier: Vec<Domain> = Vec::new();
        for d in directory {
            if seen.insert(d.clone()) {
                frontier.push(d.clone());
            }
        }

        let mut instances: Vec<CrawledInstance> = Vec::new();
        while !frontier.is_empty() {
            let level: Vec<CrawledInstance> = frontier
                .par_iter()
                .map(|d| crawl_one(&self.net, &self.config, d, from_directory.contains(d)))
                .collect();
            frontier = Vec::new();
            for peer in level.iter().flat_map(|inst| &inst.peers) {
                if seen.insert(peer.clone()) {
                    frontier.push(peer.clone());
                }
            }
            instances.extend(level);
        }

        // Periodic snapshot rounds (4-hour cadence in simulated time).
        let mut now = started;
        for _ in 0..self.config.snapshot_rounds {
            now += SNAPSHOT_INTERVAL;
            self.snapshot_round(&mut instances, now);
        }

        instances.sort_by(|a, b| a.domain.cmp(&b.domain));
        Dataset {
            started,
            finished: now,
            instances,
        }
    }

    /// [`Crawler::crawl`] behind an `async fn`, for the benchmark, which
    /// drives it with `block_on`. It never suspends. Delete it once the
    /// benchmark calls [`Crawler::crawl`].
    pub async fn run(&self, directory: &[Domain]) -> Dataset {
        self.crawl(directory)
    }

    /// Re-polls every crawled Pleroma instance's metadata on the rayon
    /// pool, like discovery, and appends each answer to its instance's
    /// snapshots.
    fn snapshot_round(&self, instances: &mut [CrawledInstance], at: SimTime) {
        let polled: Vec<&mut CrawledInstance> = instances
            .iter_mut()
            .filter(|inst| inst.crawled() && inst.is_pleroma())
            .collect();
        let answers: Vec<Option<MetadataSnapshot>> = polled
            .par_iter()
            .map(|inst| snapshot(&self.net, &inst.domain, at))
            .collect();
        for (inst, answer) in polled.into_iter().zip(answers) {
            inst.snapshots.extend(answer);
        }
    }
}

/// One instance's metadata snapshot at `at`; `None` when the instance
/// does not answer with a parseable metadata document.
fn snapshot(net: &SimNet, domain: &Domain, at: SimTime) -> Option<MetadataSnapshot> {
    let resp = net.get(domain, "/api/v1/instance").ok()?;
    if !resp.is_success() {
        return None;
    }
    let body = resp.json_body().ok()?;
    Some(MetadataSnapshot {
        at,
        user_count: body["stats"]["user_count"].as_u64().unwrap_or(0),
        status_count: body["stats"]["status_count"].as_u64().unwrap_or(0),
    })
}

/// One outcome-deciding census probe with a bounded transient-retry
/// budget: a response in the transient §3 class (5xx) is re-probed up
/// to [`CrawlerConfig::transient_retries`] extra times; anything
/// permanent, and an unknown host, returns immediately.
///
/// Every attempt is observed through the telemetry registry: a
/// per-§3-class probe counter plus a [simulated-latency](probe_latency)
/// histogram, so a census under-count can be correlated with probe
/// slowness by status class.
fn probe(
    net: &SimNet,
    config: &CrawlerConfig,
    domain: &Domain,
    path: &str,
) -> Result<HttpResponse, NetError> {
    let mut attempt = 0;
    loop {
        let outcome = net.get(domain, path);
        let class = probe_class(&outcome);
        Telemetry::global().record_probe(class, probe_latency(domain, class, attempt));
        if class != ProbeClass::Transient || attempt >= config.transient_retries {
            return outcome;
        }
        attempt += 1;
    }
}

/// Classifies one probe outcome into its §3 status class.
fn probe_class(outcome: &Result<HttpResponse, NetError>) -> ProbeClass {
    match outcome {
        Ok(resp) => match FailureClass::of_status(resp.status) {
            None => ProbeClass::Success,
            Some(FailureClass::Transient) => ProbeClass::Transient,
            Some(FailureClass::Permanent) => ProbeClass::Permanent,
        },
        // An unknown host never produced an HTTP conversation at all.
        Err(NetError::UnknownHost(_)) => ProbeClass::NetError,
    }
}

/// Simulated probe latency in nanoseconds. `SimNet` resolves requests
/// instantly (it has no latency model), so the histograms carry a
/// deterministic pseudo-latency instead: a per-class base — fast
/// permanent rejections, slow gateway flaps, slower-still dead-host
/// timeouts — plus an FNV-1a jitter keyed on `(domain, class, attempt)`.
/// Pure function of its inputs: identical campaigns produce identical
/// histograms regardless of the worker count or crawl order.
fn probe_latency(domain: &Domain, class: ProbeClass, attempt: usize) -> u64 {
    const MILLI: u64 = 1_000_000;
    let (base, spread) = match class {
        ProbeClass::Success => (80 * MILLI, 40 * MILLI),
        ProbeClass::Permanent => (60 * MILLI, 30 * MILLI),
        ProbeClass::Transient => (1_200 * MILLI, 800 * MILLI),
        ProbeClass::NetError => (5_000 * MILLI, 5_000 * MILLI),
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in domain.as_str().as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h = (h ^ class as u64).wrapping_mul(0x1000_0000_01b3);
    h = (h ^ attempt as u64).wrapping_mul(0x1000_0000_01b3);
    base + h % spread
}

/// Crawls one domain end to end.
fn crawl_one(
    net: &SimNet,
    config: &CrawlerConfig,
    domain: &Domain,
    from_directory: bool,
) -> CrawledInstance {
    let mut out = CrawledInstance {
        domain: domain.clone(),
        outcome: CrawlOutcome::Unreachable,
        software: None,
        from_directory,
        metadata: None,
        peers: Vec::new(),
        timeline: TimelineCrawl::NotAttempted,
        snapshots: Vec::new(),
    };

    // 1. Classify via nodeinfo.
    match probe(net, config, domain, "/nodeinfo/2.0") {
        Err(_) => {
            out.outcome = CrawlOutcome::Unreachable;
            return out;
        }
        Ok(resp) if !resp.is_success() => {
            out.outcome = CrawlOutcome::Failed {
                status: resp.status.0,
            };
            return out;
        }
        Ok(resp) => {
            if let Ok(body) = resp.json_body() {
                out.software = body["software"]["name"].as_str().map(str::to_string);
            }
        }
    }
    if out.software.as_deref() != Some("pleroma") {
        out.outcome = CrawlOutcome::NonPleroma;
        return out;
    }

    // 2. Instance metadata (incl. exposed policies).
    match probe(net, config, domain, "/api/v1/instance") {
        Ok(resp) if resp.is_success() => {
            if let Ok(body) = resp.json_body() {
                out.metadata = Some(parse_metadata(&body));
            }
        }
        Ok(resp) => {
            out.outcome = CrawlOutcome::Failed {
                status: resp.status.0,
            };
            return out;
        }
        Err(_) => {
            out.outcome = CrawlOutcome::Unreachable;
            return out;
        }
    }

    // 3. Peers.
    if let Ok(resp) = net.get(domain, "/api/v1/instance/peers") {
        if resp.is_success() {
            if let Ok(body) = resp.json_body() {
                if let Some(list) = body.as_array() {
                    let cap = config.peer_list_cap.unwrap_or(usize::MAX);
                    out.peers = list
                        .iter()
                        .filter_map(|v| v.as_str())
                        .take(cap)
                        .map(Domain::new)
                        .collect();
                }
            }
        }
    }

    // 4. Timeline pagination.
    out.timeline = crawl_timeline(net, config, domain);
    out.outcome = CrawlOutcome::Crawled;
    out
}

fn crawl_timeline(net: &SimNet, config: &CrawlerConfig, domain: &Domain) -> TimelineCrawl {
    let mut posts: Vec<CollectedPost> = Vec::new();
    let mut max_id: Option<u64> = None;
    for _ in 0..config.max_pages_per_instance {
        let path = match max_id {
            Some(id) => format!(
                "/api/v1/timelines/public?local=true&limit={}&max_id={id}",
                config.page_limit
            ),
            None => format!(
                "/api/v1/timelines/public?local=true&limit={}",
                config.page_limit
            ),
        };
        let resp: HttpResponse = match net.get(domain, &path) {
            Ok(r) => r,
            Err(_) => break,
        };
        if resp.status == StatusCode::FORBIDDEN {
            return TimelineCrawl::Forbidden;
        }
        if !resp.is_success() {
            break;
        }
        let Ok(page) = serde_json::from_slice::<Vec<Option<PageStatus>>>(&resp.body) else {
            break;
        };
        if page.is_empty() {
            break;
        }
        let before = posts.len();
        posts.extend(
            page.into_iter()
                .flatten()
                .filter_map(CollectedPost::from_status),
        );
        if posts.len() == before {
            break; // page full of unparseable statuses: bail out
        }
        max_id = posts.last().map(|p| p.id);
    }
    if posts.is_empty() {
        TimelineCrawl::Empty
    } else {
        TimelineCrawl::Posts(posts)
    }
}

fn parse_metadata(body: &serde_json::Value) -> InstanceMetadata {
    let policies = body
        .get("pleroma")
        .and_then(|p| p.get("metadata"))
        .and_then(|m| m.get("federation"))
        .map(InstanceModerationConfig::from_metadata_json);
    InstanceMetadata {
        user_count: body["stats"]["user_count"].as_u64().unwrap_or(0),
        status_count: body["stats"]["status_count"].as_u64().unwrap_or(0),
        domain_count: body["stats"]["domain_count"].as_u64().unwrap_or(0),
        version: body["version"].as_str().unwrap_or("").to_string(),
        registrations_open: body["registrations"].as_bool().unwrap_or(false),
        policies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::catalog::PolicyKind;
    use fediscope_core::id::{InstanceId, PostId, UserId, UserRef};
    use fediscope_core::model::{InstanceKind, InstanceProfile, Post, SoftwareVersion, User};
    use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
    use fediscope_server::InstanceServer;
    use fediscope_simnet::{Endpoint, FailureMode};

    fn make_server(domain: &str, id: u32, posts: u64) -> Arc<InstanceServer> {
        let profile = InstanceProfile {
            id: InstanceId(id),
            domain: Domain::new(domain),
            kind: InstanceKind::Pleroma(SoftwareVersion::new(2, 2, 0)),
            title: domain.into(),
            registrations_open: true,
            founded: SimTime(0),
            exposes_policies: true,
            public_timeline_open: true,
        };
        let mut config = InstanceModerationConfig::pleroma_default();
        config.set_simple(
            SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("gab.com")),
        );
        let server = Arc::new(InstanceServer::new(profile, config));
        let author = User {
            id: UserId(id as u64 * 100),
            instance: InstanceId(id),
            domain: Domain::new(domain),
            handle: "author".into(),
            created: SimTime(0),
            bot: false,
            followers: 1,
            following: 1,
            mrf_tags: Vec::new(),
            report_count: 0,
        };
        server.add_user(author.clone());
        for i in 0..posts {
            server
                .publish(Post::stub(
                    PostId(i + 1),
                    UserRef::new(author.id, Domain::new(domain)),
                    CAMPAIGN_START,
                    format!("post {i}"),
                ))
                .unwrap();
        }
        server
    }

    fn mastodon_server(domain: &str, id: u32) -> Arc<InstanceServer> {
        let profile = InstanceProfile {
            id: InstanceId(id),
            domain: Domain::new(domain),
            kind: InstanceKind::Mastodon,
            title: domain.into(),
            registrations_open: true,
            founded: SimTime(0),
            exposes_policies: false,
            public_timeline_open: true,
        };
        Arc::new(InstanceServer::new(
            profile,
            InstanceModerationConfig::default(),
        ))
    }

    fn register(net: &SimNet, server: Arc<InstanceServer>) {
        net.register(server.domain().clone(), server);
    }

    #[test]
    fn full_campaign_small_network() {
        let net = Arc::new(SimNet::new());
        // Two healthy Pleroma instances that peer with each other and with
        // a Mastodon instance; one dead instance.
        let a = make_server("a.example", 1, 90);
        let b = make_server("b.example", 2, 5);
        a.note_peer(&Domain::new("b.example"));
        a.note_peer(&Domain::new("masto.example"));
        a.note_peer(&Domain::new("dead.example"));
        b.note_peer(&Domain::new("a.example"));
        register(&net, Arc::clone(&a));
        register(&net, Arc::clone(&b));
        register(&net, mastodon_server("masto.example", 3));
        net.set_failure(Domain::new("dead.example"), FailureMode::NotFound);

        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&[Domain::new("a.example")]);

        // Discovery: a (seed), b + masto + dead via peers.
        assert_eq!(dataset.instances.len(), 4);
        let a_data = dataset.by_domain("a.example").unwrap();
        assert!(a_data.crawled());
        assert_eq!(a_data.timeline.posts().len(), 90, "paginated fully");
        // Pagination is newest-first; posts are ordered descending by id.
        let ids: Vec<u64> = a_data.timeline.posts().iter().map(|p| p.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        assert_eq!(ids, sorted);
        // Policy exposure.
        let policies = a_data.policies().unwrap();
        assert!(policies.has(PolicyKind::Simple));
        assert_eq!(
            policies
                .simple
                .as_ref()
                .unwrap()
                .targets(SimpleAction::Reject)[0]
                .as_str(),
            "gab.com"
        );
        // Mastodon classified, not crawled for data.
        let masto = dataset.by_domain("masto.example").unwrap();
        assert_eq!(masto.outcome, CrawlOutcome::NonPleroma);
        assert_eq!(masto.software.as_deref(), Some("mastodon"));
        // Dead instance recorded with its status.
        let dead = dataset.by_domain("dead.example").unwrap();
        assert_eq!(dead.outcome, CrawlOutcome::Failed { status: 404 });
        // Snapshots were taken for healthy Pleroma instances.
        assert_eq!(a_data.snapshots.len(), 3);
        assert!(a_data.snapshots[0].at > dataset.started);
        // Aggregates.
        assert_eq!(dataset.total_posts(), 95);
        assert_eq!(dataset.collected_posts(), 95);
        assert_eq!(dataset.reject_counts().len(), 1);
    }

    #[test]
    fn forbidden_timeline_is_recorded() {
        let net = Arc::new(SimNet::new());
        let mut profile = InstanceProfile {
            id: InstanceId(1),
            domain: Domain::new("closed.example"),
            kind: InstanceKind::Pleroma(SoftwareVersion::new(2, 2, 0)),
            title: "closed".into(),
            registrations_open: true,
            founded: SimTime(0),
            exposes_policies: true,
            public_timeline_open: false,
        };
        profile.public_timeline_open = false;
        let server = Arc::new(InstanceServer::new(
            profile,
            InstanceModerationConfig::pleroma_default(),
        ));
        register(&net, server);
        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&[Domain::new("closed.example")]);
        let inst = dataset.by_domain("closed.example").unwrap();
        assert!(inst.crawled(), "metadata still collected");
        assert!(matches!(inst.timeline, TimelineCrawl::Forbidden));
    }

    #[test]
    fn unknown_hosts_are_unreachable() {
        let net = Arc::new(SimNet::new());
        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&[Domain::new("ghost.example")]);
        assert_eq!(
            dataset.by_domain("ghost.example").unwrap().outcome,
            CrawlOutcome::Unreachable
        );
    }

    #[test]
    fn discovery_depth_beyond_one_hop() {
        // a → b → c: c is only in b's peers; BFS must reach it.
        let net = Arc::new(SimNet::new());
        let a = make_server("a.example", 1, 1);
        let b = make_server("b.example", 2, 1);
        let c = make_server("c.example", 3, 1);
        a.note_peer(&Domain::new("b.example"));
        b.note_peer(&Domain::new("c.example"));
        register(&net, a);
        register(&net, b);
        register(&net, c);
        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&[Domain::new("a.example")]);
        assert!(dataset.by_domain("c.example").unwrap().crawled());
    }

    #[test]
    fn fully_down_network_census_is_empty_but_wellformed() {
        // Every §3 failure mode, no endpoint behind any of them: the
        // census dataset is empty of content but structurally sound.
        let net = Arc::new(SimNet::new());
        let modes = [
            FailureMode::NotFound,
            FailureMode::Forbidden,
            FailureMode::BadGateway,
            FailureMode::Unavailable,
            FailureMode::Gone,
        ];
        let directory: Vec<Domain> = modes
            .iter()
            .enumerate()
            .map(|(k, mode)| {
                let d = Domain::new(format!("dead{k}.example"));
                net.set_failure(d.clone(), *mode);
                d
            })
            .collect();
        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&directory);
        // One record per directory entry, each with its exact status.
        assert_eq!(dataset.instances.len(), directory.len());
        for (k, d) in directory.iter().enumerate() {
            let inst = dataset.by_domain(d.as_str()).unwrap();
            let want = modes[k].forced_status().unwrap().0;
            assert_eq!(inst.outcome, CrawlOutcome::Failed { status: want });
            assert!(inst.snapshots.is_empty());
            assert!(inst.metadata.is_none());
            assert!(inst.peers.is_empty());
            assert!(matches!(inst.timeline, TimelineCrawl::NotAttempted));
        }
        // Aggregates degrade to empty, not to panics.
        assert_eq!(dataset.pleroma_crawled().count(), 0);
        assert_eq!(dataset.total_users(), 0);
        assert_eq!(dataset.total_posts(), 0);
        assert_eq!(dataset.collected_posts(), 0);
        assert!(dataset.reject_counts().is_empty());
        // The net saw one probe per permanently dead instance and two
        // (the probe + its single transient retry) per 502/503.
        let taxonomy = net.stats().failure_taxonomy();
        assert_eq!(taxonomy.as_array(), [1, 1, 2, 2, 1]);
        assert_eq!(taxonomy.permanent(), 3);
        assert_eq!(taxonomy.transient(), 4);
    }

    #[test]
    fn transient_retry_shrinks_the_undercount_but_dead_stays_dead() {
        // A gateway flap: the first nodeinfo probe answers 502, every
        // later request is served normally. Without the retry budget the
        // census writes the instance off as Failed{502}; with the
        // default single retry it lands in the dataset — while a
        // genuinely Gone instance is still taken at face value on its
        // first (and only) probe.
        let net = Arc::new(SimNet::new());
        let flappy = make_server("flappy.example", 1, 4);
        let flapped = std::sync::atomic::AtomicBool::new(false);
        net.register_fn(Domain::new("flappy.example"), move |req| {
            if !flapped.swap(true, std::sync::atomic::Ordering::SeqCst) {
                return HttpResponse::status(StatusCode::BAD_GATEWAY);
            }
            flappy.handle(req)
        });
        let gone = Domain::new("gone.example");
        net.set_failure(gone.clone(), FailureMode::Gone);

        let without_retry = {
            let config = CrawlerConfig {
                transient_retries: 0,
                ..CrawlerConfig::default()
            };
            // A separate flap on a fresh net so both runs see attempt 1
            // fail. Reuse of `net` below gets the already-flapped server.
            let net = Arc::new(SimNet::new());
            let flappy = make_server("flappy.example", 1, 4);
            let flapped = std::sync::atomic::AtomicBool::new(false);
            net.register_fn(Domain::new("flappy.example"), move |req| {
                if !flapped.swap(true, std::sync::atomic::Ordering::SeqCst) {
                    return HttpResponse::status(StatusCode::BAD_GATEWAY);
                }
                flappy.handle(req)
            });
            let crawler = Crawler::new(Arc::clone(&net), config);
            crawler.crawl(&[Domain::new("flappy.example")])
        };
        assert_eq!(
            without_retry.by_domain("flappy.example").unwrap().outcome,
            CrawlOutcome::Failed { status: 502 },
            "no retry budget ⇒ the flap under-counts the live fleet"
        );

        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&[Domain::new("flappy.example"), gone.clone()]);
        let inst = dataset.by_domain("flappy.example").unwrap();
        assert!(inst.crawled(), "the retry absorbs the flap");
        assert_eq!(inst.timeline.posts().len(), 4);
        // The permanent death was not retried: exactly one 410 probe.
        assert_eq!(
            dataset.by_domain("gone.example").unwrap().outcome,
            CrawlOutcome::Failed { status: 410 }
        );
        assert_eq!(net.stats().failure_taxonomy()[FailureMode::Gone], 1);
    }

    /// The mid-crawl transition contract, pinned: an instance's census
    /// outcome is decided by its failure mode *at the moment of its own
    /// first probe*. A `Recover` that lands before that probe includes
    /// the instance; one that lands after its outcome was recorded is
    /// invisible until a re-census. (The two tests below set up the
    /// transition deterministically: the flapping instance is only
    /// discoverable through a gateway instance whose first request
    /// triggers the flip, so the flip always precedes the probe.)
    #[test]
    fn mid_crawl_recover_before_first_probe_is_included() {
        let net = Arc::new(SimNet::new());
        let gateway = make_server("gateway.example", 1, 1);
        gateway.note_peer(&Domain::new("lazarus.example"));
        let lazarus = make_server("lazarus.example", 2, 3);
        net.register(lazarus.domain().clone(), lazarus);
        net.set_failure(Domain::new("lazarus.example"), FailureMode::BadGateway);
        // The gateway's first served request heals lazarus — strictly
        // before lazarus can be discovered (discovery needs the
        // gateway's peers, i.e. a later request).
        let healed = std::sync::atomic::AtomicBool::new(false);
        let net2 = Arc::clone(&net);
        net.register_fn(Domain::new("gateway.example"), move |req| {
            if !healed.swap(true, std::sync::atomic::Ordering::SeqCst) {
                net2.set_failure(Domain::new("lazarus.example"), FailureMode::Healthy);
            }
            gateway.handle(req)
        });
        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&[Domain::new("gateway.example")]);
        let inst = dataset.by_domain("lazarus.example").unwrap();
        assert!(inst.crawled(), "recovered before first probe ⇒ included");
        assert_eq!(inst.timeline.posts().len(), 3);
    }

    #[test]
    fn mid_crawl_death_before_first_probe_is_excluded() {
        let net = Arc::new(SimNet::new());
        let gateway = make_server("gateway.example", 1, 1);
        gateway.note_peer(&Domain::new("victim.example"));
        let victim = make_server("victim.example", 2, 3);
        net.register(victim.domain().clone(), victim);
        // Healthy at campaign start; the gateway's first served request
        // kills it — before it can be discovered.
        let killed = std::sync::atomic::AtomicBool::new(false);
        let net2 = Arc::clone(&net);
        net.register_fn(Domain::new("gateway.example"), move |req| {
            if !killed.swap(true, std::sync::atomic::Ordering::SeqCst) {
                net2.set_failure(Domain::new("victim.example"), FailureMode::NotFound);
            }
            gateway.handle(req)
        });
        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&[Domain::new("gateway.example")]);
        let inst = dataset.by_domain("victim.example").unwrap();
        assert_eq!(
            inst.outcome,
            CrawlOutcome::Failed { status: 404 },
            "died before first probe ⇒ excluded, with the §3 status"
        );
        assert!(inst.timeline.posts().is_empty());
    }

    #[test]
    fn recovery_after_the_campaign_needs_a_recensus() {
        // Within one campaign a recorded outcome is never revisited:
        // snapshot rounds only repoll successfully crawled instances.
        // Recovery becomes visible exactly at the next census — the
        // round-trip driver's cadence is built on this contract.
        let net = Arc::new(SimNet::new());
        let a = make_server("a.example", 1, 2);
        register(&net, a);
        net.set_failure(Domain::new("a.example"), FailureMode::Unavailable);
        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let first = crawler.crawl(&[Domain::new("a.example")]);
        let inst = first.by_domain("a.example").unwrap();
        assert_eq!(inst.outcome, CrawlOutcome::Failed { status: 503 });
        assert!(
            inst.snapshots.is_empty(),
            "failed instances are not repolled"
        );
        net.set_failure(Domain::new("a.example"), FailureMode::Healthy);
        let second = crawler.crawl(&[Domain::new("a.example")]);
        let inst = second.by_domain("a.example").unwrap();
        assert!(inst.crawled(), "the re-census observes the recovery");
        assert_eq!(inst.timeline.posts().len(), 2);
    }

    #[test]
    fn probe_latency_is_deterministic_and_class_banded() {
        let d = Domain::new("a.example");
        for class in ProbeClass::ALL {
            let (a, b) = (probe_latency(&d, class, 0), probe_latency(&d, class, 0));
            assert_eq!(a, b, "pure function of (domain, class, attempt)");
            assert_ne!(
                probe_latency(&d, class, 0),
                probe_latency(&d, class, 1),
                "attempts jitter independently"
            );
        }
        // Class bands are ordered: permanent rejections come back fast,
        // transient flaps are slow, dead hosts are timeout-slow.
        let fast = probe_latency(&d, ProbeClass::Permanent, 0);
        let flap = probe_latency(&d, ProbeClass::Transient, 0);
        let dead = probe_latency(&d, ProbeClass::NetError, 0);
        assert!(fast < flap && flap < dead);
    }

    #[test]
    fn peer_list_cap_thins_discovery_deterministically() {
        // Directory-thinned mode: `hub` peers with b, c, d (served
        // sorted); a cap of 2 keeps {b, c} and drops d, so d — absent
        // from the seed directory — is never discovered. That is the §3
        // under-count mechanism in miniature: a live instance missing
        // from the census purely because discovery was thinned.
        let build = || {
            let net = Arc::new(SimNet::new());
            let hub = make_server("hub.example", 1, 1);
            for peer in ["b.example", "c.example", "d.example"] {
                hub.note_peer(&Domain::new(peer));
            }
            register(&net, hub);
            register(&net, make_server("b.example", 2, 1));
            register(&net, make_server("c.example", 3, 1));
            register(&net, make_server("d.example", 4, 1));
            net
        };

        let thinned_config = CrawlerConfig {
            peer_list_cap: Some(2),
            ..CrawlerConfig::default()
        };
        let thinned =
            Crawler::new(build(), thinned_config.clone()).crawl(&[Domain::new("hub.example")]);
        assert_eq!(thinned.instances.len(), 3, "d.example was never found");
        assert!(thinned.by_domain("d.example").is_none());
        assert!(thinned.by_domain("c.example").unwrap().crawled());

        // The full crawl finds everyone — the gap IS the thinning.
        let full =
            Crawler::new(build(), CrawlerConfig::default()).crawl(&[Domain::new("hub.example")]);
        assert_eq!(full.instances.len(), 4);
        assert!(full.by_domain("d.example").unwrap().crawled());

        // Determinism: a re-run of the thinned campaign sees the same
        // census, same truncated peer lists.
        let again = Crawler::new(build(), thinned_config).crawl(&[Domain::new("hub.example")]);
        assert_eq!(again.instances.len(), thinned.instances.len());
        assert_eq!(
            again.by_domain("hub.example").unwrap().peers,
            thinned.by_domain("hub.example").unwrap().peers
        );
    }

    #[test]
    fn empty_timeline_is_empty_not_posts() {
        let net = Arc::new(SimNet::new());
        let a = make_server("quiet.example", 1, 0);
        register(&net, a);
        let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
        let dataset = crawler.crawl(&[Domain::new("quiet.example")]);
        assert!(matches!(
            dataset.by_domain("quiet.example").unwrap().timeline,
            TimelineCrawl::Empty
        ));
    }
}
