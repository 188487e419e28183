//! Failure injection: the crawler must survive a fediverse that decays
//! mid-campaign, exactly like the real one did (§3's 236 dead instances
//! were *discovered* dead; others died during the five months).

use fediscope::harness;
use fediscope::prelude::*;
use fediscope_core::id::InstanceId;
use fediscope_core::model::SoftwareVersion;
use std::sync::{Arc, Mutex};

/// Serialises the tests that size the global rayon pool.
static POOL: Mutex<()> = Mutex::new(());

fn pleroma_server(domain: &str, id: u32, posts: u64) -> Arc<InstanceServer> {
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
    let server = Arc::new(InstanceServer::new(
        profile,
        InstanceModerationConfig::pleroma_default(),
    ));
    let author = User {
        id: UserId(id as u64 * 1000),
        instance: InstanceId(id),
        domain: Domain::new(domain),
        handle: "author".into(),
        created: SimTime(0),
        bot: false,
        followers: 0,
        following: 0,
        mrf_tags: Vec::new(),
        report_count: 0,
    };
    server.add_user(author.clone());
    for i in 0..posts {
        server
            .publish(Post::stub(
                PostId(i + 1),
                author.user_ref(),
                fediscope::core::time::CAMPAIGN_START,
                format!("post {i}"),
            ))
            .unwrap();
    }
    server
}

fn register(net: &SimNet, server: &Arc<InstanceServer>) {
    let endpoint: Arc<dyn fediscope::simnet::Endpoint> = Arc::clone(server) as _;
    net.register(server.domain().clone(), endpoint);
}

#[test]
fn instance_dying_between_discovery_and_snapshots() {
    let net = Arc::new(SimNet::new());
    let a = pleroma_server("stable.example", 1, 10);
    let b = pleroma_server("doomed.example", 2, 10);
    a.note_peer(&Domain::new("doomed.example"));
    register(&net, &a);
    register(&net, &b);

    // Crawl once while both are alive.
    let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
    let alive = crawler.crawl(&[Domain::new("stable.example")]);
    assert!(alive.by_domain("doomed.example").unwrap().crawled());
    assert_eq!(
        alive.by_domain("doomed.example").unwrap().snapshots.len(),
        3
    );

    // The instance dies; a re-run still completes and records the failure.
    net.set_failure(Domain::new("doomed.example"), FailureMode::Gone);
    let decayed = crawler.crawl(&[Domain::new("stable.example")]);
    let doomed = decayed.by_domain("doomed.example").unwrap();
    assert_eq!(
        doomed.outcome,
        fediscope::crawler::CrawlOutcome::Failed { status: 410 }
    );
    assert!(doomed.snapshots.is_empty(), "no snapshots from the dead");
    // The rest of the campaign is unaffected.
    assert!(decayed.by_domain("stable.example").unwrap().crawled());
}

#[test]
fn every_failure_mode_is_classified_correctly() {
    let net = Arc::new(SimNet::new());
    let seed = pleroma_server("seed.example", 1, 1);
    let mut directory = vec![Domain::new("seed.example")];
    for (i, (mode, _)) in FailureMode::PAPER_TAXONOMY.iter().enumerate() {
        let domain = Domain::new(format!("fail{i}.example"));
        net.set_failure(domain.clone(), *mode);
        directory.push(domain);
    }
    register(&net, &seed);
    let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
    let dataset = crawler.crawl(&directory);
    for (i, (mode, _)) in FailureMode::PAPER_TAXONOMY.iter().enumerate() {
        let inst = dataset.by_domain(&format!("fail{i}.example")).unwrap();
        let want = mode.forced_status().unwrap().0;
        assert_eq!(
            inst.outcome,
            fediscope::crawler::CrawlOutcome::Failed { status: want }
        );
        assert!(inst.is_pleroma(), "directory membership implies Pleroma");
    }
}

#[test]
fn dead_peers_do_not_poison_discovery() {
    let net = Arc::new(SimNet::new());
    let hub = pleroma_server("hub.example", 1, 5);
    // The hub lists a pile of dead or missing peers plus one live one.
    for i in 0..20 {
        hub.note_peer(&Domain::new(format!("ghost{i}.example")));
    }
    let live = pleroma_server("live.example", 2, 5);
    hub.note_peer(&Domain::new("live.example"));
    register(&net, &hub);
    register(&net, &live);
    let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
    let dataset = crawler.crawl(&[Domain::new("hub.example")]);
    // All ghosts recorded as unreachable, the live peer fully crawled.
    assert_eq!(dataset.instances.len(), 22);
    assert!(dataset.by_domain("live.example").unwrap().crawled());
    let unreachable = dataset
        .instances
        .iter()
        .filter(|i| i.outcome == fediscope::crawler::CrawlOutcome::Unreachable)
        .count();
    assert_eq!(unreachable, 20);
}

/// The crawl runs each BFS level on the rayon pool. With the world's
/// seed failures injected, the dataset bytes and the network's request
/// counters must not depend on the worker count.
#[test]
fn crawl_is_identical_at_1_2_8_workers() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let world = World::generate(WorldConfig::test_small());
    let crawl_at = |threads: usize| {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
        let m = harness::materialize(&world);
        let dataset =
            Crawler::new(Arc::clone(&m.net), CrawlerConfig::default()).crawl(&world.directory);
        let json = dataset.to_json().expect("a crawled dataset serialises");
        (
            json,
            m.net.stats().snapshot(),
            m.net.stats().status_counts(),
        )
    };
    let reference = crawl_at(1);
    let (_, injected, _) = reference.1;
    assert!(injected > 0, "the world's seed failures answered probes");
    for threads in [2, 8] {
        let run = crawl_at(threads);
        assert!(
            run.0 == reference.0,
            "dataset diverged at {threads} workers"
        );
        assert_eq!(run.1, reference.1, "request counters at {threads} workers");
        assert_eq!(run.2, reference.2, "status counters at {threads} workers");
    }
}

mod delivery_reliability {
    //! Failure injection at the dynamics layer: the §3 taxonomy split
    //! drives the retry queue — transient outages are survivable within
    //! the backoff window, permanent deaths short-circuit to the
    //! dead-letter queue. Both cases are swept at 1/2/8 worker threads
    //! and must stay bit-identical. So must a bridged toxicity storm:
    //! its measurement phase hands instances to whichever worker frees
    //! up first, so who measures what varies from run to run while the
    //! trace must not. The sweeps hold `POOL`, like the crawl sweep, so
    //! each runs at the thread counts it names.

    use super::POOL;
    use fediscope::core::time::SimDuration;
    use fediscope::dynamics::scenarios::lookup;
    use fediscope::dynamics::{
        DynamicsConfig, DynamicsEngine, DynamicsTrace, Event, EventQueue, LiveNetBridge,
        NetworkState, RetryPolicy, Scenario,
    };
    use fediscope::simnet::{FailureMode, SimNet};
    use fediscope::synthgen::{ScenarioSeeds, World, WorldConfig};
    use fediscope_core::time::SimTime;
    use rand::rngs::SmallRng;
    use std::sync::{Arc, OnceLock};

    fn seeds() -> &'static ScenarioSeeds {
        static SEEDS: OnceLock<ScenarioSeeds> = OnceLock::new();
        SEEDS.get_or_init(|| ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small())))
    }

    /// One linked instance goes down in the given §3 mode 1 h in; a
    /// transient outage recovers 2 h later — inside the retry window:
    /// attempt 1 fires 1–2 h after the outage starts (still down ⇒
    /// rescheduled), attempt 2 fires 3–5 h after (recovered ⇒
    /// redelivered). A permanent mode schedules no recovery.
    struct OneOutage {
        mode: FailureMode,
        target: u32,
    }

    impl OneOutage {
        fn new(mode: FailureMode) -> Self {
            OneOutage { mode, target: 0 }
        }
    }

    impl Scenario for OneOutage {
        fn name(&self) -> &'static str {
            "one_outage"
        }

        fn init(
            &mut self,
            start: SimTime,
            state: &mut NetworkState,
            queue: &mut EventQueue,
            _rng: &mut SmallRng,
        ) {
            state.enable_retries(RetryPolicy::default());
            self.target = (0..state.len())
                .find(|&i| !state.neighbors(i).is_empty())
                .expect("the test world has linked instances") as u32;
            let down_at = start + SimDuration::hours(1);
            queue.schedule(
                down_at,
                Event::GoDown {
                    instance: self.target,
                    mode: self.mode,
                },
            );
            if self.mode.class() == Some(fediscope::simnet::FailureClass::Transient) {
                queue.schedule(
                    down_at + SimDuration::hours(2),
                    Event::Recover {
                        instance: self.target,
                    },
                );
            }
        }
    }

    fn run_at(threads: usize, mode: FailureMode) -> (DynamicsTrace, Vec<u64>, u64) {
        // The shim rayon allows re-sizing the global pool; real rayon
        // would degrade the sweep to same-size repeats.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
        let config = DynamicsConfig {
            ticks: 6,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        let mut scenario = OneOutage::new(mode);
        let trace = engine.run(&mut scenario);
        let per_instance_dead: Vec<u64> = engine
            .state()
            .instances
            .iter()
            .map(|i| i.dead_letter_batches)
            .collect();
        let pending = engine.state().pending_retry_count() as u64;
        (trace, per_instance_dead, pending)
    }

    #[test]
    fn retry_window_recovery_and_permanent_death_at_1_2_8_threads() {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let (transient_ref, _, _) = run_at(1, FailureMode::BadGateway);
        let (permanent_ref, _, _) = run_at(1, FailureMode::Gone);
        for threads in [1_usize, 2, 8] {
            // Mid-retry-window recovery: every opened chain reschedules
            // exactly once and then redelivers on attempt 2.
            let (trace, dead, pending) = run_at(threads, FailureMode::BadGateway);
            assert!(trace.total_recovered() > 0, "chains recover at {threads}t");
            assert_eq!(
                trace.total_retried(),
                trace.total_recovered(),
                "recovery lands on attempt 2: one reschedule per chain"
            );
            assert_eq!(trace.total_dead_lettered(), 0);
            assert_eq!(dead.iter().sum::<u64>(), 0);
            assert_eq!(pending, 0, "no chain is left open");
            assert_eq!(
                trace, transient_ref,
                "transient trace diverged at {threads} threads"
            );

            // Permanent death: no retry events at all — the batches
            // short-circuit to the senders' dead-letter queues.
            let (trace, dead, pending) = run_at(threads, FailureMode::Gone);
            assert!(trace.total_dead_lettered() > 0);
            assert_eq!(trace.total_retried(), 0, "permanent failures never retry");
            assert_eq!(trace.total_recovered(), 0);
            assert_eq!(
                dead.iter().sum::<u64>(),
                trace.total_dead_lettered(),
                "per-sender dead-letter counters add up to the trace total"
            );
            assert_eq!(pending, 0);
            assert_eq!(
                trace, permanent_ref,
                "permanent trace diverged at {threads} threads"
            );
        }
    }

    /// A saturation storm from the second tick on, measured on the
    /// batched path with the live-net bridge attached. The world holds
    /// a tenth of the paper's 9,969 instances, about 31 of the rayon
    /// shim's 32-item blocks, so blocks interleave even at 8 workers.
    fn storm_at(threads: usize) -> DynamicsTrace {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
        let config = DynamicsConfig {
            ticks: 6,
            ..DynamicsConfig::default()
        };
        let mut engine = DynamicsEngine::new(config, seeds());
        let bridge = LiveNetBridge::new(Arc::new(SimNet::new()), engine.state());
        engine.attach_sink(Box::new(bridge));
        engine.run((lookup("saturation-storm").unwrap().build)().as_mut())
    }

    #[test]
    fn bridged_storm_at_1_2_8_threads() {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let reference = storm_at(1);
        assert!(
            reference.total_delivered() > 0,
            "the storm delivered nothing"
        );
        assert!(
            reference.ticks.iter().any(|t| t.rejected > 0),
            "no delivery reached an MRF rejection"
        );
        for threads in [1_usize, 2, 8] {
            let trace = storm_at(threads);
            assert_eq!(
                trace.digest(),
                reference.digest(),
                "digest diverged at {threads} threads"
            );
            assert!(trace == reference, "trace diverged at {threads} threads");
        }
    }
}

#[test]
fn recovering_instance_serves_again() {
    let net = Arc::new(SimNet::new());
    let flaky = pleroma_server("flaky.example", 1, 3);
    register(&net, &flaky);
    net.set_failure(Domain::new("flaky.example"), FailureMode::Unavailable);
    let crawler = Crawler::new(Arc::clone(&net), CrawlerConfig::default());
    let down = crawler.crawl(&[Domain::new("flaky.example")]);
    assert_eq!(
        down.by_domain("flaky.example").unwrap().outcome,
        fediscope::crawler::CrawlOutcome::Failed { status: 503 }
    );
    // Ops fixes the box; the next campaign collects everything.
    net.set_failure(Domain::new("flaky.example"), FailureMode::Healthy);
    let up = crawler.crawl(&[Domain::new("flaky.example")]);
    let inst = up.by_domain("flaky.example").unwrap();
    assert!(inst.crawled());
    assert_eq!(inst.timeline.posts().len(), 3);
}
