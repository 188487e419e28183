//! The engine applies a due blocklist-import run whole: its adoptions
//! apply back to back in sequence order, and each still reaches the
//! event sink and counts as an event. This test runs each flood shape
//! on the small test world and pins what the sink sees and what every
//! instance's live `SimplePolicy` holds at run end. The pins were read
//! when the engine still popped one adoption per event, so a whole-run
//! path that skips the sink, drops an adoption or applies a run out of
//! order changes them.

use fediscope::dynamics::scenarios::lookup;
use fediscope::dynamics::{DynamicsConfig, DynamicsEngine, Event, EventSink, NetworkState};
use fediscope::synthgen::{ScenarioSeeds, World, WorldConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// FNV-1a's offset basis: the fingerprint of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a fingerprint `hash`, which is the same
/// on every platform and toolchain.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What the sink saw: calls, adoptions, and a fingerprint of every
/// `(kind, instance, applied)` in order.
#[derive(Debug, Default, PartialEq)]
struct SinkStream {
    calls: u64,
    adoptions: u64,
    fingerprint: u64,
}

/// Records every `on_event` call into a `SinkStream`.
struct Recorder(Rc<RefCell<SinkStream>>);

impl EventSink for Recorder {
    fn sync(&mut self, _state: &NetworkState) {}

    fn on_event(&mut self, event: &Event, applied: bool, _state: &NetworkState) {
        let (kind, instance) = match event {
            Event::AdoptWave { instance, .. } => (0u8, *instance),
            Event::Defederate { instance, .. } => (1, *instance),
            Event::GoDown { instance, .. } => (2, *instance),
            Event::Recover { instance } => (3, *instance),
            Event::SetRate { instance, .. } => (4, *instance),
            Event::RetryDelivery { sender, .. } => (5, *sender),
        };
        let mut stream = self.0.borrow_mut();
        stream.calls += 1;
        stream.adoptions += u64::from(kind == 0);
        let fingerprint = fnv(stream.fingerprint, &[kind, u8::from(applied)]);
        stream.fingerprint = fnv(fingerprint, &instance.to_le_bytes());
    }
}

/// Runs `name` for 40 ticks and returns the sink stream, the trace's
/// event total and a fingerprint of every instance's live
/// `SimplePolicy` events, in order.
fn run(seeds: &ScenarioSeeds, name: &str) -> (SinkStream, u64, u64) {
    let config = DynamicsConfig {
        seed: seeds.seed,
        ticks: 40,
        ..DynamicsConfig::default()
    };
    let recorded = Rc::new(RefCell::new(SinkStream {
        fingerprint: FNV_OFFSET,
        ..SinkStream::default()
    }));
    let mut engine = DynamicsEngine::new(config, seeds);
    engine.attach_sink(Box::new(Recorder(Rc::clone(&recorded))));
    let trace = engine.run((lookup(name).expect("registered").build)().as_mut());
    let events = trace.ticks.iter().map(|t| t.events).sum();
    let mut policies = FNV_OFFSET;
    for inst in &engine.state().instances {
        for (action, domain) in inst.simple().into_iter().flat_map(|s| s.events()) {
            policies = fnv(
                policies,
                format!("{action:?} {}\n", domain.as_str()).as_bytes(),
            );
        }
        policies = fnv(policies, b"|");
    }
    (recorded.take(), events, policies)
}

#[test]
fn whole_runs_keep_the_per_adoption_stream() {
    let seeds = ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small()));
    // (shape, sink calls, adoptions, sink fingerprint, policy fingerprint)
    let pins: [(&str, u64, u64, u64, u64); 4] = [
        (
            "policy-flood",
            96949,
            23037,
            0x8eee98af3bd1e3b3,
            0x3c61ec9e786fb211,
        ),
        (
            "delta-flood",
            23061,
            23037,
            0x4806cda0c404d395,
            0x3c61ec9e786fb211,
        ),
        (
            "import-full",
            1224,
            1224,
            0x740b9c0d6a2e4845,
            0xabb3ed5e21321068,
        ),
        (
            "import-partial",
            831,
            831,
            0xbbc11d8b9b743615,
            0x73248d5c6c7dfa6e,
        ),
    ];
    for (name, calls, adoptions, fingerprint, policies) in pins {
        let (stream, events, got_policies) = run(&seeds, name);
        // Every event the trace counts reached the sink, adoptions too.
        assert_eq!(stream.calls, events, "{name}");
        assert!(stream.adoptions > 0, "{name}");
        assert_eq!(
            (stream, got_policies),
            (
                SinkStream {
                    calls,
                    adoptions,
                    fingerprint,
                },
                policies
            ),
            "{name}"
        );
    }
}
