//! JSON contracts of the serde shims.
//!
//! `to_string` streams straight into the output and `from_str` pulls
//! typed values field by field; `to_value` / `from_value` go through the
//! `Value` tree. Both routes must agree byte for byte on the documents
//! the program writes — a campaign dataset, a dynamics trace, a
//! telemetry report, the moderation config the pipeline pool interns
//! on, and a world shard line — and on the edge cases where a naive
//! streamer would differ: key order, unknown and repeated keys, missing
//! fields, and unit variants spelled as objects. Malformed input of
//! every persisted kind must come back as an `Err`, never a panic.

use fediscope::core::model::Visibility;
use fediscope::crawler::{CrawlOutcome, CrawledInstance};
use fediscope::dynamics::scenarios::{StormConfig, ToxicityStormScenario};
use fediscope::harness;
use fediscope::prelude::*;
use fediscope::synthgen::{GeneratedInstance, ShardManifest};
use fediscope_core::id::ActivityId;
use fediscope_telemetry::{GaugeId, HotCounter, Phase, ProbeClass, Telemetry};
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test_small()))
}

fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| harness::crawl_world(world(), CrawlerConfig::default()))
}

/// An instance with users, posts, peers and a SimplePolicy config.
fn shard_instance() -> &'static GeneratedInstance {
    world()
        .instances
        .iter()
        .filter(|i| i.moderation.simple.is_some() && !i.peers.is_empty())
        .max_by_key(|i| i.post_count())
        .expect("the small world has a moderated instance with peers")
}

fn activity() -> Activity {
    let author = UserRef::new(UserId(7), Domain::new("a.example"));
    let mut post = Post::stub(PostId(9), author, SimTime(1_000), "tab\there \"quoted\" é");
    post.hashtags.push("nsfw".into());
    post.subject = Some("cw".into());
    post.visibility = Visibility::Unlisted;
    Activity::create(ActivityId(3), post)
}

fn manifest() -> ShardManifest {
    ShardManifest {
        seed: 1534,
        scale: 0.05,
        post_scale: 0.5,
        instances: 12,
    }
}

/// Streamed output equals the tree's rendering, compact and pretty.
fn assert_streams_like_tree<T: Serialize>(what: &str, value: &T) {
    let tree = serde_json::to_value(value).expect("tree serializes");
    assert_eq!(
        serde_json::to_string(value).unwrap(),
        tree.to_string(),
        "{what}: compact"
    );
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty"
    );
}

/// Typed reads straight from text equal reads through the tree: both
/// re-render to the same bytes (and to the input, for canonical text).
fn assert_reads_like_tree<T: Serialize + DeserializeOwned>(what: &str, text: &str) -> T {
    let typed: T = serde_json::from_str(text).expect("typed read");
    let tree: Value = serde_json::from_str(text).expect("tree read");
    let via_tree: T = serde_json::from_value(tree).expect("read from tree");
    assert_eq!(
        serde_json::to_string(&typed).unwrap(),
        serde_json::to_string(&via_tree).unwrap(),
        "{what}"
    );
    typed
}

#[test]
fn streamed_output_equals_tree_output() {
    assert_streams_like_tree("dataset", dataset());
    assert_streams_like_tree("shard line", shard_instance());
    assert_streams_like_tree("moderation config", &shard_instance().moderation);
    assert_streams_like_tree("activity", &activity());
    assert_streams_like_tree("manifest", &manifest());

    let mut engine = DynamicsEngine::new(
        DynamicsConfig {
            ticks: 4,
            ..DynamicsConfig::default()
        },
        &ScenarioSeeds::from_world(world()),
    );
    let trace = engine.run(&mut ToxicityStormScenario::new(StormConfig::default()));
    assert_streams_like_tree("dynamics trace", &trace);

    let telemetry = Telemetry::new();
    telemetry.arm();
    telemetry.add(HotCounter::ALL[0], 41);
    telemetry.set_gauge(GaugeId::ALL[0], 7);
    telemetry.record_phase(Phase::ALL[0], 1_500);
    telemetry.record_probe(ProbeClass::Success, 80_000_000);
    telemetry.set_instance_labels(["a.example", "b.example"]);
    telemetry.add_instance_volume(1, 10, 2);
    assert_streams_like_tree("run report", &telemetry.report("contracts"));
}

#[test]
fn typed_reads_equal_tree_reads() {
    let text = dataset().to_json().unwrap();
    let back: Dataset = assert_reads_like_tree("dataset", &text);
    assert_eq!(back.to_json().unwrap(), text, "dataset round trip");

    let line = serde_json::to_string(shard_instance()).unwrap();
    let back: GeneratedInstance = assert_reads_like_tree("shard line", &line);
    assert_eq!(serde_json::to_string(&back).unwrap(), line);

    let config = serde_json::to_string(&shard_instance().moderation).unwrap();
    let back: InstanceModerationConfig = assert_reads_like_tree("config", &config);
    assert_eq!(
        back.structural_digest(),
        shard_instance().moderation.structural_digest()
    );

    let text = serde_json::to_string_pretty(&activity()).unwrap();
    let back: Activity = assert_reads_like_tree("activity", &text);
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), text);

    let text = serde_json::to_string(&manifest()).unwrap();
    let back: ShardManifest = assert_reads_like_tree("manifest", &text);
    assert_eq!(back, manifest());
}

#[test]
fn map_keys_sort_as_strings_not_by_ord() {
    // SimpleAction's `Ord` is declaration order (Reject first); a JSON
    // object sorts its keys as strings (Accept first).
    let simple = SimplePolicy::new()
        .with_target(SimpleAction::Reject, Domain::new("r.example"))
        .with_target(SimpleAction::Accept, Domain::new("a.example"))
        .with_target(SimpleAction::MediaRemoval, Domain::new("m.example"));
    assert_streams_like_tree("simple policy", &simple);
    let text = serde_json::to_string(&simple).unwrap();
    let accept = text.find("\"Accept\"").unwrap();
    let media = text.find("\"MediaRemoval\"").unwrap();
    let reject = text.find("\"Reject\"").unwrap();
    assert!(accept < media && media < reject, "{text}");
    assert_reads_like_tree::<SimplePolicy>("simple policy", &text);

    // Numeric keys: 10 < 2 as strings.
    let by_number = BTreeMap::from([(2u64, "two"), (10u64, "ten"), (1u64, "one")]);
    assert_eq!(
        serde_json::to_string(&by_number).unwrap(),
        r#"{"1":"one","10":"ten","2":"two"}"#
    );
    let hashed: HashMap<u64, &str> = by_number.clone().into_iter().collect();
    assert_eq!(
        serde_json::to_string(&hashed).unwrap(),
        serde_json::to_string(&by_number).unwrap(),
        "hash maps render in key order too"
    );
    let back: BTreeMap<u64, String> =
        assert_reads_like_tree("numeric keys", &serde_json::to_string(&by_number).unwrap());
    assert_eq!(back[&10], "ten");
}

#[test]
fn unknown_repeated_and_missing_keys() {
    // Unknown keys are skipped, however nested.
    let text = r#"{"seed": 1, "extra": {"deep": [1, {"x": null}]}, "scale": 0.5,
                   "post_scale": 1.0, "instances": 3, "also": "ignored"}"#;
    let m: ShardManifest = assert_reads_like_tree("unknown keys", text);
    assert_eq!((m.seed, m.instances), (1, 3));

    // A repeated key keeps its last value, through either route.
    let text = r#"{"seed": 1, "scale": 0.5, "post_scale": 1.0, "instances": 3, "seed": 2}"#;
    let m: ShardManifest = assert_reads_like_tree("repeated key", text);
    assert_eq!(m.seed, 2);

    // A missing `Option` field reads as `None`; a missing required
    // field is an error.
    let mut instance = serde_json::to_value(&dataset().instances[0]).unwrap();
    let Value::Object(fields) = &mut instance else {
        panic!("an instance is an object");
    };
    fields.remove("software");
    fields.remove("metadata");
    let text = instance.to_string();
    let back: CrawledInstance = assert_reads_like_tree("missing options", &text);
    assert!(back.software.is_none() && back.metadata.is_none());
    let text = r#"{"seed": 1, "scale": 0.5, "post_scale": 1.0}"#;
    assert!(serde_json::from_str::<ShardManifest>(text).is_err());
}

#[test]
fn unit_variants_read_from_strings_and_null_payloads() {
    for text in [r#""Crawled""#, r#"{"Crawled": null}"#] {
        let outcome: CrawlOutcome = assert_reads_like_tree("unit variant", text);
        assert_eq!(outcome, CrawlOutcome::Crawled);
    }
    let failed: CrawlOutcome =
        assert_reads_like_tree("struct variant", r#"{"Failed": {"status": 502}}"#);
    assert_eq!(failed, CrawlOutcome::Failed { status: 502 });
    assert_eq!(
        serde_json::to_string(&failed).unwrap(),
        r#"{"Failed":{"status":502}}"#
    );
    for bad in [
        r#""Nope""#,
        r#"{}"#,
        r#"{"Crawled": null, "Unreachable": null}"#,
        "3",
    ] {
        assert!(serde_json::from_str::<CrawlOutcome>(bad).is_err(), "{bad}");
        let tree: Value = serde_json::from_str(bad).unwrap();
        assert!(
            serde_json::from_value::<CrawlOutcome>(tree).is_err(),
            "{bad}"
        );
    }
}

#[test]
fn escapes_and_floats_render_like_the_tree() {
    let value = json!({
        "s": "quote \" backslash \\ newline \n tab \t bell \u{7} é 😀",
        "f": [0.0, 1.0, -2.5, 1e15, 1e-7, f64::NAN],
        "n": [-3, 0, u64::MAX],
        "empty": [[], {}],
    });
    assert_streams_like_tree("escapes", &value);
    let text = serde_json::to_string(&value).unwrap();
    assert!(text.contains(r#""quote \" backslash \\ newline \n tab \t bell \u0007 é 😀""#));
    assert!(
        text.contains("[0.0,1.0,-2.5,1000000000000000,0.0000001,null]"),
        "{text}"
    );
    let back: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(back["s"], value["s"]);
}

// ------------------------------------------------------ malformed input --

/// Prefixes of `text` cut at a fixed stride (on char boundaries): none
/// is a whole document.
fn truncations(text: &str, cuts: usize) -> impl Iterator<Item = &str> {
    let stride = (text.len() / cuts).max(1);
    (0..text.len())
        .step_by(stride)
        .filter(|&i| text.is_char_boundary(i))
        .map(move |i| &text[..i])
}

/// Copies of `value` with one leaf swapped for a value of another JSON
/// type, for about `count` non-null leaves spread over the document.
fn type_confusions(value: &Value, count: usize) -> Vec<Value> {
    fn leaves(v: &Value, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
        match v {
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    path.push(Step::Index(i));
                    leaves(item, path, out);
                    path.pop();
                }
            }
            Value::Object(map) => {
                for (k, item) in map {
                    path.push(Step::Key(k.clone()));
                    leaves(item, path, out);
                    path.pop();
                }
            }
            Value::Null => {}
            _ => out.push(path.clone()),
        }
    }
    let mut paths = Vec::new();
    leaves(value, &mut Vec::new(), &mut paths);
    paths
        .iter()
        .step_by((paths.len() / count).max(1))
        .map(|path| {
            let mut copy = value.clone();
            let mut slot = &mut copy;
            for step in path {
                slot = match step {
                    Step::Index(i) => &mut slot[*i],
                    Step::Key(k) => &mut slot[k.as_str()],
                };
            }
            *slot = match slot {
                Value::String(_) => json!(7),
                Value::Number(_) => json!("7"),
                _ => json!("x"),
            };
            copy
        })
        .collect()
}

#[derive(Clone)]
enum Step {
    Index(usize),
    Key(String),
}

fn assert_rejects_malformed<T: Serialize + DeserializeOwned>(what: &str, value: &T) {
    let text = serde_json::to_string_pretty(value).unwrap();
    for cut in truncations(&text, 64) {
        assert!(
            serde_json::from_str::<T>(cut).is_err(),
            "{what}: a {}-byte truncation parsed",
            cut.len()
        );
    }
    let tree = serde_json::to_value(value).unwrap();
    let confused = type_confusions(&tree, 32);
    assert!(!confused.is_empty());
    for bad in confused {
        let text = bad.to_string();
        assert!(
            serde_json::from_str::<T>(&text).is_err(),
            "{what}: a type-confused field parsed"
        );
        assert!(
            serde_json::from_value::<T>(bad).is_err(),
            "{what}: tree route"
        );
    }
}

#[test]
fn malformed_documents_are_errors_not_panics() {
    assert_rejects_malformed("dataset", dataset());
    assert_rejects_malformed("shard line", shard_instance());
    assert_rejects_malformed("manifest", &manifest());
    assert_rejects_malformed("activity", &activity());
}
