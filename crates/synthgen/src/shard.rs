//! Disk-shard round-trips: write a streamed world to NDJSON shards and
//! stream it back without ever materialising the corpus.
//!
//! [`ShardWriter`](crate::ShardWriter) (in `world.rs`) is the write
//! half: one JSON record per [`GeneratedInstance`], newline-delimited,
//! in index order. This module adds the read half — [`ShardReader`]
//! streams the records back through the same [`WorldSink`] machinery —
//! plus the directory layout that makes the round-trip self-contained:
//!
//! ```text
//! DIR/world.ndjson   one GeneratedInstance per line, index order
//! DIR/manifest.json  seed + scales + record count (ShardManifest)
//! ```
//!
//! The manifest carries what the instance stream cannot: the world seed
//! (scenario RNG streams derive from it) and the expected record count
//! (so a truncated shard file is a typed error, not a silently smaller
//! world). `ScenarioSeeds::from_shards` builds a full seed extract from
//! a shard directory — generate once with [`write_shard_dir`], then
//! start engines from disk in milliseconds.

use crate::config::WorldConfig;
use crate::world::{GeneratedInstance, ShardWriter, World, WorldSink};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::Path;

/// The instance-stream file inside a shard directory.
pub const SHARD_FILE: &str = "world.ndjson";

/// The manifest file inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// What a shard directory knows about itself: enough to rebuild a
/// [`crate::ScenarioSeeds`] (the seed) and to detect truncation (the
/// record count). The scales are provenance — loaders don't need them,
/// humans inspecting a shard directory do.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardManifest {
    /// The world seed the shards were generated from.
    pub seed: u64,
    /// Instance-count scale of the generation config.
    pub scale: f64,
    /// Per-user post-count scale of the generation config.
    pub post_scale: f64,
    /// Records in `world.ndjson` — a reload that finds fewer is a
    /// truncated shard, not a smaller world.
    pub instances: u64,
}

/// A typed shard-loading failure. Every corruption mode a reload can hit
/// — unreadable files, a malformed NDJSON line, a bad manifest, a
/// truncated stream — surfaces here instead of panicking.
#[derive(Debug)]
pub enum ShardError {
    /// An underlying I/O failure (missing file, short read, …).
    Io(std::io::Error),
    /// An NDJSON line that does not parse as a [`GeneratedInstance`].
    /// `line` is 1-based.
    Parse {
        /// 1-based line number of the corrupt record.
        line: usize,
        /// What the parser rejected.
        message: String,
    },
    /// A manifest that is missing fields or does not parse.
    Manifest {
        /// What the parser rejected.
        message: String,
    },
    /// Fewer records than the manifest promises — the shard file was
    /// cut short after it was written.
    Truncated {
        /// Records the manifest promises.
        expected: u64,
        /// Records actually present.
        found: u64,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard i/o error: {e}"),
            ShardError::Parse { line, message } => {
                write!(f, "corrupt shard record on line {line}: {message}")
            }
            ShardError::Manifest { message } => write!(f, "bad shard manifest: {message}"),
            ShardError::Truncated { expected, found } => write!(
                f,
                "truncated shard stream: manifest promises {expected} records, found {found}"
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Streams [`GeneratedInstance`] NDJSON records back through the
/// [`WorldSink`] machinery, in index order — the read half of
/// [`ShardWriter`](crate::ShardWriter). Generic over any buffered
/// reader; [`stream_shard_dir`] wires it to a shard directory.
pub struct ShardReader<R: BufRead> {
    input: R,
}

impl<R: BufRead> ShardReader<R> {
    /// Wraps a buffered reader positioned at the first record.
    pub fn new(input: R) -> Self {
        ShardReader { input }
    }

    /// Streams every record into `sink` (index = line position, matching
    /// the writer's order contract) and returns the record count. Each
    /// record is parsed, handed over and dropped before the next line is
    /// read, so peak memory is one instance regardless of shard size. A
    /// line that does not parse — including one truncated mid-record —
    /// is a [`ShardError::Parse`], never a panic.
    pub fn stream_into(mut self, sink: &mut dyn WorldSink) -> Result<usize, ShardError> {
        let mut index = 0usize;
        let mut lineno = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if self.input.read_line(&mut line)? == 0 {
                return Ok(index);
            }
            lineno += 1;
            let record = line.trim_end_matches(['\n', '\r']);
            if record.is_empty() {
                continue;
            }
            let instance: GeneratedInstance =
                serde_json::from_str(record).map_err(|e| ShardError::Parse {
                    line: lineno,
                    message: e.to_string(),
                })?;
            sink.instance(index, instance);
            index += 1;
        }
    }
}

/// Generates the world described by `config` straight into a shard
/// directory — `world.ndjson` plus `manifest.json` — without ever
/// holding more than one generation chunk of instances. Returns the
/// written manifest.
pub fn write_shard_dir(config: &WorldConfig, dir: &Path) -> Result<ShardManifest, ShardError> {
    std::fs::create_dir_all(dir)?;
    let file = File::create(dir.join(SHARD_FILE))?;
    let mut sink = ShardWriter::new(BufWriter::new(file));
    World::generate_streamed(config, &mut sink);
    let (_, written) = sink.finish()?;
    let manifest = ShardManifest {
        seed: config.seed,
        scale: config.scale,
        post_scale: config.post_scale,
        instances: written as u64,
    };
    let json = serde_json::to_string_pretty(&manifest).map_err(|e| ShardError::Manifest {
        message: e.to_string(),
    })?;
    std::fs::write(dir.join(MANIFEST_FILE), json)?;
    Ok(manifest)
}

/// Reads and validates a shard directory's manifest.
pub fn read_manifest(dir: &Path) -> Result<ShardManifest, ShardError> {
    let raw = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    serde_json::from_str(&raw).map_err(|e| ShardError::Manifest {
        message: e.to_string(),
    })
}

/// Streams a shard directory's instances into `sink` in index order,
/// checking the record count against the manifest. Returns the manifest.
pub fn stream_shard_dir(dir: &Path, sink: &mut dyn WorldSink) -> Result<ShardManifest, ShardError> {
    let manifest = read_manifest(dir)?;
    let file = File::open(dir.join(SHARD_FILE))?;
    let found = ShardReader::new(BufReader::new(file)).stream_into(sink)?;
    if found as u64 != manifest.instances {
        return Err(ShardError::Truncated {
            expected: manifest.instances,
            found: found as u64,
        });
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioSeeds, SeedKnobs};
    use std::path::PathBuf;

    fn temp_shards(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fediscope-shard-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_round_trip_equals_direct_streaming() {
        let config = WorldConfig::test_small();
        let dir = temp_shards("roundtrip");
        let manifest = write_shard_dir(&config, &dir).expect("shards write");
        assert_eq!(manifest.seed, config.seed);
        assert!(manifest.instances > 0);
        let direct = ScenarioSeeds::from_config_streamed(&config, &SeedKnobs::default());
        let reloaded = ScenarioSeeds::from_shards(&dir, &SeedKnobs::default()).expect("reload");
        assert_eq!(direct.first_difference(&reloaded), None);
        assert_eq!(direct.adoption_order(), reloaded.adoption_order());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_a_typed_error_not_a_panic() {
        let config = WorldConfig::test_small();
        let dir = temp_shards("corrupt");
        write_shard_dir(&config, &dir).expect("shards write");
        // Truncate the third record mid-line — the classic torn write.
        let path = dir.join(SHARD_FILE);
        let text = std::fs::read_to_string(&path).expect("read shards back");
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let cut = lines[2].len() / 2;
        lines[2].truncate(cut);
        std::fs::write(&path, lines.join("\n")).expect("rewrite shards");
        match ScenarioSeeds::from_shards(&dir, &SeedKnobs::default()) {
            Err(ShardError::Parse { line: 3, .. }) => {}
            other => panic!("expected a Parse error on line 3, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let config = WorldConfig::test_small();
        let dir = temp_shards("truncated");
        let manifest = write_shard_dir(&config, &dir).expect("shards write");
        // Drop the last record but keep every surviving line intact.
        let path = dir.join(SHARD_FILE);
        let text = std::fs::read_to_string(&path).expect("read shards back");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("rewrite shards");
        match ScenarioSeeds::from_shards(&dir, &SeedKnobs::default()) {
            Err(ShardError::Truncated { expected, found }) => {
                assert_eq!(expected, manifest.instances);
                assert_eq!(found, manifest.instances - 1);
            }
            other => panic!("expected a Truncated error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = temp_shards("missing");
        match ScenarioSeeds::from_shards(&dir, &SeedKnobs::default()) {
            Err(ShardError::Io(_)) => {}
            other => panic!("expected an Io error, got {other:?}"),
        }
    }
}
