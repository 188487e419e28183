//! The 1.0-scale acceptance smoke test — `#[ignore]` by default.
//!
//! Run it with:
//!
//! ```text
//! cargo test -p fediscope-bench --release --test fullscale -- --ignored --nocapture
//! ```
//!
//! One pass over everything the paper's full scale (1.0) promises:
//!
//! 1. **Memory budget** — the streamed seed path
//!    (`ScenarioSeeds::from_config_streamed`) extracts the full paper
//!    population without materialising the corpus; peak RSS at that
//!    point must sit under the documented budget (measured ≈ 16 MiB,
//!    gated at 512 MiB), and the whole test — census worlds, live
//!    servers and all — under 2 GiB.
//! 2. **§3 under-count** — a directory-thinned census
//!    (`peer_list_cap: 16`, modelling the real crawl's partial
//!    discovery) against the live full-scale network must *miss* live
//!    Pleroma instances: the bias the paper can only bound is nonzero
//!    and measurable here.
//! 3. **Calibration** — the correction factor measured on the seed-1534
//!    world transfers: applied to a different world (seed 99) under the
//!    same crawl regime, the corrected estimate lands within 2.5% of
//!    that world's ground truth (measured error ≈ 0.9%).
//!
//! The test's exit status is the gate the nightly CI job reads.

use fediscope_analysis::calibration::{render_calibration, CalibrationRow, UndercountCalibration};
use fediscope_crawler::{Crawler, CrawlerConfig};
use fediscope_synthgen::{ScenarioSeeds, SeedKnobs, World, WorldConfig};
use std::sync::Arc;

/// Peak-RSS budget for the streamed seed extraction alone.
const STREAMED_RSS_BUDGET: u64 = 512 << 20;
/// Peak-RSS budget for the whole smoke test (two materialised worlds).
const TOTAL_RSS_BUDGET: u64 = 2 << 30;
/// The thinned crawl regime: first-16 peer-list truncation.
const PEER_CAP: usize = 16;
/// Transfer tolerance for the calibrated estimate.
const TOLERANCE: f64 = 0.025;

/// One thinned census of a freshly generated full-scale world:
/// `(true_up, observed)`.
fn thinned_census(seed: u64) -> UndercountCalibration {
    let mut config = WorldConfig::paper();
    config.seed = seed;
    let world = World::generate(config);
    let materialized = fediscope::harness::materialize_full(&world);
    let crawler = Crawler::new(
        Arc::clone(&materialized.net),
        CrawlerConfig {
            peer_list_cap: Some(PEER_CAP),
            snapshot_rounds: 0,
        },
    );
    let dataset = crawler.crawl(&world.directory);
    UndercountCalibration::new(
        world.crawled_pleroma().count() as u64,
        dataset.pleroma_crawled().count() as u64,
    )
}

/// Peak resident-set size (`VmHWM`) of this process in bytes. Linux
/// only (`/proc`); `None` elsewhere, and the RSS budgets then stand down.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

#[test]
#[ignore = "full-scale: generates two 1.0-scale worlds and crawls them (~20 s release); run with --ignored"]
fn fullscale_census_undercount_calibrates() {
    // 1. Memory budget: the streamed path extracts the full population
    // without the corpus ever existing in RAM.
    let config = WorldConfig::paper();
    let seeds = ScenarioSeeds::from_config_streamed(&config, &SeedKnobs::default());
    assert!(seeds.len() > 9_000, "full population expected");
    let streamed_rss = peak_rss_bytes();
    println!(
        "[fullscale] streamed seeds: {} instances / {} links, VmHWM {} MiB",
        seeds.len(),
        seeds.links.len(),
        streamed_rss.unwrap_or(0) >> 20
    );
    if let Some(rss) = streamed_rss {
        assert!(
            rss < STREAMED_RSS_BUDGET,
            "streamed full-scale extraction used {rss} bytes peak — over the {STREAMED_RSS_BUDGET}-byte budget"
        );
    }

    // 2. The §3 under-count, reproduced: a thinned census of the live
    // full-scale network misses real, healthy instances.
    let cal = thinned_census(config.seed);
    println!(
        "{}",
        render_calibration(&[CalibrationRow {
            peer_list_cap: Some(PEER_CAP),
            calibration: cal,
        }])
    );
    assert!(
        cal.undercount() > 0,
        "the thinned census must under-count at full scale (observed {} of {})",
        cal.observed,
        cal.true_up
    );
    assert!(cal.bias() > 0.01, "the bias must be measurable, not noise");

    // 3. The correction factor transfers to a world the calibration
    // never saw.
    let other = thinned_census(99);
    let estimate = cal.corrected(other.observed);
    println!(
        "[fullscale] transfer: seed-99 observed {} × correction {:.4} = {:.0} vs true {}",
        other.observed,
        cal.correction(),
        estimate,
        other.true_up
    );
    assert!(
        UndercountCalibration::within_tolerance(estimate, other.true_up, TOLERANCE),
        "calibrated estimate {estimate:.0} outside {TOLERANCE} of ground truth {}",
        other.true_up
    );

    let total_rss = peak_rss_bytes();
    if let Some(rss) = total_rss {
        assert!(
            rss < TOTAL_RSS_BUDGET,
            "smoke test used {rss} bytes peak — over the {TOTAL_RSS_BUDGET}-byte budget"
        );
    }
}
