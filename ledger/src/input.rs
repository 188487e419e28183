//! The world each workload runs on.
//!
//! A workload's cost scales with how much work its world holds, and a
//! heavy-tailed paper-scale world puts that anywhere between about half
//! and 1.2× its median: one closed giant instance halves a campaign's
//! corpus, one sparse peer graph halves a storm's deliveries. So that a
//! run's figures move with the code rather than with the world drawn,
//! `campaign` and `storm` run on a paper-scale world whose load lies
//! within [`BAND`] of the median over world seeds 1–40: the first such
//! world in a sequence that starts at the workload seed itself and
//! continues with seeds mixed from it. A run with no such world among
//! [`CANDIDATES`] fails. `policy_flood` applies about 3.0 M events on
//! every world and runs on the workload seed's world as it is.
//!
//! `--calibrate N` prints each workload's load over world seeds 1–N and
//! their median: the source of the medians the workloads compare with.

use crate::{campaign, engine, median, quantile};
use fediscope_synthgen::WorldConfig;

/// Accepted relative distance of a world's load from the median.
pub const BAND: f64 = 0.04;

/// Worlds tried before a run gives up.
pub const CANDIDATES: u64 = 64;

/// A world's load: the work a workload would do on it.
type Load = fn(&WorldConfig) -> f64;

/// The load a workload's world is chosen by, with its median over world
/// seeds 1–40; `None` for a workload that runs on the seed's own world.
pub fn load(workload: &str) -> Option<(f64, Load)> {
    match workload {
        "campaign" => Some((campaign::CORPUS_MEDIAN, campaign::corpus)),
        "storm" => Some((engine::STORM_TICK_MEDIAN, engine::storm_tick)),
        _ => None,
    }
}

/// The world a run uses.
pub struct Choice {
    /// Its seed.
    pub seed: u64,
    /// Worlds generated to find it, itself included (0: none, the
    /// workload runs on the seed's own world).
    pub candidates: u64,
    /// Its load's relative distance from the median.
    pub distance: f64,
}

/// The world for `workload` at `config`: the first candidate whose load
/// lies within [`BAND`] of the median; `Err` when none of
/// [`CANDIDATES`] does.
pub fn choose(workload: &str, mut config: WorldConfig) -> Result<Choice, String> {
    let seed = config.seed;
    let Some((median, load)) = load(workload) else {
        return Ok(Choice {
            seed,
            candidates: 0,
            distance: 0.0,
        });
    };
    for k in 0..CANDIDATES {
        config.seed = if k == 0 {
            seed
        } else {
            splitmix(seed ^ k.rotate_left(32))
        };
        let distance = (load(&config) / median - 1.0).abs();
        if distance <= BAND {
            return Ok(Choice {
                seed: config.seed,
                candidates: k + 1,
                distance,
            });
        }
    }
    Err(format!(
        "no world among {CANDIDATES} candidates from seed {seed} has a load within {:.0}% of the median",
        100.0 * BAND
    ))
}

/// Prints the load of `workload` over world seeds 1–`n`, their median
/// and their spread (interquartile range over median). `Err` for a
/// workload that runs on the seed's own world.
pub fn calibrate(workload: &str, mut config: WorldConfig, n: u64) -> Result<(), String> {
    let Some((current, load)) = load(workload) else {
        return Err(format!("{workload} runs on the seed's own world"));
    };
    let mut loads = Vec::new();
    for seed in 1..=n {
        config.seed = seed;
        let x = load(&config);
        println!("world seed {seed} load {x}");
        loads.push(x);
    }
    loads.sort_by(f64::total_cmp);
    let m = median(loads.clone());
    let spread = (quantile(&loads, 0.75) - quantile(&loads, 0.25)) / m;
    let within = loads
        .iter()
        .filter(|&&x| (x / m - 1.0).abs() <= BAND)
        .count();
    println!(
        "median {m} spread {spread:.4} within {:.0}%: {within} of {n} (the workload uses {current})",
        100.0 * BAND
    );
    Ok(())
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
