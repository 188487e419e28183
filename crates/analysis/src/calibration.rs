//! §3 under-count calibration.
//!
//! The paper's census is an *observation*: instances the crawler found
//! and that answered. On the live network the authors could only bound
//! the miss rate; the simulator can do better, because engine ground
//! truth (which instances are genuinely up) exists alongside the
//! crawl. This module is the **one deliberate exception** to the
//! analysis crate's never-peek-at-ground-truth rule: calibration's
//! whole job is to compare the two and quantify the bias.
//!
//! At small scales the bias is invisible — every instance is named by
//! many peers, so discovery is redundant and the census misses only
//! dead hosts. Thinning discovery (the crawler's
//! `peer_list_cap`, modelling the real crawl's partial directories and
//! rate limits) makes it reappear: live instances whose every surviving
//! mention fell beyond the cap are simply absent from the dataset. A
//! calibrated correction factor turns the thinned observation back into
//! an estimate of the true population, exactly what §3 needs at the
//! paper's full scale (1.0).

use crate::report::render_table;

/// One census observation laid against engine ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UndercountCalibration {
    /// Ground truth: live, crawlable Pleroma instances at census time.
    pub true_up: u64,
    /// What the census observed (crawled Pleroma instances).
    pub observed: u64,
}

impl UndercountCalibration {
    /// Lays an observation against ground truth.
    pub fn new(true_up: u64, observed: u64) -> UndercountCalibration {
        UndercountCalibration { true_up, observed }
    }

    /// Instances the census missed (never negative: an over-count —
    /// impossible by construction, the crawler can't observe instances
    /// that don't answer — clamps to zero).
    pub fn undercount(&self) -> u64 {
        self.true_up.saturating_sub(self.observed)
    }

    /// Miss share of the true population, in `[0, 1]`.
    pub fn bias(&self) -> f64 {
        if self.true_up == 0 {
            return 0.0;
        }
        self.undercount() as f64 / self.true_up as f64
    }

    /// The correction factor: multiply an observation from the *same
    /// crawl regime* by this to estimate the true population. `1.0` for
    /// a perfect census; degenerate censuses (nothing observed) return
    /// `1.0` rather than an infinite factor — an empty observation
    /// carries no signal to scale.
    pub fn correction(&self) -> f64 {
        if self.observed == 0 || self.true_up == 0 {
            return 1.0;
        }
        self.true_up as f64 / self.observed as f64
    }

    /// Applies this calibration's correction factor to another
    /// observation (typically: calibrate on one census tick, correct
    /// the later ones).
    pub fn corrected(&self, observed: u64) -> f64 {
        observed as f64 * self.correction()
    }

    /// Whether `estimate` lands within `tolerance` (relative) of
    /// `truth` — the acceptance predicate of the full-scale smoke test.
    pub fn within_tolerance(estimate: f64, truth: u64, tolerance: f64) -> bool {
        if truth == 0 {
            return estimate == 0.0;
        }
        ((estimate - truth as f64) / truth as f64).abs() <= tolerance
    }
}

/// One row of the calibration table: a crawl regime (identified by its
/// peer-list cap) and its measured calibration.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationRow {
    /// The discovery thinning in force (`None` = full peer lists).
    pub peer_list_cap: Option<usize>,
    /// The observation laid against ground truth.
    pub calibration: UndercountCalibration,
}

/// Renders the calibration table: one row per crawl regime, showing the
/// observation, the miss count, the bias share, and the correction
/// factor. Read it top to bottom as "discovery got thinner": the
/// full-list row pins the residual bias (dead hosts only), each capped
/// row shows how much of the network a thinned crawl loses and the
/// factor that recovers the §3 population estimate.
pub fn render_calibration(rows: &[CalibrationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                match r.peer_list_cap {
                    Some(cap) => cap.to_string(),
                    None => "full".to_string(),
                },
                r.calibration.true_up.to_string(),
                r.calibration.observed.to_string(),
                r.calibration.undercount().to_string(),
                format!("{:.1}%", r.calibration.bias() * 100.0),
                format!("{:.4}", r.calibration.correction()),
            ]
        })
        .collect();
    render_table(
        "§3 census under-count calibration",
        &[
            "peer cap",
            "true up",
            "observed",
            "missed",
            "bias",
            "correction",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_census_needs_no_correction() {
        let c = UndercountCalibration::new(1298, 1298);
        assert_eq!(c.undercount(), 0);
        assert_eq!(c.bias(), 0.0);
        assert_eq!(c.correction(), 1.0);
    }

    #[test]
    fn thinned_census_calibrates_back_to_truth() {
        // 1298 live, 1100 observed: a 15.3% bias, correction ≈ 1.18.
        let c = UndercountCalibration::new(1298, 1100);
        assert_eq!(c.undercount(), 198);
        assert!((c.bias() - 198.0 / 1298.0).abs() < 1e-12);
        let corrected = c.corrected(c.observed);
        assert!(UndercountCalibration::within_tolerance(
            corrected, c.true_up, 1e-9
        ));
        // The factor transfers: a later census under the same regime
        // observing 1050 estimates ≈ 1239, within 5% of a drifted truth.
        assert!(UndercountCalibration::within_tolerance(
            c.corrected(1050),
            1250,
            0.05
        ));
    }

    #[test]
    fn degenerate_censuses_stay_finite() {
        assert_eq!(UndercountCalibration::new(100, 0).correction(), 1.0);
        assert_eq!(UndercountCalibration::new(0, 0).bias(), 0.0);
        assert!(UndercountCalibration::within_tolerance(0.0, 0, 0.1));
        // Observed > true (cannot happen via the crawler, but the type
        // is total): no negative undercount.
        assert_eq!(UndercountCalibration::new(10, 12).undercount(), 0);
    }

    #[test]
    fn calibration_table_renders_every_regime() {
        let table = render_calibration(&[
            CalibrationRow {
                peer_list_cap: None,
                calibration: UndercountCalibration::new(1298, 1280),
            },
            CalibrationRow {
                peer_list_cap: Some(25),
                calibration: UndercountCalibration::new(1298, 1073),
            },
        ]);
        assert!(table.contains("full"));
        assert!(table.contains("25"));
        assert!(table.contains("correction"));
        assert!(table.contains("1.2097"), "1298/1073 to four places");
    }
}
