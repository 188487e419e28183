//! Time-series tables over a [`DynamicsTrace`] — the dynamic companion
//! to the paper's static figures.
//!
//! The paper's snapshot answers *what the moderation landscape is*;
//! these tables answer *what it does over time*: how fast a staged
//! rollout starts preventing toxic exposure, how quickly defederation
//! cascades shred the federation graph, how much delivery mass churn
//! destroys. Everything consumes only the engine's trace — the analysis
//! side never reaches into engine state, mirroring how the rest of this
//! crate only reads the crawler's dataset.
//!
//! Toxic mass stays in integer exposure units until a `render_*`
//! function prints it as score mass with [`exposure_score`].

use crate::report::render_table;
use fediscope_dynamics::exposure_score;
use fediscope_dynamics::{CensusSnapshot, DynamicsTrace, ExperimentResult, TraceDelta};

/// One row of the per-tick time series.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsRow {
    /// Tick index.
    pub tick: u64,
    /// Campaign day the tick falls on.
    pub day: u64,
    /// Live federation links.
    pub links: u64,
    /// Instances answering the network.
    pub instances_up: u64,
    /// Instances that changed moderation since the run began.
    pub adopted: u64,
    /// Control-phase events applied this tick (waves, blocks, churn) —
    /// the control-plane load column: a cascade's burst ticks stand out
    /// here while the delivery columns stay flat.
    pub events: u64,
    /// Deliveries attempted this tick.
    pub delivered: u64,
    /// Share of deliveries rejected by MRF pipelines (0 when idle).
    pub rejected_share: f64,
    /// Deliveries lost to down receivers.
    pub failed: u64,
    /// Toxic mass that got through, in exposure units.
    pub toxic_exposure: u64,
    /// Toxic mass the pipelines prevented, in exposure units.
    pub exposure_prevented: u64,
}

/// `part / whole`, or 0 when `whole` is 0.
fn share(part: f64, whole: u64) -> f64 {
    if whole > 0 {
        part / whole as f64
    } else {
        0.0
    }
}

/// The per-tick series of a trace.
pub fn dynamics_timeseries(trace: &DynamicsTrace) -> Vec<DynamicsRow> {
    trace
        .ticks
        .iter()
        .map(|t| DynamicsRow {
            tick: t.tick,
            day: t.at.campaign_day(),
            links: t.links,
            instances_up: t.instances_up,
            adopted: t.adopted,
            events: t.events,
            delivered: t.delivered,
            rejected_share: share(t.rejected as f64, t.delivered),
            failed: t.failed,
            toxic_exposure: t.toxic_exposure,
            exposure_prevented: t.exposure_prevented,
        })
        .collect()
}

/// Run-level prevention outcome: what the rollout (or the standing
/// configs) kept out of users' timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct PreventionSummary {
    /// Toxic mass accepted over the run, in exposure units.
    pub exposure: u64,
    /// Toxic mass rejected over the run, in exposure units.
    pub prevented: u64,
    /// `prevented / (prevented + exposure)` — the headline number a
    /// rollout scenario is after.
    pub prevented_share: f64,
    /// Federation links at the first and last tick.
    pub links: (u64, u64),
    /// Deliveries attempted / rejected / lost over the run.
    pub deliveries: (u64, u64, u64),
}

/// Summarises a trace.
pub fn prevention_summary(trace: &DynamicsTrace) -> PreventionSummary {
    let exposure = trace.total_exposure();
    let prevented = trace.total_prevented();
    let mass = exposure + prevented;
    PreventionSummary {
        exposure,
        prevented,
        prevented_share: share(prevented as f64, mass),
        links: (trace.initial_links(), trace.final_links()),
        deliveries: (
            trace.total_delivered(),
            trace.total_rejected(),
            trace.ticks.iter().map(|t| t.failed).sum(),
        ),
    }
}

/// One row of the census-over-time table: what the crawler observed of
/// a churning network vs. what was actually true, per census tick.
#[derive(Debug, Clone, PartialEq)]
pub struct CensusOverTimeRow {
    /// Tick the census ran after.
    pub tick: u64,
    /// Campaign day of that tick.
    pub day: u64,
    /// Ground truth: Pleroma instances in the engine state.
    pub true_total: u64,
    /// Ground truth: Pleroma instances answering the network.
    pub true_up: u64,
    /// Pleroma instances the census successfully crawled.
    pub observed: u64,
    /// Live instances the census missed (`true_up - observed`).
    pub undercount: i64,
    /// Under-count as a share of the live fleet.
    pub undercount_share: f64,
    /// Probes answered by a failure status.
    pub failed_probes: u64,
    /// §3 status-code counts for this census: `[404, 403, 502, 503, 410]`.
    pub taxonomy: [u64; 5],
}

/// The per-census series of a round-trip run — the under-count bias
/// table: how far the §3 measurement methodology drifts from ground
/// truth while the fleet decays underneath the crawler.
pub fn census_timeseries(snapshots: &[CensusSnapshot]) -> Vec<CensusOverTimeRow> {
    snapshots
        .iter()
        .map(|s| CensusOverTimeRow {
            tick: s.tick,
            day: s.at.campaign_day(),
            true_total: s.true_total,
            true_up: s.true_up,
            observed: s.observed,
            undercount: s.undercount(),
            undercount_share: s.undercount_share(),
            failed_probes: s.failed_probes,
            taxonomy: s.taxonomy,
        })
        .collect()
}

/// Renders the census-over-time table: observed vs. true counts,
/// under-count bias, and the per-census §3 failure taxonomy.
pub fn render_census(snapshots: &[CensusSnapshot]) -> String {
    let rows: Vec<Vec<String>> = census_timeseries(snapshots)
        .into_iter()
        .map(|r| {
            vec![
                r.tick.to_string(),
                r.day.to_string(),
                r.true_total.to_string(),
                r.true_up.to_string(),
                r.observed.to_string(),
                r.undercount.to_string(),
                format!("{:.1}%", r.undercount_share * 100.0),
                r.taxonomy[0].to_string(),
                r.taxonomy[1].to_string(),
                r.taxonomy[2].to_string(),
                r.taxonomy[3].to_string(),
                r.taxonomy[4].to_string(),
            ]
        })
        .collect();
    render_table(
        "census under churn: observed vs. true",
        &[
            "tick", "day", "total", "up", "observed", "bias", "bias%", "404", "403", "502", "503",
            "410",
        ],
        &rows,
    )
}

/// The `k` instances with the highest accumulated toxic exposure, as
/// `(instance index, exposure units)` — descending, ties by index.
pub fn top_exposed(trace: &DynamicsTrace, k: usize) -> Vec<(usize, u64)> {
    let n = trace
        .ticks
        .iter()
        .map(|t| t.per_instance_exposure.len())
        .max()
        .unwrap_or(0);
    let mut totals = vec![0_u64; n];
    for t in &trace.ticks {
        for (i, &e) in t.per_instance_exposure.iter().enumerate() {
            totals[i] += e;
        }
    }
    let mut ranked: Vec<(usize, u64)> = totals.into_iter().enumerate().collect();
    ranked.sort_by_key(|&(i, e)| (std::cmp::Reverse(e), i));
    ranked.truncate(k);
    ranked
}

/// Renders the time series next to the paper's static figures.
pub fn render_dynamics(trace: &DynamicsTrace) -> String {
    let rows: Vec<Vec<String>> = dynamics_timeseries(trace)
        .into_iter()
        .map(|r| {
            vec![
                r.tick.to_string(),
                r.day.to_string(),
                r.links.to_string(),
                r.instances_up.to_string(),
                r.adopted.to_string(),
                r.events.to_string(),
                r.delivered.to_string(),
                format!("{:.1}%", r.rejected_share * 100.0),
                r.failed.to_string(),
                format!("{:.1}", exposure_score(r.toxic_exposure)),
                format!("{:.1}", exposure_score(r.exposure_prevented)),
            ]
        })
        .collect();
    render_table(
        &format!("dynamics: {} (seed {})", trace.scenario, trace.seed),
        &[
            "tick",
            "day",
            "links",
            "up",
            "adopted",
            "events",
            "delivered",
            "rej%",
            "failed",
            "exposure",
            "prevented",
        ],
        &rows,
    )
}

/// One row of the delivery-reliability table: what the retry layer did
/// this tick, with running totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityRow {
    /// Tick index.
    pub tick: u64,
    /// Campaign day the tick falls on.
    pub day: u64,
    /// Retry attempts that fired and rescheduled this tick.
    pub retried: u64,
    /// Delivery batches redelivered to a recovered receiver this tick.
    pub recovered: u64,
    /// Delivery batches given up on this tick.
    pub dead_lettered: u64,
    /// Running total of recovered batches through this tick.
    pub cumulative_recovered: u64,
    /// Running total of dead-lettered batches through this tick.
    pub cumulative_dead_lettered: u64,
    /// `recovered / (recovered + dead_lettered)` over the run so far —
    /// the share of settled chains the retry layer actually saved.
    pub recovery_share: f64,
}

/// The per-tick reliability series of a trace. All-zero rows (ticks
/// where the retry layer was idle or disabled) are kept, so the table
/// always pairs 1:1 with [`dynamics_timeseries`].
pub fn reliability_timeseries(trace: &DynamicsTrace) -> Vec<ReliabilityRow> {
    let mut recovered_acc = 0_u64;
    let mut dead_acc = 0_u64;
    trace
        .ticks
        .iter()
        .map(|t| {
            recovered_acc += t.recovered;
            dead_acc += t.dead_lettered;
            let settled = recovered_acc + dead_acc;
            ReliabilityRow {
                tick: t.tick,
                day: t.at.campaign_day(),
                retried: t.retried,
                recovered: t.recovered,
                dead_lettered: t.dead_lettered,
                cumulative_recovered: recovered_acc,
                cumulative_dead_lettered: dead_acc,
                recovery_share: share(recovered_acc as f64, settled),
            }
        })
        .collect()
}

/// Renders the recovered-delivery / dead-letter table: what churn cost
/// the network and what the retry layer clawed back, tick by tick.
pub fn render_reliability(trace: &DynamicsTrace) -> String {
    let rows: Vec<Vec<String>> = reliability_timeseries(trace)
        .into_iter()
        .map(|r| {
            vec![
                r.tick.to_string(),
                r.day.to_string(),
                r.retried.to_string(),
                r.recovered.to_string(),
                r.dead_lettered.to_string(),
                r.cumulative_recovered.to_string(),
                r.cumulative_dead_lettered.to_string(),
                format!("{:.1}%", r.recovery_share * 100.0),
            ]
        })
        .collect();
    render_table(
        &format!(
            "delivery reliability: {} (seed {})",
            trace.scenario, trace.seed
        ),
        &[
            "tick",
            "day",
            "retried",
            "recovered",
            "dead",
            "cum.recov",
            "cum.dead",
            "recov%",
        ],
        &rows,
    )
}

/// One row of the prevention-attribution table: what an arm changed
/// relative to the experiment's baseline arm.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Arm name.
    pub arm: String,
    /// Whether this is the baseline arm (deltas are all zero).
    pub baseline: bool,
    /// Deliveries the arm's pipelines rejected over the run.
    pub blocked: u64,
    /// Toxic mass the arm's users were exposed to, in exposure units.
    pub exposure: u64,
    /// Extra deliveries blocked relative to the baseline.
    pub blocked_vs_baseline: i64,
    /// Toxic mass kept out relative to the baseline, in exposure units
    /// (positive = the arm's users saw less) — the headline
    /// counterfactual number.
    pub prevented_vs_baseline: i64,
    /// Share of the baseline's exposure the arm prevented.
    pub prevented_share: f64,
    /// Final-tick federation-link difference vs. the baseline
    /// (negative = the arm severed more links: the fragmentation cost).
    pub links_vs_baseline: i64,
}

/// The per-arm attribution rows of an experiment, baseline first, then
/// non-baseline arms in registration order.
pub fn experiment_attribution(result: &ExperimentResult) -> Vec<AttributionRow> {
    let baseline = result.baseline();
    let baseline_exposure = baseline.trace.total_exposure();
    let mut rows = vec![AttributionRow {
        arm: baseline.name.clone(),
        baseline: true,
        blocked: baseline.trace.total_rejected(),
        exposure: baseline_exposure,
        blocked_vs_baseline: 0,
        prevented_vs_baseline: 0,
        prevented_share: 0.0,
        links_vs_baseline: 0,
    }];
    for delta in result.deltas() {
        let arm = result.arm(&delta.arm).expect("delta arms exist");
        let prevented = delta.prevented_exposure();
        rows.push(AttributionRow {
            arm: delta.arm.clone(),
            baseline: false,
            blocked: arm.trace.total_rejected(),
            exposure: arm.trace.total_exposure(),
            blocked_vs_baseline: delta.blocked_deliveries(),
            prevented_vs_baseline: prevented,
            prevented_share: share(prevented as f64, baseline_exposure),
            links_vs_baseline: delta.final_links(),
        });
    }
    rows
}

/// Renders one paired delta as a per-tick table: every column is
/// arm − baseline, plus the running cumulative prevented-exposure curve
/// (how prevention accrues as waves land).
pub fn render_delta(delta: &TraceDelta) -> String {
    let cumulative = delta.cumulative_prevented();
    let rows: Vec<Vec<String>> = delta
        .ticks
        .iter()
        .zip(&cumulative)
        .map(|(t, &cum)| {
            vec![
                t.tick.to_string(),
                t.at.campaign_day().to_string(),
                format!("{:+}", t.links),
                format!("{:+}", t.delivered),
                format!("{:+}", t.blocked),
                format!("{:+}", t.failed),
                format!("{:+}", t.adopted),
                format!("{:+.1}", exposure_score(t.toxic_exposure)),
                format!("{:.1}", exposure_score(t.prevented_vs_baseline())),
                format!("{:.1}", exposure_score(cum)),
                format!("{:+}", t.recovered),
                format!("{:+}", t.dead_lettered),
            ]
        })
        .collect();
    render_table(
        &format!(
            "paired delta: {} − {} (seed {})",
            delta.arm, delta.baseline, delta.seed
        ),
        &[
            "tick",
            "day",
            "Δlinks",
            "Δdeliv",
            "Δblocked",
            "Δfailed",
            "Δadopted",
            "Δexposure",
            "prevented",
            "cum.prev",
            "Δrecov",
            "Δdead",
        ],
        &rows,
    )
}

/// Renders a whole experiment: the prevention-attribution summary (one
/// row per arm, baseline first) followed by one per-tick paired-delta
/// table per non-baseline arm.
pub fn render_experiment(result: &ExperimentResult) -> String {
    let rows: Vec<Vec<String>> = experiment_attribution(result)
        .into_iter()
        .map(|r| {
            vec![
                if r.baseline {
                    format!("{} (baseline)", r.arm)
                } else {
                    r.arm
                },
                r.blocked.to_string(),
                format!("{:.1}", exposure_score(r.exposure)),
                format!("{:+}", r.blocked_vs_baseline),
                format!("{:.1}", exposure_score(r.prevented_vs_baseline)),
                format!("{:.1}%", r.prevented_share * 100.0),
                format!("{:+}", r.links_vs_baseline),
            ]
        })
        .collect();
    let mut out = render_table(
        &format!(
            "experiment: {} arms vs {} (seed {})",
            result.arms.len(),
            result.baseline().name,
            result.seed
        ),
        &[
            "arm",
            "blocked",
            "exposure",
            "Δblocked",
            "prevented",
            "prev%",
            "Δlinks",
        ],
        &rows,
    );
    for delta in result.deltas() {
        out.push('\n');
        out.push_str(&render_delta(&delta));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::time::SimTime;
    use fediscope_dynamics::{ArmRun, TickTrace};

    fn trace() -> DynamicsTrace {
        let tick = |tick: u64, links: u64, delivered: u64, rejected: u64| TickTrace {
            tick,
            at: SimTime(fediscope_core::time::CAMPAIGN_START.0 + tick * 14_400),
            links,
            instances_up: 9,
            adopted: tick,
            events: tick * 3,
            delivered,
            accepted: delivered - rejected,
            rejected,
            failed: 3,
            rejected_authors: rejected.min(2),
            toxic_exposure: 20 * tick,
            exposure_prevented: 10 * tick,
            retried: tick * 4,
            recovered: tick * 2,
            dead_lettered: tick,
            failure_mix: vec![0; 5],
            per_instance_exposure: vec![5, 15 * tick],
        };
        DynamicsTrace {
            scenario: "unit".into(),
            seed: 7,
            ticks: vec![
                tick(0, 30, 100, 10),
                tick(1, 28, 100, 25),
                tick(2, 25, 100, 40),
            ],
        }
    }

    #[test]
    fn timeseries_tracks_the_trace() {
        let rows = dynamics_timeseries(&trace());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].links, 30);
        assert_eq!(rows[1].rejected_share, 0.25);
        assert_eq!(rows[1].events, 3, "control-phase events flow through");
        assert_eq!(rows[2].day, 0, "tick 2 is 8h in — still campaign day 0");
    }

    #[test]
    fn summary_aggregates_prevention() {
        let s = prevention_summary(&trace());
        assert_eq!(s.exposure, 60);
        assert_eq!(s.prevented, 30);
        assert_eq!(s.prevented_share, 1.0 / 3.0);
        assert_eq!(s.links, (30, 25));
        assert_eq!(s.deliveries, (300, 75, 9));
    }

    #[test]
    fn top_exposed_ranks_descending() {
        let top = top_exposed(&trace(), 2);
        assert_eq!(top.len(), 2);
        // Instance 1 accumulated 0 + 15 + 30 = 45; instance 0: 15.
        assert_eq!(top, vec![(1, 45), (0, 15)]);
    }

    #[test]
    fn reliability_rows_accumulate_and_share() {
        let rows = reliability_timeseries(&trace());
        assert_eq!(rows.len(), 3);
        // Tick 0 is idle: no settled chains yet, share reads 0.
        assert_eq!(rows[0].retried, 0);
        assert_eq!(rows[0].recovery_share, 0.0);
        // Tick 2: 8 retried, 4 recovered, 2 dead-lettered this tick;
        // cumulative 6 recovered vs 3 dead ⇒ 2/3 recovery share.
        assert_eq!(rows[2].retried, 8);
        assert_eq!(rows[2].recovered, 4);
        assert_eq!(rows[2].dead_lettered, 2);
        assert_eq!(rows[2].cumulative_recovered, 6);
        assert_eq!(rows[2].cumulative_dead_lettered, 3);
        assert_eq!(rows[2].recovery_share, 2.0 / 3.0);
    }

    #[test]
    fn reliability_render_has_one_line_per_tick() {
        let rendered = render_reliability(&trace());
        assert!(rendered.contains("== delivery reliability: unit (seed 7) =="));
        // title + header + 3 rows
        assert_eq!(rendered.trim_end().lines().count(), 5);
        assert!(rendered.contains("recov%"));
    }

    #[test]
    fn render_produces_one_line_per_tick() {
        let rendered = render_dynamics(&trace());
        assert!(rendered.contains("== dynamics: unit (seed 7) =="));
        // title + header + 3 rows
        assert_eq!(rendered.trim_end().lines().count(), 5);
    }

    fn snapshots() -> Vec<CensusSnapshot> {
        let snap = |tick: u64, up: u64, observed: u64, taxonomy: [u64; 5]| CensusSnapshot {
            tick,
            at: SimTime(fediscope_core::time::CAMPAIGN_START.0 + tick * 14_400),
            true_total: 120,
            true_up: up,
            observed,
            failed_probes: 120 - observed,
            unreachable: 0,
            taxonomy,
        };
        vec![
            snap(0, 120, 120, [0, 0, 0, 0, 0]),
            snap(6, 100, 92, [11, 8, 3, 1, 1]),
            snap(12, 84, 84, [22, 9, 3, 1, 1]),
        ]
    }

    #[test]
    fn census_rows_expose_undercount_bias() {
        let rows = census_timeseries(&snapshots());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].undercount, 0);
        assert_eq!(rows[1].undercount, 8);
        assert_eq!(rows[1].undercount_share, 0.08);
        assert_eq!(rows[1].taxonomy, [11, 8, 3, 1, 1]);
        assert_eq!(rows[2].day, 2, "tick 12 of 4h ticks is day 2");
    }

    fn experiment() -> ExperimentResult {
        let arm_trace = |scenario: &str, exposure_scale: u64, rejected: u64| {
            let tick = |tick: u64| TickTrace {
                tick,
                at: SimTime(fediscope_core::time::CAMPAIGN_START.0 + tick * 14_400),
                links: 30,
                instances_up: 9,
                adopted: if rejected > 0 { tick } else { 0 },
                events: 0,
                delivered: 100,
                accepted: 100 - rejected,
                rejected,
                failed: 0,
                rejected_authors: rejected.min(2),
                toxic_exposure: exposure_scale * (tick + 1),
                exposure_prevented: rejected * 100_000_000,
                retried: rejected / 4,
                recovered: rejected / 10,
                dead_lettered: rejected / 20,
                failure_mix: vec![0; 5],
                per_instance_exposure: vec![exposure_scale],
            };
            DynamicsTrace {
                scenario: scenario.into(),
                seed: 7,
                ticks: (0..3).map(tick).collect(),
            }
        };
        ExperimentResult {
            seed: 7,
            baseline: 0,
            arms: vec![
                ArmRun {
                    name: "inaction".into(),
                    trace: arm_trace("inaction", 4_000_000_000, 0),
                },
                ArmRun {
                    name: "rollout".into(),
                    trace: arm_trace("rollout", 1_000_000_000, 20),
                },
            ],
        }
    }

    #[test]
    fn attribution_credits_the_treatment_arm() {
        let rows = experiment_attribution(&experiment());
        assert_eq!(rows.len(), 2);
        assert!(rows[0].baseline);
        assert_eq!(rows[0].arm, "inaction");
        assert_eq!(rows[0].blocked_vs_baseline, 0);
        let rollout = &rows[1];
        assert!(!rollout.baseline);
        // Baseline exposure 4+8+12 = 24, arm 1+2+3 = 6: prevented 18.
        assert_eq!(rollout.prevented_vs_baseline, 18_000_000_000);
        assert_eq!(rollout.prevented_share, 0.75);
        assert_eq!(rollout.blocked_vs_baseline, 60);
        assert_eq!(rollout.links_vs_baseline, 0);
    }

    #[test]
    fn experiment_render_contains_summary_and_delta_tables() {
        let rendered = render_experiment(&experiment());
        assert!(rendered.contains("experiment: 2 arms vs inaction (seed 7)"));
        assert!(rendered.contains("inaction (baseline)"));
        assert!(rendered.contains("paired delta: rollout − inaction (seed 7)"));
        // Summary (title + header + 2 rows) and delta (title + header +
        // 3 ticks) tables, separated by a blank line.
        assert_eq!(rendered.trim_end().lines().count(), 4 + 1 + 5);
    }

    #[test]
    fn delta_render_has_one_line_per_tick() {
        let result = experiment();
        let delta = result.delta("rollout").unwrap();
        let rendered = render_delta(&delta);
        assert_eq!(rendered.trim_end().lines().count(), 5);
        // The cumulative column ends at the total prevented exposure.
        assert!(rendered.contains("18.0"));
    }

    #[test]
    fn census_render_has_one_line_per_snapshot() {
        let rendered = render_census(&snapshots());
        assert!(rendered.contains("census under churn"));
        // title + header + 3 rows
        assert_eq!(rendered.trim_end().lines().count(), 5);
        assert!(rendered.contains("404"));
    }
}
