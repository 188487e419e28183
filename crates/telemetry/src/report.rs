//! `RunReport`: the machine-readable snapshot of a whole registry.
//!
//! Captured once at the end of a run (never on the hot path) and
//! serialized as JSON by `fediscope … --telemetry-out`, rendered as
//! human tables by `analysis::render_telemetry`, and reformatted as
//! Prometheus text exposition by the server crate. Every list is in a
//! fixed, documented order (counter order, phase order, probe-class
//! order, volume-then-seed-index for instances) so two snapshots of
//! identical registries serialize to identical bytes.

use crate::span::Phase;
use crate::{GaugeId, HotCounter, Log2Histogram, ProbeClass, Telemetry};
use serde::Serialize;

/// How many instances the top-K volume table keeps.
pub const TOP_K: usize = 10;

/// One named counter reading.
#[derive(Debug, Clone, Serialize)]
pub struct CounterSnapshot {
    /// Stable snake_case counter name.
    pub name: String,
    /// Merged value across shards.
    pub value: u64,
}

/// One named gauge reading.
#[derive(Debug, Clone, Serialize)]
pub struct GaugeSnapshot {
    /// Stable snake_case gauge name.
    pub name: String,
    /// Last written value.
    pub value: u64,
}

/// A histogram reduced to its summary statistics plus the non-empty
/// buckets (as `[bucket_index, count]` pairs — the full 40-bucket array
/// is mostly zeros and would dominate the JSON).
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    /// Total recordings.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub sum_nanos: u64,
    /// Mean duration, nanoseconds (0 when empty).
    pub mean_nanos: u64,
    /// Upper bound of the bucket holding the median recording.
    pub p50_upper_nanos: u64,
    /// Upper bound of the bucket holding the 99th-percentile recording.
    pub p99_upper_nanos: u64,
    /// `[bucket_index, count]` for every non-empty log2 bucket, in
    /// bucket order.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    fn capture(h: &Log2Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum_nanos: h.sum_nanos(),
            mean_nanos: h.mean_nanos(),
            p50_upper_nanos: h.quantile_upper_bound(0.5),
            p99_upper_nanos: h.quantile_upper_bound(0.99),
            buckets: h
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
        }
    }
}

/// One phase's span histogram.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseSnapshot {
    /// Stable snake_case phase name.
    pub phase: String,
    /// Span count.
    pub count: u64,
    /// Total wall-clock, nanoseconds.
    pub total_nanos: u64,
    /// Mean span, nanoseconds.
    pub mean_nanos: u64,
    /// The underlying histogram.
    pub histogram: HistogramSnapshot,
}

/// One probe class's simulated-latency histogram.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeLatencySnapshot {
    /// Stable snake_case §3 status class.
    pub class: String,
    /// Probe count for the class.
    pub count: u64,
    /// Mean simulated latency, nanoseconds.
    pub mean_nanos: u64,
    /// The underlying histogram.
    pub histogram: HistogramSnapshot,
}

/// One row of the per-instance top-K volume table.
#[derive(Debug, Clone, Serialize)]
pub struct InstanceVolume {
    /// Seed index of the instance.
    pub index: usize,
    /// Domain label when known (empty if labels were never installed).
    pub domain: String,
    /// Posts delivered to this instance over the run.
    pub delivered: u64,
    /// Posts blocked (MRF-rejected) at this instance over the run.
    pub blocked: u64,
}

/// The machine-readable snapshot of a whole [`Telemetry`] registry.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Report format version; bump on breaking layout changes.
    pub version: u32,
    /// Free-form label naming the run (subcommand + scenario).
    pub label: String,
    /// Whether the registry was armed when captured. A disarmed capture
    /// is all zeros — callers should treat it as "telemetry was off".
    pub armed: bool,
    /// Phase span histograms, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
    /// Hot counters, in [`HotCounter::ALL`] order.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, in [`GaugeId::ALL`] order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Crawler probe latency by §3 status class, in [`ProbeClass::ALL`]
    /// order.
    pub probe_latency: Vec<ProbeLatencySnapshot>,
    /// Top-`TOP_K` (10) instances by delivered volume (blocked volume,
    /// then seed index, break ties).
    pub top_instances: Vec<InstanceVolume>,
}

impl RunReport {
    /// Snapshots a registry.
    pub fn capture(telemetry: &Telemetry, label: &str) -> Self {
        RunReport {
            version: 1,
            label: label.to_string(),
            armed: telemetry.armed(),
            phases: Phase::ALL
                .iter()
                .map(|&p| {
                    let h = telemetry.phase_histogram(p);
                    PhaseSnapshot {
                        phase: p.name().to_string(),
                        count: h.count(),
                        total_nanos: h.sum_nanos(),
                        mean_nanos: h.mean_nanos(),
                        histogram: HistogramSnapshot::capture(h),
                    }
                })
                .collect(),
            counters: HotCounter::ALL
                .iter()
                .map(|&c| CounterSnapshot {
                    name: c.name().to_string(),
                    value: telemetry.counter(c),
                })
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|&g| GaugeSnapshot {
                    name: g.name().to_string(),
                    value: telemetry.gauge(g),
                })
                .collect(),
            probe_latency: ProbeClass::ALL
                .iter()
                .map(|&k| {
                    let h = telemetry.probe_histogram(k);
                    ProbeLatencySnapshot {
                        class: k.name().to_string(),
                        count: h.count(),
                        mean_nanos: h.mean_nanos(),
                        histogram: HistogramSnapshot::capture(h),
                    }
                })
                .collect(),
            top_instances: telemetry.top_instances(TOP_K),
        }
    }

    /// Value of a counter by id (0 when absent — cannot happen for
    /// captures of this crate's own registries).
    pub fn counter(&self, counter: HotCounter) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == counter.name())
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// Snapshot of a phase by id, if present.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.phase == phase.name())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunReport serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaugeId, HotCounter, ProbeClass, Telemetry};

    fn armed_registry() -> Telemetry {
        let t = Telemetry::new();
        t.arm();
        t.add(HotCounter::ScorerCalls, 1234);
        t.set_gauge(GaugeId::Links, 77);
        t.record_phase(Phase::Control, 5_000);
        t.record_phase(Phase::Control, 7_000);
        t.record_probe(ProbeClass::Permanent, 250_000);
        t.set_instance_labels(["alpha.example", "beta.example"]);
        t.add_instance_volume(0, 40, 4);
        t.add_instance_volume(1, 90, 1);
        t
    }

    #[test]
    fn capture_reflects_registry() {
        let t = armed_registry();
        let report = t.report("unit");
        assert_eq!(report.version, 1);
        assert!(report.armed);
        assert_eq!(report.counter(HotCounter::ScorerCalls), 1234);
        assert_eq!(report.counter(HotCounter::ProbesPermanent), 1);
        let control = report.phase(Phase::Control).unwrap();
        assert_eq!(control.count, 2);
        assert_eq!(control.total_nanos, 12_000);
        assert_eq!(control.mean_nanos, 6_000);
        assert_eq!(report.gauges[0].value, 77);
        assert_eq!(report.top_instances.len(), 2);
        assert_eq!(report.top_instances[0].domain, "beta.example");
        assert_eq!(report.top_instances[0].delivered, 90);
    }

    #[test]
    fn identical_registries_serialize_identically() {
        let a = armed_registry().report("same");
        let b = armed_registry().report("same");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_has_stable_top_level_shape() {
        let json = armed_registry().report("shape").to_json();
        for key in [
            "\"version\"",
            "\"label\"",
            "\"armed\"",
            "\"phases\"",
            "\"counters\"",
            "\"gauges\"",
            "\"probe_latency\"",
            "\"top_instances\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
