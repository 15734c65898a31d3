//! The diff view: tolerance-based regression gates between two runs.
//!
//! A [`RunSummary`] condenses a trace into named metrics worth tracking
//! per commit: epoch and phase totals on both clocks, nearest-rank p95s
//! of the per-epoch durations (exact, because offline we have every
//! sample — unlike the live log-bucket histograms), and the final
//! counters. Summaries serialize to a small JSON object so a baseline can
//! be checked into the repo; [`diff_runs`] compares two of them metric by
//! metric and fails when a gated metric regresses beyond the tolerance.
//!
//! Which metrics are gated follows from the name alone: simulated-clock
//! metrics always (deterministic under a fixed seed), wall-clock metrics
//! only with [`DiffGates::gate_wall`] (they vary with the machine), and
//! counts never.

use crate::report::TraceReport;
use crate::run::RunTrace;
use nessa_telemetry::json::JsonObject;
use nessa_telemetry::JsonValue;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Nearest-rank 95th percentile of `values` (0 when empty).
fn p95(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (0.95 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// The comparable condensation of one run: metric name → value.
///
/// The names are `epoch.count`, `epoch.total_sim_s`, `epoch.sim_p95`,
/// `epoch.total_wall_s`, `epoch.wall_p95`, and per phase
/// `phase.<name>.sim_total`, `phase.<name>.sim_p95`,
/// `phase.<name>.wall_total`, and per counter `counter.<name>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl RunSummary {
    /// Condenses a loaded trace. Sums run in epoch order.
    pub fn from_trace(trace: &RunTrace) -> Self {
        let report = TraceReport::from_trace(trace);
        let epoch_sim: Vec<f64> = report.epochs.iter().map(|e| e.sim_s).collect();
        let epoch_wall: Vec<f64> = report.epochs.iter().map(|e| e.wall_s).collect();
        let mut metrics = BTreeMap::from([
            ("epoch.count".to_string(), report.epochs.len() as f64),
            ("epoch.total_sim_s".to_string(), epoch_sim.iter().sum()),
            ("epoch.sim_p95".to_string(), p95(&epoch_sim)),
            ("epoch.total_wall_s".to_string(), epoch_wall.iter().sum()),
            ("epoch.wall_p95".to_string(), p95(&epoch_wall)),
        ]);
        // Phase name → (per-epoch sim seconds, per-epoch wall seconds).
        let mut phases: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for e in &report.epochs {
            for (name, p) in &e.phases {
                let (sim, wall) = phases.entry(name).or_default();
                sim.push(p.sim_s);
                wall.push(p.wall_s);
            }
        }
        for (name, (sim, wall)) in phases {
            metrics.insert(format!("phase.{name}.sim_total"), sim.iter().sum());
            metrics.insert(format!("phase.{name}.sim_p95"), p95(&sim));
            metrics.insert(format!("phase.{name}.wall_total"), wall.iter().sum());
        }
        for (name, &value) in &trace.counters {
            metrics.insert(format!("counter.{name}"), value as f64);
        }
        RunSummary { metrics }
    }

    /// Serializes the summary as
    /// `{"type":"nessa-run-summary","metrics":{…}}`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(JsonObject::new(), |obj, (name, &v)| obj.f64_field(name, v));
        JsonObject::new()
            .str_field("type", "nessa-run-summary")
            .raw_field("metrics", &metrics.finish())
            .finish()
    }

    /// Parses a serialized summary. Returns `None` when `v` is not a
    /// `nessa-run-summary` object with a `metrics` map of numbers.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        if v.get("type")?.as_str()? != "nessa-run-summary" {
            return None;
        }
        let metrics = v
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, value)| Some((name.clone(), value.as_f64()?)))
            .collect::<Option<_>>()?;
        Some(RunSummary { metrics })
    }
}

/// Regression-gate configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffGates {
    /// Maximum tolerated regression, in percent, on gated metrics.
    pub max_regress_pct: f64,
    /// Also gate wall-clock metrics (off by default: wall time varies
    /// with the machine; the simulated clock is deterministic).
    pub gate_wall: bool,
}

impl Default for DiffGates {
    fn default() -> Self {
        DiffGates {
            max_regress_pct: 10.0,
            gate_wall: false,
        }
    }
}

impl DiffGates {
    /// Whether the gate applies to `metric`, by its name: simulated-clock
    /// metrics always, wall-clock metrics only with `gate_wall`, and
    /// `epoch.count` and `counter.*` never.
    fn covers(&self, metric: &str) -> bool {
        if metric.starts_with("counter.") {
            return false;
        }
        match metric.rsplit('.').next() {
            Some("total_sim_s" | "sim_p95" | "sim_total") => true,
            Some("total_wall_s" | "wall_p95" | "wall_total") => self.gate_wall,
            _ => false,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffItem {
    /// Metric name, e.g. `phase.select.sim_p95`.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// Relative change in percent (positive = slower/bigger).
    pub delta_pct: f64,
    /// Whether the gate applies to this metric.
    pub gated: bool,
}

impl DiffItem {
    /// Whether this item trips its gate at `max_regress_pct`.
    pub fn regressed(&self, max_regress_pct: f64) -> bool {
        self.gated && self.delta_pct > max_regress_pct
    }
}

/// The outcome of comparing two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every compared metric, sorted by name.
    pub items: Vec<DiffItem>,
    /// The gates the comparison ran under.
    pub gates: DiffGates,
}

impl DiffReport {
    /// Whether every gated metric stayed within tolerance.
    pub fn passed(&self) -> bool {
        !self
            .items
            .iter()
            .any(|i| i.regressed(self.gates.max_regress_pct))
    }

    /// Renders the human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run diff (gate: >{:.1}% regression on {} metrics fails)",
            self.gates.max_regress_pct,
            if self.gates.gate_wall {
                "sim+wall"
            } else {
                "sim"
            }
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:>14} {:>9}  gate",
            "metric", "baseline", "current", "delta"
        );
        for i in &self.items {
            let _ = writeln!(
                out,
                "  {:<28} {:>14.6e} {:>14.6e} {:>+8.2}%  {}",
                i.metric,
                i.base,
                i.current,
                i.delta_pct,
                if !i.gated {
                    "-"
                } else if i.regressed(self.gates.max_regress_pct) {
                    "FAIL"
                } else {
                    "ok"
                }
            );
        }
        let _ = writeln!(out, "  => {}", if self.passed() { "PASS" } else { "FAIL" });
        out
    }
}

/// Compares two summaries under the given gates, one row per metric
/// named in either. A metric absent from a summary counts as 0; one
/// that is 0 in the baseline has no meaningful relative change, so it
/// is reported but never gated.
pub fn diff_runs(base: &RunSummary, current: &RunSummary, gates: DiffGates) -> DiffReport {
    let names: BTreeSet<&String> = base.metrics.keys().chain(current.metrics.keys()).collect();
    let items = names
        .into_iter()
        .map(|metric| {
            let b = base.metrics.get(metric).copied().unwrap_or(0.0);
            let c = current.metrics.get(metric).copied().unwrap_or(0.0);
            let delta_pct = if b != 0.0 {
                100.0 * (c - b) / b
            } else if c == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            DiffItem {
                metric: metric.clone(),
                base: b,
                current: c,
                delta_pct,
                gated: gates.covers(metric) && b != 0.0,
            }
        })
        .collect();
    DiffReport { items, gates }
}

/// Renders the `BENCH_pipeline.json` trajectory artifact: the diff
/// verdict plus both summaries, so CI uploads one self-contained file
/// per commit.
pub fn bench_artifact(base: &RunSummary, current: &RunSummary, report: &DiffReport) -> String {
    let diffs: Vec<String> = report
        .items
        .iter()
        .map(|i| {
            JsonObject::new()
                .str_field("metric", &i.metric)
                .f64_field("base", i.base)
                .f64_field("current", i.current)
                .f64_field("delta_pct", i.delta_pct)
                .raw_field("gated", &i.gated.to_string())
                .raw_field(
                    "regressed",
                    &i.regressed(report.gates.max_regress_pct).to_string(),
                )
                .finish()
        })
        .collect();
    let mut out = JsonObject::new()
        .str_field("type", "nessa-bench-pipeline")
        .raw_field("passed", &report.passed().to_string())
        .f64_field("max_regress_pct", report.gates.max_regress_pct)
        .raw_field("gate_wall", &report.gates.gate_wall.to_string())
        .raw_field("baseline", &base.to_json())
        .raw_field("current", &current.to_json())
        .raw_field("diffs", &format!("[{}]", diffs.join(",")))
        .finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_telemetry::{SpanRecord, SpanTree};

    fn trace_with_epoch_sims(sims: &[f64]) -> RunTrace {
        let mut spans = Vec::new();
        let mut id = 1u64;
        for (epoch, &sim) in sims.iter().enumerate() {
            let parent = id;
            spans.push(SpanRecord {
                id: parent,
                parent: None,
                name: "epoch".into(),
                attrs: vec![("epoch".into(), (epoch as u64).into())],
                start_secs: epoch as f64,
                wall_secs: 0.5,
                sim_secs: sim,
            });
            id += 1;
            for (name, frac) in [("select", 0.6), ("train", 0.0)] {
                spans.push(SpanRecord {
                    id,
                    parent: Some(parent),
                    name: name.into(),
                    attrs: vec![("epoch".into(), (epoch as u64).into())],
                    start_secs: epoch as f64,
                    wall_secs: 0.2,
                    sim_secs: sim * frac,
                });
                id += 1;
            }
        }
        let mut trace = RunTrace {
            tree: SpanTree::build(spans),
            ..RunTrace::default()
        };
        trace.counters.insert("train.batches".into(), 40);
        trace
    }

    fn regressed_names(report: &DiffReport) -> Vec<&str> {
        report
            .items
            .iter()
            .filter(|i| i.regressed(report.gates.max_regress_pct))
            .map(|i| i.metric.as_str())
            .collect()
    }

    #[test]
    fn p95_is_exact_nearest_rank() {
        assert_eq!(p95(&[5.0, 1.0, 3.0, 2.0, 4.0]), 5.0);
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(p95(&twenty), 19.0);
        assert_eq!(p95(&[]), 0.0);
    }

    #[test]
    fn gate_class_follows_the_metric_name() {
        let sim_only = DiffGates::default();
        let wall = DiffGates {
            gate_wall: true,
            ..DiffGates::default()
        };
        for m in ["epoch.total_sim_s", "epoch.sim_p95", "phase.a.b.sim_total"] {
            assert!(sim_only.covers(m) && wall.covers(m), "{m}");
        }
        for m in ["epoch.total_wall_s", "epoch.wall_p95", "phase.x.wall_total"] {
            assert!(!sim_only.covers(m) && wall.covers(m), "{m}");
        }
        for m in [
            "epoch.count",
            "counter.train.batches",
            "counter.x.sim_total",
        ] {
            assert!(!sim_only.covers(m) && !wall.covers(m), "{m}");
        }
    }

    #[test]
    fn summary_json_round_trips() {
        let summary = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.2, 0.9]));
        let json = summary.to_json();
        let back = RunSummary::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn identical_runs_pass() {
        let s = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.1]));
        let report = diff_runs(&s, &s, DiffGates::default());
        assert!(report.passed());
        assert!(regressed_names(&report).is_empty());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.0, 1.0]));
        // 50 % slower epochs: way past the 10 % default tolerance.
        let slow = RunSummary::from_trace(&trace_with_epoch_sims(&[1.5, 1.5, 1.5]));
        let report = diff_runs(&base, &slow, DiffGates::default());
        assert!(!report.passed());
        let names = regressed_names(&report);
        assert!(names.contains(&"epoch.total_sim_s"), "{names:?}");
        assert!(names.contains(&"phase.select.sim_p95"), "{names:?}");
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn improvements_and_tolerated_noise_pass() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.0]));
        let faster = RunSummary::from_trace(&trace_with_epoch_sims(&[0.5, 0.5]));
        assert!(diff_runs(&base, &faster, DiffGates::default()).passed());
        let slightly_slower = RunSummary::from_trace(&trace_with_epoch_sims(&[1.05, 1.05]));
        assert!(diff_runs(&base, &slightly_slower, DiffGates::default()).passed());
    }

    #[test]
    fn wall_gating_is_opt_in() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0]));
        let mut cur = base.clone();
        *cur.metrics.get_mut("epoch.total_wall_s").unwrap() *= 10.0;
        assert!(diff_runs(&base, &cur, DiffGates::default()).passed());
        let gates = DiffGates {
            gate_wall: true,
            ..DiffGates::default()
        };
        assert!(!diff_runs(&base, &cur, gates).passed());
    }

    #[test]
    fn new_phase_is_reported_but_not_gated() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0]));
        let mut cur = base.clone();
        cur.metrics.insert("phase.newphase.sim_total".into(), 5.0);
        let report = diff_runs(&base, &cur, DiffGates::default());
        assert!(report.passed());
        let item = report
            .items
            .iter()
            .find(|i| i.metric == "phase.newphase.sim_total")
            .unwrap();
        assert!(!item.gated);
        assert!(item.delta_pct.is_infinite());
    }

    #[test]
    fn bench_artifact_is_valid_json_with_verdict() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.0]));
        let cur = RunSummary::from_trace(&trace_with_epoch_sims(&[2.0, 2.0]));
        let report = diff_runs(&base, &cur, DiffGates::default());
        let artifact = bench_artifact(&base, &cur, &report);
        let v = JsonValue::parse(&artifact).unwrap();
        assert_eq!(
            v.get("type").unwrap().as_str(),
            Some("nessa-bench-pipeline")
        );
        assert_eq!(v.get("passed"), Some(&JsonValue::Bool(false)));
        assert!(v.get("diffs").unwrap().as_arr().unwrap().len() > 5);
        let back = RunSummary::from_json(v.get("current").unwrap()).unwrap();
        assert_eq!(back, cur);
    }
}
