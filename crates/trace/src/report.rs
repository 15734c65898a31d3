//! The report view: where did the epoch go?

use crate::run::RunTrace;
use nessa_telemetry::HistogramSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate of one phase's spans within a scope (one epoch or the run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Number of spans.
    pub count: usize,
    /// Summed host wall seconds.
    pub wall_s: f64,
    /// Summed simulated device seconds.
    pub sim_s: f64,
}

impl PhaseStat {
    fn add(&mut self, wall_s: f64, sim_s: f64) {
        self.count += 1;
        self.wall_s += wall_s;
        self.sim_s += sim_s;
    }
}

/// One epoch's time breakdown.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Epoch number (from the `epoch` span attribute).
    pub epoch: u64,
    /// The epoch span's host wall seconds.
    pub wall_s: f64,
    /// The epoch span's simulated device seconds.
    pub sim_s: f64,
    /// Phase name → aggregate over the epoch span's children.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Span names along the most-expensive descendant chain (dominant
    /// clock, see `SpanRecord::cost_secs`), starting at `epoch`.
    pub critical_path: Vec<String>,
    /// **Measured** selection-vs-training concurrency, from real span
    /// intervals: the wall-clock intersection of the selection side
    /// (scan/select/ship/fallback/retry/`overlap.select` spans anywhere
    /// in the epoch subtree) with the `train` spans, divided by the
    /// shorter side's union length. 1.0 means the shorter side ran
    /// entirely under the longer one; a sequential schedule measures
    /// ≈ 0. `None` when either side is absent or took no measurable
    /// wall time.
    pub overlap_ratio: Option<f64>,
}

/// Span names that count as the near-storage selection side when
/// measuring concurrency against `train` spans.
const SELECT_SIDE: &[&str] = &[
    "scan",
    "select",
    "ship",
    "fallback",
    "retry",
    "overlap.select",
];

/// Sorts and merges wall-clock intervals into a disjoint union.
fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn union_len(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// Total overlap between two disjoint, sorted interval unions.
fn intersection_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// The full report over one run's trace.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Per-epoch breakdowns, ordered by epoch number.
    pub epochs: Vec<EpochReport>,
    /// Phase name → aggregate across all epochs.
    pub phase_totals: BTreeMap<String, PhaseStat>,
    /// Device phase label → (event count, summed sim seconds, bytes).
    pub device_phases: BTreeMap<String, (usize, f64, u64)>,
    /// Final histogram summaries (p50/p95/p99 come from the log-bucket
    /// histogram lines, so they carry its ~±15 % relative error).
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl TraceReport {
    /// Builds the report from a loaded trace.
    pub fn from_trace(trace: &RunTrace) -> Self {
        let mut epochs = Vec::new();
        let mut phase_totals: BTreeMap<String, PhaseStat> = BTreeMap::new();
        for root in trace.tree.roots().filter(|s| s.name == "epoch") {
            let mut rep = EpochReport {
                epoch: root.attr_u64("epoch").unwrap_or(u64::MAX),
                wall_s: root.wall_secs,
                sim_s: root.sim_secs,
                ..EpochReport::default()
            };
            for child in trace.tree.children(root.id) {
                rep.phases
                    .entry(child.name.clone())
                    .or_default()
                    .add(child.wall_secs, child.sim_secs);
                phase_totals
                    .entry(child.name.clone())
                    .or_default()
                    .add(child.wall_secs, child.sim_secs);
            }
            rep.critical_path = trace
                .tree
                .critical_path(root.id)
                .iter()
                .map(|s| s.name.clone())
                .collect();
            // Measured concurrency: collect wall intervals from the
            // whole epoch subtree (overlapped rounds nest their
            // scan/select/ship under an `overlap.select` wrapper, one
            // level down) and intersect the two sides.
            let mut select_iv: Vec<(f64, f64)> = Vec::new();
            let mut train_iv: Vec<(f64, f64)> = Vec::new();
            let mut stack: Vec<u64> = vec![root.id];
            while let Some(id) = stack.pop() {
                for child in trace.tree.children(id) {
                    stack.push(child.id);
                    let interval = (child.start_secs, child.start_secs + child.wall_secs);
                    if child.name == "train" {
                        train_iv.push(interval);
                    } else if SELECT_SIDE.contains(&child.name.as_str()) {
                        select_iv.push(interval);
                    }
                }
            }
            let select_u = merge_intervals(select_iv);
            let train_u = merge_intervals(train_iv);
            let shorter = union_len(&select_u).min(union_len(&train_u));
            rep.overlap_ratio =
                (shorter > 0.0).then(|| intersection_len(&select_u, &train_u) / shorter);
            epochs.push(rep);
        }
        epochs.sort_by_key(|e| e.epoch);
        let mut device_phases: BTreeMap<String, (usize, f64, u64)> = BTreeMap::new();
        for ev in &trace.device_events {
            let slot = device_phases.entry(ev.phase.clone()).or_default();
            slot.0 += 1;
            slot.1 += ev.duration_s;
            slot.2 += ev.bytes;
        }
        TraceReport {
            epochs,
            phase_totals,
            device_phases,
            histograms: trace.histograms.clone(),
        }
    }

    /// Mean **measured** selection-vs-training overlap ratio across
    /// epochs that have one (see [`EpochReport::overlap_ratio`]).
    pub fn mean_overlap_ratio(&self) -> Option<f64> {
        let ratios: Vec<f64> = self.epochs.iter().filter_map(|e| e.overlap_ratio).collect();
        (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64)
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace report ({} epochs)", self.epochs.len());
        out.push_str("  per-epoch breakdown (sim = simulated device clock, wall = host clock):\n");
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "    epoch {:<3} wall {:>10.6}s  sim {:>10.6}s  overlap {}",
                e.epoch,
                e.wall_s,
                e.sim_s,
                match e.overlap_ratio {
                    Some(r) => format!("{r:.3}"),
                    None => "-".into(),
                }
            );
            for (name, p) in &e.phases {
                let _ = writeln!(
                    out,
                    "      {:<10} x{:<2} wall {:>10.6}s  sim {:>10.6}s",
                    name, p.count, p.wall_s, p.sim_s
                );
            }
            let _ = writeln!(out, "      critical path: {}", e.critical_path.join(" > "));
        }
        out.push_str("  phase totals:\n");
        for (name, p) in &self.phase_totals {
            let _ = writeln!(
                out,
                "    {:<10} x{:<3} wall {:>10.6}s  sim {:>10.6}s",
                name, p.count, p.wall_s, p.sim_s
            );
        }
        if let Some(r) = self.mean_overlap_ratio() {
            let _ = writeln!(
                out,
                "  mean measured overlap ratio: {r:.3} (1 = shorter side fully hidden; sequential ≈ 0)"
            );
        }
        if !self.device_phases.is_empty() {
            out.push_str("  device events (sim clock):\n");
            for (name, (count, secs, bytes)) in &self.device_phases {
                let _ = writeln!(
                    out,
                    "    {:<12} x{:<4} {:>12.6}s  {:>14} B",
                    name, count, secs, bytes
                );
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms (count / p50 / p95 / p99):\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {:<28} {} / {:.3e} / {:.3e} / {:.3e}",
                    name, h.count, h.p50, h.p95, h.p99
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_telemetry::{SpanRecord, SpanTree};

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        epoch: u64,
        wall: f64,
        sim: f64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            attrs: vec![("epoch".into(), epoch.into())],
            start_secs: 0.0,
            wall_secs: wall,
            sim_secs: sim,
        }
    }

    fn two_epoch_trace() -> RunTrace {
        let spans = vec![
            span(1, None, "epoch", 0, 1.0, 0.9),
            span(2, Some(1), "scan", 0, 0.01, 0.3),
            span(3, Some(1), "select", 0, 0.02, 0.5),
            span(4, Some(1), "train", 0, 0.8, 0.0),
            span(5, Some(1), "feedback", 0, 0.01, 0.1),
            span(6, None, "epoch", 1, 1.1, 0.4),
            span(7, Some(6), "train", 1, 1.0, 0.0),
            span(8, Some(6), "feedback", 1, 0.01, 0.4),
        ];
        RunTrace {
            tree: SpanTree::build(spans),
            ..RunTrace::default()
        }
    }

    #[test]
    fn epochs_sorted_with_phase_stats() {
        let rep = TraceReport::from_trace(&two_epoch_trace());
        assert_eq!(rep.epochs.len(), 2);
        assert_eq!(rep.epochs[0].epoch, 0);
        let scan = &rep.epochs[0].phases["scan"];
        assert_eq!(scan.count, 1);
        assert_eq!(scan.sim_s, 0.3);
        assert_eq!(rep.phase_totals["train"].count, 2);
        assert!((rep.phase_totals["train"].wall_s - 1.8).abs() < 1e-12);
    }

    #[test]
    fn measured_overlap_comes_from_span_intervals() {
        // All two_epoch_trace spans start at t = 0, so epoch 0's select
        // side ([0, 0.02]) sits entirely inside train ([0, 0.8]):
        // measured ratio 1. Epoch 1 has no selection spans at all, so
        // there is nothing to measure.
        let rep = TraceReport::from_trace(&two_epoch_trace());
        let r0 = rep.epochs[0].overlap_ratio.unwrap();
        assert!((r0 - 1.0).abs() < 1e-12, "{r0}");
        assert_eq!(rep.epochs[1].overlap_ratio, None);
        let mean = rep.mean_overlap_ratio().unwrap();
        assert!((mean - 1.0).abs() < 1e-12);
    }

    fn span_at(id: u64, parent: Option<u64>, name: &str, start: f64, wall: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            attrs: vec![("epoch".into(), 0u64.into())],
            start_secs: start,
            wall_secs: wall,
            sim_secs: 0.0,
        }
    }

    #[test]
    fn measured_overlap_walks_nested_overlap_rounds() {
        // An overlapped epoch: the worker's scan/select/ship nest under
        // an `overlap.select` wrapper while train runs [0.0, 1.0].
        // Select-side union: wrapper [0.1, 0.9] already covers its
        // children (dedup via interval union), plus an exposed tail
        // retry [1.2, 1.4]. Intersection with train = 0.8; shorter side
        // = select union (0.8 + 0.2 = 1.0) vs train (1.0) → 0.8.
        let spans = vec![
            span_at(1, None, "epoch", 0.0, 1.5),
            span_at(2, Some(1), "train", 0.0, 1.0),
            span_at(3, Some(1), "overlap.select", 0.1, 0.8),
            span_at(4, Some(3), "scan", 0.1, 0.3),
            span_at(5, Some(3), "select", 0.4, 0.3),
            span_at(6, Some(3), "ship", 0.7, 0.2),
            span_at(7, Some(1), "retry", 1.2, 0.2),
            span_at(8, Some(1), "overlap.handoff", 1.0, 0.1),
        ];
        let trace = RunTrace {
            tree: SpanTree::build(spans),
            ..RunTrace::default()
        };
        let rep = TraceReport::from_trace(&trace);
        let r = rep.epochs[0].overlap_ratio.unwrap();
        assert!((r - 0.8).abs() < 1e-12, "{r}");
        // The handoff serializes: it never counts toward either side.
        // Direct-children phase stats still see the wrapper, not its
        // children.
        assert!(rep.epochs[0].phases.contains_key("overlap.select"));
        assert!(!rep.epochs[0].phases.contains_key("scan"));
    }

    #[test]
    fn interval_helpers_merge_and_intersect() {
        let merged = merge_intervals(vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (4.0, 4.0)]);
        assert_eq!(merged, vec![(0.0, 2.0), (3.0, 4.0)]);
        assert!((union_len(&merged) - 3.0).abs() < 1e-12);
        let other = merge_intervals(vec![(1.5, 3.5)]);
        assert!((intersection_len(&merged, &other) - 1.0).abs() < 1e-12);
        assert_eq!(intersection_len(&merged, &[]), 0.0);
    }

    #[test]
    fn critical_path_descends_dominant_phase() {
        let rep = TraceReport::from_trace(&two_epoch_trace());
        // epoch 0's dominant child is train (wall 0.8 > select sim 0.5).
        assert_eq!(rep.epochs[0].critical_path, vec!["epoch", "train"]);
        assert!(rep.render().contains("critical path: epoch > train"));
    }

    #[test]
    fn empty_trace_renders() {
        let rep = TraceReport::from_trace(&RunTrace::default());
        assert!(rep.epochs.is_empty());
        assert!(rep.render().contains("0 epochs"));
    }
}
