//! Pins every row `trace diff` produces, bit for bit, so a change to how
//! a run is summarized or gated shows up as a named metric here.
//!
//! Two inputs: the two checked-in CI baselines (each diffed against
//! itself with wall gating on), and a synthetic three-epoch trace diffed
//! against a copy whose spans take 1.5x as long, under the default gates
//! and under `--wall`. Rows are compared sorted by metric name.

use nessa_telemetry::{JsonValue, SpanRecord, SpanTree};
use nessa_trace::{diff_runs, DiffGates, DiffReport, RunSummary, RunTrace};

const PROFILE_BASELINE: &str = include_str!("../../bench/baselines/profile_baseline.json");
const OVERLAP_BASELINE: &str = include_str!("../../bench/baselines/overlap_baseline.json");

fn load(text: &str) -> RunSummary {
    RunSummary::from_json(&JsonValue::parse(text).expect("baseline parses"))
        .expect("baseline is a run summary")
}

fn sorted(report: &DiffReport) -> Vec<&nessa_trace::DiffItem> {
    let mut items: Vec<_> = report.items.iter().collect();
    items.sort_by(|a, b| a.metric.cmp(&b.metric));
    items
}

fn baseline_rows(text: &str) -> Vec<(String, u64, bool)> {
    let b = load(text);
    let gates = DiffGates {
        gate_wall: true,
        ..Default::default()
    };
    let report = diff_runs(&b, &b, gates);
    assert!(report.passed());
    sorted(&report)
        .into_iter()
        .map(|i| {
            assert_eq!(i.base.to_bits(), i.current.to_bits(), "{}", i.metric);
            (i.metric.clone(), i.base.to_bits(), i.gated)
        })
        .collect()
}

fn check_baseline(text: &str, expected: &[(&str, u64, bool)]) {
    let rows = baseline_rows(text);
    let expected: Vec<(String, u64, bool)> = expected
        .iter()
        .map(|&(m, bits, gated)| (m.to_string(), bits, gated))
        .collect();
    assert_eq!(rows, expected);
}

/// Three epochs of scan/select/train/feedback with fixed seconds, every
/// span `scale` times as long; epoch 1 has no `feedback` span.
fn synthetic(scale: f64) -> RunTrace {
    let mut spans = Vec::new();
    let mut id = 1u64;
    for epoch in 0..3u64 {
        let e = epoch as f64;
        let parent = id;
        id += 1;
        spans.push(SpanRecord {
            id: parent,
            parent: None,
            name: "epoch".into(),
            attrs: vec![("epoch".into(), epoch.into())],
            start_secs: e,
            wall_secs: (0.5 + 0.125 * e) * scale,
            sim_secs: (1.0 + 0.1 * e) * scale,
        });
        for (name, wall, sim) in [
            ("scan", 0.01 + 0.001 * e, 0.2),
            ("select", 0.3 - 0.02 * e, 0.5 + 0.1 * e),
            ("train", 0.15 + 0.01 * e, 0.0),
            ("feedback", 0.002, 0.05 + 0.01 * e),
        ] {
            if name == "feedback" && epoch == 1 {
                continue;
            }
            spans.push(SpanRecord {
                id,
                parent: Some(parent),
                name: name.into(),
                attrs: vec![("epoch".into(), epoch.into())],
                start_secs: e,
                wall_secs: wall * scale,
                sim_secs: sim * scale,
            });
            id += 1;
        }
    }
    let mut trace = RunTrace {
        tree: SpanTree::build(spans),
        ..RunTrace::default()
    };
    trace
        .counters
        .insert("select.gain_evals".into(), (1200.0 * scale) as u64);
    trace.counters.insert("train.batches".into(), 40);
    trace
}

type SynthRow = (&'static str, u64, u64, bool, bool);

fn check_synthetic(gates: DiffGates, expected: &[SynthRow], passed: bool) {
    let base = RunSummary::from_trace(&synthetic(1.0));
    let slow = RunSummary::from_trace(&synthetic(1.5));
    let report = diff_runs(&base, &slow, gates);
    let rows: Vec<(String, u64, u64, bool, bool)> = sorted(&report)
        .into_iter()
        .map(|i| {
            (
                i.metric.clone(),
                i.base.to_bits(),
                i.current.to_bits(),
                i.gated,
                i.regressed(gates.max_regress_pct),
            )
        })
        .collect();
    let expected: Vec<(String, u64, u64, bool, bool)> = expected
        .iter()
        .map(|&(m, b, c, g, r)| (m.to_string(), b, c, g, r))
        .collect();
    assert_eq!(rows, expected);
    assert_eq!(report.passed(), passed);
}

#[test]
fn profile_baseline_rows_are_pinned() {
    check_baseline(PROFILE_BASELINE, PROFILE_ROWS);
}

#[test]
fn overlap_baseline_rows_are_pinned() {
    check_baseline(OVERLAP_BASELINE, OVERLAP_ROWS);
}

#[test]
fn synthetic_diff_rows_are_pinned_under_default_gates() {
    check_synthetic(DiffGates::default(), SYNTH_SIM_ROWS, false);
}

#[test]
fn synthetic_diff_rows_are_pinned_with_wall_gating() {
    let gates = DiffGates {
        gate_wall: true,
        ..Default::default()
    };
    check_synthetic(gates, SYNTH_WALL_ROWS, false);
}

#[rustfmt::skip]
const PROFILE_ROWS: &[(&str, u64, bool)] = &[
    ("counter.health.stalls", 0x0000000000000000, false),
    ("counter.select.chunks", 0x4048000000000000, false),
    ("counter.select.classes", 0x4038000000000000, false),
    ("counter.select.gain_evals", 0x40ce0c8000000000, false),
    ("counter.select.greedy_rounds", 0x4091400000000000, false),
    ("counter.train.batches", 0x4042000000000000, false),
    ("counter.train.samples", 0x4091400000000000, false),
    ("epoch.count", 0x4018000000000000, false),
    ("epoch.sim_p95", 0x3f5991512695a4fa, true),
    ("epoch.total_sim_s", 0x3f832cfcdcf03bbb, true),
    ("epoch.total_wall_s", 0x3faaea2d9f8f40c0, true),
    ("epoch.wall_p95", 0x3f8892eec965a8eb, true),
    ("phase.feedback.sim_p95", 0x3ed9bcbf8e75cf10, true),
    ("phase.feedback.sim_total", 0x3f034d8faad85b4c, true),
    ("phase.feedback.wall_total", 0x3f1a0358c763cea9, true),
    ("phase.scan.sim_p95", 0x3f54488c60cbf2b2, true),
    ("phase.scan.sim_total", 0x3f7e6cd29131ec0a, true),
    ("phase.scan.wall_total", 0x3ee2c69af34fb234, true),
    ("phase.select.sim_p95", 0x3f08955349eb628b, true),
    ("phase.select.sim_total", 0x3f326ffe777089e8, true),
    ("phase.select.wall_total", 0x3fa81f8646f04338, true),
    ("phase.ship.sim_p95", 0x3f31a975afaf8594, true),
    ("phase.ship.sim_total", 0x3f5a7e308787485e, true),
    ("phase.ship.wall_total", 0x3ec85c4ae22f1245, true),
    ("phase.train.sim_p95", 0x0000000000000000, false),
    ("phase.train.sim_total", 0x0000000000000000, false),
    ("phase.train.wall_total", 0x3f7035c19cb1c0c7, true),
];
#[rustfmt::skip]
const OVERLAP_ROWS: &[(&str, u64, bool)] = &[
    ("counter.data.quarantined", 0x0000000000000000, false),
    ("counter.drive.evicted", 0x0000000000000000, false),
    ("counter.fallback.host", 0x0000000000000000, false),
    ("counter.fallback.random", 0x0000000000000000, false),
    ("counter.fault.injected", 0x0000000000000000, false),
    ("counter.health.stalls", 0x0000000000000000, false),
    ("counter.retry.attempts", 0x0000000000000000, false),
    ("counter.select.chunks", 0x405e000000000000, false),
    ("counter.select.classes", 0x4044000000000000, false),
    ("counter.select.gain_evals", 0x40d6594000000000, false),
    ("counter.select.greedy_rounds", 0x409c200000000000, false),
    ("counter.train.batches", 0x405e000000000000, false),
    ("counter.train.samples", 0x409c200000000000, false),
    ("epoch.count", 0x4024000000000000, false),
    ("epoch.sim_p95", 0x3f6a7ad6dc1453da, true),
    ("epoch.total_sim_s", 0x3f90a5631e940cc5, true),
    ("epoch.total_wall_s", 0x3fd186000e0697b9, true),
    ("epoch.wall_p95", 0x3fa4bfef07a3fd0f, true),
    ("phase.overlap.handoff.sim_p95", 0x3ef226483e323fc3, true),
    ("phase.overlap.handoff.sim_total", 0x3f26afda4dbecfb3, true),
    ("phase.overlap.handoff.wall_total", 0x3f5a0ea01214e6a8, true),
    ("phase.overlap.select.sim_p95", 0x3f5a568a4b97ef5a, true),
    ("phase.overlap.select.sim_total", 0x3f8da15b950aed44, true),
    ("phase.overlap.select.wall_total", 0x3fca4b416fbf8920, true),
    ("phase.overlap.wait.sim_p95", 0x0000000000000000, false),
    ("phase.overlap.wait.sim_total", 0x0000000000000000, false),
    ("phase.overlap.wait.wall_total", 0x3fb62e9e00ba17c7, true),
    ("phase.scan.sim_p95", 0x3f54488c60cbf2b2, true),
    ("phase.scan.sim_total", 0x3f54488c60cbf2b2, true),
    ("phase.scan.wall_total", 0x3ebe4cb5fff07f73, true),
    ("phase.select.sim_p95", 0x3f1bbbe82d720c7e, true),
    ("phase.select.sim_total", 0x3f1bbbe82d720c7e, true),
    ("phase.select.wall_total", 0x3f8f1f194ad4ba82, true),
    ("phase.ship.sim_p95", 0x3f3148fd9fd36f7e, true),
    ("phase.ship.sim_total", 0x3f3148fd9fd36f7e, true),
    ("phase.ship.wall_total", 0x3eb4f46a05e95f3b, true),
    ("phase.train.sim_p95", 0x0000000000000000, false),
    ("phase.train.sim_total", 0x0000000000000000, false),
    ("phase.train.wall_total", 0x3fbd3e6e766674e6, true),
];
#[rustfmt::skip]
const SYNTH_SIM_ROWS: &[SynthRow] = &[
    ("counter.select.gain_evals", 0x4092c00000000000, 0x409c200000000000, false, false),
    ("counter.train.batches", 0x4044000000000000, 0x4044000000000000, false, false),
    ("epoch.count", 0x4008000000000000, 0x4008000000000000, false, false),
    ("epoch.sim_p95", 0x3ff3333333333333, 0x3ffccccccccccccc, true, true),
    ("epoch.total_sim_s", 0x400a666666666666, 0x4013cccccccccccd, true, true),
    ("epoch.total_wall_s", 0x3ffe000000000000, 0x4006800000000000, false, false),
    ("epoch.wall_p95", 0x3fe8000000000000, 0x3ff2000000000000, false, false),
    ("phase.feedback.sim_p95", 0x3fb1eb851eb851ec, 0x3fbae147ae147ae2, true, true),
    ("phase.feedback.sim_total", 0x3fbeb851eb851eb9, 0x3fc70a3d70a3d70b, true, true),
    ("phase.feedback.wall_total", 0x3f70624dd2f1a9fc, 0x3f789374bc6a7efa, false, false),
    ("phase.scan.sim_p95", 0x3fc999999999999a, 0x3fd3333333333334, true, true),
    ("phase.scan.sim_total", 0x3fe3333333333334, 0x3fecccccccccccce, true, true),
    ("phase.scan.wall_total", 0x3fa0e5604189374c, 0x3fa95810624dd2f2, false, false),
    ("phase.select.sim_p95", 0x3fe6666666666666, 0x3ff0cccccccccccc, true, true),
    ("phase.select.sim_total", 0x3ffccccccccccccd, 0x4005999999999999, true, true),
    ("phase.select.wall_total", 0x3feae147ae147ae1, 0x3ff428f5c28f5c28, false, false),
    ("phase.train.sim_p95", 0x0000000000000000, 0x0000000000000000, false, false),
    ("phase.train.sim_total", 0x0000000000000000, 0x0000000000000000, false, false),
    ("phase.train.wall_total", 0x3fdeb851eb851eb8, 0x3fe70a3d70a3d70a, false, false),
];
#[rustfmt::skip]
const SYNTH_WALL_ROWS: &[SynthRow] = &[
    ("counter.select.gain_evals", 0x4092c00000000000, 0x409c200000000000, false, false),
    ("counter.train.batches", 0x4044000000000000, 0x4044000000000000, false, false),
    ("epoch.count", 0x4008000000000000, 0x4008000000000000, false, false),
    ("epoch.sim_p95", 0x3ff3333333333333, 0x3ffccccccccccccc, true, true),
    ("epoch.total_sim_s", 0x400a666666666666, 0x4013cccccccccccd, true, true),
    ("epoch.total_wall_s", 0x3ffe000000000000, 0x4006800000000000, true, true),
    ("epoch.wall_p95", 0x3fe8000000000000, 0x3ff2000000000000, true, true),
    ("phase.feedback.sim_p95", 0x3fb1eb851eb851ec, 0x3fbae147ae147ae2, true, true),
    ("phase.feedback.sim_total", 0x3fbeb851eb851eb9, 0x3fc70a3d70a3d70b, true, true),
    ("phase.feedback.wall_total", 0x3f70624dd2f1a9fc, 0x3f789374bc6a7efa, true, true),
    ("phase.scan.sim_p95", 0x3fc999999999999a, 0x3fd3333333333334, true, true),
    ("phase.scan.sim_total", 0x3fe3333333333334, 0x3fecccccccccccce, true, true),
    ("phase.scan.wall_total", 0x3fa0e5604189374c, 0x3fa95810624dd2f2, true, true),
    ("phase.select.sim_p95", 0x3fe6666666666666, 0x3ff0cccccccccccc, true, true),
    ("phase.select.sim_total", 0x3ffccccccccccccd, 0x4005999999999999, true, true),
    ("phase.select.wall_total", 0x3feae147ae147ae1, 0x3ff428f5c28f5c28, true, true),
    ("phase.train.sim_p95", 0x0000000000000000, 0x0000000000000000, false, false),
    ("phase.train.sim_total", 0x0000000000000000, 0x0000000000000000, false, false),
    ("phase.train.wall_total", 0x3fdeb851eb851eb8, 0x3fe70a3d70a3d70a, true, true),
];
