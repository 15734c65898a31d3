//! Regression pin for the *measured* overlap ratio on a golden trace.
//!
//! The fixture is the span shape an overlapped profile run emits on a
//! machine with two or more cores (worker round and trainer genuinely
//! concurrent), with hand-rounded wall times so the expected ratios are
//! exact. Three epochs:
//!
//! * **epoch 0** — synchronous prologue round (`scan`/`select`/`ship`
//!   direct children) plus a pipelined round for epoch 1 under an
//!   `overlap.select` wrapper; the `train` interval `[4.2 ms, 8.0 ms]`
//!   sits entirely inside the wrapper `[4.0 ms, 8.6 ms]`, so the shorter
//!   (train) side is fully hidden → ratio 1.0,
//! * **epoch 1** — steady state; the round `[12.8 ms, 16.8 ms]` overlaps
//!   train `[13.0 ms, 18.0 ms]` for 3.8 ms of the round's 4.0 ms →
//!   ratio 0.95,
//! * **epoch 2** — final epoch, nothing left to select; no ratio.
//!
//! Any change to the interval bookkeeping in `TraceReport::from_trace`
//! that shifts these numbers fails here against checked-in bytes.

use nessa_trace::{RunTrace, TraceReport};

fn golden() -> TraceReport {
    let trace = RunTrace::from_str(include_str!("fixtures/overlap_profile.jsonl"))
        .expect("golden overlap trace parses");
    TraceReport::from_trace(&trace)
}

#[test]
fn measured_ratios_match_the_golden_trace() {
    let rep = golden();
    assert_eq!(rep.epochs.len(), 3);
    let r0 = rep.epochs[0].overlap_ratio.expect("epoch 0 has both sides");
    assert!(
        (r0 - 1.0).abs() < 1e-12,
        "train fully inside the round must measure 1.0, got {r0}"
    );
    let r1 = rep.epochs[1].overlap_ratio.expect("epoch 1 has both sides");
    assert!((r1 - 0.95).abs() < 1e-9, "expected 0.95, got {r1}");
    assert_eq!(
        rep.epochs[2].overlap_ratio, None,
        "the final epoch spawns no round, so there is nothing to measure"
    );
}

#[test]
fn mean_measured_ratio_averages_only_measurable_epochs() {
    let rep = golden();
    let mean = rep.mean_overlap_ratio().expect("two measurable epochs");
    assert!((mean - 0.975).abs() < 1e-9, "expected 0.975, got {mean}");
}

#[test]
fn phase_breakdown_reports_the_wrapper_not_its_children() {
    // Per-epoch phase stats stay direct-children-only (baseline summary
    // compatibility): the pipelined round appears as `overlap.select`,
    // and its nested scan/select/ship do not leak into epoch 1's table.
    let rep = golden();
    let e1 = &rep.epochs[1];
    assert!(e1.phases.contains_key("overlap.select"));
    assert!(e1.phases.contains_key("overlap.wait"));
    assert!(e1.phases.contains_key("overlap.handoff"));
    assert!(!e1.phases.contains_key("scan"));
    assert!(!e1.phases.contains_key("ship"));
}

#[test]
fn render_prints_the_measured_ratio() {
    let text = golden().render();
    assert!(text.contains("mean measured overlap ratio: 0.975"));
}
