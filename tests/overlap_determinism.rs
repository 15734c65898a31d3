//! Determinism harness for overlapped epoch pipelining.
//!
//! Three contracts, end to end:
//!
//! 1. **The sequential path is frozen.** With `overlap` off, the run
//!    report is byte-identical to the JSONL baseline checked in before
//!    the overlap refactor (`tests/fixtures/pr4_run_report.jsonl`) — the
//!    refactor that extracted the shared selection round moved code, not
//!    behavior.
//! 2. **The overlapped path is frozen and reproducible.** Fault-free and
//!    on the host rung of the fault ladder, the overlapped report is
//!    byte-identical to the baselines checked in before the sequential
//!    and overlapped loops were merged into one
//!    (`tests/fixtures/pr8_overlap_*.jsonl`). Two overlapped runs of the
//!    same seed produce byte-identical reports even though a worker
//!    thread races the trainer: every round draws from an RNG stream
//!    pre-split at run start, and all recorded times are simulated.
//! 3. **Concurrency adds no divergence of its own.** With the feedback
//!    loop off (so one-epoch-stale weights equal fresh weights and the
//!    trainer cannot influence selection), the overlapped schedule
//!    selects exactly the subsets the sequential schedule selects.
//!    Turning feedback back on routes the documented divergences in —
//!    the §3.2.1 one-epoch staleness, plus each mode's own trainer
//!    shuffle stream — and the prologue round (staleness 0, identical
//!    initial weights) still matches.

use nessa::core::{NessaConfig, NessaPipeline};
use nessa::data::SynthConfig;
use nessa::nn::models::mlp;
use nessa::smartssd::FaultPlan;
use nessa::tensor::rng::Rng64;

/// The exact fixture the PR-4 baseline was generated from.
fn baseline_pipeline(cfg: &NessaConfig) -> NessaPipeline {
    let synth = SynthConfig {
        train: 300,
        test: 120,
        dim: 8,
        classes: 3,
        cluster_std: 0.6,
        class_sep: 3.5,
        ..SynthConfig::default()
    };
    let (train, test) = synth.generate();
    let mut rng = Rng64::new(cfg.seed);
    let target = mlp(&[8, 24, 3], &mut rng);
    let selector = mlp(&[8, 24, 3], &mut rng);
    NessaPipeline::new(cfg.clone(), target, selector, train, test)
}

fn baseline_cfg() -> NessaConfig {
    NessaConfig::new(0.3, 6).with_batch_size(32).with_seed(7)
}

#[test]
fn sequential_report_is_byte_identical_to_pr4_baseline() {
    let report = baseline_pipeline(&baseline_cfg()).run().unwrap();
    let golden = include_str!("fixtures/pr4_run_report.jsonl");
    assert_eq!(
        report.to_jsonl(),
        golden,
        "sequential mode must reproduce the pre-overlap baseline byte for byte"
    );
}

#[test]
fn overlapped_report_is_byte_identical_to_golden() {
    let report = baseline_pipeline(&baseline_cfg().with_overlap(true))
        .run()
        .unwrap();
    let golden = include_str!("fixtures/pr8_overlap_report.jsonl");
    assert_eq!(
        report.to_jsonl(),
        golden,
        "the overlapped schedule must reproduce the pre-merge baseline byte for byte"
    );
}

#[test]
fn overlapped_faulty_report_is_byte_identical_to_golden() {
    // Two drives; drive 1's FPGA kernel aborts three times in a row from
    // kernel op 1. That exhausts the default three-attempt retry budget
    // once, so one round rides the host rung of the degradation ladder.
    let cfg = baseline_cfg()
        .with_overlap(true)
        .with_drives(2)
        .with_fault_plan(1, FaultPlan::none().with_kernel_abort(1, 3));
    let report = baseline_pipeline(&cfg).run().unwrap();
    let golden = include_str!("fixtures/pr8_overlap_faulty_report.jsonl");
    assert_eq!(
        report.to_jsonl(),
        golden,
        "the overlapped fault ladder must reproduce the pre-merge baseline byte for byte"
    );
}

#[test]
fn overlap_off_is_the_default() {
    // The baseline config never opts in, so the identity above really
    // exercises the default path.
    assert!(!baseline_cfg().overlap);
}

#[test]
fn overlapped_runs_are_byte_identical_across_executions() {
    let cfg = baseline_cfg().with_overlap(true);
    let a = baseline_pipeline(&cfg).run().unwrap();
    let b = baseline_pipeline(&cfg).run().unwrap();
    assert_eq!(
        a.to_jsonl(),
        b.to_jsonl(),
        "thread interleaving must not leak into the report"
    );
    assert_eq!(a.accuracy_curve(), b.accuracy_curve());
    assert_eq!(a.traffic, b.traffic);
}

#[test]
fn overlapped_selection_matches_sequential_when_feedback_is_frozen() {
    // Feedback off ⇒ the selector keeps its initial weights forever, so
    // "one epoch stale" and "fresh" are the same weights. Biasing and
    // partitioning off ⇒ the candidate pool is static and the facility-
    // location picks are RNG-independent. Any remaining difference
    // between the schedules would be a concurrency bug.
    let cfg = baseline_cfg()
        .with_feedback(false)
        .with_subset_biasing(false)
        .with_partitioning(false);
    let mut seq = baseline_pipeline(&cfg);
    seq.run().unwrap();
    let mut ovl = baseline_pipeline(&cfg.clone().with_overlap(true));
    ovl.run().unwrap();
    assert_eq!(
        seq.selection_history(),
        ovl.selection_history(),
        "with feedback frozen the overlapped schedule must select identical subsets"
    );
}

#[test]
fn overlapped_selection_diverges_once_feedback_is_live() {
    // Same setup but with the feedback loop live: the overlapped worker
    // selects S_{e+1} with weights one epoch older than the sequential
    // schedule uses (and each mode trains with its own shuffle stream).
    // Epoch 0 (the synchronous prologue, staleness 0, identical initial
    // weights) still matches; later rounds differ.
    let cfg = baseline_cfg()
        .with_subset_biasing(false)
        .with_partitioning(false);
    let mut seq = baseline_pipeline(&cfg);
    seq.run().unwrap();
    let mut ovl = baseline_pipeline(&cfg.clone().with_overlap(true));
    let report = ovl.run().unwrap();
    let seq_hist = seq.selection_history();
    let ovl_hist = ovl.selection_history();
    assert_eq!(seq_hist.len(), ovl_hist.len());
    assert_eq!(
        seq_hist[0], ovl_hist[0],
        "the prologue round selects with identical (initial) weights"
    );
    assert_ne!(
        seq_hist, ovl_hist,
        "live feedback must surface the one-epoch staleness in later rounds"
    );
    // And the report says exactly that: staleness 0 at the prologue,
    // 1 everywhere else.
    for rec in &report.epochs {
        let o = rec.overlap.as_ref().expect("overlap mode records a ledger");
        let expect = usize::from(rec.epoch > 0);
        assert_eq!(o.staleness, expect, "epoch {}", rec.epoch);
    }
}
