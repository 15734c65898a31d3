//! Chaos suite: the full pipeline under deterministic fault injection.
//!
//! Every test arms a seeded or explicit [`FaultPlan`] on the simulated
//! cluster and asserts the degradation ladder's contract end-to-end: the
//! run completes (or fails with the right typed error), accuracy stays
//! within tolerance of a fault-free run, and the fault-tolerance counters
//! (`fault.injected`, `retry.attempts`, `fallback.*`, `drive.evicted`,
//! `data.quarantined`) account for exactly what happened. All schedules
//! are op-indexed and all randomness is seeded, so each test replays a
//! byte-identical timeline on every execution.

use nessa::core::{NessaConfig, NessaPipeline, PipelineError, RetryPolicy, RunReport};
use nessa::data::SynthConfig;
use nessa::nn::models::mlp;
use nessa::smartssd::{DeviceError, FaultPlan, FaultSpec};
use nessa::telemetry::TelemetrySettings;
use nessa::tensor::rng::Rng64;
use proptest::prelude::*;

const EPOCHS: usize = 6;

/// The shared small fixture: easy synthetic blobs a tiny MLP learns in a
/// handful of epochs, so accuracy comparisons are stable.
fn pipeline_for(cfg: &NessaConfig) -> NessaPipeline {
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

fn chaos_cfg(epochs: usize) -> NessaConfig {
    NessaConfig::new(0.3, epochs)
        .with_batch_size(32)
        .with_seed(7)
        .with_telemetry(TelemetrySettings::memory())
}

/// Runs `cfg` to completion, returning the report and the pipeline (for
/// counters and device state).
fn run(cfg: &NessaConfig) -> (RunReport, NessaPipeline) {
    let mut p = pipeline_for(cfg);
    let report = p.run().expect("chaos run should complete");
    (report, p)
}

fn counter(p: &NessaPipeline, name: &str) -> u64 {
    p.telemetry()
        .metrics_snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn transient_read_errors_are_retried_to_completion() {
    // Two consecutive NAND read errors at scan op 2 (= epoch 2): the
    // default policy's three attempts absorb them without any fallback.
    let (clean, clean_p) = run(&chaos_cfg(EPOCHS));
    let cfg = chaos_cfg(EPOCHS).with_fault_plan(0, FaultPlan::none().with_read_error(2, 2));
    let (report, p) = run(&cfg);

    assert_eq!(counter(&p, "retry.attempts"), 2);
    assert_eq!(counter(&p, "fault.injected"), 2);
    assert_eq!(counter(&p, "fallback.host"), 0);
    assert_eq!(counter(&p, "fallback.random"), 0);
    assert_eq!(counter(&p, "drive.evicted"), 0);
    // Retries only cost simulated time; the training outcome is
    // untouched.
    assert_eq!(report.accuracy_curve(), clean.accuracy_curve());
    assert!(
        p.device().elapsed_secs() > clean_p.device().elapsed_secs(),
        "backoff must charge the drives' simulated clocks"
    );
}

#[test]
fn kernel_abort_falls_back_to_host_selection() {
    // A permanently failed kernel from kernel op 2 (= epoch 2) onward:
    // every later selection round retries, then stages the pool to the
    // host and selects there. Selection math is identical on the host,
    // so accuracy matches the fault-free run exactly.
    let clean = run(&chaos_cfg(EPOCHS)).0;
    let cfg =
        chaos_cfg(EPOCHS).with_fault_plan(0, FaultPlan::none().with_kernel_abort(2, u32::MAX));
    let (report, p) = run(&cfg);

    let failed_rounds = (EPOCHS - 2) as u64;
    assert_eq!(counter(&p, "fallback.host"), failed_rounds);
    assert_eq!(counter(&p, "retry.attempts"), 2 * failed_rounds);
    assert_eq!(counter(&p, "fallback.random"), 0);
    assert_eq!(report.accuracy_curve(), clean.accuracy_curve());
    let spans = p.telemetry().spans();
    assert!(
        spans.iter().any(|s| s.name == "fallback"),
        "host fallback must be visible as a span"
    );
    assert!(spans.iter().any(|s| s.name == "retry"));
}

#[test]
fn scan_exhaustion_falls_back_to_host_read() {
    // A three-deep read-error burst at scan op 1 (= epoch 1) outlasts the
    // default three attempts: the P2P scan path is out, so the round
    // stages the pool to the host instead and selects there. The staged
    // pool is already host-resident, so that round ships nothing.
    let (clean, _) = run(&chaos_cfg(EPOCHS));
    let cfg = chaos_cfg(EPOCHS).with_fault_plan(0, FaultPlan::none().with_read_error(1, 3));
    let (report, p) = run(&cfg);

    assert_eq!(counter(&p, "retry.attempts"), 2);
    assert_eq!(counter(&p, "fault.injected"), 3);
    assert_eq!(counter(&p, "fallback.host"), 1);
    assert_eq!(counter(&p, "fallback.random"), 0);
    // Host selection runs the same math, so training is untouched.
    assert_eq!(report.accuracy_curve(), clean.accuracy_curve());
    let spans = p.telemetry().spans();
    let ship_1 = spans
        .iter()
        .find(|s| s.name == "ship" && s.attr_u64("epoch") == Some(1))
        .expect("epoch 1 ship span");
    assert_eq!(ship_1.sim_secs, 0.0, "a host-resident subset ships free");
    assert_eq!(report.traffic.staged_to_host, 900_000);
    assert_eq!(report.traffic.fpga_to_host, 1_350_000);
    assert_eq!(clean.traffic.fpga_to_host, 1_620_000);
}

#[test]
fn host_read_failure_degrades_to_seeded_random_selection() {
    // Epoch 1: the kernel is permanently out AND the staged host read
    // hits a three-deep read-error burst, exhausting its retries — the
    // round must complete on the ladder's last rung (seeded random
    // picks). Epoch 2 onward the host read works again.
    let cfg = chaos_cfg(EPOCHS).with_fault_plan(
        0,
        FaultPlan::none()
            .with_kernel_abort(1, u32::MAX)
            .with_read_error(2, 3),
    );
    let (report, p) = run(&cfg);

    assert_eq!(counter(&p, "fallback.random"), 1);
    assert_eq!(counter(&p, "fallback.host"), (EPOCHS - 1) as u64);
    assert_eq!(report.epochs.len(), EPOCHS);
    // One random round early on cannot keep the model from learning
    // this easy dataset.
    assert!(
        report.final_accuracy() > 0.6,
        "accuracy {}",
        report.final_accuracy()
    );
}

#[test]
fn drive_dropout_is_evicted_and_the_run_rebalances() {
    // Two drives; drive 1 drops off the bus during epoch 1. The cluster
    // evicts it, re-shards onto the survivor, and the run completes with
    // the same training outcome.
    let clean = run(&chaos_cfg(EPOCHS).with_drives(2)).0;
    let cfg = chaos_cfg(EPOCHS)
        .with_drives(2)
        .with_fault_plan(1, FaultPlan::none().with_dropout_after(6));
    let (report, p) = run(&cfg);

    assert_eq!(counter(&p, "drive.evicted"), 1);
    assert_eq!(p.device().len(), 1);
    assert_eq!(p.device().evicted(), 1);
    // Shards re-sum over the survivors.
    let shards = p.device().shard_counts(300);
    assert_eq!(shards.len(), 1);
    assert_eq!(shards.iter().sum::<u64>(), 300);
    assert_eq!(report.accuracy_curve(), clean.accuracy_curve());
}

#[test]
fn pcie_stall_slows_the_run_but_changes_nothing_else() {
    // A latency spike on the first subset shipment: pure simulated time,
    // no retries, no fallback, identical training.
    let clean = run(&chaos_cfg(EPOCHS)).0;
    let cfg = chaos_cfg(EPOCHS).with_fault_plan(0, FaultPlan::none().with_pcie_stall(0, 0.75));
    let (report, p) = run(&cfg);

    assert_eq!(counter(&p, "fault.injected"), 1);
    assert_eq!(counter(&p, "retry.attempts"), 0);
    assert_eq!(counter(&p, "fallback.host"), 0);
    assert_eq!(report.accuracy_curve(), clean.accuracy_curve());
    let clean_secs: f64 = clean.epochs.iter().map(|e| e.total_secs()).sum();
    let fault_secs: f64 = report.epochs.iter().map(|e| e.total_secs()).sum();
    assert!(
        fault_secs > clean_secs + 0.7,
        "spike must appear in the timeline: {fault_secs} vs {clean_secs}"
    );
}

#[test]
fn corrupt_records_are_quarantined_and_counted() {
    // A scan delivers ten undecodable records in epoch 1: they are
    // counted, dropped from the candidate pool, and the run completes.
    let cfg = chaos_cfg(EPOCHS).with_fault_plan(0, FaultPlan::none().with_corrupt_read(1, 10));
    let (report, p) = run(&cfg);

    assert_eq!(counter(&p, "data.quarantined"), 10);
    assert_eq!(report.epochs.len(), EPOCHS);
    assert!(
        report.final_accuracy() > 0.6,
        "accuracy {}",
        report.final_accuracy()
    );
}

#[test]
fn losing_every_drive_is_a_typed_error() {
    // A single drive that drops out mid-epoch leaves no path to the
    // data: the run must stop with AllDrivesLost, not a panic.
    let cfg = chaos_cfg(EPOCHS).with_fault_plan(0, FaultPlan::none().with_dropout_after(3));
    let mut p = pipeline_for(&cfg);
    let err = p.run().unwrap_err();
    assert_eq!(err, PipelineError::AllDrivesLost { evicted: 1 });
    assert_eq!(counter(&p, "drive.evicted"), 1);
    assert!(p.device().is_empty());
}

#[test]
fn offline_takes_precedence_over_transient_faults() {
    // Dropout and a read-error burst armed on the same ops: the drive is
    // offline, so the terminal error must win and evict immediately
    // instead of burning the retry budget.
    let cfg = chaos_cfg(EPOCHS).with_drives(2).with_fault_plan(
        0,
        FaultPlan::none()
            .with_dropout_after(0)
            .with_read_error(0, u32::MAX),
    );
    let (report, p) = run(&cfg);
    assert_eq!(counter(&p, "drive.evicted"), 1);
    assert_eq!(counter(&p, "retry.attempts"), 0);
    assert_eq!(report.epochs.len(), EPOCHS);
}

#[test]
fn acceptance_kernel_failure_plus_drive_dropout() {
    // The issue's acceptance scenario: a two-drive cluster where drive 1
    // drops out during epoch 2 and drive 0's kernel fails permanently
    // from epoch 3 on. The run must complete end-to-end on the host
    // rung, with exactly one eviction, accuracy within two points of the
    // fault-free baseline, and a byte-identical report under the same
    // seed.
    let cfg = chaos_cfg(EPOCHS)
        .with_drives(2)
        .with_fault_plan(0, FaultPlan::none().with_kernel_abort(3, u32::MAX))
        .with_fault_plan(1, FaultPlan::none().with_dropout_after(10));

    let clean = run(&chaos_cfg(EPOCHS).with_drives(2)).0;
    let (report, p) = run(&cfg);

    assert_eq!(report.epochs.len(), EPOCHS, "run completes end-to-end");
    assert!(counter(&p, "fallback.host") >= 1);
    assert_eq!(counter(&p, "drive.evicted"), 1);
    assert!(counter(&p, "fault.injected") >= 2);
    assert!(
        (report.final_accuracy() - clean.final_accuracy()).abs() <= 0.02,
        "chaos {} vs clean {}",
        report.final_accuracy(),
        clean.final_accuracy()
    );

    // Same seed, same plan: byte-identical RunReport JSONL.
    let again = run(&cfg).0;
    assert_eq!(report.to_jsonl(), again.to_jsonl());
}

#[test]
fn kernel_abort_during_overlapped_round_rides_the_ladder() {
    // Overlap on, permanent kernel failure from kernel op 2 onward. Round
    // 2 (selecting S_2) is in flight on the worker thread while epoch 1
    // trains, so the whole retry → host-fallback ladder runs *inside* the
    // overlapped round. The trained epochs must come out untouched: the
    // host rung selects with identical math, so the accuracy curve equals
    // the fault-free overlapped run's.
    let overlap_cfg = chaos_cfg(EPOCHS).with_overlap(true);
    let clean = run(&overlap_cfg).0;
    let cfg = overlap_cfg
        .clone()
        .with_fault_plan(0, FaultPlan::none().with_kernel_abort(2, u32::MAX));
    let (report, p) = run(&cfg);

    // Kernel op indices count rounds in both schedules, so the fault
    // hits exactly the rounds it would hit sequentially.
    let failed_rounds = (EPOCHS - 2) as u64;
    assert_eq!(counter(&p, "fallback.host"), failed_rounds);
    assert_eq!(counter(&p, "retry.attempts"), 2 * failed_rounds);
    assert_eq!(counter(&p, "fallback.random"), 0);
    assert_eq!(counter(&p, "drive.evicted"), 0);
    assert_eq!(report.epochs.len(), EPOCHS);
    assert_eq!(report.accuracy_curve(), clean.accuracy_curve());
    // The ledger still reports a pipelined schedule: the ladder slows
    // rounds down but never silently de-pipelines them.
    for rec in &report.epochs {
        let o = rec.overlap.as_ref().expect("overlap mode records a ledger");
        assert_eq!(
            o.staleness,
            usize::from(rec.epoch > 0),
            "epoch {}",
            rec.epoch
        );
    }
}

#[test]
fn drive_dropout_during_inflight_overlapped_selection_evicts_cleanly() {
    // Two drives; drive 1 drops off the bus while a worker round is in
    // flight. The cluster must evict it, re-shard onto the survivor, and
    // finish the run with the same training outcome as a fault-free
    // overlapped run — an in-flight eviction may cost simulated time but
    // never picks or accuracy.
    let overlap_cfg = chaos_cfg(EPOCHS).with_drives(2).with_overlap(true);
    let clean = run(&overlap_cfg).0;
    let cfg = overlap_cfg
        .clone()
        .with_fault_plan(1, FaultPlan::none().with_dropout_after(7));
    let (report, p) = run(&cfg);

    assert_eq!(counter(&p, "drive.evicted"), 1);
    assert_eq!(p.device().len(), 1);
    assert_eq!(p.device().evicted(), 1);
    let shards = p.device().shard_counts(300);
    assert_eq!(shards.iter().sum::<u64>(), 300);
    assert_eq!(report.epochs.len(), EPOCHS);
    assert_eq!(report.accuracy_curve(), clean.accuracy_curve());
}

#[test]
fn overlapped_chaos_replays_byte_identical() {
    // The acceptance scenario (kernel failure on drive 0 + dropout on
    // drive 1) with the overlapped scheduler on: faults land inside
    // worker rounds, yet the op-indexed plans and pre-split RNG streams
    // keep the replay byte-identical — thread interleaving must not leak
    // into fault timing any more than it leaks into clean runs.
    let cfg = chaos_cfg(EPOCHS)
        .with_drives(2)
        .with_overlap(true)
        .with_fault_plan(0, FaultPlan::none().with_kernel_abort(3, u32::MAX))
        .with_fault_plan(1, FaultPlan::none().with_dropout_after(10));
    let (report, p) = run(&cfg);
    let again = run(&cfg).0;

    assert_eq!(report.to_jsonl(), again.to_jsonl());
    assert_eq!(report.epochs.len(), EPOCHS);
    assert!(
        counter(&p, "fallback.host") >= 1,
        "ladder reaches the host rung"
    );
    assert_eq!(counter(&p, "drive.evicted"), 1);
    assert!(counter(&p, "fault.injected") >= 2);
}

/// Tiny fixture for the property runs: two easy classes, two epochs.
fn tiny_chaos_jsonl(seed: u64) -> String {
    let spec = FaultSpec {
        horizon_ops: 16,
        read_error_rate: 0.08,
        read_error_burst: 1,
        kernel_abort_rate: 0.08,
        kernel_abort_burst: 1,
        stall_rate: 0.1,
        stall_secs: (0.001, 0.05),
        corrupt_rate: 0.08,
        corrupt_records: 3,
        dropout_probability: 0.25,
    };
    let cfg = NessaConfig::new(0.4, 2)
        .with_batch_size(32)
        .with_seed(seed)
        .with_drives(2)
        .with_fault_plan(0, FaultPlan::seeded(seed, &spec));
    let synth = SynthConfig {
        train: 90,
        test: 40,
        dim: 4,
        classes: 2,
        cluster_std: 0.6,
        class_sep: 3.5,
        ..SynthConfig::default()
    };
    let (train, test) = synth.generate();
    let mut rng = Rng64::new(cfg.seed);
    let target = mlp(&[4, 10, 2], &mut rng);
    let selector = mlp(&[4, 10, 2], &mut rng);
    let mut p = NessaPipeline::new(cfg, target, selector, train, test);
    match p.run() {
        Ok(report) => report.to_jsonl(),
        Err(e) => format!("error: {e}"),
    }
}

proptest! {
    #[test]
    fn same_fault_seed_reproduces_identical_run_reports(seed in any::<u64>()) {
        // The whole point of op-indexed, seeded fault plans: re-running
        // the same chaos configuration replays the same run, byte for
        // byte — including runs the faults kill.
        prop_assert_eq!(tiny_chaos_jsonl(seed), tiny_chaos_jsonl(seed));
    }

    #[test]
    fn backoff_never_exceeds_the_single_wait_clamp(
        clamp in 0.0f64..12.0,
        base in 0.001f64..3.0,
        factor in 1.0f64..4.0,
        attempt in 0u32..20,
    ) {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff_secs: base,
            backoff_factor: factor,
            max_backoff_secs: clamp,
        };
        let wait = policy.backoff_secs(attempt);
        prop_assert!(wait >= 0.0);
        prop_assert!(wait <= clamp + 1e-12, "wait {} vs clamp {}", wait, clamp);
    }

    #[test]
    fn transient_errors_never_outlive_their_burst(failures in 1u32..3, at in 0u64..3) {
        // An explicit burst shorter than the retry budget is always
        // absorbed: the run completes without touching a fallback rung.
        let cfg = NessaConfig::new(0.4, 2)
            .with_batch_size(32)
            .with_seed(11)
            .with_telemetry(TelemetrySettings::memory())
            .with_fault_plan(0, FaultPlan::none().with_read_error(at, failures));
        let synth = SynthConfig {
            train: 90,
            test: 40,
            dim: 4,
            classes: 2,
            cluster_std: 0.6,
            class_sep: 3.5,
            ..SynthConfig::default()
        };
        let (train, test) = synth.generate();
        let mut rng = Rng64::new(cfg.seed);
        let target = mlp(&[4, 10, 2], &mut rng);
        let selector = mlp(&[4, 10, 2], &mut rng);
        let mut p = NessaPipeline::new(cfg, target, selector, train, test);
        prop_assert!(p.run().is_ok());
        let fired = counter(&p, "fault.injected");
        prop_assert!(fired <= failures as u64);
        prop_assert_eq!(counter(&p, "fallback.host"), 0);
        prop_assert_eq!(counter(&p, "fallback.random"), 0);
    }
}

#[test]
fn chaos_errors_format_for_operators() {
    // The typed errors the chaos paths produce must render actionably.
    let lost = PipelineError::AllDrivesLost { evicted: 3 };
    assert!(lost.to_string().contains("3 evicted"));
    let offline = DeviceError::Offline;
    assert!(!offline.is_transient());
}
