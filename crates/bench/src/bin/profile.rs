//! Run profiler: executes a short NeSSA training run with telemetry
//! enabled, prints the span timeline, and (in JSONL mode) cross-checks
//! the emitted artifact against the run report.
//!
//! The output path is picked in precedence order: `--out <path>` on the
//! command line, then the `NESSA_TELEMETRY` environment variable
//! (`memory|timeline|jsonl|jsonl:<path>`), then the default
//! `target/nessa-profile.jsonl` — so the binary always produces an
//! artifact without littering the working directory. Run with
//! `cargo run --release -p nessa-bench --bin profile -- --out run.jsonl`.
//!
//! `--chaos` arms the canonical fault scenario (permanent kernel failure
//! from epoch 3 on drive 0, drive 1 dropping out during epoch 2 of a
//! two-drive cluster) and asserts the degradation ladder carried the run:
//! the resulting profile feeds the CI chaos gate, which bounds the
//! fault-tolerance overhead against the fault-free baseline.
//!
//! `--overlap` runs a train-heavy twin of the workload twice — once
//! sequentially, once with the overlapped scheduler — and compares them
//! at the same seed. It always verifies the overlapped artifact's span
//! shape and the ledger's critical-path composition; on a multicore host
//! it additionally asserts the measured payoff (end-to-end wall time cut
//! by ≥ 20 %, mean measured overlap ratio ≥ 0.5). A single core cannot
//! physically run the two sides at once, so there the wall-clock gates
//! are reported but not enforced.

use nessa_bench::{model_builder, rule, BATCH, SEED};
use nessa_core::{NessaConfig, NessaPipeline, RunReport};
use nessa_data::SynthConfig;
use nessa_nn::models::mlp;
use nessa_smartssd::FaultPlan;
use nessa_telemetry::{SpanRecord, TelemetryMode, TelemetrySettings};
use nessa_tensor::rng::Rng64;
use nessa_trace::{RunTrace, TraceReport};
use std::fs;
use std::time::Instant;

/// Epoch phases the pipeline emits one span for per (selection) epoch.
const PHASES: [&str; 5] = ["scan", "select", "ship", "train", "feedback"];

const EPOCHS: usize = 6;

/// Epochs for the `--overlap` scenario: a couple more than the default
/// profile so the rescaled lr schedule gives the wider model enough
/// full-rate steps to converge, and the synchronous prologue round is
/// amortized over more pipelined ones.
const OVERLAP_EPOCHS: usize = 10;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chaos = args.iter().any(|a| a == "--chaos");
    let overlap = args.iter().any(|a| a == "--overlap");
    if chaos && overlap {
        eprintln!("profile: --chaos and --overlap are separate scenarios; pick one");
        std::process::exit(2);
    }
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|pos| args.get(pos + 1).expect("--out needs a path").clone());
    let mut settings = TelemetrySettings::from_env();
    if let Some(path) = out {
        settings = TelemetrySettings::jsonl(path);
    } else if settings.mode == TelemetryMode::Off {
        settings = TelemetrySettings::jsonl("target/nessa-profile.jsonl");
    }
    if settings.mode == TelemetryMode::Jsonl {
        if let Some(dir) = settings.resolved_jsonl_path().parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("output directory creatable");
            }
        }
    }
    if overlap {
        profile_overlap(settings);
        return;
    }
    let synth = SynthConfig {
        train: 600,
        test: 200,
        dim: 16,
        classes: 4,
        cluster_std: 0.7,
        class_sep: 3.0,
        ..SynthConfig::default()
    };
    let (train, test) = synth.generate();
    let mut cfg = NessaConfig::new(0.3, EPOCHS)
        .with_batch_size(BATCH)
        .with_seed(SEED)
        .with_telemetry(settings);
    if chaos {
        cfg = cfg
            .with_drives(2)
            .with_fault_plan(0, FaultPlan::none().with_kernel_abort(3, u32::MAX))
            .with_fault_plan(1, FaultPlan::none().with_dropout_after(10));
    }
    let builder = model_builder(train.dim(), train.classes());
    let mut rng = Rng64::new(SEED);
    let target = builder(&mut rng);
    let selector = builder(&mut rng);
    let mut pipeline = NessaPipeline::new(cfg, target, selector, train, test);
    let report = pipeline.run().expect("pipeline run failed");
    if chaos {
        verify_chaos(&pipeline);
    }

    println!("profile run: {report}");
    rule(72);
    print!("{}", pipeline.telemetry().render_timeline());
    rule(72);

    match pipeline.telemetry().jsonl_path() {
        Some(path) => {
            let path = path.to_path_buf();
            let text = fs::read_to_string(&path).expect("telemetry artifact readable");
            // Every line must parse back as a telemetry event.
            let trace = RunTrace::from_str(&text).expect("telemetry artifact parses as a trace");
            if chaos {
                // Under faults a phase can legitimately emit retry and
                // fallback spans alongside its own, so only the parse-back
                // is checked.
                println!(
                    "JSONL artifact: {} ({} lines, chaos mode: span-shape check relaxed)",
                    path.display(),
                    text.lines().count()
                );
            } else {
                verify_artifact(&trace, &report);
                println!(
                    "JSONL artifact: {} ({} lines, spans consistent with the run report)",
                    path.display(),
                    text.lines().count()
                );
            }
        }
        None => println!("(no JSONL artifact in this mode; set NESSA_TELEMETRY=jsonl)"),
    }
}

/// Asserts the canned chaos scenario actually exercised the ladder: at
/// least one host fallback, exactly one eviction, and the survivor's
/// timeline still covering every epoch.
fn verify_chaos(pipeline: &NessaPipeline) {
    let snapshot = pipeline.telemetry().metrics_snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(
        counter("fallback.host") >= 1,
        "chaos scenario must reach the host rung"
    );
    assert_eq!(counter("drive.evicted"), 1, "exactly one drive drops out");
    assert!(counter("fault.injected") >= 2);
    assert_eq!(pipeline.device().len(), 1, "one survivor drive");
    println!(
        "chaos: injected={} retries={} host_fallbacks={} evicted={}",
        counter("fault.injected"),
        counter("retry.attempts"),
        counter("fallback.host"),
        counter("drive.evicted"),
    );
}

/// The `--overlap` scenario: a train-heavy twin of the profile workload,
/// run sequentially and overlapped at the same seed. The default
/// workload's selection side outweighs its training ~10:1, which leaves
/// overlap nothing worth hiding; this twin trains a deeper MLP (at a
/// gentler base lr — the paper's 0.1 diverges at this width) and smaller
/// batches so every selection round can hide completely under training.
fn profile_overlap(settings: TelemetrySettings) {
    let synth = SynthConfig {
        train: 600,
        test: 200,
        dim: 16,
        classes: 4,
        cluster_std: 0.7,
        class_sep: 3.0,
        ..SynthConfig::default()
    };
    let run_once = |overlap: bool, settings: TelemetrySettings| {
        let (train, test) = synth.generate();
        let cfg = NessaConfig::new(0.3, OVERLAP_EPOCHS)
            .with_batch_size(16)
            .with_base_lr(0.02)
            .with_seed(SEED)
            .with_overlap(overlap)
            .with_telemetry(settings);
        let mut rng = Rng64::new(SEED);
        let target = mlp(&[16, 256, 128, 4], &mut rng);
        let selector = mlp(&[16, 256, 128, 4], &mut rng);
        let mut pipeline = NessaPipeline::new(cfg, target, selector, train, test);
        let started = Instant::now();
        let report = pipeline.run().expect("pipeline run failed");
        (report, pipeline, started.elapsed().as_secs_f64())
    };

    // Sequential twin first (its artifact lands next to the overlapped
    // one, same telemetry mode so the wall comparison is apples to
    // apples), then the overlapped run on the requested path.
    let seq_settings = match settings.mode {
        TelemetryMode::Jsonl => {
            TelemetrySettings::jsonl(settings.resolved_jsonl_path().with_extension("seq.jsonl"))
        }
        _ => settings.clone(),
    };
    let (_, _, seq_wall) = run_once(false, seq_settings);
    let (report, pipeline, ovl_wall) = run_once(true, settings.clone());

    println!("overlap profile run: {report}");
    rule(72);
    print!("{}", pipeline.telemetry().render_timeline());
    rule(72);

    // Ledger arithmetic holds on any machine: serializing each epoch's
    // two sides must cost at least the pipelined critical path, and the
    // difference is exactly the hidden device time.
    let mut serialized = 0.0;
    let mut pipelined = 0.0;
    for rec in &report.epochs {
        let o = rec
            .overlap
            .as_ref()
            .expect("overlap mode records a ledger for every epoch");
        assert!(o.staleness <= 1, "feedback may age at most one epoch");
        serialized += o.sync_secs + o.select_side_secs + o.train_secs + o.handoff_secs;
        pipelined += rec.total_secs();
    }
    assert!(
        pipelined <= serialized + 1e-12,
        "pipelined sim total {pipelined} exceeds the serialized schedule {serialized}"
    );
    let hidden = report.hidden_secs();
    println!(
        "simulated schedule: serialized {serialized:.6}s, pipelined {pipelined:.6}s \
         ({:.1}% shorter; {hidden:.6}s of device time hidden under training)",
        100.0 * (1.0 - pipelined / serialized)
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = seq_wall / ovl_wall;
    println!("wall time: sequential {seq_wall:.3}s, overlapped {ovl_wall:.3}s ({speedup:.2}x)");

    if settings.mode == TelemetryMode::Jsonl {
        let path = settings.resolved_jsonl_path();
        let text = fs::read_to_string(&path).expect("telemetry artifact readable");
        let trace = RunTrace::from_str(&text).expect("telemetry artifact parses as a trace");
        verify_overlap_artifact(&trace, &report);
        let measured = TraceReport::from_trace(&trace).mean_overlap_ratio();
        match measured {
            Some(r) => println!("mean measured overlap ratio: {r:.3}"),
            None => println!("mean measured overlap ratio: - (no measurable epoch)"),
        }
        println!(
            "JSONL artifact: {} ({} lines, overlap span shape verified)",
            path.display(),
            text.lines().count()
        );
        if cores >= 2 {
            let r = measured.expect("a multicore overlapped run always has measurable epochs");
            assert!(
                r >= 0.5,
                "measured overlap ratio {r:.3} below 0.5 on a {cores}-core host"
            );
            assert!(
                speedup >= 1.2,
                "overlap must cut end-to-end wall time by >= 20% on a {cores}-core host \
                 (sequential {seq_wall:.3}s vs overlapped {ovl_wall:.3}s)"
            );
            println!("multicore gates: ratio >= 0.5 and wall speedup >= 1.2x — ok");
        } else {
            println!(
                "single-core host: the OS serializes the worker and the trainer, so the \
                 wall-clock gates are reported above but not enforced; the simulated \
                 ledger and span-shape checks still ran"
            );
        }
    }
}

/// Spans named `name` whose `key` attribute equals `value`.
fn spans_where<'a>(
    trace: &'a RunTrace,
    name: &'a str,
    key: &'a str,
    value: usize,
) -> impl Iterator<Item = &'a SpanRecord> {
    trace
        .tree
        .spans()
        .iter()
        .filter(move |s| s.name == name && s.attr_u64(key) == Some(value as u64))
}

/// Structural check for the overlapped artifact: every subset is
/// selected exactly once wherever its round ran (prologue or worker
/// thread), every epoch trains and hands off exactly once, every
/// pipelined round is wrapped in `overlap.select`, and the epoch spans'
/// simulated seconds reproduce the report's critical-path composition.
fn verify_overlap_artifact(trace: &RunTrace, report: &RunReport) {
    let count = |name, key, value| spans_where(trace, name, key, value).count();
    for rec in &report.epochs {
        let e = rec.epoch;
        for phase in ["scan", "select", "ship"] {
            assert_eq!(
                count(phase, "epoch", e),
                1,
                "epoch {e}: subset must be {phase}ed exactly once"
            );
        }
        for phase in ["train", "overlap.handoff"] {
            assert_eq!(count(phase, "epoch", e), 1, "epoch {e}: {phase}");
        }
        if e > 0 {
            assert_eq!(
                count("overlap.select", "for_epoch", e),
                1,
                "epoch {e}: its round must run under an overlap.select wrapper"
            );
        }
        let sim = spans_where(trace, "epoch", "epoch", e)
            .next()
            .unwrap_or_else(|| panic!("epoch {e} span missing"))
            .sim_secs;
        let expected = rec.total_secs();
        assert!(
            (sim - expected).abs() < 1e-9,
            "epoch {e}: span sim {sim} != ledger critical path {expected}"
        );
    }
}

/// Checks that every epoch has one span per phase and that per-epoch
/// simulated-second span totals agree with the run report within 1e-9.
fn verify_artifact(trace: &RunTrace, report: &RunReport) {
    for epoch in &report.epochs {
        let mut sim_total = 0.0;
        for phase in PHASES {
            let phase_spans: Vec<&SpanRecord> =
                spans_where(trace, phase, "epoch", epoch.epoch).collect();
            assert_eq!(
                phase_spans.len(),
                1,
                "epoch {}: expected exactly one {phase} span, got {}",
                epoch.epoch,
                phase_spans.len()
            );
            sim_total += phase_spans[0].sim_secs;
        }
        let expected = epoch.total_secs();
        assert!(
            (sim_total - expected).abs() < 1e-9,
            "epoch {}: span sim total {sim_total} != report {expected}",
            epoch.epoch
        );
    }
}
