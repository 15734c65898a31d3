//! The NeSSA benchmark. One process measures one workload as a closed loop:
//! each `NessaPipeline::run` starts when the previous one has returned, on
//! inputs generated from `--seed`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload select-heavy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off.
//! `--trace 1` measures the per-layer metrics: traced runs (telemetry kept in
//! memory and read back through `nessa_trace::RunTrace`) alternate with
//! untraced twins and with a replay that times each layer's public functions
//! at the workload's shapes. Every run's outputs are checked. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `WORKLOADS.md` describes the workloads and
//! metrics.

mod procfs;
mod replay;
mod spans;
mod stats;
mod workload;

use nessa_core::{NessaPipeline, RunReport};
use nessa_telemetry::json::JsonObject;
use nessa_telemetry::TelemetrySettings;
use nessa_trace::{RunTrace, TraceReport};
use replay::{EpochTimes, Replay, RoundTimes};
use spans::EpochSpans;
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <select-heavy|train-heavy|pipelined-faulty> \
                     --seed <n> --seconds <n> [--trace <0|1>]";

/// Set-ups timed before the first run, on top of the one every run pays, so
/// the `setup_s` median rests on enough samples when runs are long.
const EXTRA_SETUPS: usize = 50;
/// Fewest end-to-end runs, however short `--seconds` is.
const MIN_RUNS: u64 = 3;
/// Fewest rounds of untraced run, traced run and replay: two, so that
/// counters can be checked to repeat exactly.
const MIN_TRACE_ROUNDS: usize = 2;
/// `core.select.unattributed_ms` (the select span minus the replayed proxy,
/// similarity and greedy times) may reach this share of
/// `core.select.wall_ms`, plus [`RECONCILE_SLACK_MS`], before the split
/// counts as broken. The span and the replay come from different runs, a few
/// seconds apart, so the share must absorb the host's change of speed in
/// between: up to a third between runs on a shared 2-core host, which alone
/// leaves 1 − 1/1.33 = 25 %. Over twenty-three traced runs on the three
/// workloads the remainder ranged from −9.5 % to +15.3 % (`WORKLOADS.md`).
const RECONCILE_SHARE: f64 = 0.4;
const RECONCILE_SLACK_MS: f64 = 2.0;
/// Telemetry counters read from every traced run; each must repeat exactly.
const COUNTERS: [&str; 7] = [
    "retry.attempts",
    "fallback.host",
    "fallback.random",
    "fault.injected",
    "drive.evicted",
    "select.gain_evals",
    "select.greedy_rounds",
];
/// The feedback step's span: `feedback` in sequential runs,
/// `overlap.handoff` in overlapped ones.
const FEEDBACK: [&str; 2] = ["feedback", "overlap.handoff"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(Duration::from_secs(value.parse().map_err(|_| bad())?))
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {}, measuring {} s, trace {}, {} hardware threads",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value} {unit}");
    }
    for problem in &out.problems {
        println!("check failed: {problem}");
    }
    println!("{}", out.to_json());
}

/// What one measurement found.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    /// One entry per failed attempt: a run error or a failed output check.
    failures: Vec<String>,
    /// Failed checks over the whole measurement rather than one attempt.
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Counts one attempt. A failure is reported and recorded, not fatal.
    fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("perfbench: {what} (attempt {}) failed: {e}", self.attempted);
                self.failures.push(e);
                None
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.problems.push(format!("{name} is {value}"));
            self.metrics.push((name, 0.0, unit));
        }
    }

    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(JsonObject::new(), |obj, &(name, value, unit)| {
                let metric = JsonObject::new()
                    .f64_field("value", value)
                    .str_field("unit", unit);
                obj.raw_field(name, &metric.finish())
            });
        let correct = self.failures.is_empty() && self.problems.is_empty();
        JsonObject::new()
            .raw_field("correct", if correct { "true" } else { "false" })
            .u64_field("attempted", self.attempted)
            .u64_field("failed", self.failures.len() as u64)
            .raw_field("metrics", &metrics.finish())
            .finish()
    }
}

/// Runs the pipeline once, turning an error or a panic into a failure;
/// returns the report with the run's host wall seconds.
fn run(pipeline: &mut NessaPipeline) -> Result<(RunReport, f64), String> {
    let started = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| pipeline.run())) {
        Ok(Ok(report)) => Ok((report, started.elapsed().as_secs_f64())),
        Ok(Err(e)) => Err(format!("pipeline error: {e}")),
        Err(_) => Err("pipeline panicked".to_string()),
    }
}

/// The checked, deterministic outputs of one run.
#[derive(Debug, Clone, PartialEq)]
struct RunFacts {
    jsonl: String,
    subsets: Vec<usize>,
    sim_epoch_s: f64,
    interconnect_bytes_per_epoch: f64,
    final_test_acc: f64,
}

impl RunFacts {
    /// Checks one run against its workload and against the first run at
    /// this seed, which it must repeat exactly.
    fn check(
        w: Workload,
        report: &RunReport,
        pipeline: &NessaPipeline,
        first: Option<&RunFacts>,
    ) -> Result<Self, String> {
        let epochs = w.epochs();
        if report.epochs.len() != epochs
            || report.epochs.iter().enumerate().any(|(i, e)| e.epoch != i)
        {
            return Err(format!(
                "reported {} epochs, configured {epochs}",
                report.epochs.len()
            ));
        }
        let acc = report.final_accuracy();
        if !(0.0..=1.0).contains(&acc) {
            return Err(format!("final accuracy {acc} outside [0, 1]"));
        }
        if w.faulty() && pipeline.device().faults_injected() == 0 {
            return Err("no device fault fired".into());
        }
        let facts = RunFacts {
            jsonl: report.to_jsonl(),
            subsets: report.epochs.iter().map(|e| e.subset_size).collect(),
            sim_epoch_s: report.device_secs() / epochs as f64,
            interconnect_bytes_per_epoch: report.traffic.interconnect_bytes() as f64
                / epochs as f64,
            final_test_acc: f64::from(acc),
        };
        match first {
            Some(f) if *f != facts => Err("report differs from the first run at this seed".into()),
            _ => Ok(facts),
        }
    }
}

fn print_timing(name: &str, samples: &[f64]) {
    match Summary::of(samples) {
        Some(s) => println!("{name}: {s} s"),
        None => println!("{name}: no successful samples"),
    }
}

/// `--trace 0`: the end-to-end metrics, telemetry off.
fn end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| w.setup(args.seed, TelemetrySettings::off()).1)
        .collect();
    let mut walls = Vec::new();
    let mut first: Option<RunFacts> = None;
    let started = Instant::now();
    while out.attempted < MIN_RUNS || started.elapsed() < args.seconds {
        let (mut pipeline, setup_s) = w.setup(args.seed, TelemetrySettings::off());
        setups.push(setup_s);
        let checked = run(&mut pipeline).and_then(|(report, wall)| {
            Ok((
                RunFacts::check(w, &report, &pipeline, first.as_ref())?,
                wall,
            ))
        });
        if let Some((facts, wall)) = out.attempt("run", checked) {
            println!("run {}: {wall:.4} s", out.attempted);
            walls.push(wall);
            first.get_or_insert(facts);
        }
    }
    print_timing("run_wall_s", &walls);
    print_timing("setup_s", &setups);
    let peak = procfs::peak_rss_mib();
    if peak.is_none() {
        out.problems
            .push("peak resident memory unavailable (no /proc/self/status VmHWM)".into());
    }
    let fact = |f: fn(&RunFacts) -> f64| first.as_ref().map_or(0.0, f);
    let succeeded = out.attempted - out.failures.len() as u64;
    out.metric("run_wall_s", median(&walls).unwrap_or(0.0), "s");
    out.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    out.metric("peak_rss_mb", peak.unwrap_or(0.0), "MiB");
    out.metric("sim_epoch_s", fact(|f| f.sim_epoch_s), "s");
    out.metric(
        "interconnect_bytes_per_epoch",
        fact(|f| f.interconnect_bytes_per_epoch),
        "bytes",
    );
    out.metric("final_test_acc", fact(|f| f.final_test_acc), "fraction");
    out.metric(
        "success_share",
        succeeded as f64 / out.attempted as f64,
        "fraction",
    );
    out
}

fn counters(trace: &RunTrace) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&name| (name, trace.counters.get(name).copied().unwrap_or(0)))
        .collect()
}

/// Checks a traced run's counters: the faulty workload must reach both the
/// retry and the host rung, and every count must repeat the first traced
/// run's.
fn check_counters(
    w: Workload,
    counts: &BTreeMap<&'static str, u64>,
    first: Option<&BTreeMap<&'static str, u64>>,
) -> Result<(), String> {
    if w.faulty() && (counts["retry.attempts"] == 0 || counts["fallback.host"] == 0) {
        return Err(format!("faults missed the retry or host rung: {counts:?}"));
    }
    match first {
        Some(f) if f != counts => Err(format!(
            "counters {counts:?} differ from the first traced run's {f:?}"
        )),
        _ => Ok(()),
    }
}

fn replay_counts(r: &Replay) -> (Vec<u64>, Vec<u64>) {
    (
        r.rounds.iter().map(|x| x.pairs).collect(),
        r.epochs.iter().map(|e| e.payload_bytes).collect(),
    )
}

/// Checks a layer replay: every epoch replayed, the pipeline's subset sizes
/// on fault-free workloads (the replay partitions exactly as the pipeline
/// does), and counts that repeat the first replay's exactly.
fn check_replay(
    w: Workload,
    r: &Replay,
    run: Option<&RunFacts>,
    first: Option<&Replay>,
) -> Result<(), String> {
    if r.epochs.len() != w.epochs() {
        return Err(format!(
            "replayed {} epochs, configured {}",
            r.epochs.len(),
            w.epochs()
        ));
    }
    let subsets: Vec<usize> = r.epochs.iter().map(|e| e.subset).collect();
    if let Some(run) = run.filter(|_| !w.faulty()) {
        if subsets != run.subsets {
            return Err(format!(
                "replay trained on subsets {subsets:?}, the pipeline on {:?}",
                run.subsets
            ));
        }
    }
    if first.is_some_and(|f| replay_counts(f) != replay_counts(r)) {
        return Err("similarity pairs or payload bytes differ from the first replay".into());
    }
    Ok(())
}

/// The select span's remainder after its replayed parts (proxy, similarity,
/// greedy), in ms. `Err` carries the remainder with a report when it lies
/// beyond [`RECONCILE_SHARE`] of the span plus [`RECONCILE_SLACK_MS`].
fn reconcile(select_ms: f64, parts_ms: [f64; 3]) -> Result<f64, (f64, String)> {
    let rest = select_ms - parts_ms.iter().sum::<f64>();
    if rest.abs() <= RECONCILE_SHARE * select_ms + RECONCILE_SLACK_MS {
        return Ok(rest);
    }
    let [proxy, similarity, greedy] = parts_ms;
    Err((
        rest,
        format!(
            "core.select {select_ms:.3} ms vs proxy {proxy:.3} + similarity {similarity:.3} \
             + greedy {greedy:.3} ms leaves {rest:.3} ms unattributed, beyond {RECONCILE_SHARE} of \
             select + {RECONCILE_SLACK_MS} ms"
        ),
    ))
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args) -> Outcome {
    let (w, seed) = (args.workload, args.seed);
    let mut out = Outcome::default();
    let mut first: Option<RunFacts> = None;
    let mut first_counts: Option<BTreeMap<&'static str, u64>> = None;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut epochs: Vec<EpochSpans> = Vec::new();
    let mut overlap_ratios = Vec::new();
    let mut replays: Vec<Replay> = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_TRACE_ROUNDS || started.elapsed() < args.seconds {
        // Alternate which twin goes first, so drift on a shared host weighs
        // on both alike.
        for traced_run in [round % 2 == 1, round % 2 == 0] {
            let settings = if traced_run {
                TelemetrySettings::memory()
            } else {
                TelemetrySettings::off()
            };
            let (mut pipeline, _) = w.setup(seed, settings);
            let checked = run(&mut pipeline).and_then(|(report, wall)| {
                let facts = RunFacts::check(w, &report, &pipeline, first.as_ref())?;
                let trace = traced_run.then(|| RunTrace::from_telemetry(pipeline.telemetry()));
                if let Some(trace) = &trace {
                    check_counters(w, &counters(trace), first_counts.as_ref())?;
                }
                Ok((facts, wall, trace))
            });
            let label = if traced_run {
                "traced run"
            } else {
                "untraced run"
            };
            let Some((facts, wall, trace)) = out.attempt(label, checked) else {
                continue;
            };
            first.get_or_insert(facts);
            let Some(trace) = trace else {
                untraced.push(wall);
                continue;
            };
            first_counts.get_or_insert_with(|| counters(&trace));
            traced.push(wall);
            epochs.extend(spans::epochs(&trace.tree));
            overlap_ratios.push(
                TraceReport::from_trace(&trace)
                    .mean_overlap_ratio()
                    .unwrap_or(0.0),
            );
        }
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            replay::replay(w.inputs(seed, TelemetrySettings::off()))
        }))
        .map_err(|_| "replay panicked".to_string())
        .and_then(|r| r.map_err(|e| format!("replay selection failed: {e}")))
        .and_then(|r| check_replay(w, &r, first.as_ref(), replays.first()).map(|()| r));
        if let Some(r) = out.attempt("replay", replayed) {
            replays.push(r);
        }
        round += 1;
    }
    print_timing("untraced run_wall_s", &untraced);
    print_timing("traced run_wall_s", &traced);

    let ms = |v: Option<f64>| v.unwrap_or(0.0) * 1e3;
    let phase = |names: &[&str], sim: bool| {
        let v: Vec<f64> = epochs
            .iter()
            .filter_map(|e| e.phase(names))
            .map(|(wall, s)| if sim { s } else { wall })
            .collect();
        median(&v)
    };
    let rounds: Vec<&RoundTimes> = replays.iter().flat_map(|r| &r.rounds).collect();
    let replay_epochs: Vec<&EpochTimes> = replays.iter().flat_map(|r| &r.epochs).collect();
    let of_rounds =
        |f: fn(&RoundTimes) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let of_epochs =
        |f: fn(&EpochTimes) -> f64| median(&replay_epochs.iter().map(|e| f(e)).collect::<Vec<_>>());
    let count = |name: &str| {
        first_counts
            .as_ref()
            .and_then(|c| c.get(name).copied())
            .unwrap_or(0)
    };

    let select_ms = ms(phase(&["select"], false));
    let proxy_ms = ms(of_rounds(|r| r.proxy_s));
    let similarity_ms = ms(of_rounds(|r| r.similarity_s));
    let greedy_ms = ms(of_rounds(|r| r.greedy_s));
    let select_unattributed_ms = match reconcile(select_ms, [proxy_ms, similarity_ms, greedy_ms]) {
        Ok(rest) => rest,
        Err((rest, problem)) => {
            out.problems.push(problem);
            rest
        }
    };
    let untraced_wall = median(&untraced);
    let overhead = match (median(&traced), untraced_wall) {
        (Some(t), Some(u)) if u > 0.0 => (t - u) / u,
        _ => 0.0,
    };
    let (gain_evals, picks) = (count("select.gain_evals"), count("select.greedy_rounds"));

    // What each workload was chosen for; reported, not enforced, so a change
    // that speeds one layer up does not fail the benchmark.
    let epoch_wall: f64 = epochs.iter().map(|e| e.wall_s).sum();
    let select_wall: f64 = epochs
        .iter()
        .filter_map(|e| e.phase(&["select"]))
        .map(|p| p.0)
        .sum();
    let kernels_per_run = median(
        &replays
            .iter()
            .map(|r| r.rounds.iter().map(|x| x.similarity_s + x.greedy_s).sum())
            .collect::<Vec<f64>>(),
    );
    println!(
        "shape: core.select is {:.1}% of epoch wall time; select.similarity is {:.1}% of \
         core.select; similarity + greedy is {:.1}% of run wall time; overlap ratio {:.3}",
        100.0 * select_wall / epoch_wall,
        100.0 * similarity_ms / select_ms,
        100.0 * kernels_per_run.unwrap_or(0.0) / untraced_wall.unwrap_or(f64::NAN),
        median(&overlap_ratios).unwrap_or(0.0),
    );

    let metrics = [
        ("core.scan.wall_ms", ms(phase(&["scan"], false)), "ms"),
        ("core.select.wall_ms", select_ms, "ms"),
        ("core.ship.wall_ms", ms(phase(&["ship"], false)), "ms"),
        ("core.train.wall_ms", ms(phase(&["train"], false)), "ms"),
        ("core.feedback.wall_ms", ms(phase(&FEEDBACK, false)), "ms"),
        (
            "core.unattributed.wall_ms",
            ms(median(
                &epochs.iter().map(|e| e.unattributed_s).collect::<Vec<_>>(),
            )),
            "ms",
        ),
        ("core.select.unattributed_ms", select_unattributed_ms, "ms"),
        (
            "core.overlap.wait_ms",
            ms(phase(&["overlap.wait"], false)),
            "ms",
        ),
        (
            "core.overlap.ratio",
            median(&overlap_ratios).unwrap_or(0.0),
            "ratio",
        ),
        (
            "core.retry.attempts",
            count("retry.attempts") as f64,
            "count",
        ),
        ("core.fallback.host", count("fallback.host") as f64, "count"),
        (
            "core.fallback.random",
            count("fallback.random") as f64,
            "count",
        ),
        (
            "smartssd.fault.injected",
            count("fault.injected") as f64,
            "count",
        ),
        (
            "smartssd.drive.evicted",
            count("drive.evicted") as f64,
            "count",
        ),
        ("core.proxy.wall_ms", proxy_ms, "ms"),
        ("select.similarity.wall_ms", similarity_ms, "ms"),
        (
            "select.similarity.pairs",
            replays
                .first()
                .map_or(0, |r| r.rounds.iter().map(|x| x.pairs).sum::<u64>()) as f64,
            "count",
        ),
        ("select.greedy.wall_ms", greedy_ms, "ms"),
        ("select.gain_evals", gain_evals as f64, "count"),
        (
            "select.gain_evals_per_pick",
            if picks > 0 {
                gain_evals as f64 / picks as f64
            } else {
                0.0
            },
            "evals/pick",
        ),
        ("nn.train.wall_ms", ms(of_epochs(|e| e.train_s)), "ms"),
        (
            "nn.train.samples_per_s",
            of_epochs(|e| e.subset as f64 / e.train_s).unwrap_or(0.0),
            "1/s",
        ),
        ("core.eval.wall_ms", ms(of_epochs(|e| e.eval_s)), "ms"),
        (
            "quant.feedback.wall_ms",
            ms(of_epochs(|e| e.feedback_s)),
            "ms",
        ),
        (
            "quant.payload_bytes",
            replay_epochs.first().map_or(0, |e| e.payload_bytes) as f64,
            "bytes",
        ),
        ("smartssd.scan.sim_ms", ms(phase(&["scan"], true)), "ms"),
        ("smartssd.select.sim_ms", ms(phase(&["select"], true)), "ms"),
        ("smartssd.ship.sim_ms", ms(phase(&["ship"], true)), "ms"),
        ("smartssd.feedback.sim_ms", ms(phase(&FEEDBACK, true)), "ms"),
        ("telemetry.overhead_share", overhead, "ratio"),
    ];
    for (name, value, unit) in metrics {
        out.metric(name, value, unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_reports_the_remainder_within_and_beyond_tolerance() {
        // 100 ms of select, 90 ms of it replayed: 10 ms left over.
        assert_eq!(reconcile(100.0, [20.0, 60.0, 10.0]), Ok(10.0));
        // A replay that outruns the span leaves a negative remainder.
        assert_eq!(reconcile(100.0, [20.0, 80.0, 8.0]), Ok(-8.0));
        // 42 ms is the edge: 40 % of 100 ms plus 2 ms of slack.
        assert_eq!(reconcile(100.0, [20.0, 30.0, 8.0]), Ok(42.0));
        let (rest, problem) = reconcile(100.0, [20.0, 30.0, 5.0]).unwrap_err();
        assert_eq!(rest, 45.0);
        assert!(problem.contains("45.000 ms unattributed"), "{problem}");
        assert!(reconcile(100.0, [60.0, 80.0, 5.0]).is_err());
        // The slack covers spans too short for a share to mean much.
        assert_eq!(reconcile(1.0, [0.0, 0.0, 0.0]), Ok(1.0));
    }
}
