//! Offline trace analyzer CLI over `nessa-trace`.
//!
//! ```text
//! trace report  <run.jsonl> [--min-overlap <ratio>]
//! trace export  <run.jsonl> [--out <path>]
//! trace summary <run.jsonl> [--out <path>]
//! trace diff    <baseline> <current> [--max-regress <pct>] [--wall]
//!               [--bench-out <path>]
//! ```
//!
//! * **report** prints per-epoch phase breakdowns, critical paths, the
//!   selection-vs-training overlap ratio, and histogram quantiles. With
//!   `--min-overlap <ratio>` it **exits nonzero** when the mean *measured*
//!   overlap ratio (concurrent span-interval intersection) falls below the
//!   threshold — the CI gate for overlapped pipelining. Only meaningful
//!   for traces captured on a multicore host: a single core serializes
//!   the two sides and measures ≈ 0 no matter how the run was scheduled.
//! * **export** writes Chrome trace-event JSON (open in `chrome://tracing`
//!   or <https://ui.perfetto.dev>). Default output: the input path with a
//!   `.trace.json` extension.
//! * **summary** writes the condensed run summary JSON — the format
//!   checked in as a regression baseline.
//! * **diff** compares two runs (each argument may be a telemetry JSONL
//!   stream or an already-condensed summary JSON; the format is
//!   auto-detected) and **exits nonzero** when a gated metric regresses
//!   more than the tolerance (default 10 %). Gates cover simulated-clock
//!   metrics only unless `--wall` is given. `--bench-out` additionally
//!   writes the `BENCH_pipeline.json` artifact.

use nessa_telemetry::JsonValue;
use nessa_trace::{
    bench_artifact, chrome_trace, diff_runs, DiffGates, RunSummary, RunTrace, TraceReport,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace report  <run.jsonl> [--min-overlap <ratio>]\n       \
                trace export  <run.jsonl> [--out <path>]\n       \
                trace summary <run.jsonl> [--out <path>]\n       \
                trace diff    <baseline> <current> [--max-regress <pct>] [--wall] [--bench-out <path>]"
    );
    ExitCode::from(2)
}

/// Loads either a raw telemetry JSONL stream or a pre-condensed
/// `nessa-run-summary` JSON file, auto-detected by content.
fn load_summary(path: &Path) -> Result<RunSummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let summary = match JsonValue::parse(&text) {
        // A summary in an older layout would otherwise load as an empty
        // telemetry stream.
        Ok(v) if v.get("type").and_then(JsonValue::as_str) == Some("nessa-run-summary") => {
            RunSummary::from_json(&v).ok_or_else(|| {
                format!("{}: run summary without a \"metrics\" map", path.display())
            })?
        }
        _ => RunSummary::from_trace(&RunTrace::from_str(&text).map_err(|e| {
            format!(
                "{}: not a run summary and not a telemetry stream: {e}",
                path.display()
            )
        })?),
    };
    // An empty file, another JSON document (a `BENCH_pipeline.json`
    // artifact, say) or a summary of no epochs would compare as all
    // zeros and gate nothing.
    if !summary
        .metrics
        .get("epoch.count")
        .is_some_and(|&n| n >= 1.0)
    {
        return Err(format!(
            "{}: no epochs, so nothing to compare",
            path.display()
        ));
    }
    Ok(summary)
}

fn write_out(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Parses `--out <path>` style flags out of the tail arguments; returns
/// an error message on anything unrecognized.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        return Ok(Some(value));
    }
    Ok(None)
}

fn report(mut args: Vec<String>) -> Result<ExitCode, String> {
    let min_overlap = take_flag(&mut args, "--min-overlap")?
        .map(|raw| match raw.parse::<f64>() {
            Ok(r) if (0.0..=1.0).contains(&r) => Ok(r),
            _ => Err(format!(
                "--min-overlap expects a ratio in [0, 1], got {raw}"
            )),
        })
        .transpose()?;
    let [input] = args.as_slice() else {
        return Ok(usage());
    };
    let trace = RunTrace::from_path(input).map_err(|e| e.to_string())?;
    let report = TraceReport::from_trace(&trace);
    print!("{}", report.render());
    if let Some(threshold) = min_overlap {
        let Some(measured) = report.mean_overlap_ratio() else {
            eprintln!(
                "trace: --min-overlap {threshold} requested but no epoch has both a \
                 selection side and a train span to measure"
            );
            return Ok(ExitCode::FAILURE);
        };
        if measured < threshold {
            eprintln!(
                "trace: mean measured overlap ratio {measured:.3} below the \
                 --min-overlap {threshold} gate"
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("overlap gate: mean measured ratio {measured:.3} >= {threshold} — ok");
    }
    Ok(ExitCode::SUCCESS)
}

fn export(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out = take_flag(&mut args, "--out")?;
    let [input] = args.as_slice() else {
        return Ok(usage());
    };
    let trace = RunTrace::from_path(input).map_err(|e| e.to_string())?;
    let out = out
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(input).with_extension("trace.json"));
    write_out(&out, &chrome_trace(&trace))?;
    println!(
        "wrote {} ({} host spans, {} device events) — load in chrome://tracing or ui.perfetto.dev",
        out.display(),
        trace.tree.len(),
        trace.device_events.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn summary(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out = take_flag(&mut args, "--out")?;
    let [input] = args.as_slice() else {
        return Ok(usage());
    };
    let mut json = load_summary(Path::new(input))?.to_json();
    json.push('\n');
    match out {
        Some(path) => {
            let path = PathBuf::from(path);
            write_out(&path, &json)?;
            println!("wrote {}", path.display());
        }
        None => print!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(mut args: Vec<String>) -> Result<ExitCode, String> {
    let max_regress = take_flag(&mut args, "--max-regress")?;
    let bench_out = take_flag(&mut args, "--bench-out")?;
    let gate_wall = if let Some(pos) = args.iter().position(|a| a == "--wall") {
        args.remove(pos);
        true
    } else {
        false
    };
    let [base_path, cur_path] = args.as_slice() else {
        return Ok(usage());
    };
    let mut gates = DiffGates {
        gate_wall,
        ..DiffGates::default()
    };
    if let Some(pct) = max_regress {
        match pct.parse::<f64>() {
            Ok(p) if p >= 0.0 => gates.max_regress_pct = p,
            _ => return Err(format!("--max-regress expects a percentage, got {pct}")),
        }
    }
    let base = load_summary(Path::new(base_path))?;
    let current = load_summary(Path::new(cur_path))?;
    let report = diff_runs(&base, &current, gates);
    print!("{}", report.render());
    if let Some(path) = bench_out {
        let path = PathBuf::from(path);
        write_out(&path, &bench_artifact(&base, &current, &report))?;
        println!("wrote {}", path.display());
    }
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one subcommand; any `Err` is a usage or I/O error and exits 2.
fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "report" => report(args),
        "export" => export(args),
        "summary" => summary(args),
        "diff" => diff(args),
        _ => Ok(usage()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("trace: {msg}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_without_metrics_map_is_an_error_not_an_empty_run() {
        let path = std::env::temp_dir().join(format!(
            "nessa-trace-nested-summary-{}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            r#"{"type":"nessa-run-summary","epoch_count":6,"total_sim_s":0.5}"#,
        )
        .unwrap();
        let err = load_summary(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("without a \"metrics\" map"), "{err}");
    }
}
