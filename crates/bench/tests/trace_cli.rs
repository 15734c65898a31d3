//! End-to-end checks of the `trace` binary: report/export/summary/diff
//! over synthetic telemetry streams, including the exit-code contract of
//! the regression gate.

use nessa_telemetry::JsonValue;
use std::path::PathBuf;
use std::process::Command;

const TRACE_BIN: &str = env!("CARGO_BIN_EXE_trace");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nessa-trace-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A two-epoch stream whose per-epoch simulated seconds are `scale`×1.0.
fn synth_stream(scale: f64) -> String {
    let mut out = String::new();
    let mut id = 1u64;
    for epoch in 0..2 {
        let eid = id;
        id += 1;
        let sim = scale;
        for (name, parent, sim_s) in [
            ("select", Some(eid), 0.6 * sim),
            ("train", Some(eid), 0.0),
            ("epoch", None, sim),
        ] {
            let span_id = if name == "epoch" {
                eid
            } else {
                let s = id;
                id += 1;
                s
            };
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{span_id},\"parent\":{},\"name\":\"{name}\",\"start_s\":{},\"wall_s\":0.25,\"sim_s\":{sim_s},\"attrs\":{{\"epoch\":{epoch}}}}}\n",
                parent.unwrap_or(0),
                epoch as f64,
            ));
        }
    }
    out.push_str("{\"type\":\"device\",\"phase\":\"scan\",\"start_s\":0,\"duration_s\":0.5,\"bytes\":2048}\n");
    out.push_str("{\"type\":\"counter\",\"name\":\"train.batches\",\"value\":8}\n");
    out
}

#[test]
fn report_and_export_work_end_to_end() {
    let dir = temp_dir("export");
    let run = dir.join("run.jsonl");
    std::fs::write(&run, synth_stream(1.0)).unwrap();

    let report = Command::new(TRACE_BIN)
        .arg("report")
        .arg(&run)
        .output()
        .unwrap();
    assert!(report.status.success(), "{report:?}");
    let text = String::from_utf8(report.stdout).unwrap();
    assert!(text.contains("trace report (2 epochs)"), "{text}");
    assert!(text.contains("critical path"), "{text}");

    let out = dir.join("run.trace.json");
    let export = Command::new(TRACE_BIN)
        .args([
            "export",
            run.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(export.status.success(), "{export:?}");
    // The artifact must be a JSON array of complete ("ph":"X") events
    // with pid/tid/ts/dur on every event.
    let chrome = std::fs::read_to_string(&out).unwrap();
    let events = JsonValue::parse(&chrome).unwrap();
    let events = events.as_arr().expect("top-level array");
    assert!(!events.is_empty());
    for ev in events {
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        for key in ["pid", "tid", "ts", "dur"] {
            assert!(ev.get(key).is_some(), "missing {key}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_passes_on_identical_runs_and_fails_on_regression() {
    let dir = temp_dir("diff");
    let base = dir.join("base.jsonl");
    let same = dir.join("same.jsonl");
    let slow = dir.join("slow.jsonl");
    std::fs::write(&base, synth_stream(1.0)).unwrap();
    std::fs::write(&same, synth_stream(1.0)).unwrap();
    // 50 % slower epochs: far past the default 10 % tolerance.
    std::fs::write(&slow, synth_stream(1.5)).unwrap();

    let ok = Command::new(TRACE_BIN)
        .args(["diff", base.to_str().unwrap(), same.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(ok.status.success(), "{ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("PASS"));

    let bench = dir.join("BENCH_pipeline.json");
    let bad = Command::new(TRACE_BIN)
        .args([
            "diff",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--bench-out",
            bench.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    assert!(String::from_utf8_lossy(&bad.stdout).contains("FAIL"));
    // The artifact is written even on failure and records the verdict.
    let artifact = JsonValue::parse(&std::fs::read_to_string(&bench).unwrap()).unwrap();
    assert_eq!(
        artifact.get("type").unwrap().as_str(),
        Some("nessa-bench-pipeline")
    );
    assert_eq!(artifact.get("passed"), Some(&JsonValue::Bool(false)));

    // A tolerance wide enough for the injected 50 % lets it pass again.
    let tolerant = Command::new(TRACE_BIN)
        .args([
            "diff",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--max-regress",
            "60",
        ])
        .output()
        .unwrap();
    assert!(tolerant.status.success(), "{tolerant:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_accepts_condensed_summaries() {
    let dir = temp_dir("summary");
    let run = dir.join("run.jsonl");
    let summary = dir.join("baseline.json");
    std::fs::write(&run, synth_stream(1.0)).unwrap();

    let condense = Command::new(TRACE_BIN)
        .args([
            "summary",
            run.to_str().unwrap(),
            "--out",
            summary.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(condense.status.success(), "{condense:?}");
    let v = JsonValue::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
    assert_eq!(v.get("type").unwrap().as_str(), Some("nessa-run-summary"));

    // Summary-vs-stream comparison: identical run, so it passes.
    let ok = Command::new(TRACE_BIN)
        .args(["diff", summary.to_str().unwrap(), run.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(ok.status.success(), "{ok:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_input_is_a_usage_error_not_a_gate_failure() {
    let dir = temp_dir("badinput");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"type\":\"span\", truncated").unwrap();
    let out = Command::new(TRACE_BIN)
        .arg("report")
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let none = Command::new(TRACE_BIN).output().unwrap();
    assert_eq!(none.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_baseline_without_epochs_is_a_usage_error_not_a_vacuous_pass() {
    let dir = temp_dir("noepochs");
    let run = dir.join("run.jsonl");
    std::fs::write(&run, synth_stream(1.0)).unwrap();
    // A `BENCH_pipeline.json` artifact from an earlier `diff --bench-out`,
    // an empty stream and a summary of no epochs: none holds an epoch to
    // compare against.
    let artifact = dir.join("BENCH_pipeline.json");
    let bench = Command::new(TRACE_BIN)
        .args(["diff", run.to_str().unwrap(), run.to_str().unwrap()])
        .arg("--bench-out")
        .arg(&artifact)
        .output()
        .unwrap();
    assert!(bench.status.success(), "{bench:?}");
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let no_epochs = dir.join("no_epochs.json");
    std::fs::write(
        &no_epochs,
        r#"{"type":"nessa-run-summary","metrics":{"epoch.count":0,"epoch.total_sim_s":0}}"#,
    )
    .unwrap();
    for baseline in [&artifact, &empty, &no_epochs] {
        let out = Command::new(TRACE_BIN)
            .arg("diff")
            .arg(baseline)
            .arg(&run)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{baseline:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("no epochs"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
