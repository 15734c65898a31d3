//! JSONL round trip: what a live `Telemetry` handle holds in memory must
//! survive serialization to JSONL and re-parsing through `nessa-trace`
//! unchanged — same span tree, same device events, same metric values and
//! histogram quantiles.

use nessa_telemetry::{DeviceEvent, Telemetry, TelemetrySettings};
use nessa_trace::{RunSummary, RunTrace, TraceReport};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nessa-trace-roundtrip-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// Drives a miniature two-epoch pipeline against a live handle.
fn run_workload(telemetry: &Telemetry) {
    let batches = telemetry.counter("train.batches");
    let queue = telemetry.gauge("ship.queue_depth");
    let select_hist = telemetry.histogram("select.chunk_secs");
    for epoch in 0..2u64 {
        let mut epoch_span = telemetry.span("epoch").with_attr("epoch", epoch);
        {
            let mut scan = telemetry
                .span("scan")
                .with_attr("epoch", epoch)
                .with_attr("bytes", 4096u64 * (epoch + 1));
            scan.add_sim_secs(0.125 + epoch as f64 * 0.03125);
            telemetry.record_device_event(DeviceEvent {
                phase: "scan".into(),
                start_s: epoch as f64,
                duration_s: 0.125,
                bytes: 4096 * (epoch + 1),
            });
            epoch_span.add_sim_secs(scan.sim_secs());
        }
        {
            let mut select = telemetry
                .span("select")
                .with_attr("epoch", epoch)
                .with_attr("fraction", 0.3);
            select.add_sim_secs(0.25);
            select_hist.observe(0.0625 * (epoch + 1) as f64);
            select_hist.observe(0.03125);
            epoch_span.add_sim_secs(select.sim_secs());
        }
        {
            let train = telemetry
                .span("train")
                .with_attr("epoch", epoch)
                .with_attr("model", "mlp");
            batches.add(20);
            queue.set(3.0 - epoch as f64 + 0.5);
            train.finish();
        }
        epoch_span.finish();
    }
}

#[test]
fn jsonl_round_trip_matches_in_memory_state() {
    let path = temp_path("full");
    let telemetry = Telemetry::new(&TelemetrySettings::jsonl(&path));
    run_workload(&telemetry);
    telemetry.flush();

    let live = RunTrace::from_telemetry(&telemetry);
    let parsed = RunTrace::from_path(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Span tree: identical ids, structure, names, attrs, and all three
    // timestamps (f64 serialization is shortest-round-trip, so exact).
    assert_eq!(parsed.tree.len(), live.tree.len());
    assert_eq!(parsed.tree.spans(), live.tree.spans());

    // Device events, in stream order.
    assert_eq!(parsed.device_events, live.device_events);

    // Metrics: counters and gauges exact; histogram summaries (including
    // the p50/p95/p99 quantile estimates) must survive bit-for-bit.
    let snapshot = telemetry.metrics_snapshot();
    assert_eq!(parsed.counters["train.batches"], 40);
    assert_eq!(parsed.counters, snapshot.counters.iter().cloned().collect());
    assert_eq!(parsed.gauges, snapshot.gauges.iter().cloned().collect());
    assert_eq!(
        parsed.histograms,
        snapshot.histograms.iter().cloned().collect()
    );
    let h = &parsed.histograms["select.chunk_secs"];
    assert_eq!(h.count, 4);
    assert!(h.p50 > 0.0 && h.p95 >= h.p50 && h.p99 >= h.p95);

    // Derived views agree between the live handle and the parsed file.
    let live_report = TraceReport::from_trace(&live);
    let parsed_report = TraceReport::from_trace(&parsed);
    assert_eq!(parsed_report.epochs.len(), 2);
    for (a, b) in live_report.epochs.iter().zip(&parsed_report.epochs) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.critical_path, b.critical_path);
    }
    assert_eq!(
        RunSummary::from_trace(&parsed),
        RunSummary::from_trace(&live)
    );
}

#[test]
fn flushing_twice_still_yields_final_metric_values() {
    let path = temp_path("twoflush");
    let telemetry = Telemetry::new(&TelemetrySettings::jsonl(&path));
    let c = telemetry.counter("c");
    c.inc();
    telemetry.flush();
    c.add(9);
    telemetry.flush();
    let parsed = RunTrace::from_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // Metric lines are appended per flush; the last generation wins.
    assert_eq!(parsed.counters["c"], 10);
}

#[test]
fn concurrent_spans_stream_in_memory_order() {
    // One JSONL stream, four threads closing spans as fast as they can:
    // the file must list spans and device events in exactly the order
    // the live handle holds them, or the parsed tree differs.
    const THREADS: u64 = 4;
    const PAIRS: u64 = 100; // 200 spans per thread
    for round in 0..50 {
        let path = temp_path(&format!("concurrent-{round}"));
        let telemetry = Telemetry::new(&TelemetrySettings::jsonl(&path));
        std::thread::scope(|s| {
            for thread in 0..THREADS {
                let telemetry = &telemetry;
                s.spawn(move || {
                    for i in 0..PAIRS {
                        let outer = telemetry
                            .span("outer")
                            .with_attr("thread", thread)
                            .with_attr("i", i);
                        telemetry.span("inner").with_attr("thread", thread).finish();
                        telemetry.record_device_event(DeviceEvent {
                            phase: "scan".into(),
                            start_s: i as f64,
                            duration_s: 0.5,
                            bytes: thread,
                        });
                        outer.finish();
                    }
                });
            }
        });
        telemetry.flush();
        let live = RunTrace::from_telemetry(&telemetry);
        let parsed = RunTrace::from_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(live.tree.len(), (2 * THREADS * PAIRS) as usize);
        assert_eq!(parsed.tree.spans(), live.tree.spans(), "round {round}");
        assert_eq!(parsed.device_events, live.device_events, "round {round}");
    }
}
