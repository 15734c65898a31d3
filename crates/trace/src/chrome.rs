//! Chrome trace-event export.
//!
//! Emits the JSON array flavor of the [Trace Event Format] — complete
//! (`"ph":"X"`) events only — loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev). Host spans and device events land
//! on separate process tracks because they run on different clocks:
//!
//! * **pid 1 "host"** — every span, `ts` = wall-clock microseconds since
//!   the telemetry stream was created, `dur` = wall microseconds. Nesting
//!   reproduces the span tree.
//! * **pid 2 "device"** — bridged SmartSSD events, `ts`/`dur` in
//!   *simulated*-clock microseconds; each phase label gets its own `tid`
//!   so scan/select/ship/feedback render as parallel tracks.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::run::RunTrace;
use nessa_telemetry::json::JsonObject;
use nessa_telemetry::sink::attrs_json;
use std::collections::BTreeMap;

/// Host-span process id.
pub const HOST_PID: u64 = 1;
/// Device-event process id.
pub const DEVICE_PID: u64 = 2;

fn secs_to_us(s: f64) -> f64 {
    s * 1e6
}

/// Renders the trace as Chrome trace-event JSON (an array of complete
/// events), one event per line for diff-friendliness.
pub fn chrome_trace(trace: &RunTrace) -> String {
    let mut events = Vec::new();
    for span in trace.tree.spans() {
        events.push(
            JsonObject::new()
                .str_field("name", &span.name)
                .str_field("cat", "host")
                .str_field("ph", "X")
                .u64_field("pid", HOST_PID)
                .u64_field("tid", 1)
                .f64_field("ts", secs_to_us(span.start_secs))
                .f64_field("dur", secs_to_us(span.wall_secs))
                .raw_field("args", &attrs_json(&span.attrs))
                .finish(),
        );
    }
    // One tid per device phase label, in order of first appearance, so
    // overlapping phases render as parallel tracks.
    let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
    let mut next_tid = 1u64;
    for ev in &trace.device_events {
        let tid = *tids.entry(ev.phase.as_str()).or_insert_with(|| {
            let t = next_tid;
            next_tid += 1;
            t
        });
        events.push(
            JsonObject::new()
                .str_field("name", &ev.phase)
                .str_field("cat", "device-sim")
                .str_field("ph", "X")
                .u64_field("pid", DEVICE_PID)
                .u64_field("tid", tid)
                .f64_field("ts", secs_to_us(ev.start_s))
                .f64_field("dur", secs_to_us(ev.duration_s))
                .raw_field(
                    "args",
                    &JsonObject::new().u64_field("bytes", ev.bytes).finish(),
                )
                .finish(),
        );
    }
    let mut out = String::from("[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_telemetry::{DeviceEvent, JsonValue, SpanRecord, SpanTree};

    fn sample_trace() -> RunTrace {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "epoch".into(),
                attrs: vec![("epoch".into(), 0u64.into())],
                start_secs: 0.0,
                wall_secs: 0.5,
                sim_secs: 0.4,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "scan".into(),
                attrs: Vec::new(),
                start_secs: 0.1,
                wall_secs: 0.05,
                sim_secs: 0.2,
            },
        ];
        RunTrace {
            tree: SpanTree::build(spans),
            device_events: vec![
                DeviceEvent {
                    phase: "scan".into(),
                    start_s: 0.0,
                    duration_s: 0.2,
                    bytes: 1024,
                },
                DeviceEvent {
                    phase: "select".into(),
                    start_s: 0.2,
                    duration_s: 0.1,
                    bytes: 0,
                },
            ],
            ..RunTrace::default()
        }
    }

    #[test]
    fn output_is_a_valid_event_array() {
        let text = chrome_trace(&sample_trace());
        let parsed = JsonValue::parse(&text).unwrap();
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 4);
        for ev in events {
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            for key in ["name", "pid", "tid", "ts", "dur"] {
                assert!(ev.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn clock_domains_use_separate_pids() {
        let text = chrome_trace(&sample_trace());
        let parsed = JsonValue::parse(&text).unwrap();
        let events = parsed.as_arr().unwrap().to_vec();
        let host: Vec<_> = events
            .iter()
            .filter(|e| e.get("pid").unwrap().as_u64() == Some(HOST_PID))
            .collect();
        let device: Vec<_> = events
            .iter()
            .filter(|e| e.get("pid").unwrap().as_u64() == Some(DEVICE_PID))
            .collect();
        assert_eq!(host.len(), 2);
        assert_eq!(device.len(), 2);
        // Host span ts/dur are wall microseconds.
        let scan = host
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("scan"))
            .unwrap();
        assert_eq!(scan.get("ts").unwrap().as_f64(), Some(0.1e6));
        assert_eq!(scan.get("dur").unwrap().as_f64(), Some(0.05e6));
        // Device phases get distinct tids.
        let tids: Vec<u64> = device
            .iter()
            .map(|e| e.get("tid").unwrap().as_u64().unwrap())
            .collect();
        assert_ne!(tids[0], tids[1]);
    }

    #[test]
    fn span_args_carry_attributes() {
        let text = chrome_trace(&sample_trace());
        let parsed = JsonValue::parse(&text).unwrap();
        let epoch = parsed
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("epoch"))
            .cloned()
            .unwrap();
        assert_eq!(
            epoch.get("args").unwrap().get("epoch").unwrap().as_u64(),
            Some(0)
        );
    }
}
