//! Output sinks: JSONL line encoding and the human-readable timeline.

use crate::json::JsonObject;
use crate::metrics::MetricsSnapshot;
use crate::span::{AttrValue, SpanRecord};
use crate::DeviceEvent;
use std::fmt::Write as _;

/// Encodes span attributes as a JSON object, in attribute order.
pub fn attrs_json(attrs: &[(String, AttrValue)]) -> String {
    let mut obj = JsonObject::new();
    for (k, v) in attrs {
        obj = match v {
            AttrValue::U64(v) => obj.u64_field(k, *v),
            AttrValue::I64(v) => obj.i64_field(k, *v),
            AttrValue::F64(v) => obj.f64_field(k, *v),
            AttrValue::Str(v) => obj.str_field(k, v),
        };
    }
    obj.finish()
}

/// Encodes one span as a JSONL event line (no trailing newline).
pub fn span_line(rec: &SpanRecord) -> String {
    let mut obj = JsonObject::new()
        .str_field("type", "span")
        .u64_field("id", rec.id)
        .u64_field("parent", rec.parent.unwrap_or(0))
        .str_field("name", &rec.name)
        .f64_field("start_s", rec.start_secs)
        .f64_field("wall_s", rec.wall_secs)
        .f64_field("sim_s", rec.sim_secs);
    obj = obj.raw_field("attrs", &attrs_json(&rec.attrs));
    obj.finish()
}

/// Encodes one bridged device-trace event as a JSONL line.
pub fn device_event_line(ev: &DeviceEvent) -> String {
    JsonObject::new()
        .str_field("type", "device")
        .str_field("phase", &ev.phase)
        .f64_field("start_s", ev.start_s)
        .f64_field("duration_s", ev.duration_s)
        .u64_field("bytes", ev.bytes)
        .finish()
}

/// Encodes every metric in the snapshot, one JSONL line per metric.
pub fn metrics_lines(snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, value) in &snapshot.counters {
        lines.push(
            JsonObject::new()
                .str_field("type", "counter")
                .str_field("name", name)
                .u64_field("value", *value)
                .finish(),
        );
    }
    for (name, value) in &snapshot.gauges {
        lines.push(
            JsonObject::new()
                .str_field("type", "gauge")
                .str_field("name", name)
                .f64_field("value", *value)
                .finish(),
        );
    }
    for (name, h) in &snapshot.histograms {
        lines.push(
            JsonObject::new()
                .str_field("type", "histogram")
                .str_field("name", name)
                .u64_field("count", h.count)
                .f64_field("sum", h.sum)
                .f64_field("min", h.min)
                .f64_field("max", h.max)
                .f64_field("p50", h.p50)
                .f64_field("p95", h.p95)
                .f64_field("p99", h.p99)
                .finish(),
        );
    }
    lines
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s > 0.0 {
        format!("{:.1}us", s * 1e6)
    } else {
        "-".to_string()
    }
}

/// Renders the human-readable timeline: the span tree followed by a
/// metrics summary.
pub fn render_timeline(spans: &[SpanRecord], snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("telemetry timeline\n");
    out.push_str("  spans (sim = simulated device clock, wall = host clock):\n");
    if spans.is_empty() {
        out.push_str("    (none)\n");
    } else {
        let tree = crate::tree::SpanTree::build(spans.to_vec());
        tree.walk(|rec, depth| {
            let indent = "  ".repeat(depth + 2);
            let attrs = rec
                .attrs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "{indent}{:<24} sim {:>10}  wall {:>10}  {attrs}",
                rec.name,
                fmt_secs(rec.sim_secs),
                fmt_secs(rec.wall_secs),
            );
        });
    }
    if !snapshot.counters.is_empty() {
        out.push_str("  counters:\n");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "    {name:<32} {value}");
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("  gauges:\n");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "    {name:<32} {value:.6}");
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("  histograms (count / p50 / p95 / p99 / max):\n");
        for (name, h) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "    {name:<32} {} / {:.3e} / {:.3e} / {:.3e} / {:.3e}",
                h.count, h.p50, h.p95, h.p99, h.max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span() -> SpanRecord {
        SpanRecord {
            id: 2,
            parent: Some(1),
            name: "scan".into(),
            attrs: vec![("epoch".into(), 0usize.into())],
            start_secs: 0.125,
            wall_secs: 0.001,
            sim_secs: 0.25,
        }
    }

    #[test]
    fn timeline_renders_tree_and_metrics() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "epoch".into(),
                attrs: vec![("epoch".into(), 0usize.into())],
                start_secs: 0.0,
                wall_secs: 0.5,
                sim_secs: 2.0,
            },
            sample_span(),
        ];
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("train.batches".into(), 12));
        let text = render_timeline(&spans, &snap);
        assert!(text.contains("epoch"));
        assert!(text.contains("scan"));
        assert!(text.contains("train.batches"));
        // child indented deeper than parent
        let epoch_indent = text.lines().find(|l| l.contains("epoch ")).unwrap();
        let scan_indent = text.lines().find(|l| l.contains("scan ")).unwrap();
        let lead = |s: &str| s.len() - s.trim_start().len();
        assert!(lead(scan_indent) > lead(epoch_indent));
    }
}
