//! Unified telemetry for the NeSSA pipeline.
//!
//! Three pieces, zero external dependencies:
//!
//! * **Spans** — hierarchical RAII timers ([`Telemetry::span`]) that
//!   capture host wall-clock time automatically and accept
//!   simulated-device seconds explicitly (the SmartSSD simulator runs on
//!   a virtual clock, so sim time must be attributed by the caller).
//! * **Metrics** — a registry of named counters, gauges, and log-bucket
//!   histograms ([`Telemetry::counter`] et al.), cheap enough for
//!   per-batch hot loops.
//! * **Sinks** — everything is collected in memory; on top of that the
//!   `Timeline` mode prints a human-readable span tree + metrics summary
//!   at [`Telemetry::flush`], and the `Jsonl` mode streams one JSON
//!   object per completed span/bridged device event to a file, appending
//!   metric lines at flush.
//!
//! Instrumentation is opt-in per run: construct a [`Telemetry`] from
//! [`TelemetrySettings`] (typically via [`TelemetrySettings::from_env`],
//! which reads `NESSA_TELEMETRY=off|memory|timeline|jsonl|jsonl:<path>`).
//! A disabled handle ([`Telemetry::disabled`]) makes every call a no-op
//! so instrumented code needs no `if` guards.

pub mod clock;
pub mod json;
pub mod metrics;
pub mod parse;
pub mod phase;
pub mod sink;
pub mod span;
pub mod tree;

pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use parse::{parse_line, parse_stream, JsonValue, ParseError, StreamError, TelemetryEvent};
pub use sink::render_timeline;
pub use span::{AttrValue, SpanRecord};
pub use tree::SpanTree;

use crate::clock::Instant;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where telemetry goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Telemetry disabled; all calls are no-ops.
    #[default]
    Off,
    /// Collect in memory only (programmatic access via `spans()` etc.).
    Memory,
    /// Memory + a human-readable timeline printed to stdout at flush.
    Timeline,
    /// Memory + one JSON object per event appended to a `.jsonl` file.
    Jsonl,
}

/// Configuration for constructing a [`Telemetry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySettings {
    /// Selected sink mode.
    pub mode: TelemetryMode,
    /// Output path for [`TelemetryMode::Jsonl`]; defaults to
    /// `nessa-telemetry.jsonl` in the current directory.
    pub jsonl_path: Option<PathBuf>,
}

impl TelemetrySettings {
    /// Telemetry disabled.
    pub fn off() -> Self {
        Self::default()
    }

    /// In-memory collection only.
    pub fn memory() -> Self {
        Self {
            mode: TelemetryMode::Memory,
            jsonl_path: None,
        }
    }

    /// Timeline printing at flush.
    pub fn timeline() -> Self {
        Self {
            mode: TelemetryMode::Timeline,
            jsonl_path: None,
        }
    }

    /// JSONL streaming to `path`.
    pub fn jsonl(path: impl Into<PathBuf>) -> Self {
        Self {
            mode: TelemetryMode::Jsonl,
            jsonl_path: Some(path.into()),
        }
    }

    /// Parses the `NESSA_TELEMETRY` environment variable:
    /// `off` (or unset/empty), `memory`, `timeline`, `jsonl`, or
    /// `jsonl:<path>`. Unrecognized values fall back to `off`.
    pub fn from_env() -> Self {
        match std::env::var("NESSA_TELEMETRY") {
            Ok(v) => Self::parse(&v),
            Err(_) => Self::off(),
        }
    }

    /// Parses a `NESSA_TELEMETRY`-style value (see [`Self::from_env`]).
    pub fn parse(value: &str) -> Self {
        let v = value.trim();
        if let Some(path) = v.strip_prefix("jsonl:") {
            return Self::jsonl(path.trim());
        }
        match v.to_ascii_lowercase().as_str() {
            "memory" => Self::memory(),
            "timeline" => Self::timeline(),
            "jsonl" => Self {
                mode: TelemetryMode::Jsonl,
                jsonl_path: None,
            },
            _ => Self::off(),
        }
    }

    /// The JSONL output path this configuration resolves to.
    pub fn resolved_jsonl_path(&self) -> PathBuf {
        self.jsonl_path
            .clone()
            .unwrap_or_else(|| PathBuf::from("nessa-telemetry.jsonl"))
    }
}

/// A device-level trace event bridged from the SmartSSD simulator's
/// `Trace` into the unified stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceEvent {
    /// Device phase label (e.g. `"scan"`, `"select"`).
    pub phase: String,
    /// Simulated start time in seconds since run start.
    pub start_s: f64,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Bytes moved during the event.
    pub bytes: u64,
}

struct Inner {
    mode: TelemetryMode,
    created: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    device_events: Mutex<Vec<DeviceEvent>>,
    metrics: MetricsRegistry,
    next_id: AtomicU64,
    // Open spans as (owning thread, span id). Parenting is *per thread*:
    // a new span nests under the innermost open span of its own thread,
    // so concurrent spans on different threads (the overlapped pipeline's
    // selection worker vs. the training thread) never cross-parent.
    open_stack: Mutex<Vec<(std::thread::ThreadId, u64)>>,
    jsonl: Mutex<Option<BufWriter<fs::File>>>,
    jsonl_path: Option<PathBuf>,
}

/// A cloneable handle to one run's telemetry stream.
///
/// Cloning is cheap (an `Arc` bump); all clones feed the same collector.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("mode", &self.mode())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// A handle on which every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Builds a telemetry stream for `settings`. In `Jsonl` mode the
    /// output file is created (truncated) immediately; if that fails a
    /// warning is printed and the stream degrades to `Memory`.
    pub fn new(settings: &TelemetrySettings) -> Self {
        let mut mode = settings.mode;
        if mode == TelemetryMode::Off {
            return Self::disabled();
        }
        let mut jsonl = None;
        let mut jsonl_path = None;
        if mode == TelemetryMode::Jsonl {
            let path = settings.resolved_jsonl_path();
            match fs::File::create(&path) {
                Ok(f) => {
                    jsonl = Some(BufWriter::new(f));
                    jsonl_path = Some(path);
                }
                Err(e) => {
                    eprintln!(
                        "nessa-telemetry: cannot create {} ({e}); falling back to memory mode",
                        path.display()
                    );
                    mode = TelemetryMode::Memory;
                }
            }
        }
        Telemetry {
            inner: Some(Arc::new(Inner {
                mode,
                created: clock::now(),
                spans: Mutex::new(Vec::new()),
                device_events: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::default(),
                next_id: AtomicU64::new(1),
                open_stack: Mutex::new(Vec::new()),
                jsonl: Mutex::new(jsonl),
                jsonl_path,
            })),
        }
    }

    /// Convenience: build from the `NESSA_TELEMETRY` environment variable.
    pub fn from_env() -> Self {
        Self::new(&TelemetrySettings::from_env())
    }

    /// Whether any collection is happening.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The active mode (`Off` for a disabled handle).
    pub fn mode(&self) -> TelemetryMode {
        self.inner
            .as_ref()
            .map(|i| i.mode)
            .unwrap_or(TelemetryMode::Off)
    }

    /// The JSONL output path, when streaming to a file.
    pub fn jsonl_path(&self) -> Option<&Path> {
        self.inner.as_ref()?.jsonl_path.as_deref()
    }

    /// Opens a span. The returned guard records host wall time until it
    /// is dropped (or [`SpanGuard::finish`]ed); simulated seconds and
    /// attributes are attached via the guard. Spans opened while another
    /// span from the same stream is open **on the same thread** become
    /// its children; spans on other threads are unaffected (use
    /// [`Self::span_child_of`] to parent across threads explicitly).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.open_span(name, None)
    }

    /// Opens a span explicitly parented to `parent` (a span id from
    /// [`SpanGuard::id`]) instead of this thread's innermost open span.
    /// The overlapped pipeline uses this to hang a worker thread's
    /// selection spans under the main thread's `epoch` span; subsequent
    /// spans opened on the worker thread nest under it as usual.
    pub fn span_child_of(&self, name: &str, parent: Option<u64>) -> SpanGuard {
        self.open_span(name, Some(parent))
    }

    fn open_span(&self, name: &str, forced_parent: Option<Option<u64>>) -> SpanGuard {
        let Some(inner) = self.inner.as_ref() else {
            return SpanGuard {
                inner: None,
                record: None,
                start: clock::now(),
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current().id();
        let parent = {
            let mut stack = inner.open_stack.lock().unwrap();
            let natural = stack
                .iter()
                .rev()
                .find(|(t, _)| *t == thread)
                .map(|&(_, id)| id);
            stack.push((thread, id));
            forced_parent.unwrap_or(natural)
        };
        SpanGuard {
            inner: Some(Arc::clone(inner)),
            record: Some(SpanRecord {
                id,
                parent,
                name: name.to_string(),
                attrs: Vec::new(),
                start_secs: inner.created.elapsed().as_secs_f64(),
                wall_secs: 0.0,
                sim_secs: 0.0,
            }),
            start: clock::now(),
        }
    }

    /// Counter handle. On a disabled stream the handle works but feeds
    /// an unregistered metric.
    pub fn counter(&self, name: &str) -> Counter {
        match self.inner.as_ref() {
            Some(i) => i.metrics.counter(name),
            None => Counter::default(),
        }
    }

    /// Gauge handle (see [`Self::counter`] for disabled behavior).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.inner.as_ref() {
            Some(i) => i.metrics.gauge(name),
            None => Gauge::default(),
        }
    }

    /// Histogram handle (see [`Self::counter`] for disabled behavior).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.inner.as_ref() {
            Some(i) => i.metrics.histogram(name),
            None => Histogram::default(),
        }
    }

    /// Bridges one device-trace event into the stream.
    pub fn record_device_event(&self, event: DeviceEvent) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if inner.mode == TelemetryMode::Jsonl {
            let line = sink::device_event_line(&event);
            if let Some(w) = inner.jsonl.lock().unwrap().as_mut() {
                let _ = writeln!(w, "{line}");
            }
        }
        inner.device_events.lock().unwrap().push(event);
    }

    /// Seconds since the stream was created (host wall clock); `None` on
    /// a disabled handle. Span `start_secs` offsets count from the same
    /// origin.
    pub fn elapsed_secs(&self) -> Option<f64> {
        self.inner
            .as_ref()
            .map(|i| i.created.elapsed().as_secs_f64())
    }

    /// All completed spans so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map(|i| i.spans.lock().unwrap().clone())
            .unwrap_or_default()
    }

    /// All bridged device events so far.
    pub fn device_events(&self) -> Vec<DeviceEvent> {
        self.inner
            .as_ref()
            .map(|i| i.device_events.lock().unwrap().clone())
            .unwrap_or_default()
    }

    /// Point-in-time snapshot of every metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map(|i| i.metrics.snapshot())
            .unwrap_or_default()
    }

    /// Renders the timeline view (regardless of mode).
    pub fn render_timeline(&self) -> String {
        sink::render_timeline(&self.spans(), &self.metrics_snapshot())
    }

    /// Finishes the stream for this run: prints the timeline in
    /// `Timeline` mode; appends metric lines and syncs the file in
    /// `Jsonl` mode. Safe to call multiple times (metric lines are
    /// re-appended with current values).
    pub fn flush(&self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        match inner.mode {
            TelemetryMode::Timeline => print!("{}", self.render_timeline()),
            TelemetryMode::Jsonl => {
                let snapshot = inner.metrics.snapshot();
                if let Some(w) = inner.jsonl.lock().unwrap().as_mut() {
                    for line in sink::metrics_lines(&snapshot) {
                        let _ = writeln!(w, "{line}");
                    }
                    let _ = w.flush();
                }
            }
            TelemetryMode::Off | TelemetryMode::Memory => {}
        }
    }
}

/// RAII timer for one span; created by [`Telemetry::span`].
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    record: Option<SpanRecord>,
    start: Instant,
}

impl SpanGuard {
    /// This span's id (`None` on a disabled stream) — pass it to
    /// [`Telemetry::span_child_of`] to parent a span from another thread
    /// under this one.
    pub fn id(&self) -> Option<u64> {
        self.record.as_ref().map(|r| r.id)
    }

    /// Attaches an attribute (builder style).
    pub fn with_attr(mut self, key: &str, value: impl Into<AttrValue>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Attaches an attribute in place.
    pub fn set_attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(rec) = self.record.as_mut() {
            rec.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Adds simulated-device seconds to this span.
    pub fn add_sim_secs(&mut self, secs: f64) {
        if let Some(rec) = self.record.as_mut() {
            rec.sim_secs += secs;
        }
    }

    /// Simulated seconds accumulated so far.
    pub fn sim_secs(&self) -> f64 {
        self.record.as_ref().map(|r| r.sim_secs).unwrap_or(0.0)
    }

    /// Completes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(inner), Some(mut rec)) = (self.inner.take(), self.record.take()) else {
            return;
        };
        rec.wall_secs = self.start.elapsed().as_secs_f64();
        {
            let mut stack = inner.open_stack.lock().unwrap();
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == rec.id) {
                stack.remove(pos);
            }
        }
        if inner.mode == TelemetryMode::Jsonl {
            let line = sink::span_line(&rec);
            if let Some(w) = inner.jsonl.lock().unwrap().as_mut() {
                let _ = writeln!(w, "{line}");
            }
        }
        inner.spans.lock().unwrap().push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "nessa-telemetry-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let mut span = t.span("noop");
        span.set_attr("k", 1u64);
        span.add_sim_secs(1.0);
        drop(span);
        t.counter("c").inc();
        t.flush();
        assert!(t.spans().is_empty());
        assert!(t.metrics_snapshot().counters.is_empty());
    }

    #[test]
    fn spans_nest_and_record_sim_time() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        {
            let mut epoch = t.span("epoch").with_attr("epoch", 0usize);
            {
                let mut scan = t.span("scan").with_attr("epoch", 0usize);
                scan.add_sim_secs(0.5);
                scan.finish();
            }
            epoch.add_sim_secs(0.5);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let scan = spans.iter().find(|s| s.name == "scan").unwrap();
        let epoch = spans.iter().find(|s| s.name == "epoch").unwrap();
        assert_eq!(scan.parent, Some(epoch.id));
        assert_eq!(epoch.parent, None);
        assert_eq!(scan.sim_secs, 0.5);
        assert!(scan.wall_secs >= 0.0);
        assert_eq!(scan.attr_u64("epoch"), Some(0));
    }

    #[test]
    fn sibling_spans_share_parent() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        {
            let _root = t.span("root");
            t.span("a").finish();
            t.span("b").finish();
        }
        let spans = t.spans();
        let root_id = spans.iter().find(|s| s.name == "root").unwrap().id;
        for name in ["a", "b"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(root_id), "{name} should nest under root");
        }
    }

    #[test]
    fn spans_on_other_threads_do_not_cross_parent() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        {
            let _train = t.span("train");
            let t2 = t.clone();
            std::thread::scope(|s| {
                s.spawn(move || {
                    // Opened while `train` is live on the main thread:
                    // must NOT become its child.
                    t2.span("worker-root").finish();
                });
            });
        }
        let spans = t.spans();
        let worker = spans.iter().find(|s| s.name == "worker-root").unwrap();
        assert_eq!(worker.parent, None, "no cross-thread auto-parenting");
    }

    #[test]
    fn span_child_of_parents_across_threads() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        {
            let epoch = t.span("epoch");
            let epoch_id = epoch.id();
            assert!(epoch_id.is_some());
            let t2 = t.clone();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let wrapper = t2.span_child_of("wrapper", epoch_id);
                    // Natural nesting continues under the explicit parent
                    // on the worker thread.
                    t2.span("inner").finish();
                    wrapper.finish();
                });
                let _train = t.span("train");
            });
        }
        let spans = t.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let epoch_id = by_name("epoch").id;
        assert_eq!(by_name("wrapper").parent, Some(epoch_id));
        assert_eq!(by_name("inner").parent, Some(by_name("wrapper").id));
        assert_eq!(by_name("train").parent, Some(epoch_id));
        // Disabled streams hand out no ids and stay inert.
        let off = Telemetry::disabled();
        assert_eq!(off.span("x").id(), None);
        off.span_child_of("y", Some(1)).finish();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn settings_parse_env_forms() {
        assert_eq!(TelemetrySettings::parse("off").mode, TelemetryMode::Off);
        assert_eq!(TelemetrySettings::parse("").mode, TelemetryMode::Off);
        assert_eq!(TelemetrySettings::parse("bogus").mode, TelemetryMode::Off);
        assert_eq!(
            TelemetrySettings::parse("Memory").mode,
            TelemetryMode::Memory
        );
        assert_eq!(
            TelemetrySettings::parse("timeline").mode,
            TelemetryMode::Timeline
        );
        let plain = TelemetrySettings::parse("jsonl");
        assert_eq!(plain.mode, TelemetryMode::Jsonl);
        assert_eq!(
            plain.resolved_jsonl_path(),
            PathBuf::from("nessa-telemetry.jsonl")
        );
        let with_path = TelemetrySettings::parse("jsonl:/tmp/run.jsonl");
        assert_eq!(with_path.jsonl_path, Some(PathBuf::from("/tmp/run.jsonl")));
    }

    #[test]
    fn jsonl_mode_streams_spans_events_and_metrics() {
        let path = temp_path("stream");
        let t = Telemetry::new(&TelemetrySettings::jsonl(&path));
        {
            let mut s = t.span("scan").with_attr("epoch", 1usize);
            s.add_sim_secs(0.25);
        }
        t.record_device_event(DeviceEvent {
            phase: "scan".into(),
            start_s: 0.0,
            duration_s: 0.25,
            bytes: 1024,
        });
        t.counter("train.batches").add(3);
        t.histogram("select.gain").observe(0.5);
        t.flush();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        assert!(lines.len() >= 4, "expected span+device+metrics lines");
        let type_of = |v: &JsonValue| v.get("type").and_then(JsonValue::as_str).map(String::from);
        let types: Vec<String> = lines.iter().filter_map(type_of).collect();
        for ty in ["span", "device", "counter", "histogram"] {
            assert!(types.iter().any(|t| t == ty), "missing type {ty}");
        }
        let span_line = lines
            .iter()
            .find(|v| type_of(v).as_deref() == Some("span"))
            .unwrap();
        assert_eq!(
            span_line.get("sim_s").and_then(JsonValue::as_f64),
            Some(0.25)
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn span_starts_are_monotonic_from_stream_origin() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        t.span("first").finish();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span("second").finish();
        let spans = t.spans();
        let first = spans.iter().find(|s| s.name == "first").unwrap();
        let second = spans.iter().find(|s| s.name == "second").unwrap();
        assert!(first.start_secs >= 0.0);
        assert!(second.start_secs > first.start_secs);
        assert!(t.elapsed_secs().unwrap() >= second.start_secs);
    }

    #[test]
    fn clones_share_the_stream() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        let t2 = t.clone();
        t2.span("from-clone").finish();
        t2.counter("c").inc();
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.metrics_snapshot().counters, vec![("c".to_string(), 1)]);
    }

    #[test]
    fn jsonl_open_failure_degrades_to_memory() {
        let t = Telemetry::new(&TelemetrySettings::jsonl(
            "/nonexistent-dir-zz/x/y/run.jsonl",
        ));
        assert!(t.is_enabled());
        assert_eq!(t.mode(), TelemetryMode::Memory);
        t.span("still-works").finish();
        assert_eq!(t.spans().len(), 1);
    }
}
