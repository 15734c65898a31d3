//! Offline analysis of NeSSA telemetry streams.
//!
//! `nessa-telemetry` records what happened (spans, device events,
//! metrics); this crate answers *where the epoch went and whether a
//! change made it slower*. It loads a telemetry JSONL artifact back into
//! typed form ([`RunTrace`]) and provides three views on top:
//!
//! * **Report** ([`TraceReport`]) — per-epoch and per-phase wall/sim
//!   breakdowns, critical-path extraction, the selection-vs-training
//!   overlap ratio (the paper's central trade-off), and histogram
//!   quantiles.
//! * **Export** ([`chrome::chrome_trace`]) — Chrome trace-event JSON
//!   loadable in `chrome://tracing` or Perfetto, with host spans and
//!   simulated-clock device events on separate tracks.
//! * **Diff** ([`diff::diff_runs`]) — compares two runs through
//!   tolerance-based regression gates and emits the `BENCH_pipeline.json`
//!   trajectory artifact consumed by CI.
//!
//! The CLI lives in `nessa-bench` (`cargo run -p nessa-bench --bin trace`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod diff;
pub mod report;
pub mod run;

pub use chrome::chrome_trace;
pub use diff::{bench_artifact, diff_runs, DiffGates, DiffItem, DiffReport, RunSummary};
pub use report::{EpochReport, PhaseStat, TraceReport};
pub use run::{LoadError, RunTrace};
