//! Live pipeline health: progress gauges and fault counters.
//!
//! The telemetry stream already records *what happened*; this module
//! publishes *how the run is going* while it happens. [`HealthMonitor`]
//! reports per-epoch throughput and an ETA through the ordinary metrics
//! registry, so every sink (timeline, JSONL, in-memory snapshot) sees
//! them with no extra plumbing:
//!
//! * `health.epoch_secs` — wall seconds of the most recent epoch,
//! * `health.samples_per_sec` — training throughput of that epoch,
//! * `health.epochs_done` — completed epochs,
//! * `health.eta_secs` — mean epoch time × remaining epochs.
//!
//! The monitor also owns the fault-tolerance counters the degradation
//! ladder reports into (all registered at construction, so a fault-free
//! run publishes them as explicit zeros):
//!
//! * `fault.injected` — faults the armed `FaultPlan`s fired,
//! * `retry.attempts` — device retries after a transient error,
//! * `fallback.host` — selection rounds degraded to the host path,
//! * `fallback.random` — selection rounds degraded to random picks,
//! * `drive.evicted` — drives evicted after a dropout,
//! * `data.quarantined` — corrupt records dropped from the pool,
//!
//! plus a `health.drives_alive` gauge.
//!
//! On a disabled telemetry handle everything degrades to a no-op (the
//! gauges and counters feed unregistered metrics).

use nessa_telemetry::clock::{self, Instant};
use nessa_telemetry::{Counter, Gauge, Telemetry};

/// Epoch-granular progress gauges and fault counters for one run.
pub struct HealthMonitor {
    total_epochs: usize,
    epochs_done: usize,
    started: Instant,
    last_epoch_end: Instant,
    epoch_secs: Gauge,
    samples_per_sec: Gauge,
    epochs_done_gauge: Gauge,
    eta_secs: Gauge,
    drives_alive: Gauge,
    faults_injected: Counter,
    retry_attempts: Counter,
    fallback_host: Counter,
    fallback_random: Counter,
    drives_evicted: Counter,
    quarantined: Counter,
}

impl HealthMonitor {
    /// Creates a monitor for a run of `total_epochs` epochs.
    pub fn new(telemetry: &Telemetry, total_epochs: usize) -> Self {
        let now = clock::now();
        HealthMonitor {
            total_epochs,
            epochs_done: 0,
            started: now,
            last_epoch_end: now,
            epoch_secs: telemetry.gauge("health.epoch_secs"),
            samples_per_sec: telemetry.gauge("health.samples_per_sec"),
            epochs_done_gauge: telemetry.gauge("health.epochs_done"),
            eta_secs: telemetry.gauge("health.eta_secs"),
            drives_alive: telemetry.gauge("health.drives_alive"),
            faults_injected: telemetry.counter("fault.injected"),
            retry_attempts: telemetry.counter("retry.attempts"),
            fallback_host: telemetry.counter("fallback.host"),
            fallback_random: telemetry.counter("fallback.random"),
            drives_evicted: telemetry.counter("drive.evicted"),
            quarantined: telemetry.counter("data.quarantined"),
        }
    }

    /// Records one device retry after a transient fault.
    pub fn note_retry(&self) {
        self.retry_attempts.inc();
    }

    /// Records one selection round degraded to the host path.
    pub fn note_fallback_host(&self) {
        self.fallback_host.inc();
    }

    /// Records one selection round degraded to random picks.
    pub fn note_fallback_random(&self) {
        self.fallback_random.inc();
    }

    /// Records a drive eviction and refreshes the live-drive gauge.
    pub fn note_drive_evicted(&self, drives_alive: usize) {
        self.drives_evicted.inc();
        self.drives_alive.set(drives_alive as f64);
    }

    /// Publishes the current live-drive count.
    pub fn set_drives_alive(&self, drives: usize) {
        self.drives_alive.set(drives as f64);
    }

    /// Records `records` corrupt records quarantined out of the pool.
    pub fn note_quarantined(&self, records: u64) {
        if records > 0 {
            self.quarantined.add(records);
        }
    }

    /// Records faults fired by the armed plans since the last report.
    pub fn note_faults_injected(&self, faults: u64) {
        if faults > 0 {
            self.faults_injected.add(faults);
        }
    }

    /// Records one completed epoch that trained on `samples` samples and
    /// refreshes every gauge. Returns the epoch's wall seconds.
    pub fn epoch_completed(&mut self, samples: usize) -> f64 {
        let now = clock::now();
        let epoch_secs = now.duration_since(self.last_epoch_end).as_secs_f64();
        self.last_epoch_end = now;
        self.epochs_done += 1;
        self.epoch_secs.set(epoch_secs);
        if epoch_secs > 0.0 {
            self.samples_per_sec.set(samples as f64 / epoch_secs);
        }
        self.epochs_done_gauge.set(self.epochs_done as f64);
        self.eta_secs.set(self.eta_secs_now());
        epoch_secs
    }

    /// Number of epochs recorded so far.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Remaining-time estimate: mean epoch wall time so far times the
    /// epochs still to run. `None` before the first epoch completes.
    pub fn eta_secs(&self) -> Option<f64> {
        (self.epochs_done > 0).then(|| self.eta_secs_now())
    }

    fn eta_secs_now(&self) -> f64 {
        if self.epochs_done == 0 {
            return 0.0;
        }
        let mean = self.started.elapsed().as_secs_f64() / self.epochs_done as f64;
        mean * self.total_epochs.saturating_sub(self.epochs_done) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_telemetry::TelemetrySettings;

    #[test]
    fn gauges_track_epoch_progress() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        let mut m = HealthMonitor::new(&t, 4);
        assert_eq!(m.epochs_done(), 0);
        assert!(m.eta_secs().is_none());
        let secs = m.epoch_completed(300);
        assert!(secs >= 0.0);
        m.epoch_completed(300);
        assert_eq!(m.epochs_done(), 2);
        assert!(m.eta_secs().unwrap() >= 0.0);
        let snap = t.metrics_snapshot();
        let gauges: std::collections::BTreeMap<_, _> = snap.gauges.into_iter().collect();
        assert_eq!(gauges["health.epochs_done"], 2.0);
        assert!(gauges.contains_key("health.epoch_secs"));
        assert!(gauges.contains_key("health.samples_per_sec"));
        assert!(gauges.contains_key("health.eta_secs"));
    }

    #[test]
    fn fault_counters_register_at_zero_and_accumulate() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        let m = HealthMonitor::new(&t, 2);
        let zeros: std::collections::BTreeMap<_, _> =
            t.metrics_snapshot().counters.into_iter().collect();
        for name in [
            "fault.injected",
            "retry.attempts",
            "fallback.host",
            "fallback.random",
            "drive.evicted",
            "data.quarantined",
        ] {
            assert_eq!(zeros[name], 0, "{name} must register as explicit zero");
        }
        m.note_retry();
        m.note_retry();
        m.note_fallback_host();
        m.note_fallback_random();
        m.note_drive_evicted(3);
        m.note_quarantined(5);
        m.note_quarantined(0);
        m.note_faults_injected(7);
        let snap = t.metrics_snapshot();
        let counters: std::collections::BTreeMap<_, _> = snap.counters.into_iter().collect();
        assert_eq!(counters["retry.attempts"], 2);
        assert_eq!(counters["fallback.host"], 1);
        assert_eq!(counters["fallback.random"], 1);
        assert_eq!(counters["drive.evicted"], 1);
        assert_eq!(counters["data.quarantined"], 5);
        assert_eq!(counters["fault.injected"], 7);
        let gauges: std::collections::BTreeMap<_, _> = snap.gauges.into_iter().collect();
        assert_eq!(gauges["health.drives_alive"], 3.0);
    }

    #[test]
    fn disabled_telemetry_still_counts_epochs() {
        let t = Telemetry::disabled();
        let mut m = HealthMonitor::new(&t, 2);
        m.epoch_completed(10);
        assert_eq!(m.epochs_done(), 1);
    }
}
