//! Pipeline health: the fault counters and the live-drive gauge.
//!
//! [`HealthMonitor`] owns the fault-tolerance counters the degradation
//! ladder reports into, all registered at construction so a fault-free
//! run publishes them as explicit zeros:
//!
//! * `fault.injected` — faults the armed `FaultPlan`s fired,
//! * `retry.attempts` — device retries after a transient error,
//! * `fallback.host` — selection rounds degraded to the host path,
//! * `fallback.random` — selection rounds degraded to random picks,
//! * `drive.evicted` — drives evicted after a dropout,
//! * `data.quarantined` — corrupt records dropped from the pool,
//!
//! plus a `health.drives_alive` gauge. Progress (epoch wall time,
//! throughput) is already in the `epoch` and `train` spans, so the
//! monitor keeps no copy of it and reads no clock.
//!
//! On a disabled telemetry handle everything degrades to a no-op (the
//! gauge and counters feed unregistered metrics).

use nessa_telemetry::{Counter, Gauge, Telemetry};

/// Fault counters and the live-drive gauge for one run.
pub struct HealthMonitor {
    drives_alive: Gauge,
    faults_injected: Counter,
    retry_attempts: Counter,
    fallback_host: Counter,
    fallback_random: Counter,
    drives_evicted: Counter,
    quarantined: Counter,
}

impl HealthMonitor {
    /// Registers the monitor's metrics on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> Self {
        HealthMonitor {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_telemetry::TelemetrySettings;

    #[test]
    fn fault_counters_register_at_zero_and_accumulate() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        let m = HealthMonitor::new(&t);
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
}
