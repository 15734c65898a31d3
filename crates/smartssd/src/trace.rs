//! The drive's phase log, and the ledger read from it.
//!
//! Every [`SmartSsd`](crate::SmartSsd) phase is recorded once, as a
//! [`TraceEvent`] with its start time, duration and bytes moved. The
//! drive's [`TrafficStats`] and [`Energy`] are folds over that log, and
//! `Phase::cost` is the one table that decides which data path a phase's
//! bytes cross and what power it draws. The [`Trace`] also renders a
//! human-readable timeline — the raw material for Figure-4-style time
//! breakdowns.

use std::fmt;

/// Power draw of the flash/controller complex while streaming (W).
const SSD: (&str, f64) = ("ssd", 9.0);
/// Power draw of the FPGA while the kernel runs (paper §2.2: ~7.5 W).
const FPGA: (&str, f64) = ("fpga", 7.5);
/// Power draw of the host link while it transfers (W).
const LINK: (&str, f64) = ("link", 2.0);

/// The kind of device phase an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Flash → FPGA P2P scan.
    Scan,
    /// FPGA selection kernel execution.
    Select,
    /// FPGA → host subset transfer.
    Ship,
    /// Host → FPGA quantized-weight feedback.
    Feedback,
    /// Storage → host conventional (baseline) read.
    StagedRead,
    /// Host → flash dataset installation (one-time programming).
    Install,
    /// Idle backoff charged to the drive while the pipeline waits to
    /// retry a failed operation.
    Stall,
}

/// The traffic counter a phase's bytes are charged to.
type Path = fn(&mut TrafficStats) -> &mut u64;

impl Phase {
    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Scan => "scan",
            Phase::Select => "select",
            Phase::Ship => "ship",
            Phase::Feedback => "feedback",
            Phase::StagedRead => "staged-read",
            Phase::Install => "install",
            Phase::Stall => "stall",
        }
    }

    /// What the phase costs: the data path its bytes cross, and the
    /// component (with its draw in W) busy while it runs. Pure compute
    /// moves no bytes; an idle stall draws nothing.
    fn cost(self) -> (Option<Path>, Option<(&'static str, f64)>) {
        match self {
            Phase::Scan => (Some(|t| &mut t.ssd_to_fpga), Some(SSD)),
            Phase::Select => (None, Some(FPGA)),
            Phase::Ship => (Some(|t| &mut t.fpga_to_host), Some(LINK)),
            Phase::Feedback => (Some(|t| &mut t.host_to_fpga), Some(LINK)),
            Phase::StagedRead => (Some(|t| &mut t.staged_to_host), Some(SSD)),
            Phase::Install => (Some(|t| &mut t.host_to_fpga), Some(SSD)),
            Phase::Stall => (None, None),
        }
    }
}

/// One recorded phase execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Phase kind.
    pub phase: Phase,
    /// Simulated start time in seconds.
    pub start_s: f64,
    /// Duration in seconds.
    pub duration_s: f64,
    /// Bytes moved during the phase (0 for pure compute).
    pub bytes: u64,
}

/// Byte counters over every data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Bytes moved SSD → FPGA over the P2P link.
    pub ssd_to_fpga: u64,
    /// Bytes moved FPGA → host (selected subsets).
    pub fpga_to_host: u64,
    /// Bytes moved host → FPGA (quantized-weight feedback).
    pub host_to_fpga: u64,
    /// Bytes moved storage → host over the conventional path (baselines).
    pub staged_to_host: u64,
}

impl TrafficStats {
    /// Bytes that crossed the drive-host interconnect (everything except
    /// the on-board P2P traffic).
    pub fn interconnect_bytes(&self) -> u64 {
        self.fpga_to_host + self.host_to_fpga + self.staged_to_host
    }

    /// Total bytes moved anywhere.
    pub fn total_bytes(&self) -> u64 {
        self.ssd_to_fpga + self.interconnect_bytes()
    }
}

/// Busy-time × power energy per component, in the order each component
/// first drew power.
///
/// The paper's energy argument (§2.2) is that the SmartSSD's ~7.5 W FPGA
/// does the selection work that would otherwise occupy a 45–250 W GPU;
/// this split makes that comparison measurable in experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Energy {
    parts: Vec<(&'static str, f64)>,
}

impl Energy {
    /// Joules attributed to one component (`"ssd"`, `"fpga"` or
    /// `"link"`; `0.0` if it never drew power).
    pub fn joules_for(&self, component: &str) -> f64 {
        self.parts
            .iter()
            .find(|(name, _)| *name == component)
            .map_or(0.0, |(_, j)| *j)
    }

    /// Total joules across all components. Folds from `+0.0`: a float
    /// `sum()` starts at `-0.0`, which an idle drive would print as
    /// `-0.000 J`.
    pub fn total_joules(&self) -> f64 {
        self.parts.iter().fold(0.0, |total, (_, j)| total + j)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "energy: {:.3} J", self.total_joules())?;
        for (name, j) in &self.parts {
            write!(f, " [{name}: {j:.3} J]")?;
        }
        Ok(())
    }
}

/// An append-only log of [`TraceEvent`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the event's times are negative or non-finite.
    pub fn record(&mut self, event: TraceEvent) {
        assert!(
            event.start_s.is_finite() && event.start_s >= 0.0,
            "event start must be non-negative and finite"
        );
        assert!(
            event.duration_s.is_finite() && event.duration_s >= 0.0,
            "event duration must be non-negative and finite"
        );
        self.events.push(event);
    }

    /// All events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// End time of the last event (`0.0` when empty).
    pub fn span_s(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.start_s + e.duration_s)
            .fold(0.0, f64::max)
    }

    /// Bytes per data path, summed over the log.
    pub(crate) fn traffic(&self) -> TrafficStats {
        let mut traffic = TrafficStats::default();
        for e in &self.events {
            if let (Some(path), _) = e.phase.cost() {
                *path(&mut traffic) += e.bytes;
            }
        }
        traffic
    }

    /// Joules per component: each event adds its draw × duration to its
    /// component, in event order.
    pub(crate) fn energy(&self) -> Energy {
        let mut parts: Vec<(&'static str, f64)> = Vec::new();
        for e in &self.events {
            let (_, Some((component, watts))) = e.phase.cost() else {
                continue;
            };
            let joules = watts * e.duration_s;
            match parts.iter_mut().find(|(name, _)| *name == component) {
                Some(part) => part.1 += joules,
                None => parts.push((component, joules)),
            }
        }
        Energy { parts }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "timeline ({} events, span {:.4}s):",
            self.len(),
            self.span_s()
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  [{:>10.4}s +{:>9.4}s] {:<12} {:>12} B",
                e.start_s,
                e.duration_s,
                e.phase.label(),
                e.bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(phase: Phase, start: f64, dur: f64, bytes: u64) -> TraceEvent {
        TraceEvent {
            phase,
            start_s: start,
            duration_s: dur,
            bytes,
        }
    }

    #[test]
    fn traffic_and_energy_fold_over_the_log() {
        let mut t = Trace::new();
        t.record(ev(Phase::Scan, 0.0, 1.0, 100));
        t.record(ev(Phase::Select, 1.0, 0.5, 0));
        t.record(ev(Phase::Stall, 1.5, 0.5, 0));
        t.record(ev(Phase::Scan, 2.0, 2.0, 200));
        t.record(ev(Phase::Feedback, 4.0, 0.25, 30));
        t.record(ev(Phase::StagedRead, 4.25, 1.0, 7));
        assert_eq!(t.len(), 6);
        assert_eq!(
            t.traffic(),
            TrafficStats {
                ssd_to_fpga: 300,
                fpga_to_host: 0,
                host_to_fpga: 30,
                staged_to_host: 7,
            }
        );
        let e = t.energy();
        assert!((e.joules_for("ssd") - 9.0 * 4.0).abs() < 1e-12);
        assert!((e.joules_for("fpga") - 7.5 * 0.5).abs() < 1e-12);
        assert!((e.joules_for("link") - 2.0 * 0.25).abs() < 1e-12);
        assert!((e.total_joules() - 40.25).abs() < 1e-12);
        assert!((t.span_s() - 5.25).abs() < 1e-12);
        // Components print in first-use order; the stall draws nothing.
        assert_eq!(
            e.to_string(),
            "energy: 40.250 J [ssd: 36.000 J] [fpga: 3.750 J] [link: 0.500 J]"
        );
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.span_s(), 0.0);
        assert_eq!(t.traffic(), TrafficStats::default());
        assert_eq!(t.energy().joules_for("fpga"), 0.0);
        assert_eq!(t.energy().to_string(), "energy: 0.000 J");
    }

    #[test]
    fn display_lists_events() {
        let mut t = Trace::new();
        t.record(ev(Phase::Feedback, 0.0, 0.1, 42));
        let s = format!("{t}");
        assert!(s.contains("feedback"));
        assert!(s.contains("42"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_duration() {
        Trace::new().record(ev(Phase::Scan, 0.0, -1.0, 0));
    }
}
