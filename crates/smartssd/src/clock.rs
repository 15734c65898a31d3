//! The simulated clock.

use std::fmt;

/// A monotonically-advancing simulated clock with nanosecond resolution.
///
/// Components advance the clock by the duration of each modelled operation;
/// the device-level counters in [`crate::device`] read it to attribute
/// wall-clock time to phases.
///
/// ```
/// use nessa_smartssd::SimClock;
///
/// let mut clock = SimClock::new();
/// clock.advance_secs(1.5e-3);
/// assert_eq!(clock.now_ns(), 1_500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimClock {
    now_ns: u64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Current simulated time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns as f64 * 1e-9
    }

    /// Advances by a number of nanoseconds.
    pub fn advance_ns(&mut self, ns: u64) {
        self.now_ns = self
            .now_ns
            .checked_add(ns)
            .expect("simulated clock overflow");
    }

    /// Advances by a (non-negative, finite) duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn advance_secs(&mut self, secs: f64) {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "clock can only advance forward by a finite duration, got {secs}"
        );
        self.advance_ns((secs * 1e9).round() as u64);
    }
}

impl fmt::Display for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.now_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(10);
        c.advance_secs(1e-6);
        assert_eq!(c.now_ns(), 1010);
        assert!((c.now_secs() - 1.01e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite duration")]
    fn rejects_negative_advance() {
        SimClock::new().advance_secs(-1.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", SimClock::new()).is_empty());
    }
}
