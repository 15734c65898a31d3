//! Bounded retry with deterministic backoff.
//!
//! Near-storage selection adds storage-side failure modes to the training
//! loop. The pipeline's degradation ladder (`recover` and the rungs of
//! the selection round in [`crate::pipeline`]) retries a faulted device
//! operation under a [`RetryPolicy`], charging each wait to the
//! *simulated* clock, never the wall clock. Only when the retries are
//! spent does a round step down to the host staged read, and from there
//! to seeded random picks.

/// Bounded-attempt retry with deterministic exponential backoff.
///
/// Backoff is charged to the simulated clock by the caller (e.g. via
/// `SsdCluster::stall_all`), so runs with the same seed and fault plan
/// reproduce identical timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation, first try included (min 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt (simulated seconds).
    pub base_backoff_secs: f64,
    /// Multiplier applied to the backoff after every failed attempt.
    pub backoff_factor: f64,
    /// Upper clamp on any single backoff wait (simulated seconds).
    pub max_backoff_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_secs: 0.05,
            backoff_factor: 2.0,
            max_backoff_secs: 1.0,
        }
    }
}

impl RetryPolicy {
    /// The wait after failed attempt number `attempt` (0-based):
    /// `base · factor^attempt`, clamped to `max_backoff_secs`.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        let raw = self.base_backoff_secs * self.backoff_factor.powi(attempt.min(64) as i32);
        raw.min(self.max_backoff_secs).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically_and_clamps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_secs: 0.1,
            backoff_factor: 2.0,
            max_backoff_secs: 0.35,
        };
        assert!((p.backoff_secs(0) - 0.1).abs() < 1e-12);
        assert!((p.backoff_secs(1) - 0.2).abs() < 1e-12);
        assert!((p.backoff_secs(2) - 0.35).abs() < 1e-12, "clamped");
        assert!((p.backoff_secs(60) - 0.35).abs() < 1e-12);
    }
}
