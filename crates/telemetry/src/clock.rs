//! The single sanctioned source of host wall-clock readings.
//!
//! NeSSA's selection results must be bit-reproducible under a fixed seed:
//! the trace-diff regression gates compare simulated-clock metrics across
//! runs, and the paper's ablations assume identical subsets for identical
//! seeds. Wall-clock reads are therefore quarantined: every monotonic
//! timestamp in the workspace is taken here (or by the SmartSSD
//! simulator's own `SimClock`, which is virtual and deterministic), and
//! `nessa-lint` rule **D1** rejects `Instant::now` / `SystemTime::now`
//! anywhere else. Wall time may *decorate* telemetry (span starts and
//! durations) but must never *decide* anything on the selection path.

pub use std::time::Instant;

/// Reads the monotonic host clock.
///
/// This is the only place outside the SmartSSD simulator's virtual
/// `SimClock` where the workspace consults real time.
pub fn now() -> Instant {
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
    }
}
