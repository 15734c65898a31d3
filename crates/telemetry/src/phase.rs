//! The registered pipeline phase names.
//!
//! `nessa-trace` reports group spans by name: a span whose name is not in
//! this set silently falls out of the per-phase tables and the critical
//! path. To make that failure mode impossible to introduce quietly,
//! library code may only open spans named from this registry
//! (`nessa-lint` rule **T1**); tests and examples are free to use ad-hoc
//! names.
//!
//! The set mirrors the paper's five pipeline steps (Figure 3) plus the
//! enclosing epoch span and the fault-handling phases (retry backoff and
//! degradation-ladder fallbacks).
//!
//! Counter names get the same treatment: library code may only create
//! counters named from [`REGISTERED_COUNTERS`], so fleet-wide roll-ups
//! (and the chaos gate's assertions) never silently miss a renamed
//! counter.

/// Every span name library code is allowed to pass to `Telemetry::span`.
///
/// `nessa-lint`'s rule T1 reads this list directly.
pub const REGISTERED_PHASES: &[&str] = &[
    // One training epoch (parent of the pipeline steps), then the five
    // pipeline steps in order: flash → FPGA candidate streaming, the
    // quantized forward + facility-location kernel, subset shipment to
    // the host/GPU, GPU-side training on the weighted subset, and the
    // quantized-weight feedback to the FPGA.
    "epoch",
    "scan",
    "select",
    "ship",
    "train",
    "feedback",
    // Fault tolerance: `retry` is the backoff wait before re-running a
    // faulted device phase; `fallback` is a degradation-ladder rung
    // engaging (host staging / random picks).
    "retry",
    "fallback",
    // Overlapped pipelining (paper §3, Figure 3): `overlap.select` wraps
    // a selection round running on a worker thread concurrently with
    // `train`; `overlap.wait` is the main thread joining that worker;
    // `overlap.handoff` is the deterministic hand-off (quantized-weight
    // feedback) that serializes the two sides at the epoch boundary.
    "overlap.select",
    "overlap.wait",
    "overlap.handoff",
];

/// Every counter name library code is allowed to pass to
/// `Telemetry::counter`.
///
/// `nessa-lint`'s rule T1 reads this list directly.
pub const REGISTERED_COUNTERS: &[&str] = &[
    // Training progress (batches / samples consumed).
    "train.batches",
    "train.samples",
    // Fault-tolerance accounting (see the degradation ladder).
    "fault.injected",
    "retry.attempts",
    "fallback.host",
    "fallback.random",
    "drive.evicted",
    "data.quarantined",
];

/// Whether `name` is a registered phase.
pub fn is_registered(name: &str) -> bool {
    REGISTERED_PHASES.contains(&name)
}

/// Whether `name` is a registered counter.
pub fn is_registered_counter(name: &str) -> bool {
    REGISTERED_COUNTERS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_phases_are_registered() {
        for name in [
            "epoch",
            "scan",
            "select",
            "ship",
            "train",
            "feedback",
            "retry",
            "fallback",
            "overlap.select",
            "overlap.wait",
            "overlap.handoff",
        ] {
            assert!(is_registered(name), "{name} missing from registry");
        }
        assert!(!is_registered("warmup"));
        assert!(!is_registered("overlap.other"));
    }

    #[test]
    fn fault_counters_are_registered() {
        for name in [
            "fault.injected",
            "retry.attempts",
            "fallback.host",
            "fallback.random",
            "drive.evicted",
            "data.quarantined",
        ] {
            assert!(is_registered_counter(name), "{name} missing from registry");
        }
        assert!(!is_registered_counter("fault.imagined"));
    }

    #[test]
    fn registry_has_no_duplicates() {
        for list in [REGISTERED_PHASES, REGISTERED_COUNTERS] {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len());
        }
    }
}
