//! Rule T1 reads its phase and counter vocabularies from
//! `nessa_telemetry::phase`; these tests pin the names the linter and the
//! chaos gate rely on.

#[test]
fn telemetry_registry_recognises_its_own_phases() {
    for phase in nessa_telemetry::phase::REGISTERED_PHASES {
        assert!(nessa_telemetry::phase::is_registered(phase));
    }
    assert!(!nessa_telemetry::phase::is_registered("warmup"));
}

#[test]
fn telemetry_registry_recognises_its_own_counters() {
    for counter in nessa_telemetry::phase::REGISTERED_COUNTERS {
        assert!(nessa_telemetry::phase::is_registered_counter(counter));
    }
    assert!(!nessa_telemetry::phase::is_registered_counter(
        "fault.imagined"
    ));
}

#[test]
fn fault_tolerance_vocabulary_is_covered() {
    // The chaos gate asserts on these exact names; rule T1 only protects
    // them if they are in the registered sets.
    for phase in ["retry", "fallback"] {
        assert!(nessa_telemetry::phase::is_registered(phase), "{phase}");
    }
    for counter in [
        "fault.injected",
        "retry.attempts",
        "fallback.host",
        "fallback.random",
        "drive.evicted",
        "data.quarantined",
    ] {
        assert!(
            nessa_telemetry::phase::is_registered_counter(counter),
            "{counter}"
        );
    }
}
