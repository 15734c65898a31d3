//! Unified policy runner: NeSSA and every baseline the paper compares
//! against, through one code path — the epoch loop of
//! [`NessaPipeline::run`] — so accuracy and timing comparisons are fair.

use crate::config::NessaConfig;
use crate::error::PipelineError;
use crate::pipeline::{Method, NessaPipeline};
use crate::report::RunReport;
use nessa_data::Dataset;
use nessa_nn::models::Network;
use nessa_tensor::rng::Rng64;

/// A training policy from the paper's evaluation.
///
/// `Nessa` carries the full [`NessaConfig`] inline; a `Policy` is built
/// once per run and never stored in bulk, so the size skew between
/// variants costs nothing in practice and boxing would only add noise
/// at every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// "Goal": train on the full dataset.
    Goal,
    /// NeSSA with the given configuration (near-storage pipeline).
    Nessa(NessaConfig),
    /// CPU CRAIG (Mirzasoleiman et al. '20): per-class facility location on
    /// f32 gradient proxies, re-selected every epoch; no feedback
    /// quantization, no biasing, no partitioning.
    Craig {
        /// Subset fraction.
        fraction: f32,
    },
    /// CPU K-Centers (Sener & Savarese '17): farthest-first traversal on
    /// penultimate embeddings, unit weights.
    KCenters {
        /// Subset fraction.
        fraction: f32,
    },
    /// Uniform random subset, re-drawn every epoch.
    Random {
        /// Subset fraction.
        fraction: f32,
    },
}

impl Policy {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Goal => "goal",
            Policy::Nessa(_) => "nessa",
            Policy::Craig { .. } => "craig",
            Policy::KCenters { .. } => "kcenters",
            Policy::Random { .. } => "random",
        }
    }
}

/// Runs `policy` for `epochs` epochs with the paper's optimizer settings.
///
/// Every policy runs through [`NessaPipeline::run`]. NeSSA takes the
/// near-storage data path with its configuration; each baseline stages
/// its data to the host over the conventional read and selects there with
/// the live target, with feedback, subset biasing and partitioning off.
///
/// `make_model` builds a fresh network (called once for the trainee and,
/// for NeSSA, once more for the selector); it receives a seeded RNG so
/// runs are reproducible.
///
/// # Errors
///
/// Propagates [`NessaPipeline::run`]'s [`PipelineError`]: its input check
/// rejects a bad `epochs`, `batch_size` or fraction before any work, and a
/// selection, kernel or drive failure ends the run.
pub fn run_policy(
    policy: &Policy,
    train: &Dataset,
    test: &Dataset,
    epochs: usize,
    batch_size: usize,
    seed: u64,
    make_model: &dyn Fn(&mut Rng64) -> Network,
) -> Result<RunReport, PipelineError> {
    let mut init_rng = Rng64::new(seed);
    let target = make_model(&mut init_rng);
    let baseline = |subset_fraction| NessaConfig {
        subset_fraction,
        epochs,
        batch_size,
        feedback: false,
        subset_biasing: false,
        partitioning: false,
        // The baselines' master stream, apart from model initialization.
        seed: seed ^ 0x9e3779b97f4a7c15,
        ..NessaConfig::new(1.0, 1)
    };
    let (cfg, method, selector) = match *policy {
        Policy::Nessa(ref cfg) => (
            NessaConfig {
                epochs,
                batch_size,
                seed,
                ..cfg.clone()
            },
            Method::Nessa,
            Some(make_model(&mut init_rng)),
        ),
        Policy::Goal => (baseline(1.0), Method::All, None),
        Policy::Craig { fraction } => (baseline(fraction), Method::Craig, None),
        Policy::KCenters { fraction } => (baseline(fraction), Method::KCenters, None),
        Policy::Random { fraction } => (baseline(fraction), Method::Random, None),
    };
    let mut report =
        NessaPipeline::with_method(cfg, method, target, selector, train.clone(), test.clone())
            .run()?;
    report.name = policy.label().into();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_data::SynthConfig;
    use nessa_nn::models::mlp;
    use nessa_select::SelectError;
    use nessa_telemetry::JsonValue;

    fn data() -> (Dataset, Dataset) {
        SynthConfig {
            train: 300,
            test: 120,
            dim: 8,
            classes: 3,
            cluster_std: 0.7,
            class_sep: 3.2,
            ..SynthConfig::default()
        }
        .generate()
    }

    fn model(rng: &mut Rng64) -> Network {
        mlp(&[8, 24, 3], rng)
    }

    #[test]
    fn goal_trains_on_everything() {
        let (train, test) = data();
        let r = run_policy(&Policy::Goal, &train, &test, 8, 32, 0, &model).unwrap();
        assert_eq!(r.epochs[0].subset_size, 300);
        assert!(r.final_accuracy() > 0.8, "goal acc {}", r.final_accuracy());
    }

    #[test]
    fn craig_matches_goal_within_margin_at_30pct() {
        let (train, test) = data();
        let goal = run_policy(&Policy::Goal, &train, &test, 10, 32, 0, &model).unwrap();
        let craig = run_policy(
            &Policy::Craig { fraction: 0.3 },
            &train,
            &test,
            10,
            32,
            0,
            &model,
        )
        .unwrap();
        assert_eq!(craig.epochs[0].subset_size, 90);
        assert!(
            craig.final_accuracy() > goal.final_accuracy() - 0.12,
            "craig {} vs goal {}",
            craig.final_accuracy(),
            goal.final_accuracy()
        );
    }

    #[test]
    fn all_policies_produce_reports() {
        let (train, test) = data();
        for policy in [
            Policy::Goal,
            Policy::Nessa(NessaConfig::new(0.3, 3)),
            Policy::Craig { fraction: 0.3 },
            Policy::KCenters { fraction: 0.3 },
            Policy::Random { fraction: 0.3 },
        ] {
            let r = run_policy(&policy, &train, &test, 3, 32, 1, &model).unwrap();
            assert_eq!(r.epochs.len(), 3, "{}", policy.label());
            assert_eq!(r.name, policy.label());
            assert!(r.final_accuracy() > 0.25, "{} too weak", policy.label());
        }
    }

    #[test]
    fn baselines_pay_their_host_reads_on_the_drive_ledger() {
        let (train, test) = data();
        let epochs = 3;
        let (n, bytes) = (train.len() as u64, train.bytes_per_sample() as u64);
        for policy in [
            Policy::Goal,
            Policy::Craig { fraction: 0.3 },
            Policy::KCenters { fraction: 0.3 },
            Policy::Random { fraction: 0.3 },
        ] {
            let r = run_policy(&policy, &train, &test, epochs, 32, 1, &model).unwrap();
            // Random reads no features, so it stages only its subsets;
            // the others stage the whole pool every epoch.
            let staged = match policy {
                Policy::Random { .. } => r.epochs.iter().map(|e| e.subset_size as u64).sum(),
                _ => epochs as u64 * n,
            } * bytes;
            let t = r.traffic;
            assert_eq!(t.staged_to_host, staged, "{}", policy.label());
            // The JSONL run summary carries the staged bytes too.
            let jsonl = r.to_jsonl();
            let run = JsonValue::parse(jsonl.lines().last().unwrap()).unwrap();
            assert_eq!(
                run.get("staged_to_host_bytes").and_then(JsonValue::as_u64),
                Some(staged),
                "{}",
                policy.label()
            );
            assert_eq!(
                (t.ssd_to_fpga, t.fpga_to_host, t.host_to_fpga),
                (0, 0, 0),
                "{}",
                policy.label()
            );
            for e in &r.epochs {
                assert!(e.io_secs > 0.0, "{} epoch {}", policy.label(), e.epoch);
                assert_eq!(e.select_secs, 0.0, "host selection is not priced");
            }
        }
    }

    #[test]
    fn bad_baseline_fraction_is_an_error() {
        let (train, test) = data();
        for fraction in [0.0, 1.5] {
            let r = run_policy(
                &Policy::Random { fraction },
                &train,
                &test,
                1,
                32,
                0,
                &model,
            );
            assert!(
                matches!(r, Err(PipelineError::Select(SelectError::BadFraction(_)))),
                "{fraction}"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Policy::Goal.label(), "goal");
        assert_eq!(Policy::Nessa(NessaConfig::new(0.1, 1)).label(), "nessa");
        assert_eq!(Policy::Craig { fraction: 0.1 }.label(), "craig");
        assert_eq!(Policy::KCenters { fraction: 0.1 }.label(), "kcenters");
        assert_eq!(Policy::Random { fraction: 0.1 }.label(), "random");
    }

    #[test]
    fn deterministic_under_seed() {
        let (train, test) = data();
        let a = run_policy(
            &Policy::Craig { fraction: 0.2 },
            &train,
            &test,
            3,
            32,
            5,
            &model,
        )
        .unwrap();
        let b = run_policy(
            &Policy::Craig { fraction: 0.2 },
            &train,
            &test,
            3,
            32,
            5,
            &model,
        )
        .unwrap();
        assert_eq!(a.accuracy_curve(), b.accuracy_curve());
    }
}
