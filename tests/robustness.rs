//! Robustness integration tests: the pipeline under injected label noise
//! and across subset-weight tempering.

use nessa::core::{run_policy, NessaConfig, Policy};
use nessa::data::{corrupt, SynthConfig};
use nessa::nn::models::mlp;
use nessa::tensor::rng::Rng64;

#[test]
fn pipeline_survives_label_noise() {
    let (train, test) = SynthConfig {
        train: 400,
        test: 160,
        dim: 12,
        classes: 4,
        cluster_std: 0.6,
        class_sep: 3.0,
        ..SynthConfig::default()
    }
    .generate();
    let mut rng = Rng64::new(1);
    let (noisy, _) = corrupt::inject_label_noise(&train, 0.2, &mut rng);
    let builder = |rng: &mut Rng64| mlp(&[12, 32, 4], rng);
    let clean = run_policy(
        &Policy::Nessa(NessaConfig::new(0.3, 10)),
        &train,
        &test,
        10,
        32,
        2,
        &builder,
    )
    .unwrap();
    let dirty = run_policy(
        &Policy::Nessa(NessaConfig::new(0.3, 10)),
        &noisy,
        &test,
        10,
        32,
        2,
        &builder,
    )
    .unwrap();
    // Noise hurts but must not collapse training (test labels are clean).
    assert!(
        clean.best_accuracy() > 0.8,
        "clean {}",
        clean.best_accuracy()
    );
    assert!(
        dirty.best_accuracy() > clean.best_accuracy() - 0.25,
        "noisy run collapsed: {} vs {}",
        dirty.best_accuracy(),
        clean.best_accuracy()
    );
}

#[test]
fn weight_temper_extremes_both_train() {
    let (train, test) = SynthConfig {
        train: 300,
        test: 120,
        dim: 12,
        classes: 4,
        ..SynthConfig::default()
    }
    .generate();
    let builder = |rng: &mut Rng64| mlp(&[12, 24, 4], rng);
    for temper in [0.0f32, 0.5, 1.0] {
        let mut cfg = NessaConfig::new(0.25, 8);
        cfg.weight_temper = temper;
        let r = run_policy(&Policy::Nessa(cfg), &train, &test, 8, 32, 3, &builder).unwrap();
        assert!(
            r.best_accuracy() > 0.5,
            "temper {temper}: accuracy {}",
            r.best_accuracy()
        );
    }
}
