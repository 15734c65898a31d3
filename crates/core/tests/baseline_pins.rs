//! Bit-for-bit pins of the comparison policies (Goal, CPU CRAIG,
//! K-Centers, Random): every epoch's training loss and test accuracy as
//! `to_bits`, plus the subset size. A change to how the baselines run —
//! their RNG streams, selection math or training loop — shows up here
//! before it shows up in Table 3.

use nessa_core::{run_policy, Policy};
use nessa_data::{Dataset, SynthConfig};
use nessa_nn::models::{mlp, Network};
use nessa_tensor::rng::Rng64;

const EPOCHS: usize = 3;
const BATCH: usize = 32;
const SEED: u64 = 11;

fn data() -> (Dataset, Dataset) {
    SynthConfig {
        train: 300,
        test: 120,
        dim: 8,
        classes: 3,
        cluster_std: 1.0,
        class_sep: 1.5,
        seed: 3,
        ..SynthConfig::default()
    }
    .generate()
}

fn model(rng: &mut Rng64) -> Network {
    mlp(&[8, 24, 3], rng)
}

/// `(subset_size, train_loss bits, test_acc bits)` per epoch.
fn pins(policy: &Policy) -> Vec<(usize, u32, u32)> {
    let (train, test) = data();
    run_policy(policy, &train, &test, EPOCHS, BATCH, SEED, &model)
        .unwrap()
        .epochs
        .iter()
        .map(|e| (e.subset_size, e.train_loss.to_bits(), e.test_acc.to_bits()))
        .collect()
}

#[test]
fn goal_is_pinned() {
    assert_eq!(pins(&Policy::Goal), GOAL);
}

#[test]
fn craig_is_pinned() {
    assert_eq!(pins(&Policy::Craig { fraction: 0.3 }), CRAIG);
}

#[test]
fn kcenters_is_pinned() {
    assert_eq!(pins(&Policy::KCenters { fraction: 0.3 }), KCENTERS);
}

#[test]
fn random_is_pinned() {
    assert_eq!(pins(&Policy::Random { fraction: 0.3 }), RANDOM);
}

const GOAL: [(usize, u32, u32); EPOCHS] = [
    (300, 0x3f331e3c, 0x3f711111),
    (300, 0x3e6cb8db, 0x3f755555),
    (300, 0x3e4047ed, 0x3f755555),
];
const CRAIG: [(usize, u32, u32); EPOCHS] = [
    (90, 0x3fd6a65d, 0x3f59999a),
    (90, 0x3eae0374, 0x3f644444),
    (90, 0x3e9aa1d3, 0x3f688889),
];
const KCENTERS: [(usize, u32, u32); EPOCHS] = [
    (90, 0x400543d8, 0x3f577777),
    (90, 0x3f1b83b5, 0x3f600000),
    (90, 0x3f0b1853, 0x3f622222),
];
const RANDOM: [(usize, u32, u32); EPOCHS] = [
    (90, 0x3fe53207, 0x3f622222),
    (90, 0x3ed2c582, 0x3f666666),
    (90, 0x3e86c782, 0x3f688889),
];
