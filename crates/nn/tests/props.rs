//! Property tests for the training engine.

use nessa_nn::loss::softmax_cross_entropy;
use nessa_nn::models::mlp;
use nessa_nn::optim::MultiStepLr;
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #[test]
    fn cross_entropy_is_positive_and_bounded_below_by_confidence(
        n in 1usize..6, c in 2usize..8, seed in any::<u64>()
    ) {
        let mut rng = Rng64::new(seed);
        let logits = Tensor::rand_uniform(&[n, c], -4.0, 4.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.index(c)).collect();
        let out = softmax_cross_entropy(&logits, &labels);
        prop_assert!(out.mean_loss > 0.0);
        prop_assert!(out.per_sample.iter().all(|&l| l > 0.0));
        // Loss of a sample is at least −log of its softmax mass, which is
        // bounded by the logit span.
        prop_assert!(out.per_sample.iter().all(|&l| l < 20.0));
    }

    #[test]
    fn gradient_rows_sum_to_zero(n in 1usize..5, c in 2usize..6, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let logits = Tensor::rand_uniform(&[n, c], -3.0, 3.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.index(c)).collect();
        let out = softmax_cross_entropy(&logits, &labels);
        for i in 0..n {
            let s: f32 = out.grad_logits.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn multistep_lr_is_nonincreasing(
        base in 0.001f32..1.0, gamma in 0.05f32..0.99,
        m1 in 1usize..50, m2 in 50usize..120, epochs in 120usize..200
    ) {
        let s = MultiStepLr::new(base, gamma, vec![m1, m2]);
        let mut prev = f32::INFINITY;
        for e in 0..epochs {
            let lr = s.lr_at(e);
            prop_assert!(lr <= prev);
            prop_assert!(lr > 0.0);
            prev = lr;
        }
    }

    #[test]
    fn forward_is_deterministic_in_eval_mode(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let net = mlp(&[6, 10, 3], &mut rng);
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);
        let a = net.infer(&x);
        let b = net.infer(&x);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn export_import_identity(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let mut net = mlp(&[4, 8, 2], &mut rng);
        let w = net.export_weights();
        net.import_weights(&w);
        let w2 = net.export_weights();
        for (a, b) in w.iter().zip(&w2) {
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
    }
}
