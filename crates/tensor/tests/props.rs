//! Property tests for tensor algebra.

use nessa_tensor::rng::Rng64;
use nessa_tensor::{ops, Tensor};
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    Tensor::rand_uniform(&[rows, cols], -2.0, 2.0, &mut rng)
}

/// The element-wise sum of two same-shape tensors.
fn add(a: &Tensor, b: &Tensor) -> Tensor {
    a.try_zip(b, "add", |x, y| x + y).unwrap()
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in any::<u64>()
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 1);
        let c = tensor(k, n, seed ^ 2);
        let lhs = a.matmul(&add(&b, &c));
        let rhs = add(&a.matmul(&b), &a.matmul(&c));
        prop_assert!(close(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn transpose_reverses_products(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in any::<u64>()
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 3);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(close(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn axpy_matches_operator_form(n in 1usize..32, alpha in -3.0f32..3.0, seed in any::<u64>()) {
        let a = tensor(1, n, seed);
        let b = tensor(1, n, seed ^ 5);
        let mut via_axpy = a.clone();
        via_axpy.axpy(alpha, &b);
        let via_ops = add(&a, &b.scaled(alpha));
        prop_assert!(close(&via_axpy, &via_ops, 1e-5));
    }

    #[test]
    fn softmax_rows_is_a_distribution(rows in 1usize..6, cols in 1usize..8, seed in any::<u64>()) {
        let x = tensor(rows, cols, seed).scaled(10.0);
        let s = ops::softmax_rows(&x);
        for i in 0..rows {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn gather_rows_preserves_rows(rows in 2usize..10, cols in 1usize..6, seed in any::<u64>()) {
        let a = tensor(rows, cols, seed);
        let mut rng = Rng64::new(seed ^ 7);
        let picks = rng.sample_indices(rows, rows / 2 + 1);
        let g = a.gather_rows(&picks);
        for (out_row, &src) in picks.iter().enumerate() {
            prop_assert_eq!(g.row(out_row), a.row(src));
        }
    }

    #[test]
    fn norm_triangle_inequality(n in 1usize..16, seed in any::<u64>()) {
        let a = tensor(1, n, seed);
        let b = tensor(1, n, seed ^ 9);
        let sum = add(&a, &b);
        prop_assert!(sum.norm() <= a.norm() + b.norm() + 1e-4);
    }

    #[test]
    fn sample_indices_cover_when_k_equals_n(n in 1usize..64, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let mut s = rng.sample_indices(n, n);
        s.sort_unstable();
        prop_assert_eq!(s, (0..n).collect::<Vec<_>>());
    }
}
