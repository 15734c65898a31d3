//! Elementwise and row-wise operations shared by the training engine and
//! the selection kernels.

use crate::Tensor;

/// Row-wise numerically-stable softmax of a 2-D tensor.
///
/// Each row is shifted by its maximum before exponentiation, so inputs with
/// large logits do not overflow.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.ndim(), 2, "softmax_rows requires a 2-D tensor");
    let (n, c) = (logits.dim(0), logits.dim(1));
    let mut out = Tensor::zeros(&[n, c]);
    for i in 0..n {
        let row = logits.row(i);
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        let orow = out.row_mut(i);
        for (o, &x) in orow.iter_mut().zip(row.iter()) {
            let e = (x - m).exp();
            *o = e;
            denom += e;
        }
        let inv = 1.0 / denom;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
    out
}

/// Row-wise log-softmax (stable), used by the cross-entropy loss.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
pub fn log_softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.ndim(), 2, "log_softmax_rows requires a 2-D tensor");
    let (n, c) = (logits.dim(0), logits.dim(1));
    let mut out = Tensor::zeros(&[n, c]);
    for i in 0..n {
        let row = logits.row(i);
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
        for (o, &x) in out.row_mut(i).iter_mut().zip(row.iter()) {
            *o = x - lse;
        }
    }
    out
}

/// ReLU activation, `max(x, 0)`.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Column-wise sum of a 2-D tensor, producing a length-`cols` vector.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn sum_axis0(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "sum_axis0 requires a 2-D tensor");
    let (n, c) = (x.dim(0), x.dim(1));
    let mut out = vec![0.0f32; c];
    for i in 0..n {
        for (o, &v) in out.iter_mut().zip(x.row(i)) {
            *o += v;
        }
    }
    Tensor::from_vec(out, &[c])
}

/// Column-wise mean of a 2-D tensor.
///
/// # Panics
///
/// Panics if `x` is not 2-D or has zero rows.
pub fn mean_axis0(x: &Tensor) -> Tensor {
    assert!(x.dim(0) > 0, "mean_axis0 requires at least one row");
    let mut s = sum_axis0(x);
    s.scale_inplace(1.0 / x.dim(0) as f32);
    s
}

/// Adds a bias vector to every row of a 2-D tensor in place.
///
/// # Panics
///
/// Panics if `bias.numel() != x.dim(1)`.
pub fn add_bias_rows(x: &mut Tensor, bias: &Tensor) {
    assert_eq!(x.ndim(), 2, "add_bias_rows requires a 2-D tensor");
    let c = x.dim(1);
    assert_eq!(bias.numel(), c, "bias length must match column count");
    let b = bias.as_slice().to_vec();
    for i in 0..x.dim(0) {
        for (v, &bb) in x.row_mut(i).iter_mut().zip(b.iter()) {
            *v += bb;
        }
    }
}

/// Per-row L2 norms of a 2-D tensor.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn row_norms(x: &Tensor) -> Vec<f32> {
    assert_eq!(x.ndim(), 2, "row_norms requires a 2-D tensor");
    (0..x.dim(0))
        .map(|i| x.row(i).iter().map(|&v| v * v).sum::<f32>().sqrt())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng64::new(2);
        let x = Tensor::rand_uniform(&[5, 7], -10.0, 10.0, &mut rng);
        let s = softmax_rows(&x);
        for i in 0..5 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0, 999.0], &[1, 3]);
        let s = softmax_rows(&x);
        assert!(s.is_finite());
        let y = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[1, 3]);
        let sy = softmax_rows(&y);
        for (a, b) in s.as_slice().iter().zip(sy.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let mut rng = Rng64::new(6);
        let x = Tensor::rand_uniform(&[3, 4], -5.0, 5.0, &mut rng);
        let ls = log_softmax_rows(&x);
        let s = softmax_rows(&x);
        for (a, b) in ls.as_slice().iter().zip(s.as_slice()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn axis0_reductions() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(sum_axis0(&x).as_slice(), &[4.0, 6.0]);
        assert_eq!(mean_axis0(&x).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn bias_is_added_to_every_row() {
        let mut x = Tensor::zeros(&[2, 3]);
        add_bias_rows(&mut x, &Tensor::from_slice(&[1.0, -2.0, 5.0]));
        assert_eq!(x.row(0), &[1.0, -2.0, 5.0]);
        assert_eq!(x.row(1), &[1.0, -2.0, 5.0]);
    }

    #[test]
    fn row_norms_computes() {
        let x = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[2, 2]);
        let n = row_norms(&x);
        assert!((n[0] - 5.0).abs() < 1e-6);
        assert_eq!(n[1], 0.0);
    }
}
