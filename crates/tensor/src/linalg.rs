//! Distance and similarity kernels used by the coreset-selection algorithms.
//!
//! The facility-location objective (NeSSA Eq. 5) and the k-centers baseline
//! both reduce to operations over the pairwise Euclidean structure of a set
//! of feature/gradient rows; this module provides those kernels with the
//! `‖a‖² + ‖b‖² − 2a·b` expansion so the inner loop is a run of dot
//! products.

use crate::Tensor;

/// All pairwise squared Euclidean distances between the rows of `x`
/// (`n × d`), returned as an `n × n` tensor.
///
/// Uses the Gram-matrix expansion; tiny negative values from floating-point
/// cancellation are clamped to zero and the diagonal is exactly zero. Each
/// entry is bit-identical to `(g_ii + g_jj − 2·g_ij).max(0)` over the
/// entries `g` of `x.matmul_transb(x)` (see [`pairwise_sq_dists_factored`]
/// for how the kernel keeps that order).
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn pairwise_sq_dists(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "pairwise_sq_dists requires a 2-D tensor");
    symmetric_sq_dists(&[x])
}

/// All pairwise squared distances between the outer products `a_i ⊗ b_i`
/// of the rows of `a` (`n × d_a`) and `b` (`n × d_b`), returned as `n × n`,
/// without materializing the products:
/// `‖a_i⊗b_i − a_j⊗b_j‖² = ‖a_i‖²‖b_i‖² + ‖a_j‖²‖b_j‖² −
/// 2 (a_i·a_j)(b_i·b_j)`, i.e. `O(d_a + d_b)` per pair instead of
/// `O(d_a · d_b)`. Negative cancellation noise is clamped to zero and the
/// diagonal is exactly zero.
///
/// The result is bit-identical to evaluating that expression over the two
/// Gram matrices `a·aᵀ` and `b·bᵀ` of [`Tensor::matmul_transb`]:
/// - every dot product accumulates over the feature index in order,
///   starting from `0.0`, exactly as `matmul_transb` does, with the inner
///   loop running across candidates (reading column-major copies of the
///   factors) so it vectorizes without reordering any sum;
/// - only the upper triangle is computed and then mirrored, which is
///   exact because each entry's operands commute;
/// - no Gram matrix is built: the dots come straight from the factor rows.
///
/// # Panics
///
/// Panics if the factors are not 2-D or have different row counts.
pub fn pairwise_sq_dists_factored(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "factor a must be 2-D");
    assert_eq!(b.ndim(), 2, "factor b must be 2-D");
    assert_eq!(a.dim(0), b.dim(0), "factors must have equal row counts");
    symmetric_sq_dists(&[a, b])
}

/// The shared kernel: squared distances in the product space of
/// `factors` (all `n × d_f`, at least one). Entry `(i, j)`, `i < j`, is
/// `(sq_i + sq_j − 2·g¹_ij·g²_ij·…).max(0)` with the product folded left
/// from `2.0` and `sq_i = g¹_ii·g²_ii·…`, where `gᶠ_ij` is the dot of rows
/// `i` and `j` of factor `f`.
fn symmetric_sq_dists(factors: &[&Tensor]) -> Tensor {
    let n = factors[0].dim(0);
    let cols: Vec<Tensor> = factors.iter().map(|f| f.transpose()).collect();
    let sq: Vec<f32> = (0..n)
        .map(|i| {
            factors
                .iter()
                .map(|f| dot(f.row(i), f.row(i)))
                .fold(1.0, |p, g| p * g)
        })
        .collect();
    let mut out = vec![0.0f32; n * n];
    let mut dots = vec![0.0f32; n];
    for i in 0..n {
        // `upper[j − i − 1]` first holds the running product `2·g¹·g²·…`
        // of pair (i, j), then its distance.
        let upper = &mut out[i * n + i + 1..(i + 1) * n];
        let dots = &mut dots[i + 1..];
        upper.fill(2.0);
        for (factor, fcols) in factors.iter().zip(&cols) {
            dots_with_later_rows(factor.row(i), fcols, i + 1, dots);
            for (p, &g) in upper.iter_mut().zip(dots.iter()) {
                *p *= g;
            }
        }
        for (p, &sq_j) in upper.iter_mut().zip(&sq[i + 1..]) {
            *p = (sq[i] + sq_j - *p).max(0.0);
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            out[j * n + i] = out[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n, n])
}

/// `out[j − from] = row · x_j` for every row `x_j`, `j ≥ from`, of the
/// matrix whose transpose is `cols` (`d × n`). Each sum runs over the
/// feature index in order from `0.0`, like [`Tensor::matmul_transb`].
fn dots_with_later_rows(row: &[f32], cols: &Tensor, from: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (p, &r) in row.iter().enumerate() {
        for (acc, &x) in out.iter_mut().zip(&cols.row(p)[from..]) {
            *acc += r * x;
        }
    }
}

/// `Σ a_p·b_p` accumulated in order from `0.0`, the per-entry order of
/// [`Tensor::matmul_transb`].
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0, |acc, (&x, &y)| acc + x * y)
}

/// Squared Euclidean distances from every row of `x` (`n × d`) to every row
/// of `centers` (`k × d`), returned as `n × k`.
///
/// # Panics
///
/// Panics if either tensor is not 2-D or the feature dimensions differ.
pub fn cross_sq_dists(x: &Tensor, centers: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "cross_sq_dists requires 2-D inputs");
    assert_eq!(centers.ndim(), 2, "cross_sq_dists requires 2-D inputs");
    assert_eq!(
        x.dim(1),
        centers.dim(1),
        "feature dimensions differ: {} vs {}",
        x.dim(1),
        centers.dim(1)
    );
    let (n, k) = (x.dim(0), centers.dim(0));
    let dots = x.matmul_transb(centers);
    let xs: Vec<f32> = (0..n)
        .map(|i| x.row(i).iter().map(|v| v * v).sum())
        .collect();
    let cs: Vec<f32> = (0..k)
        .map(|j| centers.row(j).iter().map(|v| v * v).sum())
        .collect();
    let mut out = Tensor::zeros(&[n, k]);
    for (i, &xi) in xs.iter().enumerate() {
        let row = out.row_mut(i);
        for ((r, &cj), &g) in row.iter_mut().zip(&cs).zip(dots.row(i)) {
            *r = (xi + cj - 2.0 * g).max(0.0);
        }
    }
    out
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist requires equal lengths");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

/// Cosine similarity between two vectors (`0.0` when either is all-zero).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity requires equal lengths");
    let dot: f32 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
    let na: f32 = a.iter().map(|&x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|&x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Frobenius-norm relative error `‖a − b‖ / ‖a‖` (`0.0` when both empty or
/// `a` is all-zero and `b == a`).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn relative_error(a: &Tensor, b: &Tensor) -> f32 {
    let diff = a
        .try_zip(b, "relative_error", |x, y| x - y)
        .expect("relative_error shape mismatch");
    let na = a.norm();
    if na == 0.0 {
        if diff.norm() == 0.0 {
            0.0
        } else {
            f32::INFINITY
        }
    } else {
        diff.norm() / na
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn pairwise_matches_naive() {
        let mut rng = Rng64::new(1);
        let x = Tensor::rand_uniform(&[6, 4], -1.0, 1.0, &mut rng);
        let d = pairwise_sq_dists(&x);
        for i in 0..6 {
            for j in 0..6 {
                let naive = sq_dist(x.row(i), x.row(j));
                assert!(
                    (d.at(&[i, j]) - naive).abs() < 1e-4,
                    "({i},{j}): {} vs {naive}",
                    d.at(&[i, j])
                );
            }
        }
    }

    #[test]
    fn pairwise_is_symmetric_with_zero_diagonal() {
        let mut rng = Rng64::new(2);
        let x = Tensor::rand_uniform(&[8, 3], -2.0, 2.0, &mut rng);
        let d = pairwise_sq_dists(&x);
        for i in 0..8 {
            assert_eq!(d.at(&[i, i]), 0.0);
            for j in 0..8 {
                assert!((d.at(&[i, j]) - d.at(&[j, i])).abs() < 1e-5);
                assert!(d.at(&[i, j]) >= 0.0);
            }
        }
    }

    #[test]
    fn cross_matches_naive() {
        let mut rng = Rng64::new(3);
        let x = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let c = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        let d = cross_sq_dists(&x, &c);
        for i in 0..5 {
            for j in 0..3 {
                let naive = sq_dist(x.row(i), c.row(j));
                assert!((d.at(&[i, j]) - naive).abs() < 1e-4);
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature dimensions differ")]
    fn cross_rejects_dim_mismatch() {
        let _ = cross_sq_dists(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 4]));
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn relative_error_basics() {
        let a = Tensor::from_slice(&[3.0, 4.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(relative_error(&a, &b), 0.0);
        let c = Tensor::from_slice(&[0.0, 4.0]);
        assert!((relative_error(&a, &c) - 3.0 / 5.0).abs() < 1e-6);
    }
}
