//! Distance and similarity kernels used by the coreset-selection algorithms.
//!
//! The facility-location objective (NeSSA Eq. 5) and the k-centers baseline
//! both reduce to operations over the pairwise Euclidean structure of a set
//! of feature/gradient rows; this module provides those kernels with the
//! `‖a‖² + ‖b‖² − 2a·b` expansion so the inner loop is a run of dot
//! products.

use crate::tensor::{dot_tile, pack_lanes, TILE_LANES};
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
/// - each factor is packed column-major in blocks of 16 candidates,
///   zero-padded past `n`, and a register tile computes the dots of 2 rows
///   `i` with 16 candidate lanes `j`. Each lane is one entry's only
///   accumulator and sums over the feature index in order from `0.0`,
///   exactly as `matmul_transb` does, so the tile vectorizes across
///   entries without reordering any sum;
/// - the pair product is folded left from `2.0` across the factors, and
///   only entries with `j > i` are kept: tiles that cross the diagonal
///   drop their lower lanes, and padded lanes are dropped;
/// - the upper triangle is mirrored in 32 × 32 blocks, which is exact
///   because each entry's operands commute;
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
    let sq: Vec<f32> = (0..n)
        .map(|i| {
            factors
                .iter()
                .map(|f| dot(f.row(i), f.row(i)))
                .fold(1.0, |p, g| p * g)
        })
        .collect();
    let packed: Vec<Vec<[f32; TILE_LANES]>> = factors
        .iter()
        .map(|f| pack_lanes(f.as_slice(), n, f.dim(1)))
        .collect();
    let mut out = vec![0.0f32; n * n];
    // Rows pair up as (i, i + 1); an odd last row has no entry right of
    // the diagonal, so every pair is complete.
    for i in (0..n.saturating_sub(1)).step_by(2) {
        for block in (i + 1) / TILE_LANES..n.div_ceil(TILE_LANES) {
            // Lane `l` of `prods` holds the running product `2·g¹·g²·…`
            // of pairs (i, j) and (i + 1, j), `j = j0 + l`.
            let mut prods = [[2.0f32; TILE_LANES]; 2];
            for (factor, lanes) in factors.iter().zip(&packed) {
                let d = factor.dim(1);
                let g = dot_tile(
                    &lanes[block * d..(block + 1) * d],
                    factor.row(i),
                    factor.row(i + 1),
                );
                for (prod, g) in prods.iter_mut().zip([g.0, g.1]) {
                    for (p, g) in prod.iter_mut().zip(g) {
                        *p *= g;
                    }
                }
            }
            // Keep only `j > r` inside the matrix: lanes left of (or on)
            // the diagonal and the zero padding past `n` are dropped.
            let j0 = block * TILE_LANES;
            for (r, prod) in (i..).zip(&prods) {
                let (lo, hi) = ((r + 1).max(j0), n.min(j0 + TILE_LANES));
                for ((d, &sq_j), &p) in out[r * n + lo..r * n + hi]
                    .iter_mut()
                    .zip(&sq[lo..hi])
                    .zip(&prod[lo - j0..])
                {
                    *d = (sq[r] + sq_j - p).max(0.0);
                }
            }
        }
    }
    mirror_upper(&mut out, n);
    Tensor::from_vec(out, &[n, n])
}

/// Side of the square blocks [`mirror_upper`] copies through.
const MIRROR_BLOCK: usize = 32;

/// Copies the strict upper triangle of the row-major `n × n` matrix `m`
/// onto its lower triangle, block by block so both the rows read and the
/// columns written stay in cache.
fn mirror_upper(m: &mut [f32], n: usize) {
    for ib in (0..n).step_by(MIRROR_BLOCK) {
        for jb in (ib..n).step_by(MIRROR_BLOCK) {
            for i in ib..n.min(ib + MIRROR_BLOCK) {
                for j in (i + 1).max(jb)..n.min(jb + MIRROR_BLOCK) {
                    m[j * n + i] = m[i * n + j];
                }
            }
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
}
