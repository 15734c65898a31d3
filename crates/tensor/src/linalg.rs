//! Distance and similarity kernels used by the coreset-selection algorithms.
//!
//! The facility-location objective (NeSSA Eq. 5) and the k-centers baseline
//! both reduce to operations over the pairwise Euclidean structure of a set
//! of feature/gradient rows; this module provides those kernels with the
//! `‖a‖² + ‖b‖² − 2a·b` expansion so the inner loop is a run of dot
//! products.
//!
//! The selection tile comes from [`map_sq_dists`]: a dispatched kernel of
//! 4 rows × 16 candidate lanes with the epilogue fused, which stores only
//! the strict upper triangle, packed row by row, then one contiguous pass
//! that maps it, bit-identical to the Gram-matrix evaluation.

use crate::dispatch::{self, Kernel, Level};
use crate::tensor::{dot_rows, pack_lanes, TILE_LANES};
use crate::Tensor;

/// All pairwise squared Euclidean distances between the rows of `x`
/// (`n × d`), returned as an `n × n` tensor.
///
/// Uses the Gram-matrix expansion; tiny negative values from floating-point
/// cancellation are clamped to zero and the diagonal is exactly zero. Each
/// entry is bit-identical to `(g_ii + g_jj − 2·g_ij).max(0)` over the
/// entries `g` of `x.matmul_transb(x)` (see [`map_sq_dists`] for how the
/// kernel keeps that order).
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn pairwise_sq_dists(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "pairwise_sq_dists requires a 2-D tensor");
    let n = x.dim(0);
    let (upper, diagonal) = map_sq_dists(&[x], |_, d| d);
    let mut out = vec![diagonal; n * n];
    let mut rows = upper.as_slice();
    for i in 0..n {
        let (row, rest) = rows.split_at(n - i - 1);
        rows = rest;
        for (j, &d) in (i + 1..).zip(row) {
            out[i * n + j] = d;
            out[j * n + i] = d;
        }
    }
    Tensor::from_vec(out, &[n, n])
}

/// Where row `i` of an `n × n` strict upper triangle starts when it is
/// packed row by row: rows `0..i` hold `n − 1, n − 2, …, n − i` entries.
/// Row `i` holds columns `i + 1..n`, so entry `(i, j)`, `i < j`, sits at
/// `upper_row_start(n, i) + j − i − 1`.
pub fn upper_row_start(n: usize, i: usize) -> usize {
    i * n - i * (i + 1) / 2
}

/// All pairwise squared distances in the product space of `factors`
/// (each `n × d_f`), passed through a map: the strict upper triangle,
/// packed row by row (row `i` holds columns `i + 1..n`, see
/// [`upper_row_start`]), and the one value every diagonal entry maps to.
///
/// Candidate `i` is the outer product `f¹_i ⊗ f²_i ⊗ …` of row `i` of
/// every factor, and its distance to `j` comes through the factorization
/// `‖x_i − x_j‖² = sq_i + sq_j − 2·g¹_ij·g²_ij·…`, where `gᶠ_ij` is the dot
/// of rows `i` and `j` of factor `f` and `sq_i = g¹_ii·g²_ii·…`: `O(Σ d_f)`
/// per pair instead of `O(Π d_f)`, and no product is materialized. One
/// factor gives plain Euclidean distances. Negative cancellation noise is
/// clamped to zero. Once every distance is known, entry `(i, j)` becomes
/// `map(max, d_ij)`, where `max` is the largest distance (at least
/// `0.0`), and the diagonal becomes `map(max, 0.0)`. A distance is
/// symmetric bit for bit (each entry's operands commute), so the triangle
/// holds every pair once.
///
/// Every distance is bit-identical to evaluating the expression over the
/// Gram matrices `fᶠ·fᶠᵀ` of [`Tensor::matmul_transb`]:
/// - each factor is packed column-major in blocks of 16 candidates,
///   zero-padded past `n`, and one dispatched row-group kernel computes
///   the dots of 4 rows `i` with 16 candidate lanes `j` over every factor.
///   Each lane is one entry's only accumulator and sums over the feature
///   index in order from `0.0`, exactly as `matmul_transb` does, so the
///   tile vectorizes across entries without reordering any sum;
/// - the pair product is folded left from `2.0` across the factors, and
///   the epilogue `(sq_i + sq_j − p).max(0)` runs in the same kernel, so
///   its AVX2 instance keeps the whole entry in registers;
/// - only entries with `j > i` are stored, straight into their packed
///   rows: the blocks that cross the diagonal compute lanes left of it
///   too, but those and the padding past `n` are neither stored nor
///   counted toward the maximum;
/// - one contiguous pass then maps each stored entry once.
///
/// # Panics
///
/// Panics if `factors` is empty, a factor is not 2-D or the factors
/// have different row counts.
pub fn map_sq_dists(factors: &[&Tensor], map: impl Fn(f32, f32) -> f32) -> (Vec<f32>, f32) {
    assert!(
        !factors.is_empty(),
        "map_sq_dists needs at least one factor"
    );
    let n = factors[0].dim(0);
    for f in factors {
        assert_eq!(f.ndim(), 2, "factors must be 2-D");
        assert_eq!(f.dim(0), n, "factors must have equal row counts");
    }
    let (sq, packed) = operands(factors);
    let mut upper = vec![0.0f32; upper_row_start(n, n)];
    let mut max = 0.0f32;
    for r0 in (0..n).step_by(GROUP_ROWS) {
        let rows = upper_row_start(n, r0)..upper_row_start(n, n.min(r0 + GROUP_ROWS));
        max = max.max(dispatch::run(SqDistRows {
            factors,
            packed: &packed,
            sq: &sq,
            r0,
            out: &mut upper[rows],
        }));
    }
    for d in &mut upper {
        *d = map(max, *d);
    }
    (upper, map(max, 0.0))
}

/// What every row group of [`map_sq_dists`] reads besides the factor
/// rows: `sq_i` per candidate, zero-padded to whole blocks of 16 so the
/// epilogue reads whole lanes (the padding is never stored), and each
/// factor packed by [`pack_lanes`].
fn operands(factors: &[&Tensor]) -> (Vec<f32>, Vec<Vec<[f32; TILE_LANES]>>) {
    let n = factors[0].dim(0);
    let blocks = n.div_ceil(TILE_LANES);
    let packed: Vec<Vec<[f32; TILE_LANES]>> = factors
        .iter()
        .map(|f| pack_lanes(f.as_slice(), n, f.dim(1)))
        .collect();
    // `sq_i` folds left from `1.0` over the factors' self-dots, each
    // summed in order from `0.0` as `matmul_transb` sums, 16 candidates at
    // a time down the packed lanes; a padded lane's dots are `0.0`.
    let mut sq = vec![1.0f32; blocks * TILE_LANES];
    for (f, lanes) in factors.iter().zip(&packed) {
        let d = f.dim(1);
        for (b, s) in sq.chunks_exact_mut(TILE_LANES).enumerate() {
            let mut g = [0.0f32; TILE_LANES];
            for x in &lanes[b * d..(b + 1) * d] {
                for (g, &v) in g.iter_mut().zip(x) {
                    *g += v * v;
                }
            }
            for (s, g) in s.iter_mut().zip(g) {
                *s *= g;
            }
        }
    }
    (sq, packed)
}

/// Rows of one row group of the similarity kernel. Four rows × 16 lanes
/// keep the 64 accumulators in eight AVX2 or four AVX-512 registers, and
/// the SSE2 instance runs no slower than a 2-row tile. An 8-row group at
/// AVX-512 measured slower.
const GROUP_ROWS: usize = 4;

/// One row group of [`map_sq_dists`]: the squared distances of rows
/// `r0..r0 + 4` (fewer at the end) to every candidate right of the
/// diagonal, stored into `out`, those rows of the packed upper triangle.
/// Returns the largest of them (at least `0.0`).
struct SqDistRows<'a> {
    factors: &'a [&'a Tensor],
    packed: &'a [Vec<[f32; TILE_LANES]>],
    /// `sq_i` per candidate, zero-padded to whole blocks.
    sq: &'a [f32],
    r0: usize,
    out: &'a mut [f32],
}

impl Kernel for SqDistRows<'_> {
    type Output = f32;

    #[inline(always)]
    fn run(self, _: Level) -> f32 {
        let n = self.factors[0].dim(0);
        let rows = GROUP_ROWS.min(n - self.r0);
        // The group's rows of every factor. A group short of 4 rows
        // repeats its last row in the missing ones; their results are
        // never stored.
        let w: Vec<[&[f32]; GROUP_ROWS]> = self
            .factors
            .iter()
            .map(|f| [0, 1, 2, 3].map(|q| f.row(self.r0 + q.min(rows - 1))))
            .collect();
        let mut max = [0.0f32; TILE_LANES];
        for (block, sq_j) in self
            .sq
            .chunks_exact(TILE_LANES)
            .enumerate()
            .skip(self.r0 / TILE_LANES)
        {
            // Lane `l` of `prods[q]` holds the running product `2·g¹·g²·…`
            // of pair (r0 + q, j0 + l).
            let mut prods = [[2.0f32; TILE_LANES]; GROUP_ROWS];
            for (&w, lanes) in w.iter().zip(self.packed) {
                // Rows and lanes exactly `d` long, so the tile's loads
                // need no bounds check.
                let d = w[0].len();
                let dots = dot_rows(&lanes[block * d..][..d], w.map(|w| &w[..d]));
                for (prod, dots) in prods.iter_mut().zip(&dots) {
                    for (p, g) in prod.iter_mut().zip(dots) {
                        *p *= g;
                    }
                }
            }
            let j0 = block * TILE_LANES;
            for (r, prod) in (self.r0..).zip(&prods).take(rows) {
                let sq_r = self.sq[r];
                let mut d = [0.0f32; TILE_LANES];
                for ((d, &sq_j), &p) in d.iter_mut().zip(sq_j).zip(prod) {
                    *d = (sq_r + sq_j - p).max(0.0);
                }
                // Only lanes right of the diagonal and inside the matrix
                // count toward the maximum, and only they are stored:
                // column `j` of row `r` sits at `j − r − 1` in `row`.
                let fold = |max: &mut [f32], d: &[f32]| {
                    for (m, &d) in max.iter_mut().zip(d) {
                        *m = m.max(d);
                    }
                };
                let row = &mut self.out[upper_row_start(n, r) - upper_row_start(n, self.r0)..];
                if j0 > r && j0 + TILE_LANES <= n {
                    fold(&mut max, &d);
                    row[j0 - r - 1..][..TILE_LANES].copy_from_slice(&d);
                } else {
                    let lanes = (r + 1).max(j0) - j0..n.min(j0 + TILE_LANES) - j0;
                    fold(&mut max[lanes.clone()], &d[lanes.clone()]);
                    row[j0 + lanes.start - r - 1..][..lanes.len()].copy_from_slice(&d[lanes]);
                }
            }
        }
        max.into_iter().fold(0.0, f32::max)
    }
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
    fn dispatch_sq_dist_rows_instances_are_bit_identical() {
        // Every row group of tiles around the 16-lane block and the 4-row
        // group edges, with one factor and with two, narrow and wide, some
        // entries and rows zero.
        let mut rng = Rng64::new(43);
        let mut skipped = Vec::new();
        for n in [1, 2, 3, 4, 5, 15, 16, 17, 33, 70] {
            for widths in [&[3][..], &[10, 64], &[0, 5], &[1, 1]] {
                let factors: Vec<Tensor> = widths
                    .iter()
                    .map(|&d| {
                        let mut f = Tensor::rand_uniform(&[n, d], -2.0, 2.0, &mut rng);
                        for v in f.as_mut_slice().iter_mut().step_by(3) {
                            *v = 0.0;
                        }
                        if n > 2 {
                            f.row_mut(1).fill(0.0);
                        }
                        f
                    })
                    .collect();
                let factors: Vec<&Tensor> = factors.iter().collect();
                let (sq, packed) = operands(&factors);
                for r0 in (0..n).step_by(GROUP_ROWS) {
                    let len = upper_row_start(n, n.min(r0 + GROUP_ROWS)) - upper_row_start(n, r0);
                    let mut base = vec![f32::NAN; len];
                    let mut wide = vec![vec![f32::NAN; len]; 2];
                    let group = |out| SqDistRows {
                        factors: &factors,
                        packed: &packed,
                        sq: &sq,
                        r0,
                        out,
                    };
                    let base_max = group(&mut base).run(Level::Baseline);
                    let levels = [Level::Avx2, Level::Avx512];
                    let maxes: Vec<_> = levels
                        .into_iter()
                        .zip(&mut wide)
                        .map(|(level, wide)| dispatch::run_at(level, group(wide)).ok())
                        .collect();
                    for ((level, wide), wide_max) in levels.into_iter().zip(&wide).zip(maxes) {
                        let Some(wide_max) = wide_max else {
                            skipped.push(level);
                            continue;
                        };
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let at = format!("{level:?}, n {n}, widths {widths:?}, rows from {r0}");
                        assert_eq!(bits(wide), bits(&base), "{at}");
                        assert_eq!(wide_max.to_bits(), base_max.to_bits(), "{at}");
                    }
                }
            }
        }
        skipped.sort();
        skipped.dedup();
        for level in skipped {
            println!(
                "dispatch_sq_dist_rows_instances_are_bit_identical: {level:?} skipped, this CPU \
                 lacks it"
            );
        }
    }

    #[test]
    #[should_panic(expected = "feature dimensions differ")]
    fn cross_rejects_dim_mismatch() {
        let _ = cross_sq_dists(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 4]));
    }
}
