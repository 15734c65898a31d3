//! Pins the similarity kernel's bit-exact contract.
//!
//! `SimilarityMatrix::from_factored` computes only the upper triangle: one
//! dispatched kernel takes the dot products straight from the factor rows
//! in register tiles of 4 rows × 16 candidates, folds the pair product
//! over the factors and applies the `(sq_i + sq_j − p).max(0)` epilogue,
//! and one pass maps each entry to `c0 − d` and mirrors it. Every entry
//! must still equal, bit for bit, the Gram-matrix evaluation below (two
//! full `matmul_transb` Gram matrices, every ordered pair, a separate
//! distance buffer and a separate transform), which exists only here as
//! the reference. The greedy maximizers start coverage at `0.0`, which
//! relies on every similarity being non-negative; that invariant is
//! pinned too.

use nessa_select::facility::SimilarityMatrix;
use nessa_tensor::linalg::pairwise_sq_dists;
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use proptest::prelude::*;

/// The Gram-matrix evaluation of the factored similarity, kept in the
/// order the kernel must reproduce.
fn gram_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let n = a.dim(0);
    let ga = a.matmul_transb(a);
    let gb = b.matmul_transb(b);
    let (ga, gb) = (ga.as_slice(), gb.as_slice());
    let sq: Vec<f32> = (0..n).map(|i| ga[i * n + i] * gb[i * n + i]).collect();
    let mut dists = vec![0.0f32; n * n];
    let mut c0 = 0.0f32;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = (sq[i] + sq[j] - 2.0 * ga[i * n + j] * gb[i * n + j]).max(0.0);
            dists[i * n + j] = d;
            c0 = c0.max(d);
        }
    }
    dists.iter().map(|&d| c0 - d).collect()
}

/// Gram-matrix evaluation of the flat pairwise squared distances.
fn pairwise_reference(x: &Tensor) -> Vec<f32> {
    let n = x.dim(0);
    let gram = x.matmul_transb(x);
    let g = gram.as_slice();
    let mut out = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                out[i * n + j] = (g[i * n + i] + g[j * n + j] - 2.0 * g[i * n + j]).max(0.0);
            }
        }
    }
    out
}

/// An `n × d` factor: uniform entries, of which about `zero_share` are
/// exactly zero and every fourth row (on average) is zero entirely, and
/// about `dup_share` of the rows copy an earlier row.
fn factor(n: usize, d: usize, scale: f32, zero_share: f64, dup_share: f64, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    let mut data = vec![0.0f32; n * d];
    for i in 0..n {
        if i > 0 && rng.coin(dup_share) {
            let src = rng.index(i);
            data.copy_within(src * d..(src + 1) * d, i * d);
            continue;
        }
        if rng.coin(0.25 * zero_share) {
            continue;
        }
        for v in &mut data[i * d..(i + 1) * d] {
            if !rng.coin(zero_share) {
                *v = rng.uniform(-scale, scale);
            }
        }
    }
    Tensor::from_vec(data, &[n, d])
}

fn bits(sim: &SimilarityMatrix) -> Vec<u32> {
    (0..sim.len())
        .flat_map(|j| sim.row(j).map(|s| s.to_bits()))
        .collect()
}

fn assert_matches_reference(a: &Tensor, b: &Tensor) {
    let sim = SimilarityMatrix::from_factored(a, b);
    let expect: Vec<u32> = gram_reference(a, b).iter().map(|s| s.to_bits()).collect();
    assert_eq!(sim.len(), a.dim(0));
    assert_eq!(bits(&sim), expect);
}

fn assert_pairwise_matches_reference(x: &Tensor) {
    let got: Vec<u32> = pairwise_sq_dists(x)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let expect: Vec<u32> = pairwise_reference(x).iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, expect, "n = {}, d = {}", x.dim(0), x.dim(1));
}

fn assert_nonnegative(sim: &SimilarityMatrix) {
    for j in 0..sim.len() {
        for (i, s) in sim.row(j).enumerate() {
            assert!(s >= 0.0, "sim({i}, {j}) = {s}");
        }
    }
}

#[test]
fn factored_matches_gram_reference_at_select_heavy_tile_shape() {
    // One class tile of the select-heavy workload: 600 candidates,
    // 10-wide residuals, 64-wide penultimate features.
    let a = factor(600, 10, 1.0, 0.3, 0.05, 11);
    let b = factor(600, 64, 3.0, 0.0, 0.0, 12);
    assert_matches_reference(&a, &b);
}

#[test]
fn factored_matches_gram_reference_on_small_and_degenerate_tiles() {
    for n in [0, 1, 2, 17, 107] {
        for (da, db) in [(0, 3), (1, 1), (10, 64), (3, 0)] {
            let a = factor(n, da, 1.0, 0.5, 0.2, n as u64);
            let b = factor(n, db, 2.0, 0.1, 0.2, n as u64 + 1);
            assert_matches_reference(&a, &b);
        }
    }
}

#[test]
fn kernel_matches_gram_reference_across_tile_edges() {
    // The kernel runs 4 rows against 16 candidate lanes at a time and
    // mirrors in 32 × 32 blocks: cover one short of, exactly at and one
    // past each edge, and select-heavy tiles whose last row group is
    // short by one, two and three rows.
    for n in [15, 16, 17, 31, 32, 33, 599, 601, 602] {
        let a = factor(n, 10, 1.0, 0.3, 0.05, 100 + n as u64);
        let b = factor(n, 64, 3.0, 0.1, 0.05, 200 + n as u64);
        assert_matches_reference(&a, &b);
        assert_pairwise_matches_reference(&b);
    }
}

#[test]
fn kernel_matches_gram_reference_at_chunk_tile_shapes() {
    // The train-heavy (32 × 10 × 384) and pipelined-faulty (64 × 10 × 256)
    // chunk tiles: few candidates, wide features.
    for (n, d, seed) in [(32, 384, 21), (64, 256, 22)] {
        let a = factor(n, 10, 1.0, 0.3, 0.05, seed);
        let b = factor(n, d, 3.0, 0.5, 0.05, seed + 100);
        assert_matches_reference(&a, &b);
        assert_pairwise_matches_reference(&b);
    }
}

proptest! {
    #[test]
    fn factored_is_bit_identical_to_gram_reference(
        n in 0usize..81,
        da in 0usize..13,
        db in 0usize..80,
        zero_share in 0.0f64..1.0,
        dup_share in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let a = factor(n, da, 1.0, zero_share, dup_share, seed);
        let b = factor(n, db, 4.0, zero_share / 4.0, 0.0, seed ^ 0x9e37);
        assert_matches_reference(&a, &b);
    }

    #[test]
    fn pairwise_is_bit_identical_to_gram_reference(
        n in 0usize..81,
        d in 0usize..40,
        zero_share in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let x = factor(n, d, 3.0, zero_share, 0.2, seed);
        let got: Vec<u32> = pairwise_sq_dists(&x).as_slice().iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u32> = pairwise_reference(&x).iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn similarities_are_nonnegative(
        n in 0usize..60,
        da in 0usize..8,
        db in 1usize..40,
        zero_share in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let a = factor(n, da, 1.0, zero_share, 0.2, seed);
        let b = factor(n, db, 3.0, 0.0, 0.2, seed ^ 1);
        assert_nonnegative(&SimilarityMatrix::from_factored(&a, &b));
        assert_nonnegative(&SimilarityMatrix::from_features(&b));
        assert_nonnegative(&SimilarityMatrix::from_features(&a));
    }
}
