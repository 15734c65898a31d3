//! Pins what the greedy maximizers return, bit for bit.
//!
//! For every maximizer (Lazy, Naive, Stochastic) and a set of similarity
//! tiles, the picks, the CRAIG weights' `to_bits` and the metered
//! `gain_evals` and `rounds` counters must match the values recorded
//! here. Each tile's similarity bits are pinned too, so a change to the
//! similarity kernel, the greedy or the weight assignment that moves a
//! single bit fails here. The tiles:
//!
//! * select-heavy-shaped class tiles: 600 candidates with 10-wide
//!   residuals and 64-wide features, half of the features zero as after
//!   a ReLU layer;
//! * a tile in which about a third of the rows copy an earlier row;
//! * an all-identical tile, whose similarities are all zero (`c0 = 0`);
//! * tiles of 0, 1, 2, 17 and 600 candidates.
//!
//! Long pick lists are pinned as an FNV-1a hash of the picks and weight
//! bits; the first picks are pinned in the clear as well.

use nessa_select::facility::{maximize_metered, GreedyVariant, SimilarityMatrix};
use nessa_select::{SelectMetrics, Selection};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;

/// 64-bit FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn sim_hash(sim: &SimilarityMatrix) -> u64 {
    fnv((0..sim.len()).flat_map(|j| sim.row(j).map(|s| u64::from(s.to_bits()))))
}

fn selection_hash(sel: &Selection) -> u64 {
    fnv(sel
        .indices
        .iter()
        .map(|&i| i as u64)
        .chain(sel.weights.iter().map(|w| u64::from(w.to_bits()))))
}

/// A select-heavy-shaped class tile: `n` candidates, uniform residuals
/// in `[-1, 1)`, and 64 features of which about half are zero and the
/// rest uniform in `[0, 3)`.
fn relu_tile(n: usize, seed: u64) -> SimilarityMatrix {
    let mut rng = Rng64::new(seed);
    let a = Tensor::rand_uniform(&[n, 10], -1.0, 1.0, &mut rng);
    let b: Vec<f32> = (0..n * 64)
        .map(|_| {
            if rng.coin(0.5) {
                0.0
            } else {
                rng.uniform(0.0, 3.0)
            }
        })
        .collect();
    SimilarityMatrix::from_factored(&a, &Tensor::from_vec(b, &[n, 64]))
}

/// A tile of `n` candidates in which about a third of the rows copy an
/// earlier row.
fn duplicate_tile(n: usize, seed: u64) -> SimilarityMatrix {
    let mut rng = Rng64::new(seed);
    let (da, db) = (3, 8);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..n {
        if i > 0 && rng.coin(0.35) {
            let src = rng.index(i);
            a.extend_from_within(src * da..(src + 1) * da);
            b.extend_from_within(src * db..(src + 1) * db);
        } else {
            a.extend((0..da).map(|_| rng.uniform(-1.0, 1.0)));
            b.extend((0..db).map(|_| rng.uniform(-2.0, 2.0)));
        }
    }
    SimilarityMatrix::from_factored(
        &Tensor::from_vec(a, &[n, da]),
        &Tensor::from_vec(b, &[n, db]),
    )
}

/// `n` copies of one row: every distance is zero, so `c0 = 0` and every
/// similarity is zero.
fn identical_tile(n: usize) -> SimilarityMatrix {
    let a = Tensor::from_vec([0.5f32, -1.25, 2.0].repeat(n), &[n, 3]);
    let b = Tensor::from_vec([1.5f32, 0.0, -0.75, 3.0].repeat(n), &[n, 4]);
    SimilarityMatrix::from_factored(&a, &b)
}

/// What one maximizer run is pinned by.
#[derive(Debug, PartialEq)]
struct Pin {
    picks: usize,
    first: Vec<usize>,
    selection: u64,
    gain_evals: u64,
    rounds: u64,
}

fn run(sim: &SimilarityMatrix, k: usize, variant: GreedyVariant) -> Pin {
    let metrics = SelectMetrics::default();
    let sel = maximize_metered(sim, k, variant, &mut Rng64::new(29), Some(&metrics)).unwrap();
    Pin {
        picks: sel.len(),
        first: sel.indices.iter().take(6).copied().collect(),
        selection: selection_hash(&sel),
        gain_evals: metrics.gain_evals.get(),
        rounds: metrics.rounds.get(),
    }
}

const VARIANTS: [(&str, GreedyVariant); 3] = [
    ("lazy", GreedyVariant::Lazy),
    ("naive", GreedyVariant::Naive),
    ("stochastic", GreedyVariant::Stochastic { epsilon: 0.1 }),
];

/// Runs every variant on `sim` at `k` and compares against `expect`, one
/// `(picks, first picks, selection hash, gain_evals, rounds)` per variant
/// in [`VARIANTS`] order, after checking the tile's similarity hash.
fn check(
    tile: &str,
    sim: &SimilarityMatrix,
    sim_expect: u64,
    k: usize,
    expect: [(usize, &[usize], u64, u64, u64); 3],
) {
    assert_eq!(sim_hash(sim), sim_expect, "{tile}: similarity bits");
    for ((name, variant), (picks, first, selection, gain_evals, rounds)) in
        VARIANTS.into_iter().zip(expect)
    {
        let expect = Pin {
            picks,
            first: first.to_vec(),
            selection,
            gain_evals,
            rounds,
        };
        assert_eq!(run(sim, k, variant), expect, "{tile}, {name}, k = {k}");
    }
}

#[test]
fn select_heavy_tiles_are_pinned() {
    check(
        "relu 600 seed 1",
        &relu_tile(600, 1),
        0xa7739c7377a33b21,
        120,
        [
            (
                120,
                &[149, 294, 182, 300, 102, 362],
                0xd618db2cd8980009,
                1740,
                120,
            ),
            (
                120,
                &[149, 294, 182, 300, 102, 362],
                0xd618db2cd8980009,
                64860,
                120,
            ),
            (
                120,
                &[151, 492, 519, 410, 522, 532],
                0x3aaddef064c8ed13,
                1440,
                120,
            ),
        ],
    );
    check(
        "relu 600 seed 2",
        &relu_tile(600, 2),
        0xcc4b9c61b4783c19,
        120,
        [
            (
                120,
                &[535, 284, 241, 398, 409, 67],
                0xc6844ca2a5995673,
                1952,
                120,
            ),
            (
                120,
                &[535, 284, 241, 398, 409, 67],
                0xc6844ca2a5995673,
                64860,
                120,
            ),
            (
                120,
                &[151, 176, 519, 410, 121, 494],
                0x86612500c8916517,
                1440,
                120,
            ),
        ],
    );
}

#[test]
fn duplicate_row_tiles_are_pinned() {
    check(
        "duplicates 90",
        &duplicate_tile(90, 3),
        0x2a752086a2187d25,
        30,
        [
            (30, &[26, 15, 61, 3, 30, 19], 0xbec36067c6635938, 313, 30),
            (30, &[26, 0, 6, 3, 30, 19], 0xe976ecf4538db6f4, 2265, 30),
            (30, &[24, 54, 50, 65, 52, 63], 0x6193cf431d754765, 210, 30),
        ],
    );
    check(
        "duplicates 33",
        &duplicate_tile(33, 4),
        0xf5b7dcb2d9a265dc,
        20,
        [
            (20, &[26, 15, 3, 32, 27, 10], 0x39ac0c5630ba2b1a, 110, 20),
            (20, &[26, 1, 2, 19, 12, 10], 0x7a092c03b56a5036, 470, 20),
            (20, &[1, 32, 2, 13, 28, 27], 0x27cfcf621dfe87a4, 80, 20),
        ],
    );
}

#[test]
fn all_identical_tile_is_pinned() {
    let sim = identical_tile(40);
    assert!((0..40).all(|j| sim.row(j).all(|s| s.to_bits() == 0)));
    check(
        "identical 40",
        &sim,
        0x79e6435029510b25,
        7,
        [
            (7, &[0, 2, 6, 14, 30, 39], 0xbf3e5538a576aefe, 76, 7),
            (7, &[0, 1, 2, 3, 4, 5], 0x770f1e25f77c3324, 259, 7),
            (7, &[28, 12, 9, 19, 34, 1], 0x2610e4d66fc0cdf2, 98, 7),
        ],
    );
}

#[test]
fn small_and_edge_sizes_are_pinned() {
    check(
        "relu 0",
        &relu_tile(0, 5),
        0xcbf29ce484222325,
        3,
        [
            (0, &[], 0xcbf29ce484222325, 0, 0),
            (0, &[], 0xcbf29ce484222325, 0, 0),
            (0, &[], 0xcbf29ce484222325, 0, 0),
        ],
    );
    check(
        "relu 1",
        &relu_tile(1, 6),
        0xa8c7f832281a39c5,
        1,
        [
            (1, &[0], 0x148b1c14ba625878, 0, 0),
            (1, &[0], 0x148b1c14ba625878, 0, 0),
            (1, &[0], 0x148b1c14ba625878, 0, 0),
        ],
    );
    check(
        "relu 2",
        &relu_tile(2, 7),
        0xdb6eec53cbe1fe4d,
        1,
        [
            (1, &[0], 0xb3d8ea58b4d9fd25, 2, 1),
            (1, &[0], 0xb3d8ea58b4d9fd25, 2, 1),
            (1, &[1], 0x64dad490a1c4e4e4, 2, 1),
        ],
    );
    check(
        "relu 17",
        &relu_tile(17, 8),
        0x3e872a0caa0d7792,
        5,
        [
            (5, &[0, 9, 4, 14, 1], 0x75744ddfbb566014, 36, 5),
            (5, &[0, 9, 4, 14, 1], 0x75744ddfbb566014, 75, 5),
            (5, &[0, 9, 14, 10, 4], 0x88b52a55925d6f5e, 40, 5),
        ],
    );
    check(
        "relu 17, k >= n",
        &relu_tile(17, 8),
        0x3e872a0caa0d7792,
        17,
        [
            (17, &[0, 1, 2, 3, 4, 5], 0x8d49c4ad3c532ae8, 0, 0),
            (17, &[0, 1, 2, 3, 4, 5], 0x8d49c4ad3c532ae8, 0, 0),
            (17, &[0, 1, 2, 3, 4, 5], 0x8d49c4ad3c532ae8, 0, 0),
        ],
    );
    check(
        "relu 600, k = 12",
        &relu_tile(600, 9),
        0xa0bd9bfecdcd1e7d,
        12,
        [
            (
                12,
                &[309, 111, 266, 287, 41, 492],
                0xac3ffa3874bc14c8,
                1274,
                12,
            ),
            (
                12,
                &[309, 111, 266, 287, 41, 492],
                0xac3ffa3874bc14c8,
                7134,
                12,
            ),
            (
                12,
                &[309, 266, 287, 111, 335, 41],
                0x9776bd2db1dbcfcc,
                1392,
                12,
            ),
        ],
    );
}
