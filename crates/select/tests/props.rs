//! Property tests for the selection algorithms.

use nessa_select::craig::{select_per_class_factored, CraigOptions};
use nessa_select::facility::{maximize, GreedyVariant, SimilarityMatrix};
use nessa_select::{fraction_count, kcenters, random, SelectError, Selection};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use proptest::prelude::*;

fn features(n: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    Tensor::rand_uniform(&[n, d], -3.0, 3.0, &mut rng)
}

/// CRAIG over plain feature rows: an all-ones residual factor makes the
/// factored distances the flat ones, bit for bit.
fn select_flat(
    x: &Tensor,
    labels: &[usize],
    classes: usize,
    fraction: f32,
    options: &CraigOptions,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    let flat = |m: &[usize]| (Tensor::ones(&[m.len(), 1]), x.gather_rows(m));
    select_per_class_factored(flat, labels, classes, fraction, options, rng)
}

/// Candidate `i`'s factor rows, a pure function of `i` (as a proxy is of
/// its sample): `c` residual and `d` feature entries.
fn proxy_rows(i: usize, c: usize, d: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Rng64::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let a = (0..c).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b = (0..d).map(|_| rng.uniform(-2.0, 2.0)).collect();
    (a, b)
}

/// The factors of `rows`, built row by row.
fn proxies_of(rows: &[usize], c: usize, d: usize, seed: u64) -> (Tensor, Tensor) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for &i in rows {
        let (ra, rb) = proxy_rows(i, c, d, seed);
        a.extend(ra);
        b.extend(rb);
    }
    (
        Tensor::from_vec(a, &[rows.len(), c]),
        Tensor::from_vec(b, &[rows.len(), d]),
    )
}

fn selection_bits(s: &Selection) -> (Vec<usize>, Vec<u32>) {
    (
        s.indices.clone(),
        s.weights.iter().map(|w| w.to_bits()).collect(),
    )
}

fn labels(n: usize, classes: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng64::new(seed);
    (0..n).map(|_| rng.index(classes)).collect()
}

proptest! {
    #[test]
    fn greedy_objective_grows_with_k(n in 4usize..24, d in 1usize..5, seed in any::<u64>()) {
        let sim = SimilarityMatrix::from_features(&features(n, d, seed));
        let mut rng = Rng64::new(seed ^ 1);
        let mut prev = 0.0f32;
        for k in 1..=n.min(6) {
            let sel = maximize(&sim, k, GreedyVariant::Lazy, &mut rng).unwrap();
            let f = sim.objective(&sel.indices);
            prop_assert!(f >= prev - 1e-3 * prev.abs().max(1.0), "k={}: {} < {}", k, f, prev);
            prev = f;
        }
    }

    #[test]
    fn per_class_selection_is_stratified(
        n in 8usize..60, classes in 2usize..5, f in 0.1f32..0.9, seed in any::<u64>()
    ) {
        let feats = features(n, 4, seed);
        let ys = labels(n, classes, seed ^ 2);
        let mut rng = Rng64::new(seed ^ 3);
        let sel = select_flat(&feats, &ys, classes, f, &CraigOptions::default(), &mut rng).unwrap();
        // Every selected index has a valid label; per-class counts honour
        // fraction_count.
        let mut per_class = vec![0usize; classes];
        for &i in &sel.indices {
            per_class[ys[i]] += 1;
        }
        let mut sizes = vec![0usize; classes];
        for &y in &ys {
            sizes[y] += 1;
        }
        for c in 0..classes {
            prop_assert_eq!(per_class[c], fraction_count(sizes[c], f), "class {}", c);
        }
        // Weights cover the whole pool.
        let total: f32 = sel.weights.iter().sum();
        prop_assert!((total - n as f32).abs() < 1e-3);
    }

    #[test]
    fn factored_equals_flat_on_rank_one_case(
        n in 4usize..20, c in 2usize..4, seed in any::<u64>()
    ) {
        // Features with a constant second factor reduce the outer-product
        // distance to a scaled flat distance; the flat path puts the
        // constant factor first, so factor order must not matter.
        let a = features(n, c, seed);
        let ones = Tensor::ones(&[n, 1]);
        let ys = labels(n, 2, seed ^ 4);
        let opts = CraigOptions::default();
        let flat = select_flat(&a, &ys, 2, 0.5, &opts, &mut Rng64::new(9)).unwrap();
        let gathered = |m: &[usize]| (a.gather_rows(m), ones.gather_rows(m));
        let fact =
            select_per_class_factored(gathered, &ys, 2, 0.5, &opts, &mut Rng64::new(9)).unwrap();
        prop_assert_eq!(flat.indices, fact.indices);
    }

    #[test]
    fn per_class_factors_match_gathered_pool_factors(
        n in 2usize..80,
        classes in 1usize..5,
        chunk in 0usize..12,
        f in 0.1f32..0.9,
        seed in any::<u64>(),
    ) {
        // Building each class's factors when it is selected gives the same
        // bits as gathering them from one pool-wide block, whole-class and
        // partitioned, on 1 and 3 threads.
        let chunk = (chunk >= 2).then_some(chunk);
        let ys = labels(n, classes, seed ^ 7);
        let pool: Vec<usize> = (0..n).collect();
        let (a, b) = proxies_of(&pool, 3, 11, seed);
        let gathered = |m: &[usize]| (a.gather_rows(m), b.gather_rows(m));
        let per_class = |m: &[usize]| proxies_of(m, 3, 11, seed);
        let opts = |threads| CraigOptions {
            partition_chunk: chunk,
            threads,
            ..CraigOptions::default()
        };
        let reference =
            select_per_class_factored(gathered, &ys, classes, f, &opts(1), &mut Rng64::new(seed))
                .unwrap();
        for threads in [1, 3] {
            let sel = select_per_class_factored(
                per_class, &ys, classes, f, &opts(threads), &mut Rng64::new(seed),
            )
            .unwrap();
            prop_assert_eq!(selection_bits(&sel), selection_bits(&reference));
            let sel = select_per_class_factored(
                gathered, &ys, classes, f, &opts(threads), &mut Rng64::new(seed),
            )
            .unwrap();
            prop_assert_eq!(selection_bits(&sel), selection_bits(&reference));
        }
    }

    #[test]
    fn kcenters_weights_are_unit(n in 2usize..40, k in 1usize..10, seed in any::<u64>()) {
        let feats = features(n, 3, seed);
        let mut rng = Rng64::new(seed ^ 5);
        let sel = kcenters::select(&feats, k, &mut rng);
        prop_assert_eq!(sel.len(), k.min(n));
        prop_assert!(sel.weights.iter().all(|&w| w == 1.0));
    }

    #[test]
    fn random_selection_weights_are_unbiased(n in 1usize..200, k in 1usize..50, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let sel = random::select(n, k, &mut rng);
        let total: f32 = sel.weights.iter().sum();
        prop_assert!((total - n as f32).abs() < 1e-2);
    }
}
