//! The K-Centers baseline (Sener & Savarese '17).
//!
//! Farthest-first traversal: repeatedly add the candidate farthest from the
//! current centre set. This greedily 2-approximates the k-center objective
//! (minimize the maximum candidate-to-centre distance). The paper compares
//! NeSSA against this CPU baseline in Table 3 and Figure 4; its weakness at
//! small subset sizes — it chases outliers instead of covering mass — is
//! exactly what those comparisons show.

use crate::{fraction_count, group_by_class, SelectError, Selection};
use nessa_tensor::linalg::sq_dist;
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;

/// Selects `k` centres by farthest-first traversal, seeding from a random
/// candidate. Every weight is 1.0: Sener & Savarese train the subset
/// unweighted.
///
/// `k ≥ n` returns all candidates.
pub fn select(features: &Tensor, k: usize, rng: &mut Rng64) -> Selection {
    let n = features.dim(0);
    if n == 0 || k == 0 {
        return Selection::default();
    }
    let k = k.min(n);
    let mut centres = Vec::with_capacity(k);
    let mut in_set = vec![false; n];
    let first = rng.index(n);
    centres.push(first);
    in_set[first] = true;
    // min_d[i] = distance² from i to its nearest centre.
    let mut min_d: Vec<f32> = (0..n)
        .map(|i| sq_dist(features.row(i), features.row(first)))
        .collect();
    while centres.len() < k {
        // Farthest not-yet-selected candidate (duplicates make min_d zero
        // everywhere; still never re-pick a centre).
        let far = min_d
            .iter()
            .enumerate()
            .filter(|&(i, _)| !in_set[i])
            .fold((usize::MAX, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            })
            .0;
        centres.push(far);
        in_set[far] = true;
        for (i, slot) in min_d.iter_mut().enumerate() {
            let d = sq_dist(features.row(i), features.row(far));
            if d < *slot {
                *slot = d;
            }
        }
    }
    Selection::new(centres, vec![1.0; k])
}

/// Selects `⌈fraction · |class|⌉` centres within each class, mirroring the
/// per-class protocol used for CRAIG so the baselines are comparable.
///
/// # Errors
///
/// Returns [`SelectError::LengthMismatch`] when the label count differs
/// from the rows, [`SelectError::BadFraction`] when `fraction` is outside
/// `(0, 1]` and [`SelectError::LabelOutOfRange`] when any label is
/// `≥ classes`.
pub fn select_per_class(
    features: &Tensor,
    labels: &[usize],
    classes: usize,
    fraction: f32,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    if features.dim(0) != labels.len() {
        return Err(SelectError::LengthMismatch {
            what: "labels",
            expected: features.dim(0),
            actual: labels.len(),
        });
    }
    let mut merged = Selection::default();
    for members in &group_by_class(labels, classes, fraction)? {
        let k = fraction_count(members.len(), fraction);
        let sub = features.gather_rows(members);
        merged.extend(select(&sub, k, rng).into_global(members));
    }
    Ok(merged)
}

/// The k-center objective: maximum distance² from any candidate to its
/// nearest centre (`+inf` for an empty centre set over a non-empty pool).
pub fn max_min_dist(features: &Tensor, centres: &[usize]) -> f32 {
    let n = features.dim(0);
    if n == 0 {
        return 0.0;
    }
    if centres.is_empty() {
        return f32::INFINITY;
    }
    (0..n)
        .map(|i| {
            centres
                .iter()
                .map(|&c| sq_dist(features.row(i), features.row(c)))
                .fold(f32::INFINITY, f32::min)
        })
        .fold(f32::NEG_INFINITY, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> Tensor {
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)] {
            for d in 0..5 {
                rows.push(cx + 0.1 * d as f32);
                rows.push(cy);
            }
        }
        Tensor::from_vec(rows, &[20, 2])
    }

    #[test]
    fn covers_all_clusters() {
        let x = clusters();
        let mut rng = Rng64::new(0);
        let sel = select(&x, 4, &mut rng);
        let mut covered: Vec<usize> = sel.indices.iter().map(|&i| i / 5).collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), 4);
    }

    #[test]
    fn objective_decreases_with_k() {
        let x = clusters();
        let mut rng = Rng64::new(1);
        let mut prev = f32::INFINITY;
        for k in 1..6 {
            let sel = select(&x, k, &mut rng);
            let obj = max_min_dist(&x, &sel.indices);
            assert!(obj <= prev + 1e-4, "k={k}: {obj} > {prev}");
            prev = obj;
        }
    }

    #[test]
    fn two_approximation_on_small_instance() {
        // Brute-force the optimal 2-centre objective and check the greedy
        // result is within the squared-distance analogue of 2-approx (4×).
        let mut rng = Rng64::new(2);
        let x = Tensor::rand_uniform(&[12, 2], -1.0, 1.0, &mut rng);
        let mut opt = f32::INFINITY;
        for a in 0..12 {
            for b in (a + 1)..12 {
                opt = opt.min(max_min_dist(&x, &[a, b]));
            }
        }
        for seed in 0..5 {
            let sel = select(&x, 2, &mut Rng64::new(seed));
            let got = max_min_dist(&x, &sel.indices);
            assert!(got <= 4.0 * opt + 1e-4, "seed {seed}: {got} vs opt {opt}");
        }
    }

    #[test]
    fn chases_outliers() {
        // One extreme outlier: k-centers must pick it early — the failure
        // mode that hurts its training accuracy at small subsets.
        let mut rows = vec![0.0f32; 2 * 10];
        for (i, r) in rows.chunks_mut(2).enumerate() {
            r[0] = i as f32 * 0.01;
        }
        rows.extend_from_slice(&[1000.0, 1000.0]);
        let x = Tensor::from_vec(rows, &[11, 2]);
        let sel = select(&x, 2, &mut Rng64::new(3));
        assert!(
            sel.indices.contains(&10),
            "outlier not selected: {:?}",
            sel.indices
        );
    }

    #[test]
    fn per_class_respects_fraction() {
        let x = clusters();
        let labels: Vec<usize> = (0..20).map(|i| i / 10).collect();
        let sel = select_per_class(&x, &labels, 2, 0.2, &mut Rng64::new(4)).unwrap();
        assert_eq!(sel.len(), 4);
        assert_eq!(sel.weights, [1.0; 4]);
    }

    #[test]
    fn per_class_rejects_a_label_count_mismatch() {
        let labels = vec![0usize; 19];
        assert_eq!(
            select_per_class(&clusters(), &labels, 1, 0.5, &mut Rng64::new(7)),
            Err(SelectError::LengthMismatch {
                what: "labels",
                expected: 20,
                actual: 19
            })
        );
    }

    #[test]
    fn per_class_rejects_a_bad_fraction() {
        let labels = vec![0usize; 20];
        for fraction in [0.0, -0.5, 1.5, f32::NAN] {
            assert!(matches!(
                select_per_class(&clusters(), &labels, 1, fraction, &mut Rng64::new(8)),
                Err(SelectError::BadFraction(_))
            ));
        }
    }

    #[test]
    fn per_class_rejects_an_out_of_range_label() {
        let labels: Vec<usize> = (0..20).map(|i| i / 5).collect();
        assert_eq!(
            select_per_class(&clusters(), &labels, 3, 0.5, &mut Rng64::new(9)),
            Err(SelectError::LabelOutOfRange {
                label: 3,
                classes: 3
            })
        );
    }

    #[test]
    fn k_zero_and_empty() {
        let x = clusters();
        assert!(select(&x, 0, &mut Rng64::new(5)).is_empty());
        let empty = Tensor::zeros(&[0, 2]);
        assert!(select(&empty, 3, &mut Rng64::new(6)).is_empty());
        assert_eq!(max_min_dist(&empty, &[]), 0.0);
    }
}
