//! Alternating k-medoids refinement.
//!
//! The set minimizing the RHS of paper Eq. 3 is a k-medoid set (Kaufman &
//! Rousseeuw '87). Facility-location greedy gives an approximation with a
//! guarantee; this module provides a Lloyd-style alternating refiner that
//! can only improve a starting solution, used to cross-check (and in the
//! ablation benches, to quantify) how close the greedy solutions are.

use crate::Selection;
use nessa_tensor::linalg::{cross_sq_dists, pairwise_sq_dists};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;

/// The k-medoid cost: sum over candidates of the distance² to the nearest
/// medoid (`0.0` for an empty pool, `+inf` for an empty medoid set).
pub fn cost(features: &Tensor, medoids: &[usize]) -> f32 {
    let n = features.dim(0);
    if n == 0 {
        return 0.0;
    }
    if medoids.is_empty() {
        return f32::INFINITY;
    }
    let centres = features.gather_rows(medoids);
    let d = cross_sq_dists(features, &centres);
    (0..n)
        .map(|i| d.row(i).iter().copied().fold(f32::INFINITY, f32::min))
        .sum()
}

/// Refines `start` by alternating assignment and medoid-update steps for at
/// most `max_iters` rounds, returning the refined selection (weights are
/// cluster sizes). The cost never increases.
///
/// # Panics
///
/// Panics if `start` contains an out-of-range index.
pub fn refine(features: &Tensor, start: &[usize], max_iters: usize) -> Selection {
    let n = features.dim(0);
    if n == 0 || start.is_empty() {
        return Selection::default();
    }
    assert!(start.iter().all(|&i| i < n), "medoid index out of range");
    let dists = pairwise_sq_dists(features);
    let mut medoids = start.to_vec();
    for _ in 0..max_iters {
        // Assignment step.
        let assign = assignments(&dists, &medoids, n);
        // Update step: within each cluster, pick the member minimizing the
        // total intra-cluster distance.
        let mut changed = false;
        for (ci, medoid) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assign[i] == ci).collect();
            if members.is_empty() {
                continue;
            }
            let mut best = *medoid;
            let mut best_cost = f32::INFINITY;
            for &cand in &members {
                let row = dists.row(cand);
                let c: f32 = members.iter().map(|&m| row[m]).sum();
                if c < best_cost {
                    best_cost = c;
                    best = cand;
                }
            }
            if best != *medoid {
                *medoid = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let assign = assignments(&dists, &medoids, n);
    let mut weights = vec![0.0f32; medoids.len()];
    for &a in &assign {
        weights[a] += 1.0;
    }
    Selection::new(medoids, weights)
}

/// Random-init k-medoids: sample `k` distinct starts and refine.
pub fn kmedoids(features: &Tensor, k: usize, max_iters: usize, rng: &mut Rng64) -> Selection {
    let n = features.dim(0);
    if n == 0 || k == 0 {
        return Selection::default();
    }
    let start = rng.sample_indices(n, k.min(n));
    refine(features, &start, max_iters)
}

fn assignments(dists: &Tensor, medoids: &[usize], n: usize) -> Vec<usize> {
    (0..n)
        .map(|i| {
            let row = dists.row(i);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (ci, &m) in medoids.iter().enumerate() {
                let d = row[m];
                if d < best_d {
                    best_d = d;
                    best = ci;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Tensor {
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (10.0, 10.0)] {
            for d in 0..6 {
                rows.push(cx + 0.2 * (d % 3) as f32);
                rows.push(cy + 0.2 * (d / 3) as f32);
            }
        }
        Tensor::from_vec(rows, &[12, 2])
    }

    #[test]
    fn refine_never_increases_cost() {
        let x = blobs();
        // Deliberately bad start: both medoids in the same blob.
        let start = vec![0, 1];
        let before = cost(&x, &start);
        let refined = refine(&x, &start, 20);
        let after = cost(&x, &refined.indices);
        assert!(after <= before + 1e-4, "{after} > {before}");
    }

    #[test]
    fn finds_one_medoid_per_blob() {
        let x = blobs();
        let refined = refine(&x, &[0, 1], 20);
        let blobs_hit: Vec<usize> = refined.indices.iter().map(|&i| i / 6).collect();
        assert_ne!(blobs_hit[0], blobs_hit[1], "{:?}", refined.indices);
    }

    #[test]
    fn weights_sum_to_n() {
        let x = blobs();
        let mut rng = Rng64::new(0);
        let sel = kmedoids(&x, 2, 10, &mut rng);
        let total: f32 = sel.weights.iter().sum();
        assert_eq!(total, 12.0);
    }

    #[test]
    fn greedy_facility_location_is_near_kmedoid_optimal() {
        // Selecting by facility-location greedy then refining with
        // k-medoids should barely improve the cost on clustered data.
        use crate::facility::{maximize, GreedyVariant, SimilarityMatrix};
        let x = blobs();
        let sim = SimilarityMatrix::from_features(&x);
        let mut rng = Rng64::new(1);
        let greedy = maximize(&sim, 2, GreedyVariant::Lazy, &mut rng).unwrap();
        let c_greedy = cost(&x, &greedy.indices);
        let refined = refine(&x, &greedy.indices, 20);
        let c_refined = cost(&x, &refined.indices);
        assert!(c_refined <= c_greedy + 1e-4);
        // Facility-location greedy maximizes coverage, not the k-medoid
        // cost itself, so allow a modest slack factor.
        assert!(
            c_greedy <= 1.6 * c_refined + 1e-3,
            "{c_greedy} vs {c_refined}"
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = Tensor::zeros(&[0, 2]);
        assert!(refine(&empty, &[], 5).is_empty());
        let mut rng = Rng64::new(2);
        assert!(kmedoids(&empty, 3, 5, &mut rng).is_empty());
        let x = blobs();
        assert_eq!(cost(&x, &[]), f32::INFINITY);
        assert_eq!(cost(&empty, &[]), 0.0);
    }
}
