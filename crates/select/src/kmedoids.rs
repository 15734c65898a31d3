//! The k-medoid cost of a selection.
//!
//! The set minimizing the RHS of paper Eq. 3 is a k-medoid set (Kaufman &
//! Rousseeuw '87). Facility-location greedy approximates it with a
//! guarantee; [`cost`] measures how close a selection comes, which is the
//! "k-medoid cost" column of the ablation study.

use nessa_tensor::linalg::cross_sq_dists;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_the_sum_of_nearest_medoid_distances() {
        let x = Tensor::from_vec(
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 10.0, 10.0, 11.0, 10.0],
            &[5, 2],
        );
        let medoids = [0, 3];
        let brute: f32 = (0..5)
            .map(|i| {
                medoids
                    .iter()
                    .map(|&m| {
                        let (a, b) = (x.row(i), x.row(m));
                        (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)
                    })
                    .fold(f32::INFINITY, f32::min)
            })
            .sum();
        assert_eq!(brute, 6.0);
        assert!((cost(&x, &medoids) - brute).abs() < 1e-5);
        assert_eq!(cost(&x, &[]), f32::INFINITY);
        assert_eq!(cost(&Tensor::zeros(&[0, 2]), &[]), 0.0);
    }
}
