//! Uniform random selection baseline.
//!
//! Also the last rung of the pipeline's degradation ladder: the host
//! falls back to [`select_per_class`] when both the device kernel and the
//! host-side facility-location path are out.

use crate::{fraction_count, group_by_class, SelectError, Selection};
use nessa_tensor::rng::Rng64;

/// Selects `k` candidates uniformly at random from a pool of `n`, with all
/// weights equal to `n / k` so the weighted gradient remains an unbiased
/// estimate of the full-pool gradient.
///
/// `k ≥ n` returns all candidates with unit weights.
pub fn select(n: usize, k: usize, rng: &mut Rng64) -> Selection {
    if n == 0 || k == 0 {
        return Selection::default();
    }
    let k = k.min(n);
    let indices = rng.sample_indices(n, k);
    let w = n as f32 / k as f32;
    let weights = vec![w; k];
    Selection::new(indices, weights)
}

/// Selects `⌈fraction · |class|⌉` candidates uniformly within each class.
///
/// # Errors
///
/// Returns [`SelectError::BadFraction`] when `fraction` is outside
/// `(0, 1]` and [`SelectError::LabelOutOfRange`] when any label is
/// `≥ classes`.
pub fn select_per_class(
    labels: &[usize],
    classes: usize,
    fraction: f32,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    let mut merged = Selection::default();
    for members in &group_by_class(labels, classes, fraction)? {
        let k = fraction_count(members.len(), fraction);
        merged.extend(select(members.len(), k, rng).into_global(members));
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn selects_distinct_indices() {
        let mut rng = Rng64::new(0);
        let sel = select(50, 10, &mut rng);
        assert_eq!(sel.len(), 10);
        let set: HashSet<_> = sel.indices.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(sel.weights.iter().all(|&w| w == 5.0));
    }

    #[test]
    fn weights_preserve_total_mass() {
        let mut rng = Rng64::new(1);
        let sel = select(100, 25, &mut rng);
        let total: f32 = sel.weights.iter().sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn k_ge_n_selects_all() {
        let mut rng = Rng64::new(2);
        let sel = select(5, 10, &mut rng);
        assert_eq!(sel.len(), 5);
        assert!(sel.weights.iter().all(|&w| w == 1.0));
    }

    #[test]
    fn per_class_is_stratified() {
        let labels: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let mut rng = Rng64::new(3);
        let sel = select_per_class(&labels, 4, 0.3, &mut rng).unwrap();
        for c in 0..4 {
            let picks = sel.indices.iter().filter(|&&i| labels[i] == c).count();
            assert_eq!(picks, 3, "class {c}");
        }
    }

    #[test]
    fn rejects_bad_inputs_without_panicking() {
        let mut rng = Rng64::new(5);
        let labels = vec![0usize, 1, 2];
        assert!(matches!(
            select_per_class(&labels, 3, 0.0, &mut rng),
            Err(SelectError::BadFraction(_))
        ));
        assert!(matches!(
            select_per_class(&labels, 2, 0.5, &mut rng),
            Err(SelectError::LabelOutOfRange {
                label: 2,
                classes: 2
            })
        ));
        let sel = select_per_class(&labels, 3, 1.0, &mut rng).unwrap();
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn empty_pool() {
        let mut rng = Rng64::new(4);
        assert!(select(0, 3, &mut rng).is_empty());
        assert!(select(3, 0, &mut rng).is_empty());
    }
}
