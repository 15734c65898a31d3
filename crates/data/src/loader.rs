//! Shuffled mini-batch iteration.

use nessa_tensor::rng::Rng64;

/// Produces the index batches of one training epoch.
///
/// Indices are permuted with the supplied RNG each time
/// [`BatchPlan::epoch`] is called, so successive epochs see different
/// orders while the whole run stays deterministic under its seed. The last
/// batch holds the remainder when `batch_size` does not divide `n`.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    n: usize,
    batch_size: usize,
}

impl BatchPlan {
    /// Creates a plan over `n` samples.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(n: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { n, batch_size }
    }

    /// Materializes one epoch of shuffled index batches.
    pub fn epoch(&self, rng: &mut Rng64) -> Vec<Vec<usize>> {
        let mut idx: Vec<usize> = (0..self.n).collect();
        rng.shuffle(&mut idx);
        idx.chunks(self.batch_size).map(<[usize]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn covers_every_index_once() {
        let plan = BatchPlan::new(103, 16);
        let mut rng = Rng64::new(0);
        let batches = plan.epoch(&mut rng);
        assert_eq!(batches.len(), 7);
        let all: HashSet<usize> = batches.iter().flatten().copied().collect();
        assert_eq!(all.len(), 103);
    }

    #[test]
    fn shuffle_differs_between_epochs() {
        let plan = BatchPlan::new(64, 8);
        let mut rng = Rng64::new(1);
        let a = plan.epoch(&mut rng);
        let b = plan.epoch(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_under_seed() {
        let plan = BatchPlan::new(64, 8);
        let a = plan.epoch(&mut Rng64::new(9));
        let b = plan.epoch(&mut Rng64::new(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn rejects_zero_batch() {
        let _ = BatchPlan::new(10, 0);
    }
}
