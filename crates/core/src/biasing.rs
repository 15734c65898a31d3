//! Subset biasing (paper §3.2.2).
//!
//! "We record losses of the current training examples from the most recent
//! five epochs, mark the samples with small values, and drop the marked
//! samples from the training set every twenty epochs." The tracker keeps a
//! bounded per-sample loss history and maintains the **active pool** —
//! the candidate indices future subsets are selected from.

use std::collections::VecDeque;

/// Per-sample loss history and the active candidate pool.
#[derive(Debug, Clone)]
pub struct LossTracker {
    window: usize,
    drop_every: usize,
    drop_fraction: f32,
    min_pool: usize,
    histories: Vec<VecDeque<f32>>,
    active: Vec<usize>,
    epochs_seen: usize,
    total_dropped: usize,
}

impl LossTracker {
    /// Creates a tracker over `n` samples.
    ///
    /// * `window` — epochs of loss history per sample (paper: 5; ≥ 1),
    /// * `drop_every` — epochs between pool prunings (paper: 20; ≥ 1),
    /// * `drop_fraction` — fraction of the pool marked per pruning, in `[0, 1)`,
    /// * `min_pool` — the pool never shrinks below this many samples.
    pub(crate) fn new(
        n: usize,
        window: usize,
        drop_every: usize,
        drop_fraction: f32,
        min_pool: usize,
    ) -> Self {
        Self {
            window,
            drop_every,
            drop_fraction,
            min_pool,
            histories: vec![VecDeque::with_capacity(window); n],
            active: (0..n).collect(),
            epochs_seen: 0,
            total_dropped: 0,
        }
    }

    /// The current active pool (sorted ascending).
    pub fn active_pool(&self) -> &[usize] {
        &self.active
    }

    /// Samples dropped so far.
    pub fn dropped(&self) -> usize {
        self.total_dropped
    }

    /// Records the losses observed for some samples this epoch (typically
    /// the trained subset), then — every `drop_every` epochs — prunes the
    /// lowest-loss samples from the active pool.
    ///
    /// Returns the number of samples dropped at this step (0 on most
    /// epochs).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or any index is out of
    /// bounds.
    pub fn record_epoch(&mut self, indices: &[usize], losses: &[f32]) -> usize {
        assert_eq!(indices.len(), losses.len(), "index/loss length mismatch");
        for (&i, &l) in indices.iter().zip(losses.iter()) {
            let h = &mut self.histories[i];
            if h.len() == self.window {
                h.pop_front();
            }
            h.push_back(l);
        }
        self.epochs_seen += 1;
        if self.epochs_seen.is_multiple_of(self.drop_every) {
            self.prune()
        } else {
            0
        }
    }

    /// Mean recent loss of a sample (`None` when it has no history yet).
    pub fn recent_loss(&self, i: usize) -> Option<f32> {
        let h = &self.histories[i];
        if h.is_empty() {
            None
        } else {
            Some(h.iter().sum::<f32>() / h.len() as f32)
        }
    }

    fn prune(&mut self) -> usize {
        let budget = self.active.len().saturating_sub(self.min_pool);
        let want = (self.active.len() as f32 * self.drop_fraction).floor() as usize;
        let to_drop = want.min(budget);
        if to_drop == 0 {
            return 0;
        }
        // Rank active samples with history by mean recent loss; samples
        // without history are never dropped (they have not been trained
        // on recently, so nothing says they are learned).
        let mut scored: Vec<(usize, f32)> = self
            .active
            .iter()
            .filter_map(|&i| self.recent_loss(i).map(|l| (i, l)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        // Sorted membership vector instead of a HashSet: deterministic
        // and hash-free (nessa-lint rule D3).
        let mut victims: Vec<usize> = scored.iter().take(to_drop).map(|&(i, _)| i).collect();
        victims.sort_unstable();
        victims.dedup();
        let dropped = victims.len();
        self.active.retain(|i| victims.binary_search(i).is_err());
        self.total_dropped += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_starts_full() {
        let t = LossTracker::new(10, 5, 20, 0.1, 2);
        assert_eq!(t.active_pool(), (0..10).collect::<Vec<_>>().as_slice());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn window_bounds_history() {
        let mut t = LossTracker::new(3, 2, 100, 0.5, 0);
        for e in 0..5 {
            t.record_epoch(&[0], &[e as f32]);
        }
        // Window of 2 keeps the last two losses: 3, 4.
        assert!((t.recent_loss(0).unwrap() - 3.5).abs() < 1e-6);
        assert_eq!(t.recent_loss(1), None);
    }

    #[test]
    fn drops_low_loss_samples_on_schedule() {
        let mut t = LossTracker::new(10, 5, 4, 0.2, 0);
        let idx: Vec<usize> = (0..10).collect();
        // Sample i has loss i: samples 0 and 1 are "learned".
        let losses: Vec<f32> = (0..10).map(|i| i as f32).collect();
        for epoch in 0..4 {
            let dropped = t.record_epoch(&idx, &losses);
            if epoch < 3 {
                assert_eq!(dropped, 0);
            } else {
                assert_eq!(dropped, 2);
            }
        }
        assert!(!t.active_pool().contains(&0));
        assert!(!t.active_pool().contains(&1));
        assert!(t.active_pool().contains(&9));
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn min_pool_is_respected() {
        let mut t = LossTracker::new(10, 5, 1, 0.9, 8);
        let idx: Vec<usize> = (0..10).collect();
        let losses = vec![0.1f32; 10];
        for _ in 0..5 {
            t.record_epoch(&idx, &losses);
        }
        assert_eq!(t.active_pool().len(), 8);
    }

    #[test]
    fn unseen_samples_are_never_dropped() {
        let mut t = LossTracker::new(6, 5, 1, 0.5, 0);
        // Only samples 0..3 are ever trained on; 3..6 have no history.
        let idx = [0usize, 1, 2];
        let losses = [0.0f32, 0.0, 0.0];
        t.record_epoch(&idx, &losses);
        for i in 3..6 {
            assert!(t.active_pool().contains(&i));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_inputs() {
        let mut t = LossTracker::new(3, 5, 20, 0.1, 0);
        t.record_epoch(&[0, 1], &[0.5]);
    }
}
