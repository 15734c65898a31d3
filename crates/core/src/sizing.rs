//! Dynamic subset sizing (paper contribution 4).
//!
//! "Dynamically reduce the subset size based on loss reduction rate during
//! the training process to ensure that we train on the least required data
//! samples." The controller watches the epoch-mean training loss; when the
//! relative reduction falls below a threshold — the model is coasting —
//! the subset fraction shrinks multiplicatively, never below a floor, and
//! never shrinks twice in a row without an intervening observation.

/// Subset-fraction controller driven by the loss-reduction rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetSizer {
    fraction: f32,
    threshold: f32,
    factor: f32,
    min_fraction: f32,
    last_loss: Option<f32>,
    shrink_count: usize,
}

impl SubsetSizer {
    /// Creates a controller.
    ///
    /// * `initial` — starting subset fraction,
    /// * `threshold` — relative loss reduction below which to shrink,
    /// * `factor` — multiplicative shrink in `(0, 1)`,
    /// * `min_fraction` — floor for the fraction, in `(0, initial]`.
    pub(crate) fn new(initial: f32, threshold: f32, factor: f32, min_fraction: f32) -> Self {
        Self {
            fraction: initial,
            threshold,
            factor,
            min_fraction,
            last_loss: None,
            shrink_count: 0,
        }
    }

    /// The current subset fraction.
    pub fn fraction(&self) -> f32 {
        self.fraction
    }

    /// How many times the subset has shrunk.
    pub fn shrink_count(&self) -> usize {
        self.shrink_count
    }

    /// Feeds this epoch's mean training loss; returns the (possibly
    /// reduced) fraction to use next epoch.
    ///
    /// A shrink happens when the loss is still improving slowly — i.e. the
    /// relative reduction is non-negative but below the threshold. A loss
    /// *increase* (e.g. right after an LR change or a pool pruning) resets
    /// the reference without shrinking.
    pub fn observe(&mut self, mean_loss: f32) -> f32 {
        const CONVERGED: f32 = 1e-6;
        if let Some(prev) = self.last_loss {
            let plateau = if prev <= CONVERGED {
                // Loss already ~zero: the definitive plateau.
                mean_loss <= CONVERGED
            } else {
                let reduction = (prev - mean_loss) / prev;
                (0.0..self.threshold).contains(&reduction)
            };
            if plateau && self.fraction > self.min_fraction {
                self.fraction = (self.fraction * self.factor).max(self.min_fraction);
                self.shrink_count += 1;
            }
        }
        self.last_loss = Some(mean_loss);
        self.fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_progress_keeps_fraction() {
        let mut s = SubsetSizer::new(0.3, 0.01, 0.9, 0.05);
        // Loss halves every epoch: no shrink.
        for loss in [2.0, 1.0, 0.5, 0.25] {
            s.observe(loss);
        }
        assert_eq!(s.fraction(), 0.3);
        assert_eq!(s.shrink_count(), 0);
    }

    #[test]
    fn plateau_shrinks_fraction() {
        let mut s = SubsetSizer::new(0.3, 0.01, 0.9, 0.05);
        s.observe(1.0);
        s.observe(0.999); // 0.1 % reduction < 1 % threshold
        assert!((s.fraction() - 0.27).abs() < 1e-6);
        assert_eq!(s.shrink_count(), 1);
    }

    #[test]
    fn loss_increase_does_not_shrink() {
        let mut s = SubsetSizer::new(0.3, 0.01, 0.9, 0.05);
        s.observe(1.0);
        s.observe(1.5);
        assert_eq!(s.fraction(), 0.3);
    }

    #[test]
    fn respects_floor() {
        let mut s = SubsetSizer::new(0.1, 0.5, 0.5, 0.08);
        s.observe(1.0);
        for _ in 0..10 {
            s.observe(1.0); // permanent plateau
        }
        assert!((s.fraction() - 0.08).abs() < 1e-6);
    }

    #[test]
    fn converged_loss_counts_as_plateau() {
        let mut s = SubsetSizer::new(0.4, 0.01, 0.5, 0.05);
        s.observe(0.0);
        s.observe(0.0);
        assert_eq!(s.shrink_count(), 1);
        assert!((s.fraction() - 0.2).abs() < 1e-6);
    }
}
