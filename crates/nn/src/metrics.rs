//! Classification metrics.

use nessa_tensor::Tensor;

/// Index of each row's largest logit (the first on ties): the predicted
/// class of every sample in a `[n, classes]` batch.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let (n, c) = (logits.dim(0), logits.dim(1));
    (0..n)
        .map(|i| {
            let row = logits.row(i);
            let mut best = 0;
            for j in 1..c {
                if row[j] > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}

/// Fraction of predictions equal to the labels (`0.0` when empty).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "prediction and label counts differ"
    );
    if labels.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, y)| p == y)
        .count();
    correct as f32 / labels.len() as f32
}

/// A `classes × classes` confusion matrix; `rows` are true labels,
/// `columns` predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Records one (true, predicted) pair.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.classes && predicted < self.classes);
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// Records a batch of pairs.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or contain bad indices.
    pub fn record_batch(&mut self, truths: &[usize], predictions: &[usize]) {
        assert_eq!(truths.len(), predictions.len());
        for (&t, &p) in truths.iter().zip(predictions.iter()) {
            self.record(t, p);
        }
    }

    /// Count at (truth, predicted).
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.classes + predicted]
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f32 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.classes).map(|i| self.count(i, i)).sum();
        diag as f32 / total as f32
    }

    /// Per-class recall (`None` when a class has no samples).
    pub fn recall(&self, class: usize) -> Option<f32> {
        let row: u64 = (0..self.classes).map(|j| self.count(class, j)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / row as f32)
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

/// Exponentially-weighted running average, used for smoothing loss curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningAverage {
    alpha: f32,
    value: Option<f32>,
}

impl RunningAverage {
    /// Creates an average with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f32) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Feeds a new observation and returns the smoothed value.
    pub fn update(&mut self, x: f32) -> f32 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// The current smoothed value, if any observation has been fed.
    pub fn value(&self) -> Option<f32> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[0], &[0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "counts differ")]
    fn accuracy_rejects_mismatched_lengths() {
        let _ = accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn confusion_matrix_counts_and_accuracy() {
        let mut m = ConfusionMatrix::new(3);
        m.record_batch(&[0, 0, 1, 2, 2], &[0, 1, 1, 2, 0]);
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.count(2, 0), 1);
        assert!((m.accuracy() - 3.0 / 5.0).abs() < 1e-6);
    }

    #[test]
    fn confusion_matrix_recall() {
        let mut m = ConfusionMatrix::new(2);
        m.record_batch(&[0, 0, 0, 1], &[0, 0, 1, 1]);
        assert!((m.recall(0).unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(m.recall(1), Some(1.0));
        let empty = ConfusionMatrix::new(2);
        assert_eq!(empty.recall(0), None);
    }

    #[test]
    fn running_average_smooths() {
        let mut r = RunningAverage::new(0.5);
        assert_eq!(r.value(), None);
        assert_eq!(r.update(10.0), 10.0);
        assert_eq!(r.update(0.0), 5.0);
        assert_eq!(r.update(5.0), 5.0);
    }

    #[test]
    fn running_average_alpha_one_tracks_input() {
        let mut r = RunningAverage::new(1.0);
        r.update(3.0);
        assert_eq!(r.update(7.0), 7.0);
    }
}
