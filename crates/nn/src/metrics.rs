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
}
