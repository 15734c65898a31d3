//! The in-memory dataset container.

use nessa_tensor::Tensor;

/// A labelled dataset held in memory as a `n × d` feature matrix.
///
/// Models consume the rows directly (a CNN reshapes each row into its
/// image itself). `bytes_per_sample` records the *storage* footprint each
/// example has on the simulated SSD (the paper's 0.5 KB–130 KB per image),
/// which can be much larger than the in-memory feature vector — raw pixels
/// versus the features the models train on.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    features: Tensor,
    labels: Vec<usize>,
    classes: usize,
    bytes_per_sample: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `features` is not 2-D, the label count differs from the
    /// row count, any label is out of range, or `classes == 0`.
    pub fn new(
        name: impl Into<String>,
        features: Tensor,
        labels: Vec<usize>,
        classes: usize,
        bytes_per_sample: usize,
    ) -> Self {
        assert_eq!(features.ndim(), 2, "features must be [n, d]");
        assert_eq!(features.dim(0), labels.len(), "label count must match rows");
        assert!(classes > 0, "need at least one class");
        assert!(
            labels.iter().all(|&y| y < classes),
            "labels must be < classes"
        );
        Self {
            name: name.into(),
            features,
            labels,
            classes,
            bytes_per_sample,
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.dim(1)
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Storage bytes per sample on the simulated SSD.
    pub fn bytes_per_sample(&self) -> usize {
        self.bytes_per_sample
    }

    /// The full feature matrix.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Feature row of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> &[f32] {
        self.features.row(i)
    }

    /// Gathers a batch `(features, labels)` for the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let x = self.features.gather_rows(indices);
        let y = indices.iter().map(|&i| self.labels[i]).collect();
        (x, y)
    }

    /// Indices of every sample of each class: `result[c]` lists the samples
    /// with label `c`.
    pub fn indices_by_class(&self) -> Vec<Vec<usize>> {
        let mut by_class = vec![Vec::new(); self.classes];
        for (i, &y) in self.labels.iter().enumerate() {
            by_class[y].push(i);
        }
        by_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]);
        Dataset::new("toy", x, vec![0, 1, 0, 1], 2, 100)
    }

    #[test]
    fn basics() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.classes(), 2);
        assert_eq!(d.bytes_per_sample(), 100);
        assert_eq!(d.sample(1), &[3.0, 4.0, 5.0]);
        assert_eq!(d.label(2), 0);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "labels must be < classes")]
    fn rejects_out_of_range_labels() {
        let x = Tensor::zeros(&[1, 2]);
        let _ = Dataset::new("bad", x, vec![5], 2, 10);
    }

    #[test]
    fn batch_gathers() {
        let d = toy();
        let (x, y) = d.batch(&[3, 0]);
        assert_eq!(x.shape().dims(), &[2, 3]);
        assert_eq!(x.row(0), &[9.0, 10.0, 11.0]);
        assert_eq!(y, vec![1, 0]);
    }

    #[test]
    fn indices_by_class_partitions() {
        let d = toy();
        let by = d.indices_by_class();
        assert_eq!(by[0], vec![0, 2]);
        assert_eq!(by[1], vec![1, 3]);
    }
}
