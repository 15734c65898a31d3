//! Coreset selection algorithms for the NeSSA reproduction.
//!
//! NeSSA's selection model (paper §3.1) minimizes the gradient-estimation
//! error bound of Eq. 3 by maximizing a submodular facility-location
//! objective (Eq. 5) over pairwise similarities of per-sample gradient
//! proxies — the CRAIG formulation of Mirzasoleiman et al. This crate
//! implements:
//!
//! * [`facility`] — the facility-location objective with naive, lazy
//!   (Minoux) and stochastic ("lazier than lazy") greedy maximizers,
//! * [`craig`] — per-class CRAIG selection with medoid weights and NeSSA's
//!   dataset-partitioning option (§3.2.3),
//! * [`kcenters`] — the K-Centers baseline of Sener & Savarese
//!   (farthest-first traversal, a 2-approximation),
//! * [`kmedoids`] — the k-medoid cost that measures how well a selection
//!   represents the pool,
//! * [`random`] — the uniform random baseline.
//!
//! All algorithms consume a row-per-sample feature matrix (in NeSSA those
//! rows are last-layer gradient proxies) and return a [`Selection`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod craig;
pub mod facility;
pub mod kcenters;
pub mod kmedoids;
pub mod metrics;
pub mod random;

pub use metrics::SelectMetrics;

/// Why a selection request could not be satisfied.
///
/// The selection kernel runs on the hot path of every epoch, so it never
/// panics: invalid inputs and broken invariants surface as typed errors
/// the pipeline can attribute and report (`nessa-lint` rule **P1**
/// enforces the no-panic discipline mechanically).
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// Two parallel per-candidate arrays disagree on length.
    LengthMismatch {
        /// What disagreed (e.g. `"labels"`, `"factor rows"`).
        what: &'static str,
        /// Length implied by the feature matrix.
        expected: usize,
        /// Length actually provided.
        actual: usize,
    },
    /// Subset fraction outside `(0, 1]`.
    BadFraction(f32),
    /// A label at or above the declared class count.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The declared number of classes.
        classes: usize,
    },
    /// An internal invariant of a greedy maximizer was violated; indicates
    /// a bug in this crate rather than bad input.
    Internal(&'static str),
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "{what} length mismatch: expected {expected}, got {actual}"
            ),
            SelectError::BadFraction(fr) => {
                write!(f, "subset fraction must be in (0, 1], got {fr}")
            }
            SelectError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            SelectError::Internal(msg) => write!(f, "internal selection invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for SelectError {}

/// The number of samples a subset fraction selects from a pool of `n`:
/// `⌈fraction · n⌉` computed in f64 with a tolerance so that exact
/// products (e.g. `0.3 × 100`) do not round up through float error,
/// clamped to `[1, n]` for non-empty pools.
///
/// ```
/// assert_eq!(nessa_select::fraction_count(100, 0.3), 30);
/// assert_eq!(nessa_select::fraction_count(10, 0.25), 3);
/// assert_eq!(nessa_select::fraction_count(5, 1.0), 5);
/// assert_eq!(nessa_select::fraction_count(0, 0.5), 0);
/// ```
pub fn fraction_count(n: usize, fraction: f32) -> usize {
    if n == 0 {
        return 0;
    }
    let exact = n as f64 * fraction as f64;
    // Relative tolerance absorbs the f32→f64 widening error of fractions
    // like 0.3 (whose f32 value is slightly above 0.3) at any pool size.
    ((exact * (1.0 - 1e-6)).ceil() as usize).clamp(1, n)
}

/// Validates the per-class preconditions and groups candidate indices by
/// class.
pub(crate) fn group_by_class(
    labels: &[usize],
    classes: usize,
    fraction: f32,
) -> Result<Vec<Vec<usize>>, SelectError> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(SelectError::BadFraction(fraction));
    }
    if let Some(&label) = labels.iter().find(|&&y| y >= classes) {
        return Err(SelectError::LabelOutOfRange { label, classes });
    }
    let mut by_class = vec![Vec::new(); classes];
    for (i, &y) in labels.iter().enumerate() {
        by_class[y].push(i);
    }
    Ok(by_class)
}

/// A selected subset: sample indices plus per-sample weights.
///
/// Weights follow CRAIG: each selected medoid is weighted by the number of
/// candidates it represents (the size of its similarity cluster), so
/// training on the weighted subset approximates the full-gradient sum.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Selection {
    /// Indices into the candidate set, in selection order.
    pub indices: Vec<usize>,
    /// One weight per selected index (≥ 1 for non-empty candidate sets).
    pub weights: Vec<f32>,
}

impl Selection {
    /// Creates a selection.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn new(indices: Vec<usize>, weights: Vec<f32>) -> Self {
        assert_eq!(indices.len(), weights.len(), "index/weight length mismatch");
        Self { indices, weights }
    }

    /// Number of selected samples.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Merges another selection (indices assumed disjoint, as produced by
    /// per-class or per-chunk selection over disjoint candidate pools).
    pub fn extend(&mut self, other: Selection) {
        self.indices.extend(other.indices);
        self.weights.extend(other.weights);
    }

    /// Re-maps local candidate indices to global dataset indices.
    ///
    /// # Panics
    ///
    /// Panics if any local index is out of bounds for `global`.
    pub fn into_global(self, global: &[usize]) -> Selection {
        let indices = self.indices.iter().map(|&i| global[i]).collect();
        Selection {
            indices,
            weights: self.weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_basics() {
        let s = Selection::new(vec![3, 1], vec![2.0, 5.0]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(Selection::default().is_empty());
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Selection::new(vec![0], vec![1.0]);
        a.extend(Selection::new(vec![5], vec![3.0]));
        assert_eq!(a.indices, vec![0, 5]);
        assert_eq!(a.weights, vec![1.0, 3.0]);
    }

    #[test]
    fn into_global_remaps() {
        let s = Selection::new(vec![0, 2], vec![1.0, 1.0]);
        let g = s.into_global(&[10, 11, 12]);
        assert_eq!(g.indices, vec![10, 12]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let _ = Selection::new(vec![1], vec![]);
    }
}
