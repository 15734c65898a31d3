//! Tensor shapes and shape errors.

use std::fmt;

/// The dimensions of a [`Tensor`](crate::Tensor), outermost first.
///
/// A `Shape` is a thin wrapper over a `Vec<usize>` that carries the row-major
/// interpretation used everywhere in this workspace and pre-computes the
/// element count.
///
/// ```
/// use nessa_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.ndim(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: &[usize]) -> Self {
        Self {
            dims: dims.to_vec(),
        }
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dimensions; `1` for rank 0).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.ndim()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Row-major strides for this shape, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// One Horner pass over the dimensions (`off = off · dim + i`), so the
    /// hot `Tensor::at`/`set` path allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::IndexOutOfBounds`] when `index` has the wrong
    /// rank or any coordinate exceeds its dimension.
    pub fn offset(&self, index: &[usize]) -> Result<usize, ShapeError> {
        let out_of_bounds = || ShapeError::IndexOutOfBounds {
            index: index.to_vec(),
            shape: self.dims.clone(),
        };
        if index.len() != self.dims.len() {
            return Err(out_of_bounds());
        }
        let mut off = 0;
        for (&i, &dim) in index.iter().zip(&self.dims) {
            if i >= dim {
                return Err(out_of_bounds());
            }
            off = off * dim + i;
        }
        Ok(off)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

/// Errors produced by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// Two operands had incompatible shapes for the attempted operation.
    Mismatch {
        /// Operation name, e.g. `"matmul"`.
        op: &'static str,
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::Mismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            ShapeError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_ndim() {
        let s = Shape::new(&[3, 4, 5]);
        assert_eq!(s.numel(), 60);
        assert_eq!(s.ndim(), 3);
        assert_eq!(s.dim(1), 4);
    }

    #[test]
    fn rank_zero_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.ndim(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_computes_flat_index() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
    }

    #[test]
    fn offset_agrees_with_strides() {
        let s = Shape::new(&[2, 3, 4]);
        let strides = s.strides();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let expect = i * strides[0] + j * strides[1] + k * strides[2];
                    assert_eq!(s.offset(&[i, j, k]).unwrap(), expect);
                }
            }
        }
        assert_eq!(Shape::new(&[]).offset(&[]).unwrap(), 0);
    }

    #[test]
    fn offset_rejects_bad_rank_and_oob() {
        let s = Shape::new(&[2, 3]);
        assert!(s.offset(&[1]).is_err());
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0, 3]).is_err());
    }

    #[test]
    fn display_is_nonempty() {
        let s = Shape::new(&[1]);
        assert!(!format!("{s}").is_empty());
        assert!(!format!("{s:?}").is_empty());
    }
}
