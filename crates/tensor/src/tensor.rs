//! The dense row-major `f32` tensor.

use crate::rng::Rng64;
use crate::shape::{Shape, ShapeError};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the single numeric container shared by the training engine,
/// the selection algorithms, and the quantizer. Most methods panic on shape
/// mismatch (training code treats that as a programming error); fallible
/// `try_*` variants exist where callers may want to recover.
///
/// ```
/// use nessa_tensor::Tensor;
///
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.shape().dims(), &[2, 3]);
/// assert_eq!(x.numel(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Self { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Self { shape, data }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            dims
        );
        Self { shape, data }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self::from_vec(data.to_vec(), &[data.len()])
    }

    /// Creates a tensor with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| rng.uniform(lo, hi)).collect();
        Self { shape, data }
    }

    /// Creates a tensor with entries drawn from `N(mean, std^2)`.
    pub fn randn(dims: &[usize], mean: f32, std: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| rng.normal(mean, std)).collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid dimension.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self.shape.offset(index).expect("index out of bounds");
        self.data[off]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index).expect("index out of bounds");
        self.data[off] = value;
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::BadReshape`] if the element counts differ.
    pub fn try_reshape(&self, dims: &[usize]) -> Result<Tensor, ShapeError> {
        let to = Shape::new(dims);
        if to.numel() != self.numel() {
            return Err(ShapeError::BadReshape {
                from: self.shape.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        Ok(Tensor {
            shape: to,
            data: self.data.clone(),
        })
    }

    /// Returns a reshaped copy.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ; see [`Tensor::try_reshape`].
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        self.try_reshape(dims).expect("invalid reshape")
    }

    /// Row `r` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2, "row_mut() requires a 2-D tensor");
        let cols = self.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Gathers the given rows of a 2-D tensor into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or any row index is out of bounds.
    pub fn gather_rows(&self, rows: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows() requires a 2-D tensor");
        let cols = self.dim(1);
        let mut out = Vec::with_capacity(rows.len() * cols);
        for &r in rows {
            out.extend_from_slice(self.row(r));
        }
        Tensor::from_vec(out, &[rows.len(), cols])
    }

    /// Matrix product of two 2-D tensors: `self (m×k) · other (k×n)`.
    ///
    /// Uses an i-k-j loop order: each row of `self` scales rows of `other`
    /// into the output row (an axpy), so the inner loop streams both
    /// operands and vectorizes across outputs. Every output still sums its
    /// `k` products in order from `+0.0`. Skipping `a == 0.0` leaves that
    /// sum bit-identical for finite `other`: the skipped product is `±0.0`,
    /// and an accumulator that starts at `+0.0` never becomes `-0.0`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self (m×k) · otherᵀ` where `other` is `n×k`.
    ///
    /// Transposes `other` and runs [`Tensor::matmul`], so each output is
    /// the in-order dot product of a row of `self` with a row of `other`,
    /// bit for bit, whenever `other` is finite. Callers that multiply by
    /// the same `other` many times (the linear layers) keep the transpose
    /// and call [`Tensor::matmul`] directly.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_transb lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transb rhs must be 2-D");
        let (k, k2) = (self.dim(1), other.dim(1));
        assert_eq!(k, k2, "matmul_transb inner dimensions differ: {k} vs {k2}");
        self.matmul(&other.transpose())
    }

    /// `selfᵀ (k×m) · other (k×n)` producing `m×n`.
    ///
    /// # Panics
    ///
    /// Panics on rank or leading-dimension mismatch.
    pub fn matmul_transa(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_transa lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transa rhs must be 2-D");
        let (k, m) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(
            k, k2,
            "matmul_transa leading dimensions differ: {k} vs {k2}"
        );
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &self.data[p * m..(p + 1) * m];
            let b_row = &other.data[p * n..(p + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary operation with shape checking.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] when the shapes differ.
    pub fn try_zip(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::Mismatch {
                op,
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence; `0` when empty).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.numel(),
            other.numel(),
            "dot requires equal element counts"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// `self += alpha * other`, the in-place AXPY used by the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy requires matching shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// True when every element is finite (no NaN/inf) — used by training
    /// sanity checks and failure-injection tests.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        self.try_zip(rhs, "add", |a, b| a + b)
            .expect("add shape mismatch")
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        self.try_zip(rhs, "sub", |a, b| a - b)
            .expect("sub shape mismatch")
    }
}

impl Mul<&Tensor> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: &Tensor) -> Tensor {
        self.try_zip(rhs, "mul", |a, b| a * b)
            .expect("mul shape mismatch")
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, ... ; n={}])",
                self.data[0],
                self.data[1],
                self.numel()
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn construction_basics() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(&[2, 2], 2.5);
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let mut rng = Rng64::new(7);
        let a = Tensor::rand_uniform(&[3, 3], -1.0, 1.0, &mut rng);
        let i = Tensor::eye(3);
        let prod = a.matmul(&i);
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let mut rng = Rng64::new(3);
        let a = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[6, 5], -1.0, 1.0, &mut rng);
        let fast = a.matmul_transb(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let mut rng = Rng64::new(4);
        let a = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[5, 6], -1.0, 1.0, &mut rng);
        let fast = a.matmul_transa(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(11);
        let a = Tensor::rand_uniform(&[3, 7], -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let b = a.reshape(&[2, 6]);
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.try_reshape(&[5, 5]).is_err());
    }

    #[test]
    fn gather_rows_selects() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.shape().dims(), &[2, 3]);
        assert_eq!(g.row(0), &[6.0, 7.0, 8.0]);
        assert_eq!(g.row(1), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax(), 2);
        assert!((a.norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_operators() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        let c = &a + &b;
        assert_eq!(c.as_slice(), &[16.0, 32.0]);
        let d = &c - &b;
        assert_eq!(d.as_slice(), a.as_slice());
        let e = &a * &b;
        assert_eq!(e.as_slice(), &[60.0, 240.0]);
    }

    #[test]
    fn at_and_set_round_trip() {
        let mut a = Tensor::zeros(&[2, 3, 4]);
        a.set(&[1, 2, 3], 42.0);
        assert_eq!(a.at(&[1, 2, 3]), 42.0);
        assert_eq!(a.at(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn randn_has_plausible_moments() {
        let mut rng = Rng64::new(5);
        let a = Tensor::randn(&[10_000], 1.0, 2.0, &mut rng);
        let m = a.mean();
        let var = a.as_slice().iter().map(|x| (x - m) * (x - m)).sum::<f32>() / 10_000.0;
        assert!((m - 1.0).abs() < 0.1, "mean {m}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Tensor::ones(&[3]);
        assert!(a.is_finite());
        a.as_mut_slice()[1] = f32::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Tensor::zeros(&[2])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(&[100])).is_empty());
    }
}
