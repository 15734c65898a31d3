//! The dense row-major `f32` tensor.

use crate::dispatch::{self, Kernel, Level};
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
    /// Runs the backward-product kernel (see [`Tensor::add_matmul_transa`])
    /// with row `i` of `self` as output row `i`'s coefficients: every
    /// output is the in-order sum, from `+0.0`, of the `k` products whose
    /// coefficient is not `0.0`, at any dispatched width (see
    /// [`crate::dispatch`]). Dropping a zero coefficient's product leaves
    /// that sum bit-identical to the full dot product for finite `other`;
    /// with an `inf` or `NaN` there, the dropped `0 · inf` never enters it.
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
        let mut out = Tensor::zeros(&[m, n]);
        dispatch::run(AddProducts {
            out: &mut out.data,
            n,
            a: &self.data,
            row_step: k,
            p_step: 1,
            b: &other.data,
        });
        out
    }

    /// `self (m×k) · otherᵀ` where `other` is `n×k`: the dense-layer
    /// forward `x · Wᵀ`, reading the weight in its stored `out × in`
    /// layout.
    ///
    /// Every output is the in-order dot product of a row of `self` with a
    /// row of `other`, summed from `+0.0`, so it is bit-identical to a
    /// serial `acc += a * b` loop for any input. The rows of `self` are
    /// packed lane-major in blocks of 16 (a small copy of the left
    /// operand, the last block zero-padded), and the kernel holds each
    /// block against 2, 4 or 8 rows of `other` in registers, by dispatched
    /// level (see [`crate::dispatch`]); each lane is its own in-order sum.
    /// Zeros are not skipped, unlike in the backward products of
    /// [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_transb lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transb rhs must be 2-D");
        let mut out = vec![0.0f32; self.dim(0) * other.dim(0)];
        transb_tile(self, other, &mut out, |o, dot| *o = dot);
        Tensor::from_vec(out, &[self.dim(0), other.dim(0)])
    }

    /// `self (m×n) += a (m×k) · bᵀ` for `b` of `n×k`: the convolution's
    /// weight-gradient accumulation `dW += g·colᵀ`, with no temporary.
    /// It runs the register tile of [`Tensor::matmul_transb`] and adds each
    /// in-order dot into its output, so each output becomes exactly
    /// `o + dot`, as adding the product tensor would make it.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch, or when `self` is not
    /// `m×n`.
    pub fn add_matmul_transb(&mut self, a: &Tensor, b: &Tensor) {
        assert_eq!(a.ndim(), 2, "matmul_transb lhs must be 2-D");
        assert_eq!(b.ndim(), 2, "matmul_transb rhs must be 2-D");
        let (m, n) = (a.dim(0), b.dim(0));
        assert_eq!(
            self.shape.dims(),
            [m, n],
            "add_matmul_transb output must be {m}×{n}"
        );
        transb_tile(a, b, &mut self.data, |o, dot| *o += dot);
    }

    /// `selfᵀ (k×m) · other (k×n)` producing `m×n`: zeros plus
    /// [`Tensor::add_matmul_transa`].
    ///
    /// # Panics
    ///
    /// Panics on rank or leading-dimension mismatch.
    pub fn matmul_transa(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_transa lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transa rhs must be 2-D");
        let mut out = Tensor::zeros(&[self.dim(1), other.dim(1)]);
        out.add_matmul_transa(self, other);
        out
    }

    /// `self (m×n) += aᵀ · b` for `a` of `k×m` and `b` of `k×n`: the
    /// weight-gradient accumulation `dW += gᵀ·x`, with no temporary.
    ///
    /// Output row `i` takes column `i` of `a` as its coefficients. The
    /// kernel first compacts the coefficients that are not `0.0` into a
    /// list of `(p, c)` terms, without a branch: it always writes the term
    /// and advances the length by `c != 0.0`. It then sums those terms over
    /// a strip of 32 output columns held in registers (a shorter one for
    /// the last `n mod 32`), in `p` order from `+0.0`, and adds each
    /// finished strip to `self` once. So every output gains exactly the
    /// sum [`Tensor::matmul_transa`] returns, bit for bit, for any
    /// operands: an accumulator that starts at `+0.0` never becomes
    /// `-0.0`, so `0.0 + sum == sum`, and an output whose row has no
    /// non-zero coefficient still gains `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics on rank or leading-dimension mismatch, or when `self` is not
    /// `m×n`.
    pub fn add_matmul_transa(&mut self, a: &Tensor, b: &Tensor) {
        assert_eq!(a.ndim(), 2, "matmul_transa lhs must be 2-D");
        assert_eq!(b.ndim(), 2, "matmul_transa rhs must be 2-D");
        let (k, m) = (a.dim(0), a.dim(1));
        let (k2, n) = (b.dim(0), b.dim(1));
        assert_eq!(
            k, k2,
            "matmul_transa leading dimensions differ: {k} vs {k2}"
        );
        assert_eq!(
            self.shape.dims(),
            [m, n],
            "add_matmul_transa output must be {m}×{n}"
        );
        dispatch::run(AddProducts {
            out: &mut self.data,
            n,
            a: &a.data,
            row_step: 1,
            p_step: m,
            b: &b.data,
        });
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

/// The register tile of [`Tensor::matmul_transb`]: `store(&mut out[i·n +
/// j], dot)` for every row `i` of `a` (`m×k`) and row `j` of `b` (`n×k`),
/// where `dot` is their in-order dot product from `+0.0`. The store is a
/// parameter so that [`Tensor::add_matmul_transb`] can accumulate through
/// the same tile while the forward keeps its plain stores. `a` is packed
/// in blocks of [`TILE_LANES`] rows, the last one zero-padded, and each
/// block is one dispatched [`TransbBlock`].
fn transb_tile(a: &Tensor, b: &Tensor, out: &mut [f32], store: impl Fn(&mut f32, f32)) {
    let (k, k2) = (a.dim(1), b.dim(1));
    assert_eq!(k, k2, "matmul_transb inner dimensions differ: {k} vs {k2}");
    let n = b.dim(0);
    if k == 0 || n == 0 {
        // Every dot is an empty sum, and `chunks_exact` below needs a
        // non-zero row width.
        for o in out {
            store(o, 0.0);
        }
        return;
    }
    let packed = pack_lanes(&a.data, a.dim(0), k);
    for (lanes, out) in packed.chunks_exact(k).zip(out.chunks_mut(TILE_LANES * n)) {
        dispatch::run(TransbBlock {
            lanes,
            b: &b.data,
            out,
            store: &store,
        });
    }
}

/// Lanes of one register tile: rows of the left operand in
/// [`Tensor::matmul_transb`], candidates in the similarity kernel of
/// [`crate::linalg`]. Sixteen lanes are one AVX-512, two AVX2 or four
/// SSE2 registers per accumulator row.
pub(crate) const TILE_LANES: usize = 16;

/// The first `rows` rows of the row-major `data` (`k` wide), packed for
/// [`dot_rows`]: block `b` is the `k` lane arrays
/// `packed[b·k + p][l] = data[(b·TILE_LANES + l)·k + p]`, i.e.
/// `TILE_LANES` rows stored column-major, with rows past `rows` zero-padded.
pub(crate) fn pack_lanes(data: &[f32], rows: usize, k: usize) -> Vec<[f32; TILE_LANES]> {
    let mut packed = vec![[0.0f32; TILE_LANES]; rows.div_ceil(TILE_LANES) * k];
    if k > 0 {
        for (r, row) in data.chunks_exact(k).take(rows).enumerate() {
            let block = &mut packed[r / TILE_LANES * k..][..k];
            for (lanes, &v) in block.iter_mut().zip(row) {
                lanes[r % TILE_LANES] = v;
            }
        }
    }
    packed
}

/// The dots of the packed lanes with each of the `R` weight rows `w`, each
/// `lanes.len()` long: lane `l` of row `q` sums `lanes[p][l] * w[q][p]`
/// over `p` in order from `+0.0`, with a separate multiply and add.
#[inline(always)]
pub(crate) fn dot_rows<const R: usize>(
    lanes: &[[f32; TILE_LANES]],
    w: [&[f32]; R],
) -> [[f32; TILE_LANES]; R] {
    let mut acc = [[0.0f32; TILE_LANES]; R];
    for (p, x) in lanes.iter().enumerate() {
        for (acc, w) in acc.iter_mut().zip(w) {
            let a = w[p];
            for (acc, &v) in acc.iter_mut().zip(x) {
                *acc += v * a;
            }
        }
    }
    acc
}

/// One packed block of [`transb_tile`]: `store(&mut out[l·n + j], dot)`
/// for each of the block's rows `l` (up to [`TILE_LANES`]; `out` holds
/// them) and every row `j` of `b` (`n×k`, `k` = `lanes.len()`). It holds
/// the block against as many weight rows as its level has registers for
/// (2 at SSE2, 4 at AVX2, 8 at AVX-512) and steps down by halves to one
/// for the last `n` mod that many; every shape sums each dot alike.
pub(crate) struct TransbBlock<'a, S> {
    pub(crate) lanes: &'a [[f32; TILE_LANES]],
    pub(crate) b: &'a [f32],
    pub(crate) out: &'a mut [f32],
    pub(crate) store: S,
}

impl<S: Fn(&mut f32, f32)> Kernel for TransbBlock<'_, S> {
    type Output = ();

    #[inline(always)]
    fn run(self, level: Level) {
        let Self {
            lanes,
            b,
            out,
            store,
        } = self;
        let mut j = 0;
        if level >= Level::Avx512 {
            j = transb_rows::<8, _>(lanes, b, out, j, &store);
        }
        if level >= Level::Avx2 {
            j = transb_rows::<4, _>(lanes, b, out, j, &store);
        }
        j = transb_rows::<2, _>(lanes, b, out, j, &store);
        transb_rows::<1, _>(lanes, b, out, j, &store);
    }
}

/// [`TransbBlock`]'s weight rows from `j` on, `R` at a time, as far as
/// whole groups of `R` go; returns the first row it left.
#[inline(always)]
fn transb_rows<const R: usize, S: Fn(&mut f32, f32)>(
    lanes: &[[f32; TILE_LANES]],
    b: &[f32],
    out: &mut [f32],
    j: usize,
    store: &S,
) -> usize {
    let k = lanes.len();
    let n = b.len() / k;
    for (g, group) in b[j * k..].chunks_exact(R * k).enumerate() {
        // Rows exactly `k` long, so the tile's loads need no bounds check.
        let w = std::array::from_fn(|q| &group[q * k..(q + 1) * k]);
        // The tile leaves through memory, lane by lane: seen through, the
        // stores below, each row's `R` dots side by side, lead LLVM to
        // vectorize the tile across the weight rows instead of the lanes,
        // and the SSE2 instance runs about 4× slower.
        let acc = std::hint::black_box(dot_rows::<R>(lanes, w));
        let j = j + g * R;
        for (q, acc) in (j..).zip(acc) {
            for (o_row, v) in out.chunks_exact_mut(n).zip(acc) {
                store(&mut o_row[q], v);
            }
        }
    }
    j + (n - j) / R * R
}

/// Output columns one strip of the backward products holds in registers:
/// four AVX2 or eight SSE2 accumulator registers. At AVX-512 the products
/// run strips of 64 first (four registers), then this one.
const STRIP: usize = 32;

/// `out[i][j] += Σ_p c(i, p) · b[p·n + j]` for an `m×n` `out` and a `k×n`
/// `b`, where output row `i`'s coefficients are `c(i, p) = a[i·row_step +
/// p·p_step]` and only those that are not `0.0` contribute: the body of
/// [`Tensor::matmul`] and [`Tensor::add_matmul_transa`], dispatched once
/// per product.
pub(crate) struct AddProducts<'a> {
    pub(crate) out: &'a mut [f32],
    pub(crate) n: usize,
    pub(crate) a: &'a [f32],
    pub(crate) row_step: usize,
    pub(crate) p_step: usize,
    pub(crate) b: &'a [f32],
}

impl Kernel for AddProducts<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self, level: Level) {
        let Self {
            out,
            n,
            a,
            row_step,
            p_step,
            b,
        } = self;
        if n == 0 {
            return;
        }
        let k = b.len() / n;
        // Row `i`'s non-zero coefficients as `(offset of b's row p, c)`.
        let mut terms = vec![(0usize, 0.0f32); k];
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            let mut len = 0;
            let coeffs = a.iter().skip(i * row_step).step_by(p_step).take(k);
            for (p, &c) in coeffs.enumerate() {
                terms[len] = (p * n, c);
                len += usize::from(c != 0.0);
            }
            let terms = &terms[..len];
            let mut from = 0;
            if level >= Level::Avx512 {
                from = add_strips::<64>(o_row, from, terms, b);
            }
            from = add_strips::<STRIP>(o_row, from, terms, b);
            let tail = &mut o_row[from..];
            let mut acc = [0.0f32; STRIP];
            let acc = &mut acc[..tail.len()];
            for &(row, c) in terms {
                for (acc, &v) in acc.iter_mut().zip(&b[row + from..row + n]) {
                    *acc += c * v;
                }
            }
            for (o, &acc) in tail.iter_mut().zip(&*acc) {
                *o += acc;
            }
        }
    }
}

/// [`AddProducts`]' whole strips of `S` output columns of `o_row` from
/// `from` on: each column sums `c · b[row + j]` over `terms` in order from
/// `+0.0` in registers, then adds into its output once. Returns where the
/// strips end.
#[inline(always)]
fn add_strips<const S: usize>(
    o_row: &mut [f32],
    from: usize,
    terms: &[(usize, f32)],
    b: &[f32],
) -> usize {
    let len = o_row.len();
    let mut strips = o_row[from..].chunks_exact_mut(S);
    for (j0, o_strip) in (from..).step_by(S).zip(&mut strips) {
        let mut acc = [0.0f32; S];
        for &(row, c) in terms {
            for (acc, &v) in acc.iter_mut().zip(&b[row + j0..][..S]) {
                *acc += c * v;
            }
        }
        for (o, acc) in o_strip.iter_mut().zip(acc) {
            *o += acc;
        }
    }
    len - strips.into_remainder().len()
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
    fn add_matmul_transb_adds_the_product_bit_for_bit() {
        // Shapes around the 16-row tile and every weight-row tile shape
        // (8, 4, 2 and 1 rows of `b`), into a start holding `-0.0` and
        // awkward values, and an empty inner dimension.
        let mut rng = Rng64::new(17);
        for (m, n, k) in [
            (1, 1, 3),
            (15, 3, 5),
            (16, 4, 7),
            (17, 5, 9),
            (16, 15, 11),
            (20, 21, 33),
            (33, 6, 0),
            (0, 3, 2),
        ] {
            let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[n, k], 0.0, 1.0, &mut rng);
            let mut start = Tensor::randn(&[m, n], 0.0, 1.0, &mut rng);
            if let Some(v) = start.as_mut_slice().first_mut() {
                *v = -0.0;
            }
            let mut got = start.clone();
            got.add_matmul_transb(&a, &b);
            let mut expect = start;
            expect += &a.matmul_transb(&b);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expect), "{m}×{n}×{k}");
        }
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
