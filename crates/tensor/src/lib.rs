//! Dense `f32` tensors and the small linear-algebra toolkit used throughout
//! the NeSSA reproduction.
//!
//! The crate is deliberately minimal: row-major dense storage, shape-checked
//! operations, a fast path for the 2-D matrix products that dominate both
//! training ([`matmul`]) and coreset selection ([`pairwise_sq_dists`]), plus a
//! seeded random-number layer ([`rng`]) so that every experiment in the
//! reproduction is deterministic.
//!
//! # Example
//!
//! ```
//! use nessa_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```
//!
//! [`matmul`]: Tensor::matmul
//! [`pairwise_sq_dists`]: crate::linalg::pairwise_sq_dists

// One audited `unsafe` block, in `dispatch`, calls the AVX2 instance of a
// kernel after detecting AVX2; every other line stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod shape;
mod tensor;

pub mod approx;
pub mod dispatch;
pub mod linalg;
pub mod ops;
pub mod rng;

pub use shape::{Shape, ShapeError};
pub use tensor::Tensor;
