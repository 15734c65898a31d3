//! Neural-network training engine for the NeSSA reproduction.
//!
//! The paper trains ResNet-20/18/50 on six image datasets with SGD
//! (Nesterov momentum 0.9, weight decay 5e-4, LR 0.1 divided by 5 at 60/120/
//! 160 of 200 epochs, batch 128). This crate provides everything needed to
//! run that loop on a CPU at reproduction scale:
//!
//! * layers with a shared-borrow eval pass and an explicit training
//!   forward/backward ([`layers`]),
//! * the MLP and small-CNN builders ([`models`]),
//! * softmax cross-entropy with per-sample losses ([`loss`]) — the
//!   per-sample losses feed NeSSA's subset-biasing optimization,
//! * SGD with Nesterov momentum, weight decay and multi-step schedules
//!   ([`optim`]),
//! * accuracy metrics ([`metrics`]),
//! * FLOP accounting ([`flops`]) and an analytic GPU cost model ([`cost`])
//!   that stand in for the paper's ResNets and its V100/A100 wall-clock
//!   measurements,
//! * the model zoo behind the paper's Figure 1 ([`zoo`]).
//!
//! # Example
//!
//! ```
//! use nessa_nn::models::mlp;
//! use nessa_nn::loss::softmax_cross_entropy;
//! use nessa_nn::optim::{Sgd, SgdConfig};
//! use nessa_tensor::{rng::Rng64, Tensor};
//!
//! let mut rng = Rng64::new(0);
//! let mut net = mlp(&[4, 16, 3], &mut rng);
//! let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut rng);
//! let y = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//! let mut opt = Sgd::new(SgdConfig::default());
//! let logits = net.forward(&x);
//! let out = softmax_cross_entropy(&logits, &y);
//! net.backward(&out.grad_logits);
//! opt.step(&mut net, 0.1);
//! let predictions = net.predict(&x); // eval pass, `&net`
//! assert_eq!(predictions.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod flops;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod zoo;

pub use layers::{Layer, Param};
pub use models::Network;
