//! NeSSA: near-storage data selection for accelerated ML training.
//!
//! This crate assembles the substrates (`nessa-nn`, `nessa-select`,
//! `nessa-quant`, `nessa-smartssd`, `nessa-data`) into the training
//! paradigm of paper §3:
//!
//! 1. stream the candidate pool from flash to the on-board FPGA (P2P),
//! 2. compute gradient proxies with the **quantized selector model** and
//!    select a facility-location coreset (per class, chunk-partitioned to
//!    fit the FPGA's 4.32 MB on-chip memory),
//! 3. ship only the subset to the GPU and train on it (weighted loss),
//! 4. quantize the updated weights, feed them back to the FPGA, and update
//!    the candidate pool (subset biasing) and subset size (dynamic sizing),
//! 5. repeat for all epochs.
//!
//! The same runner also executes the paper's comparison policies — full-
//! data training, CPU CRAIG, CPU K-Centers, and random selection — so the
//! accuracy tables and convergence figures come from one code path.
//!
//! Entry points:
//!
//! * [`pipeline::NessaPipeline`] — the near-storage training loop,
//! * [`policy::run_policy`] — any [`policy::Policy`] on any dataset,
//! * [`timing`] — paper-scale epoch-time composition (Figure 4, §4.3–4.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biasing;
pub mod config;
pub mod error;
pub mod health;
pub mod pipeline;
pub mod policy;
pub mod proxy;
pub mod report;
pub mod retry;
pub mod sizing;
pub mod timing;
pub mod trainer;

pub use config::NessaConfig;
pub use error::PipelineError;
pub use health::HealthMonitor;
pub use pipeline::NessaPipeline;
pub use policy::{run_policy, Policy};
pub use report::{EpochRecord, OverlapRecord, RunReport};
pub use retry::RetryPolicy;
