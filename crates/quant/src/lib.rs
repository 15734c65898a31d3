//! Int8 quantization for NeSSA's FPGA feedback loop.
//!
//! Paper §3.2.1: after each training round the target model's weights are
//! quantized and shipped back to the SmartSSD, where the FPGA selection
//! kernel runs forward passes with them to compute gradient proxies.
//! Quantization serves two purposes there — it shrinks the GPU→FPGA
//! feedback transfer by 4× and it lets the kernel use the KU15P's DSP
//! slices as int8 MAC units (paper contribution 2: "quantize the selection
//! model for high selection speed").
//!
//! * [`schemes`] — the one quantizer, [`SchemeQuantized`]: symmetric codes
//!   of a chosen bit width with per-tensor or per-row scales; feedback uses
//!   int8 per-tensor ([`Scheme::int8`]) and the ablation bench sweeps the
//!   rest,
//! * [`qmodel`] — whole-network snapshots: quantize a
//!   [`Network`](nessa_nn::models::Network)'s weights, measure the payload
//!   that crosses the interconnect, and materialize the dequantized
//!   "selector model" the FPGA runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod qmodel;
pub mod schemes;

pub use qmodel::QuantizedModel;
pub use schemes::{Granularity, Scheme, SchemeQuantized};
