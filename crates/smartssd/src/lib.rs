//! A discrete-event simulator of the Samsung SmartSSD computational
//! storage drive.
//!
//! The paper's hardware platform is a U.2 SmartSSD: a Xilinx (AMD) Kintex
//! KU15P FPGA with 4 GB DRAM attached to 3.84 TB of NAND flash over a
//! PCIe peer-to-peer connection (paper §2.2). No SDK or device is available
//! here, so this crate rebuilds the pieces whose behaviour the paper
//! measures:
//!
//! * [`clock`] — the simulated nanosecond clock every component advances,
//! * [`nand`] — the flash timing model: channel-interleaved sequential
//!   reads and programs, and scattered single-page reads,
//! * [`pcie`] — link models for the host-staged path (~1.4 GB/s effective)
//!   and the on-board P2P path (up to 3 GB/s, saturating with record size
//!   exactly as the paper's Figure 6 reports),
//! * [`fpga`] — the selection-kernel compute model bound by the KU15P's
//!   clock, DSP count and 4.32 MB on-chip memory,
//! * [`resources`] — the LUT/FF/BRAM/DSP estimator behind Table 4,
//! * [`trace`] — each drive's phase log, the one ledger its byte counters
//!   and busy-time × power energy are read from,
//! * [`device`] — the assembled drive: end-to-end transfers that each
//!   write one phase to the log,
//! * [`cluster`] — multi-drive sharding (the paper's future-work scaling),
//! * [`fault`] — deterministic fault injection: seeded schedules of NAND
//!   read errors, kernel aborts, PCIe stalls, record corruption and
//!   whole-drive dropout.
//!
//! Everything is deterministic: the same call sequence produces the same
//! simulated timeline — fault schedules included.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod device;
pub mod fault;
pub mod fpga;
pub mod nand;
pub mod pcie;
pub mod resources;
pub mod trace;

pub use clock::SimClock;
pub use cluster::{ClusterError, SsdCluster};
pub use device::{SmartSsd, SmartSsdConfig};
pub use fault::{DeviceError, FaultPlan, FaultSpec};
pub use fpga::{FpgaSpec, KernelError, KernelProfile};
pub use pcie::LinkModel;
pub use resources::{ResourceReport, ResourceUsage};
pub use trace::{Energy, Phase, Trace, TraceEvent, TrafficStats};
