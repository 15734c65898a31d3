//! The assembled SmartSSD device.
//!
//! [`SmartSsd`] wires the flash timing model, the P2P and host links, and
//! the FPGA kernel model to a single simulated clock. Each phase is
//! written once, to the drive's [`Trace`]; the byte counters behind the
//! paper's data-movement reductions (§4.4: 3.47× average) and the energy
//! split are read back from that log.

use crate::clock::SimClock;
use crate::fault::{DeviceError, FaultPlan, FaultState};
use crate::fpga::{FpgaSpec, KernelProfile};
use crate::nand::NandConfig;
use crate::pcie::LinkModel;
use crate::trace::{Energy, Phase, Trace, TraceEvent, TrafficStats};

/// Device configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartSsdConfig {
    /// Flash geometry.
    pub nand: NandConfig,
    /// FPGA capabilities.
    pub fpga: FpgaSpec,
    /// SSD↔FPGA peer-to-peer link.
    pub p2p: LinkModel,
    /// FPGA↔host link.
    pub host: LinkModel,
    /// Conventional (no-P2P) storage→host path for baselines.
    pub host_staged: LinkModel,
}

impl Default for SmartSsdConfig {
    fn default() -> Self {
        Self {
            nand: NandConfig::default(),
            fpga: FpgaSpec::default(),
            p2p: LinkModel::p2p(),
            host: LinkModel::fpga_host(),
            host_staged: LinkModel::host_staged(),
        }
    }
}

/// The simulated drive.
#[derive(Debug, Clone)]
pub struct SmartSsd {
    config: SmartSsdConfig,
    clock: SimClock,
    trace: Trace,
    faults: FaultState,
}

impl SmartSsd {
    /// Creates a device from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any flash geometry field is zero or non-positive.
    pub fn new(config: SmartSsdConfig) -> Self {
        let nand = &config.nand;
        assert!(nand.channels > 0, "need at least one channel");
        assert!(nand.dies_per_channel > 0, "need at least one die");
        assert!(nand.page_bytes > 0, "page size must be positive");
        assert!(nand.t_r_secs > 0.0 && nand.channel_bytes_per_s > 0.0);
        Self {
            config,
            clock: SimClock::new(),
            trace: Trace::new(),
            faults: FaultState::default(),
        }
    }

    /// Arms a deterministic fault schedule on this drive. Replaces any
    /// previously armed plan; op counters keep running.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults.arm(plan);
    }

    /// Number of faults this drive has injected so far (failed ops,
    /// latency spikes, corruption events, and the dropout transition).
    pub fn faults_injected(&self) -> u64 {
        self.faults.injected()
    }

    /// Drains the count of corrupt records delivered since the last call,
    /// so the caller can quarantine them.
    pub fn take_quarantined(&mut self) -> u64 {
        self.faults.take_quarantined()
    }

    /// Charges `secs` of idle backoff to the drive (a [`Phase::Stall`]
    /// trace event) — how the pipeline accounts retry waits on the
    /// simulated clock.
    pub fn stall_for(&mut self, secs: f64) {
        if secs <= 0.0 {
            return;
        }
        self.log(Phase::Stall, secs, 0);
    }

    /// The device configuration.
    pub fn config(&self) -> &SmartSsdConfig {
        &self.config
    }

    /// Simulated seconds elapsed since construction.
    pub fn elapsed_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// Bytes moved over each data path, read from the phase log.
    pub fn traffic(&self) -> TrafficStats {
        self.trace.traffic()
    }

    /// Energy per component, read from the phase log.
    pub fn energy(&self) -> Energy {
        self.trace.energy()
    }

    /// The phase-level event timeline.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Writes one phase to the log and advances the clock past it.
    /// Returns the phase's seconds.
    fn log(&mut self, phase: Phase, duration_s: f64, bytes: u64) -> f64 {
        self.trace.record(TraceEvent {
            phase,
            start_s: self.clock.now_secs(),
            duration_s,
            bytes,
        });
        self.clock.advance_secs(duration_s);
        duration_s
    }

    /// Reads `records × record_bytes` from flash through `link` (flash
    /// read and link transfer are pipelined: the phase costs the slower
    /// of the two).
    fn stream_from_flash(
        &mut self,
        phase: Phase,
        link: LinkModel,
        records: u64,
        record_bytes: u64,
    ) -> Result<f64, DeviceError> {
        self.faults.scan_op()?;
        let bytes = records * record_bytes;
        let flash = self.config.nand.read_secs(bytes);
        let t = flash.max(link.batch_time_s(records, record_bytes));
        Ok(self.log(phase, t, bytes))
    }

    /// Streams `records × record_bytes` from flash to the FPGA over the
    /// P2P link (flash read and link transfer are pipelined: the phase
    /// costs the slower of the two). Returns the phase's seconds.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::TransientRead`] when an armed read-error
    /// burst fires (retryable), or [`DeviceError::Offline`] after a drive
    /// dropout. Failed attempts cost no simulated time.
    pub fn read_records_to_fpga(
        &mut self,
        records: u64,
        record_bytes: u64,
    ) -> Result<f64, DeviceError> {
        self.stream_from_flash(Phase::Scan, self.config.p2p, records, record_bytes)
    }

    /// Runs the selection kernel on the FPGA. Returns the phase's seconds.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Kernel`] with
    /// [`KernelError::ChunkTooLarge`](crate::KernelError::ChunkTooLarge)
    /// when the profile's chunk does not fit the FPGA's on-chip memory —
    /// the caller must re-partition (paper §3.2.3) — or
    /// [`KernelError::Aborted`](crate::KernelError::Aborted) when an armed
    /// kernel fault fires (retryable). Failed launches cost no simulated
    /// time.
    pub fn run_selection(&mut self, profile: &KernelProfile) -> Result<f64, DeviceError> {
        self.faults.kernel_op()?;
        let t = profile.execute_time_s(&self.config.fpga)?;
        Ok(self.log(Phase::Select, t, 0))
    }

    /// Ships the selected subset to the host/GPU. Returns the phase's
    /// seconds (including any injected PCIe latency spike).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Offline`] after a drive dropout.
    pub fn send_subset_to_host(
        &mut self,
        records: u64,
        record_bytes: u64,
    ) -> Result<f64, DeviceError> {
        let extra = self.faults.transfer_op()?;
        let t = self.config.host.batch_time_s(records, record_bytes) + extra;
        Ok(self.log(Phase::Ship, t, records * record_bytes))
    }

    /// Receives the quantized-weight feedback from the host (paper
    /// §3.2.1). Returns the phase's seconds (including any injected PCIe
    /// latency spike).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Offline`] after a drive dropout.
    pub fn receive_feedback(&mut self, bytes: u64) -> Result<f64, DeviceError> {
        let extra = self.faults.transfer_op()?;
        let t = self.config.host.transfer_time_s(bytes) + extra;
        Ok(self.log(Phase::Feedback, t, bytes))
    }

    /// Installs a dataset onto the drive: the records stream in over the
    /// host link and are programmed to flash (pipelined; the phase costs
    /// the slower of the two). A one-time cost before training starts.
    /// Returns the phase's seconds.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Offline`] after a drive dropout.
    pub fn install_dataset(&mut self, records: u64, record_bytes: u64) -> Result<f64, DeviceError> {
        let extra = self.faults.transfer_op()?;
        let bytes = records * record_bytes;
        let link = self.config.host.batch_time_s(records, record_bytes);
        let t = self.config.nand.program_secs(bytes).max(link) + extra;
        Ok(self.log(Phase::Install, t, bytes))
    }

    /// Baseline path: reads records from flash and stages them through the
    /// host at the conventional effective bandwidth (paper §4.4:
    /// 1.4 GB/s). Returns the phase's seconds.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::TransientRead`] when an armed read-error
    /// burst fires (retryable), or [`DeviceError::Offline`] after a drive
    /// dropout. Failed attempts cost no simulated time.
    pub fn conventional_read_to_host(
        &mut self,
        records: u64,
        record_bytes: u64,
    ) -> Result<f64, DeviceError> {
        self.stream_from_flash(
            Phase::StagedRead,
            self.config.host_staged,
            records,
            record_bytes,
        )
    }
}

impl Default for SmartSsd {
    fn default() -> Self {
        Self::new(SmartSsdConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cifar_profile() -> KernelProfile {
        KernelProfile {
            samples: 50_000,
            forward_macs_per_sample: 41_000_000,
            proxy_dim: 10,
            chunk: 457,
            k_per_chunk: 128,
        }
    }

    #[test]
    fn clock_advances_through_phases() {
        let mut dev = SmartSsd::default();
        assert_eq!(dev.elapsed_secs(), 0.0);
        let t1 = dev.read_records_to_fpga(1000, 3000).unwrap();
        let t2 = dev.run_selection(&cifar_profile()).unwrap();
        let t3 = dev.send_subset_to_host(280, 3000).unwrap();
        let t4 = dev.receive_feedback(280_000).unwrap();
        let total = dev.elapsed_secs();
        assert!((total - (t1 + t2 + t3 + t4)).abs() < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn traffic_counters_are_exact() {
        let mut dev = SmartSsd::default();
        dev.read_records_to_fpga(100, 1000).unwrap();
        dev.send_subset_to_host(30, 1000).unwrap();
        dev.receive_feedback(5000).unwrap();
        dev.conventional_read_to_host(10, 1000).unwrap();
        let t = dev.traffic();
        assert_eq!(t.ssd_to_fpga, 100_000);
        assert_eq!(t.fpga_to_host, 30_000);
        assert_eq!(t.host_to_fpga, 5_000);
        assert_eq!(t.staged_to_host, 10_000);
        assert_eq!(t.interconnect_bytes(), 45_000);
        assert_eq!(t.total_bytes(), 145_000);
    }

    #[test]
    fn near_storage_selection_reduces_interconnect_traffic() {
        // NeSSA path: full dataset stays on-board; only the subset crosses.
        let records = 50_000u64;
        let bytes = 3_000u64;
        let subset = records * 28 / 100;
        let mut nessa = SmartSsd::default();
        nessa.read_records_to_fpga(records, bytes).unwrap();
        nessa.send_subset_to_host(subset, bytes).unwrap();
        // Baseline: the full dataset crosses to the host.
        let mut base = SmartSsd::default();
        base.conventional_read_to_host(records, bytes).unwrap();
        let reduction = base.traffic().interconnect_bytes() as f64
            / nessa.traffic().interconnect_bytes() as f64;
        assert!(
            (3.0..4.0).contains(&reduction),
            "interconnect reduction {reduction}"
        );
    }

    #[test]
    fn p2p_read_is_faster_than_staged() {
        let mut a = SmartSsd::default();
        let mut b = SmartSsd::default();
        let tp = a.read_records_to_fpga(10_000, 126_000).unwrap();
        let th = b.conventional_read_to_host(10_000, 126_000).unwrap();
        assert!(th / tp > 1.5, "p2p {tp}s vs staged {th}s");
    }

    #[test]
    fn oversized_kernel_is_rejected_and_costs_nothing() {
        let mut dev = SmartSsd::default();
        let bad = KernelProfile {
            chunk: 10_000,
            ..cifar_profile()
        };
        assert!(dev.run_selection(&bad).is_err());
        assert_eq!(dev.elapsed_secs(), 0.0);
    }

    #[test]
    fn dataset_install_is_one_time_flash_bound_cost() {
        let mut dev = SmartSsd::default();
        let t_install = dev.install_dataset(50_000, 3_000).unwrap();
        // Installing is slower than scanning the same data back out
        // (t_PROG ≫ t_R), but still a bounded one-time cost.
        let t_scan = dev.read_records_to_fpga(50_000, 3_000).unwrap();
        assert!(t_install > t_scan, "install {t_install} !> scan {t_scan}");
        assert!(t_install < 60.0, "install unreasonably slow: {t_install}");
    }

    #[test]
    fn trace_records_every_phase() {
        use crate::trace::Phase;
        let mut dev = SmartSsd::default();
        let t1 = dev.read_records_to_fpga(1000, 3000).unwrap();
        let t2 = dev.run_selection(&cifar_profile()).unwrap();
        let t3 = dev.send_subset_to_host(280, 3000).unwrap();
        let t4 = dev.receive_feedback(280_000).unwrap();
        let trace = dev.trace();
        let logged: Vec<(Phase, f64)> = trace
            .events()
            .iter()
            .map(|e| (e.phase, e.duration_s))
            .collect();
        assert_eq!(
            logged,
            [
                (Phase::Scan, t1),
                (Phase::Select, t2),
                (Phase::Ship, t3),
                (Phase::Feedback, t4)
            ]
        );
        assert_eq!(trace.events()[0].bytes, 3_000_000);
        // Events tile the timeline: span equals the clock.
        assert!((trace.span_s() - dev.elapsed_secs()).abs() < 1e-9);
    }

    #[test]
    fn energy_attributes_fpga_work() {
        let mut dev = SmartSsd::default();
        let t = dev.run_selection(&cifar_profile()).unwrap();
        let j = dev.energy().joules_for("fpga");
        assert!((j - 7.5 * t).abs() < 1e-9);
        assert_eq!(dev.energy().joules_for("ssd"), 0.0);
    }
}
