//! Deterministic fault injection for the SmartSSD simulator.
//!
//! Near-storage selection moves the hot path of every epoch onto the
//! drive, so the training loop inherits storage-side failure modes a
//! host-only pipeline never sees: transient NAND read errors, FPGA
//! kernel aborts, PCIe latency spikes, silently corrupt records, and
//! whole-drive dropout. This module models them as a [`FaultPlan`] — a
//! fully deterministic schedule armed on a device before a run.
//!
//! Schedules are indexed by *operation count* on the relevant data path
//! (scan, kernel, transfer), never by wall clock: a plan either lists
//! explicit op indexes or is drawn up front from a seeded
//! [`Rng64`] via [`FaultPlan::seeded`]. Time
//! only ever advances on the device's [`SimClock`](crate::SimClock), so
//! the same plan against the same workload reproduces byte-identical
//! traces (lint rules d1/d2 hold throughout).

use crate::fpga::KernelError;
use nessa_tensor::rng::Rng64;

/// Why a device operation failed.
///
/// Transient variants ([`DeviceError::is_transient`]) may succeed if the
/// same operation is retried; [`DeviceError::Offline`] is terminal for
/// the drive and asks the caller to evict it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// A NAND read failed in a way the drive's ECC could not correct.
    /// Retryable: the next attempt re-reads the stripe.
    TransientRead {
        /// Scan-channel operation index at which the error fired.
        op: u64,
    },
    /// The FPGA selection kernel failed (aborted mid-flight, or the
    /// profile cannot fit on-chip memory at all).
    Kernel(KernelError),
    /// The whole drive dropped off the bus and will not come back.
    Offline,
}

impl DeviceError {
    /// Whether retrying the same operation can possibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DeviceError::TransientRead { .. } | DeviceError::Kernel(KernelError::Aborted { .. })
        )
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::TransientRead { op } => {
                write!(f, "transient NAND read error (scan op {op})")
            }
            DeviceError::Kernel(e) => write!(f, "{e}"),
            DeviceError::Offline => write!(f, "drive is offline"),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KernelError> for DeviceError {
    fn from(e: KernelError) -> Self {
        DeviceError::Kernel(e)
    }
}

/// A burst of consecutive failures on one fault channel: every operation
/// from index `at` onward fails until `remaining` hits zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Burst {
    at: u64,
    remaining: u32,
}

/// A one-shot latency spike: the first transfer op at index ≥ `at` takes
/// `extra_secs` longer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spike {
    at: u64,
    extra_secs: f64,
}

/// A one-shot corruption event: the first scan op at index ≥ `at`
/// delivers `records` undecodable records (the op itself succeeds; the
/// bad records are counted for quarantine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Corruption {
    at: u64,
    records: u64,
}

/// A deterministic fault schedule for one drive.
///
/// All channels are indexed by per-channel operation count (0-based):
/// the *scan* channel counts flash reads ([`read_records_to_fpga`]
/// and the staged [`conventional_read_to_host`] path), the *kernel*
/// channel counts [`run_selection`] launches, and the *transfer* channel
/// counts host-link transfers (subset shipment, feedback, install).
/// Failed attempts advance the channel index too, so a burst of `n`
/// failures models exactly `n` consecutive failed attempts.
///
/// [`read_records_to_fpga`]: crate::SmartSsd::read_records_to_fpga
/// [`conventional_read_to_host`]: crate::SmartSsd::conventional_read_to_host
/// [`run_selection`]: crate::SmartSsd::run_selection
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    read_errors: Vec<Burst>,
    kernel_aborts: Vec<Burst>,
    stalls: Vec<Spike>,
    corruptions: Vec<Corruption>,
    dropout_after: Option<u64>,
}

impl FaultPlan {
    /// A plan with no faults armed.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan arms no faults at all.
    pub fn is_empty(&self) -> bool {
        self.read_errors.is_empty()
            && self.kernel_aborts.is_empty()
            && self.stalls.is_empty()
            && self.corruptions.is_empty()
            && self.dropout_after.is_none()
    }

    /// Arms `failures` consecutive transient NAND read errors starting at
    /// scan op `at`.
    pub fn with_read_error(mut self, at: u64, failures: u32) -> Self {
        self.read_errors.push(Burst {
            at,
            remaining: failures,
        });
        self
    }

    /// Arms `failures` consecutive kernel aborts starting at kernel op
    /// `at`. Use `u32::MAX` for a permanently failed kernel.
    pub fn with_kernel_abort(mut self, at: u64, failures: u32) -> Self {
        self.kernel_aborts.push(Burst {
            at,
            remaining: failures,
        });
        self
    }

    /// Arms a one-shot PCIe latency spike of `extra_secs` on the first
    /// transfer op at index ≥ `at`.
    pub fn with_pcie_stall(mut self, at: u64, extra_secs: f64) -> Self {
        self.stalls.push(Spike { at, extra_secs });
        self
    }

    /// Arms a one-shot corruption of `records` records on the first scan
    /// op at index ≥ `at` (the read succeeds; the records are
    /// quarantined).
    pub fn with_corrupt_read(mut self, at: u64, records: u64) -> Self {
        self.corruptions.push(Corruption { at, records });
        self
    }

    /// Takes the whole drive offline after `ops` completed operations
    /// (counted across all channels). Once offline, every operation
    /// returns [`DeviceError::Offline`].
    pub fn with_dropout_after(mut self, ops: u64) -> Self {
        self.dropout_after = Some(ops);
        self
    }

    /// Draws a plan from a seeded RNG: each channel fires according to
    /// `spec`'s per-op rates over `spec.horizon_ops` operations. The same
    /// `(seed, spec)` pair always yields the same plan.
    pub fn seeded(seed: u64, spec: &FaultSpec) -> Self {
        let mut rng = Rng64::new(seed);
        let mut plan = FaultPlan::default();
        for op in 0..spec.horizon_ops {
            if rng.coin(spec.read_error_rate) {
                plan = plan.with_read_error(op, spec.read_error_burst.max(1));
            }
            if rng.coin(spec.kernel_abort_rate) {
                plan = plan.with_kernel_abort(op, spec.kernel_abort_burst.max(1));
            }
            if rng.coin(spec.stall_rate) {
                let extra = rng.uniform(spec.stall_secs.0 as f32, spec.stall_secs.1 as f32);
                plan = plan.with_pcie_stall(op, extra as f64);
            }
            if rng.coin(spec.corrupt_rate) {
                plan = plan.with_corrupt_read(op, spec.corrupt_records.max(1));
            }
        }
        if rng.coin(spec.dropout_probability) && spec.horizon_ops > 0 {
            let at = rng.index(spec.horizon_ops as usize) as u64;
            plan = plan.with_dropout_after(at);
        }
        plan
    }
}

/// Per-op fault rates from which [`FaultPlan::seeded`] draws a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Number of per-channel operations the schedule covers.
    pub horizon_ops: u64,
    /// Probability a read-error burst starts at any given scan op.
    pub read_error_rate: f64,
    /// Consecutive failures per read-error burst (min 1).
    pub read_error_burst: u32,
    /// Probability a kernel-abort burst starts at any given kernel op.
    pub kernel_abort_rate: f64,
    /// Consecutive failures per kernel-abort burst (min 1).
    pub kernel_abort_burst: u32,
    /// Probability a PCIe latency spike arms at any given transfer op.
    pub stall_rate: f64,
    /// Uniform range the spike's extra seconds are drawn from.
    pub stall_secs: (f64, f64),
    /// Probability a corruption event arms at any given scan op.
    pub corrupt_rate: f64,
    /// Records quarantined per corruption event (min 1).
    pub corrupt_records: u64,
    /// Probability the drive drops out somewhere within the horizon.
    pub dropout_probability: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            horizon_ops: 64,
            read_error_rate: 0.0,
            read_error_burst: 1,
            kernel_abort_rate: 0.0,
            kernel_abort_burst: 1,
            stall_rate: 0.0,
            stall_secs: (0.001, 0.01),
            corrupt_rate: 0.0,
            corrupt_records: 1,
            dropout_probability: 0.0,
        }
    }
}

/// Fires the first armed burst covering `op`; returns true if one fired.
fn fire_burst(bursts: &mut [Burst], op: u64) -> bool {
    for b in bursts.iter_mut() {
        if op >= b.at && b.remaining > 0 {
            b.remaining -= 1;
            return true;
        }
    }
    false
}

/// Runtime fault state of one drive: the armed plan plus per-channel
/// operation counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    scan_ops: u64,
    kernel_ops: u64,
    transfer_ops: u64,
    completed_ops: u64,
    injected: u64,
    quarantined: u64,
    offline: bool,
}

impl FaultState {
    pub(crate) fn arm(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    pub(crate) fn injected(&self) -> u64 {
        self.injected
    }

    pub(crate) fn is_offline(&self) -> bool {
        self.offline
    }

    pub(crate) fn take_quarantined(&mut self) -> u64 {
        std::mem::take(&mut self.quarantined)
    }

    /// Common entry of every op: dropout transition + offline check.
    fn begin(&mut self) -> Result<(), DeviceError> {
        if !self.offline {
            if let Some(after) = self.plan.dropout_after {
                if self.completed_ops >= after {
                    self.offline = true;
                    self.injected += 1;
                }
            }
        }
        if self.offline {
            return Err(DeviceError::Offline);
        }
        self.completed_ops += 1;
        Ok(())
    }

    /// Gates a scan-channel op (flash read). On success returns how many
    /// of the delivered records are corrupt and must be quarantined.
    pub(crate) fn scan_op(&mut self) -> Result<u64, DeviceError> {
        self.begin()?;
        let op = self.scan_ops;
        self.scan_ops += 1;
        if fire_burst(&mut self.plan.read_errors, op) {
            self.injected += 1;
            return Err(DeviceError::TransientRead { op });
        }
        let mut bad = 0;
        for c in self.plan.corruptions.iter_mut() {
            if op >= c.at && c.records > 0 {
                bad += c.records;
                c.records = 0;
                self.injected += 1;
            }
        }
        self.quarantined += bad;
        Ok(bad)
    }

    /// Gates a kernel-channel op (FPGA kernel launch).
    pub(crate) fn kernel_op(&mut self) -> Result<(), DeviceError> {
        self.begin()?;
        let op = self.kernel_ops;
        self.kernel_ops += 1;
        if fire_burst(&mut self.plan.kernel_aborts, op) {
            self.injected += 1;
            return Err(DeviceError::Kernel(KernelError::Aborted { op }));
        }
        Ok(())
    }

    /// Gates a transfer-channel op (host-link transfer). On success
    /// returns the extra seconds any armed latency spike adds.
    pub(crate) fn transfer_op(&mut self) -> Result<f64, DeviceError> {
        self.begin()?;
        let op = self.transfer_ops;
        self.transfer_ops += 1;
        let mut extra = 0.0;
        for s in self.plan.stalls.iter_mut() {
            if op >= s.at && s.extra_secs > 0.0 {
                extra += s.extra_secs;
                s.extra_secs = 0.0;
                self.injected += 1;
            }
        }
        Ok(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let mut st = FaultState::default();
        st.arm(FaultPlan::none());
        for _ in 0..10 {
            assert_eq!(st.scan_op(), Ok(0));
            assert_eq!(st.kernel_op(), Ok(()));
            assert_eq!(st.transfer_op(), Ok(0.0));
        }
        assert_eq!(st.injected(), 0);
        assert!(!st.is_offline());
    }

    #[test]
    fn read_error_burst_fails_exactly_n_attempts() {
        let mut st = FaultState::default();
        st.arm(FaultPlan::none().with_read_error(1, 2));
        assert_eq!(st.scan_op(), Ok(0));
        assert_eq!(st.scan_op(), Err(DeviceError::TransientRead { op: 1 }));
        assert_eq!(st.scan_op(), Err(DeviceError::TransientRead { op: 2 }));
        assert_eq!(st.scan_op(), Ok(0));
        assert_eq!(st.injected(), 2);
    }

    #[test]
    fn kernel_abort_is_transient_and_indexed() {
        let mut st = FaultState::default();
        st.arm(FaultPlan::none().with_kernel_abort(0, 1));
        let err = st.kernel_op().unwrap_err();
        assert!(err.is_transient());
        assert_eq!(err, DeviceError::Kernel(KernelError::Aborted { op: 0 }));
        assert_eq!(st.kernel_op(), Ok(()));
    }

    #[test]
    fn stall_fires_once_at_or_after_index() {
        let mut st = FaultState::default();
        st.arm(FaultPlan::none().with_pcie_stall(2, 0.25));
        assert_eq!(st.transfer_op(), Ok(0.0));
        assert_eq!(st.transfer_op(), Ok(0.0));
        assert_eq!(st.transfer_op(), Ok(0.25));
        assert_eq!(st.transfer_op(), Ok(0.0));
        assert_eq!(st.injected(), 1);
    }

    #[test]
    fn corruption_quarantines_records_once() {
        let mut st = FaultState::default();
        st.arm(FaultPlan::none().with_corrupt_read(0, 7));
        assert_eq!(st.scan_op(), Ok(7));
        assert_eq!(st.scan_op(), Ok(0));
        assert_eq!(st.take_quarantined(), 7);
        assert_eq!(st.take_quarantined(), 0);
    }

    #[test]
    fn dropout_takes_drive_offline_permanently() {
        let mut st = FaultState::default();
        st.arm(FaultPlan::none().with_dropout_after(2));
        assert_eq!(st.scan_op(), Ok(0));
        assert_eq!(st.transfer_op(), Ok(0.0));
        assert_eq!(st.kernel_op(), Err(DeviceError::Offline));
        assert_eq!(st.scan_op(), Err(DeviceError::Offline));
        assert!(st.is_offline());
        assert!(!DeviceError::Offline.is_transient());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let spec = FaultSpec {
            read_error_rate: 0.2,
            kernel_abort_rate: 0.1,
            stall_rate: 0.15,
            corrupt_rate: 0.05,
            dropout_probability: 0.5,
            ..FaultSpec::default()
        };
        let a = FaultPlan::seeded(42, &spec);
        let b = FaultPlan::seeded(42, &spec);
        let c = FaultPlan::seeded(43, &spec);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ for these rates");
        assert!(!a.is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let e = DeviceError::TransientRead { op: 3 };
        assert!(e.to_string().contains("scan op 3"));
        assert!(DeviceError::Offline.to_string().contains("offline"));
    }
}
