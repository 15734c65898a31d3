//! Typed pipeline failures.
//!
//! The epoch loop never panics (`nessa-lint` rule **P1**): anything that
//! can go wrong during a run — a bad run input, bad selection inputs, a
//! kernel profile that does not fit the FPGA's on-chip memory, a drive
//! failure the degradation ladder could not absorb — surfaces as a
//! [`PipelineError`] so callers can attribute and report it.

use nessa_select::SelectError;
use nessa_smartssd::fpga::KernelError;
use nessa_smartssd::{ClusterError, DeviceError};

/// Why a pipeline run stopped before completing.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A configuration, network or dataset input broke the named rule;
    /// the run stopped before any work.
    Config(&'static str),
    /// The selection kernel rejected its inputs or broke an invariant.
    Select(SelectError),
    /// The simulated FPGA rejected the kernel profile (typically a chunk
    /// that exceeds on-chip memory; enable partitioning or shrink the
    /// chunk).
    Kernel(KernelError),
    /// A drive failure that survived every rung of the degradation
    /// ladder (retries exhausted and no fallback path was possible).
    Drive {
        /// Index of the failing drive at the time of the failure.
        drive: usize,
        /// The device error that ended the run.
        error: DeviceError,
    },
    /// Every drive in the cluster dropped out; the dataset is
    /// unreachable and no fallback can proceed.
    AllDrivesLost {
        /// Drives evicted before the run stopped.
        evicted: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Config(rule) => write!(f, "invalid run input: {rule}"),
            PipelineError::Select(e) => write!(f, "selection failed: {e}"),
            PipelineError::Kernel(e) => write!(f, "selection kernel failed: {e}"),
            PipelineError::Drive { drive, error } => {
                write!(f, "drive {drive} failed beyond recovery: {error}")
            }
            PipelineError::AllDrivesLost { evicted } => {
                write!(
                    f,
                    "all drives lost ({evicted} evicted); dataset unreachable"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Select(e) => Some(e),
            PipelineError::Kernel(e) => Some(e),
            PipelineError::Drive { error, .. } => Some(error),
            PipelineError::Config(_) | PipelineError::AllDrivesLost { .. } => None,
        }
    }
}

impl From<SelectError> for PipelineError {
    fn from(e: SelectError) -> Self {
        PipelineError::Select(e)
    }
}

impl From<KernelError> for PipelineError {
    fn from(e: KernelError) -> Self {
        PipelineError::Kernel(e)
    }
}

impl From<ClusterError> for PipelineError {
    fn from(e: ClusterError) -> Self {
        // A profile that cannot fit is a configuration problem, not a
        // drive fault — keep reporting it as the kernel error it is.
        match e.error {
            DeviceError::Kernel(k @ KernelError::ChunkTooLarge { .. }) => PipelineError::Kernel(k),
            error => PipelineError::Drive {
                drive: e.drive,
                error,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_wrap_sources() {
        let e = PipelineError::from(SelectError::BadFraction(2.0));
        assert!(e.to_string().contains("selection failed"));
        assert!(e.to_string().contains("2"));
        let k = PipelineError::from(KernelError::ChunkTooLarge {
            required: 10,
            available: 5,
        });
        assert!(k.to_string().contains("kernel"));
        assert!(std::error::Error::source(&k).is_some());
        let c = PipelineError::Config("batch size must be positive");
        assert_eq!(
            c.to_string(),
            "invalid run input: batch size must be positive"
        );
        assert!(std::error::Error::source(&c).is_none());
    }

    #[test]
    fn cluster_chunk_errors_stay_kernel_errors() {
        let e = PipelineError::from(ClusterError {
            drive: 2,
            error: DeviceError::Kernel(KernelError::ChunkTooLarge {
                required: 10,
                available: 5,
            }),
        });
        assert!(matches!(e, PipelineError::Kernel(_)));
    }

    #[test]
    fn cluster_device_faults_name_the_drive() {
        let e = PipelineError::from(ClusterError {
            drive: 1,
            error: DeviceError::Offline,
        });
        assert!(matches!(
            e,
            PipelineError::Drive {
                drive: 1,
                error: DeviceError::Offline
            }
        ));
        assert!(e.to_string().contains("drive 1"));
        assert!(std::error::Error::source(&e).is_some());
        let lost = PipelineError::AllDrivesLost { evicted: 2 };
        assert!(lost.to_string().contains("all drives lost"));
    }
}
