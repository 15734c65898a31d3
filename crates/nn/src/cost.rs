//! Analytic GPU training cost model.
//!
//! The paper's wall-clock measurements (Figure 1: epoch time across model
//! generations; Figure 2: share of time spent on data movement; Figure 4:
//! per-epoch time by selection policy) are functions of FLOP counts, sample
//! counts, per-sample byte sizes, and data-path characteristics. This module
//! encodes that function together with the GPU presets the paper names
//! (NVIDIA V100 and A100).
//!
//! The data path is modelled as a per-sample fixed overhead (file handling
//! and decode) plus a streaming term. The default [`LoaderSpec`] is
//! calibrated against the paper's two published Figure-2 endpoints — MNIST
//! (0.5 KB/image) spends 5.4 % of epoch time on data movement, ImageNet-100
//! (130 KB/image) spends 40.4 % — which pins the fixed overhead to ~25 µs
//! and the streaming rate to ~460 MB/s, both typical of a CPU-side loader.

/// A compute device's performance envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Device name.
    pub name: &'static str,
    /// Peak single-precision throughput in FLOP/s.
    pub peak_flops: f64,
    /// Sustained fraction of peak achieved by DNN training (model FLOP
    /// utilization); GPUs typically sustain 0.3–0.5 on convnets.
    pub utilization: f64,
    /// Board power in watts (paper §2.2 cites these for the energy
    /// comparison).
    pub power_watts: f64,
}

impl DeviceSpec {
    /// NVIDIA V100 (used for the paper's Figure 2 profile).
    pub fn v100() -> Self {
        Self {
            name: "V100",
            peak_flops: 15.7e12,
            utilization: 0.35,
            power_watts: 300.0,
        }
    }

    /// NVIDIA A100 (used for the paper's Figure 1 sweep).
    pub fn a100() -> Self {
        Self {
            name: "A100",
            peak_flops: 19.5e12,
            utilization: 0.4,
            power_watts: 250.0,
        }
    }

    /// Sustained compute throughput in FLOP/s.
    pub fn sustained_flops(&self) -> f64 {
        self.peak_flops * self.utilization
    }

    /// Seconds of gradient computation for one epoch over `samples`
    /// examples at `training_flops_per_sample` forward+backward FLOPs each
    /// (the compute term of [`epoch_time`]).
    pub fn train_secs(&self, samples: u64, training_flops_per_sample: u64) -> f64 {
        samples as f64 * training_flops_per_sample as f64 / self.sustained_flops()
    }
}

/// The storage → host → device data path for training data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoaderSpec {
    /// Per-sample fixed cost in seconds (file handling, decode, staging).
    pub fixed_overhead_s: f64,
    /// Streaming throughput in bytes/s once a sample is being moved.
    pub bytes_per_s: f64,
}

impl LoaderSpec {
    /// Conventional disk → CPU → GPU loader, calibrated to the paper's
    /// Figure-2 endpoints (see module docs).
    pub fn conventional_host() -> Self {
        Self {
            fixed_overhead_s: 2.5e-5,
            bytes_per_s: 4.6e8,
        }
    }

    /// Seconds to deliver one sample of `bytes` bytes.
    pub fn sample_time_s(&self, bytes: u64) -> f64 {
        self.fixed_overhead_s + bytes as f64 / self.bytes_per_s
    }
}

impl Default for LoaderSpec {
    fn default() -> Self {
        Self::conventional_host()
    }
}

/// A decomposed epoch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochTime {
    /// Seconds spent on gradient computation.
    pub compute_s: f64,
    /// Seconds spent moving training data to the device.
    pub io_s: f64,
}

impl EpochTime {
    /// Total seconds (serial pipeline, as profiled in the paper's Fig. 2).
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.io_s
    }

    /// Fraction of the epoch spent on data movement.
    pub fn io_fraction(&self) -> f64 {
        let t = self.total_s();
        if t == 0.0 {
            0.0
        } else {
            self.io_s / t
        }
    }
}

/// Computes one training epoch's cost on `device` fed by `loader`.
///
/// * `samples` — number of training examples visited this epoch,
/// * `training_flops_per_sample` — forward+backward FLOPs per example,
/// * `bytes_per_sample` — storage footprint per example.
pub fn epoch_time(
    device: &DeviceSpec,
    loader: &LoaderSpec,
    samples: u64,
    training_flops_per_sample: u64,
    bytes_per_sample: u64,
) -> EpochTime {
    let compute_s = device.train_secs(samples, training_flops_per_sample);
    let io_s = samples as f64 * loader.sample_time_s(bytes_per_sample);
    EpochTime { compute_s, io_s }
}

/// Energy in joules for a span of seconds on a device.
pub fn energy_joules(device: &DeviceSpec, seconds: f64) -> f64 {
    device.power_watts * seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure-2 reference compute: a ResNet-18-class workload on a V100
    /// (~0.45 ms of gradient work per sample).
    const REF_TRAIN_FLOPS: u64 = 3 * 825_000_000;

    #[test]
    fn epoch_time_scales_linearly_with_samples() {
        let d = DeviceSpec::v100();
        let l = LoaderSpec::default();
        let a = epoch_time(&d, &l, 1000, 1_000_000, 3000);
        let b = epoch_time(&d, &l, 2000, 1_000_000, 3000);
        assert!((b.total_s() / a.total_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn figure2_endpoints_match_paper() {
        // Paper §1: MNIST (0.5 KB) ⇒ 5.4 % of time on data movement,
        // ImageNet-100 (130 KB) ⇒ 40.4 %. The calibrated loader should land
        // within a couple of points of both.
        let d = DeviceSpec::v100();
        let l = LoaderSpec::conventional_host();
        let mnist = epoch_time(&d, &l, 50_000, REF_TRAIN_FLOPS, 500);
        let inet = epoch_time(&d, &l, 130_000, REF_TRAIN_FLOPS, 130_000);
        assert!(
            (mnist.io_fraction() - 0.054).abs() < 0.02,
            "MNIST io fraction {}",
            mnist.io_fraction()
        );
        assert!(
            (inet.io_fraction() - 0.404).abs() < 0.05,
            "ImageNet-100 io fraction {}",
            inet.io_fraction()
        );
    }

    #[test]
    fn io_fraction_grows_with_image_size() {
        let d = DeviceSpec::v100();
        let l = LoaderSpec::default();
        let sizes = [500u64, 3_000, 3_000, 130_000];
        let fracs: Vec<f64> = sizes
            .iter()
            .map(|&b| epoch_time(&d, &l, 50_000, REF_TRAIN_FLOPS, b).io_fraction())
            .collect();
        assert!(fracs[0] < fracs[1]);
        assert!(fracs[2] < fracs[3]);
    }

    #[test]
    fn a100_outruns_v100() {
        let l = LoaderSpec::default();
        let fast = epoch_time(&DeviceSpec::a100(), &l, 1_000_000, 1_000_000_000, 0);
        let slow = epoch_time(&DeviceSpec::v100(), &l, 1_000_000, 1_000_000_000, 0);
        assert!(slow.compute_s > fast.compute_s);
    }

    #[test]
    fn energy_follows_board_power() {
        let a100 = DeviceSpec::a100();
        assert_eq!(energy_joules(&a100, 10.0), 2_500.0);
        assert!(energy_joules(&a100, 10.0) < energy_joules(&DeviceSpec::v100(), 10.0));
    }

    #[test]
    fn io_fraction_zero_when_no_time() {
        let t = EpochTime {
            compute_s: 0.0,
            io_s: 0.0,
        };
        assert_eq!(t.io_fraction(), 0.0);
    }
}
