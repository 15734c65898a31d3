//! The benchmark's workloads. Each turns the seed into its inputs: the
//! synthetic dataset, the record size on the simulated drives, the model
//! initialization and, on `pipelined-faulty`, where the fault bursts land.
//! The pipeline sees only those inputs. `WORKLOADS.md` records why each
//! workload exists.

use nessa_core::{NessaConfig, NessaPipeline};
use nessa_data::{Dataset, SynthConfig};
use nessa_nn::models::{mlp, Network};
use nessa_smartssd::FaultPlan;
use nessa_telemetry::TelemetrySettings;
use nessa_tensor::rng::Rng64;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One ~600×600 similarity tile per class per round: selection is nearly
    /// all of the wall time.
    SelectHeavy,
    /// A wide MLP trained in small batches, reselecting every fourth epoch:
    /// training and evaluation dominate.
    TrainHeavy,
    /// The overlapped schedule on two drives, with fault bursts that push
    /// rounds down the degradation ladder.
    PipelinedFaulty,
}

/// Everything one pipeline run, or one layer replay, is built from.
pub struct Inputs {
    pub cfg: NessaConfig,
    pub train: Dataset,
    pub test: Dataset,
    pub target: Network,
    pub selector: Network,
}

impl Workload {
    const ALL: [Self; 3] = [Self::SelectHeavy, Self::TrainHeavy, Self::PipelinedFaulty];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Self::SelectHeavy => "select-heavy",
            Self::TrainHeavy => "train-heavy",
            Self::PipelinedFaulty => "pipelined-faulty",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Configured training epochs. Select-heavy runs four, about 2.3 s, so
    /// that one measurement holds enough runs for a steady median.
    pub fn epochs(self) -> usize {
        match self {
            Self::SelectHeavy => 4,
            Self::TrainHeavy => 8,
            Self::PipelinedFaulty => 10,
        }
    }

    /// Whether the workload arms device faults.
    pub fn faulty(self) -> bool {
        self == Self::PipelinedFaulty
    }

    /// Generates the workload's inputs for `seed`, with `telemetry` as the
    /// run's telemetry setting.
    pub fn inputs(self, seed: u64, telemetry: TelemetrySettings) -> Inputs {
        let base = SynthConfig {
            train: 4000,
            test: 1000,
            dim: 32,
            classes: 10,
            // The default 3.0 separates classes so far that training
            // saturates; see `TrainHeavy` for why that matters.
            class_sep: 1.0,
            bytes_per_sample: record_bytes(seed),
            seed,
            ..SynthConfig::default()
        };
        let (synth, layers, cfg): (SynthConfig, &[usize], NessaConfig) = match self {
            // Partition chunks of 128 / 0.2 = 640 samples cover each
            // ~600-sample class, so every round builds one 600×600 tile per
            // class. (Fraction 0.1 would need 1280-sample tiles, which the
            // FPGA's 4.32 MB on-chip memory rejects.) class_sep 1.0 keeps
            // accuracy short of saturation.
            Self::SelectHeavy => (
                SynthConfig {
                    train: 6000,
                    ..base
                },
                &[32, 64, 10][..],
                NessaConfig::new(0.2, self.epochs()).with_batch_size(128),
            ),
            Self::TrainHeavy => {
                let mut cfg = NessaConfig::new(0.5, self.epochs())
                    .with_batch_size(16)
                    .with_base_lr(0.02);
                cfg.select_every = 4;
                // The tensor kernels skip zero activations, so training
                // time follows how many ReLUs the run leaves dead. At
                // class_sep 3.0 training saturates and that share depends
                // on the seed: run wall times ranged from 2.6 s to 4.0 s
                // between seeds. At 1.0 they stay within a few percent.
                (base, &[32, 384, 192, 10][..], cfg)
            }
            // Two bursts of three: each exhausts the 3-attempt retry budget
            // and sends one round to the host rung, the kernel abort
            // (drive 1) in round 1-3 and the read error (drive 0, scan op
            // 5-8) in a later round. Every phase runs on every drive, so
            // the drives' op counters advance together. Chained read
            // bursts fail the P2P scan and then the host-staged read, which
            // ends the run, and a read burst that meets a kernel fallback's
            // staged read drops that round to the random rung. Per-op rates
            // drawn by `FaultPlan::seeded` cannot rule either out, so the
            // bursts are placed apart.
            Self::PipelinedFaulty => (
                base,
                &[32, 256, 128, 10][..],
                NessaConfig::new(0.5, self.epochs())
                    .with_batch_size(32)
                    .with_base_lr(0.02)
                    .with_overlap(true)
                    .with_drives(2)
                    .with_fault_plan(0, FaultPlan::none().with_read_error(5 + seed / 3 % 4, 3))
                    .with_fault_plan(1, FaultPlan::none().with_kernel_abort(1 + seed % 3, 3)),
            ),
        };
        let (train, test) = synth.generate();
        let mut rng = Rng64::new(seed);
        let target = mlp(layers, &mut rng);
        let selector = mlp(layers, &mut rng);
        Inputs {
            cfg: cfg.with_seed(seed).with_telemetry(telemetry),
            train,
            test,
            target,
            selector,
        }
    }

    /// Builds a ready pipeline and returns it with its set-up seconds: input
    /// generation, model initialization and `NessaPipeline::new`.
    pub fn setup(self, seed: u64, telemetry: TelemetrySettings) -> (NessaPipeline, f64) {
        let started = Instant::now();
        let Inputs {
            cfg,
            train,
            test,
            target,
            selector,
        } = self.inputs(seed, telemetry);
        let pipeline = NessaPipeline::new(cfg, target, selector, train, test);
        (pipeline, started.elapsed().as_secs_f64())
    }
}

/// Stored record size: 3 KiB plus a pad of up to 15 bytes taken from the
/// seed. The simulated clock charges by the byte, so `sim_epoch_s` and
/// `interconnect_bytes_per_epoch` differ slightly between seeds; the host
/// work does not depend on it.
fn record_bytes(seed: u64) -> usize {
    3072 + (seed % 16) as usize
}
