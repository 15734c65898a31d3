//! Pipeline configuration.

use crate::error::PipelineError;
use nessa_select::facility::GreedyVariant;
use nessa_select::SelectError;
use nessa_smartssd::FaultPlan;
use nessa_telemetry::TelemetrySettings;

/// Configuration of a NeSSA training run.
///
/// Defaults encode the paper's hyper-parameters (§4.1: batch 128, LR 0.1
/// ÷5 at 60/120/160 of 200 epochs, weight decay 5e-4, Nesterov 0.9) and
/// optimization settings (§3.2: 5-epoch loss window, drop every 20
/// epochs). Construct with [`NessaConfig::new`] and override fields with
/// the builder methods; [`crate::NessaPipeline::run`] checks the values.
///
/// ```
/// use nessa_core::NessaConfig;
///
/// let cfg = NessaConfig::new(0.3, 40)
///     .with_subset_biasing(true)
///     .with_partitioning(true)
///     .with_seed(7);
/// assert_eq!(cfg.subset_fraction, 0.3);
/// assert_eq!(cfg.epochs, 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NessaConfig {
    /// Fraction of the (active) training pool selected each epoch.
    pub subset_fraction: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Base learning rate for the paper's multi-step schedule (paper:
    /// 0.1; the decay shape — ÷5 at 30 %/60 %/80 % of the run — is
    /// fixed). Models far from the paper's ResNet scale may need a
    /// smaller starting point.
    pub base_lr: f32,
    /// Re-select the subset every this many epochs (1 = every epoch).
    pub select_every: usize,
    /// Quantized-weight feedback (§3.2.1). When off, the selector model
    /// keeps its initial weights (no feedback loop).
    pub feedback: bool,
    /// Subset biasing (§3.2.2): drop learned samples from the pool.
    pub subset_biasing: bool,
    /// Drop marked samples every this many epochs (paper: 20).
    pub biasing_drop_every: usize,
    /// Fraction of the pool dropped at each biasing step.
    pub biasing_drop_fraction: f32,
    /// Dataset partitioning (§3.2.3): chunk classes so similarity tiles
    /// fit the FPGA's on-chip memory.
    pub partitioning: bool,
    /// Dynamic subset sizing (contribution 4): shrink the subset when the
    /// loss-reduction rate flattens.
    pub dynamic_sizing: bool,
    /// Relative per-epoch loss reduction below which the subset shrinks.
    pub sizing_threshold: f32,
    /// Multiplicative shrink factor for the subset fraction.
    pub sizing_factor: f32,
    /// Floor for the subset fraction under dynamic sizing.
    pub sizing_min_fraction: f32,
    /// Exponent applied to the CRAIG medoid weights before training
    /// (`w ← w^γ`). `1.0` uses raw cluster sizes as in CRAIG; smaller
    /// values temper the extreme weight concentration that destabilizes
    /// SGD on small subsets of highly-redundant data. NeSSA defaults to
    /// `0.5`; `tests/robustness.rs` trains at 0, 0.5 and 1.
    pub weight_temper: f32,
    /// Greedy maximizer used on the (simulated) FPGA.
    pub greedy: GreedyVariant,
    /// Worker threads for per-class selection.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Telemetry collection for the run (spans, metrics, sinks). Defaults
    /// to off; see [`TelemetrySettings::from_env`] for the
    /// `NESSA_TELEMETRY` environment control.
    pub telemetry: TelemetrySettings,
    /// SmartSSDs in the simulated cluster (1 = the paper's single-drive
    /// setup; more shards the scan/select phases).
    pub drives: usize,
    /// Overlapped epoch pipelining (paper §3, Figure 3): while the GPU
    /// trains epoch *e*, the SmartSSD concurrently selects the subset for
    /// epoch *e + 1* on a worker thread, using quantized-weight feedback
    /// that is one epoch stale. Off by default: the sequential schedule
    /// is the byte-identical reference.
    pub overlap: bool,
    /// Deterministic fault schedules armed per drive before the run
    /// (`(drive index, plan)` pairs; out-of-range indexes are ignored).
    pub fault_plans: Vec<(usize, FaultPlan)>,
}

impl NessaConfig {
    /// Creates a configuration with the paper's defaults for everything
    /// except the subset fraction and epoch count.
    pub fn new(subset_fraction: f32, epochs: usize) -> Self {
        Self {
            subset_fraction,
            epochs,
            batch_size: 128,
            base_lr: 0.1,
            select_every: 1,
            feedback: true,
            subset_biasing: true,
            biasing_drop_every: 20,
            biasing_drop_fraction: 0.1,
            partitioning: true,
            dynamic_sizing: false,
            sizing_threshold: 0.01,
            sizing_factor: 0.9,
            sizing_min_fraction: 0.05,
            weight_temper: 0.5,
            greedy: GreedyVariant::Lazy,
            threads: 1,
            seed: 42,
            telemetry: TelemetrySettings::off(),
            drives: 1,
            overlap: false,
            fault_plans: Vec::new(),
        }
    }

    /// Enables or disables overlapped epoch pipelining (selection for the
    /// next epoch runs concurrently with training; feedback becomes one
    /// epoch stale).
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Sets the base learning rate of the multi-step schedule (the decay
    /// shape is unchanged).
    pub fn with_base_lr(mut self, base_lr: f32) -> Self {
        self.base_lr = base_lr;
        self
    }

    /// Enables or disables the quantized-weight feedback loop.
    pub fn with_feedback(mut self, on: bool) -> Self {
        self.feedback = on;
        self
    }

    /// Enables or disables subset biasing.
    pub fn with_subset_biasing(mut self, on: bool) -> Self {
        self.subset_biasing = on;
        self
    }

    /// Enables or disables dataset partitioning.
    pub fn with_partitioning(mut self, on: bool) -> Self {
        self.partitioning = on;
        self
    }

    /// Enables or disables dynamic subset sizing.
    pub fn with_dynamic_sizing(mut self, on: bool) -> Self {
        self.dynamic_sizing = on;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the greedy maximizer variant.
    pub fn with_greedy(mut self, greedy: GreedyVariant) -> Self {
        self.greedy = greedy;
        self
    }

    /// Sets the per-class selection thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the telemetry configuration for the run.
    pub fn with_telemetry(mut self, telemetry: TelemetrySettings) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the number of SmartSSDs in the simulated cluster.
    pub fn with_drives(mut self, drives: usize) -> Self {
        self.drives = drives;
        self
    }

    /// Arms a deterministic fault schedule on drive `drive` (repeatable;
    /// out-of-range indexes are ignored at run time).
    pub fn with_fault_plan(mut self, drive: usize, plan: FaultPlan) -> Self {
        self.fault_plans.push((drive, plan));
        self
    }

    /// The §3.2.3 partition chunk size: selecting `m` (one mini-batch) per
    /// chunk at the current fraction needs chunks of `m / fraction`.
    pub fn partition_chunk(&self, fraction: f32) -> usize {
        ((self.batch_size as f32 / fraction).ceil() as usize).max(2)
    }

    /// Every field rule of a run's inputs; the first one broken is the
    /// error. Biasing and sizing knobs are checked even when those are off.
    pub(crate) fn check(&self) -> Result<(), PipelineError> {
        let (fraction, lr, factor) = (self.subset_fraction, self.base_lr, self.sizing_factor);
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(SelectError::BadFraction(fraction).into());
        }
        let rule = if self.epochs == 0 {
            "need at least one epoch"
        } else if self.batch_size == 0 {
            "batch size must be positive"
        } else if !(lr > 0.0 && lr.is_finite()) {
            "base learning rate must be positive and finite"
        } else if self.biasing_drop_every == 0 {
            "biasing_drop_every must be positive"
        } else if !(0.0..1.0).contains(&self.biasing_drop_fraction) {
            "biasing_drop_fraction must be in [0, 1)"
        } else if !(0.0..).contains(&self.sizing_threshold) {
            "sizing_threshold must be non-negative"
        } else if !(factor > 0.0 && factor < 1.0) {
            "sizing_factor must be in (0, 1)"
        } else if self.sizing_min_fraction <= 0.0 {
            "sizing_min_fraction must be positive"
        } else if self.drives == 0 {
            "a cluster needs at least one drive"
        } else {
            return Ok(());
        };
        Err(PipelineError::Config(rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = NessaConfig::new(0.3, 200);
        assert_eq!(cfg.batch_size, 128);
        assert_eq!(cfg.biasing_drop_every, 20);
        assert!(cfg.feedback && cfg.subset_biasing && cfg.partitioning);
        assert!(!cfg.overlap, "sequential mode is the default");
    }

    #[test]
    fn builder_overrides() {
        let cfg = NessaConfig::new(0.1, 10)
            .with_feedback(false)
            .with_subset_biasing(false)
            .with_partitioning(false)
            .with_dynamic_sizing(true)
            .with_batch_size(32)
            .with_threads(0)
            .with_seed(9);
        assert!(!cfg.feedback && !cfg.subset_biasing && !cfg.partitioning);
        assert!(cfg.dynamic_sizing);
        assert_eq!(cfg.batch_size, 32);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn fault_builders_accumulate() {
        let cfg = NessaConfig::new(0.3, 10)
            .with_drives(2)
            .with_fault_plan(0, FaultPlan::none().with_read_error(1, 2))
            .with_fault_plan(1, FaultPlan::none().with_dropout_after(3));
        let cfg = cfg.with_overlap(true);
        assert!(cfg.overlap);
        assert_eq!(cfg.drives, 2);
        assert_eq!(cfg.fault_plans.len(), 2);
    }

    #[test]
    fn base_lr_defaults_to_paper_and_overrides() {
        let cfg = NessaConfig::new(0.3, 10);
        assert_eq!(cfg.base_lr, 0.1, "default must reproduce the paper's lr");
        let cfg = cfg.with_base_lr(0.02);
        assert_eq!(cfg.base_lr, 0.02);
    }

    #[test]
    fn partition_chunk_selects_batch_per_chunk() {
        let cfg = NessaConfig::new(0.3, 10);
        // m / fraction = 128 / 0.3 ≈ 427.
        assert_eq!(cfg.partition_chunk(0.3), 427);
        assert_eq!(cfg.partition_chunk(1.0), 128);
    }
}
