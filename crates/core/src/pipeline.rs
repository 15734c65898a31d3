//! The NeSSA near-storage training pipeline (paper §3, Figure 3).
//!
//! The device path can fail (see [`nessa_smartssd::fault`]); every
//! storage phase runs under the one degradation ladder, `recover` plus
//! the rungs of `selection_round`: transient faults are retried with
//! sim-clock backoff ([`RetryPolicy`]), dead drives are evicted and the
//! shards rebalance, a dead scan or kernel path degrades to a staged
//! host read + host-side selection, and if a dead kernel's host read is
//! out too the round falls back to seeded random selection. Every rung
//! is surfaced through the [`HealthMonitor`] fault counters.
//!
//! # One epoch loop, two schedules
//!
//! [`NessaPipeline::run`] is the only epoch loop, for NeSSA and for every
//! comparison policy [`crate::run_policy`] runs. By default it runs the
//! sequential schedule: select, train, feed back, every epoch on
//! one thread, with every draw taken from the master RNG stream. With
//! [`NessaConfig::overlap`] the same loop runs the double-buffered
//! schedule: while the GPU trains epoch *e* on subset S\_e, a scoped
//! worker thread drives the SmartSSD through the selection round for
//! S\_{e+1} (scan → kernel → ship) using the quantized weights fed back
//! after epoch *e−1* — one epoch stale (§3.2.1). The two sides serialize
//! only at the epoch boundary, where the main thread joins the worker
//! (`overlap.wait`) and broadcasts fresh feedback (`overlap.handoff`).
//! Epoch 0 selects S\_0 synchronously (the prologue round). The schedule
//! decides only which RNG stream a round draws from and whether the next
//! round runs on the worker; everything else is shared.
//!
//! A comparison policy takes the host data path: each round stages its
//! data to the host over the conventional read, priced on the drive's
//! ledger like any other phase, and selects there with the live target.
//! It has no quantized selector, so it gets no feedback and runs only the
//! sequential schedule; subset biasing and partitioning are off.
//!
//! Overlapped determinism holds by construction: one RNG stream per
//! epoch's round is split off the master seed before anything else
//! draws, so the worker's randomness never races the trainer's, and the
//! device sees the same op order (round *k* is always the *k*-th
//! scan/select/ship) regardless of thread scheduling. Simulated time
//! composes as `sync + max(select_side, train) + handoff` per epoch
//! (recorded in [`OverlapRecord`]); wall-clock overlap is measured from
//! the real concurrent span intervals by `nessa-trace`.

use crate::biasing::LossTracker;
use crate::config::NessaConfig;
use crate::error::PipelineError;
use crate::health::HealthMonitor;
use crate::proxy::{embeddings, gradient_proxies};
use crate::report::{EpochRecord, OverlapRecord, RunReport};
use crate::retry::RetryPolicy;
use crate::sizing::SubsetSizer;
use crate::trainer::{evaluate, train_epoch_metered, TrainMetrics};
use nessa_data::Dataset;
use nessa_nn::cost::DeviceSpec;
use nessa_nn::models::Network;
use nessa_nn::optim::{MultiStepLr, Sgd, SgdConfig};
use nessa_quant::QuantizedModel;
use nessa_select::craig::{select_per_class_factored, CraigOptions};
use nessa_select::{kcenters, random, SelectError, SelectMetrics, Selection};
use nessa_smartssd::fpga::KernelProfile;
use nessa_smartssd::{ClusterError, DeviceError, SmartSsdConfig, SsdCluster};
use nessa_telemetry::{DeviceEvent, Telemetry};
use nessa_tensor::rng::Rng64;

/// Runs one cluster phase under the default [`RetryPolicy`]. Offline
/// drives are evicted on the spot (the shard layout rebalances; no retry
/// budget is consumed — eviction is repair, not retry); transient faults
/// charge a deterministic backoff to every surviving drive's simulated
/// clock and try again. Anything else — and an emptied cluster —
/// surfaces to the caller.
fn recover<T>(
    cluster: &mut SsdCluster,
    health: &HealthMonitor,
    telemetry: &Telemetry,
    epoch: usize,
    mut op: impl FnMut(&mut SsdCluster) -> Result<T, ClusterError>,
) -> Result<T, ClusterError> {
    let retry = RetryPolicy::default();
    let mut attempts = 1u32;
    loop {
        match op(cluster) {
            Ok(v) => return Ok(v),
            Err(e) if matches!(e.error, DeviceError::Offline) => {
                if cluster.evict_drive(e.drive) {
                    health.note_drive_evicted(cluster.len());
                }
                if cluster.is_empty() {
                    return Err(e);
                }
            }
            Err(e) if e.error.is_transient() && attempts < retry.max_attempts.max(1) => {
                let backoff = retry.backoff_secs(attempts - 1);
                let mut span = telemetry
                    .span("retry")
                    .with_attr("epoch", epoch)
                    .with_attr("attempt", attempts)
                    .with_attr("drive", e.drive);
                span.add_sim_secs(backoff);
                cluster.stall_all(backoff);
                health.note_retry();
                attempts += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Maps a cluster failure that outlived [`recover`] to the run's error:
/// [`PipelineError::AllDrivesLost`] once the cluster is empty, the
/// device error itself otherwise.
fn drive_err(device: &SsdCluster, e: ClusterError) -> PipelineError {
    if device.is_empty() {
        PipelineError::AllDrivesLost {
            evicted: device.evicted(),
        }
    } else {
        e.into()
    }
}

/// How a pipeline selects: NeSSA's near-storage round or one of the
/// comparison policies (see [`crate::Policy`]). It decides two things in
/// `selection_round`: the data path (NeSSA scans the pool to the FPGA and
/// ships the subset; a baseline stages its data to the host and selects
/// there) and the selection math.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Method {
    /// Facility location on the quantized selector's gradient proxies,
    /// on the FPGA.
    Nessa,
    /// CPU CRAIG: facility location on the live target's f32 gradient
    /// proxies.
    Craig,
    /// CPU K-Centers on the live target's penultimate embeddings.
    KCenters,
    /// Uniform random picks per class; reads no features.
    Random,
    /// The whole pool at unit weights ("Goal").
    All,
}

/// Shared, read-only context one selection round needs besides the
/// device and the network it selects with. Everything here is thread-shareable
/// so the overlapped schedule can run a round on a worker thread while
/// the main thread trains.
#[derive(Clone, Copy)]
struct RoundCtx<'a> {
    cfg: &'a NessaConfig,
    method: Method,
    health: &'a HealthMonitor,
    telemetry: &'a Telemetry,
    select_metrics: &'a SelectMetrics,
    train: &'a Dataset,
    /// The selector's forward FLOPs per sample.
    flops_per_sample: u64,
}

/// The ladder rung a selection round is on, which decides who computes
/// the picks and whether they still have to be shipped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// The scan put the pool on the FPGA and the device kernel selects;
    /// the subset ships to the GPU.
    Device,
    /// The P2P or kernel path is out and the pool was staged to the host
    /// instead (a baseline's round starts here): selection runs
    /// host-side and the ship phase is free.
    Host,
    /// Even the staged read is out. The pool is still resident on the
    /// FPGA from the scan, so the round takes seeded random picks and
    /// ships them the normal way.
    Random,
}

/// The host rung: counts the fallback, opens its span, then stages
/// `records` records to the host over the conventional read path under
/// [`recover`]. Returns the read's simulated seconds.
fn stage_to_host(
    ctx: &RoundCtx<'_>,
    device: &mut SsdCluster,
    epoch: usize,
    records: u64,
    record_bytes: u64,
) -> Result<f64, ClusterError> {
    ctx.health.note_fallback_host();
    let mut fb = ctx
        .telemetry
        .span("fallback")
        .with_attr("epoch", epoch)
        .with_attr("rung", "host");
    let secs = recover(device, ctx.health, ctx.telemetry, epoch, |c| {
        c.conventional_read_to_host(records, record_bytes)
    })?;
    fb.add_sim_secs(secs);
    Ok(secs)
}

/// What one selection round produced: the chosen subset plus the
/// simulated seconds it charged (kernel vs. I/O split).
struct RoundOutcome {
    selection: Selection,
    select_secs: f64,
    io_secs: f64,
}

/// One full selection round for the subset first used at `epoch`.
///
/// NeSSA's round scans the candidate pool flash → FPGA, quarantines
/// corrupt records, runs the quantized forward + facility-location kernel
/// (with the full degradation ladder), and ships the subset to the GPU.
/// A baseline's round starts on the host rung: it stages the pool to the
/// host over the conventional read (Random, which reads no features,
/// stages only its subset) and selects there with `net`, the live target.
///
/// The round draws only from `rng`; the caller decides whether that is
/// the run's master stream (sequential mode) or the epoch's pre-split
/// stream (overlap mode).
fn selection_round(
    ctx: &RoundCtx<'_>,
    device: &mut SsdCluster,
    net: &Network,
    epoch: usize,
    mut pool: Vec<usize>,
    fraction: f32,
    rng: &mut Rng64,
) -> Result<RoundOutcome, PipelineError> {
    let cfg = ctx.cfg;
    let mut select_secs = 0.0;
    let mut io_secs = 0.0;
    let record_bytes = ctx.train.bytes_per_sample() as u64;
    // (1) Bring the candidate pool to where selection runs: flash → FPGA
    // over P2P for NeSSA. For a baseline the conventional staged read is
    // its normal data path, not a fallback rung, so nothing is counted.
    let mut rung = match ctx.method {
        Method::Nessa => Rung::Device,
        _ => Rung::Host,
    };
    if ctx.method != Method::Random {
        let scanned = {
            let mut scan = ctx
                .telemetry
                .span("scan")
                .with_attr("epoch", epoch)
                .with_attr("records", pool.len());
            let records = pool.len() as u64;
            let r = recover(device, ctx.health, ctx.telemetry, epoch, |c| match rung {
                Rung::Host => c.conventional_read_to_host(records, record_bytes),
                _ => c.parallel_scan(records, record_bytes),
            });
            if let Ok(secs) = &r {
                scan.add_sim_secs(*secs);
            }
            r
        };
        match scanned {
            Ok(secs) => io_secs += secs,
            Err(e) if rung == Rung::Host || device.is_empty() => {
                return Err(drive_err(device, e));
            }
            Err(_) => {
                // P2P path out beyond recovery: degrade to the conventional
                // staged read through the host. If that fails too, no path
                // to the data is left.
                io_secs += stage_to_host(ctx, device, epoch, pool.len() as u64, record_bytes)
                    .map_err(|e| drive_err(device, e))?;
                rung = Rung::Host;
            }
        }
    }
    // Corrupt records detected during the scan cannot join the candidate
    // pool: count them and drop that many (chosen from the round's RNG
    // stream; the simulation does not track which physical records a
    // plan corrupted), keeping at least one.
    let bad = device.take_quarantined();
    if bad > 0 {
        ctx.health.note_quarantined(bad);
        let drop_n = (bad as usize).min(pool.len().saturating_sub(1));
        if drop_n > 0 {
            let mut keep = vec![true; pool.len()];
            for i in rng.sample_indices(pool.len(), drop_n) {
                keep[i] = false;
            }
            pool = pool
                .iter()
                .zip(&keep)
                .filter_map(|(&i, &k)| k.then_some(i))
                .collect();
        }
    }
    let mut select_span = ctx
        .telemetry
        .span("select")
        .with_attr("epoch", epoch)
        .with_attr("pool", pool.len());
    let chunk = cfg.partitioning.then(|| cfg.partition_chunk(fraction));
    let mut kernel_secs = 0.0;
    if rung == Rung::Device {
        // Charge the kernel's simulated time.
        // The kernel compares outer-product gradients through the
        // ‖a‖²‖b‖² − 2(a·a')(b·b') factorization, so its per-pair cost
        // scales with classes + feature_dim, not the product.
        let profile = KernelProfile {
            samples: pool.len() as u64,
            forward_macs_per_sample: ctx.flops_per_sample / 2,
            proxy_dim: ctx.train.classes() + net.feature_dim(),
            chunk: chunk.unwrap_or_else(|| {
                // Without partitioning the kernel tiles at the largest class
                // size.
                pool.iter()
                    .map(|&i| ctx.train.label(i))
                    .fold(vec![0usize; ctx.train.classes()], |mut acc, y| {
                        acc[y] += 1;
                        acc
                    })
                    .into_iter()
                    .max()
                    .unwrap_or(1)
            }),
            k_per_chunk: cfg.batch_size,
        };
        match recover(device, ctx.health, ctx.telemetry, epoch, |c| {
            c.parallel_select(&profile)
        }) {
            Ok(secs) => kernel_secs = secs,
            // An emptied cluster ends the run, and a chunk that does not
            // fit is a config problem, not a fault to degrade around.
            Err(e) if device.is_empty() || !e.error.is_transient() => {
                return Err(drive_err(device, e));
            }
            Err(_) => {
                // Kernel path out beyond recovery: stage the pool to the
                // host and select there, or take random picks if the
                // staged read fails too.
                rung = match stage_to_host(ctx, device, epoch, pool.len() as u64, record_bytes) {
                    Ok(secs) => {
                        io_secs += secs;
                        Rung::Host
                    }
                    Err(e) if device.is_empty() => return Err(drive_err(device, e)),
                    Err(_) => Rung::Random,
                };
            }
        }
    }
    // (2) The selection math. Device and host produce the same picks (the
    // simulation models time, not arithmetic); the last rung takes seeded
    // random picks, which read no features.
    let pool_labels: Vec<usize> = pool.iter().map(|&i| ctx.train.label(i)).collect();
    let classes = ctx.train.classes();
    let picked = (rung != Rung::Random).then(|| match ctx.method {
        Method::All => Ok(Selection::new(
            (0..pool.len()).collect(),
            vec![1.0; pool.len()],
        )),
        Method::Random => random::select_per_class(&pool_labels, classes, fraction, rng),
        // Sener & Savarese select in the penultimate embedding space, not
        // the gradient space, and train the subset unweighted.
        Method::KCenters => {
            let embeds = embeddings(net, ctx.train, &pool, cfg.batch_size);
            kcenters::select_per_class(&embeds, &pool_labels, classes, fraction, rng)
        }
        // Facility location over `net`'s last-layer gradient proxies
        // (outer-product space, compared via the factored distance so
        // nothing of size classes × features is materialized), built
        // class by class as each class is selected, so no pool-wide proxy
        // block exists.
        Method::Nessa | Method::Craig => {
            let class_proxies = |members: &[usize]| {
                let rows: Vec<usize> = members.iter().map(|&i| pool[i]).collect();
                let p = gradient_proxies(net, ctx.train, &rows, cfg.batch_size);
                (p.residuals, p.features)
            };
            let opts = CraigOptions {
                variant: cfg.greedy,
                partition_chunk: chunk,
                threads: cfg.threads,
                metrics: Some(ctx.select_metrics.clone()),
            };
            select_per_class_factored(class_proxies, &pool_labels, classes, fraction, &opts, rng)
        }
    });
    let local = match picked {
        Some(Ok(mut local)) => {
            // Only NeSSA tempers the medoid weights (see
            // NessaConfig::weight_temper).
            if ctx.method == Method::Nessa {
                for w in &mut local.weights {
                    *w = w.powf(cfg.weight_temper);
                }
            }
            local
        }
        // An internal invariant breach is a selector bug; degrade the
        // round rather than lose the run.
        None | Some(Err(SelectError::Internal(_))) => {
            ctx.health.note_fallback_random();
            let mut fb = ctx
                .telemetry
                .span("fallback")
                .with_attr("epoch", epoch)
                .with_attr("rung", "random");
            let sel = random::select_per_class(&pool_labels, classes, fraction, rng)?;
            fb.set_attr("subset", sel.len());
            sel
        }
        Some(Err(e)) => return Err(e.into()),
    };
    let selection = local.into_global(&pool);
    select_span.add_sim_secs(kernel_secs);
    select_span.set_attr("subset", selection.len());
    select_span.finish();
    select_secs += kernel_secs;
    // (3) Ship the subset to the GPU.
    {
        let mut ship = ctx
            .telemetry
            .span("ship")
            .with_attr("epoch", epoch)
            .with_attr("records", selection.len());
        // A round on the host rung has the pool there already, except
        // Random's, which reads no features and stages only its subset.
        if rung != Rung::Host || ctx.method == Method::Random {
            let records = selection.len() as u64;
            let secs = recover(device, ctx.health, ctx.telemetry, epoch, |c| match rung {
                Rung::Host => c.conventional_read_to_host(records, record_bytes),
                _ => c.gather_selections(records, record_bytes),
            })
            .map_err(|e| drive_err(device, e))?;
            ship.add_sim_secs(secs);
            io_secs += secs;
        }
    }
    Ok(RoundOutcome {
        selection,
        select_secs,
        io_secs,
    })
}

/// The drives `config` asks for, unused, each armed with its fault plan.
fn fresh_cluster(config: &NessaConfig) -> SsdCluster {
    let mut device = SsdCluster::new(config.drives, SmartSsdConfig::default());
    for (drive, plan) in &config.fault_plans {
        device.inject_faults(*drive, plan.clone());
    }
    device
}

/// The assembled SmartSSD+GPU training loop.
///
/// The pipeline owns the **target model** (trained on the GPU side), the
/// **selector model** (the structurally-identical network whose weights
/// live on the FPGA as int8), the simulated [`SsdCluster`]
/// ([`NessaConfig::drives`] drives; one by default), and the train / test
/// datasets. [`crate::run_policy`] runs the comparison policies through
/// the same loop, with no selector: they select on the host with the
/// target itself.
///
/// Each epoch follows the paper's five steps: P2P-read the candidate pool
/// to the FPGA, run the selection kernel (quantized forward → gradient
/// proxies → per-class, chunk-partitioned facility location), ship the
/// subset to the GPU, train, and feed quantized weights back. Subset
/// biasing prunes the pool every [`NessaConfig::biasing_drop_every`]
/// epochs; dynamic sizing shrinks the subset fraction when the loss
/// plateaus. With [`NessaConfig::overlap`] the selection round for the
/// *next* epoch runs concurrently with training (see the module docs).
pub struct NessaPipeline {
    config: NessaConfig,
    method: Method,
    target: Network,
    /// The quantized FPGA-side copy; `None` for a baseline, which selects
    /// with the live target.
    selector: Option<Network>,
    train: Dataset,
    test: Dataset,
    device: SsdCluster,
    telemetry: Telemetry,
    history: Vec<(usize, Vec<usize>)>,
}

impl NessaPipeline {
    /// Creates a pipeline.
    ///
    /// `target` and `selector` must be structurally identical networks
    /// (the selector is the FPGA-side copy refreshed by the feedback
    /// loop).
    ///
    /// # Errors
    ///
    /// None at construction, which never runs a network:
    /// [`run`](Self::run) returns [`PipelineError::Config`] if the
    /// networks' parameter shapes differ, the target's input width is not
    /// the data's feature dimension, or the datasets disagree on feature
    /// dimension or class count.
    pub fn new(
        config: NessaConfig,
        target: Network,
        selector: Network,
        train: Dataset,
        test: Dataset,
    ) -> Self {
        Self::with_method(config, Method::Nessa, target, Some(selector), train, test)
    }

    /// A pipeline that selects with `method`. Only NeSSA has a `selector`
    /// (a mismatched one is [`run`](Self::run)'s [`PipelineError::Config`]);
    /// a baseline selects with the target itself.
    pub(crate) fn with_method(
        config: NessaConfig,
        method: Method,
        target: Network,
        selector: Option<Network>,
        train: Dataset,
        test: Dataset,
    ) -> Self {
        Self {
            telemetry: Telemetry::new(&config.telemetry),
            device: fresh_cluster(&config),
            config,
            method,
            target,
            selector,
            train,
            test,
            history: Vec::new(),
        }
    }

    /// Runs the full training loop and returns the report.
    ///
    /// Each run starts on a fresh cluster built from the config, so a
    /// second run reports its own device time and traffic. One loop serves
    /// both schedules (module docs). Sequential mode is the determinism
    /// reference: its RNG draw order and its report bytes must never
    /// change.
    ///
    /// # Errors
    ///
    /// Before any work, [`PipelineError::Config`] for a bad input: a
    /// [`NessaConfig`] field out of range (a bad fraction is
    /// [`SelectError::BadFraction`]), a selector shaped unlike the target,
    /// a target whose input width is not the data's feature dimension, or
    /// train and test sets with different dimensions or classes. Then
    /// [`PipelineError::Select`] if the selection kernel rejects its
    /// inputs, [`PipelineError::Kernel`] if a selection chunk exceeds the
    /// FPGA's on-chip memory (enable partitioning or shrink the chunk),
    /// [`PipelineError::Drive`] for a device fault the degradation ladder
    /// could not absorb, and [`PipelineError::AllDrivesLost`] once every
    /// drive has been evicted.
    pub fn run(&mut self) -> Result<RunReport, PipelineError> {
        self.check_inputs()?;
        // Every run starts on unused drives: no clock, traffic or fault
        // plan progress carries over from an earlier run.
        self.device = fresh_cluster(&self.config);
        self.history.clear();
        // Forward FLOPs per training sample, the same for the target and
        // the selector (they share a structure): the GPU and FPGA cost
        // models' compute term.
        let flops_per_sample = self.target.flops_per_sample();
        let cfg = self.config.clone();
        // `select_every` is a public field; 0 means "every epoch", like 1.
        let select_every = cfg.select_every.max(1);
        let n = self.train.len();
        let mut master = Rng64::new(cfg.seed);
        // Overlapped rounds draw from one stream per epoch, pre-split
        // *before* any other draw: the worker's randomness is fixed at run
        // start, so the subsets it picks cannot depend on how the two
        // threads interleave (or on the trainer's draws from the master).
        // Sequential rounds share the master stream with the trainer.
        let mut streams: Vec<Rng64> = if cfg.overlap {
            (0..cfg.epochs).map(|_| master.split()).collect()
        } else {
            Vec::new()
        };
        let mut opt = Sgd::new(SgdConfig::default());
        let schedule = MultiStepLr::paper_schedule(cfg.epochs).with_base_lr(cfg.base_lr);
        // §3.2.2: a 5-epoch loss window, and the pool never shrinks below
        // 40 % of the training set.
        let mut tracker = LossTracker::new(
            n,
            5,
            cfg.biasing_drop_every,
            cfg.biasing_drop_fraction,
            ((n as f32) * 0.4) as usize,
        );
        let mut sizer = SubsetSizer::new(
            cfg.subset_fraction,
            cfg.sizing_threshold,
            cfg.sizing_factor,
            cfg.sizing_min_fraction.min(cfg.subset_fraction),
        );
        // The candidate pool a round selects from.
        let pool_of = |tracker: &LossTracker| -> Vec<usize> {
            if cfg.subset_biasing {
                tracker.active_pool().to_vec()
            } else {
                (0..n).collect()
            }
        };
        // Initialize the FPGA's selector with a quantized snapshot of the
        // (randomly initialized) target, as the system would at deployment.
        if let Some(selector) = &mut self.selector {
            QuantizedModel::from_network(&mut self.target).apply_to(selector);
        }
        let mut selection = Selection::default();
        let mut report = RunReport {
            name: "nessa".into(),
            train_size: n,
            ..RunReport::default()
        };
        let select_metrics = SelectMetrics::from_telemetry(&self.telemetry);
        let train_metrics = TrainMetrics::from_telemetry(&self.telemetry);
        let health = HealthMonitor::new(&self.telemetry);
        health.set_drives_alive(self.device.len());
        let mut fraction = cfg.subset_fraction;
        // Forward + backward ≈ 3× the forward cost; feeds the
        // deterministic GPU-side cost model for the overlap ledger.
        let train_flops = 3 * flops_per_sample;
        let gpu = DeviceSpec::v100();
        // The round selected on the worker during the previous epoch,
        // waiting to be consumed, and the feedback staleness (in epochs)
        // behind the subset currently in `selection`.
        let mut pending: Option<RoundOutcome> = None;
        let mut staleness = 0usize;
        for epoch in 0..cfg.epochs {
            let lr = schedule.lr_at(epoch);
            let mut epoch_span = self.telemetry.span("epoch").with_attr("epoch", epoch);
            let ctx = RoundCtx {
                cfg: &cfg,
                method: self.method,
                health: &health,
                telemetry: &self.telemetry,
                select_metrics: &select_metrics,
                train: &self.train,
                flops_per_sample,
            };
            let mut select_secs = 0.0;
            let mut io_secs = 0.0;
            let mut orec = OverlapRecord::default();
            if epoch % select_every == 0 || selection.is_empty() {
                if let Some(out) = pending.take() {
                    // Double-buffered hand-off: the subset was selected
                    // during the previous epoch (its cost is on that
                    // epoch's ledger) with feedback one epoch stale.
                    selection = out.selection;
                    staleness = 1;
                } else {
                    // Synchronous round: every round when sequential, the
                    // epoch-0 prologue when overlapped.
                    let rng = if cfg.overlap {
                        &mut streams[epoch]
                    } else {
                        &mut master
                    };
                    let out = selection_round(
                        &ctx,
                        &mut self.device,
                        self.selector.as_ref().unwrap_or(&self.target),
                        epoch,
                        pool_of(&tracker),
                        fraction,
                        rng,
                    )?;
                    orec.sync_secs = out.select_secs + out.io_secs;
                    select_secs += out.select_secs;
                    io_secs += out.io_secs;
                    selection = out.selection;
                    staleness = 0;
                    self.history.push((epoch, selection.indices.clone()));
                }
            }
            orec.staleness = staleness;
            // Compute only: the ship phase already carried the subset to
            // the GPU.
            orec.train_secs = gpu.train_secs(selection.len() as u64, train_flops);
            // Overlapped: the round first used at the next epoch runs on a
            // worker while this epoch trains. It snapshots the pool and
            // fraction *now* — the state left by epoch e−1 — so it sees
            // biasing prunes and sizing updates one epoch stale, exactly
            // like the weights it selects with.
            let next = epoch + 1;
            let ahead = cfg.overlap && next < cfg.epochs && next % select_every == 0;
            let (outcome, test_acc, joined) = std::thread::scope(|s| {
                // Only a quantized selector can select while the target
                // trains; a baseline selects with the target itself.
                let worker = self.selector.as_ref().filter(|_| ahead).map(|selector| {
                    let pool = pool_of(&tracker);
                    let parent = epoch_span.id();
                    let stream = &mut streams[next];
                    let device = &mut self.device;
                    s.spawn(move || {
                        // Parent the wrapper to the epoch span explicitly:
                        // the worker thread has no open spans of its own,
                        // and the round's scan/select/ship spans then nest
                        // under this wrapper naturally.
                        let mut wrap = ctx
                            .telemetry
                            .span_child_of("overlap.select", parent)
                            .with_attr("epoch", epoch)
                            .with_attr("for_epoch", next);
                        let r =
                            selection_round(&ctx, device, selector, next, pool, fraction, stream);
                        if let Ok(out) = &r {
                            wrap.add_sim_secs(out.select_secs + out.io_secs);
                            wrap.set_attr("subset", out.selection.len());
                        }
                        r
                    })
                });
                // Train the target model on the subset.
                let outcome = {
                    let _train_span = self
                        .telemetry
                        .span("train")
                        .with_attr("epoch", epoch)
                        .with_attr("subset", selection.len());
                    train_epoch_metered(
                        &mut self.target,
                        &mut opt,
                        &self.train,
                        &selection.indices,
                        &selection.weights,
                        cfg.batch_size,
                        lr,
                        &mut master,
                        Some(&train_metrics),
                    )
                };
                // The test pass reads only the trained target, so it runs
                // while the worker may still be selecting.
                let test_acc = evaluate(&self.target, &self.test, cfg.batch_size);
                let joined = worker.map(|w| {
                    let _wait = self
                        .telemetry
                        .span("overlap.wait")
                        .with_attr("epoch", epoch);
                    w.join()
                });
                (outcome, test_acc, joined)
            });
            if let Some(joined) = joined {
                let round = joined.unwrap_or_else(|_| {
                    Err(SelectError::Internal("overlapped selection worker panicked").into())
                })?;
                orec.select_side_secs = round.select_secs + round.io_secs;
                select_secs += round.select_secs;
                io_secs += round.io_secs;
                self.history.push((next, round.selection.indices.clone()));
                pending = Some(round);
            }
            // Feedback: quantize this epoch's weights, broadcast to every
            // live drive (when overlapped, the worker joined above so the
            // device is idle again), refresh the selector.
            if let (true, Some(selector)) = (cfg.feedback, &mut self.selector) {
                let mut feedback = if cfg.overlap {
                    self.telemetry.span("overlap.handoff")
                } else {
                    self.telemetry.span("feedback")
                }
                .with_attr("epoch", epoch);
                let snap = QuantizedModel::from_network(&mut self.target);
                feedback.set_attr("bytes", snap.payload_bytes());
                let payload = snap.payload_bytes() as u64;
                let secs = recover(&mut self.device, &health, &self.telemetry, epoch, |c| {
                    c.broadcast_feedback(payload)
                })
                .map_err(|e| drive_err(&self.device, e))?;
                feedback.add_sim_secs(secs);
                io_secs += secs;
                orec.handoff_secs = secs;
                snap.apply_to(selector);
            }
            // Subset biasing: record subset losses; prune on schedule. The
            // next selection round re-selects from the surviving pool.
            if cfg.subset_biasing {
                tracker.record_epoch(&selection.indices, &outcome.per_sample_losses);
            }
            if cfg.dynamic_sizing {
                fraction = sizer.observe(outcome.mean_loss);
            }
            let record = EpochRecord {
                epoch,
                lr,
                subset_size: selection.len(),
                pool_size: if cfg.subset_biasing {
                    tracker.active_pool().len()
                } else {
                    n
                },
                train_loss: outcome.mean_loss,
                test_acc,
                select_secs,
                io_secs,
                overlap: cfg.overlap.then_some(orec),
            };
            epoch_span.add_sim_secs(record.total_secs());
            epoch_span.set_attr("train_loss", outcome.mean_loss);
            epoch_span.set_attr("test_acc", test_acc);
            epoch_span.finish();
            report.epochs.push(record);
        }
        self.finish_run(&mut report, &health);
        Ok(report)
    }

    /// The run's input check: the config's field rules, then the
    /// structural ones.
    fn check_inputs(&mut self) -> Result<(), PipelineError> {
        self.config.check()?;
        let shapes = self.target.param_shapes();
        let reshaped = |selector: &mut Network| selector.param_shapes() != shapes;
        let dim = self.train.dim();
        let rule = if self.selector.as_mut().is_some_and(reshaped) {
            "target and selector must share structure"
        } else if self.target.input_width().is_some_and(|w| w != dim) {
            "network input width differs from the feature dim"
        } else if dim != self.test.dim() {
            "train/test feature dims differ"
        } else if self.train.classes() != self.test.classes() {
            "train/test classes differ"
        } else {
            return Ok(());
        };
        Err(PipelineError::Config(rule))
    }

    /// Shared run epilogue: traffic/energy roll-ups, fault totals, and
    /// the device-trace bridge into the unified telemetry stream.
    fn finish_run(&mut self, report: &mut RunReport, health: &HealthMonitor) {
        report.traffic = self.device.traffic();
        report.device_energy_j = self.device.energy_joules();
        health.note_faults_injected(self.device.faults_injected());
        health.set_drives_alive(self.device.len());
        // Bridge every drive's phase trace (retired ones included) and
        // roll-up counters into the unified stream, then flush the sinks
        // for this run.
        if self.telemetry.is_enabled() {
            for d in self
                .device
                .drives()
                .iter()
                .chain(self.device.retired_drives())
            {
                for ev in d.trace().events() {
                    self.telemetry.record_device_event(DeviceEvent {
                        phase: ev.phase.label().to_string(),
                        start_s: ev.start_s,
                        duration_s: ev.duration_s,
                        bytes: ev.bytes,
                    });
                }
            }
            let traffic = report.traffic;
            self.telemetry
                .gauge("device.ssd_to_fpga_bytes")
                .set(traffic.ssd_to_fpga as f64);
            self.telemetry
                .gauge("device.fpga_to_host_bytes")
                .set(traffic.fpga_to_host as f64);
            self.telemetry
                .gauge("device.host_to_fpga_bytes")
                .set(traffic.host_to_fpga as f64);
            self.telemetry
                .gauge("device.staged_to_host_bytes")
                .set(traffic.staged_to_host as f64);
            self.telemetry
                .gauge("device.energy_j")
                .set(report.device_energy_j);
            self.telemetry
                .gauge("device.sim_secs")
                .set(report.device_secs());
            let hidden = report.hidden_secs();
            if hidden > 0.0 {
                self.telemetry.gauge("device.hidden_secs").set(hidden);
            }
            self.telemetry.flush();
        }
    }

    /// The simulated drive cluster (traffic/energy counters, eviction
    /// state, per-drive traces).
    pub fn device(&self) -> &SsdCluster {
        &self.device
    }

    /// Every selection round the last [`run`] performed, in round order:
    /// `(epoch the subset is first used for, selected global indices)`.
    /// Epochs that reuse the previous subset (`select_every > 1`) do not
    /// appear. Lets tests compare overlapped and sequential schedules
    /// subset-by-subset.
    ///
    /// [`run`]: NessaPipeline::run
    pub fn selection_history(&self) -> &[(usize, Vec<usize>)] {
        &self.history
    }

    /// The run's telemetry stream (disabled unless
    /// [`NessaConfig::telemetry`] enables a mode).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_data::SynthConfig;
    use nessa_nn::models::mlp;
    use nessa_smartssd::FaultPlan;

    fn small_setup(cfg: &NessaConfig) -> NessaPipeline {
        let synth = SynthConfig {
            train: 300,
            test: 120,
            dim: 8,
            classes: 3,
            cluster_std: 0.6,
            class_sep: 3.5,
            ..SynthConfig::default()
        };
        let (train, test) = synth.generate();
        let mut rng = Rng64::new(cfg.seed);
        let target = mlp(&[8, 24, 3], &mut rng);
        let selector = mlp(&[8, 24, 3], &mut rng);
        NessaPipeline::new(cfg.clone(), target, selector, train, test)
    }

    #[test]
    fn pipeline_trains_to_reasonable_accuracy() {
        let cfg = NessaConfig::new(0.3, 15).with_batch_size(32).with_seed(0);
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        assert_eq!(report.epochs.len(), 15);
        assert!(
            report.final_accuracy() > 0.75,
            "accuracy {}",
            report.final_accuracy()
        );
        // Subset stays near the requested fraction.
        let pct = report.mean_subset_pct();
        assert!((25.0..40.0).contains(&pct), "subset {pct}%");
    }

    #[test]
    fn a_second_run_starts_from_fresh_drives() {
        let mut cfg = NessaConfig::new(0.3, 3).with_batch_size(32).with_seed(5);
        cfg.subset_biasing = false;
        cfg.dynamic_sizing = false;
        let mut p = small_setup(&cfg);
        let first = p.run().unwrap();
        let first_secs = p.device().elapsed_secs();
        let second = p.run().unwrap();
        assert!(first.traffic.ssd_to_fpga > 0);
        assert_eq!(second.traffic, first.traffic);
        assert_eq!(p.device().elapsed_secs(), first_secs);
        // A fault plan's op counters start over too: the same burst fires
        // in every run.
        let faulty = cfg.with_fault_plan(0, FaultPlan::none().with_kernel_abort(1, 1));
        let mut p = small_setup(&faulty);
        p.run().unwrap();
        let fired = p.device().faults_injected();
        p.run().unwrap();
        assert!(fired > 0);
        assert_eq!(p.device().faults_injected(), fired);
    }

    #[test]
    fn traffic_shows_near_storage_benefit() {
        let cfg = NessaConfig::new(0.2, 5).with_batch_size(32).with_seed(1);
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        let t = report.traffic;
        assert!(t.ssd_to_fpga > 0, "flash reads must be accounted");
        assert!(t.fpga_to_host > 0, "subset transfers must be accounted");
        assert!(t.host_to_fpga > 0, "feedback must be accounted");
        // The subset crossing the interconnect is much smaller than what
        // stayed on-board.
        assert!(t.fpga_to_host < t.ssd_to_fpga / 2);
        assert!(report.device_energy_j > 0.0);
    }

    #[test]
    fn subset_biasing_shrinks_pool() {
        let mut cfg = NessaConfig::new(0.3, 9).with_batch_size(32).with_seed(2);
        cfg.biasing_drop_every = 3;
        cfg.biasing_drop_fraction = 0.2;
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        let first_pool = report.epochs.first().unwrap().pool_size;
        let last_pool = report.epochs.last().unwrap().pool_size;
        assert!(last_pool < first_pool, "{last_pool} !< {first_pool}");
    }

    #[test]
    fn dynamic_sizing_reduces_subset() {
        let mut cfg = NessaConfig::new(0.5, 12)
            .with_batch_size(32)
            .with_dynamic_sizing(true)
            .with_seed(3);
        cfg.sizing_threshold = 0.5; // aggressive: shrink on <50 % reduction
        cfg.sizing_factor = 0.8;
        cfg.sizing_min_fraction = 0.1;
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        let first = report.epochs.first().unwrap().subset_size;
        let last = report.epochs.last().unwrap().subset_size;
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn memory_run_publishes_fault_counters_and_live_drives() {
        use nessa_telemetry::TelemetrySettings;
        let cfg = NessaConfig::new(0.3, 3)
            .with_batch_size(32)
            .with_telemetry(TelemetrySettings::memory())
            .with_seed(4);
        let mut p = small_setup(&cfg);
        p.run().unwrap();
        let snap = p.telemetry().metrics_snapshot();
        let counters: std::collections::BTreeMap<_, _> = snap.counters.into_iter().collect();
        for name in [
            "fault.injected",
            "retry.attempts",
            "fallback.host",
            "fallback.random",
            "drive.evicted",
            "data.quarantined",
        ] {
            assert_eq!(
                counters.get(name),
                Some(&0),
                "{name} must read an explicit zero"
            );
        }
        let gauges: std::collections::BTreeMap<_, _> = snap.gauges.into_iter().collect();
        assert_eq!(gauges["health.drives_alive"], 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = NessaConfig::new(0.3, 4).with_batch_size(32).with_seed(9);
        let a = small_setup(&cfg).run().unwrap();
        let b = small_setup(&cfg).run().unwrap();
        assert_eq!(a.accuracy_curve(), b.accuracy_curve());
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn select_every_zero_runs_like_every_epoch() {
        for overlap in [false, true] {
            let every_epoch = NessaConfig::new(0.3, 3)
                .with_batch_size(32)
                .with_seed(5)
                .with_overlap(overlap);
            let mut zero = every_epoch.clone();
            zero.select_every = 0;
            let a = small_setup(&zero).run().unwrap();
            let b = small_setup(&every_epoch).run().unwrap();
            assert_eq!(a.to_jsonl(), b.to_jsonl(), "overlap {overlap}");
        }
    }

    #[test]
    fn overlapped_run_is_deterministic_and_records_ledger() {
        let cfg = NessaConfig::new(0.3, 5)
            .with_batch_size(32)
            .with_seed(9)
            .with_overlap(true);
        let a = small_setup(&cfg).run().unwrap();
        let b = small_setup(&cfg).run().unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        // Epoch 0 is the synchronous prologue; later epochs consume the
        // double-buffered round.
        let first = a.epochs[0].overlap.as_ref().unwrap();
        assert!(first.sync_secs > 0.0, "prologue must be synchronous");
        assert_eq!(first.staleness, 0);
        for rec in &a.epochs[1..] {
            let o = rec.overlap.as_ref().unwrap();
            assert_eq!(o.staleness, 1, "epoch {}", rec.epoch);
            assert_eq!(o.sync_secs, 0.0, "epoch {}", rec.epoch);
        }
        // Every epoch but the last spawns a concurrent round.
        for rec in &a.epochs[..a.epochs.len() - 1] {
            let o = rec.overlap.as_ref().unwrap();
            assert!(o.select_side_secs > 0.0, "epoch {}", rec.epoch);
        }
        assert_eq!(
            a.epochs
                .last()
                .unwrap()
                .overlap
                .as_ref()
                .unwrap()
                .select_side_secs,
            0.0,
            "nothing to select after the final epoch"
        );
    }

    #[test]
    fn overlap_hides_device_seconds() {
        let cfg = NessaConfig::new(0.3, 5)
            .with_batch_size(32)
            .with_seed(12)
            .with_overlap(true);
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        let hidden = report.hidden_secs();
        assert!(hidden > 0.0, "pipelined rounds must hide device time");
        assert!(hidden <= p.device().elapsed_secs() + 1e-12);
        // The hidden portion never exceeds what the rounds cost.
        let side: f64 = report
            .epochs
            .iter()
            .filter_map(|r| r.overlap.as_ref())
            .map(|o| o.select_side_secs)
            .sum();
        assert!(hidden <= side + 1e-12);
    }

    #[test]
    fn selection_history_records_every_round() {
        let cfg = NessaConfig::new(0.3, 4).with_batch_size(32).with_seed(13);
        let mut p = small_setup(&cfg);
        p.run().unwrap();
        let hist = p.selection_history();
        assert_eq!(hist.len(), 4);
        for (i, (epoch, sel)) in hist.iter().enumerate() {
            assert_eq!(*epoch, i);
            assert!(!sel.is_empty());
        }
        // Overlapped mode covers the same rounds, in the same order.
        let mut q = small_setup(&cfg.clone().with_overlap(true));
        q.run().unwrap();
        let epochs: Vec<usize> = q.selection_history().iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![0, 1, 2, 3]);
    }
}
