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
//! [`NessaPipeline::run`] is the only epoch loop. By default it runs the
//! paper's baseline schedule: select, train, feed back, every epoch on
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
use crate::proxy::gradient_proxies;
use crate::report::{EpochRecord, OverlapRecord, RunReport};
use crate::retry::RetryPolicy;
use crate::sizing::SubsetSizer;
use crate::trainer::{evaluate, train_epoch_metered, TrainMetrics};
use nessa_data::Dataset;
use nessa_nn::cost::{epoch_time, DeviceSpec, LoaderSpec};
use nessa_nn::models::Network;
use nessa_nn::optim::{MultiStepLr, Sgd, SgdConfig};
use nessa_quant::QuantizedModel;
use nessa_select::craig::{select_per_class_factored, CraigOptions};
use nessa_select::{random, SelectError, SelectMetrics, Selection};
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

/// Shared, read-only context one selection round needs besides the
/// device and the selector network. Everything here is thread-shareable
/// so the overlapped schedule can run a round on a worker thread while
/// the main thread trains.
#[derive(Clone, Copy)]
struct RoundCtx<'a> {
    cfg: &'a NessaConfig,
    health: &'a HealthMonitor,
    telemetry: &'a Telemetry,
    select_metrics: &'a SelectMetrics,
    train: &'a Dataset,
}

/// The ladder rung a selection round is on, which decides who computes
/// the picks and whether they still have to be shipped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// The scan put the pool on the FPGA and the device kernel selects;
    /// the subset ships to the GPU.
    Device,
    /// The P2P or kernel path is out and the pool was staged to the host
    /// instead: selection runs host-side and the ship phase is free.
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

/// One full selection round for the subset first used at `epoch`:
/// scan the candidate pool flash → FPGA, quarantine corrupt records,
/// run the quantized forward + facility-location kernel (with the full
/// degradation ladder), and ship the subset to the GPU.
///
/// The round draws only from `rng`; the caller decides whether that is
/// the run's master stream (sequential mode) or the epoch's pre-split
/// stream (overlap mode).
fn selection_round(
    ctx: &RoundCtx<'_>,
    device: &mut SsdCluster,
    selector: &mut Network,
    epoch: usize,
    mut pool: Vec<usize>,
    fraction: f32,
    rng: &mut Rng64,
) -> Result<RoundOutcome, PipelineError> {
    let cfg = ctx.cfg;
    let mut select_secs = 0.0;
    let mut io_secs = 0.0;
    let record_bytes = ctx.train.bytes_per_sample() as u64;
    // (1) Stream the candidate pool from flash to the FPGA.
    let scanned = {
        let mut scan = ctx
            .telemetry
            .span("scan")
            .with_attr("epoch", epoch)
            .with_attr("records", pool.len());
        let r = recover(device, ctx.health, ctx.telemetry, epoch, |c| {
            c.parallel_scan(pool.len() as u64, record_bytes)
        });
        if let Ok(secs) = &r {
            scan.add_sim_secs(*secs);
        }
        r
    };
    let mut rung = match scanned {
        Ok(secs) => {
            io_secs += secs;
            Rung::Device
        }
        Err(e) if device.is_empty() => return Err(drive_err(device, e)),
        Err(_) => {
            // P2P path out beyond recovery: degrade to the conventional
            // staged read through the host. If that fails too, no path
            // to the data is left.
            io_secs += stage_to_host(ctx, device, epoch, pool.len() as u64, record_bytes)
                .map_err(|e| drive_err(device, e))?;
            Rung::Host
        }
    };
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
    // (2) Quantized forward pass → last-layer gradient proxies
    // (outer-product space, compared via the factored distance so
    // nothing of size classes × features is materialized).
    let mut select_span = ctx
        .telemetry
        .span("select")
        .with_attr("epoch", epoch)
        .with_attr("pool", pool.len());
    let proxies = gradient_proxies(selector, ctx.train, &pool, cfg.batch_size);
    let feature_dim = proxies.features.dim(1);
    let pool_labels: Vec<usize> = pool.iter().map(|&i| ctx.train.label(i)).collect();
    let chunk = cfg.partitioning.then(|| cfg.partition_chunk(fraction));
    let opts = CraigOptions {
        variant: cfg.greedy,
        partition_chunk: chunk,
        threads: cfg.threads,
        metrics: Some(ctx.select_metrics.clone()),
    };
    // Charge the kernel's simulated time.
    // The kernel compares outer-product gradients through the
    // ‖a‖²‖b‖² − 2(a·a')(b·b') factorization, so its per-pair cost
    // scales with classes + feature_dim, not the product.
    let profile = KernelProfile {
        samples: pool.len() as u64,
        forward_macs_per_sample: selector.flops_per_sample() / 2,
        proxy_dim: ctx.train.classes() + feature_dim,
        chunk: chunk.unwrap_or_else(|| {
            // Without partitioning the kernel tiles at the largest class
            // size.
            pool_labels
                .iter()
                .fold(vec![0usize; ctx.train.classes()], |mut acc, &y| {
                    acc[y] += 1;
                    acc
                })
                .into_iter()
                .max()
                .unwrap_or(1)
        }),
        k_per_chunk: cfg.batch_size,
    };
    let mut kernel_secs = 0.0;
    if rung == Rung::Device {
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
    // (3) The selection math: facility location when any compute path is
    // available (device and host produce the same picks — the simulation
    // models time, not arithmetic), seeded random picks as the last
    // rung.
    let maybe = if rung == Rung::Random {
        None
    } else {
        match select_per_class_factored(
            &proxies.residuals,
            &proxies.features,
            &pool_labels,
            ctx.train.classes(),
            fraction,
            &opts,
            rng,
        ) {
            Ok(local) => Some(local),
            // An internal invariant breach is a selector bug; degrade
            // the round rather than lose the run.
            Err(SelectError::Internal(_)) => None,
            Err(e) => return Err(e.into()),
        }
    };
    let local = match maybe {
        Some(mut local) => {
            // Temper the medoid weights (see NessaConfig::weight_temper).
            for w in &mut local.weights {
                *w = w.powf(cfg.weight_temper);
            }
            local
        }
        None => {
            ctx.health.note_fallback_random();
            let mut fb = ctx
                .telemetry
                .span("fallback")
                .with_attr("epoch", epoch)
                .with_attr("rung", "random");
            let sel =
                random::select_per_class_checked(&pool_labels, ctx.train.classes(), fraction, rng)?;
            fb.set_attr("subset", sel.len());
            sel
        }
    };
    let selection = local.into_global(&pool);
    select_span.add_sim_secs(kernel_secs);
    select_span.set_attr("subset", selection.len());
    select_span.finish();
    select_secs += kernel_secs;
    // (4) Ship the subset to the GPU. When the round already staged the
    // pool to the host, the subset is there — no further transfer.
    {
        let mut ship = ctx
            .telemetry
            .span("ship")
            .with_attr("epoch", epoch)
            .with_attr("records", selection.len());
        if rung != Rung::Host {
            let secs = recover(device, ctx.health, ctx.telemetry, epoch, |c| {
                c.gather_selections(selection.len() as u64, record_bytes)
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

/// The assembled SmartSSD+GPU training loop.
///
/// The pipeline owns the **target model** (trained on the GPU side), the
/// **selector model** (the structurally-identical network whose weights
/// live on the FPGA as int8), the simulated [`SsdCluster`]
/// ([`NessaConfig::drives`] drives; one by default), and the train / test
/// datasets.
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
    target: Network,
    selector: Network,
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
    /// # Panics
    ///
    /// Panics if the two networks have different parameter structures or
    /// the datasets disagree on feature dimension / class count.
    pub fn new(
        config: NessaConfig,
        mut target: Network,
        mut selector: Network,
        train: Dataset,
        test: Dataset,
    ) -> Self {
        let t_shapes: Vec<_> = target
            .export_weights()
            .iter()
            .map(|w| w.shape().dims().to_vec())
            .collect();
        let s_shapes: Vec<_> = selector
            .export_weights()
            .iter()
            .map(|w| w.shape().dims().to_vec())
            .collect();
        assert_eq!(
            t_shapes, s_shapes,
            "target and selector must share structure"
        );
        assert_eq!(train.dim(), test.dim(), "train/test feature dims differ");
        assert_eq!(train.classes(), test.classes(), "train/test classes differ");
        let telemetry = Telemetry::new(&config.telemetry);
        let mut device = SsdCluster::new(config.drives.max(1), SmartSsdConfig::default());
        for (drive, plan) in &config.fault_plans {
            device.inject_faults(*drive, plan.clone());
        }
        Self {
            config,
            target,
            selector,
            train,
            test,
            device,
            telemetry,
            history: Vec::new(),
        }
    }

    /// Runs the full training loop and returns the report.
    ///
    /// One loop serves both schedules (module docs). Sequential mode is
    /// the determinism reference: its RNG draw order and its report
    /// bytes must never change.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Select`] if the selection kernel rejects its
    /// inputs, [`PipelineError::Kernel`] if a selection chunk exceeds the
    /// FPGA's on-chip memory (enable partitioning or shrink the chunk),
    /// [`PipelineError::Drive`] for a device fault the degradation ladder
    /// could not absorb, and [`PipelineError::AllDrivesLost`] once every
    /// drive has been evicted.
    pub fn run(&mut self) -> Result<RunReport, PipelineError> {
        self.history.clear();
        let cfg = self.config.clone();
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
        let mut tracker = LossTracker::new(
            n,
            cfg.biasing_window,
            cfg.biasing_drop_every,
            cfg.biasing_drop_fraction,
            ((n as f32) * cfg.biasing_min_pool) as usize,
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
        QuantizedModel::from_network(&mut self.target).apply_to(&mut self.selector);
        let mut selection = Selection::default();
        let mut report = RunReport {
            name: "nessa".into(),
            train_size: n,
            ..RunReport::default()
        };
        let select_metrics = SelectMetrics::from_telemetry(&self.telemetry);
        let train_metrics = TrainMetrics::from_telemetry(&self.telemetry);
        let mut health = HealthMonitor::new(&self.telemetry, cfg.epochs);
        health.set_drives_alive(self.device.len());
        let mut fraction = cfg.subset_fraction;
        // Forward + backward ≈ 3× the forward cost; feeds the
        // deterministic GPU-side cost model for the overlap ledger.
        let train_flops = 3 * self.target.flops_per_sample();
        let gpu = DeviceSpec::v100();
        let loader = LoaderSpec::smartssd_p2p();
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
                health: &health,
                telemetry: &self.telemetry,
                select_metrics: &select_metrics,
                train: &self.train,
            };
            let mut select_secs = 0.0;
            let mut io_secs = 0.0;
            let mut orec = OverlapRecord::default();
            if epoch % cfg.select_every == 0 || selection.is_empty() {
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
                        &mut self.selector,
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
            orec.train_secs = epoch_time(
                &gpu,
                &loader,
                selection.len() as u64,
                train_flops,
                // The subset is already GPU-resident (the ship phase
                // carried it); the training loader streams no bytes.
                0,
            )
            .compute_s;
            // Overlapped: the round first used at the next epoch runs on a
            // worker while this epoch trains. It snapshots the pool and
            // fraction *now* — the state left by epoch e−1 — so it sees
            // biasing prunes and sizing updates one epoch stale, exactly
            // like the weights it selects with.
            let next = epoch + 1;
            let ahead = cfg.overlap && next < cfg.epochs && next % cfg.select_every == 0;
            let (outcome, joined) = std::thread::scope(|s| {
                let worker = ahead.then(|| {
                    let pool = pool_of(&tracker);
                    let parent = epoch_span.id();
                    let stream = &mut streams[next];
                    let device = &mut self.device;
                    let selector = &mut self.selector;
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
                let joined = worker.map(|w| {
                    let _wait = self
                        .telemetry
                        .span("overlap.wait")
                        .with_attr("epoch", epoch);
                    w.join()
                });
                (outcome, joined)
            });
            if let Some(joined) = joined {
                let round = joined.unwrap_or_else(|_| {
                    Err(SelectError::Internal("overlapped selection worker panicked").into())
                })?;
                orec.select_side_secs = round.select_secs + round.io_secs;
                select_secs += round.select_secs;
                io_secs += round.io_secs;
                self.history.push((next, round.selection.indices.clone()));
                // Device time hidden under concurrent training, on the
                // simulated clock.
                self.device
                    .note_overlap_hidden(orec.select_side_secs.min(orec.train_secs));
                pending = Some(round);
            }
            // Feedback: quantize this epoch's weights, broadcast to every
            // live drive (when overlapped, the worker joined above so the
            // device is idle again), refresh the selector.
            if cfg.feedback {
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
                snap.apply_to(&mut self.selector);
            }
            // Subset biasing: record subset losses; prune on schedule. The
            // next selection round re-selects from the surviving pool.
            if cfg.subset_biasing {
                tracker.record_epoch(&selection.indices, &outcome.per_sample_losses);
            }
            if cfg.dynamic_sizing {
                fraction = sizer.observe(outcome.mean_loss);
            }
            let test_acc = evaluate(&mut self.target, &self.test, cfg.batch_size);
            let record = EpochRecord {
                epoch,
                lr,
                subset_size: selection.len(),
                pool_size: pool_of(&tracker).len(),
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
            // Progress gauges: any observer (timeline, JSONL tail) sees
            // throughput and ETA.
            health.epoch_completed(selection.len());
            report.epochs.push(record);
        }
        self.finish_run(&mut report, &health);
        Ok(report)
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
                .gauge("device.energy_j")
                .set(report.device_energy_j);
            self.telemetry
                .gauge("device.sim_secs")
                .set(report.device_secs());
            if self.device.hidden_secs() > 0.0 {
                self.telemetry
                    .gauge("device.hidden_secs")
                    .set(self.device.hidden_secs());
            }
            self.telemetry.flush();
        }
    }

    /// The trained target network (for inspection after [`run`]).
    ///
    /// [`run`]: NessaPipeline::run
    pub fn target_mut(&mut self) -> &mut Network {
        &mut self.target
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
    fn health_gauges_published_during_run() {
        use nessa_telemetry::TelemetrySettings;
        let cfg = NessaConfig::new(0.3, 3)
            .with_batch_size(32)
            .with_telemetry(TelemetrySettings::memory())
            .with_seed(4);
        let mut p = small_setup(&cfg);
        p.run().unwrap();
        let snap = p.telemetry().metrics_snapshot();
        let gauges: std::collections::BTreeMap<_, _> = snap.gauges.into_iter().collect();
        assert_eq!(gauges["health.epochs_done"], 3.0);
        assert!(gauges["health.epoch_secs"] > 0.0);
        assert!(gauges["health.samples_per_sec"] > 0.0);
        // The run is over: nothing remains, so the ETA gauge reads zero.
        assert_eq!(gauges["health.eta_secs"], 0.0);
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
        let hidden = p.device().hidden_secs();
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

    #[test]
    #[should_panic(expected = "share structure")]
    fn rejects_mismatched_selector() {
        let cfg = NessaConfig::new(0.3, 2);
        let synth = SynthConfig {
            train: 50,
            test: 20,
            dim: 8,
            classes: 3,
            ..SynthConfig::default()
        };
        let (train, test) = synth.generate();
        let mut rng = Rng64::new(0);
        let target = mlp(&[8, 24, 3], &mut rng);
        let selector = mlp(&[8, 16, 3], &mut rng);
        let _ = NessaPipeline::new(cfg, target, selector, train, test);
    }
}
