//! Layer timings at a workload's exact shapes. The pipeline's spans stop at
//! the phase level, so this module replays its sequential epoch (the same
//! pool, per-class partition chunks, subset sizes, models and batch sizes)
//! with direct calls into each layer's public functions, and times every
//! call.

use crate::workload::Inputs;
use nessa_core::proxy::gradient_proxies;
use nessa_core::trainer::{evaluate, train_epoch_metered};
use nessa_core::NessaConfig;
use nessa_data::Dataset;
use nessa_nn::models::Network;
use nessa_nn::optim::{MultiStepLr, Sgd, SgdConfig};
use nessa_quant::QuantizedModel;
use nessa_select::facility::{maximize_metered, SimilarityMatrix};
use nessa_select::{fraction_count, SelectError, Selection};
use nessa_tensor::rng::Rng64;
use std::hint::black_box;
use std::time::Instant;

/// One selection round's layer costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTimes {
    /// `gradient_proxies` over the pool: the selector's forward pass.
    pub proxy_s: f64,
    /// `SimilarityMatrix::from_factored`, summed over the round's chunks.
    pub similarity_s: f64,
    /// `maximize_metered` (lazy greedy plus CRAIG weights), summed over the
    /// round's chunks.
    pub greedy_s: f64,
    /// Similarity entries built: the sum of every chunk's size squared.
    pub pairs: u64,
}

/// One epoch's layer costs besides selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochTimes {
    /// Samples the epoch trained on.
    pub subset: usize,
    /// `train_epoch_metered` over the subset.
    pub train_s: f64,
    /// `QuantizedModel::from_network` plus `apply_to`: the feedback step.
    pub feedback_s: f64,
    /// Size of the quantized snapshot on the interconnect.
    pub payload_bytes: u64,
    /// `evaluate` over the test set.
    pub eval_s: f64,
}

/// Everything one replay measured, in run order.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub rounds: Vec<RoundTimes>,
    pub epochs: Vec<EpochTimes>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed().as_secs_f64())
}

/// Replays one run of `inputs`.
///
/// # Errors
///
/// A [`SelectError`] from the greedy maximizer.
pub fn replay(inputs: Inputs) -> Result<Replay, SelectError> {
    let Inputs {
        cfg,
        train,
        test,
        mut target,
        mut selector,
    } = inputs;
    let mut rng = Rng64::new(cfg.seed);
    let mut opt = Sgd::new(SgdConfig::default());
    let schedule = MultiStepLr::paper_schedule(cfg.epochs).with_base_lr(cfg.base_lr);
    QuantizedModel::from_network(&mut target).apply_to(&mut selector);
    let pool: Vec<usize> = (0..train.len()).collect();
    let mut out = Replay::default();
    let mut selection = Selection::default();
    for epoch in 0..cfg.epochs {
        if epoch % cfg.select_every == 0 {
            let (picked, round) = select_round(&cfg, &mut selector, &train, &pool, &mut rng)?;
            selection = picked;
            out.rounds.push(round);
        }
        let lr = schedule.lr_at(epoch);
        let (_, train_s) = timed(|| {
            train_epoch_metered(
                &mut target,
                &mut opt,
                &train,
                &selection.indices,
                &selection.weights,
                cfg.batch_size,
                lr,
                &mut rng,
                None,
            )
        });
        let (payload_bytes, feedback_s) = timed(|| {
            let snapshot = QuantizedModel::from_network(&mut target);
            snapshot.apply_to(&mut selector);
            snapshot.payload_bytes() as u64
        });
        let (_, eval_s) = timed(|| evaluate(&mut target, &test, cfg.batch_size));
        out.epochs.push(EpochTimes {
            subset: selection.len(),
            train_s,
            feedback_s,
            payload_bytes,
            eval_s,
        });
    }
    Ok(out)
}

/// One selection round, partitioned as the pipeline partitions it: per
/// class, random chunks of at most `partition_chunk` candidates, facility
/// location on each chunk, tempered CRAIG weights.
fn select_round(
    cfg: &NessaConfig,
    selector: &mut Network,
    train: &Dataset,
    pool: &[usize],
    rng: &mut Rng64,
) -> Result<(Selection, RoundTimes), SelectError> {
    let fraction = cfg.subset_fraction;
    let chunk = cfg.partition_chunk(fraction);
    let (proxies, proxy_s) = timed(|| gradient_proxies(selector, train, pool, cfg.batch_size));
    let mut round = RoundTimes {
        proxy_s,
        ..RoundTimes::default()
    };
    let mut by_class = vec![Vec::new(); train.classes()];
    for (local, &i) in pool.iter().enumerate() {
        by_class[train.label(i)].push(local);
    }
    // One stream per class, split before any class draws, as the selector
    // does.
    let mut class_rngs: Vec<Rng64> = by_class.iter().map(|_| rng.split()).collect();
    let mut selection = Selection::default();
    for (members, class_rng) in by_class.iter().zip(&mut class_rngs) {
        if members.is_empty() {
            continue;
        }
        for part in class_rng.random_chunks(members.len(), members.len().div_ceil(chunk)) {
            let local: Vec<usize> = part.iter().map(|&i| members[i]).collect();
            let residuals = proxies.residuals.gather_rows(&local);
            let features = proxies.features.gather_rows(&local);
            let (sim, secs) = timed(|| SimilarityMatrix::from_factored(&residuals, &features));
            round.similarity_s += secs;
            round.pairs += (local.len() * local.len()) as u64;
            let k = fraction_count(local.len(), fraction);
            let (picked, secs) = timed(|| maximize_metered(&sim, k, cfg.greedy, class_rng, None));
            round.greedy_s += secs;
            let mut picked = picked?.into_global(&local).into_global(pool);
            for w in &mut picked.weights {
                *w = w.powf(cfg.weight_temper);
            }
            selection.extend(picked);
        }
    }
    Ok((selection, round))
}
