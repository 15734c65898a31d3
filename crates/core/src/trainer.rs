//! Shared training-loop machinery: one weighted epoch, evaluation.

use crate::proxy::for_each_eval_batch;
use nessa_data::loader::BatchPlan;
use nessa_data::Dataset;
use nessa_nn::loss::weighted_softmax_cross_entropy;
use nessa_nn::metrics::{accuracy, argmax_rows};
use nessa_nn::models::Network;
use nessa_nn::optim::Sgd;
use nessa_telemetry::{Counter, Histogram, Telemetry};
use nessa_tensor::rng::Rng64;

/// Telemetry handles updated by the training loop, batch by batch.
#[derive(Debug, Clone, Default)]
pub struct TrainMetrics {
    /// Optimizer steps taken (one per mini-batch).
    pub batches: Counter,
    /// Samples consumed (weighted-subset samples, counted with
    /// multiplicity across epochs).
    pub samples: Counter,
    /// Distribution of per-batch weighted mean losses.
    pub batch_loss: Histogram,
}

impl TrainMetrics {
    /// Handles registered under the `train.*` names in `telemetry`'s
    /// metrics registry (detached no-op handles when telemetry is
    /// disabled).
    pub fn from_telemetry(telemetry: &Telemetry) -> Self {
        Self {
            batches: telemetry.counter("train.batches"),
            samples: telemetry.counter("train.samples"),
            batch_loss: telemetry.histogram("train.batch_loss"),
        }
    }
}

/// Result of one training epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// Weighted mean training loss over the epoch.
    pub mean_loss: f32,
    /// Per-sample losses, aligned with the `indices` passed in.
    pub per_sample_losses: Vec<f32>,
}

/// Trains `net` for one epoch on `dataset[indices]` with per-sample
/// `weights` (CRAIG medoid weights; pass all-ones for unweighted).
///
/// Batches are shuffled with `rng`. Gradients are zeroed before each batch;
/// `opt` is stepped once per batch at learning rate `lr`.
///
/// With `metrics`, each mini-batch counts toward `batches`/`samples` and
/// observes its weighted mean loss in the `batch_loss` histogram.
///
/// # Panics
///
/// Panics if `indices` and `weights` lengths differ, `indices` is empty,
/// or `batch_size == 0`.
#[allow(clippy::too_many_arguments)] // one library call site, the pipeline's epoch loop; a struct would obscure the paper's step list
pub fn train_epoch_metered(
    net: &mut Network,
    opt: &mut Sgd,
    dataset: &Dataset,
    indices: &[usize],
    weights: &[f32],
    batch_size: usize,
    lr: f32,
    rng: &mut Rng64,
    metrics: Option<&TrainMetrics>,
) -> EpochOutcome {
    assert_eq!(indices.len(), weights.len(), "index/weight length mismatch");
    assert!(!indices.is_empty(), "cannot train on an empty subset");
    assert!(batch_size > 0, "batch size must be positive");
    let plan = BatchPlan::new(indices.len(), batch_size);
    let mut per_sample = vec![0.0f32; indices.len()];
    let mut loss_sum = 0.0f64;
    let mut weight_sum = 0.0f64;
    for positions in plan.epoch(rng) {
        let batch_idx: Vec<usize> = positions.iter().map(|&p| indices[p]).collect();
        let batch_w: Vec<f32> = positions.iter().map(|&p| weights[p]).collect();
        let (x, y) = dataset.batch(&batch_idx);
        net.zero_grad();
        let logits = net.forward(&x);
        let out = weighted_softmax_cross_entropy(&logits, &y, &batch_w);
        net.backward(&out.grad_logits);
        opt.step(net, lr);
        for (&p, &l) in positions.iter().zip(out.per_sample.iter()) {
            per_sample[p] = l;
        }
        let bw: f64 = batch_w.iter().map(|&w| w as f64).sum();
        loss_sum += out.mean_loss as f64 * bw;
        weight_sum += bw;
        if let Some(m) = metrics {
            m.batches.inc();
            m.samples.add(batch_idx.len() as u64);
            m.batch_loss.observe(out.mean_loss as f64);
        }
    }
    EpochOutcome {
        mean_loss: (loss_sum / weight_sum.max(1e-12)) as f32,
        per_sample_losses: per_sample,
    }
}

/// Test-set accuracy (eval pass, batched).
///
/// # Panics
///
/// Panics if `batch_size == 0`.
pub fn evaluate(net: &Network, dataset: &Dataset, batch_size: usize) -> f32 {
    let mut preds = Vec::with_capacity(dataset.len());
    let all: Vec<usize> = (0..dataset.len()).collect();
    for_each_eval_batch(net, dataset, &all, batch_size, |_, _, logits| {
        preds.extend(argmax_rows(logits));
    });
    accuracy(&preds, dataset.labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_data::SynthConfig;
    use nessa_nn::models::mlp;
    use nessa_nn::optim::SgdConfig;

    fn easy_dataset() -> (Dataset, Dataset) {
        SynthConfig {
            train: 200,
            test: 80,
            dim: 8,
            classes: 4,
            cluster_std: 0.5,
            class_sep: 4.0,
            hard_fraction: 0.0,
            ..SynthConfig::default()
        }
        .generate()
    }

    #[test]
    fn training_reduces_loss_and_lifts_accuracy() {
        let (train, test) = easy_dataset();
        let mut rng = Rng64::new(0);
        let mut net = mlp(&[8, 24, 4], &mut rng);
        let mut opt = Sgd::new(SgdConfig::default());
        let all: Vec<usize> = (0..train.len()).collect();
        let ones = vec![1.0f32; all.len()];
        let acc0 = evaluate(&net, &test, 32);
        let first = train_epoch_metered(
            &mut net, &mut opt, &train, &all, &ones, 32, 0.05, &mut rng, None,
        );
        let mut last = first.clone();
        for _ in 0..15 {
            last = train_epoch_metered(
                &mut net, &mut opt, &train, &all, &ones, 32, 0.05, &mut rng, None,
            );
        }
        let acc = evaluate(&net, &test, 32);
        assert!(
            last.mean_loss < first.mean_loss,
            "{} !< {}",
            last.mean_loss,
            first.mean_loss
        );
        assert!(acc > acc0.max(0.8), "accuracy {acc} (baseline {acc0})");
    }

    #[test]
    fn per_sample_losses_align_with_indices() {
        let (train, _) = easy_dataset();
        let mut rng = Rng64::new(1);
        let mut net = mlp(&[8, 8, 4], &mut rng);
        let mut opt = Sgd::new(SgdConfig::default());
        let idx = vec![3usize, 17, 42];
        let w = vec![1.0f32; 3];
        let out = train_epoch_metered(
            &mut net, &mut opt, &train, &idx, &w, 2, 0.01, &mut rng, None,
        );
        assert_eq!(out.per_sample_losses.len(), 3);
        assert!(out.per_sample_losses.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn subset_training_only_touches_subset() {
        // Training on class-0 samples only should leave class-0 accuracy
        // far ahead of the others.
        let (train, test) = easy_dataset();
        let mut rng = Rng64::new(2);
        let mut net = mlp(&[8, 16, 4], &mut rng);
        let mut opt = Sgd::new(SgdConfig::default());
        let class0: Vec<usize> = train.indices_by_class()[0].clone();
        let w = vec![1.0f32; class0.len()];
        for _ in 0..10 {
            train_epoch_metered(
                &mut net, &mut opt, &train, &class0, &w, 16, 0.05, &mut rng, None,
            );
        }
        let preds: Vec<usize> = {
            let all: Vec<usize> = (0..test.len()).collect();
            let (x, _) = test.batch(&all);
            net.predict(&x)
        };
        // Every prediction collapses to class 0.
        assert!(preds.iter().all(|&p| p == 0));
    }

    #[test]
    fn metered_epoch_counts_batches_and_samples() {
        let (train, _) = easy_dataset();
        let mut rng = Rng64::new(4);
        let mut net = mlp(&[8, 8, 4], &mut rng);
        let mut opt = Sgd::new(SgdConfig::default());
        let idx: Vec<usize> = (0..50).collect();
        let w = vec![1.0f32; 50];
        let metrics = TrainMetrics::default();
        let out = train_epoch_metered(
            &mut net,
            &mut opt,
            &train,
            &idx,
            &w,
            16,
            0.05,
            &mut rng,
            Some(&metrics),
        );
        // 50 samples at batch 16 → 4 optimizer steps (last batch partial).
        assert_eq!(metrics.batches.get(), 4);
        assert_eq!(metrics.samples.get(), 50);
        assert_eq!(metrics.batch_loss.count(), 4);
        assert!(out.mean_loss > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty subset")]
    fn rejects_empty_subset() {
        let (train, _) = easy_dataset();
        let mut rng = Rng64::new(3);
        let mut net = mlp(&[8, 8, 4], &mut rng);
        let mut opt = Sgd::new(SgdConfig::default());
        let _ = train_epoch_metered(&mut net, &mut opt, &train, &[], &[], 4, 0.1, &mut rng, None);
    }
}
