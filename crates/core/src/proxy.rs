//! Gradient-proxy computation.
//!
//! CRAIG-style selection needs per-sample gradients, but full gradients are
//! as expensive as training. The standard proxy — used by the paper via
//! \[20\] — is the **last-layer gradient**: for softmax cross-entropy the
//! gradient of the loss with respect to the classifier head's weights is
//! the outer product `(softmax(logits) − one-hot) ⊗ features`, obtainable
//! from a forward pass alone. On NeSSA's FPGA that forward pass runs with
//! the quantized selector model.
//!
//! The outer product never needs to be materialized to compare two
//! samples: `‖a_i b_iᵀ − a_j b_jᵀ‖² = ‖a_i‖²‖b_i‖² + ‖a_j‖²‖b_j‖² −
//! 2 (a_i·a_j)(b_i·b_j)`, so the FPGA kernel's cost per pair is
//! `O(classes + feature_dim)` — the low-operational-intensity property of
//! paper §2.2. The pipeline works the same way: it hands
//! `nessa_select::craig::select_per_class_factored` a closure that runs
//! [`gradient_proxies`] on one class's members, and CRAIG calls it as it
//! selects each class (as the FPGA kernel does, paper §3.2.3) and builds the
//! similarities from the two factors directly. So no pool-wide proxy block
//! exists, and because rows are independent the per-class factors are the
//! pool-wide rows bit for bit. Only this module's tests materialize the
//! outer product, to check that identity.

use nessa_data::Dataset;
use nessa_nn::models::Network;
use nessa_tensor::ops::softmax_rows;
use nessa_tensor::Tensor;

/// Per-sample last-layer gradient factors: softmax residuals
/// `(p − y)` and penultimate features.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientProxies {
    /// `n × classes` softmax residuals.
    pub residuals: Tensor,
    /// `n × feature_dim` penultimate activations.
    pub features: Tensor,
}

impl GradientProxies {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.residuals.dim(0)
    }

    /// True when no samples are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs `net`'s eval pass over `dataset[indices]` in chunks of
/// `batch_size` and hands each chunk's labels, penultimate features and
/// logits to `visit`, in index order. Rows are independent, so the chunk
/// size never changes a result bit.
///
/// # Panics
///
/// Panics if any index is out of bounds or `batch_size == 0`.
pub(crate) fn for_each_eval_batch(
    net: &Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
    mut visit: impl FnMut(&[usize], &Tensor, &Tensor),
) {
    assert!(batch_size > 0, "batch size must be positive");
    for chunk in indices.chunks(batch_size) {
        let (x, y) = dataset.batch(chunk);
        let (feats, logits) = net.infer_with_features(&x);
        visit(&y, &feats, &logits);
    }
}

/// Computes last-layer gradient proxies for the given samples.
///
/// Runs `selector`'s eval pass over `dataset[indices]` in batches of
/// `batch_size` and returns the residual/feature factors, one row per
/// index.
///
/// # Panics
///
/// Panics if any index is out of bounds or `batch_size == 0`.
pub fn gradient_proxies(
    selector: &Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
) -> GradientProxies {
    let n = indices.len();
    let mut residuals = Tensor::zeros(&[n, dataset.classes()]);
    let mut features: Option<Tensor> = None;
    let mut row = 0;
    let visit = |y: &[usize], feats: &Tensor, logits: &Tensor| {
        let probs = softmax_rows(logits);
        let features = features.get_or_insert_with(|| Tensor::zeros(&[n, feats.dim(1)]));
        for (b, &label) in y.iter().enumerate() {
            let dst = residuals.row_mut(row);
            dst.copy_from_slice(probs.row(b));
            dst[label] -= 1.0;
            features.row_mut(row).copy_from_slice(feats.row(b));
            row += 1;
        }
    };
    for_each_eval_batch(selector, dataset, indices, batch_size, visit);
    GradientProxies {
        residuals,
        features: features.unwrap_or_else(|| Tensor::zeros(&[0, 0])),
    }
}

/// Penultimate-layer embeddings for the given samples (the space the
/// K-Centers baseline of Sener & Savarese selects in).
///
/// # Panics
///
/// Panics if any index is out of bounds or `batch_size == 0`.
pub fn embeddings(
    model: &Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
) -> Tensor {
    let mut out: Option<Tensor> = None;
    let mut row = 0;
    for_each_eval_batch(model, dataset, indices, batch_size, |_, feats, _| {
        let out = out.get_or_insert_with(|| Tensor::zeros(&[indices.len(), feats.dim(1)]));
        for b in 0..feats.dim(0) {
            out.row_mut(row).copy_from_slice(feats.row(b));
            row += 1;
        }
    });
    out.unwrap_or_else(|| Tensor::zeros(&[0, 0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{evaluate, train_epoch_metered};
    use nessa_data::SynthConfig;
    use nessa_nn::models::mlp;
    use nessa_nn::optim::{Sgd, SgdConfig};
    use nessa_tensor::linalg::sq_dist;
    use nessa_tensor::rng::Rng64;

    /// Reference: the flattened outer products, row `i` being
    /// `vec(residual_i ⊗ feature_i)` of length `classes × feature_dim`.
    fn flatten_outer(p: &GradientProxies) -> Tensor {
        let (n, c) = (p.residuals.dim(0), p.residuals.dim(1));
        let f = p.features.dim(1);
        let mut out = Tensor::zeros(&[n, c * f]);
        for i in 0..n {
            let feat = p.features.row(i);
            let row = out.row_mut(i);
            for (ci, &r) in p.residuals.row(i).iter().enumerate() {
                for (d, &x) in row[ci * f..(ci + 1) * f].iter_mut().zip(feat) {
                    *d = r * x;
                }
            }
        }
        out
    }

    fn setup() -> (Network, Dataset) {
        let mut rng = Rng64::new(0);
        let cfg = SynthConfig {
            train: 60,
            test: 10,
            dim: 8,
            classes: 3,
            ..SynthConfig::default()
        };
        let (train, _) = cfg.generate();
        let net = mlp(&[8, 16, 3], &mut rng);
        (net, train)
    }

    #[test]
    fn proxies_have_expected_shapes() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..20).collect();
        let p = gradient_proxies(&net, &data, &idx, 7);
        assert_eq!(p.residuals.shape().dims(), &[20, 3]);
        assert_eq!(p.features.shape().dims(), &[20, 16]);
        assert_eq!(p.len(), 20);
        assert!(!p.is_empty());
    }

    #[test]
    fn residual_rows_sum_to_zero() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..20).collect();
        let p = gradient_proxies(&net, &data, &idx, 20);
        for i in 0..20 {
            let s: f32 = p.residuals.row(i).iter().sum();
            assert!(s.abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn flatten_outer_matches_direct_outer_product() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..5).collect();
        let p = gradient_proxies(&net, &data, &idx, 2);
        let flat = flatten_outer(&p);
        assert_eq!(flat.shape().dims(), &[5, 3 * 16]);
        for i in 0..5 {
            for c in 0..3 {
                for f in 0..16 {
                    let expected = p.residuals.at(&[i, c]) * p.features.at(&[i, f]);
                    assert!((flat.at(&[i, c * 16 + f]) - expected).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn outer_distance_factorization_identity() {
        // ‖a_i⊗b_i − a_j⊗b_j‖² = ‖a_i‖²‖b_i‖² + ‖a_j‖²‖b_j‖²
        //                         − 2 (a_i·a_j)(b_i·b_j)
        let (net, data) = setup();
        let idx: Vec<usize> = (0..6).collect();
        let p = gradient_proxies(&net, &data, &idx, 3);
        let flat = flatten_outer(&p);
        for i in 0..6 {
            for j in 0..6 {
                let direct = sq_dist(flat.row(i), flat.row(j));
                let ai: f32 = p.residuals.row(i).iter().map(|v| v * v).sum();
                let aj: f32 = p.residuals.row(j).iter().map(|v| v * v).sum();
                let bi: f32 = p.features.row(i).iter().map(|v| v * v).sum();
                let bj: f32 = p.features.row(j).iter().map(|v| v * v).sum();
                let aa: f32 = p
                    .residuals
                    .row(i)
                    .iter()
                    .zip(p.residuals.row(j))
                    .map(|(&x, &y)| x * y)
                    .sum();
                let bb: f32 = p
                    .features
                    .row(i)
                    .iter()
                    .zip(p.features.row(j))
                    .map(|(&x, &y)| x * y)
                    .sum();
                let factored = ai * bi + aj * bj - 2.0 * aa * bb;
                assert!(
                    (direct - factored).abs() < 1e-3 * (1.0 + direct.abs()),
                    "({i},{j}): {direct} vs {factored}"
                );
            }
        }
    }

    #[test]
    fn batch_size_does_not_change_result() {
        // Rows are independent: every chunking of the eval pass gives the
        // same bits, which is what lets the rows be split across threads.
        let (mut net, data) = setup();
        // One training step, so the weights are no longer at their init.
        let first: Vec<usize> = (0..16).collect();
        let mut opt = Sgd::new(SgdConfig::default());
        let mut rng = Rng64::new(2);
        train_epoch_metered(
            &mut net, &mut opt, &data, &first, &[1.0; 16], 16, 0.1, &mut rng, None,
        );
        let mut idx: Vec<usize> = (0..45).collect();
        rng.shuffle(&mut idx);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let whole = gradient_proxies(&net, &data, &idx, idx.len());
        let embeds = embeddings(&net, &data, &idx, idx.len());
        let acc = evaluate(&net, &data, data.len());
        for batch in [1, 16] {
            let p = gradient_proxies(&net, &data, &idx, batch);
            assert_eq!(bits(&p.residuals), bits(&whole.residuals), "{batch}");
            assert_eq!(bits(&p.features), bits(&whole.features), "{batch}");
            let e = embeddings(&net, &data, &idx, batch);
            assert_eq!(bits(&e), bits(&embeds), "{batch}");
            assert_eq!(evaluate(&net, &data, batch).to_bits(), acc.to_bits());
        }
    }

    #[test]
    fn embeddings_match_proxy_features() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..10).collect();
        let p = gradient_proxies(&net, &data, &idx, 5);
        let e = embeddings(&net, &data, &idx, 3);
        assert_eq!(e.as_slice(), p.features.as_slice());
    }
}
