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
//! paper §2.2. The pipeline works the same way: it hands the two factors to
//! `nessa_select::craig::select_per_class_factored`, which builds the
//! similarities from them directly. Nothing in the pipeline calls
//! [`GradientProxies::flatten_outer`]; it materializes the outer product,
//! and the tests use it to check that identity.

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

    /// Materializes the flattened outer products: row `i` is
    /// `vec(residual_i ⊗ feature_i)` of length `classes × feature_dim`.
    /// Euclidean distances over these rows equal the last-layer gradient
    /// distances CRAIG's facility location consumes.
    pub fn flatten_outer(&self) -> Tensor {
        let (n, c) = (self.residuals.dim(0), self.residuals.dim(1));
        let f = self.features.dim(1);
        let mut out = Tensor::zeros(&[n, c * f]);
        for i in 0..n {
            let res = self.residuals.row(i);
            let feat = self.features.row(i);
            let row = out.row_mut(i);
            for (ci, &r) in res.iter().enumerate() {
                // nessa-lint: allow(f1-float-eq) — exact-zero skip is a
                // pure optimization; any nonzero residual takes the slow
                // path and computes the same product.
                if r == 0.0 {
                    continue;
                }
                let dst = &mut row[ci * f..(ci + 1) * f];
                for (d, &x) in dst.iter_mut().zip(feat.iter()) {
                    *d = r * x;
                }
            }
        }
        out
    }

    /// Per-sample last-layer gradient norms
    /// (`‖residual‖ · ‖feature‖`), without materializing the outer
    /// product. Large norms mark hard, informative samples.
    pub fn gradient_norms(&self) -> Vec<f32> {
        (0..self.len())
            .map(|i| {
                let r: f32 = self.residuals.row(i).iter().map(|v| v * v).sum();
                let f: f32 = self.features.row(i).iter().map(|v| v * v).sum();
                (r * f).sqrt()
            })
            .collect()
    }
}

/// Computes last-layer gradient proxies for the given samples.
///
/// Runs `selector` in eval mode over `dataset[indices]` in batches of
/// `batch_size` and returns the residual/feature factors, one row per
/// index.
///
/// # Panics
///
/// Panics if any index is out of bounds or `batch_size == 0`.
pub fn gradient_proxies(
    selector: &mut Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
) -> GradientProxies {
    assert!(batch_size > 0, "batch size must be positive");
    let classes = dataset.classes();
    let mut residuals = Tensor::zeros(&[indices.len(), classes]);
    let mut features: Option<Tensor> = None;
    let mut row = 0;
    for chunk in indices.chunks(batch_size) {
        let (x, y) = dataset.batch(chunk);
        let (feats, logits) = selector.forward_with_features(&x, false);
        let probs = softmax_rows(&logits);
        let fdim = feats.dim(1);
        let features = features.get_or_insert_with(|| Tensor::zeros(&[indices.len(), fdim]));
        for (b, &label) in y.iter().enumerate() {
            let dst = residuals.row_mut(row);
            dst.copy_from_slice(probs.row(b));
            dst[label] -= 1.0;
            features.row_mut(row).copy_from_slice(feats.row(b));
            row += 1;
        }
    }
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
    model: &mut Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
) -> Tensor {
    assert!(batch_size > 0, "batch size must be positive");
    let mut out: Option<Tensor> = None;
    let mut row = 0;
    for chunk in indices.chunks(batch_size) {
        let (x, _) = dataset.batch(chunk);
        let (feats, _) = model.forward_with_features(&x, false);
        let fdim = feats.dim(1);
        let out = out.get_or_insert_with(|| Tensor::zeros(&[indices.len(), fdim]));
        for b in 0..chunk.len() {
            out.row_mut(row).copy_from_slice(feats.row(b));
            row += 1;
        }
    }
    out.unwrap_or_else(|| Tensor::zeros(&[0, 0]))
}

/// Per-sample losses under the current model, in the order of `indices`
/// (cross-entropy, eval mode). Used by subset biasing to find learned
/// samples without a backward pass.
///
/// # Panics
///
/// Panics if any index is out of bounds or `batch_size == 0`.
pub fn sample_losses(
    model: &mut Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
) -> Vec<f32> {
    assert!(batch_size > 0, "batch size must be positive");
    let mut out = Vec::with_capacity(indices.len());
    for chunk in indices.chunks(batch_size) {
        let (x, y) = dataset.batch(chunk);
        let logits = model.forward(&x, false);
        let loss = nessa_nn::loss::softmax_cross_entropy(&logits, &y);
        out.extend(loss.per_sample);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_data::SynthConfig;
    use nessa_nn::models::mlp;
    use nessa_tensor::linalg::sq_dist;
    use nessa_tensor::rng::Rng64;

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
        let (mut net, data) = setup();
        let idx: Vec<usize> = (0..20).collect();
        let p = gradient_proxies(&mut net, &data, &idx, 7);
        assert_eq!(p.residuals.shape().dims(), &[20, 3]);
        assert_eq!(p.features.shape().dims(), &[20, 16]);
        assert_eq!(p.len(), 20);
        assert!(!p.is_empty());
    }

    #[test]
    fn residual_rows_sum_to_zero() {
        let (mut net, data) = setup();
        let idx: Vec<usize> = (0..20).collect();
        let p = gradient_proxies(&mut net, &data, &idx, 20);
        for i in 0..20 {
            let s: f32 = p.residuals.row(i).iter().sum();
            assert!(s.abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn flatten_outer_matches_direct_outer_product() {
        let (mut net, data) = setup();
        let idx: Vec<usize> = (0..5).collect();
        let p = gradient_proxies(&mut net, &data, &idx, 2);
        let flat = p.flatten_outer();
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
        let (mut net, data) = setup();
        let idx: Vec<usize> = (0..6).collect();
        let p = gradient_proxies(&mut net, &data, &idx, 3);
        let flat = p.flatten_outer();
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
    fn gradient_norms_match_flattened_norms() {
        let (mut net, data) = setup();
        let idx: Vec<usize> = (0..8).collect();
        let p = gradient_proxies(&mut net, &data, &idx, 4);
        let flat = p.flatten_outer();
        for (i, &n) in p.gradient_norms().iter().enumerate() {
            let direct: f32 = flat.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - direct).abs() < 1e-4, "{n} vs {direct}");
        }
    }

    #[test]
    fn batch_size_does_not_change_result() {
        let (mut net, data) = setup();
        let idx: Vec<usize> = (0..30).collect();
        let a = gradient_proxies(&mut net, &data, &idx, 30).flatten_outer();
        let b = gradient_proxies(&mut net, &data, &idx, 4).flatten_outer();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn embeddings_match_proxy_features() {
        let (mut net, data) = setup();
        let idx: Vec<usize> = (0..10).collect();
        let p = gradient_proxies(&mut net, &data, &idx, 5);
        let e = embeddings(&mut net, &data, &idx, 3);
        assert_eq!(e.as_slice(), p.features.as_slice());
    }

    #[test]
    fn losses_align_with_indices() {
        let (mut net, data) = setup();
        let all: Vec<usize> = (0..10).collect();
        let losses = sample_losses(&mut net, &data, &all, 3);
        assert_eq!(losses.len(), 10);
        let rev: Vec<usize> = all.iter().rev().copied().collect();
        let rev_losses = sample_losses(&mut net, &data, &rev, 3);
        for i in 0..10 {
            assert!((losses[i] - rev_losses[9 - i]).abs() < 1e-6);
        }
    }

    #[test]
    fn losses_are_positive() {
        let (mut net, data) = setup();
        let idx: Vec<usize> = (0..15).collect();
        let losses = sample_losses(&mut net, &data, &idx, 5);
        // Cross-entropy is non-negative; an untrained net can be confidently
        // right on individual samples, where f32 rounds the loss to zero.
        assert!(losses.iter().all(|&l| l >= 0.0 && l.is_finite()));
        assert!(losses.iter().any(|&l| l > 0.0));
    }
}
