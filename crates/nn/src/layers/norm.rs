//! Batch normalization (1-D over features, 2-D over channels).

use super::{Layer, Param};
use nessa_tensor::Tensor;

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.1;

/// Batch normalization over the feature axis of `[n, f]` activations.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    norm: Norm,
}

/// Batch normalization over the channel axis of `[n, c, h, w]` activations.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    norm: Norm,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `features`-wide rows.
    pub fn new(features: usize) -> Self {
        Self {
            norm: Norm::new(features, 2),
        }
    }
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels`-channel feature maps.
    pub fn new(channels: usize) -> Self {
        Self {
            norm: Norm::new(channels, 4),
        }
    }
}

/// What both batch-norm layers share: one scale, shift and pair of running
/// statistics per group (a feature or a channel, axis 1 of the input).
#[derive(Debug, Clone)]
struct Norm {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Rank of the inputs this layer accepts.
    ndim: usize,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    /// Normalized activations x̂, same layout as the input.
    x_hat: Tensor,
    /// Per-group inverse standard deviation.
    inv_std: Vec<f32>,
    /// Number of elements per normalization group (n for 1-D, n*h*w for 2-D).
    group_size: usize,
    in_dims: Vec<usize>,
}

/// Maps a flat element index of a `dims`-shaped tensor to its group
/// (its index along axis 1).
fn group_fn(dims: &[usize]) -> impl Fn(usize) -> usize + Copy {
    let groups = dims[1];
    let inner: usize = dims[2..].iter().product();
    move |i| (i / inner) % groups
}

fn inv_std(var: &[f32]) -> Vec<f32> {
    var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect()
}

impl Norm {
    fn new(groups: usize, ndim: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones(&[groups]), false),
            beta: Param::new(Tensor::zeros(&[groups]), false),
            running_mean: vec![0.0; groups],
            running_var: vec![1.0; groups],
            ndim,
            cache: None,
        }
    }

    fn check(&self, x: &Tensor) {
        assert_eq!(x.ndim(), self.ndim, "batch-norm input rank mismatch");
        assert_eq!(
            x.dim(1),
            self.running_mean.len(),
            "batch-norm channel mismatch"
        );
    }

    /// `x̂ = (x − mean) · inv_std`, per group.
    fn normalize(x: &Tensor, mean: &[f32], inv_std: &[f32]) -> Tensor {
        let group_of = group_fn(x.shape().dims());
        let x_hat = x.as_slice().iter().enumerate().map(|(i, &v)| {
            let g = group_of(i);
            (v - mean[g]) * inv_std[g]
        });
        Tensor::from_vec(x_hat.collect(), x.shape().dims())
    }

    /// `γ · x̂ + β`, per group.
    fn affine(&self, x_hat: &Tensor) -> Tensor {
        let group_of = group_fn(x_hat.shape().dims());
        let (gs, bs) = (self.gamma.value.as_slice(), self.beta.value.as_slice());
        let out = x_hat.as_slice().iter().enumerate().map(|(i, &xh)| {
            let g = group_of(i);
            gs[g] * xh + bs[g]
        });
        Tensor::from_vec(out.collect(), x_hat.shape().dims())
    }

    /// Eval pass: normalizes with the running statistics.
    fn infer(&self, x: &Tensor) -> Tensor {
        self.check(x);
        let x_hat = Self::normalize(x, &self.running_mean, &inv_std(&self.running_var));
        self.affine(&x_hat)
    }

    /// Training pass: normalizes with the batch statistics, folds them
    /// into the running ones and caches x̂ for the backward pass.
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.check(x);
        let groups = self.running_mean.len();
        let group_of = group_fn(x.shape().dims());
        let group_size = x.numel() / groups;
        let mut mean = vec![0.0f32; groups];
        let mut var = vec![0.0f32; groups];
        for (i, &v) in x.as_slice().iter().enumerate() {
            mean[group_of(i)] += v;
        }
        for m in &mut mean {
            *m /= group_size as f32;
        }
        for (i, &v) in x.as_slice().iter().enumerate() {
            let g = group_of(i);
            let d = v - mean[g];
            var[g] += d * d;
        }
        for v in &mut var {
            *v /= group_size as f32;
        }
        for g in 0..groups {
            self.running_mean[g] = (1.0 - MOMENTUM) * self.running_mean[g] + MOMENTUM * mean[g];
            self.running_var[g] = (1.0 - MOMENTUM) * self.running_var[g] + MOMENTUM * var[g];
        }
        let inv_std = inv_std(&var);
        let x_hat = Self::normalize(x, &mean, &inv_std);
        let out = self.affine(&x_hat);
        self.cache = Some(BnCache {
            x_hat,
            inv_std,
            group_size,
            in_dims: x.shape().dims().to_vec(),
        });
        out
    }

    /// Backward pass from the cached normalized activations.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("batch-norm backward before forward");
        assert_eq!(
            grad_out.shape().dims(),
            cache.in_dims.as_slice(),
            "batch-norm backward shape mismatch"
        );
        let groups = self.running_mean.len();
        let group_of = group_fn(&cache.in_dims);
        let m = cache.group_size as f32;
        // Accumulate per-group sums: sum(dy), sum(dy * x̂).
        let mut sum_dy = vec![0.0f32; groups];
        let mut sum_dy_xhat = vec![0.0f32; groups];
        for (i, &dy) in grad_out.as_slice().iter().enumerate() {
            let g = group_of(i);
            sum_dy[g] += dy;
            sum_dy_xhat[g] += dy * cache.x_hat.as_slice()[i];
        }
        for g in 0..groups {
            self.gamma.grad.as_mut_slice()[g] += sum_dy_xhat[g];
            self.beta.grad.as_mut_slice()[g] += sum_dy[g];
        }
        let gs = self.gamma.value.as_slice();
        let mut grad_in = Tensor::zeros(&cache.in_dims);
        for (i, &dy) in grad_out.as_slice().iter().enumerate() {
            let g = group_of(i);
            let xh = cache.x_hat.as_slice()[i];
            grad_in.as_mut_slice()[i] =
                gs[g] * cache.inv_std[g] / m * (m * dy - sum_dy[g] - xh * sum_dy_xhat[g]);
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

impl Layer for BatchNorm1d {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.norm.infer(x)
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.norm.forward(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.norm.backward(grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.norm.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "batchnorm1d"
    }
}

impl Layer for BatchNorm2d {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.norm.infer(x)
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.norm.forward(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.norm.backward(grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.norm.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_tensor::rng::Rng64;

    #[test]
    fn bn1d_normalizes_batch_statistics() {
        let mut rng = Rng64::new(0);
        let mut bn = BatchNorm1d::new(3);
        let x = Tensor::randn(&[64, 3], 5.0, 2.0, &mut rng);
        let y = bn.forward(&x);
        for f in 0..3 {
            let col: Vec<f32> = (0..64).map(|i| y.at(&[i, f])).collect();
            let mean: f32 = col.iter().sum::<f32>() / 64.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn bn2d_normalizes_per_channel() {
        let mut rng = Rng64::new(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[8, 2, 4, 4], -3.0, 4.0, &mut rng);
        let y = bn.forward(&x);
        for c in 0..2 {
            let mut vals = Vec::new();
            for n in 0..8 {
                for h in 0..4 {
                    for w in 0..4 {
                        vals.push(y.at(&[n, c, h, w]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = Rng64::new(2);
        let mut bn = BatchNorm1d::new(2);
        // Warm up the running statistics.
        for _ in 0..200 {
            let x = Tensor::randn(&[32, 2], 10.0, 1.0, &mut rng);
            let _ = bn.forward(&x);
        }
        let x = Tensor::full(&[4, 2], 10.0);
        let y = bn.infer(&x);
        // Inputs at the running mean should normalize to ~0 (γ=1, β=0).
        assert!(y.as_slice().iter().all(|&v| v.abs() < 0.2), "{y:?}");
    }

    #[test]
    fn bn1d_gradient_matches_finite_difference() {
        let mut rng = Rng64::new(3);
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::randn(&[5, 2], 0.0, 1.0, &mut rng);
        // Loss = sum(y^2)/2 so the gradient actually depends on x (plain sum
        // is killed by mean subtraction).
        let y = bn.forward(&x);
        let gin = bn.backward(&y);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = bn.forward(&xp).map(|v| v * v * 0.5).sum();
            let fm = bn.forward(&xm).map(|v| v * v * 0.5).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = gin.as_slice()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "grad at {i}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn gamma_beta_not_weight_decayed() {
        let mut bn = BatchNorm2d::new(4);
        let mut decays = Vec::new();
        bn.visit_params(&mut |p: &mut Param| decays.push(p.decay));
        assert_eq!(decays, vec![false, false]);
    }
}
