//! Layers with explicit forward/backward passes.
//!
//! Every layer has two passes. [`Layer::infer`] is the eval pass: it
//! borrows the layer shared and writes nothing, so one network can serve
//! several readers at once. [`Layer::forward`] is the training pass: it
//! caches whatever [`Layer::backward`] consumes; gradients accumulate into
//! [`Param::grad`] and are consumed by the optimizer.

mod conv;
mod norm;
mod pool;

pub use conv::Conv2d;
pub use norm::{BatchNorm1d, BatchNorm2d};
pub use pool::GlobalAvgPool;

use nessa_tensor::ops::{add_bias_rows, relu, sum_axis0};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to [`Param::value`].
    pub grad: Tensor,
    /// Whether weight decay applies (disabled for batch-norm scale/shift).
    pub decay: bool,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Self { value, grad, decay }
    }

    /// Resets the gradient to zero in place.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }
}

/// A differentiable network layer.
///
/// A training [`Layer::forward`] caches activations; [`Layer::backward`]
/// must be called with the gradient of the loss w.r.t. the layer's output
/// *after* that forward, and returns the gradient w.r.t. the input.
/// [`Layer::infer`] computes the same function in eval mode (batch-norm
/// reads its running statistics) and touches no state.
///
/// The `Send + Sync` supertraits let a whole [`crate::models::Network`]
/// move to, or be shared with, worker threads (layers are plain tensors):
/// the overlapped pipeline runs selection on a shared borrow of the
/// selector while training runs.
pub trait Layer: Send + Sync {
    /// Eval pass over a batch.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Training pass over a batch: batch statistics where the layer has
    /// them, and caches what [`Layer::backward`] needs.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients, and returns the gradient w.r.t.
    /// the layer's input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Back-propagates `grad_out` into the parameter gradients only, for
    /// the first layer of a network, whose input gradient nothing reads.
    /// The default runs [`Layer::backward`] and drops its result; layers
    /// that can skip the input-gradient product override it.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Visits every trainable parameter (used by optimizers and the
    /// quantizer). Layers without parameters use the default no-op.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// The input width when this is a [`Linear`] layer, `None` otherwise.
    fn linear_in_features(&self) -> Option<usize> {
        None
    }

    /// Multiply-accumulate-dominated forward FLOPs per sample of `x`, a
    /// batch shaped like this layer's input (backward is modelled as 2×
    /// forward, as is conventional).
    fn flops_per_sample(&self, _x: &Tensor) -> u64 {
        0
    }

    /// Short human-readable layer name for debugging.
    fn name(&self) -> &'static str;
}

/// Fully-connected layer `y = xW^T + b` with He-normal initialization.
///
/// The weight is stored `out × in`, which is what the optimizer, the
/// quantizer and [`crate::models::Network::export_weights`] see, and
/// every product reads it in that layout: the forward pass runs the
/// register-tiled [`Tensor::matmul_transb`], so each output is the
/// in-order dot of an input row with a weight row, and no transposed copy
/// exists to go stale. The training forward caches the input for the
/// backward pass.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer mapping `in_features` to `out_features`.
    ///
    /// Weights are He-normal (`std = sqrt(2 / in_features)`); biases start
    /// at zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        let weight = Tensor::randn(&[out_features, in_features], 0.0, std, rng);
        let bias = Tensor::zeros(&[out_features]);
        Self {
            weight: Param::new(weight, true),
            bias: Param::new(bias, true),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Adds `gᵀx` to the weight gradient in place and `Σ_rows g` to the
    /// bias gradient, from the cached input.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward before forward");
        self.weight.grad.add_matmul_transa(grad_out, x);
        self.bias.grad += &sum_axis0(grad_out);
    }
}

impl Layer for Linear {
    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear expects a 2-D batch");
        assert_eq!(x.dim(1), self.in_features, "Linear input width mismatch");
        let mut y = x.matmul_transb(&self.weight.value);
        add_bias_rows(&mut y, &self.bias.value);
        y
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.infer(x);
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.accumulate_param_grads(grad_out);
        // dx = g W, summing only the terms whose coefficient in g is not 0.
        grad_out.matmul(&self.weight.value)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.accumulate_param_grads(grad_out);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn linear_in_features(&self) -> Option<usize> {
        Some(self.in_features)
    }

    fn flops_per_sample(&self, _x: &Tensor) -> u64 {
        2 * self.in_features as u64 * self.out_features as u64
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn infer(&self, x: &Tensor) -> Tensor {
        relu(x)
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_input = Some(x.clone());
        relu(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Relu::backward before forward");
        assert_eq!(x.shape(), grad_out.shape(), "relu gradient shape mismatch");
        // Multiply by the 1/0 mask rather than select, so a negative
        // gradient through a dead unit stays `-0.0`.
        let g = grad_out
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(&g, &v)| g * if v > 0.0 { 1.0 } else { 0.0 })
            .collect();
        Tensor::from_vec(g, grad_out.shape().dims())
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Reshapes flat `[n, d]` rows into `[n, c, h, w]` images — the adapter
/// that lets convolutional networks consume dataset-style flat feature
/// rows (e.g. inside the NeSSA pipeline).
#[derive(Debug, Clone)]
pub struct ToImage {
    c: usize,
    h: usize,
    w: usize,
}

impl ToImage {
    /// Creates an adapter to `c × h × w` images.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        assert!(c > 0 && h > 0 && w > 0, "image dims must be positive");
        Self { c, h, w }
    }
}

impl Layer for ToImage {
    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 2, "ToImage expects flat [n, d] rows");
        assert_eq!(
            x.dim(1),
            self.c * self.h * self.w,
            "feature dim {} does not factor into {}x{}x{}",
            x.dim(1),
            self.c,
            self.h,
            self.w
        );
        x.reshape(&[x.dim(0), self.c, self.h, self.w])
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.infer(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let n = grad_out.dim(0);
        grad_out.reshape(&[n, self.c * self.h * self.w])
    }

    fn name(&self) -> &'static str {
        "to_image"
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Finite-difference check of a layer's input gradient on a small batch.
    pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        // Scalar loss: sum of outputs. dL/dy = ones.
        let y = layer.forward(x);
        let gin = layer.backward(&Tensor::ones(y.shape().dims()));
        let eps = 1e-3;
        for i in 0..x.numel().min(24) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = layer.forward(&xp).sum();
            let fm = layer.forward(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = gin.as_slice()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "grad mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = Rng64::new(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.visit_params(&mut |p: &mut Param| {
            // weight then bias; identify by shape.
            if p.value.ndim() == 2 {
                p.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
            } else {
                p.value = Tensor::from_slice(&[0.5, -0.5]);
            }
        });
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut l = Linear::new(3, 4, &mut rng);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        testutil::check_input_gradient(&mut l, &x, 1e-2);
    }

    #[test]
    fn linear_weight_gradient_accumulates() {
        let mut rng = Rng64::new(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let _ = l.forward(&x);
        let g = Tensor::ones(&[1, 2]);
        let _ = l.backward(&g);
        let _ = l.forward(&x);
        let _ = l.backward(&g);
        let mut grads = Vec::new();
        l.visit_params(&mut |p: &mut Param| grads.push(p.grad.clone()));
        // dW for sum loss with x=1 is all-ones per pass; two passes double it.
        assert!(grads[0].as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        assert!(grads[1].as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn relu_gradient_matches_finite_difference() {
        let mut rng = Rng64::new(3);
        let mut l = Relu::new();
        // Keep inputs away from the kink at 0 for the numeric check.
        let x = Tensor::randn(&[2, 5], 0.0, 1.0, &mut rng).map(|v| {
            if v.abs() < 0.05 {
                v + 0.1
            } else {
                v
            }
        });
        testutil::check_input_gradient(&mut l, &x, 1e-2);
    }

    #[test]
    fn to_image_round_trip() {
        let mut l = ToImage::new(3, 2, 2);
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 12]);
        let y = l.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 3, 2, 2]);
        let back = l.backward(&y);
        assert_eq!(back.shape().dims(), &[2, 12]);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "does not factor")]
    fn to_image_rejects_bad_dims() {
        let l = ToImage::new(3, 2, 2);
        let _ = l.infer(&Tensor::zeros(&[1, 10]));
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones(&[3]), true);
        p.grad = Tensor::ones(&[3]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn linear_flops() {
        let mut rng = Rng64::new(4);
        let l = Linear::new(10, 20, &mut rng);
        assert_eq!(l.flops_per_sample(&Tensor::zeros(&[1, 10])), 400);
    }
}
