//! Layers with explicit forward/backward passes.
//!
//! Every layer has two passes. [`Layer::infer`] is the eval pass: it
//! borrows the layer shared and writes nothing, so one network can serve
//! several readers at once. [`Layer::forward`] is the training pass: it
//! caches whatever [`Layer::backward`] consumes; gradients accumulate into
//! [`Param::grad`] and are consumed by the optimizer.

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
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Self { value, grad }
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
/// [`Layer::infer`] computes the same function and touches no state.
///
/// The `Send + Sync` supertraits let a whole [`crate::models::Network`]
/// move to, or be shared with, worker threads (layers are plain tensors):
/// the overlapped pipeline runs selection on a shared borrow of the
/// selector while training runs.
pub trait Layer: Send + Sync {
    /// Eval pass over a batch.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Training pass over a batch: caches what [`Layer::backward`] needs.
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

    /// The input width when this is a [`Linear`] layer, `None` for a layer
    /// that takes rows of any width.
    fn input_width(&self) -> Option<usize> {
        None
    }

    /// Multiply-accumulate-dominated forward FLOPs per sample (backward is
    /// modelled as 2× forward, as is conventional).
    fn flops_per_sample(&self) -> u64 {
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
            weight: Param::new(weight),
            bias: Param::new(bias),
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

    fn input_width(&self) -> Option<usize> {
        Some(self.in_features)
    }

    fn flops_per_sample(&self) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of a layer's input gradient on a small batch.
    fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
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
        check_input_gradient(&mut l, &x, 1e-2);
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
        check_input_gradient(&mut l, &x, 1e-2);
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones(&[3]));
        p.grad = Tensor::ones(&[3]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn linear_flops() {
        let mut rng = Rng64::new(4);
        let l = Linear::new(10, 20, &mut rng);
        assert_eq!(l.flops_per_sample(), 400);
    }
}
