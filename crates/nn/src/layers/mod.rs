//! Layers with explicit forward/backward passes.
//!
//! Every layer caches whatever it needs during [`Layer::forward`] and
//! consumes that cache in [`Layer::backward`]; gradients accumulate into
//! [`Param::grad`] and are consumed by the optimizer.

mod bottleneck;
mod conv;
mod norm;
mod pool;

pub use bottleneck::Bottleneck;
pub use conv::Conv2d;
pub use norm::{BatchNorm1d, BatchNorm2d};
pub use pool::{GlobalAvgPool, MaxPool2};

use nessa_tensor::ops::{add_bias_rows, relu_grad_mask, sum_axis0};
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

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.shape().dims());
    }
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches activations, `backward` must be
/// called with the gradient of the loss w.r.t. the layer's output *after*
/// the corresponding `forward`, and returns the gradient w.r.t. the input.
pub trait Layer: Send {
    /// Runs the layer on a batch. `train` selects training behaviour
    /// (e.g. batch statistics in batch-norm).
    ///
    /// The `Send` supertrait lets a whole [`crate::models::Network`]
    /// move to a worker thread (layers are plain tensors), which the
    /// overlapped pipeline relies on to run selection concurrently with
    /// training.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients, and returns the gradient w.r.t.
    /// the layer's input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every trainable parameter (used by optimizers and the
    /// quantizer). Layers without parameters use the default no-op.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Multiply-accumulate-dominated FLOPs per input sample for the forward
    /// pass (backward is modelled as 2× forward, as is conventional).
    fn flops_per_sample(&self) -> u64 {
        0
    }

    /// Short human-readable layer name for debugging.
    fn name(&self) -> &'static str;
}

/// Fully-connected layer `y = xW^T + b` with He-normal initialization.
///
/// The weight is stored `out × in`, which is what the optimizer, the
/// quantizer and [`crate::models::Network::export_weights`] see. The
/// forward pass multiplies by an `in × out` copy built on first use, so it
/// runs through the vectorized [`Tensor::matmul`] and still sums each
/// output in order. [`Layer::visit_params`] drops that copy before it
/// hands out the weight, and every weight write goes through it, so the
/// copy is never stale.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    weight_t: Option<Tensor>,
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
            weight_t: None,
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
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear expects a 2-D batch");
        assert_eq!(x.dim(1), self.in_features, "Linear input width mismatch");
        let weight = &self.weight.value;
        let weight_t = self.weight_t.get_or_insert_with(|| weight.transpose());
        let mut y = x.matmul(weight_t);
        add_bias_rows(&mut y, &self.bias.value);
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward before forward");
        // dW = g^T x ; db = sum_rows(g) ; dx = g W
        let gw = grad_out.matmul_transa(x);
        self.weight.grad += &gw;
        self.bias.grad += &sum_axis0(grad_out);
        grad_out.matmul(&self.weight.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.weight_t = None;
        f(&mut self.weight);
        f(&mut self.bias);
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
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.cached_input = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Relu::backward before forward");
        let mask = relu_grad_mask(x);
        grad_out
            .try_zip(&mask, "relu-backward", |g, m| g * m)
            .expect("relu gradient shape mismatch")
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
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
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

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let n = grad_out.dim(0);
        grad_out.reshape(&[n, self.c * self.h * self.w])
    }

    fn name(&self) -> &'static str {
        "to_image"
    }
}

/// Reshapes `[n, c, h, w]` activations into `[n, c*h*w]` rows.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert!(x.ndim() >= 2, "Flatten expects a batched tensor");
        let n = x.dim(0);
        let rest: usize = x.shape().dims()[1..].iter().product();
        self.cached_dims = Some(x.shape().dims().to_vec());
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cached_dims
            .as_ref()
            .expect("Flatten::backward before forward");
        grad_out.reshape(dims)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Finite-difference check of a layer's input gradient on a small batch.
    pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, tol: f32, train: bool) {
        // Scalar loss: sum of outputs. dL/dy = ones.
        let y = layer.forward(x, train);
        let gin = layer.backward(&Tensor::ones(y.shape().dims()));
        let eps = 1e-3;
        for i in 0..x.numel().min(24) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = layer.forward(&xp, train).sum();
            let fm = layer.forward(&xm, train).sum();
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
        let y = l.forward(&x, true);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut l = Linear::new(3, 4, &mut rng);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        testutil::check_input_gradient(&mut l, &x, 1e-2, true);
    }

    #[test]
    fn linear_weight_gradient_accumulates() {
        let mut rng = Rng64::new(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let _ = l.forward(&x, true);
        let g = Tensor::ones(&[1, 2]);
        let _ = l.backward(&g);
        let _ = l.forward(&x, true);
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
        testutil::check_input_gradient(&mut l, &x, 1e-2, true);
    }

    #[test]
    fn to_image_round_trip() {
        let mut l = ToImage::new(3, 2, 2);
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 12]);
        let y = l.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 3, 2, 2]);
        let back = l.backward(&y);
        assert_eq!(back.shape().dims(), &[2, 12]);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "does not factor")]
    fn to_image_rejects_bad_dims() {
        let mut l = ToImage::new(3, 2, 2);
        let _ = l.forward(&Tensor::zeros(&[1, 10]), true);
    }

    #[test]
    fn flatten_round_trip() {
        let mut l = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = l.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 12]);
        let back = l.backward(&y);
        assert_eq!(back.shape().dims(), &[2, 3, 2, 2]);
        assert_eq!(back.as_slice(), x.as_slice());
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
        assert_eq!(l.flops_per_sample(), 400);
    }
}
