//! Networks: a sequential container and the builder for the models this
//! reproduction trains, MLPs over flat rows. The paper's ResNet costs come
//! from the analytic models in [`crate::flops`].

use crate::layers::{Layer, Linear, Param, Relu};
use crate::metrics::argmax_rows;
use nessa_tensor::rng::Rng64;
use nessa_tensor::{Shape, Tensor};

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// The last layer of every classifier built in this crate is a [`Linear`]
/// head, which lets [`Network::infer_with_features`] expose the
/// penultimate activations — the feature vectors from which NeSSA's
/// selection model computes its gradient proxies.
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Network(name={:?}, layers={:?})", self.name, names)
    }
}

impl Network {
    /// Creates an empty network with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// The network's name (e.g. `"mlp[32, 64, 10]"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Eval pass over a batch: no layer writes any state.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        infer_through(&self.layers, x)
    }

    /// Training pass over a batch: every layer caches what
    /// [`Network::backward`] needs.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut h: Option<Tensor> = None;
        for layer in &mut self.layers {
            h = Some(layer.forward(h.as_ref().unwrap_or(x)));
        }
        h.unwrap_or_else(|| x.clone())
    }

    /// Eval pass that also returns the penultimate activations (the input
    /// to the final layer).
    ///
    /// Returns `(features, logits)`.
    pub fn infer_with_features(&self, x: &Tensor) -> (Tensor, Tensor) {
        let (head, body) = self
            .layers
            .split_last()
            .expect("infer_with_features on an empty network");
        let features = infer_through(body, x);
        let logits = head.infer(&features);
        (features, logits)
    }

    /// Backward pass: accumulates every parameter gradient. The first
    /// layer runs [`Layer::backward_params`], so the gradient with
    /// respect to the network input, which nothing reads, is never
    /// computed.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_logits)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_logits));
    }

    /// Visits every parameter of every layer, in order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Every parameter's shape, in [`Network::visit_params`] order; no
    /// weight is copied.
    pub fn param_shapes(&mut self) -> Vec<Shape> {
        let mut shapes = Vec::new();
        self.visit_params(&mut |p| shapes.push(p.value.shape().clone()));
        shapes
    }

    /// Forward FLOPs per sample summed over layers: `2 · in · out` for
    /// each [`Linear`], read from the layer widths without running them.
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    /// Width of the flat input rows the network accepts, read from its
    /// first layer without running it; `None` when that layer takes any
    /// width.
    pub fn input_width(&self) -> Option<usize> {
        self.layers.first().and_then(|l| l.input_width())
    }

    /// Width of the features a gradient proxy pairs with the residual: the
    /// input width of the network's last [`Linear`] layer (the features
    /// [`Network::infer_with_features`] returns for an MLP), or `0` when it
    /// has none.
    pub fn feature_dim(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|l| l.input_width())
            .unwrap_or(0)
    }

    /// Snapshot of all parameter values, in visiting order.
    pub fn export_weights(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Restores parameter values from a snapshot taken by
    /// [`Network::export_weights`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has the wrong length or any shape differs.
    pub fn import_weights(&mut self, weights: &[Tensor]) {
        let mut i = 0;
        self.visit_params(&mut |p| {
            assert!(i < weights.len(), "weight snapshot too short");
            assert_eq!(
                p.value.shape(),
                weights[i].shape(),
                "weight {i} shape mismatch"
            );
            p.value = weights[i].clone();
            i += 1;
        });
        assert_eq!(i, weights.len(), "weight snapshot too long");
    }

    /// Predicted class per row (eval pass + argmax).
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        argmax_rows(&self.infer(x))
    }
}

/// Runs `x` through `layers`' eval passes in order (a copy of `x` when
/// there are none).
fn infer_through(layers: &[Box<dyn Layer>], x: &Tensor) -> Tensor {
    let mut h: Option<Tensor> = None;
    for layer in layers {
        h = Some(layer.infer(h.as_ref().unwrap_or(x)));
    }
    h.unwrap_or_else(|| x.clone())
}

/// Builds an MLP with ReLU between consecutive [`Linear`] layers.
///
/// `sizes` lists layer widths including input and output, so
/// `&[784, 128, 10]` builds `Linear(784→128) → ReLU → Linear(128→10)`.
///
/// # Panics
///
/// Panics if fewer than two sizes are given.
pub fn mlp(sizes: &[usize], rng: &mut Rng64) -> Network {
    assert!(
        sizes.len() >= 2,
        "mlp needs at least input and output sizes"
    );
    let mut net = Network::new(format!("mlp{sizes:?}"));
    for i in 0..sizes.len() - 1 {
        net.push(Linear::new(sizes[i], sizes[i + 1], rng));
        if i + 2 < sizes.len() {
            net.push(Relu::new());
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;

    #[test]
    fn mlp_shapes() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&[8, 16, 4], &mut rng);
        let x = Tensor::randn(&[5, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x);
        assert_eq!(y.shape().dims(), &[5, 4]);
        assert_eq!(net.len(), 3);
        let shapes: Vec<Vec<usize>> = net
            .param_shapes()
            .iter()
            .map(|s| s.dims().to_vec())
            .collect();
        assert_eq!(shapes, [vec![16, 8], vec![16], vec![4, 16], vec![4]]);
    }

    #[test]
    fn feature_dim_is_the_head_input_width() {
        let mut rng = Rng64::new(12);
        assert_eq!(mlp(&[5, 8, 6, 3], &mut rng).feature_dim(), 6);
        assert_eq!(Network::new("empty").feature_dim(), 0);
    }

    #[test]
    fn infer_with_features_exposes_penultimate() {
        let mut rng = Rng64::new(1);
        let net = mlp(&[6, 12, 3], &mut rng);
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);
        let (feats, logits) = net.infer_with_features(&x);
        assert_eq!(feats.shape().dims(), &[4, 12]);
        assert_eq!(logits.shape().dims(), &[4, 3]);
        assert_eq!(logits.as_slice(), net.infer(&x).as_slice());
    }

    #[test]
    fn export_import_round_trip() {
        let mut rng = Rng64::new(2);
        let mut a = mlp(&[4, 8, 2], &mut rng);
        let mut b = mlp(&[4, 8, 2], &mut rng);
        let w = a.export_weights();
        b.import_weights(&w);
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        let ya = a.infer(&x);
        let yb = b.infer(&x);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn import_rejects_wrong_shapes() {
        let mut rng = Rng64::new(3);
        let mut a = mlp(&[4, 8, 2], &mut rng);
        let mut w = a.export_weights();
        w[0] = Tensor::zeros(&[1, 1]);
        a.import_weights(&w);
    }

    #[test]
    fn tiny_net_learns_a_separable_problem() {
        // Two well-separated Gaussian blobs; a tiny MLP should fit quickly.
        let mut rng = Rng64::new(7);
        let n = 60;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let centre = if class == 0 { -2.0 } else { 2.0 };
            xs.push(rng.normal(centre, 0.5));
            xs.push(rng.normal(centre, 0.5));
            ys.push(class);
        }
        let x = Tensor::from_vec(xs, &[n, 2]);
        let mut net = mlp(&[2, 8, 2], &mut rng);
        let mut opt = crate::optim::Sgd::new(crate::optim::SgdConfig::default());
        for _ in 0..60 {
            net.zero_grad();
            let logits = net.forward(&x);
            let out = softmax_cross_entropy(&logits, &ys);
            net.backward(&out.grad_logits);
            opt.step(&mut net, 0.1);
        }
        let preds = net.predict(&x);
        let correct = preds.iter().zip(&ys).filter(|(p, y)| p == y).count();
        assert!(correct as f32 / n as f32 > 0.95, "accuracy {correct}/{n}");
    }

    #[test]
    fn mlp_flops_are_pinned() {
        // The benchmark workloads' three MLPs and the report goldens' one.
        let mut rng = Rng64::new(13);
        for (sizes, flops) in [
            (&[32, 64, 10][..], 5_376),
            (&[32, 384, 192, 10], 175_872),
            (&[32, 256, 128, 10], 84_480),
            (&[8, 24, 3], 528),
        ] {
            let net = mlp(sizes, &mut rng);
            assert_eq!(net.flops_per_sample(), flops, "{sizes:?}");
        }
    }

    #[test]
    fn debug_shows_layers() {
        let mut rng = Rng64::new(9);
        let net = mlp(&[2, 2], &mut rng);
        assert!(format!("{net:?}").contains("linear"));
    }
}
