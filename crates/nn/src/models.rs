//! Networks: a sequential container, residual blocks, and the model
//! builders used by the paper (ResNet-20/18/50-style nets and MLPs).

use crate::layers::{
    BatchNorm2d, Bottleneck, Conv2d, GlobalAvgPool, Layer, Linear, Param, Relu, ToImage,
};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// The last layer of every classifier built in this crate is a [`Linear`]
/// head, which lets [`Network::forward_with_features`] expose the
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

    /// The network's name (e.g. `"resnet20"`).
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

    /// Full forward pass.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        forward_through(&mut self.layers, x, train)
    }

    /// Forward pass that also returns the penultimate activations
    /// (the input to the final layer).
    ///
    /// Returns `(features, logits)`.
    pub fn forward_with_features(&mut self, x: &Tensor, train: bool) -> (Tensor, Tensor) {
        let (head, body) = self
            .layers
            .split_last_mut()
            .expect("forward_with_features on an empty network");
        let features = forward_through(body, x, train);
        let logits = head.forward(&features, train);
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

    /// Total number of scalar parameters.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.numel());
        n
    }

    /// Forward FLOPs per sample summed over layers (conv layers report their
    /// spatial extent only after a first forward pass).
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    /// Width of the features a gradient proxy pairs with the residual: the
    /// input width of the network's last [`Linear`] layer (the features
    /// [`Network::forward_with_features`] returns for an MLP or CNN head),
    /// or `0` when it has none.
    pub fn feature_dim(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|l| l.linear_in_features())
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

    /// Predicted class per row (eval-mode forward + argmax).
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward(x, false);
        let (n, c) = (logits.dim(0), logits.dim(1));
        (0..n)
            .map(|i| {
                let row = logits.row(i);
                let mut best = 0;
                for j in 1..c {
                    if row[j] > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }
}

/// Runs `x` through `layers` in order (a copy of `x` when there are none).
fn forward_through(layers: &mut [Box<dyn Layer>], x: &Tensor, train: bool) -> Tensor {
    let mut h: Option<Tensor> = None;
    for layer in layers {
        h = Some(layer.forward(h.as_ref().unwrap_or(x), train));
    }
    h.unwrap_or_else(|| x.clone())
}

/// A pre-activationless basic residual block:
/// `relu(bn2(conv2(relu(bn1(conv1 x)))) + shortcut(x))`.
///
/// When `stride > 1` or the channel count changes, the shortcut is a
/// 1×1 strided convolution followed by batch-norm, as in ResNet.
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    cached_input: Option<Tensor>,
    cached_preact: Option<Tensor>,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ResidualBlock(projected_shortcut={})",
            self.shortcut.is_some()
        )
    }
}

impl ResidualBlock {
    /// Creates a basic block mapping `in_ch` to `out_ch` channels with the
    /// given stride on the first convolution.
    pub fn new(in_ch: usize, out_ch: usize, stride: usize, rng: &mut Rng64) -> Self {
        let shortcut = if stride != 1 || in_ch != out_ch {
            Some((
                Conv2d::new(in_ch, out_ch, 1, stride, 0, rng),
                BatchNorm2d::new(out_ch),
            ))
        } else {
            None
        };
        Self {
            conv1: Conv2d::new(in_ch, out_ch, 3, stride, 1, rng),
            bn1: BatchNorm2d::new(out_ch),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_ch, out_ch, 3, 1, 1, rng),
            bn2: BatchNorm2d::new(out_ch),
            shortcut,
            cached_input: None,
            cached_preact: None,
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = self.conv1.forward(x, train);
        h = self.bn1.forward(&h, train);
        h = self.relu1.forward(&h, train);
        h = self.conv2.forward(&h, train);
        h = self.bn2.forward(&h, train);
        let skip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(x, train);
                bn.forward(&s, train)
            }
            None => x.clone(),
        };
        let preact = &h + &skip;
        self.cached_input = Some(x.clone());
        self.cached_preact = Some(preact.clone());
        preact.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let preact = self
            .cached_preact
            .as_ref()
            .expect("ResidualBlock::backward before forward");
        // Through the final ReLU.
        let g = grad_out
            .try_zip(
                preact,
                "resblock-relu",
                |g, p| if p > 0.0 { g } else { 0.0 },
            )
            .expect("resblock gradient shape mismatch");
        // Main branch.
        let mut gb = self.bn2.backward(&g);
        gb = self.conv2.backward(&gb);
        gb = self.relu1.backward(&gb);
        gb = self.bn1.backward(&gb);
        gb = self.conv1.backward(&gb);
        // Shortcut branch.
        let gs = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = bn.backward(&g);
                conv.backward(&t)
            }
            None => g,
        };
        &gb + &gs
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn flops_per_sample(&self) -> u64 {
        let mut n = self.conv1.flops_per_sample() + self.conv2.flops_per_sample();
        if let Some((conv, _)) = &self.shortcut {
            n += conv.flops_per_sample();
        }
        n
    }

    fn name(&self) -> &'static str {
        "resblock"
    }
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

/// Configuration for a scaled residual classifier.
#[derive(Debug, Clone)]
pub struct ResNetConfig {
    /// Input channels (3 for RGB-like data).
    pub in_channels: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Base width (16 in the paper's ResNet-20; smaller in tests).
    pub width: usize,
    /// Residual blocks per stage; the stage widths are
    /// `width, 2*width, 4*width, ...`.
    pub blocks_per_stage: Vec<usize>,
}

impl ResNetConfig {
    /// ResNet-20 shape (3 stages × 3 blocks) at a given width.
    pub fn resnet20(in_channels: usize, classes: usize, width: usize) -> Self {
        Self {
            in_channels,
            classes,
            width,
            blocks_per_stage: vec![3, 3, 3],
        }
    }

    /// ResNet-18 shape (4 stages × 2 blocks) at a given width.
    pub fn resnet18(in_channels: usize, classes: usize, width: usize) -> Self {
        Self {
            in_channels,
            classes,
            width,
            blocks_per_stage: vec![2, 2, 2, 2],
        }
    }

    /// ResNet-50 *shape* (4 stages, 3/4/6/3 blocks) at a given width, built
    /// from basic blocks. The paper's ResNet-50 uses bottleneck blocks; the
    /// basic-block variant preserves depth/stage structure at reproduction
    /// scale (documented substitution, DESIGN.md §2).
    pub fn resnet50(in_channels: usize, classes: usize, width: usize) -> Self {
        Self {
            in_channels,
            classes,
            width,
            blocks_per_stage: vec![3, 4, 6, 3],
        }
    }
}

/// Builds a residual classifier from a [`ResNetConfig`].
pub fn resnet(config: &ResNetConfig, rng: &mut Rng64) -> Network {
    let mut net = Network::new(format!(
        "resnet(w={}, stages={:?})",
        config.width, config.blocks_per_stage
    ));
    // Stem.
    net.push(Conv2d::new(config.in_channels, config.width, 3, 1, 1, rng));
    net.push(BatchNorm2d::new(config.width));
    net.push(Relu::new());
    // Stages.
    let mut in_ch = config.width;
    for (s, &blocks) in config.blocks_per_stage.iter().enumerate() {
        let out_ch = config.width << s;
        for b in 0..blocks {
            let stride = if s > 0 && b == 0 { 2 } else { 1 };
            net.push(ResidualBlock::new(in_ch, out_ch, stride, rng));
            in_ch = out_ch;
        }
    }
    // Head.
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(in_ch, config.classes, rng));
    net
}

/// Builds a ResNet-50-style classifier from bottleneck blocks
/// (stages 3/4/6/3, expansion 4), scaled by `width` — the expanded stage
/// widths are `4·width, 8·width, 16·width, 32·width` (the real ResNet-50
/// is `width = 64`).
pub fn resnet_bottleneck(
    in_channels: usize,
    classes: usize,
    width: usize,
    rng: &mut Rng64,
) -> Network {
    let mut net = Network::new(format!("resnet50-style(w={width})"));
    net.push(Conv2d::new(in_channels, width, 3, 1, 1, rng));
    net.push(BatchNorm2d::new(width));
    net.push(Relu::new());
    let mut in_ch = width;
    for (s, &blocks) in [3usize, 4, 6, 3].iter().enumerate() {
        let out_ch = (width * 4) << s;
        for b in 0..blocks {
            let stride = if s > 0 && b == 0 { 2 } else { 1 };
            net.push(Bottleneck::new(in_ch, out_ch, stride, 4, rng));
            in_ch = out_ch;
        }
    }
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(in_ch, classes, rng));
    net
}

/// Builds a small convolutional classifier (stem + pool + head) for cheap
/// tests and examples where a full residual net is overkill.
pub fn small_cnn(in_channels: usize, classes: usize, width: usize, rng: &mut Rng64) -> Network {
    let mut net = Network::new("small_cnn");
    net.push(Conv2d::new(in_channels, width, 3, 1, 1, rng));
    net.push(BatchNorm2d::new(width));
    net.push(Relu::new());
    net.push(MaxPool2Wrapper::new());
    net.push(Conv2d::new(width, 2 * width, 3, 1, 1, rng));
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(2 * width, classes, rng));
    net
}

/// Like [`small_cnn`], but consuming flat `[n, c*h*w]` feature rows (the
/// layout datasets use) via a leading [`ToImage`] adapter — the form the
/// NeSSA pipeline and policy runner accept directly.
pub fn small_cnn_on_flat(
    (c, h, w): (usize, usize, usize),
    classes: usize,
    width: usize,
    rng: &mut Rng64,
) -> Network {
    let mut net = Network::new("small_cnn_on_flat");
    net.push(ToImage::new(c, h, w));
    net.push(Conv2d::new(c, width, 3, 1, 1, rng));
    net.push(BatchNorm2d::new(width));
    net.push(Relu::new());
    net.push(Conv2d::new(width, 2 * width, 3, 2, 1, rng));
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(2 * width, classes, rng));
    net
}

// MaxPool2 lives in layers::pool; tiny wrapper purely to keep the import
// surface of `small_cnn` local.
use crate::layers::MaxPool2 as MaxPool2Wrapper;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;

    #[test]
    fn mlp_shapes() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&[8, 16, 4], &mut rng);
        let x = Tensor::randn(&[5, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape().dims(), &[5, 4]);
        assert_eq!(net.len(), 3);
    }

    fn assert_param_grads_nonzero(net: &mut Network) {
        let mut grad_sq = 0.0;
        net.visit_params(&mut |p| grad_sq += p.grad.sq_norm());
        assert!(
            grad_sq > 0.0 && grad_sq.is_finite(),
            "grad sq-norm {grad_sq}"
        );
    }

    #[test]
    fn feature_dim_is_the_head_input_width() {
        let mut rng = Rng64::new(12);
        assert_eq!(mlp(&[5, 8, 6, 3], &mut rng).feature_dim(), 6);
        assert_eq!(small_cnn(3, 5, 4, &mut rng).feature_dim(), 8);
        assert_eq!(Network::new("empty").feature_dim(), 0);
    }

    #[test]
    fn forward_with_features_exposes_penultimate() {
        let mut rng = Rng64::new(1);
        let mut net = mlp(&[6, 12, 3], &mut rng);
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);
        let (feats, logits) = net.forward_with_features(&x, false);
        assert_eq!(feats.shape().dims(), &[4, 12]);
        assert_eq!(logits.shape().dims(), &[4, 3]);
    }

    #[test]
    fn export_import_round_trip() {
        let mut rng = Rng64::new(2);
        let mut a = mlp(&[4, 8, 2], &mut rng);
        let mut b = mlp(&[4, 8, 2], &mut rng);
        let w = a.export_weights();
        b.import_weights(&w);
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
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
    fn residual_block_identity_path_shape() {
        let mut rng = Rng64::new(4);
        let mut block = ResidualBlock::new(4, 4, 1, &mut rng);
        let x = Tensor::randn(&[2, 4, 6, 6], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 4, 6, 6]);
        let g = block.backward(&Tensor::ones(y.shape().dims()));
        assert_eq!(g.shape().dims(), x.shape().dims());
    }

    #[test]
    fn residual_block_downsample_shape() {
        let mut rng = Rng64::new(5);
        let mut block = ResidualBlock::new(4, 8, 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn resnet20_config_builds_and_runs() {
        let mut rng = Rng64::new(6);
        let cfg = ResNetConfig::resnet20(3, 10, 4);
        let mut net = resnet(&cfg, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 10]);
        assert!(net.param_count() > 0);
        assert!(net.flops_per_sample() > 0);
    }

    #[test]
    fn resnet_variants_have_expected_depth() {
        assert_eq!(
            ResNetConfig::resnet20(3, 10, 16).blocks_per_stage,
            vec![3, 3, 3]
        );
        assert_eq!(
            ResNetConfig::resnet18(3, 10, 16).blocks_per_stage,
            vec![2, 2, 2, 2]
        );
        assert_eq!(
            ResNetConfig::resnet50(3, 100, 16).blocks_per_stage,
            vec![3, 4, 6, 3]
        );
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
            let logits = net.forward(&x, true);
            let out = softmax_cross_entropy(&logits, &ys);
            net.backward(&out.grad_logits);
            opt.step(&mut net, 0.1);
        }
        let preds = net.predict(&x);
        let correct = preds.iter().zip(&ys).filter(|(p, y)| p == y).count();
        assert!(correct as f32 / n as f32 > 0.95, "accuracy {correct}/{n}");
    }

    #[test]
    fn bottleneck_resnet_builds_and_backprops() {
        let mut rng = Rng64::new(10);
        let mut net = resnet_bottleneck(3, 7, 2, &mut rng);
        let x = Tensor::randn(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape().dims(), &[1, 7]);
        net.backward(&Tensor::ones(&[1, 7]));
        assert_param_grads_nonzero(&mut net);
        // 16 bottleneck blocks + stem(3) + head(2).
        assert_eq!(net.len(), 21);
    }

    #[test]
    fn small_cnn_runs() {
        let mut rng = Rng64::new(8);
        let mut net = small_cnn(3, 5, 4, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 5]);
        net.backward(&Tensor::ones(&[2, 5]));
        assert_param_grads_nonzero(&mut net);
    }

    #[test]
    fn debug_shows_layers() {
        let mut rng = Rng64::new(9);
        let net = mlp(&[2, 2], &mut rng);
        assert!(format!("{net:?}").contains("linear"));
    }
}
