//! Pins the dense training step's bit-exact contract.
//!
//! `Tensor::matmul_transb` runs a register tile of 16 rows of its left
//! operand against two weight rows, with scalar dots on the ragged edges,
//! and `Linear`'s training `forward` and eval `infer` both call it on the
//! weight in its stored `out × in` layout. Every output must still equal, bit
//! for bit, the in-order dot product below (one serial `acc += a * b`
//! chain per output, starting at `0.0`), which exists only here as the
//! reference. No transposed copy of the weight exists, so a weight write
//! (`Sgd::step`, `import_weights`) is visible to the next forward.
//!
//! The rest of the step is pinned the same way: `Network::backward` skips
//! the network-input gradient but leaves every parameter gradient
//! bit-identical to a full backward through every layer, and the fused
//! one-pass `Sgd::step` is bit-identical to the six-pass update it
//! replaced, kept below as the reference.

use nessa_nn::layers::{BatchNorm1d, Layer, Linear, Param, Relu};
use nessa_nn::loss::softmax_cross_entropy;
use nessa_nn::models::{mlp, Network};
use nessa_nn::optim::{Sgd, SgdConfig};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use proptest::prelude::*;

/// `(batch, layer widths)` of the perfbench workloads: select-heavy,
/// train-heavy and pipelined-faulty.
const WORKLOADS: [(usize, &[usize]); 3] = [
    (128, &[32, 64, 10]),
    (16, &[32, 384, 192, 10]),
    (32, &[32, 256, 128, 10]),
];

/// `a (m×k) · bᵀ` for `b` of `n×k`, each output one in-order dot product.
fn dot_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.dim(0), a.dim(1), b.dim(0));
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.as_slice()[i * k + p] * b.as_slice()[j * k + p];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// An `m × k` matrix shaped like post-ReLU activations: about `zero_share`
/// of the entries are exactly `+0.0`, a few are `-0.0`, every fifth row
/// (on average) is zero entirely, and the rest are uniform in
/// `[-scale, scale)`.
fn relu_like(m: usize, k: usize, scale: f32, zero_share: f64, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    let mut data = vec![0.0f32; m * k];
    for row in data.chunks_mut(k.max(1)) {
        if rng.coin(0.2 * zero_share) {
            continue;
        }
        for v in row {
            if rng.coin(zero_share) {
                continue;
            }
            *v = if rng.coin(0.05) {
                -0.0
            } else {
                rng.uniform(-scale, scale)
            };
        }
    }
    Tensor::from_vec(data, &[m, k])
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bits of every parameter value (`grads == false`) or gradient that
/// `visit_params` hands out.
fn param_bits(visit_params: impl FnOnce(&mut dyn FnMut(&mut Param)), grads: bool) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    visit_params(&mut |p| out.push(bits(if grads { &p.grad } else { &p.value }.as_slice())));
    out
}

/// A freshly built layer holding `weight` (`out × in`) and `bias`.
fn linear_with(weight: &Tensor, bias: &Tensor) -> Linear {
    let mut layer = Linear::new(weight.dim(1), weight.dim(0), &mut Rng64::new(0));
    layer.visit_params(&mut |p: &mut Param| {
        p.value = if p.value.ndim() == 2 {
            weight.clone()
        } else {
            bias.clone()
        };
    });
    layer
}

/// The dot reference plus the bias, added the way `add_bias_rows` does.
fn linear_reference(x: &Tensor, weight: &Tensor, bias: &Tensor) -> Vec<f32> {
    let n = weight.dim(0);
    let mut out = dot_reference(x, weight);
    for row in out.chunks_mut(n.max(1)) {
        for (v, &b) in row.iter_mut().zip(bias.as_slice()) {
            *v += b;
        }
    }
    out
}

fn assert_kernels_match_reference(x: &Tensor, weight: &Tensor, bias: &Tensor) {
    let expect = bits(&dot_reference(x, weight));
    assert_eq!(bits(x.matmul_transb(weight).as_slice()), expect);
    let mut layer = linear_with(weight, bias);
    let expect = bits(&linear_reference(x, weight, bias));
    assert_eq!(bits(layer.forward(x).as_slice()), expect);
    assert_eq!(bits(layer.infer(x).as_slice()), expect);
    assert_eq!(bits(layer.forward(x).as_slice()), expect);
}

/// A network whose every `Linear` was built after its weights were set.
fn fresh_with(sizes: &[usize], weights: &[Tensor]) -> Network {
    let mut net = mlp(sizes, &mut Rng64::new(99));
    net.import_weights(weights);
    net
}

#[test]
fn kernels_match_dot_reference_at_workload_shapes() {
    // Each workload's training batch through its MLP, layer by layer, on
    // inputs as sparse as the hidden ReLUs leave them, plus the ragged
    // 1000 % batch tail that `evaluate` runs over the test set.
    for (w_i, &(batch, sizes)) in WORKLOADS.iter().enumerate() {
        for m in [batch, 1000 % batch] {
            for (l, w) in sizes.windows(2).enumerate() {
                let seed = 100 * w_i as u64 + 10 * l as u64 + m as u64;
                let x = relu_like(m, w[0], 2.0, if l == 0 { 0.0 } else { 0.5 }, seed);
                let weight = relu_like(w[1], w[0], 0.3, 0.0, seed + 1);
                let bias = relu_like(1, w[1], 0.1, 0.0, seed + 2).reshape(&[w[1]]);
                assert_kernels_match_reference(&x, &weight, &bias);
            }
        }
    }
}

#[test]
fn kernels_match_dot_reference_on_empty_and_all_zero_operands() {
    for (m, k, n) in [
        (0, 0, 0),
        (0, 5, 3),
        (4, 0, 3),
        (16, 0, 3),
        (4, 5, 0),
        (16, 5, 0),
        (1, 1, 1),
        (16, 1, 1),
    ] {
        for zero_share in [0.0, 1.0] {
            let x = relu_like(m, k, 1.0, zero_share, 1);
            let weight = relu_like(n, k, 1.0, zero_share, 2);
            let bias = relu_like(1, n, 1.0, 0.0, 3).reshape(&[n]);
            assert_kernels_match_reference(&x, &weight, &bias);
        }
    }
}

#[test]
fn a_weight_write_by_sgd_step_is_visible_to_the_next_forward() {
    let sizes = [6, 9, 4];
    let mut net = mlp(&sizes, &mut Rng64::new(1));
    let x = relu_like(5, 6, 1.5, 0.2, 2);
    let before = net.forward(&x);
    let loss = softmax_cross_entropy(&before, &[0, 1, 2, 3, 0]);
    net.backward(&loss.grad_logits);
    Sgd::new(SgdConfig::default()).step(&mut net, 0.5);
    let after = net.infer(&x);
    assert_ne!(bits(after.as_slice()), bits(before.as_slice()));
    let expect = fresh_with(&sizes, &net.export_weights()).infer(&x);
    assert_eq!(bits(after.as_slice()), bits(expect.as_slice()));
}

#[test]
fn a_weight_write_by_import_weights_is_visible_to_the_next_forward() {
    let sizes = [7, 11, 3];
    let mut net = mlp(&sizes, &mut Rng64::new(3));
    let x = relu_like(4, 7, 1.0, 0.3, 4);
    let before = net.infer(&x);
    let other = mlp(&sizes, &mut Rng64::new(5)).export_weights();
    net.import_weights(&other);
    let after = net.infer(&x);
    assert_ne!(bits(after.as_slice()), bits(before.as_slice()));
    let expect = fresh_with(&sizes, &other).infer(&x);
    assert_eq!(bits(after.as_slice()), bits(expect.as_slice()));
}

/// The `mlp(sizes)` layer stack rebuilt from `weights`, as separate
/// layers so the reference can run every layer's full backward.
fn reference_layers(sizes: &[usize], weights: &[Tensor]) -> Vec<Box<dyn Layer>> {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for (i, wb) in weights.chunks_exact(2).enumerate() {
        layers.push(Box::new(linear_with(&wb[0], &wb[1])));
        if i + 2 < sizes.len() {
            layers.push(Box::new(Relu::new()));
        }
    }
    layers
}

#[test]
fn parameter_gradients_match_a_full_backward_through_every_layer() {
    for (w_i, &(batch, sizes)) in WORKLOADS.iter().enumerate() {
        let seed = 7 + w_i as u64;
        let mut net = mlp(sizes, &mut Rng64::new(seed));
        let mut reference = reference_layers(sizes, &net.export_weights());
        let labels: Vec<usize> = (0..batch).map(|i| i * 7 % sizes[sizes.len() - 1]).collect();
        // Two passes, so the second accumulates onto non-zero gradients.
        for pass in 0..2 {
            let x = relu_like(batch, sizes[0], 2.0, 0.1, seed * 10 + pass);
            let logits = net.forward(&x);
            let g = softmax_cross_entropy(&logits, &labels).grad_logits;
            net.backward(&g);
            let mut h = x;
            for layer in &mut reference {
                h = layer.forward(&h);
            }
            assert_eq!(bits(h.as_slice()), bits(logits.as_slice()));
            let mut g = g;
            for layer in reference.iter_mut().rev() {
                g = layer.backward(&g);
            }
        }
        let expect: Vec<Vec<u32>> = reference
            .iter_mut()
            .flat_map(|l| param_bits(|f| l.visit_params(f), true))
            .collect();
        assert_eq!(
            param_bits(|f| net.visit_params(f), true),
            expect,
            "{sizes:?}"
        );
    }
}

/// The six-pass update `Sgd::step` ran before it was fused: clone the
/// gradient, fold in weight decay, scale the velocity, add the gradient,
/// then step along the Nesterov or plain direction.
fn six_pass_step(net: &mut Network, velocity: &mut Vec<Tensor>, cfg: SgdConfig, lr: f32) {
    let mut i = 0;
    net.visit_params(&mut |p| {
        if velocity.len() <= i {
            velocity.push(Tensor::zeros(p.value.shape().dims()));
        }
        let v = &mut velocity[i];
        let mut g = p.grad.clone();
        if cfg.weight_decay != 0.0 && p.decay {
            g.axpy(cfg.weight_decay, &p.value);
        }
        v.scale_inplace(cfg.momentum);
        *v += &g;
        if cfg.nesterov {
            g.axpy(cfg.momentum, v);
            p.value.axpy(-lr, &g);
        } else {
            p.value.axpy(-lr, v);
        }
        i += 1;
    });
}

/// Linear → BatchNorm1d (parameters without weight decay) → ReLU → Linear.
fn sgd_net() -> Network {
    let mut rng = Rng64::new(21);
    let mut net = Network::new("sgd");
    net.push(Linear::new(6, 9, &mut rng));
    net.push(BatchNorm1d::new(9));
    net.push(Relu::new());
    net.push(Linear::new(9, 4, &mut rng));
    net
}

/// Gives every parameter a gradient with zeros, `-0.0`s and both signs.
fn set_grads(net: &mut Network, seed: u64) {
    let mut s = seed;
    net.visit_params(&mut |p| {
        s += 1;
        let dims = p.value.shape().dims().to_vec();
        p.grad = relu_like(1, p.value.numel(), 2.0, 0.3, s).reshape(&dims);
    });
}

#[test]
fn fused_sgd_step_matches_the_six_pass_update() {
    for weight_decay in [0.0, 5e-4] {
        for nesterov in [true, false] {
            let cfg = SgdConfig {
                momentum: 0.9,
                weight_decay,
                nesterov,
            };
            let (mut fused, mut reference) = (sgd_net(), sgd_net());
            let mut opt = Sgd::new(cfg);
            let mut velocity = Vec::new();
            for step in 0..6 {
                let lr = 0.1 / (step + 1) as f32;
                set_grads(&mut fused, 100 * step);
                set_grads(&mut reference, 100 * step);
                opt.step(&mut fused, lr);
                six_pass_step(&mut reference, &mut velocity, cfg, lr);
                assert_eq!(
                    param_bits(|f| fused.visit_params(f), false),
                    param_bits(|f| reference.visit_params(f), false),
                    "weight_decay {weight_decay}, nesterov {nesterov}, step {step}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn kernels_are_bit_identical_to_dot_reference(
        m in 0usize..50,
        k in 0usize..41,
        n in 0usize..41,
        zero_share in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let x = relu_like(m, k, 3.0, zero_share, seed);
        let weight = relu_like(n, k, 1.0, zero_share / 4.0, seed ^ 0x9e37);
        let bias = relu_like(1, n, 0.5, 0.0, seed ^ 0x51).reshape(&[n]);
        assert_kernels_match_reference(&x, &weight, &bias);
    }
}
