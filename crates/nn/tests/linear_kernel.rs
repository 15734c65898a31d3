//! Pins the dense training step's bit-exact contract.
//!
//! `Tensor::matmul_transb` runs a register tile of 16 rows of its left
//! operand against 2, 4 or 8 weight rows by dispatch level, stepping down
//! to one on the ragged edge, and `Linear`'s training `forward` and eval `infer` both call it on the
//! weight in its stored `out × in` layout. Every output must still equal, bit
//! for bit, the in-order dot product below (one serial `acc += a * b`
//! chain per output, starting at `0.0`), which exists only here as the
//! reference. No transposed copy of the weight exists, so a weight write
//! (`Sgd::step`, `import_weights`) is visible to the next forward.
//!
//! The backward products are pinned against their own in-order reference:
//! `g·W` (`Tensor::matmul`, the input gradient) and `gᵀ·x`
//! (`Tensor::add_matmul_transa` into zeros, the weight gradient) sum, for
//! every output, exactly the terms whose coefficient in `g` is not `0.0`,
//! in order from `+0.0`, and `Linear::backward` adds that sum once onto the
//! weight gradient it already holds. Because the terms are the same ones, the
//! contract holds for `inf` and `NaN` operands too.
//!
//! The rest of the step is pinned the same way: `Network::backward` skips
//! the network-input gradient but leaves every parameter gradient
//! bit-identical to a full backward through every layer, and the fused
//! one-pass `Sgd::step` is bit-identical to the six-pass update it
//! replaced, kept below as the reference.

use nessa_nn::layers::{Layer, Linear, Param, Relu};
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

/// A bias of `n` values uniform in `[-scale, scale)`, a few of them `-0.0`.
fn bias_like(n: usize, scale: f32, seed: u64) -> Tensor {
    Tensor::from_vec(relu_like(1, n, scale, 0.0, seed).into_vec(), &[n])
}

/// The bits of each value, with every `NaN` read as `f32::NAN`: Rust does
/// not pin the sign or payload of a `NaN` that an operation returns.
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
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
                let bias = bias_like(w[1], 0.1, seed + 2);
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
            let bias = bias_like(n, 1.0, 3);
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

/// Output `(i, j)` of a backward product with `m` rows: `Σ coeff(i, p) ·
/// b[p][j]` over the `p < k` whose coefficient is not `0.0`, summed in `p`
/// order from `+0.0`.
fn backward_reference(
    m: usize,
    k: usize,
    coeff: impl Fn(usize, usize) -> f32,
    b: &Tensor,
) -> Vec<f32> {
    let n = b.dim(1);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let c = coeff(i, p);
                if c != 0.0 {
                    acc += c * b.as_slice()[p * n + j];
                }
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// The reference for `a.matmul(b)`: row `i`'s coefficients are row `i` of
/// `a`.
fn matmul_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let k = a.dim(1);
    backward_reference(a.dim(0), k, |i, p| a.as_slice()[i * k + p], b)
}

/// The reference for `aᵀ · b`: row `i`'s coefficients are column `i` of
/// `a`.
fn matmul_transa_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let m = a.dim(1);
    backward_reference(m, a.dim(0), |i, p| a.as_slice()[p * m + i], b)
}

/// How the zeros of an output gradient `g` fall.
#[derive(Clone, Copy, Debug)]
enum ZeroPattern {
    /// About 90 % zero, with about 43 % of the columns (units) zero in
    /// every row: train-heavy's second hidden layer.
    Sparse90,
    /// Each entry zero with probability 1/2.
    Iid50,
    /// Every even row zero, and 30 % of the rest.
    ZeroRows,
    /// Each entry zero with probability 1/2, and every zero is `-0.0`.
    NegZeros,
}

const ZEROS: [ZeroPattern; 4] = [
    ZeroPattern::Sparse90,
    ZeroPattern::Iid50,
    ZeroPattern::ZeroRows,
    ZeroPattern::NegZeros,
];

/// An `m × k` output gradient whose zeros fall as `zeros` says; outside
/// [`ZeroPattern::NegZeros`] a quarter of the zeros are `-0.0`, and the other
/// entries are uniform in `[-1, 1)`.
fn gradient_like(m: usize, k: usize, zeros: ZeroPattern, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    let dead: Vec<bool> = (0..k)
        .map(|_| matches!(zeros, ZeroPattern::Sparse90) && rng.coin(0.43))
        .collect();
    let mut data = vec![0.0f32; m * k];
    for (i, row) in data.chunks_mut(k.max(1)).enumerate() {
        for (v, &dead) in row.iter_mut().zip(&dead) {
            let zero = match zeros {
                ZeroPattern::Sparse90 => dead || rng.coin(0.82),
                ZeroPattern::Iid50 | ZeroPattern::NegZeros => rng.coin(0.5),
                ZeroPattern::ZeroRows => i % 2 == 0 || rng.coin(0.3),
            };
            *v = if !zero {
                rng.uniform(-1.0, 1.0)
            } else if matches!(zeros, ZeroPattern::NegZeros) || rng.coin(0.25) {
                -0.0
            } else {
                0.0
            };
        }
    }
    Tensor::from_vec(data, &[m, k])
}

/// `t` with about 4 % of its entries replaced by `inf`, `-inf` or `NaN`.
fn with_non_finite(t: &Tensor, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    let mut t = t.clone();
    for v in t.as_mut_slice() {
        if rng.coin(0.04) {
            *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.index(3)];
        }
    }
    t
}

/// `init[i] + add[i]`: one sum added once onto a gradient.
fn accumulated(init: &Tensor, add: &[f32]) -> Vec<f32> {
    init.as_slice()
        .iter()
        .zip(add)
        .map(|(&g, &s)| g + s)
        .collect()
}

/// Checks `g.matmul(weight)` and `gᵀ·x` (`add_matmul_transa` into zeros)
/// against the reference, then two `Linear::backward`s through a layer
/// holding `weight`: the first onto the weight gradient `init` (which holds
/// `-0.0`s), the second, with `g2`, onto what the first left.
fn assert_backward_matches_reference(
    x: &Tensor,
    weight: &Tensor,
    g: &Tensor,
    g2: &Tensor,
    init: &Tensor,
) {
    let ctx = format!(
        "x {:?}, weight {:?}",
        x.shape().dims(),
        weight.shape().dims()
    );
    let dx = matmul_reference(g, weight);
    let dw = matmul_transa_reference(g, x);
    assert_eq!(
        bits(g.matmul(weight).as_slice()),
        bits(&dx),
        "matmul, {ctx}"
    );
    let mut gtx = Tensor::zeros(&[g.dim(1), x.dim(1)]);
    gtx.add_matmul_transa(g, x);
    assert_eq!(bits(gtx.as_slice()), bits(&dw), "add_matmul_transa, {ctx}");

    let mut layer = linear_with(weight, &Tensor::zeros(&[weight.dim(0)]));
    layer.visit_params(&mut |p: &mut Param| {
        if p.value.ndim() == 2 {
            p.grad = init.clone();
        }
    });
    let weight_grad = |layer: &mut Linear| param_bits(|f| layer.visit_params(f), true).remove(0);
    layer.forward(x);
    assert_eq!(
        bits(layer.backward(g).as_slice()),
        bits(&dx),
        "backward dx, {ctx}"
    );
    let after_first = accumulated(init, &dw);
    assert_eq!(
        weight_grad(&mut layer),
        bits(&after_first),
        "backward dW, {ctx}"
    );

    let first = Tensor::from_vec(after_first, weight.shape().dims());
    assert_eq!(
        bits(layer.backward(g2).as_slice()),
        bits(&matmul_reference(g2, weight)),
        "second backward dx, {ctx}"
    );
    let expect = accumulated(&first, &matmul_transa_reference(g2, x));
    assert_eq!(
        weight_grad(&mut layer),
        bits(&expect),
        "second backward dW, {ctx}"
    );
}

#[test]
fn backward_matches_in_order_reference_at_workload_shapes() {
    // Each workload's training batch through every layer of its MLP, under
    // every zero pattern of the output gradient, with an input as sparse as
    // the hidden ReLUs leave it.
    for (w_i, &(batch, sizes)) in WORKLOADS.iter().enumerate() {
        for (l, w) in sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            for (z_i, &zeros) in ZEROS.iter().enumerate() {
                let seed = 1000 * w_i as u64 + 100 * l as u64 + 10 * z_i as u64;
                let x = relu_like(batch, fan_in, 2.0, if l == 0 { 0.0 } else { 0.5 }, seed);
                let weight = relu_like(fan_out, fan_in, 0.3, 0.0, seed + 1);
                let g = gradient_like(batch, fan_out, zeros, seed + 2);
                let g2 = gradient_like(batch, fan_out, zeros, seed + 3);
                let init = relu_like(fan_out, fan_in, 0.5, 0.3, seed + 4);
                assert_backward_matches_reference(&x, &weight, &g, &g2, &init);
            }
        }
    }
}

#[test]
fn backward_matches_in_order_reference_at_edge_widths() {
    // Output widths around the 32-column strip; `k = 0` (no coefficient at
    // all) as an empty batch for `gᵀ·x` and a zero-wide layer for `g·W`.
    let mut seed = 0;
    for n in [1, 31, 32, 33, 384] {
        for (batch, fan_out) in [(0, 3), (5, 0), (1, 1), (3, 33), (16, 40)] {
            for zeros in ZEROS {
                seed += 10;
                let x = relu_like(batch, n, 1.0, 0.4, seed);
                let weight = relu_like(fan_out, n, 1.0, 0.0, seed + 1);
                let g = gradient_like(batch, fan_out, zeros, seed + 2);
                let g2 = gradient_like(batch, fan_out, zeros, seed + 3);
                let init = relu_like(fan_out, n, 1.0, 0.5, seed + 4);
                assert_backward_matches_reference(&x, &weight, &g, &g2, &init);
            }
        }
    }
}

#[test]
fn backward_matches_in_order_reference_on_non_finite_operands() {
    // `inf` and `NaN` in the right operand of both products: the zero
    // coefficients drop their `0·inf` and `0·NaN` terms, the others carry
    // them into the sum.
    let mut seed = 0;
    for n in [1, 31, 32, 33, 384] {
        for zeros in ZEROS {
            seed += 10;
            let (batch, fan_out) = (16, 40);
            let x = with_non_finite(&relu_like(batch, n, 1.0, 0.4, seed), seed + 1);
            let weight = with_non_finite(&relu_like(fan_out, n, 1.0, 0.0, seed + 2), seed + 3);
            let g = gradient_like(batch, fan_out, zeros, seed + 4);
            let g2 = gradient_like(batch, fan_out, zeros, seed + 5);
            let init = relu_like(fan_out, n, 1.0, 0.5, seed + 6);
            assert_backward_matches_reference(&x, &weight, &g, &g2, &init);
        }
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
        if cfg.weight_decay != 0.0 {
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

/// Linear → ReLU → Linear.
fn sgd_net() -> Network {
    mlp(&[6, 9, 4], &mut Rng64::new(21))
}

/// Gives every parameter a gradient with zeros, `-0.0`s and both signs.
fn set_grads(net: &mut Network, seed: u64) {
    let mut s = seed;
    net.visit_params(&mut |p| {
        s += 1;
        let grad = relu_like(1, p.value.numel(), 2.0, 0.3, s).into_vec();
        p.grad = Tensor::from_vec(grad, p.value.shape().dims());
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
    fn backward_is_bit_identical_to_in_order_reference(
        batch in 0usize..20,
        fan_in in 0usize..70,
        fan_out in 0usize..40,
        z_i in 0usize..ZEROS.len(),
        seed in any::<u64>(),
    ) {
        let x = relu_like(batch, fan_in, 2.0, 0.5, seed);
        let weight = relu_like(fan_out, fan_in, 1.0, 0.0, seed ^ 0x9e37);
        let g = gradient_like(batch, fan_out, ZEROS[z_i], seed ^ 0x51);
        let g2 = gradient_like(batch, fan_out, ZEROS[z_i], seed ^ 0x77);
        let init = relu_like(fan_out, fan_in, 1.0, 0.5, seed ^ 0x3c);
        assert_backward_matches_reference(&x, &weight, &g, &g2, &init);
    }

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
        let bias = bias_like(n, 0.5, seed ^ 0x51);
        assert_kernels_match_reference(&x, &weight, &bias);
    }
}
