//! Pins the dense kernel's bit-exact contract.
//!
//! `Tensor::matmul_transb` transposes its right operand and runs the i-k-j
//! axpy loop of `Tensor::matmul`; `Linear::forward` runs that loop on an
//! `in × out` copy of its weight that it keeps between calls. Every output
//! must still equal, bit for bit, the in-order dot product below (one
//! serial `acc += a * b` chain per output, starting at `0.0`), which exists
//! only here as the reference. The kept copy must never outlive a weight
//! write: after `Sgd::step` or `import_weights` a layer computes exactly
//! what a freshly built layer with the same weights computes.

use nessa_nn::layers::{Layer, Linear, Param};
use nessa_nn::loss::softmax_cross_entropy;
use nessa_nn::models::{mlp, Network};
use nessa_nn::optim::{Sgd, SgdConfig};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use proptest::prelude::*;

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
    // Twice: the first call builds the transposed copy, the second reuses it.
    for _ in 0..2 {
        assert_eq!(bits(layer.forward(x, false).as_slice()), expect);
    }
}

/// A network whose every `Linear` was built after its weights were set,
/// so no transposed copy predates them.
fn fresh_with(sizes: &[usize], weights: &[Tensor]) -> Network {
    let mut net = mlp(sizes, &mut Rng64::new(99));
    net.import_weights(weights);
    net
}

#[test]
fn kernels_match_dot_reference_at_train_heavy_shapes() {
    // A batch-16 forward through MLP [32, 384, 192, 10], layer by layer,
    // on inputs as sparse as the hidden ReLUs leave them.
    let sizes = [32, 384, 192, 10];
    for (l, w) in sizes.windows(2).enumerate() {
        let seed = 10 * l as u64;
        let x = relu_like(16, w[0], 2.0, if l == 0 { 0.0 } else { 0.5 }, seed);
        let weight = relu_like(w[1], w[0], 0.3, 0.0, seed + 1);
        let bias = relu_like(1, w[1], 0.1, 0.0, seed + 2).reshape(&[w[1]]);
        assert_kernels_match_reference(&x, &weight, &bias);
    }
}

#[test]
fn kernels_match_dot_reference_on_empty_and_all_zero_operands() {
    for (m, k, n) in [(0, 0, 0), (0, 5, 3), (4, 0, 3), (4, 5, 0), (1, 1, 1)] {
        for zero_share in [0.0, 1.0] {
            let x = relu_like(m, k, 1.0, zero_share, 1);
            let weight = relu_like(n, k, 1.0, zero_share, 2);
            let bias = relu_like(1, n, 1.0, 0.0, 3).reshape(&[n]);
            assert_kernels_match_reference(&x, &weight, &bias);
        }
    }
}

#[test]
fn sgd_step_refreshes_the_transposed_weight() {
    let sizes = [6, 9, 4];
    let mut net = mlp(&sizes, &mut Rng64::new(1));
    let x = relu_like(5, 6, 1.5, 0.2, 2);
    let before = net.forward(&x, true);
    let loss = softmax_cross_entropy(&before, &[0, 1, 2, 3, 0]);
    net.backward(&loss.grad_logits);
    Sgd::new(SgdConfig::default()).step(&mut net, 0.5);
    let after = net.forward(&x, false);
    assert_ne!(bits(after.as_slice()), bits(before.as_slice()));
    let expect = fresh_with(&sizes, &net.export_weights()).forward(&x, false);
    assert_eq!(bits(after.as_slice()), bits(expect.as_slice()));
}

#[test]
fn import_weights_refreshes_the_transposed_weight() {
    let sizes = [7, 11, 3];
    let mut net = mlp(&sizes, &mut Rng64::new(3));
    let x = relu_like(4, 7, 1.0, 0.3, 4);
    let before = net.forward(&x, false);
    let other = mlp(&sizes, &mut Rng64::new(5)).export_weights();
    net.import_weights(&other);
    let after = net.forward(&x, false);
    assert_ne!(bits(after.as_slice()), bits(before.as_slice()));
    let expect = fresh_with(&sizes, &other).forward(&x, false);
    assert_eq!(bits(after.as_slice()), bits(expect.as_slice()));
}

proptest! {
    #[test]
    fn kernels_are_bit_identical_to_dot_reference(
        m in 0usize..41,
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
