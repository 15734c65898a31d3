//! Criterion microbenchmarks of the dense layers at the train-heavy
//! workload's shapes: one training-size batch through the MLP, one full
//! training step, and the selector's gradient-proxy forward over a whole
//! candidate pool. Pipelined-faulty's forward (batch 32 through
//! 32→256→128→10) and its first layer's product alone (32×32×256, where
//! the per-call cost of a layer only 32 inputs deep shows) run too.
//!
//! The training step cycles through a ring of distinct batches of
//! train-heavy's pool, as a run does. Replaying one fixed batch would let
//! the branch predictor learn that batch's zero pattern, which no run
//! sees.

use criterion::{criterion_group, criterion_main, Criterion};
use nessa_core::proxy::gradient_proxies;
use nessa_data::{Dataset, SynthConfig};
use nessa_nn::loss::softmax_cross_entropy;
use nessa_nn::models::mlp;
use nessa_nn::optim::{Sgd, SgdConfig};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use std::hint::black_box;

const LAYERS: [usize; 4] = [32, 384, 192, 10];

fn bench_mlp_forward(c: &mut Criterion) {
    let mut rng = Rng64::new(1);
    let net = mlp(&LAYERS, &mut rng);
    let x = Tensor::randn(&[16, LAYERS[0]], 0.0, 1.0, &mut rng);
    c.bench_function("mlp_forward_b16_32x384x192x10", |b| {
        b.iter(|| black_box(net.infer(black_box(&x))))
    });
}

fn bench_pipelined_faulty_forward(c: &mut Criterion) {
    let mut rng = Rng64::new(4);
    let net = mlp(&[32, 256, 128, 10], &mut rng);
    let x = Tensor::randn(&[32, 32], 0.0, 1.0, &mut rng);
    c.bench_function("mlp_forward_b32_32x256x128x10", |b| {
        b.iter(|| black_box(net.infer(black_box(&x))))
    });
    let w = Tensor::randn(&[256, 32], 0.0, 0.1, &mut rng);
    c.bench_function("matmul_transb_32x32x256", |b| {
        b.iter(|| black_box(black_box(&x).matmul_transb(black_box(&w))))
    });
}

/// The training pool of perfbench's train-heavy workload: its
/// `SynthConfig` at 4000 samples of the MLP's input width.
fn train_heavy_pool() -> Dataset {
    SynthConfig {
        train: 4000,
        test: 10,
        dim: LAYERS[0],
        classes: LAYERS[3],
        class_sep: 1.0,
        ..SynthConfig::default()
    }
    .generate()
    .0
}

fn bench_mlp_train_step(c: &mut Criterion) {
    let mut rng = Rng64::new(3);
    let mut net = mlp(&LAYERS, &mut rng);
    let pool = train_heavy_pool();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let batches: Vec<(Tensor, Vec<usize>)> =
        order.chunks_exact(16).map(|b| pool.batch(b)).collect();
    let mut ring = batches.iter().cycle();
    let mut opt = Sgd::new(SgdConfig::default());
    c.bench_function("mlp_train_step_b16_32x384x192x10", |b| {
        b.iter(|| {
            let Some((x, labels)) = ring.next() else {
                return;
            };
            net.zero_grad();
            let logits = net.forward(black_box(x));
            let loss = softmax_cross_entropy(&logits, labels);
            net.backward(&loss.grad_logits);
            opt.step(&mut net, 0.01);
        })
    });
}

fn bench_gradient_proxies(c: &mut Criterion) {
    let train = train_heavy_pool();
    let selector = mlp(&LAYERS, &mut Rng64::new(2));
    let pool: Vec<usize> = (0..train.len()).collect();
    let mut group = c.benchmark_group("gradient_proxies");
    group.sample_size(10);
    group.bench_function("4000_b16_32x384x192x10", |b| {
        b.iter(|| black_box(gradient_proxies(&selector, &train, &pool, 16)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mlp_forward,
    bench_pipelined_faulty_forward,
    bench_mlp_train_step,
    bench_gradient_proxies
);
criterion_main!(benches);
