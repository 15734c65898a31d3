//! Criterion microbenchmarks of the dense forward pass at the train-heavy
//! workload's shapes: one training-size batch through the MLP, and the
//! selector's gradient-proxy forward over a whole candidate pool.

use criterion::{criterion_group, criterion_main, Criterion};
use nessa_core::proxy::gradient_proxies;
use nessa_data::SynthConfig;
use nessa_nn::models::mlp;
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use std::hint::black_box;

const LAYERS: [usize; 4] = [32, 384, 192, 10];

fn bench_mlp_forward(c: &mut Criterion) {
    let mut rng = Rng64::new(1);
    let mut net = mlp(&LAYERS, &mut rng);
    let x = Tensor::randn(&[16, LAYERS[0]], 0.0, 1.0, &mut rng);
    c.bench_function("mlp_forward_b16_32x384x192x10", |b| {
        b.iter(|| black_box(net.forward(black_box(&x), false)))
    });
}

fn bench_gradient_proxies(c: &mut Criterion) {
    let (train, _) = SynthConfig {
        train: 4000,
        test: 10,
        dim: LAYERS[0],
        classes: LAYERS[3],
        class_sep: 1.0,
        ..SynthConfig::default()
    }
    .generate();
    let mut selector = mlp(&LAYERS, &mut Rng64::new(2));
    let pool: Vec<usize> = (0..train.len()).collect();
    let mut group = c.benchmark_group("gradient_proxies");
    group.sample_size(10);
    group.bench_function("4000_b16_32x384x192x10", |b| {
        b.iter(|| black_box(gradient_proxies(&mut selector, &train, &pool, 16)))
    });
    group.finish();
}

criterion_group!(benches, bench_mlp_forward, bench_gradient_proxies);
criterion_main!(benches);
