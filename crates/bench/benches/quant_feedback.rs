//! Criterion microbenchmarks of the quantized feedback loop: snapshot and
//! apply.

use criterion::{criterion_group, criterion_main, Criterion};
use nessa_nn::models::mlp;
use nessa_quant::QuantizedModel;
use nessa_tensor::rng::Rng64;
use std::hint::black_box;

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let mut rng = Rng64::new(0);
    let mut net = mlp(&[64, 160, 100], &mut rng);
    c.bench_function("quantize_model_snapshot", |b| {
        b.iter(|| black_box(QuantizedModel::from_network(black_box(&mut net))))
    });
    let snap = QuantizedModel::from_network(&mut net);
    let mut selector = mlp(&[64, 160, 100], &mut rng);
    c.bench_function("apply_snapshot_to_selector", |b| {
        b.iter(|| snap.apply_to(black_box(&mut selector)))
    });
}

criterion_group!(benches, bench_snapshot_roundtrip);
criterion_main!(benches);
