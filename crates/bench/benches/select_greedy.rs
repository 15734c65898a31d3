//! Criterion microbenchmarks of the facility-location maximizers and the
//! similarity builds they run on — the kernels whose cost the FPGA model
//! prices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nessa_select::facility::{maximize, GreedyVariant, SimilarityMatrix};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use std::hint::black_box;

fn clustered(n: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    let centres = Tensor::randn(&[8, d], 0.0, 3.0, &mut rng);
    let mut rows = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = centres.row(i % 8);
        for &v in c {
            rows.push(v + rng.normal(0.0, 0.7));
        }
    }
    Tensor::from_vec(rows, &[n, d])
}

fn bench_greedy_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("facility_greedy");
    for &n in &[128usize, 512] {
        let feats = clustered(n, 10, 7);
        let sim = SimilarityMatrix::from_features(&feats);
        let k = n / 8;
        for (name, variant) in [
            ("naive", GreedyVariant::Naive),
            ("lazy", GreedyVariant::Lazy),
            ("stochastic", GreedyVariant::Stochastic { epsilon: 0.1 }),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &sim, |b, sim| {
                b.iter(|| {
                    let mut rng = Rng64::new(0);
                    black_box(maximize(sim, k, variant, &mut rng).unwrap())
                })
            });
        }
    }
    group.finish();
}

fn bench_similarity_build(c: &mut Criterion) {
    let feats = clustered(512, 10, 9);
    c.bench_function("similarity_matrix_512x10", |b| {
        b.iter(|| black_box(SimilarityMatrix::from_features(black_box(&feats))))
    });
    // The path the pipeline runs: a class tile of residual (10) ⊗
    // penultimate-feature factors. 600 × 64 is one select-heavy tile;
    // 32 × 384 and 64 × 256 are the train-heavy and pipelined-faulty
    // chunk tiles, few candidates with wide features.
    for (n, d) in [(600, 64), (32, 384), (64, 256)] {
        let (residuals, features) = factored_tile(n, d);
        c.bench_function(&format!("similarity_factored_{n}x10x{d}"), |b| {
            b.iter(|| {
                black_box(SimilarityMatrix::from_factored(
                    black_box(&residuals),
                    black_box(&features),
                ))
            })
        });
    }
}

/// Residual (`n × 10`) and penultimate-feature (`n × d`) factors of one
/// class tile.
fn factored_tile(n: usize, d: usize) -> (Tensor, Tensor) {
    let mut rng = Rng64::new(10);
    let residuals = Tensor::rand_uniform(&[n, 10], -1.0, 1.0, &mut rng);
    (residuals, clustered(n, d, 11))
}

fn bench_lazy_greedy_factored(c: &mut Criterion) {
    // The greedy the pipeline runs on one select-heavy class tile, keeping
    // a fifth of its candidates.
    let (residuals, features) = factored_tile(600, 64);
    let sim = SimilarityMatrix::from_factored(&residuals, &features);
    c.bench_function("lazy_greedy_factored_600_k120", |b| {
        b.iter(|| {
            let mut rng = Rng64::new(0);
            black_box(maximize(&sim, 120, GreedyVariant::Lazy, &mut rng).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_greedy_variants,
    bench_similarity_build,
    bench_lazy_greedy_factored
);
criterion_main!(benches);
