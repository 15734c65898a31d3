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
    // The path the pipeline runs: one select-heavy class tile of 600
    // candidates, residual (10) ⊗ penultimate-feature (64) factors.
    let mut rng = Rng64::new(10);
    let residuals = Tensor::rand_uniform(&[600, 10], -1.0, 1.0, &mut rng);
    let features = clustered(600, 64, 11);
    c.bench_function("similarity_factored_600x10x64", |b| {
        b.iter(|| {
            black_box(SimilarityMatrix::from_factored(
                black_box(&residuals),
                black_box(&features),
            ))
        })
    });
}

criterion_group!(benches, bench_greedy_variants, bench_similarity_build);
criterion_main!(benches);
