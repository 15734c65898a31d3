//! Property-based tests (proptest) over the workspace's core invariants.

use nessa::core::{NessaConfig, NessaPipeline};
use nessa::data::{record, Dataset, SynthConfig};
use nessa::nn::models::mlp;
use nessa::quant::{Scheme, SchemeQuantized};
use nessa::select::facility::{maximize, GreedyVariant, SimilarityMatrix};
use nessa::select::{fraction_count, kcenters};
use nessa::smartssd::nand::NandConfig;
use nessa::telemetry::JsonValue;
use nessa::tensor::approx::approx_eq_f64;
use nessa::tensor::linalg::{cross_sq_dists, pairwise_sq_dists};
use nessa::tensor::rng::Rng64;
use nessa::tensor::Tensor;
use proptest::prelude::*;

fn small_features() -> impl Strategy<Value = Tensor> {
    (2usize..24, 1usize..6, any::<u64>()).prop_map(|(n, d, seed)| {
        let mut rng = Rng64::new(seed);
        Tensor::rand_uniform(&[n, d], -5.0, 5.0, &mut rng)
    })
}

proptest! {
    #[test]
    fn fraction_count_bounds(n in 0usize..10_000, f in 0.0001f32..1.0) {
        let k = fraction_count(n, f);
        prop_assert!(k <= n);
        if n > 0 {
            prop_assert!(k >= 1);
            // Never selects more than one extra sample beyond the exact
            // fractional amount.
            prop_assert!((k as f64) < n as f64 * f as f64 + 1.0 + 1e-6);
        } else {
            prop_assert_eq!(k, 0);
        }
    }

    #[test]
    fn facility_objective_is_monotone(feats in small_features(), seed in any::<u64>()) {
        let sim = SimilarityMatrix::from_features(&feats);
        let mut rng = Rng64::new(seed);
        let n = sim.len();
        let mut set: Vec<usize> = Vec::new();
        let mut prev = 0.0f32;
        for _ in 0..n.min(6) {
            let cand = rng.index(n);
            if set.contains(&cand) { continue; }
            set.push(cand);
            let cur = sim.objective(&set);
            prop_assert!(cur >= prev - 1e-2 * prev.abs().max(1.0),
                "objective decreased: {} -> {}", prev, cur);
            prev = cur;
        }
    }

    #[test]
    fn facility_weights_sum_to_pool(feats in small_features(), k in 1usize..8, seed in any::<u64>()) {
        let sim = SimilarityMatrix::from_features(&feats);
        let mut rng = Rng64::new(seed);
        let sel = maximize(&sim, k, GreedyVariant::Lazy, &mut rng).unwrap();
        let total: f32 = sel.weights.iter().sum();
        prop_assert!((total - sim.len() as f32).abs() < 1e-3);
        prop_assert!(sel.weights.iter().all(|&w| w >= 1.0));
        // No duplicate picks.
        let mut sorted = sel.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sel.len());
    }

    #[test]
    fn lazy_greedy_matches_naive_objective(feats in small_features(), k in 1usize..6) {
        let sim = SimilarityMatrix::from_features(&feats);
        let mut rng = Rng64::new(0);
        let k = k.min(sim.len());
        let lazy = maximize(&sim, k, GreedyVariant::Lazy, &mut rng).unwrap();
        let naive = maximize(&sim, k, GreedyVariant::Naive, &mut rng).unwrap();
        let fl = sim.objective(&lazy.indices);
        let fn_ = sim.objective(&naive.indices);
        prop_assert!((fl - fn_).abs() <= 1e-2 * fn_.abs().max(1.0),
            "lazy {} vs naive {}", fl, fn_);
    }

    #[test]
    fn kcenters_objective_never_worse_than_singletons(feats in small_features(), seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let n = feats.dim(0);
        let k = (n / 2).max(1);
        let sel = kcenters::select(&feats, k, &mut rng);
        let multi = kcenters::max_min_dist(&feats, &sel.indices);
        let single = kcenters::max_min_dist(&feats, &sel.indices[..1]);
        prop_assert!(multi <= single + 1e-4);
    }

    #[test]
    fn quantization_round_trip_error_bounded(vals in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        let t = Tensor::from_slice(&vals);
        let q = SchemeQuantized::quantize(&t, Scheme::int8());
        let back = q.dequantize();
        let bound = q.error_bounds()[0] + 1e-4;
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= bound, "{} vs {} (bound {})", a, b, bound);
        }
    }

    #[test]
    fn record_round_trip_any_shape(
        n in 1usize..40,
        dim in 1usize..12,
        classes in 1usize..8,
        pad in 0usize..512,
        seed in any::<u64>()
    ) {
        let mut rng = Rng64::new(seed);
        let feats = Tensor::rand_uniform(&[n, dim], -10.0, 10.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.index(classes)).collect();
        let ds = Dataset::new("prop", feats, labels, classes, 4 + 4 * dim + pad);
        let enc = record::encode_dataset(&ds);
        let back = record::decode_dataset("prop", &enc).unwrap();
        prop_assert_eq!(back.labels(), ds.labels());
        prop_assert_eq!(back.features().as_slice(), ds.features().as_slice());
    }

    #[test]
    fn pairwise_distances_satisfy_metric_basics(feats in small_features()) {
        let d = pairwise_sq_dists(&feats);
        let n = feats.dim(0);
        for i in 0..n {
            prop_assert_eq!(d.at(&[i, i]), 0.0);
            for j in 0..n {
                prop_assert!(d.at(&[i, j]) >= 0.0);
                prop_assert!((d.at(&[i, j]) - d.at(&[j, i])).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn cross_dists_diagonal_matches_pairwise(feats in small_features()) {
        let d1 = pairwise_sq_dists(&feats);
        let d2 = cross_sq_dists(&feats, &feats);
        for i in 0..feats.dim(0) {
            for j in 0..feats.dim(0) {
                prop_assert!((d1.at(&[i, j]) - d2.at(&[i, j])).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn nand_read_time_is_monotone(
        a in 1u64..1_000_000,
        b in 1u64..1_000_000
    ) {
        let nand = NandConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(nand.read_secs(hi) >= nand.read_secs(lo));
    }

    #[test]
    fn synth_generation_is_seed_deterministic(seed in any::<u64>()) {
        let cfg = SynthConfig { train: 30, test: 10, dim: 4, classes: 3, seed, ..SynthConfig::default() };
        let (a, _) = cfg.generate();
        let (b, _) = cfg.generate();
        prop_assert_eq!(a.features().as_slice(), b.features().as_slice());
        prop_assert_eq!(a.labels(), b.labels());
    }
}

/// A tiny but complete pipeline for the overlap properties below: 90
/// training samples keep a full overlapped run in the low milliseconds,
/// so proptest can afford to drive the real thing.
fn overlap_pipeline(cfg: &NessaConfig) -> NessaPipeline {
    let synth = SynthConfig {
        train: 90,
        test: 30,
        dim: 6,
        classes: 3,
        cluster_std: 0.6,
        class_sep: 3.0,
        ..SynthConfig::default()
    };
    let (train, test) = synth.generate();
    let mut rng = Rng64::new(cfg.seed);
    let target = mlp(&[6, 12, 3], &mut rng);
    let selector = mlp(&[6, 12, 3], &mut rng);
    NessaPipeline::new(cfg.clone(), target, selector, train, test)
}

proptest! {
    #[test]
    fn overlap_epoch_total_composes_as_max(seed in any::<u64>(), epochs in 2usize..5) {
        // The serialized ledger must agree with itself: re-deriving
        // `total_s` from the JSONL's own `sync_s`/`select_side_s`/
        // `train_s`/`handoff_s` fields reproduces the critical-path
        // composition `sync + max(select_side, train) + handoff`.
        let cfg = NessaConfig::new(0.4, epochs)
            .with_batch_size(16)
            .with_seed(seed)
            .with_overlap(true);
        let report = overlap_pipeline(&cfg).run().unwrap();
        let jsonl = report.to_jsonl();
        for (line, rec) in jsonl.lines().zip(&report.epochs) {
            let value = JsonValue::parse(line).unwrap();
            let get = |field: &str| value.get(field).and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("epoch line missing {field}: {line}"));
            let composed = get("sync_s") + get("select_side_s").max(get("train_s")) + get("handoff_s");
            prop_assert!(approx_eq_f64(get("total_s"), composed, 1e-12),
                "epoch {}: total_s {} != composed {}", rec.epoch, get("total_s"), composed);
            prop_assert!(approx_eq_f64(rec.total_secs(), get("total_s"), 1e-12));
            let o = rec.overlap.as_ref().expect("overlap mode records a ledger");
            // The hidden device time never exceeds either side.
            let hidden = o.select_side_secs.min(o.train_secs);
            prop_assert!(hidden <= o.select_side_secs && hidden <= o.train_secs);
        }
    }

    #[test]
    fn staleness_is_zero_at_the_prologue_and_one_after(seed in any::<u64>(), epochs in 2usize..5) {
        // The epoch-0 prologue selects with fresh (initial) weights; every
        // later subset comes off the worker with feedback one epoch old
        // (§3.2.1).
        let cfg = NessaConfig::new(0.4, epochs)
            .with_batch_size(16)
            .with_seed(seed)
            .with_overlap(true);
        let report = overlap_pipeline(&cfg).run().unwrap();
        for rec in &report.epochs {
            let o = rec.overlap.as_ref().expect("overlap mode records a ledger");
            prop_assert_eq!(o.staleness, usize::from(rec.epoch > 0), "epoch {}", rec.epoch);
        }
    }

    #[test]
    fn selection_is_independent_of_worker_thread_count(seed in any::<u64>()) {
        // Per-class RNG streams are pre-split before any class worker
        // runs, so carving the classes across 1 vs 4 threads must not
        // change a single pick — or a single byte of the report.
        let cfg = NessaConfig::new(0.4, 3)
            .with_batch_size(16)
            .with_seed(seed)
            .with_overlap(true);
        let mut one = overlap_pipeline(&cfg.clone().with_threads(1));
        let a = one.run().unwrap();
        let mut four = overlap_pipeline(&cfg.clone().with_threads(4));
        let b = four.run().unwrap();
        prop_assert_eq!(one.selection_history(), four.selection_history());
        prop_assert_eq!(a.to_jsonl(), b.to_jsonl());
    }
}
