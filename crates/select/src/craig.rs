//! Per-class CRAIG selection with NeSSA's dataset-partitioning option.
//!
//! CRAIG (Mirzasoleiman et al., ICML '20) selects medoids **within each
//! class** by facility location over gradient-proxy similarities and weighs
//! each medoid by its cluster size. NeSSA adapts the same core to the
//! SmartSSD and adds partitioning (paper §3.2.3): each class's candidate
//! pool is split into random chunks small enough for the FPGA's 4.32 MB
//! on-chip memory, and medoids are selected per chunk — turning the
//! quadratic similarity computation into a sum of small quadratics.
//!
//! The gradient proxies come per class too: the entry point takes a factor
//! source that it calls on a class's members when it selects that class, so
//! the caller runs the selector's forward pass one class at a time and no
//! pool-wide proxy block is ever built. Per-class work is independent, so
//! classes can be processed on std scoped threads.

use crate::facility::{maximize_metered, GreedyVariant, SimilarityMatrix};
use crate::metrics::SelectMetrics;
use crate::{fraction_count, group_by_class, SelectError, Selection};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Options for [`select_per_class_factored`].
#[derive(Debug, Clone)]
pub struct CraigOptions {
    /// Greedy maximizer to use inside each class/chunk.
    pub variant: GreedyVariant,
    /// Dataset partitioning (paper §3.2.3): split each class into random
    /// chunks of at most this many candidates and select proportionally
    /// from each. `None` selects over whole classes.
    pub partition_chunk: Option<usize>,
    /// Threads that select classes, the calling thread included: `1`
    /// spawns none, and every count runs the same worker loop.
    pub threads: usize,
    /// Telemetry handles updated while the kernel runs (`None` = no
    /// instrumentation). Handles are shared across worker threads.
    pub metrics: Option<SelectMetrics>,
}

impl Default for CraigOptions {
    fn default() -> Self {
        Self {
            variant: GreedyVariant::Lazy,
            partition_chunk: None,
            threads: 1,
            metrics: None,
        }
    }
}

/// Selects `⌈fraction · |class|⌉` medoids from every class of a candidate
/// pool and returns one merged, globally-indexed [`Selection`].
///
/// Candidate `i` is the **factored** (outer-product) gradient proxy
/// `residual_i ⊗ feature_i`, compared through the norm/inner-product
/// factorization so the outer products are never materialized (see
/// [`SimilarityMatrix::from_factored`]). The factors come per class, as
/// the FPGA kernel selects (paper §3.2.3): when a class is selected,
/// `factors(members)` returns its `(residuals, features)`, one row per
/// member in the order given, so no pool-wide proxy block is ever held.
/// The pipeline runs the selector's forward pass there; a caller holding
/// pool-wide factors passes `|m| (residuals.gather_rows(m),
/// features.gather_rows(m))`, with the same result bit for bit. Plain
/// feature rows `x` select as `residuals = 1` (an all-ones `|m| × 1`
/// factor), which reproduces [`SimilarityMatrix::from_features`] bit for
/// bit. With `options.threads > 1`, `factors` runs on several classes at
/// once.
///
/// Every class's RNG is split off `rng` before any class runs, so the
/// result does not depend on which thread selects which class. The calling
/// thread and `threads − 1` helpers take classes from a shared counter, so
/// a thread that finishes a small class moves on to the next one instead
/// of idling behind a fixed share; with one thread nothing is spawned.
///
/// * `factors` — the two factors of a class's members,
/// * `labels` — class of each candidate (one per candidate),
/// * `classes` — number of classes,
/// * `fraction` — subset fraction in `(0, 1]`.
///
/// # Errors
///
/// [`SelectError::LengthMismatch`] if a factor's row count differs from
/// its class's member count, [`SelectError::BadFraction`] if `fraction`
/// is outside `(0, 1]`, [`SelectError::LabelOutOfRange`] if any label is
/// `≥ classes`. Every class is selected before the first error in class
/// order is returned.
pub fn select_per_class_factored<F>(
    factors: F,
    labels: &[usize],
    classes: usize,
    fraction: f32,
    options: &CraigOptions,
    rng: &mut Rng64,
) -> Result<Selection, SelectError>
where
    F: Fn(&[usize]) -> (Tensor, Tensor) + Sync,
{
    let by_class = group_by_class(labels, classes, fraction)?;
    let class_rngs: Vec<Rng64> = by_class.iter().map(|_| rng.split()).collect();
    let slots: Vec<OnceLock<Result<Selection, SelectError>>> =
        by_class.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let worker = || loop {
        // The counter only hands out class numbers; results are published
        // through the slots and the scope's join.
        let class = next.fetch_add(1, Ordering::Relaxed);
        let (Some(members), Some(slot), Some(class_rng)) =
            (by_class.get(class), slots.get(class), class_rngs.get(class))
        else {
            break;
        };
        let mut class_rng = class_rng.clone();
        slot.get_or_init(|| select_one_class(&factors, members, fraction, options, &mut class_rng));
    };
    let helpers = options.threads.min(by_class.len()).saturating_sub(1);
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(worker);
        }
        worker();
    });
    let mut merged = Selection::default();
    for slot in slots {
        let sel = slot
            .into_inner()
            .ok_or(SelectError::Internal("class worker never filled its slot"))?;
        merged.extend(sel?);
    }
    Ok(merged)
}

/// Selects the medoids of one class, part by part, with `⌈fraction ·
/// |part|⌉` picks per part. Without partitioning the one part is the whole
/// class; with it, the class is dealt into `⌈|class| / chunk⌉` random
/// chunks, none of them empty.
fn select_one_class<F>(
    factors: &F,
    members: &[usize],
    fraction: f32,
    options: &CraigOptions,
    rng: &mut Rng64,
) -> Result<Selection, SelectError>
where
    F: Fn(&[usize]) -> (Tensor, Tensor),
{
    if members.is_empty() {
        return Ok(Selection::default());
    }
    let metrics = options.metrics.as_ref();
    if let Some(m) = metrics {
        m.classes.inc();
    }
    let (residuals, features) = factors(members);
    for rows in [residuals.dim(0), features.dim(0)] {
        if rows != members.len() {
            return Err(SelectError::LengthMismatch {
                what: "factor rows",
                expected: members.len(),
                actual: rows,
            });
        }
    }
    let parts = match options.partition_chunk {
        None => vec![(0..members.len()).collect()],
        Some(chunk) => rng.random_chunks(members.len(), members.len().div_ceil(chunk.max(2))),
    };
    let mut merged = Selection::default();
    for part in parts {
        if let Some(m) = metrics {
            m.chunks.inc();
        }
        // The whole class (the identity part) is read in place.
        let sim = match options.partition_chunk {
            None => SimilarityMatrix::from_factored(&residuals, &features),
            Some(_) => SimilarityMatrix::from_factored(
                &residuals.gather_rows(&part),
                &features.gather_rows(&part),
            ),
        };
        let k = fraction_count(part.len(), fraction);
        merged.extend(
            maximize_metered(&sim, k, options.variant, rng, metrics)?
                .into_global(&part)
                .into_global(members),
        );
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRAIG over plain feature rows: an all-ones residual factor makes the
    /// factored distances the flat ones, bit for bit.
    fn select_flat(
        x: &Tensor,
        labels: &[usize],
        classes: usize,
        fraction: f32,
        options: &CraigOptions,
        rng: &mut Rng64,
    ) -> Result<Selection, SelectError> {
        let flat = |m: &[usize]| (Tensor::ones(&[m.len(), 1]), x.gather_rows(m));
        select_per_class_factored(flat, labels, classes, fraction, options, rng)
    }

    /// The source a caller holding pool-wide factors passes.
    fn gathered<'a>(
        a: &'a Tensor,
        b: &'a Tensor,
    ) -> impl Fn(&[usize]) -> (Tensor, Tensor) + Sync + 'a {
        |m: &[usize]| (a.gather_rows(m), b.gather_rows(m))
    }

    /// Two classes, each with two tight clusters at distinct locations.
    fn toy() -> (Tensor, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centres = [
            (0.0f32, 0.0f32, 0usize),
            (8.0, 0.0, 0),
            (0.0, 8.0, 1),
            (8.0, 8.0, 1),
        ];
        for &(cx, cy, y) in &centres {
            for d in 0..5 {
                rows.push(cx + 0.05 * d as f32);
                rows.push(cy + 0.05 * d as f32);
                labels.push(y);
            }
        }
        (Tensor::from_vec(rows, &[20, 2]), labels)
    }

    #[test]
    fn respects_fraction_per_class() {
        let (x, y) = toy();
        let mut rng = Rng64::new(0);
        let sel = select_flat(&x, &y, 2, 0.2, &CraigOptions::default(), &mut rng).unwrap();
        assert_eq!(sel.len(), 4); // ceil(10 * 0.2) per class.
                                  // Selected labels split evenly.
        let c0 = sel.indices.iter().filter(|&&i| y[i] == 0).count();
        assert_eq!(c0, 2);
    }

    #[test]
    fn selects_cluster_representatives() {
        let (x, y) = toy();
        let mut rng = Rng64::new(1);
        let sel = select_flat(&x, &y, 2, 0.2, &CraigOptions::default(), &mut rng).unwrap();
        // With 2 picks per class and 2 clusters per class, facility location
        // should cover both clusters of each class.
        let cluster_of = |i: usize| i / 5;
        for class in 0..2 {
            let mut clusters: Vec<usize> = sel
                .indices
                .iter()
                .filter(|&&i| y[i] == class)
                .map(|&i| cluster_of(i))
                .collect();
            clusters.sort_unstable();
            clusters.dedup();
            assert_eq!(clusters.len(), 2, "class {class} missing a cluster");
        }
    }

    #[test]
    fn weights_cover_whole_class() {
        let (x, y) = toy();
        let mut rng = Rng64::new(2);
        let sel = select_flat(&x, &y, 2, 0.4, &CraigOptions::default(), &mut rng).unwrap();
        let total: f32 = sel.weights.iter().sum();
        assert_eq!(total, 20.0);
    }

    #[test]
    fn partitioned_selection_still_covers() {
        let (x, y) = toy();
        let mut rng = Rng64::new(3);
        let opts = CraigOptions {
            partition_chunk: Some(5),
            ..CraigOptions::default()
        };
        let sel = select_flat(&x, &y, 2, 0.4, &opts, &mut rng).unwrap();
        assert!(sel.len() >= 4);
        let total: f32 = sel.weights.iter().sum();
        assert_eq!(total, 20.0);
        // All indices valid and distinct.
        let mut sorted = sel.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sel.len());
    }

    /// One selection of `labels`' 3 classes at fraction 0.3 and seed 7:
    /// the picks, the weight bits and the kernel counters `[classes,
    /// chunks, rounds, gain_evals]`.
    fn metered_run<F>(
        factors: F,
        labels: &[usize],
        variant: GreedyVariant,
        partition_chunk: Option<usize>,
        threads: usize,
    ) -> (Vec<usize>, Vec<u32>, [u64; 4])
    where
        F: Fn(&[usize]) -> (Tensor, Tensor) + Sync,
    {
        let metrics = SelectMetrics::default();
        let opts = CraigOptions {
            variant,
            partition_chunk,
            threads,
            metrics: Some(metrics.clone()),
        };
        let sel =
            select_per_class_factored(factors, labels, 3, 0.3, &opts, &mut Rng64::new(7)).unwrap();
        let counters = [
            &metrics.classes,
            &metrics.chunks,
            &metrics.rounds,
            &metrics.gain_evals,
        ]
        .map(|c| c.get());
        let weights = sel.weights.iter().map(|w| w.to_bits()).collect();
        (sel.indices, weights, counters)
    }

    #[test]
    fn parallel_matches_sequential() {
        // Per-class factors (each class's rows built when it is selected)
        // and gathered pool-wide factors give the same picks, weight bits
        // and kernel counters, whole-class and partitioned, on one thread
        // or several. Stochastic greedy is the variant that draws from the
        // class RNG inside the greedy.
        let mut rng = Rng64::new(12);
        let n = 90;
        let a = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, 9], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.index(3)).collect();
        // Rows of class `c` computed from the class alone: the same values
        // as the pool-wide rows, produced member by member.
        let per_class = |m: &[usize]| {
            let rows = |t: &Tensor| {
                let data = m.iter().flat_map(|&i| t.row(i).to_vec()).collect();
                Tensor::from_vec(data, &[m.len(), t.dim(1)])
            };
            (rows(&a), rows(&b))
        };
        for variant in [
            GreedyVariant::Lazy,
            GreedyVariant::Stochastic { epsilon: 0.2 },
        ] {
            for partition_chunk in [None, Some(8)] {
                let reference = metered_run(gathered(&a, &b), &labels, variant, partition_chunk, 1);
                let [classes, chunks, rounds, _] = reference.2;
                assert_eq!(classes, 3);
                // A whole class is one chunk; ~30 members in chunks of 8
                // are four.
                let parts = if partition_chunk.is_some() { 4 } else { 1 };
                assert_eq!(chunks, parts * classes);
                assert_eq!(rounds, reference.0.len() as u64);
                for threads in [1, 2, 3, 7] {
                    for run in [
                        metered_run(gathered(&a, &b), &labels, variant, partition_chunk, threads),
                        metered_run(per_class, &labels, variant, partition_chunk, threads),
                    ] {
                        let at = format!("{variant:?}, {partition_chunk:?}, {threads} threads");
                        assert_eq!(run, reference, "{at}");
                    }
                }
            }
        }
        let (x, y) = toy();
        let seq = select_flat(&x, &y, 2, 0.3, &CraigOptions::default(), &mut Rng64::new(7));
        let par = select_flat(
            &x,
            &y,
            2,
            0.3,
            &CraigOptions {
                threads: 4,
                ..CraigOptions::default()
            },
            &mut Rng64::new(7),
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn fraction_one_selects_everything() {
        let (x, y) = toy();
        let mut rng = Rng64::new(4);
        let sel = select_flat(&x, &y, 2, 1.0, &CraigOptions::default(), &mut rng).unwrap();
        assert_eq!(sel.len(), 20);
    }

    #[test]
    fn rejects_bad_fraction() {
        let (x, y) = toy();
        let mut rng = Rng64::new(5);
        let err = select_flat(&x, &y, 2, 0.0, &CraigOptions::default(), &mut rng);
        assert_eq!(err, Err(SelectError::BadFraction(0.0)));
    }

    #[test]
    fn rejects_label_out_of_range() {
        let (x, _) = toy();
        let bad = vec![0usize; 19].into_iter().chain([7]).collect::<Vec<_>>();
        let mut rng = Rng64::new(5);
        let err = select_flat(&x, &bad, 2, 0.5, &CraigOptions::default(), &mut rng);
        assert_eq!(
            err,
            Err(SelectError::LabelOutOfRange {
                label: 7,
                classes: 2
            })
        );
    }

    #[test]
    fn rejects_a_factor_source_with_the_wrong_row_count() {
        let (x, y) = toy();
        let short = |m: &[usize]| (Tensor::ones(&[m.len(), 1]), x.gather_rows(&m[1..]));
        let opts = CraigOptions::default();
        let err = select_per_class_factored(short, &y, 2, 0.5, &opts, &mut Rng64::new(5));
        assert_eq!(
            err,
            Err(SelectError::LengthMismatch {
                what: "factor rows",
                expected: 10,
                actual: 9
            })
        );
    }

    #[test]
    fn factored_matches_materialized_outer_products() {
        // residual factor a (n×3) and feature factor b (n×4): selection
        // over the factored space must equal selection over the explicit
        // outer products.
        let mut rng = Rng64::new(11);
        let n = 24;
        let a = Tensor::rand_uniform(&[n, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        // Materialize the outer products.
        let mut flat = Tensor::zeros(&[n, 12]);
        for i in 0..n {
            for (ci, &av) in a.row(i).iter().enumerate() {
                for (fi, &bv) in b.row(i).iter().enumerate() {
                    flat.set(&[i, ci * 4 + fi], av * bv);
                }
            }
        }
        let opts = CraigOptions::default();
        let sel_flat = select_flat(&flat, &labels, 2, 0.25, &opts, &mut Rng64::new(3)).unwrap();
        let sel_fact = select_per_class_factored(
            gathered(&a, &b),
            &labels,
            2,
            0.25,
            &opts,
            &mut Rng64::new(3),
        )
        .unwrap();
        assert_eq!(sel_flat.indices, sel_fact.indices);
        assert_eq!(sel_flat.weights, sel_fact.weights);
    }

    #[test]
    fn empty_class_is_skipped() {
        let (x, y) = toy();
        let mut rng = Rng64::new(6);
        // Declare 3 classes; class 2 has no members.
        let sel = select_flat(&x, &y, 3, 0.2, &CraigOptions::default(), &mut rng).unwrap();
        assert_eq!(sel.len(), 4);
    }
}
