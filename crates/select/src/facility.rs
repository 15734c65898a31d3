//! The facility-location objective and its greedy maximizers.
//!
//! Given candidates with pairwise similarities `sim(i, j)`, the objective
//! of paper Eq. 5 is `F(S) = Σ_i max_{j∈S} sim(i, j)`. `F` is monotone
//! submodular, so greedy maximization achieves a `(1 − 1/e)` guarantee
//! (Nemhauser et al.); the lazy variant (Minoux '78) and the stochastic
//! variant (Mirzasoleiman et al. '15, "lazier than lazy greedy") produce
//! the same quality at a fraction of the evaluations — the property that
//! makes the kernel cheap enough for the SmartSSD FPGA.

use crate::metrics::SelectMetrics;
use crate::{SelectError, Selection};
use nessa_tensor::dispatch::{self, Kernel, Level};
use nessa_tensor::linalg::{map_sq_dists, upper_row_start};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pairwise-similarity matrix for facility-location selection.
///
/// Built from squared Euclidean distances via `sim = c0 − d²` where
/// `c0 = max d²` (the constant of paper Eq. 5), so all similarities are
/// non-negative and self-similarity is maximal.
///
/// The matrix is symmetric bit for bit, by construction: each pair's
/// similarity is computed once (see [`map_sq_dists`]). So it stores each
/// pair once: the strict upper triangle, packed row by row (row `i` holds
/// `sim(i, j)` for `j` in `i + 1..n`, see [`upper_row_start`]), and the one
/// value every diagonal entry shares. Candidate `j`'s similarities in
/// candidate order are column `j` of the triangle, then the diagonal
/// value, then packed row `j`; the greedy sums them in that order.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    n: usize,
    /// The strict upper triangle, packed row by row.
    upper: Vec<f32>,
    /// `sim(i, i)`, the same for every `i`.
    diag: f32,
}

impl SimilarityMatrix {
    /// Builds the similarity matrix of a set of feature rows.
    ///
    /// # Panics
    ///
    /// Panics if `features` is not 2-D.
    pub fn from_features(features: &Tensor) -> Self {
        Self::from_factors(&[features])
    }

    /// Builds the similarity matrix of a *product space*: candidate `i` is
    /// the outer product `a_i ⊗ b_i` of a row of `a` and a row of `b`, but
    /// distances are computed through the factorization
    /// `‖a_i⊗b_i − a_j⊗b_j‖² = ‖a_i‖²‖b_i‖² + ‖a_j‖²‖b_j‖² −
    /// 2 (a_i·a_j)(b_i·b_j)` — `O(dim_a + dim_b)` per pair instead of
    /// `O(dim_a · dim_b)`. This is how NeSSA's FPGA kernel compares
    /// last-layer gradients (residual ⊗ feature) without materializing
    /// them. The kernel is [`map_sq_dists`]: upper triangle only, stored
    /// packed and mapped to `c0 − d` in one pass, bit-identical to the
    /// Gram-matrix evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the factors are not 2-D or have different row counts.
    pub fn from_factored(a: &Tensor, b: &Tensor) -> Self {
        Self::from_factors(&[a, b])
    }

    /// `c0 − d` over the product-space distances of `factors`, with
    /// `c0 = max(max d, 0)`, so every similarity is `≥ 0`.
    fn from_factors(factors: &[&Tensor]) -> Self {
        let (upper, diag) = map_sq_dists(factors, |c0, d| c0 - d);
        Self {
            n: factors[0].dim(0),
            upper,
            diag,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Similarity between candidates `i` and `j`.
    pub fn at(&self, i: usize, j: usize) -> f32 {
        match i.cmp(&j) {
            Ordering::Less => self.upper_row(i)[j - i - 1],
            Ordering::Equal => self.diag,
            Ordering::Greater => self.upper_row(j)[i - j - 1],
        }
    }

    /// Similarity of every candidate to `j`, in candidate order.
    pub fn row(&self, j: usize) -> impl Iterator<Item = f32> + '_ {
        self.upper_column(j)
            .chain(std::iter::once(self.diag))
            .chain(self.upper_row(j).iter().copied())
    }

    /// Packed row `i`: `sim(i, j)` for `j` in `i + 1..n`.
    fn upper_row(&self, i: usize) -> &[f32] {
        let start = upper_row_start(self.n, i);
        &self.upper[start..start + self.n - i - 1]
    }

    /// Column `j` of the triangle: `sim(i, j)` for `i` in `0..j`, top down.
    fn upper_column(&self, j: usize) -> impl Iterator<Item = f32> + '_ {
        // `(0, j)` sits at `j − 1`, and row `i + 1`'s entry `n − i − 2`
        // after row `i`'s.
        let n = self.n;
        (0..j).scan(j, move |next, i| {
            let s = self.upper[*next - 1];
            *next += n - i - 2;
            Some(s)
        })
    }

    /// Evaluates `F(S) = Σ_i max_{j∈S} sim(i, j)` (`0.0` for the empty set).
    pub fn objective(&self, set: &[usize]) -> f32 {
        if set.is_empty() {
            return 0.0;
        }
        (0..self.n)
            .map(|i| {
                set.iter()
                    .map(|&j| self.at(i, j))
                    .fold(f32::NEG_INFINITY, f32::max)
            })
            .sum()
    }
}

/// Which greedy maximizer to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GreedyVariant {
    /// Recompute every marginal gain each round: `O(n²k)` similarity reads.
    Naive,
    /// Minoux's lazy greedy with an upper-bound priority queue.
    Lazy,
    /// Stochastic greedy: each round evaluates a random sample of
    /// `⌈(n/k)·ln(1/ε)⌉` candidates (Mirzasoleiman et al. '15).
    Stochastic {
        /// Approximation slack ε ∈ (0, 1); expected guarantee `1 − 1/e − ε`.
        epsilon: f32,
    },
}

/// Maximizes the facility-location objective, selecting at most `k`
/// candidates, and returns the selection with CRAIG weights.
///
/// `k ≥ n` returns all candidates. The RNG is only consulted by
/// [`GreedyVariant::Stochastic`]. The only error is
/// [`SelectError::Internal`], reporting a broken greedy invariant (a bug
/// in this crate, not bad input).
pub fn maximize(
    sim: &SimilarityMatrix,
    k: usize,
    variant: GreedyVariant,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    maximize_metered(sim, k, variant, rng, None)
}

/// [`maximize`] with optional kernel instrumentation: each pick counts a
/// greedy round and observes its winning marginal gain; every candidate
/// evaluation counts toward `gain_evals` (the dominant kernel cost the
/// lazy/stochastic variants exist to reduce).
pub fn maximize_metered(
    sim: &SimilarityMatrix,
    k: usize,
    variant: GreedyVariant,
    rng: &mut Rng64,
    metrics: Option<&SelectMetrics>,
) -> Result<Selection, SelectError> {
    let n = sim.len();
    if n == 0 || k == 0 {
        return Ok(Selection::default());
    }
    if k >= n {
        // Every candidate is picked and owns itself.
        return Ok(Selection::new((0..n).collect(), vec![1.0; n]));
    }
    let cover = match variant {
        GreedyVariant::Naive => naive_greedy(sim, k, metrics)?,
        GreedyVariant::Lazy => lazy_greedy(sim, k, metrics)?,
        GreedyVariant::Stochastic { epsilon } => stochastic_greedy(sim, k, epsilon, rng, metrics),
    };
    Ok(cover.into_selection())
}

/// A greedy solution in progress: the picks, what they cover, and which
/// pick owns each candidate under CRAIG's weighting rule.
struct Cover {
    /// The picks, in selection order.
    picks: Vec<usize>,
    /// `coverage[i] = max(0, max_{j∈S} sim(i, j))`, what gains are
    /// measured against. Coverage starts at `0.0`: every similarity is
    /// `c0 − d ≥ 0`, so the first pick earns its full similarity column,
    /// and once a pick exists coverage is the best similarity so far.
    coverage: Vec<f32>,
    /// Position in `picks` of the first pick that reached `coverage[i]`.
    /// It starts at the first pick, which so owns every candidate whose
    /// similarity to every pick is zero.
    owner: Vec<usize>,
}

impl Cover {
    fn new(n: usize, k: usize) -> Self {
        Self {
            picks: Vec::with_capacity(k),
            coverage: vec![0.0; n],
            owner: vec![0; n],
        }
    }

    /// Adds `j` to the solution. One pass over `j`'s similarities raises
    /// coverage and reassigns every candidate whose similarity to `j`
    /// strictly beats its coverage: the first pick with the largest
    /// similarity keeps it.
    fn absorb(&mut self, sim: &SimilarityMatrix, j: usize) {
        let pick = self.picks.len();
        self.picks.push(j);
        let raise = |(c, o): (&mut f32, &mut usize), s: f32| {
            if s > *c {
                *c = s;
                *o = pick;
            }
        };
        let mut entries = self.coverage.iter_mut().zip(&mut self.owner);
        for (s, entry) in sim.upper_column(j).zip(entries.by_ref()) {
            raise(entry, s);
        }
        if let Some(entry) = entries.next() {
            raise(entry, sim.diag);
        }
        for (entry, &s) in entries.zip(sim.upper_row(j)) {
            raise(entry, s);
        }
    }

    /// The picks with their CRAIG weights: each pick weighs the number of
    /// candidates it owns, and a pick always owns itself (self-similarity
    /// is maximal; ties between duplicate rows resolve to self), so every
    /// weight is ≥ 1 and the weights sum to `n`.
    fn into_selection(self) -> Selection {
        let mut owner = self.owner;
        for (pick, &j) in self.picks.iter().enumerate() {
            owner[j] = pick;
        }
        let mut weights = vec![0.0f32; self.picks.len()];
        for o in owner {
            weights[o] += 1.0;
        }
        Selection::new(self.picks, weights)
    }
}

fn note_pick(metrics: Option<&SelectMetrics>, gain: f32) {
    if let Some(m) = metrics {
        m.rounds.inc();
        m.marginal_gain.observe(gain as f64);
    }
}

fn note_evals(metrics: Option<&SelectMetrics>, n: u64) {
    if let Some(m) = metrics {
        m.gain_evals.add(n);
    }
}

fn naive_greedy(
    sim: &SimilarityMatrix,
    k: usize,
    metrics: Option<&SelectMetrics>,
) -> Result<Cover, SelectError> {
    let n = sim.len();
    let mut cover = Cover::new(n, k);
    let mut remaining: Vec<usize> = (0..n).collect();
    for _ in 0..k {
        // Every candidate's gain at once; only the remaining ones count.
        let gains = row_gains(sim, &cover.coverage);
        let mut best = None;
        let mut best_gain = f32::NEG_INFINITY;
        for &j in &remaining {
            if gains[j] > best_gain {
                best_gain = gains[j];
                best = Some(j);
            }
        }
        note_evals(metrics, remaining.len() as u64);
        note_pick(metrics, best_gain);
        let Some(j) = best else {
            // k < n makes this unreachable; surface it instead of panicking.
            return Err(SelectError::Internal("naive greedy ran out of candidates"));
        };
        cover.absorb(sim, j);
        remaining.retain(|&c| c != j);
    }
    Ok(cover)
}

/// Marginal gain `Σ_i max(sim(i, j) − coverage_i, 0)` of adding `j`,
/// summed in `i` order: column `j` of the triangle, the diagonal, then
/// packed row `j`.
fn gain_from(sim: &SimilarityMatrix, j: usize, coverage: &[f32]) -> f32 {
    let term = |(s, &c): (f32, &f32)| (s - c).max(0.0);
    let (above, rest) = coverage.split_at(j);
    sim.upper_column(j)
        .zip(above)
        .map(term)
        .chain(std::iter::once(term((sim.diag, &rest[0]))))
        .chain(sim.upper_row(j).iter().copied().zip(&rest[1..]).map(term))
        .sum()
}

/// Candidates whose gains [`row_gains`] sums in one strip of registers.
const STRIP: usize = 32;

/// `gain_from(sim, j, coverage)` for every candidate `j`, bit for bit,
/// at the widest dispatched width.
fn row_gains(sim: &SimilarityMatrix, coverage: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; sim.len()];
    dispatch::run(RowGains {
        sim,
        coverage,
        out: &mut out,
    });
    out
}

/// The body of [`row_gains`]. The kernel sums the gains of [`STRIP`]
/// contiguous candidates at once, walking the candidates `i` in order and
/// adding each one's terms to all the strip's accumulators: each starts
/// where `Iterator::sum` starts and adds its terms in order, so no sum is
/// reordered. The last few candidates run [`gain_from`].
///
/// It runs at AVX2 at most: most of its time goes to the scalar
/// transposes below each strip, which no wider register speeds up, and
/// its AVX-512 instance measured about 10 % slower than its AVX2 one, with
/// 32- and with 64-candidate strips.
struct RowGains<'a> {
    sim: &'a SimilarityMatrix,
    coverage: &'a [f32],
    out: &'a mut [f32],
}

impl Kernel for RowGains<'_> {
    type Output = ();

    const WIDEST: Level = Level::Avx2;

    #[inline(always)]
    fn run(self, _: Level) {
        let mut strips = self.out.chunks_exact_mut(STRIP);
        for (j0, out) in (0..).step_by(STRIP).zip(&mut strips) {
            out.copy_from_slice(&strip_gains(self.sim, self.coverage, j0));
        }
        let rest = strips.into_remainder();
        let first = self.sim.len() - rest.len();
        for (o, j) in rest.iter_mut().zip(first..) {
            *o = gain_from(self.sim, j, self.coverage);
        }
    }
}

/// The gains of candidates `j0..j0 + STRIP`: `Σ_i max(sim(i, j) −
/// coverage_i, 0)` over `i` in order, one accumulator per candidate. A
/// candidate `i` above the strip holds the strip's similarities
/// contiguously, in its packed row. The strip's own `STRIP × STRIP`
/// diagonal block is filled from its packed rows and mirrored. Below it,
/// `sim(i, j)` is column `i` of packed row `j`, so those rows pass through
/// a `STRIP × STRIP` transpose in L1 first.
#[inline(always)]
fn strip_gains(sim: &SimilarityMatrix, coverage: &[f32], j0: usize) -> [f32; STRIP] {
    let add = |acc: &mut [f32; STRIP], lane: &[f32; STRIP], c: f32| {
        for (a, &s) in acc.iter_mut().zip(lane) {
            *a += (s - c).max(0.0);
        }
    };
    let mut acc = [std::iter::empty::<f32>().sum(); STRIP];
    let (above, rest) = coverage.split_at(j0);
    let (block, below) = rest.split_at(STRIP);
    for (i, &c) in above.iter().enumerate() {
        // Always `Some`, as the strip ends inside the row; the fixed
        // width keeps `acc` in registers.
        if let Some(lane) = sim.upper_row(i)[j0 - i - 1..].first_chunk::<STRIP>() {
            add(&mut acc, lane, c);
        }
    }
    let mut lanes = [[0.0f32; STRIP]; STRIP];
    // The strip's diagonal block, from its packed rows and mirrored.
    for (q, i) in (j0..j0 + STRIP).enumerate() {
        lanes[q][q] = sim.diag;
        for (l, &s) in (q + 1..STRIP).zip(sim.upper_row(i)) {
            lanes[q][l] = s;
            lanes[l][q] = s;
        }
    }
    for (lane, &c) in lanes.iter().zip(block) {
        add(&mut acc, lane, c);
    }
    for (i0, cover) in (j0 + STRIP..).step_by(STRIP).zip(below.chunks(STRIP)) {
        for (l, j) in (j0..j0 + STRIP).enumerate() {
            let row = &sim.upper_row(j)[i0 - j - 1..][..cover.len()];
            for (lane, &s) in lanes.iter_mut().zip(row) {
                lane[l] = s;
            }
        }
        for (lane, &c) in lanes.iter().zip(cover) {
            add(&mut acc, lane, c);
        }
    }
    acc
}

#[derive(PartialEq)]
struct HeapEntry {
    gain: f32,
    index: usize,
    /// The solution size when this gain was computed; stale entries are
    /// recomputed on pop (submodularity makes stored gains upper bounds).
    round: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn lazy_greedy(
    sim: &SimilarityMatrix,
    k: usize,
    metrics: Option<&SelectMetrics>,
) -> Result<Cover, SelectError> {
    let n = sim.len();
    let mut cover = Cover::new(n, k);
    let mut heap: BinaryHeap<HeapEntry> = row_gains(sim, &cover.coverage)
        .into_iter()
        .enumerate()
        .map(|(index, gain)| HeapEntry {
            gain,
            index,
            round: 0,
        })
        .collect();
    note_evals(metrics, n as u64);
    while cover.picks.len() < k {
        // The heap holds every unchosen candidate once: a pick leaves it
        // for good, and a stale entry goes back re-evaluated.
        let Some(top) = heap.pop() else {
            // Draining before k picks (k < n) would be a bookkeeping bug.
            return Err(SelectError::Internal("lazy greedy heap drained early"));
        };
        if top.round == cover.picks.len() {
            note_pick(metrics, top.gain);
            cover.absorb(sim, top.index);
        } else {
            note_evals(metrics, 1);
            heap.push(HeapEntry {
                gain: gain_from(sim, top.index, &cover.coverage),
                index: top.index,
                round: cover.picks.len(),
            });
        }
    }
    Ok(cover)
}

fn stochastic_greedy(
    sim: &SimilarityMatrix,
    k: usize,
    epsilon: f32,
    rng: &mut Rng64,
    metrics: Option<&SelectMetrics>,
) -> Cover {
    let n = sim.len();
    let eps = epsilon.clamp(1e-4, 0.99);
    let sample = (((n as f64 / k as f64) * (1.0 / eps as f64).ln()).ceil() as usize).max(1);
    let mut cover = Cover::new(n, k);
    let mut remaining: Vec<usize> = (0..n).collect();
    for _ in 0..k {
        // Draw the candidate sample from the remaining pool.
        let s = sample.min(remaining.len());
        for i in 0..s {
            let j = i + rng.index(remaining.len() - i);
            remaining.swap(i, j);
        }
        let mut best = remaining[0];
        let mut best_gain = f32::NEG_INFINITY;
        for &j in &remaining[..s] {
            let g = gain_from(sim, j, &cover.coverage);
            if g > best_gain {
                best_gain = g;
                best = j;
            }
        }
        note_evals(metrics, s as u64);
        note_pick(metrics, best_gain);
        cover.absorb(sim, best);
        remaining.retain(|&j| j != best);
        if remaining.is_empty() {
            break;
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_features() -> Tensor {
        // Three tight clusters of 4 points each around (0,0), (10,0), (0,10).
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (10.0, 0.0), (0.0, 10.0)] {
            for d in 0..4 {
                rows.push(cx + 0.1 * d as f32);
                rows.push(cy - 0.1 * d as f32);
            }
        }
        Tensor::from_vec(rows, &[12, 2])
    }

    #[test]
    fn objective_is_monotone() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut set = Vec::new();
        let mut prev = sim.objective(&set);
        for j in [0, 4, 8, 1] {
            set.push(j);
            let cur = sim.objective(&set);
            assert!(cur >= prev - 1e-3, "{cur} < {prev}");
            prev = cur;
        }
    }

    #[test]
    fn greedy_picks_one_per_cluster() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut rng = Rng64::new(0);
        let sel = maximize(&sim, 3, GreedyVariant::Naive, &mut rng).unwrap();
        let clusters: Vec<usize> = sel.indices.iter().map(|&i| i / 4).collect();
        let mut sorted = clusters.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "selected {:?}", sel.indices);
    }

    #[test]
    fn lazy_matches_naive() {
        let mut rng = Rng64::new(1);
        let x = Tensor::rand_uniform(&[40, 6], -1.0, 1.0, &mut rng);
        let sim = SimilarityMatrix::from_features(&x);
        for k in [1, 3, 10, 25] {
            let naive = naive_greedy(&sim, k, None).unwrap().picks;
            let lazy = lazy_greedy(&sim, k, None).unwrap().picks;
            // Tie-breaking may differ; the objectives must match exactly
            // up to float noise.
            let fo_n = sim.objective(&naive);
            let fo_l = sim.objective(&lazy);
            assert!(
                (fo_n - fo_l).abs() <= 1e-2 * fo_n.abs().max(1.0),
                "k={k}: naive {fo_n} vs lazy {fo_l}"
            );
        }
    }

    #[test]
    fn greedy_achieves_submodular_bound_vs_bruteforce() {
        // On a small instance, greedy must reach ≥ (1 − 1/e) of optimum.
        let mut rng = Rng64::new(2);
        let x = Tensor::rand_uniform(&[10, 3], -1.0, 1.0, &mut rng);
        let sim = SimilarityMatrix::from_features(&x);
        let k = 3;
        let mut best = f32::NEG_INFINITY;
        for a in 0..10 {
            for b in (a + 1)..10 {
                for c in (b + 1)..10 {
                    best = best.max(sim.objective(&[a, b, c]));
                }
            }
        }
        let greedy = sim.objective(&naive_greedy(&sim, k, None).unwrap().picks);
        assert!(
            greedy >= (1.0 - 1.0 / std::f32::consts::E) * best - 1e-3,
            "greedy {greedy} vs optimum {best}"
        );
    }

    #[test]
    fn stochastic_is_close_to_greedy() {
        let mut rng = Rng64::new(3);
        let x = Tensor::rand_uniform(&[60, 4], -1.0, 1.0, &mut rng);
        let sim = SimilarityMatrix::from_features(&x);
        let exact = sim.objective(&naive_greedy(&sim, 10, None).unwrap().picks);
        let mut worst: f32 = f32::INFINITY;
        for seed in 0..5 {
            let mut r = Rng64::new(seed);
            let s = stochastic_greedy(&sim, 10, 0.1, &mut r, None);
            worst = worst.min(sim.objective(&s.picks));
        }
        assert!(worst >= 0.85 * exact, "stochastic {worst} vs exact {exact}");
    }

    #[test]
    fn weights_sum_to_n() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut rng = Rng64::new(4);
        let sel = maximize(&sim, 3, GreedyVariant::Lazy, &mut rng).unwrap();
        let total: f32 = sel.weights.iter().sum();
        assert_eq!(total, 12.0);
        // Balanced clusters ⇒ each medoid represents ~4 points.
        assert!(sel.weights.iter().all(|&w| (w - 4.0).abs() < 1.5));
    }

    #[test]
    fn k_zero_and_k_ge_n() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut rng = Rng64::new(5);
        assert!(maximize(&sim, 0, GreedyVariant::Naive, &mut rng)
            .unwrap()
            .is_empty());
        let all = maximize(&sim, 100, GreedyVariant::Naive, &mut rng).unwrap();
        assert_eq!(all.len(), 12);
        let total: f32 = all.weights.iter().sum();
        assert_eq!(total, 12.0);
    }

    #[test]
    fn empty_candidate_set() {
        let sim = SimilarityMatrix::from_features(&Tensor::zeros(&[0, 3]));
        let mut rng = Rng64::new(6);
        assert!(maximize(&sim, 5, GreedyVariant::Lazy, &mut rng)
            .unwrap()
            .is_empty());
        assert!(sim.is_empty());
    }

    #[test]
    fn marginal_gains_diminish() {
        // Submodularity: the gain of the (t+1)-th greedy pick never exceeds
        // the gain of the t-th pick.
        let mut rng = Rng64::new(7);
        let x = Tensor::rand_uniform(&[30, 5], -1.0, 1.0, &mut rng);
        let sim = SimilarityMatrix::from_features(&x);
        let mut cover = Cover::new(30, 8);
        let mut prev_gain = f32::INFINITY;
        for _ in 0..8 {
            let mut best = 0;
            let mut best_gain = f32::NEG_INFINITY;
            for j in 0..30 {
                let g = gain_from(&sim, j, &cover.coverage);
                if g > best_gain {
                    best_gain = g;
                    best = j;
                }
            }
            assert!(best_gain <= prev_gain + 1e-3);
            prev_gain = best_gain;
            cover.absorb(&sim, best);
        }
    }

    /// A similarity tile shaped like one select-heavy class: residual (10)
    /// ⊗ penultimate-feature (64) factors.
    fn factored_sim(n: usize, seed: u64) -> SimilarityMatrix {
        let mut rng = Rng64::new(seed);
        let a = Tensor::rand_uniform(&[n, 10], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, 64], -1.0, 1.0, &mut rng);
        SimilarityMatrix::from_factored(&a, &b)
    }

    /// Runs `check` on coverage states of the gain tiles: sizes around
    /// the 32-candidate strip, coverage after 0 to 3 picks and late in a
    /// greedy run, when many terms are zero.
    fn for_each_gains_case(mut check: impl FnMut(&SimilarityMatrix, &[f32])) {
        for n in [0, 1, 7, 31, 32, 33, 65, 600] {
            let sim = factored_sim(n, n as u64);
            let mut cover = Cover::new(n, 3);
            for pick in [None, Some(n / 2), Some(0), Some(n.saturating_sub(1))] {
                if let Some(j) = pick.filter(|_| n > 0) {
                    cover.absorb(&sim, j);
                }
                check(&sim, &cover.coverage);
            }
            for j in (0..n).step_by(5) {
                cover.absorb(&sim, j);
            }
            check(&sim, &cover.coverage);
        }
    }

    #[test]
    fn gain_from_sums_every_candidate_in_order() {
        for_each_gains_case(|sim, coverage| {
            for j in 0..sim.len() {
                let expect: f32 = (0..sim.len())
                    .map(|i| (sim.at(i, j) - coverage[i]).max(0.0))
                    .sum();
                let got = gain_from(sim, j, coverage);
                assert_eq!(got.to_bits(), expect.to_bits(), "candidate {j}");
            }
        });
    }

    #[test]
    fn row_gains_are_bit_identical_to_gain_from() {
        for_each_gains_case(|sim, coverage| {
            let got = row_gains(sim, coverage);
            let expect: Vec<f32> = (0..sim.len())
                .map(|j| gain_from(sim, j, coverage))
                .collect();
            let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expect), "{} candidates", sim.len());
        });
    }

    #[test]
    fn dispatch_row_gains_instances_are_bit_identical() {
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let mut skipped = Vec::new();
        for_each_gains_case(|sim, coverage| {
            let mut base = vec![f32::NAN; sim.len()];
            let out = &mut base;
            RowGains { sim, coverage, out }.run(Level::Baseline);
            for level in [Level::Avx2, Level::Avx512] {
                let mut wide = vec![f32::NAN; sim.len()];
                let out = &mut wide;
                if dispatch::run_at(level, RowGains { sim, coverage, out }).is_err() {
                    skipped.push(level);
                    continue;
                }
                let at = format!("{level:?}, {} candidates", sim.len());
                assert_eq!(bits(&wide), bits(&base), "{at}");
            }
        });
        skipped.sort();
        skipped.dedup();
        for level in skipped {
            println!(
                "dispatch_row_gains_instances_are_bit_identical: {level:?} skipped, this CPU \
                 lacks it"
            );
        }
    }

    /// CRAIG weights by a separate scan over the finished solution:
    /// candidate `i` goes to the first pick with the strictly largest
    /// `sim(i, j)`, and a pick to itself.
    fn scanned_weights(sim: &SimilarityMatrix, set: &[usize]) -> Vec<f32> {
        let mut w = vec![0.0f32; set.len()];
        for i in 0..sim.len() {
            let owner = match set.iter().position(|&j| j == i) {
                Some(own) => own,
                None => {
                    let mut best = (0, f32::NEG_INFINITY);
                    for (si, &j) in set.iter().enumerate() {
                        if sim.at(i, j) > best.1 {
                            best = (si, sim.at(i, j));
                        }
                    }
                    best.0
                }
            };
            w[owner] += 1.0;
        }
        w
    }

    #[test]
    fn owners_from_the_coverage_pass_match_a_separate_scan() {
        // Duplicate rows tie on similarity; an all-identical tile has
        // every similarity zero, which coverage (from 0.0) never beats.
        let mut rng = Rng64::new(8);
        let base = Tensor::rand_uniform(&[20, 3], -1.0, 1.0, &mut rng);
        let dups: Vec<usize> = (0..50).map(|_| rng.index(20)).collect();
        for sim in [
            SimilarityMatrix::from_features(&base.gather_rows(&dups)),
            SimilarityMatrix::from_features(&Tensor::ones(&[12, 2])),
            factored_sim(70, 9),
        ] {
            for variant in [
                GreedyVariant::Naive,
                GreedyVariant::Lazy,
                GreedyVariant::Stochastic { epsilon: 0.2 },
            ] {
                let sel = maximize(&sim, 7, variant, &mut Rng64::new(1)).unwrap();
                let expect = scanned_weights(&sim, &sel.indices);
                let bits = |v: &[f32]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sel.weights), bits(&expect), "{variant:?}");
            }
        }
    }

    #[test]
    fn a_fully_covered_candidate_gains_positive_zero() {
        let sim = factored_sim(40, 3);
        let mut cover = Cover::new(40, 1);
        cover.absorb(&sim, 4);
        // Candidate 4 sits in the first strip, not the remainder.
        assert_eq!(
            gain_from(&sim, 4, &cover.coverage).to_bits(),
            0.0f32.to_bits()
        );
        assert_eq!(
            row_gains(&sim, &cover.coverage)[4].to_bits(),
            0.0f32.to_bits()
        );
    }

    #[test]
    fn naive_and_lazy_pick_the_same_set_on_a_factored_tile() {
        let sim = factored_sim(600, 11);
        let naive = naive_greedy(&sim, 120, None).unwrap().into_selection();
        let lazy = lazy_greedy(&sim, 120, None).unwrap().into_selection();
        assert_eq!(naive, lazy);
    }

    #[test]
    fn absorb_is_idempotent() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut cover = Cover::new(12, 2);
        cover.absorb(&sim, 0);
        let snapshot = cover.coverage.clone();
        cover.absorb(&sim, 0);
        assert_eq!(cover.coverage, snapshot);
        // After absorbing j, j's own marginal gain is zero.
        assert_eq!(gain_from(&sim, 0, &cover.coverage), 0.0);
    }
}
