//! Order statistics for the benchmark's timings: the median, nearest-rank
//! percentiles, and the highest percentile a sample count supports.

use std::fmt;

/// Samples that must lie beyond a percentile before it is reported; a tail
/// read from fewer samples is mostly noise.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples
/// for an even count. `None` without samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The nearest-rank `p`-th percentile (`1..=100`): the smallest sample with
/// at least `p` % of the samples at or below it.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    if values.is_empty() || !(1..=100).contains(&p) {
        return None;
    }
    let v = sorted(values);
    Some(v[rank(v.len(), p) - 1])
}

/// The highest whole percentile from 50 up that keeps at least
/// [`TAIL_SAMPLES`] samples above its nearest rank; `None` below 20
/// samples, where not even the median has that many beyond it.
pub fn supported_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n >= rank(n, p) + TAIL_SAMPLES)
}

/// A timing summary: the median plus the highest supported percentile, with
/// the sample count both rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median sample.
    pub median: f64,
    /// `(p, value)` of the highest supported percentile, if any.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `values`; `None` without samples.
    pub fn of(values: &[f64]) -> Option<Self> {
        let median = median(values)?;
        let tail =
            supported_percentile(values.len()).and_then(|p| percentile(values, p).map(|v| (p, v)));
        Some(Self {
            count: values.len(),
            median,
            tail,
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "median {:.6} over n={}", self.median, self.count)?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.6}"),
            None => write!(
                f,
                " (no percentile above it has {TAIL_SAMPLES} samples beyond it)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 91), Some(10.0));
        assert_eq!(percentile(&v, 100), Some(10.0));
        assert_eq!(percentile(&v, 0), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(40), Some(75));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(1000), Some(99));
        for n in 20..500 {
            let p = supported_percentile(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
            assert!(p == 99 || n - rank(n, p + 1) < TAIL_SAMPLES, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_states_its_sample_count() {
        let few = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((few.count, few.median, few.tail), (3, 2.0, None));
        assert!(few.to_string().contains("n=3"));
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert_eq!(s.tail, Some((75, 30.0)));
        assert!(s.to_string().contains("p75 30.0"));
        assert_eq!(Summary::of(&[]), None);
    }
}
