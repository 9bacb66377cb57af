//! Order statistics over raw samples.
//!
//! Percentiles are computed from every recorded sample (nearest rank on
//! the sorted values), never from bucketed histograms: a log2 histogram
//! can only resolve factors of two, so a 10% change would never show.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the smallest
/// sample with at least `p`% of the samples at or below it. 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `part / whole` in percent, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    ratio(part, whole) * 100.0
}

/// Whether one more repetition, as long as the median one so far, ends
/// within `seconds` of `t0`.
pub fn fits(t0: Instant, walls: &[f64], seconds: f64) -> bool {
    t0.elapsed().as_secs_f64() + median(walls) <= seconds
}

/// Percentiles considered for a tail figure, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_CANDIDATES`] that still leaves at least ten
/// samples strictly above its rank, as `(percentile, value)`; the median
/// when even that is out of reach (fewer than about 20 samples).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    let p = TAIL_CANDIDATES
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n >= rank + 10
        })
        .unwrap_or(50.0);
    (p, percentile(samples, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order of arrival does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 95.0), 95.0);
    }

    #[test]
    fn a_ten_percent_shift_is_visible() {
        let base: Vec<f64> = (0..200).map(|i| 10.0 + f64::from(i % 7) * 0.01).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.1).collect();
        let ratio = percentile(&slower, 50.0) / percentile(&base, 50.0);
        assert!((ratio - 1.1).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), (99.0, 990.0));
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&s), (95.0, 190.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), (90.0, 90.0));
        let s: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&s).0, 50.0);
    }
}
