//! Order statistics shared by the timed runs and by `compare`.

use std::time::Duration;

/// The smallest number of samples that must lie beyond a reported
/// percentile for it to be worth reporting.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `0.99 * 1000` at rank 990 despite binary rounding.
fn rank(q: f64, n: usize) -> usize {
    (((q * n as f64) - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`); `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// Median of `values` by nearest rank; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Interquartile mean: the mean of the middle half of `values` (all of
/// them when there are fewer than four). Like the median it ignores the
/// slowest and fastest quarter; unlike the median it moves smoothly when
/// the samples fall into two clusters whose shares vary from run to run.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn beyond(q: f64, n: usize) -> usize {
    n - rank(q, n)
}

/// The highest of `candidates` (ascending) that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, falling back to the lowest.
pub fn tail_quantile(candidates: &[f64], n: usize) -> f64 {
    candidates.iter().rev().copied().find(|&q| beyond(q, n) >= MIN_BEYOND).unwrap_or(candidates[0])
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`, so the spreads
/// printed here are the ones an outside script computes from the same
/// numbers. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        data[j - 1] + (data[j] - data[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Durations as milliseconds.
pub fn millis(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Durations as seconds.
pub fn seconds(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(Duration::as_secs_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_averages_the_middle_half() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(interquartile_mean(&v), Some(4.5));
        // Two clusters: the median jumps from 70 to 90 as the share of
        // the slow one passes a half; the interquartile mean moves by
        // one sample's share.
        let mut mix = vec![70.0; 5];
        mix.extend([90.0; 5]);
        assert_eq!(median(&mix), Some(70.0));
        assert_eq!(interquartile_mean(&mix), Some(80.0));
        mix[4] = 90.0;
        assert_eq!(median(&mix), Some(90.0));
        assert_eq!(interquartile_mean(&mix), Some(83.33333333333333));
        assert_eq!(interquartile_mean(&[2.0, 1.0, 9.0]), Some(4.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn sample_count_rule_picks_the_deepest_resolvable_percentile() {
        assert_eq!(beyond(0.99, 1100), 11);
        assert_eq!(beyond(0.99, 1000), 10);
        assert_eq!(beyond(0.99, 999), 9);
        assert_eq!(beyond(0.5, 20), 10);
        assert_eq!(beyond(0.5, 0), 0);
        let qs = [0.5, 0.9, 0.99];
        assert_eq!(tail_quantile(&qs, 1100), 0.99);
        assert_eq!(tail_quantile(&qs, 999), 0.9);
        assert_eq!(tail_quantile(&qs, 100), 0.9);
        assert_eq!(tail_quantile(&qs, 25), 0.5);
        assert_eq!(tail_quantile(&qs, 3), 0.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 6.0, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
