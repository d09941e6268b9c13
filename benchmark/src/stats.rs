//! Order statistics: percentiles, medians and the quartile spread.

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule.
/// `sorted` must be ascending and non-empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of an unsorted sample.
#[cfg(test)]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so `--repeat` reports the spread the
/// driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let position = i * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// One completed op of a traced run: how long it took from its due time.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_ns: u64,
    /// Frame class on the fan-in workloads (0 deep, 1 shallow); 0 elsewhere.
    pub class: u8,
}

/// The highest of p99.9 / p99 / p90 that has at least ten samples beyond
/// it; the maximum on samples too small even for p90.
pub fn highest_supported_tail_ms(latencies_ms_sorted: &[f64]) -> f64 {
    [0.999, 0.99, 0.90]
        .into_iter()
        .find(|&q| tail_supported(latencies_ms_sorted.len(), q))
        .map_or_else(
            || *latencies_ms_sorted.last().expect("non-empty sample"),
            |q| percentile_sorted(latencies_ms_sorted, q),
        )
}

/// Whether at least ten samples lie beyond the `q`-quantile of `n` samples.
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.50), 50.0);
        assert_eq!(percentile(&values, 0.90), 90.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(tail_supported(10_000, 0.999));
        assert!(!tail_supported(9_999, 0.999));
        assert!(tail_supported(1_000, 0.99));
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported_tail_ms(&sorted), 990.0);
        assert_eq!(highest_supported_tail_ms(&sorted[..50]), 50.0);
    }
}
