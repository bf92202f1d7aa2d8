//! Order statistics over small samples: medians, percentiles, and the
//! quartiles the driver uses to judge steadiness.

/// Sort ascending; NaN never occurs in measured data, so a total order
/// is safe to assert.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
    v
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending sample; 0 for
/// an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// (q1, q3) of an ascending sample, as Python's
/// `statistics.quantiles(values, n=4)` computes them — the driver's
/// rule, so `spread` here reads the way the driver will read it.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(sorted: &[f64]) -> f64 {
    let (q1, q3) = quartiles(sorted);
    let m = median(sorted);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn slice_median_takes_the_middle() {
        assert_eq!(median(&sorted(vec![3.0, 1.0, 2.0])), 2.0);
        assert_eq!(median(&sorted(vec![4.0, 1.0, 3.0, 2.0])), 2.5);
        // One slow slice out of ten does not move the median.
        let mut slices = vec![70.0; 9];
        slices.push(7.0);
        assert_eq!(median(&sorted(slices)), 70.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }
}
