//! Order statistics over the benchmark's repeated measurements.
//!
//! Quartiles follow the exclusive method, the default of Python's
//! `statistics.quantiles(xs, n=4)`, so the spreads printed here are the
//! ones a reader recomputes from the raw values.

/// Sorted copy of `xs`; NaNs sort last.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the exclusive method; `None` with fewer
/// than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    // Python's exclusive method with n = 4 cut points, in exact integer
    // arithmetic: position i·(ld+1)/4, clamped to [1, ld-1], then linear
    // interpolation between the neighbouring order statistics (the
    // clamp can push the weight outside [0, 4], extrapolating as Python
    // does).
    let cut = |i: i64| {
        let (ld, m) = (ld as i64, ld as i64 + 1);
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`): the smallest sample
/// with at least `p` % of the samples at or below it. Refused (`None`)
/// when fewer than ten samples lie above that rank, because such a tail
/// rests on too few observations to report.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 100.0) || xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    if v.len() - rank < 10 {
        return None;
    }
    Some(v[rank - 1])
}

/// The highest of the conventional tail percentiles that `xs` can
/// support, with its value: `(p, value)`.
pub fn highest_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|p| percentile(xs, p).map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // Two points clamp to the only pair: [0.75, 1.5, 2.25] for [1, 2].
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // Rank 91 leaves nine samples above it: refused.
        assert_eq!(percentile(&xs, 90.5), None);
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(highest_percentile(&xs), Some((90.0, 90.0)));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), None);
        assert_eq!(highest_percentile(&ten), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Some(10.0));
        assert_eq!(percentile(&twenty, 55.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&twenty, 100.0), None);
    }
}
