//! Order statistics shared by the workloads and `compare`.

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` by linear interpolation between the two
/// closest ranks; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let h = (n - 1) as f64 * p / 100.0;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (h - lo as f64)
        }
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so a
/// spread computed here matches one computed from the printed values.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Run-to-run spread: the interquartile distance as a share of the median
/// (0 for fewer than two samples or a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The standard percentiles a timing may be reported at, lowest first.
const PERCENTILES: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// The highest standard percentile with at least ten of `n` samples beyond
/// it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES.into_iter().rev().find(|p| (n as f64 * (100.0 - p) / 100.0).floor() >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 75.0), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(48), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }
}
