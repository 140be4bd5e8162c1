//! Order statistics over small sample sets.

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (0..=1) by nearest rank — used for p95 beside a
/// median, where interpolation would invent a sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method) — the acceptance check this
/// benchmark is held to uses exactly that function. A single sample is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary { n: values.len(), median: median(values), q1, q3 }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_a_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.n, s.median), (5, 4.0));
        assert_eq!(s.spread(), (12.0 - 1.5) / 4.0);
    }
}
