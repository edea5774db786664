//! Sample summaries: medians, quartiles and the one percentile rule.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unordered sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// The percentile rule, in its one place: the highest percentile,
/// capped at 95, that still has at least ten samples beyond it — the
/// only tail a sample of `n` supports. Below 21 samples nothing past the
/// median qualifies. A workload's tail is read at the percentile its
/// fixed job count supports, so every run of every commit reads the
/// same one.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, 95.0)
}

/// Median and quartiles of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    s
}

impl Summary {
    /// Summarizes an unordered sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite sample.
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            p50: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

/// The `pct`-th percentile of an unordered sample.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    quantile_sorted(&sorted(samples), pct / 100.0)
}

/// Run-to-run spread of one metric: the distance between the first and
/// third quartile of the runs' values as a share of their median, with
/// the quartiles of Python's `statistics.quantiles(values, n=4)` — the
/// figure the benchmark driver holds against a metric's bound. `None`
/// below four runs: too few to tell a spread from an accident.
pub fn run_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let s = sorted(values);
    // The "exclusive" method: quartile i sits at i(n+1)/4, counted from 1.
    let at = |i: usize| {
        let pos = (i * (s.len() + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[j - 1] + (s[j] - s[j - 1]) * (pos - j as f64)
    };
    let med = quantile_sorted(&s, 0.5);
    if med == 0.0 {
        return Some(if at(3) == at(1) { 0.0 } else { f64::INFINITY });
    }
    Some((at(3) - at(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.125), 1.5);
    }

    #[test]
    fn summary_is_order_free() {
        let a = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((a.n, a.p50, a.q1, a.q3), (5, 3.0, 2.0, 4.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 15 solver runs support nothing past the median.
        assert_eq!(tail_percentile(15), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        // 40 samples: ten beyond p75.
        assert_eq!(tail_percentile(40), 75.0);
        // 200 samples reach p95 exactly; more never exceed the cap.
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(320), 95.0);
        for n in [21usize, 33, 64, 199, 1000] {
            let p = tail_percentile(n);
            let beyond = n as f64 * (1.0 - p / 100.0);
            assert!(beyond >= 10.0 - 1e-9, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn run_spread_matches_the_drivers_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((run_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([10, 11, 12, 30], n=4) == [10.25, 11.5, 25.5]
        let w = [30.0, 10.0, 12.0, 11.0];
        assert!((run_spread(&w).unwrap() - 15.25 / 11.5).abs() < 1e-12);
        assert_eq!(run_spread(&[4.0; 6]), Some(0.0));
        assert_eq!(run_spread(&[1.0, 2.0, 3.0]), None);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    }
}
