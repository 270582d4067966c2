//! The arithmetic every reported number goes through: nearest-rank
//! quantiles of one pass, the median over passes, and the quartiles the
//! `compare` table prints (same definition as Python's
//! `statistics.quantiles(values, n=4)`, which is what the driver uses).

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q` quantile —
/// a percentile is only reported with enough of them.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` by the exclusive method (`statistics.quantiles`
/// with `n=4`). A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One timed pass of a closed loop: how many operations completed in how
/// long, and their sorted latencies.
#[derive(Debug, Clone)]
pub struct Pass {
    pub ops: usize,
    pub seconds: f64,
    /// Per-operation latency in microseconds, ascending.
    pub latencies_us: Vec<f64>,
}

impl Pass {
    pub fn new(seconds: f64, mut latencies_us: Vec<f64>) -> Self {
        latencies_us.sort_by(f64::total_cmp);
        Pass {
            ops: latencies_us.len(),
            seconds,
            latencies_us,
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.seconds
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_sorted(&self.latencies_us, q)
    }
}

/// Throughput, p50 and p99 of a phase of repeated passes: each computed
/// per pass, then the median over the passes — all of them.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub passes: usize,
    /// Smallest operation count among the passes (the weakest pass's
    /// sample size).
    pub min_ops_per_pass: usize,
    pub total_ops: usize,
    /// Every pass in run order as `(ops/s, p50 µs, p99 µs)`, so a result
    /// file shows what the run looked like.
    pub per_pass: Vec<(f64, f64, f64)>,
}

/// # Panics
/// Panics when there is no pass, or a pass in which nothing completed.
pub fn timing_of_passes(passes: &[Pass]) -> PhaseTiming {
    let per_pass: Vec<(f64, f64, f64)> = passes
        .iter()
        .map(|p| (p.ops_per_s(), p.quantile_us(0.5), p.quantile_us(0.99)))
        .collect();
    let over = |f: fn(&(f64, f64, f64)) -> f64| median(&per_pass.iter().map(f).collect::<Vec<_>>());
    PhaseTiming {
        ops_per_s: over(|p| p.0),
        p50_us: over(|p| p.1),
        p99_us: over(|p| p.2),
        passes: passes.len(),
        min_ops_per_pass: passes.iter().map(|p| p.ops).min().unwrap_or(0),
        total_ops: passes.iter().map(|p| p.ops).sum(),
        per_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(20_000, 0.99), 200);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn a_phase_reports_the_median_over_all_its_passes() {
        let pass = |scale: f64, seconds: f64| {
            let mut p = Pass::new(
                1.0,
                (1..=1000).map(|i| f64::from(i) * scale / 1000.0).collect(),
            );
            p.seconds = seconds;
            p
        };
        // Three steady passes and two that ran slower: the slow ones count.
        let t = timing_of_passes(&[
            pass(10.0, 1.0),
            pass(30.0, 4.0),
            pass(10.0, 1.0),
            pass(20.0, 2.0),
            pass(10.0, 1.0),
        ]);
        assert_eq!(t.ops_per_s, 1000.0);
        assert_eq!(t.p50_us, 5.0);
        assert_eq!(t.p99_us, 9.9);
        let t = timing_of_passes(&[pass(10.0, 1.0), pass(30.0, 4.0), pass(20.0, 2.0)]);
        assert_eq!((t.ops_per_s, t.p50_us, t.p99_us), (500.0, 10.0, 19.8));
        assert_eq!((t.passes, t.min_ops_per_pass, t.total_ops), (3, 1000, 3000));
        assert_eq!(t.per_pass[1], (250.0, 15.0, 29.7));
    }
}
