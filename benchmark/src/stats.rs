//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed values with the standard library.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The first, second and third quartiles, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them.
///
/// # Panics
///
/// Panics with fewer than two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let data = sorted(values);
    let n = 4i64;
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: Python extrapolates too.
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is compared against.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The nearest rank of percentile `p` among `n` samples (1-based). The
/// tolerance keeps `0.99 × 1000` from rounding up to rank 991.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (`p` in `(0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    sorted(values)[rank(p, values.len()) - 1]
}

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(p, value)`; `None` when
/// even the 75th percentile has fewer (under 40 samples), because a
/// tail resting on a handful of samples is noise.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(values, p)))
}

/// Operations attempted and failed, and the latency of each completed
/// one. A failed operation (a failed check, an I/O error or an error
/// frame) counts once and also misses every latency bound: it enters
/// the latency samples as infinitely slow.
#[derive(Debug, Default, Clone)]
pub struct Outcomes {
    /// Latency of every attempted operation; failures are `INFINITY`.
    pub latencies: Vec<f64>,
    /// Operations that failed.
    pub failed: u64,
}

impl Outcomes {
    /// Records one operation: its latency when it succeeded.
    pub fn record(&mut self, latency: Option<f64>) {
        match latency {
            Some(latency) => self.latencies.push(latency),
            None => {
                self.latencies.push(f64::INFINITY);
                self.failed += 1;
            }
        }
    }

    /// Operations attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.failed as f64 / self.attempted() as f64
        }
    }

    /// Appends another set of outcomes (a second caller's).
    pub fn merge(&mut self, other: Outcomes) {
        self.latencies.extend(other.latencies);
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&values);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25), "{q1} {q2} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let [q1, q2, q3] = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25), "{q1} {q2} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let [q1, q2, q3] = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!(close(q1, 1.5) && close(q2, 4.0) && close(q3, 12.0), "{q1} {q2} {q3}");
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&values), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[5.0; 10]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[9.0], 0.75), 9.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(tail(&samples(40)), Some((0.75, 30.0)));
        assert_eq!(tail(&samples(100)), Some((0.90, 90.0)));
        assert_eq!(tail(&samples(200)), Some((0.95, 190.0)));
        assert_eq!(tail(&samples(1000)), Some((0.99, 990.0)));
        assert_eq!(tail(&samples(10_000)), Some((0.999, 9990.0)));
        assert_eq!(tail(&samples(999)).map(|t| t.0), Some(0.95), "9 beyond p99 is too few");
    }

    #[test]
    fn tail_refuses_with_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&samples), None, "39 samples leave only 9 beyond p75");
        assert_eq!(tail(&[1.0, 2.0, 3.0]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_latency_bound() {
        let mut outcomes = Outcomes::default();
        for i in 0..39 {
            outcomes.record(Some(f64::from(i)));
        }
        outcomes.record(None);
        assert_eq!(outcomes.attempted(), 40);
        assert_eq!(outcomes.failed, 1);
        assert!(close(outcomes.error_rate(), 1.0 / 40.0));
        assert_eq!(percentile(&outcomes.latencies, 1.0), f64::INFINITY);
        let mut other = Outcomes::default();
        other.record(None);
        outcomes.merge(other);
        assert_eq!((outcomes.attempted(), outcomes.failed), (41, 2));
        assert_eq!(Outcomes::default().error_rate(), 0.0);
    }
}
