//! Accuracy aggregation: the geometric means the paper reports.

use tlabp_workloads::BenchmarkKind;

/// Geometric mean of a slice of positive values.
///
/// The paper reports "Tot GMean", "Int GMean" and "FP GMean" — geometric
/// means of per-benchmark prediction accuracies.
///
/// # Panics
///
/// Panics if any value is non-positive.
///
/// # Example
///
/// ```
/// use tlabp_sim::metrics::geometric_mean;
///
/// let g = geometric_mean(&[0.25, 1.0]);
/// assert!((g - 0.5).abs() < 1e-12);
/// assert!(geometric_mean(&[]).is_nan());
/// ```
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    assert!(values.iter().all(|&v| v > 0.0), "geometric mean requires positive values");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Accuracy of one scheme on one benchmark. `accuracy` is `None` when the
/// benchmark could not be measured (e.g. a profiled scheme on a benchmark
/// with no training data set, like the missing Static Training points in
/// the paper's Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkAccuracy {
    /// Benchmark name.
    pub benchmark: String,
    /// Integer or floating point.
    pub kind: BenchmarkKind,
    /// Prediction accuracy in `[0, 1]`, or `None` if not measurable.
    pub accuracy: Option<f64>,
    /// Context switches simulated during the run.
    pub context_switches: u64,
    /// Dynamic conditional branches predicted.
    pub predictions: u64,
}

/// Misprediction attribution for a PAg-structured predictor — the
/// paper's concluding "examining that 3 percent" analysis, produced by
/// jobs requesting [`MetricSet::miss_breakdown`].
///
/// Every misprediction lands in exactly one bucket; the engine asserts
/// that the buckets sum to the misprediction count.
///
/// [`MetricSet::miss_breakdown`]: crate::plan::MetricSet
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    /// The branch's history register was not resident: the prediction
    /// came from a fresh all-ones history (cold start / BHT capacity).
    pub bht_miss: u64,
    /// The PHT entry was in a weak state (1 or 2): the pattern was still
    /// training or oscillating.
    pub weak_pattern: u64,
    /// The PHT entry was saturated yet wrong, and its most recent update
    /// came from a *different* static branch: pattern interference — the
    /// component gshare later attacked.
    pub interference: u64,
    /// Saturated yet wrong with the entry last updated by this same
    /// branch: intrinsic data-dependent noise.
    pub noise: u64,
}

impl MissBreakdown {
    /// Total mispredictions across the four buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bht_miss + self.weak_pattern + self.interference + self.noise
    }

    /// Adds another breakdown bucket-wise (for suite-level totals).
    pub fn accumulate(&mut self, other: &MissBreakdown) {
        self.bht_miss += other.bht_miss;
        self.weak_pattern += other.weak_pattern;
        self.interference += other.interference;
        self.noise += other.noise;
    }
}

/// Fetch-path outcome counts for the Section 3.2 target-caching model,
/// produced by jobs requesting [`MetricSet::fetch`].
///
/// [`MetricSet::fetch`]: crate::plan::MetricSet
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Branches of every class seen by the fetch engine.
    pub branches: u64,
    /// Fetches that proceeded down the correct path.
    pub correct_path: u64,
    /// Taken branches fetched with the correct cached target in hand
    /// (no pipeline bubble).
    pub no_bubble_taken: u64,
    /// Wrong-path fetches that must be squashed.
    pub squashes: u64,
    /// Squashes caused by a stale cached *return* target — the classic
    /// motivation for return-address stacks.
    pub return_target_misses: u64,
}

/// A scheme's accuracies across the whole benchmark suite, with the
/// paper's three geometric means.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// The scheme's configuration string.
    pub scheme: String,
    /// Per-benchmark rows, in [`tlabp_workloads::Benchmark::ALL`] order.
    pub rows: Vec<BenchmarkAccuracy>,
}

impl SuiteResult {
    fn accuracies(&self, filter: Option<BenchmarkKind>) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|r| filter.is_none_or(|k| r.kind == k))
            .filter_map(|r| r.accuracy)
            .collect()
    }

    /// "Tot GMean": geometric mean over all measured benchmarks.
    #[must_use]
    pub fn total_gmean(&self) -> f64 {
        geometric_mean(&self.accuracies(None))
    }

    /// "Int GMean": geometric mean over the integer benchmarks.
    #[must_use]
    pub fn int_gmean(&self) -> f64 {
        geometric_mean(&self.accuracies(Some(BenchmarkKind::Integer)))
    }

    /// "FP GMean": geometric mean over the floating-point benchmarks.
    #[must_use]
    pub fn fp_gmean(&self) -> f64 {
        geometric_mean(&self.accuracies(Some(BenchmarkKind::FloatingPoint)))
    }

    /// The accuracy measured for `benchmark`, if present.
    #[must_use]
    pub fn accuracy_of(&self, benchmark: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.benchmark == benchmark).and_then(|r| r.accuracy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, kind: BenchmarkKind, accuracy: Option<f64>) -> BenchmarkAccuracy {
        BenchmarkAccuracy {
            benchmark: name.to_owned(),
            kind,
            accuracy,
            context_switches: 0,
            predictions: 1000,
        }
    }

    #[test]
    fn gmean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[0.9]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gmean_of_empty_slice_is_nan() {
        // Pinned: empty input yields NaN (not a panic, not 0) so callers
        // like `format_accuracy` can render missing means uniformly.
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn gmean_of_single_element_is_identity() {
        for v in [1e-9, 0.5, 1.0, 123.456] {
            let g = geometric_mean(&[v]);
            assert!((g - v).abs() < 1e-12 * v.max(1.0), "gmean([{v}]) = {g}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        let _ = geometric_mean(&[0.0, 1.0]);
    }

    #[test]
    fn suite_means_split_by_kind() {
        let suite = SuiteResult {
            scheme: "test".to_owned(),
            rows: vec![
                row("int_a", BenchmarkKind::Integer, Some(0.9)),
                row("int_b", BenchmarkKind::Integer, Some(0.9)),
                row("fp_a", BenchmarkKind::FloatingPoint, Some(0.99)),
            ],
        };
        assert!((suite.int_gmean() - 0.9).abs() < 1e-9);
        assert!((suite.fp_gmean() - 0.99).abs() < 1e-9);
        let total = geometric_mean(&[0.9, 0.9, 0.99]);
        assert!((suite.total_gmean() - total).abs() < 1e-12);
    }

    #[test]
    fn unmeasured_rows_are_excluded() {
        let suite = SuiteResult {
            scheme: "test".to_owned(),
            rows: vec![
                row("a", BenchmarkKind::Integer, Some(0.8)),
                row("b", BenchmarkKind::Integer, None),
            ],
        };
        assert!((suite.total_gmean() - 0.8).abs() < 1e-12);
        assert_eq!(suite.accuracy_of("b"), None);
        assert_eq!(suite.accuracy_of("a"), Some(0.8));
        assert_eq!(suite.accuracy_of("missing"), None);
    }
}
