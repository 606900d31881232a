//! Full-suite sweeps: the (scheme × benchmark) matrix as a plan.
//!
//! Historically this module owned its own three-phase executor
//! (pre-generate traces, flatten cells, reassemble suites). That logic
//! now lives in the general [`crate::engine`]; `run_sweep` survives as
//! the convenience entry point for the most common plan shape — every
//! configuration on every benchmark — expressed as
//! [`Plan::suites`](crate::plan::Plan::suites) and executed by
//! [`engine::execute_on`].
//!
//! # Example
//!
//! ```no_run
//! use tlabp_core::config::SchemeConfig;
//! use tlabp_sim::runner::SimConfig;
//! use tlabp_sim::suite::TraceStore;
//! use tlabp_sim::sweep::run_sweep;
//!
//! let store = TraceStore::new();
//! let configs: Vec<_> = (6..=12).map(SchemeConfig::pag).collect();
//! for suite in run_sweep(&configs, &store, &SimConfig::default()) {
//!     println!("{}: {:.2}%", suite.scheme, suite.total_gmean() * 100.0);
//! }
//! ```

use tlabp_core::config::SchemeConfig;

use crate::engine;
use crate::metrics::SuiteResult;
use crate::plan::Plan;
use crate::pool::SweepPool;
use crate::runner::SimConfig;
use crate::suite::TraceStore;

/// Runs every configuration over every benchmark on the process-wide
/// [`SweepPool::global`] pool and returns one [`SuiteResult`] per
/// configuration, in the order of `configs`.
#[must_use]
pub fn run_sweep(
    configs: &[SchemeConfig],
    store: &TraceStore,
    sim: &SimConfig,
) -> Vec<SuiteResult> {
    run_sweep_on(SweepPool::global(), configs, store, sim)
}

/// [`run_sweep`] on an explicit pool — the determinism tests use this to
/// compare single-worker and many-worker executions.
#[must_use]
pub fn run_sweep_on(
    pool: &SweepPool,
    configs: &[SchemeConfig],
    store: &TraceStore,
    sim: &SimConfig,
) -> Vec<SuiteResult> {
    engine::execute_on(pool, &Plan::suites(configs, sim), store).suites()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlabp_workloads::Benchmark;

    #[test]
    fn sweep_preserves_config_order() {
        let store = TraceStore::new();
        let configs = [SchemeConfig::pag(6), SchemeConfig::gag(6), SchemeConfig::btfn()];
        let suites = run_sweep(&configs, &store, &SimConfig::no_context_switch());
        assert_eq!(suites.len(), 3);
        for (config, suite) in configs.iter().zip(&suites) {
            assert_eq!(suite.scheme, config.to_string());
            assert_eq!(suite.rows.len(), Benchmark::ALL.len());
        }
        let names: Vec<&str> = suites[0].rows.iter().map(|r| r.benchmark.as_str()).collect();
        let expected: Vec<&str> = Benchmark::ALL.iter().map(Benchmark::name).collect();
        assert_eq!(names, expected, "rows follow Benchmark::ALL order");
    }

    #[test]
    fn sweep_pregenerates_all_testing_traces() {
        let store = TraceStore::new();
        let _ = run_sweep(&[SchemeConfig::btfn()], &store, &SimConfig::no_context_switch());
        assert_eq!(store.len(), Benchmark::ALL.len(), "one testing trace per benchmark");
    }

    #[test]
    fn traces_generated_only_for_measurable_cells() {
        let store = TraceStore::new();
        let _ = run_sweep(&[SchemeConfig::profiling()], &store, &SimConfig::no_context_switch());
        // A profiled scheme only runs where a training set exists, so the
        // engine generates a testing and a training trace for exactly
        // those benchmarks and never touches the rest.
        let with_training = Benchmark::ALL.iter().filter(|b| b.has_training_set()).count();
        assert_eq!(store.len(), 2 * with_training);
    }

    #[test]
    fn duplicate_configs_yield_separate_suites() {
        let store = TraceStore::new();
        let configs = [SchemeConfig::btfn(), SchemeConfig::btfn()];
        let suites = run_sweep(&configs, &store, &SimConfig::no_context_switch());
        assert_eq!(suites.len(), 2, "duplicate configs must not merge");
        assert_eq!(suites[0], suites[1]);
    }
}
