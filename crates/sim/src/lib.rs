//! # Trace-driven branch prediction simulator
//!
//! The measurement half of the reproduction (the paper's Section 4): a
//! simulation loop that feeds conditional branches to a predictor,
//! verifies predictions against resolved directions, and models context
//! switches; plus suite orchestration over the nine SPEC-like workloads
//! and the geometric-mean accuracy metrics the paper reports.
//!
//! * [`runner`] — [`runner::simulate`] drives one predictor over one
//!   trace, honoring the trap/500k-instruction context-switch model of
//!   Section 5.1.4; [`runner::SwitchSchedule`] precomputes where those
//!   switches fall so the interned walk ([`runner::simulate_fused`])
//!   models them on the conditional stream alone.
//! * [`plan`] — the declarative job IR: a [`plan::Job`] names a
//!   predictor, a trace, simulation options and the metrics wanted; a
//!   [`plan::Plan`] is an ordered batch. Pure data, no execution.
//! * [`engine`] — [`engine::execute`] lowers each job onto one of two
//!   fast paths: pattern-stream replay, or the interned walk for
//!   everything that cannot replay (context switches, BTB, static and
//!   registry predictors), batched per trace and switch configuration,
//!   monomorphized for catalog schemes and dynamically dispatched for
//!   registry predictors. It runs the batches on the persistent worker
//!   pool ([`pool`]) and reassembles a typed [`engine::ResultSet`] in
//!   deterministic plan order.
//! * [`suite`] — [`suite::run_suite`] evaluates a
//!   [`tlabp_core::config::SchemeConfig`] on all nine benchmarks,
//!   training the profiled schemes per benchmark and skipping the
//!   benchmarks without training data sets, as the paper does.
//! * [`sweep`] — [`sweep::run_sweep`] executes a whole (scheme ×
//!   benchmark) matrix: a thin wrapper over [`Plan::suites`](plan::Plan::suites)
//!   plus [`engine::execute`].
//! * [`metrics`] — per-benchmark accuracies and the Tot/Int/FP geometric
//!   means.
//! * [`report`] — ASCII tables and CSV for the experiment harness.
//!
//! # Example
//!
//! ```no_run
//! use tlabp_core::config::SchemeConfig;
//! use tlabp_sim::runner::SimConfig;
//! use tlabp_sim::suite::{run_suite, TraceStore};
//!
//! let store = TraceStore::new();
//! let result = run_suite(&SchemeConfig::pag(12), &store, &SimConfig::default());
//! println!("PAg(12) Tot GMean: {:.2}%", result.total_gmean() * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod json;
pub mod metrics;
pub mod plan;
pub mod pool;
pub mod report;
pub mod runner;
pub mod stream;
pub mod suite;
pub mod sweep;

pub use engine::{
    execute, execute_on, execute_with, prefetch_on, ExecOptions, JobItem, JobMetrics, JobOutcome,
    JobStream, ResultSet, Session, RESULT_WIRE_VERSION,
};
pub use json::{Json, WireError};
pub use metrics::{geometric_mean, SuiteResult};
pub use plan::{Job, MetricSet, Plan, PredictorSpec, TargetCacheSpec, TraceKey, PLAN_WIRE_VERSION};
pub use pool::SweepPool;
pub use runner::{
    derive_pattern_stream, replay_stream_key, simulate, simulate_fused, simulate_replay_transposed,
    simulate_replay_transposed_streamed, SimConfig, SimResult, StreamKey, SwitchSchedule,
};
pub use stream::{
    stream_bytes_from_env, StreamChunk, StreamCursor, StreamWindow, DEFAULT_STREAM_BYTES,
    STREAM_BYTES_ENV,
};
pub use suite::{run_suite, CacheBytes, TraceStore, DEFAULT_TRACE_DIR, TRACE_DIR_ENV};
pub use sweep::{run_sweep, run_sweep_on};
