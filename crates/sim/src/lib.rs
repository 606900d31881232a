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
//! * [`engine`] — [`engine::Session`] runs plans, and is the engine's
//!   only entry point. It lowers each job onto one route:
//!   pattern-stream replay; the interned walk for everything that
//!   cannot replay (context switches, BTB, static and registry
//!   predictors), batched per trace and switch configuration; one
//!   instrumented pass for jobs that want more than accuracy; or the
//!   opt-in reference loop. Jobs that cannot run (a trained scheme
//!   without a training set, an impossible geometry, an unregistered
//!   predictor name) come back skipped with a reason. It runs the
//!   batches on the persistent worker pool ([`pool`]) and yields a
//!   typed [`engine::ResultSet`] in deterministic plan order;
//!   [`plan::Plan::suites`] plus [`engine::ResultSet::suites`] give the
//!   paper's per-configuration suite results.
//! * [`suite`] — [`suite::TraceStore`], the cache of generated benchmark
//!   traces and the forms derived from them, in memory and on disk.
//! * [`metrics`] — per-benchmark accuracies and the Tot/Int/FP geometric
//!   means.
//! * [`report`] — ASCII tables and CSV for the experiment harness.
//!
//! # Example
//!
//! ```no_run
//! use tlabp_core::config::SchemeConfig;
//! use tlabp_sim::engine::Session;
//! use tlabp_sim::plan::Plan;
//! use tlabp_sim::runner::SimConfig;
//! use tlabp_sim::suite::TraceStore;
//!
//! let plan = Plan::suites(&[SchemeConfig::pag(12)], &SimConfig::default());
//! for suite in Session::new(TraceStore::new()).run(&plan).suites() {
//!     println!("{} Tot GMean: {:.2}%", suite.scheme, suite.total_gmean() * 100.0);
//! }
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

pub use engine::{
    prefetch_on, ExecOptions, JobItem, JobMetrics, JobOutcome, JobStream, ResultSet, Session,
    RESULT_WIRE_VERSION,
};
pub use json::{Json, WireError};
pub use metrics::{geometric_mean, SuiteResult};
pub use plan::{Job, MetricSet, Plan, PredictorSpec, TargetCacheSpec, TraceKey, PLAN_WIRE_VERSION};
pub use pool::SweepPool;
pub use runner::{
    derive_pattern_stream, replay_stream_key, simulate, simulate_fused, simulate_replay_transposed,
    simulate_replay_transposed_streamed, SimConfig, SimResult, StreamKey, SwitchSchedule,
};
pub use stream::{StreamChunk, StreamCursor, StreamWindow};
pub use suite::{CacheBytes, TraceStore, DEFAULT_TRACE_DIR};
