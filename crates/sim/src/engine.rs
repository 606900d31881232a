//! The execution engine: lower a [`Plan`] onto the best simulation
//! paths, run it on the worker pool, reassemble deterministically.
//!
//! The engine is the single funnel between "describe a measurement"
//! ([`crate::plan`]) and "numbers came out" ([`ResultSet`]), and
//! [`Session`] is its only entry point. Lowering makes one decision per
//! job, its *route*, which the partition, the prefetch barrier and the
//! workers all read:
//!
//! * **skip** — a job that cannot run comes back
//!   [`JobOutcome::Skipped`] with a reason: a trained scheme on a
//!   benchmark without a training set (the paper's "NA" cells), a scheme
//!   whose geometry fails [`SchemeConfig::check_geometry`], a fetch job
//!   whose target cache fails [`check_table`], or a custom predictor
//!   name with no registered builder.
//! * **replay** — transposed, SWAR-vectorized second-level replay over
//!   a materialized first-level pattern stream
//!   ([`crate::runner::simulate_replay_transposed`]); chosen for
//!   accuracy-only catalog schemes whose first level maps to a
//!   [`StreamKey`] and that simulate no context switches (a stream is
//!   one uninterrupted first-level walk). Jobs group by the
//!   *width-erased* fold class of that key ([`StreamKey::fold_key`]):
//!   an entire width × automaton grid column shares one batch, the
//!   engine derives **one** stream per batch — at the batch's widest
//!   member width ([`TraceStore::get_pattern_stream`]) — and every
//!   member's bit-sliced PHT bank updates in the same walk, each member
//!   masking patterns down to its own width. Automaton ablations and
//!   width variants alike never re-walk the BHT or even re-read the
//!   stream. The kernel body is selectable ([`ExecOptions::simd`],
//!   default the `TLABP_SIMD` environment variable). Bit-identical to
//!   every other route and on by default; [`Job::replay`] and
//!   [`Job::fuse`] opt a job out.
//! * **walk** — every other accuracy job steps its own monomorphized
//!   [`AnyPredictor`] through one pass over the pc-interned conditional
//!   stream ([`crate::runner::simulate_fused`]). Jobs that share a trace
//!   and a switch configuration share the pass, in batches of up to 16,
//!   so stream decode and dispatch are paid once per batch. Context
//!   switches ride along as the trace's
//!   [`SwitchSchedule`](crate::runner::SwitchSchedule): where the
//!   switches fall depends only on the trace, so the store builds it
//!   once per (trace, switch configuration)
//!   ([`TraceStore::get_switch_schedule`]) and the walk fires each
//!   point's switches between stream segments. A job with [`Job::fuse`]
//!   off walks in a batch of one. Predictors outside the catalog,
//!   registered in [`tlabp_core::registry`] and referenced by name, walk
//!   behind [`AnyPredictor::Dyn`]: one virtual dispatch per chunk of
//!   events. Bit-identical to the reference loop in any batch.
//! * **instrumented** — a job that asks for more than accuracy
//!   ([`MetricSet`]) runs alone, in one pass over the trace's
//!   [`BranchStream`](tlabp_trace::BranchStream)
//!   ([`TraceStore::get_branch_stream`]): the predictor steps each
//!   conditional with its interned id, the switch schedule fires as in
//!   the walk, and the miss breakdown and the fetch model observe that
//!   same step, so the job's accuracy, breakdown and fetch statistics
//!   describe one run.
//! * **reference** — the job's [`AnyPredictor`] stepped by `predict` +
//!   `update` over the full event trace
//!   ([`crate::runner::simulate`]), bypassing every fast path. Never
//!   chosen by lowering; jobs opt in ([`Job::reference_path`]) for
//!   differential testing and for the repository benchmark's paper-warm
//!   reference check.
//!
//! Trained schemes (GSg, PSg, Profiling) profile the interned stream of
//! their benchmark's training trace
//! ([`SchemeConfig::build_any_trained_interned`]), so no route but the
//! reference loop reads a full trace once a trace's forms exist: the
//! store loads it only to derive a form the first time, and keeps none
//! ([`TraceStore`]).
//!
//! Execution runs every cell on a [`SweepPool`] (idle workers pull the
//! next cell as they finish) after pre-generating each distinct form
//! the plan's jobs read exactly once. Reassembly restores plan order, so
//! the output is a pure function of the plan: pool size and thread
//! scheduling never leak into a [`ResultSet`] (asserted by the
//! 1-vs-8-worker determinism test).
//!
//! # Example
//!
//! ```no_run
//! use tlabp_core::config::SchemeConfig;
//! use tlabp_sim::engine::Session;
//! use tlabp_sim::plan::{Job, Plan};
//! use tlabp_sim::suite::TraceStore;
//! use tlabp_workloads::Benchmark;
//!
//! let plan: Plan = Benchmark::ALL
//!     .iter()
//!     .map(|b| Job::scheme(SchemeConfig::pag(12), b))
//!     .collect();
//! let results = Session::new(TraceStore::new()).run(&plan);
//! assert_eq!(results.len(), Benchmark::ALL.len());
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use tlabp_core::any::AnyPredictor;
use tlabp_core::config::SchemeConfig;
use tlabp_core::geometry::check_table;
use tlabp_core::pht::LANES_PER_WORD;
use tlabp_core::predictor::BranchPredictor;
use tlabp_core::registry::{self, DynBuilder};
use tlabp_core::simd::SimdMode;
use tlabp_core::target_cache::{FetchOutcome, TargetCache};
use tlabp_trace::{BranchClass, Trace};
use tlabp_workloads::DataSet;

use crate::json::{Json, WireError};
use crate::metrics::{BenchmarkAccuracy, FetchStats, MissBreakdown, SuiteResult};
use crate::plan::{Job, MetricSet, Plan, PredictorSpec, TraceKey};
use crate::pool::SweepPool;
use crate::runner::{
    replay_stream_key, simulate, simulate_fused, simulate_replay_transposed, ContextSwitchConfig,
    FoldKey, SimConfig, SimResult, StreamKey,
};
use crate::suite::{SlotNeeds, TraceStore};

/// Everything a job produced when it was measurable.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// The accuracy counters (always computed).
    pub sim: SimResult,
    /// Misprediction attribution, when requested and the predictor is
    /// PAg-structured.
    pub miss_breakdown: Option<MissBreakdown>,
    /// Fetch-path statistics, when requested.
    pub fetch: Option<FetchStats>,
}

/// The outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job ran; metrics attached.
    Measured(JobMetrics),
    /// The job could not be measured (e.g. a profiled scheme on a
    /// benchmark without a training set — the paper's "NA" cells).
    Skipped {
        /// Why the job was skipped.
        reason: String,
    },
}

impl JobOutcome {
    /// The accuracy in `[0, 1]`, if measured.
    #[must_use]
    pub fn accuracy(&self) -> Option<f64> {
        match self {
            JobOutcome::Measured(m) => Some(m.sim.accuracy()),
            JobOutcome::Skipped { .. } => None,
        }
    }

    /// The full metrics, if measured.
    #[must_use]
    pub fn metrics(&self) -> Option<&JobMetrics> {
        match self {
            JobOutcome::Measured(m) => Some(m),
            JobOutcome::Skipped { .. } => None,
        }
    }

    /// The outcome as a wire-format JSON value. Every metric field is an
    /// exact integer counter, so the encoding is lossless — decoded
    /// outcomes compare equal to the originals, which is what lets the
    /// service promise bit-identical streamed results.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            JobOutcome::Skipped { reason } => {
                Json::object(vec![("skipped", Json::Str(reason.clone()))])
            }
            JobOutcome::Measured(m) => {
                let sim = Json::object(vec![
                    ("scheme", Json::Str(m.sim.scheme.clone())),
                    ("predictions", Json::UInt(m.sim.predictions)),
                    ("correct", Json::UInt(m.sim.correct)),
                    ("context_switches", Json::UInt(m.sim.context_switches)),
                ]);
                let miss_breakdown = match &m.miss_breakdown {
                    None => Json::Null,
                    Some(b) => Json::object(vec![
                        ("bht_miss", Json::UInt(b.bht_miss)),
                        ("weak_pattern", Json::UInt(b.weak_pattern)),
                        ("interference", Json::UInt(b.interference)),
                        ("noise", Json::UInt(b.noise)),
                    ]),
                };
                let fetch = match &m.fetch {
                    None => Json::Null,
                    Some(f) => Json::object(vec![
                        ("branches", Json::UInt(f.branches)),
                        ("correct_path", Json::UInt(f.correct_path)),
                        ("no_bubble_taken", Json::UInt(f.no_bubble_taken)),
                        ("squashes", Json::UInt(f.squashes)),
                        ("return_target_misses", Json::UInt(f.return_target_misses)),
                    ]),
                };
                Json::object(vec![(
                    "measured",
                    Json::object(vec![
                        ("sim", sim),
                        ("miss_breakdown", miss_breakdown),
                        ("fetch", fetch),
                    ]),
                )])
            }
        }
    }

    /// Decodes an outcome from its [`JobOutcome::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Fails on missing or mistyped fields, or a value that is neither
    /// `{"skipped":...}` nor `{"measured":...}`.
    pub fn from_json(json: &Json) -> Result<JobOutcome, WireError> {
        let count = |node: &Json, key: &str| -> Result<u64, WireError> {
            node.field(key)?
                .as_u64()
                .ok_or_else(|| WireError::new(format!("{key} must be an unsigned integer")))
        };
        if let Some(reason) = json.get("skipped") {
            let reason = reason
                .as_str()
                .ok_or_else(|| WireError::new("skipped must carry a reason string"))?;
            return Ok(JobOutcome::Skipped { reason: reason.to_owned() });
        }
        let measured = json
            .get("measured")
            .ok_or_else(|| WireError::new("outcome needs a \"skipped\" or \"measured\" field"))?;
        let sim_json = measured.field("sim")?;
        let sim = SimResult {
            scheme: sim_json
                .field("scheme")?
                .as_str()
                .ok_or_else(|| WireError::new("scheme must be a string"))?
                .to_owned(),
            predictions: count(sim_json, "predictions")?,
            correct: count(sim_json, "correct")?,
            context_switches: count(sim_json, "context_switches")?,
        };
        let breakdown_json = measured.field("miss_breakdown")?;
        let miss_breakdown = if breakdown_json.is_null() {
            None
        } else {
            Some(MissBreakdown {
                bht_miss: count(breakdown_json, "bht_miss")?,
                weak_pattern: count(breakdown_json, "weak_pattern")?,
                interference: count(breakdown_json, "interference")?,
                noise: count(breakdown_json, "noise")?,
            })
        };
        let fetch_json = measured.field("fetch")?;
        let fetch = if fetch_json.is_null() {
            None
        } else {
            Some(FetchStats {
                branches: count(fetch_json, "branches")?,
                correct_path: count(fetch_json, "correct_path")?,
                no_bubble_taken: count(fetch_json, "no_bubble_taken")?,
                squashes: count(fetch_json, "squashes")?,
                return_target_misses: count(fetch_json, "return_target_misses")?,
            })
        };
        Ok(JobOutcome::Measured(JobMetrics { sim, miss_breakdown, fetch }))
    }
}

/// Version tag of the serialized result format
/// ([`ResultSet::to_json_string`]); rejected on mismatch, like
/// [`PLAN_WIRE_VERSION`](crate::plan::PLAN_WIRE_VERSION).
pub const RESULT_WIRE_VERSION: u64 = 1;

/// The outcomes of a plan, in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    rows: Vec<(Job, JobOutcome)>,
}

impl ResultSet {
    /// Reassembles a result set from a plan and its outcomes in plan
    /// order — the client side of the wire protocol, where outcomes
    /// arrive as indexed frames and the jobs come from the plan the
    /// caller already holds.
    ///
    /// # Panics
    ///
    /// Panics if the counts disagree (callers validate frame counts
    /// before reassembly).
    #[must_use]
    pub fn from_outcomes(plan: &Plan, outcomes: Vec<JobOutcome>) -> ResultSet {
        assert_eq!(plan.len(), outcomes.len(), "one outcome per plan job");
        ResultSet { rows: plan.jobs().iter().cloned().zip(outcomes).collect() }
    }

    /// The outcomes in plan order.
    pub fn outcomes(&self) -> impl Iterator<Item = &JobOutcome> {
        self.rows.iter().map(|(_, outcome)| outcome)
    }

    /// The result set as its canonical wire document:
    /// `{"version":1,"plan_hash":"<16 hex>","outcomes":[...]}`.
    ///
    /// The `plan_hash` ties the document to the plan that produced it
    /// ([`Plan::wire_hash`]); the jobs themselves are not repeated —
    /// whoever holds the results holds the plan. Rendering is canonical
    /// (compact, fixed field order), so equal result sets serialize
    /// byte-identically and bit-identity can be checked with a plain
    /// file compare.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let plan: Plan = self.rows.iter().map(|(job, _)| job.clone()).collect();
        Json::object(vec![
            ("version", Json::UInt(RESULT_WIRE_VERSION)),
            ("plan_hash", Json::Str(plan.wire_hash_hex())),
            ("outcomes", Json::Array(self.rows.iter().map(|(_, o)| o.to_json()).collect())),
        ])
        .render()
    }

    /// Decodes a result set serialized by [`ResultSet::to_json_string`],
    /// re-attaching the jobs of `plan`.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a version other than
    /// [`RESULT_WIRE_VERSION`], a `plan_hash` that does not match
    /// `plan` (the document describes some other plan's results), an
    /// outcome count different from the plan's job count, or any
    /// outcome that does not decode.
    pub fn from_json_str(text: &str, plan: &Plan) -> Result<ResultSet, WireError> {
        let json = Json::parse(text)?;
        let version = json
            .field("version")?
            .as_u64()
            .ok_or_else(|| WireError::new("version must be an integer"))?;
        if version != RESULT_WIRE_VERSION {
            return Err(WireError::new(format!(
                "unsupported result version {version} (this build speaks {RESULT_WIRE_VERSION})"
            )));
        }
        let hash = json
            .field("plan_hash")?
            .as_str()
            .ok_or_else(|| WireError::new("plan_hash must be a string"))?;
        if hash != plan.wire_hash_hex() {
            return Err(WireError::new(format!(
                "plan hash mismatch: results are for {hash}, plan is {}",
                plan.wire_hash_hex()
            )));
        }
        let outcomes_json = json
            .field("outcomes")?
            .as_array()
            .ok_or_else(|| WireError::new("outcomes must be an array"))?;
        if outcomes_json.len() != plan.len() {
            return Err(WireError::new(format!(
                "outcome count {} does not match plan job count {}",
                outcomes_json.len(),
                plan.len()
            )));
        }
        let outcomes = outcomes_json
            .iter()
            .map(JobOutcome::from_json)
            .collect::<Result<Vec<JobOutcome>, WireError>>()?;
        Ok(ResultSet::from_outcomes(plan, outcomes))
    }
    /// Number of rows (equal to the plan's job count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the plan had no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(job, outcome)` pairs in plan order.
    pub fn iter(&self) -> impl Iterator<Item = (&Job, &JobOutcome)> {
        self.rows.iter().map(|(job, outcome)| (job, outcome))
    }

    /// The outcome of the `index`-th job.
    #[must_use]
    pub fn outcome(&self, index: usize) -> &JobOutcome {
        &self.rows[index].1
    }

    /// Per-job accuracies in plan order (`None` for skipped jobs).
    #[must_use]
    pub fn accuracies(&self) -> Vec<Option<f64>> {
        self.rows.iter().map(|(_, outcome)| outcome.accuracy()).collect()
    }

    /// Reassembles consecutive jobs into per-predictor
    /// [`SuiteResult`]s: a new suite starts whenever the job label
    /// changes (or a benchmark repeats within the current suite). A plan
    /// built by [`Plan::suites`] yields exactly one suite per
    /// configuration, each with one row per benchmark in
    /// [`Benchmark::ALL`](tlabp_workloads::Benchmark::ALL) order.
    #[must_use]
    pub fn suites(&self) -> Vec<SuiteResult> {
        let mut suites: Vec<SuiteResult> = Vec::new();
        for (job, outcome) in &self.rows {
            let label = job.label();
            let row = benchmark_row(job, outcome);
            match suites.last_mut() {
                Some(suite)
                    if suite.scheme == label
                        && !suite.rows.iter().any(|r| r.benchmark == row.benchmark) =>
                {
                    suite.rows.push(row);
                }
                _ => suites.push(SuiteResult { scheme: label, rows: vec![row] }),
            }
        }
        suites
    }
}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = (&'a Job, &'a JobOutcome);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Job, JobOutcome)>,
        fn(&'a (Job, JobOutcome)) -> (&'a Job, &'a JobOutcome),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter().map(|(job, outcome)| (job, outcome))
    }
}

fn benchmark_row(job: &Job, outcome: &JobOutcome) -> BenchmarkAccuracy {
    let benchmark = job.trace.benchmark;
    match outcome {
        JobOutcome::Measured(m) => BenchmarkAccuracy {
            benchmark: benchmark.name().to_owned(),
            kind: benchmark.kind(),
            accuracy: Some(m.sim.accuracy()),
            context_switches: m.sim.context_switches,
            predictions: m.sim.predictions,
        },
        JobOutcome::Skipped { .. } => BenchmarkAccuracy {
            benchmark: benchmark.name().to_owned(),
            kind: benchmark.kind(),
            accuracy: None,
            context_switches: 0,
            predictions: 0,
        },
    }
}

/// Execution-phase toggles for a [`Session`] ([`Session::with_options`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Which body of the transposed replay kernel executes replay
    /// batches. Defaults to the `TLABP_SIMD` environment variable
    /// (itself defaulting to the word body); the differential suites
    /// force the scalar reference body here without mutating process
    /// environment. Both bodies are bit-identical, so this is a
    /// throughput knob, never a results knob.
    pub simd: SimdMode,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { simd: SimdMode::from_env() }
    }
}

/// A worker-pool task: runs one scheduling unit (a singleton cell or a
/// fused/replay batch) and reports each member's `(job index, outcome)`.
type Task = Box<dyn FnOnce() -> Vec<(usize, JobOutcome)> + Send + 'static>;

/// A long-lived handle for running plans incrementally: the engine's
/// lowering, prefetch and batch scheduling behind a submit-and-stream
/// interface instead of a blocking call.
///
/// [`Session::submit`] returns a [`JobStream`] yielding each job's
/// outcome *in plan order, as soon as it is known* — a driver (or the
/// sweep service) can forward early results while later batches are
/// still simulating. A session holds its [`TraceStore`] by value
/// (stores are cheap shared handles), so one warm store can back many
/// sessions across many submissions; the pool reference lets concurrent
/// sessions share one set of workers.
///
/// Scheduling is windowed: at most twice the pool width of tasks from
/// this session sit in the shared pool queue at once (the rest wait in
/// the stream), so a session streaming a thousand-job plan does not
/// monopolize the queue — concurrent sessions' tasks interleave FIFO,
/// which is the service's fair-admission story. Results travel over a
/// bounded channel sized to the window, so a slow consumer stalls
/// admission of *its own* remaining tasks, never the pool.
///
/// # Example
///
/// ```no_run
/// use tlabp_core::config::SchemeConfig;
/// use tlabp_sim::engine::Session;
/// use tlabp_sim::plan::{Job, Plan};
/// use tlabp_sim::suite::TraceStore;
/// use tlabp_workloads::Benchmark;
///
/// let session = Session::new(TraceStore::new());
/// let plan: Plan = Benchmark::ALL
///     .iter()
///     .map(|b| Job::scheme(SchemeConfig::pag(12), b))
///     .collect();
/// for item in session.submit(&plan) {
///     println!("job {}: {:?}", item.index, item.outcome.accuracy());
/// }
/// ```
pub struct Session<'p> {
    pool: &'p SweepPool,
    store: TraceStore,
    options: ExecOptions,
    window: usize,
}

impl Session<'static> {
    /// A session on the process-wide [`SweepPool::global`] pool.
    #[must_use]
    pub fn new(store: TraceStore) -> Self {
        Session::on(SweepPool::global(), store)
    }
}

impl<'p> Session<'p> {
    /// A session on an explicit pool.
    ///
    /// The admission window is twice the pool width: enough queued work to
    /// keep every worker busy while the stream consumes, small enough
    /// that concurrent sessions interleave on the shared queue.
    #[must_use]
    pub fn on(pool: &'p SweepPool, store: TraceStore) -> Self {
        Session { pool, store, options: ExecOptions::default(), window: 2 * pool.threads() }
    }

    /// Replaces the execution options.
    #[must_use]
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Lowers, partitions and prefetches `plan`, then returns a
    /// [`JobStream`] that schedules the work windowed and yields
    /// outcomes in plan order.
    ///
    /// Lowering, partitioning and the prefetch barrier run synchronously
    /// here, once each: every job gets its route (or a skip), the
    /// partition batches the routes, and the barrier completes before
    /// any cell is admitted. Scheduling and plan-order reassembly happen
    /// incrementally as the stream is consumed. Tasks are ordered by
    /// their smallest job index before admission, so the head of the
    /// plan simulates first and the first item yields without waiting on
    /// unrelated tail batches.
    #[must_use]
    pub fn submit(&self, plan: &Plan) -> JobStream<'p> {
        // Lower on the submitting thread: a job that cannot run becomes
        // a skip here, deterministically, before any work starts.
        let lowered: Vec<Lowered> = plan.jobs().iter().map(lower).collect();
        let partition = partition_batches(&lowered);

        // The prefetch barrier (see `prefetch_lowered`): every trace
        // slot the partition reads is warmed, one pool task per slot,
        // before any simulation cell runs, so no cell idles behind
        // another's `OnceLock`. The stream holds the full traces it
        // returns until the plan is done.
        let reference_traces = prefetch_lowered(self.pool, &lowered, &partition, &self.store);

        // Resolve skips inline and claim runnable cells batch by batch.
        let mut ready: BTreeMap<usize, JobOutcome> = BTreeMap::new();
        let mut cells: Vec<Option<Cell>> = lowered
            .into_iter()
            .enumerate()
            .map(|(index, low)| match low {
                Lowered::Skip { reason } => {
                    ready.insert(index, JobOutcome::Skipped { reason });
                    None
                }
                Lowered::Run(cell) => Some(cell),
            })
            .collect();
        let claim = |indices: &[usize], cells: &mut Vec<Option<Cell>>| -> Vec<(usize, Cell)> {
            indices
                .iter()
                .map(|&index| (index, cells[index].take().expect("each cell is scheduled once")))
                .collect()
        };

        // Build the task list keyed by each task's smallest job index
        // (batches keep plan order internally, so that is member 0).
        // Sorting by that key fills the stream head-first.
        let mut tasks: Vec<(usize, Task)> = Vec::new();
        for &index in &partition.singles {
            let cell = cells[index].take().expect("each cell is scheduled once");
            let store = self.store.clone();
            tasks.push((index, Box::new(move || vec![(index, run_cell(&cell, &store))])));
        }
        for indices in &partition.fused {
            let batch = claim(indices, &mut cells);
            let store = self.store.clone();
            tasks.push((indices[0], Box::new(move || run_fused_batch(batch, &store))));
        }
        for &(rep, ref indices) in &partition.replay {
            for sub in split_replay(&cells, rep, indices, &self.store, self.pool.threads()) {
                let batch = claim(&sub, &mut cells);
                let store = self.store.clone();
                let simd = self.options.simd;
                tasks.push((sub[0], Box::new(move || run_replay_batch(batch, &store, simd, rep))));
            }
        }
        tasks.sort_by_key(|(first, _)| *first);

        // The result channel is bounded to the window: at most `window`
        // tasks are in flight and each sends exactly once, so workers
        // never block on a slow stream consumer — unconsumed results
        // simply fill the channel and admission stops until the
        // consumer drains.
        let (sender, receiver) = sync_channel(self.window);
        JobStream {
            pool: self.pool,
            jobs: plan.jobs().to_vec().into_iter(),
            total: plan.len(),
            pending: tasks.into_iter().map(|(_, task)| task).collect(),
            sender: Some(sender),
            receiver,
            ready,
            next_index: 0,
            in_flight: 0,
            window: self.window,
            _reference_traces: reference_traces,
        }
    }

    /// [`Session::submit`] + drain: runs `plan` to completion.
    ///
    /// # Panics
    ///
    /// Panics if a task panicked on a worker: its results can never
    /// arrive.
    #[must_use]
    pub fn run(&self, plan: &Plan) -> ResultSet {
        self.submit(plan).into_result_set()
    }
}

/// One streamed result: the `index`-th job of the submitted plan and
/// its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobItem {
    /// Position in the submitted plan.
    pub index: usize,
    /// The job, as submitted.
    pub job: Job,
    /// What it produced.
    pub outcome: JobOutcome,
}

/// The incremental result stream of one [`Session::submit`] call.
///
/// Iterating yields [`JobItem`]s strictly in plan order; each `next()`
/// admits queued tasks up to the session window, then blocks only until
/// the outcome of the *next* plan index is known. Outcomes that finish
/// out of order are buffered (never dropped), so draining the stream
/// always yields exactly one item per job.
pub struct JobStream<'p> {
    pool: &'p SweepPool,
    jobs: std::vec::IntoIter<Job>,
    total: usize,
    pending: VecDeque<Task>,
    /// Master clone of the result sender. Dropped once every task has
    /// been admitted, so a task that dies without reporting (worker
    /// panic) surfaces as a closed channel instead of a deadlock.
    sender: Option<SyncSender<Vec<(usize, JobOutcome)>>>,
    receiver: Receiver<Vec<(usize, JobOutcome)>>,
    /// Outcomes received (or resolved at submit time, for skips) but not
    /// yet yielded.
    ready: BTreeMap<usize, JobOutcome>,
    next_index: usize,
    in_flight: usize,
    window: usize,
    /// The full traces the plan's reference-path jobs read, loaded by the
    /// barrier and held while the stream lives, so those jobs share one
    /// load per trace instead of each loading it again.
    _reference_traces: Vec<Arc<Trace>>,
}

impl JobStream<'_> {
    /// Tops the pool queue up to the session window.
    fn admit(&mut self) {
        while self.in_flight < self.window {
            let Some(task) = self.pending.pop_front() else { break };
            let sender = self.sender.clone().expect("sender is alive while tasks are pending");
            self.pool.spawn(move || {
                // Receiver dropped => the stream was abandoned mid-plan;
                // the result is simply discarded.
                let _ = sender.send(task());
            });
            self.in_flight += 1;
        }
        if self.pending.is_empty() {
            self.sender = None;
        }
    }

    /// Drains the stream through `sink` until it is exhausted or `sink`
    /// returns `false`, whichever comes first; returns `true` when every
    /// item was yielded.
    ///
    /// This is the session drain hook the sweep daemon's executor
    /// threads use: each yielded item is forwarded into a connection's
    /// bounded output queue, and a failed forward (the client hung up)
    /// stops the drain early — the stream is then dropped mid-plan,
    /// which is safe: results of still-in-flight tasks are simply
    /// discarded (see [`Session::submit`]).
    ///
    /// # Panics
    ///
    /// Panics if a task panicked on a worker: its results can never
    /// arrive.
    pub fn drain_while(mut self, mut sink: impl FnMut(JobItem) -> bool) -> bool {
        for item in self.by_ref() {
            if !sink(item) {
                return false;
            }
        }
        true
    }

    /// Drains the stream into a [`ResultSet`] (blocking until every job
    /// has reported) — plan-order reassembly as a fold over the stream.
    ///
    /// # Panics
    ///
    /// Panics if a task panicked on a worker: its results can never
    /// arrive.
    #[must_use]
    pub fn into_result_set(self) -> ResultSet {
        let mut rows = Vec::with_capacity(self.total);
        for item in self {
            rows.push((item.job, item.outcome));
        }
        ResultSet { rows }
    }
}

impl Iterator for JobStream<'_> {
    type Item = JobItem;

    fn next(&mut self) -> Option<JobItem> {
        loop {
            if self.next_index == self.total {
                return None;
            }
            if let Some(outcome) = self.ready.remove(&self.next_index) {
                let job = self.jobs.next().expect("one job per yielded index");
                let index = self.next_index;
                self.next_index += 1;
                return Some(JobItem { index, job, outcome });
            }
            self.admit();
            // The missing outcome belongs to a pending or in-flight task
            // (every runnable index is covered by exactly one task and
            // admit() always schedules at least one when any remain), so
            // a receive must eventually deliver it.
            debug_assert!(self.in_flight > 0, "missing outcome with nothing in flight");
            let batch =
                self.receiver.recv().expect("a sweep task panicked before reporting its results");
            self.in_flight -= 1;
            for (index, outcome) in batch {
                debug_assert!(
                    index >= self.next_index && !self.ready.contains_key(&index),
                    "each job reports exactly once"
                );
                self.ready.insert(index, outcome);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next_index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for JobStream<'_> {}

/// Runs only the prefetch barrier of [`Session::submit`] for `plan`:
/// every trace slot the plan's runnable jobs read is warmed across
/// `pool`, one task per slot, and the call returns once every form they
/// need is resident in `store` — all but the full traces of
/// reference-path jobs, which the store does not keep (see
/// [`TraceStore::get`]). Switch schedules and branch streams are not
/// prefetched: the first job that reads one builds it.
///
/// This is the barrier exposed on its own, for warming a store ahead of
/// time (e.g. populating a [`TraceStore::with_cache_dir`] directory) and
/// for measuring ingestion cost separately from simulation (the
/// repository benchmark's `cold-start` workload).
pub fn prefetch_on(pool: &SweepPool, plan: &Plan, store: &TraceStore) {
    let lowered: Vec<Lowered> = plan.jobs().iter().map(lower).collect();
    prefetch_lowered(pool, &lowered, &partition_batches(&lowered), store);
}

/// The prefetch barrier: one pool task per trace slot the plan reads,
/// in first-seen plan order, each warming its slot with what
/// [`slot_needs`] lists, so no simulation cell ever blocks on the VM,
/// an interning pass or a derivation. With a disk-backed store a task
/// first hydrates its slot, so a warm directory turns the barrier into
/// parallel file loads, and a task that generated anything writes its
/// slot once, with the trace it loaded, before it drops that trace: a
/// cold ingest holds at most one trace per worker. The full traces of
/// reference jobs are returned for the caller to hold while those jobs
/// run; the store itself keeps none.
fn prefetch_lowered(
    pool: &SweepPool,
    lowered: &[Lowered],
    partition: &Partition,
    store: &TraceStore,
) -> Vec<Arc<Trace>> {
    let tasks = slot_needs(lowered, partition).into_iter().map(|(key, needs)| {
        let store = store.clone();
        move || store.warm(key.benchmark, key.data_set, &needs)
    });
    pool.run(tasks).into_iter().flatten().collect()
}

/// What the plan reads of each trace slot, one record per slot in
/// first-seen plan order: the full trace for a reference job, the
/// interned stream for every other route and for a trained scheme's
/// training trace, and each replay batch's representative stream
/// ([`replay_rep_key`]) on its own trace, once per slot — so a width ×
/// automaton grid derives one stream per (trace, fold class), not one
/// per configuration.
fn slot_needs(lowered: &[Lowered], partition: &Partition) -> Vec<(TraceKey, SlotNeeds)> {
    fn needs_of(slots: &mut Vec<(TraceKey, SlotNeeds)>, key: TraceKey) -> &mut SlotNeeds {
        let same = |have: &TraceKey| {
            have.benchmark.name() == key.benchmark.name() && have.data_set == key.data_set
        };
        let at = slots.iter().position(|(have, _)| same(have)).unwrap_or_else(|| {
            slots.push((key, SlotNeeds::default()));
            slots.len() - 1
        });
        &mut slots[at].1
    }
    let mut slots: Vec<(TraceKey, SlotNeeds)> = Vec::new();
    for low in lowered {
        let Lowered::Run(cell) = low else { continue };
        let needs = needs_of(&mut slots, cell.trace);
        if cell.route == Route::Reference {
            needs.trace = true;
        } else {
            needs.interned = true;
        }
        if cell.needs_training() {
            let training =
                TraceKey { benchmark: cell.trace.benchmark, data_set: DataSet::Training };
            needs_of(&mut slots, training).interned = true;
        }
    }
    for &(rep, ref indices) in &partition.replay {
        let Lowered::Run(cell) = &lowered[indices[0]] else {
            unreachable!("partition only batches runnable cells")
        };
        let streams = &mut needs_of(&mut slots, cell.trace).streams;
        if !streams.contains(&rep) {
            streams.push(rep);
        }
    }
    slots
}

/// Largest number of predictors stepped together in one interned walk.
///
/// Bounds a batch's working set — every predictor's tables must stay
/// cache-resident while the batch steps a decoded chunk — while still
/// amortizing stream decode over many predictors. Oversized trace-groups
/// split into nearly-even contiguous batches, which also gives the pool
/// balanced tasks to schedule.
const MAX_FUSE_BATCH: usize = 16;

/// Largest number of members walked together in one transposed replay
/// batch.
///
/// Replay batches group by fold class, so a Table 3-style grid packs an
/// entire scheme column — every width × automaton combination — into
/// one group (e.g. 5 widths × 5 automata × {PAg, PAp} = 50 members on
/// the shared paper-default BHT) and one batch walks the stream once
/// for the whole column, however many 16-member banks it builds. The
/// cap bounds a batch's working set and task size; the intra-batch
/// split (below) hands an oversized batch to idle workers a bank at a
/// time, so a wide batch does not cost latency on a multi-core host.
const MAX_REPLAY_BATCH: usize = 128;

/// Minimum replay work (stream events × batch members) per sub-batch
/// before [`split_replay_batch`] splits further: below this the extra
/// stream walk and task hand-off cost more than a spare worker saves.
/// At the measured ~1.5B member-predictions/s a unit is a few
/// milliseconds of kernel time.
const SPLIT_UNIT: u64 = 1 << 22;

/// A replay batch's sub-batches for a pool of `pool_threads` workers.
///
/// `rep` is the representative the partition chose for the WHOLE batch
/// — the key the barrier prefetched — so every sub-batch walks the same
/// cached stream; a sub-batch recomputing its own (maybe narrower)
/// representative would derive a stream nobody prefetched. The width
/// fold makes replaying the wider stream bit-identical for every member
/// either way. The split is sized by events × members, read through a
/// non-forcing peek: the barrier leaves every replay batch's stream
/// resident.
fn split_replay(
    cells: &[Option<Cell>],
    rep: StreamKey,
    indices: &[usize],
    store: &TraceStore,
    pool_threads: usize,
) -> Vec<Vec<usize>> {
    let cell_at =
        |index: usize| cells[index].as_ref().expect("replay cells are claimed after splitting");
    let trace = cell_at(indices[0]).trace;
    let events = store
        .peek_pattern_stream(trace.benchmark, trace.data_set, rep)
        .expect("the prefetch barrier leaves every replay batch's stream resident")
        .len();
    let work = events as u64 * indices.len() as u64;
    let widths: Vec<u32> =
        indices.iter().map(|&index| cell_at(index).replay_key().history_bits()).collect();
    split_replay_batch(indices, &widths, pool_threads, work)
}

/// Splits one replay batch's member indices into sub-batches for
/// intra-batch parallelism, or returns the batch whole when the pool or
/// the work says not to: up to one sub-batch per pool worker, never
/// below one transposed word of members per sub-batch, and never below
/// [`SPLIT_UNIT`] member-events of work per sub-batch, where `work` is
/// the batch's stream length × members.
///
/// The split granule ("atom") is one bank: members regroup by stream
/// width (`widths[i]` belongs to `indices[i]`) and each width group cuts
/// into runs of at most [`LANES_PER_WORD`] members — the cut the runner
/// makes when it builds banks — so a sub-batch never holds a fragment
/// of a same-form bank an unsplit batch would have stepped in one word
/// op. (A run mixing shared and per-lane members builds one bank of
/// each.) Atoms distribute contiguously and nearly evenly over the
/// chosen part count; member indices sort inside each part so every
/// sub-batch keeps plan order internally.
///
/// Determinism: the result is a pure function of the arguments, and —
/// because a member's replay outcome is independent of its batch's
/// composition (pinned by the batch-invariance test and the determinism
/// suite) — the merged [`ResultSet`] is bit-identical at every part
/// count and worker count.
fn split_replay_batch(
    indices: &[usize],
    widths: &[u32],
    pool_threads: usize,
    work: u64,
) -> Vec<Vec<usize>> {
    debug_assert_eq!(indices.len(), widths.len());
    // Atoms: width groups in first-seen order, cut at word boundaries.
    let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
    for (&index, &width) in indices.iter().zip(widths) {
        match groups.iter_mut().find(|(w, _)| *w == width) {
            Some((_, group)) => group.push(index),
            None => groups.push((width, vec![index])),
        }
    }
    let atoms: Vec<&[usize]> =
        groups.iter().flat_map(|(_, group)| group.chunks(LANES_PER_WORD)).collect();

    let cap = atoms.len().max(1);
    let by_work = usize::try_from(work / SPLIT_UNIT).unwrap_or(usize::MAX).max(1);
    let parts = pool_threads.min(cap).min(by_work).max(1);
    if parts <= 1 {
        return vec![indices.to_vec()];
    }
    let base = atoms.len() / parts;
    let extra = atoms.len() % parts;
    let mut remaining = atoms.as_slice();
    (0..parts)
        .map(|i| {
            let take = base + usize::from(i < extra);
            let (head, tail) = remaining.split_at(take);
            remaining = tail;
            let mut part: Vec<usize> = head.iter().flat_map(|atom| atom.iter().copied()).collect();
            part.sort_unstable();
            part
        })
        .collect()
}

/// Nearly-even batch sizes for a group of `n` cells: as few batches as
/// `cap` allows, sizes differing by at most one (17 cells at cap 16
/// become 9 + 8, not 16 + 1).
fn batch_sizes(n: usize, cap: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let batches = n.div_ceil(cap);
    let base = n / batches;
    let extra = n % batches;
    (0..batches).map(|i| base + usize::from(i < extra)).collect()
}

/// Splits one group of job indices into contiguous [`batch_sizes`]
/// batches, preserving plan order within and across batches.
fn split_into_batches(group: Vec<usize>, cap: usize) -> Vec<Vec<usize>> {
    let sizes = batch_sizes(group.len(), cap);
    let mut indices = group.into_iter();
    sizes.into_iter().map(|size| indices.by_ref().take(size).collect()).collect()
}

/// The engine's scheduling partition: which runnable jobs execute as
/// singleton cells, which execute in interned-walk batches, and which
/// execute in transposed replay batches — all as indices into the
/// lowered plan.
///
/// [`Session::submit`] computes it once, from each cell's [`Route`], and
/// both the prefetch barrier and the scheduler read it, so the two can
/// never disagree about which streams the plan needs.
struct Partition {
    /// Reference and instrumented jobs ([`run_cell`]).
    singles: Vec<usize>,
    /// Interned-walk batches ([`run_fused_batch`]), capped at
    /// [`MAX_FUSE_BATCH`].
    fused: Vec<Vec<usize>>,
    /// Transposed replay batches ([`run_replay_batch`]), capped at
    /// [`MAX_REPLAY_BATCH`], each with its representative stream key
    /// ([`replay_rep_key`]).
    replay: Vec<(StreamKey, Vec<usize>)>,
}

/// Partitions runnable cells into [`Partition`] batches by route.
/// Replay cells group by `(trace, fold class)` — the width-*erased*
/// [`StreamKey::fold_key`] — so automaton ablations *and* width variants
/// of one first-level mechanism share a batch; shared walks group by
/// trace and switch configuration, so a batch walks one
/// [`SwitchSchedule`](crate::runner::SwitchSchedule); an unshared walk
/// is a batch of one; reference and instrumented cells run alone.
/// Groups form in first-seen plan order and split into nearly-even
/// contiguous batches, so the partition is a pure function of the plan.
fn partition_batches(lowered: &[Lowered]) -> Partition {
    let cell_at = |index: usize| match &lowered[index] {
        Lowered::Run(cell) => cell,
        Lowered::Skip { .. } => unreachable!("partition only batches runnable cells"),
    };
    let mut singles: Vec<usize> = Vec::new();
    let mut fused_of: HashMap<(&'static str, DataSet, Option<ContextSwitchConfig>), usize> =
        HashMap::new();
    let mut fused: Vec<Vec<usize>> = Vec::new();
    let mut replay_of: HashMap<(&'static str, DataSet, FoldKey), usize> = HashMap::new();
    let mut replay: Vec<Vec<usize>> = Vec::new();
    for (index, low) in lowered.iter().enumerate() {
        let Lowered::Run(cell) = low else { continue };
        let (name, data_set) = (cell.trace.benchmark.name(), cell.trace.data_set);
        match cell.route {
            Route::Replay(key) => {
                let group =
                    *replay_of.entry((name, data_set, key.fold_key())).or_insert_with(|| {
                        replay.push(Vec::new());
                        replay.len() - 1
                    });
                replay[group].push(index);
            }
            Route::Walk { shared: true } => {
                let key = (name, data_set, cell.sim.context_switch);
                let group = *fused_of.entry(key).or_insert_with(|| {
                    fused.push(Vec::new());
                    fused.len() - 1
                });
                fused[group].push(index);
            }
            Route::Walk { shared: false } => fused.push(vec![index]),
            Route::Instrumented | Route::Reference => singles.push(index),
        }
    }
    Partition {
        singles,
        fused: fused.into_iter().flat_map(|g| split_into_batches(g, MAX_FUSE_BATCH)).collect(),
        replay: replay
            .into_iter()
            .flat_map(|g| split_into_batches(g, MAX_REPLAY_BATCH))
            .map(|batch| {
                (replay_rep_key(batch.iter().map(|&index| cell_at(index).replay_key())), batch)
            })
            .collect(),
    }
}

/// The representative stream key of a replay batch: the key of its
/// widest member (first-seen on ties, so the choice is deterministic).
/// Every member shares the batch's fold class, and the width fold lets
/// any narrower member replay the representative's stream by masking —
/// so this is the *only* stream the batch derives or fetches.
fn replay_rep_key(keys: impl Iterator<Item = StreamKey>) -> StreamKey {
    keys.reduce(|best, key| if key.history_bits() > best.history_bits() { key } else { best })
        .expect("replay batches are non-empty")
}

/// Runs one interned-walk batch on a worker thread: a single pass over
/// the trace's interned conditional stream stepping every predictor of
/// the batch ([`simulate_fused`]), switching at the points of the switch
/// schedule every member shares.
fn run_fused_batch(batch: Vec<(usize, Cell)>, store: &TraceStore) -> Vec<(usize, JobOutcome)> {
    let TraceKey { benchmark, data_set } = batch[0].1.trace;
    let interned = store.get_interned(benchmark, data_set);
    let schedule = store.get_switch_schedule(benchmark, data_set, &batch[0].1.sim);
    let mut predictors: Vec<AnyPredictor> =
        batch.iter().map(|(_, cell)| cell.build.build_any(store, cell.trace)).collect();
    let sims = simulate_fused(&mut predictors, &interned, &schedule);
    batch
        .into_iter()
        .zip(sims)
        .map(|((index, _), sim)| {
            (index, JobOutcome::Measured(JobMetrics { sim, miss_breakdown: None, fetch: None }))
        })
        .collect()
}

/// Runs one replay batch (or sub-batch) on a worker thread: fetch the
/// batch's *representative* pattern stream once (`rep`, the widest
/// member width of the whole pre-split fold group — already derived or
/// hydrated in phase 1, and shared by every sub-batch of a split) and
/// walk every member's bit-sliced transposed PHT bank over it in a
/// single SWAR pass ([`simulate_replay_transposed`]).
fn run_replay_batch(
    batch: Vec<(usize, Cell)>,
    store: &TraceStore,
    simd: SimdMode,
    rep: StreamKey,
) -> Vec<(usize, JobOutcome)> {
    let trace = batch[0].1.trace;
    let predictors: Vec<AnyPredictor> =
        batch.iter().map(|(_, cell)| cell.build.build_any(store, cell.trace)).collect();
    let stream = store.get_pattern_stream(trace.benchmark, trace.data_set, rep);
    let sims = simulate_replay_transposed(&predictors, &stream, simd)
        .expect("replay lowering only selects schemes with a second level");
    batch
        .into_iter()
        .zip(sims)
        .map(|((index, _), sim)| {
            (index, JobOutcome::Measured(JobMetrics { sim, miss_breakdown: None, fetch: None }))
        })
        .collect()
}

/// How a job's predictor gets built on the worker.
enum BuildSpec {
    /// A catalog scheme, monomorphized ([`AnyPredictor`]).
    Scheme(SchemeConfig),
    /// A registered builder, dynamically dispatched.
    Custom(DynBuilder),
}

impl BuildSpec {
    fn build_any(&self, store: &TraceStore, trace: TraceKey) -> AnyPredictor {
        match self {
            BuildSpec::Scheme(config) if config.needs_training() => config
                .build_any_trained_interned(
                    &store.get_interned(trace.benchmark, DataSet::Training),
                ),
            BuildSpec::Scheme(config) => config.build_any().expect("non-training scheme builds"),
            BuildSpec::Custom(builder) => AnyPredictor::Dyn(builder()),
        }
    }
}

/// How one job runs: the single decision [`lower`] makes, which the
/// partition, the prefetch barrier and the workers all read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Transposed replay over the pattern stream of this key
    /// ([`run_replay_batch`]).
    Replay(StreamKey),
    /// The interned walk ([`run_fused_batch`]), shared with the other
    /// jobs of its trace and switch configuration when `shared`
    /// ([`Job::fuse`]), else a walk of its own.
    Walk { shared: bool },
    /// One pass stepping the predictor over the trace while the job's
    /// instrumented metrics observe it ([`run_instrumented`]).
    Instrumented,
    /// `predict` + `update` over the full event trace ([`simulate`]);
    /// opt-in only ([`Job::reference_path`]).
    Reference,
}

/// A lowered job: everything the worker closure needs, `Send + 'static`.
struct Cell {
    build: BuildSpec,
    route: Route,
    trace: TraceKey,
    sim: SimConfig,
    metrics: MetricSet,
}

impl Cell {
    fn needs_training(&self) -> bool {
        matches!(&self.build, BuildSpec::Scheme(config) if config.needs_training())
    }

    /// The stream key of a replay cell.
    fn replay_key(&self) -> StreamKey {
        match self.route {
            Route::Replay(key) => key,
            _ => unreachable!("only replay cells join replay batches"),
        }
    }
}

enum Lowered {
    Skip { reason: String },
    Run(Cell),
}

/// The planner: pick the route and effective simulation options for one
/// job, or skip a job that cannot run (see the module docs for the
/// route-selection rules).
fn lower(job: &Job) -> Lowered {
    let build = match &job.spec {
        PredictorSpec::Scheme(config) => {
            if config.needs_training() && !job.trace.benchmark.has_training_set() {
                return Lowered::Skip {
                    reason: format!(
                        "{config} needs a training trace but {} has no training set",
                        job.trace.benchmark.name()
                    ),
                };
            }
            if let Err(err) = config.check_geometry() {
                return Lowered::Skip { reason: format!("{config} cannot be built: {err}") };
            }
            BuildSpec::Scheme(*config)
        }
        PredictorSpec::Custom(name) => match registry::builder(name) {
            Some(builder) => BuildSpec::Custom(builder),
            None => {
                return Lowered::Skip { reason: format!("no predictor registered under {name:?}") }
            }
        },
    };
    if let Some(Err(err)) = job.metrics.fetch.map(|cache| check_table(cache.entries, cache.ways)) {
        return Lowered::Skip { reason: format!("bad fetch target cache: {err}") };
    }

    // A scheme's own `c` flag upgrades a no-switch sim to the paper's
    // context-switch model (Table 3 semantics).
    let mut sim = job.sim;
    if let PredictorSpec::Scheme(config) = &job.spec {
        if config.context_switch() && sim.context_switch.is_none() {
            sim = SimConfig::paper_context_switch();
        }
    }

    // Pattern-stream replay: an accuracy-only catalog scheme whose first
    // level maps to a stream key replays the materialized stream instead
    // of walking it. The `fuse` gate keeps `with_fusion(false)` meaning
    // "a walk of its own" and `with_replay(false)` meaning "a shared
    // walk". A cached stream is one uninterrupted first-level walk, so
    // context-switch jobs never replay.
    let replay = match &job.spec {
        PredictorSpec::Scheme(config) if job.replay && job.fuse && sim.context_switch.is_none() => {
            replay_stream_key(*config)
        }
        _ => None,
    };
    let route = if job.reference_path {
        Route::Reference
    } else if job.metrics != MetricSet::ACCURACY {
        Route::Instrumented
    } else if let Some(key) = replay {
        Route::Replay(key)
    } else {
        Route::Walk { shared: job.fuse }
    };
    Lowered::Run(Cell { build, route, trace: job.trace, sim, metrics: job.metrics })
}

/// Runs one singleton cell on a worker thread: the reference loop or
/// the instrumented pass.
fn run_cell(cell: &Cell, store: &TraceStore) -> JobOutcome {
    JobOutcome::Measured(if cell.route == Route::Reference {
        let mut predictor = cell.build.build_any(store, cell.trace);
        let full = store.get(cell.trace.benchmark, cell.trace.data_set);
        let sim = simulate(&mut predictor, &full, &cell.sim);
        JobMetrics { sim, miss_breakdown: None, fetch: None }
    } else {
        run_instrumented(cell, store)
    })
}

/// The instrumented pass: one predictor steps once over the job's trace,
/// and every metric the job asked for observes that same step, so the
/// job's accuracy, breakdown and fetch statistics describe one run.
///
/// The pass walks every branch of the trace's
/// [`BranchStream`](tlabp_trace::BranchStream), which carries each
/// branch's pc, class, direction and target (everything but `instret`,
/// which no predictor reads). Before each conditional it fires the
/// switches the trace's
/// [`SwitchSchedule`](crate::runner::SwitchSchedule) places there, then
/// steps the conditional through [`BranchPredictor::step_interned`] with
/// the next interned id. For a miss breakdown of a PAg-structured
/// predictor it steps through
/// [`Pag::step_interned_diagnosed`](tlabp_core::schemes::Pag::step_interned_diagnosed)
/// instead, and every misprediction lands in exactly one
/// [`MissBreakdown`] bucket, classified from the predictor's state at
/// prediction time. The Section 3.2 fetch model sees every branch: the
/// direction predictor handles conditionals (everything else is
/// architecturally taken) and a target cache supplies target addresses
/// for every branch class. A context switch flushes the predictor's
/// first level, never the target cache.
fn run_instrumented(cell: &Cell, store: &TraceStore) -> JobMetrics {
    let TraceKey { benchmark, data_set } = cell.trace;
    let branches = store.get_branch_stream(benchmark, data_set);
    let interned = store.get_interned(benchmark, data_set);
    let schedule = store.get_switch_schedule(benchmark, data_set, &cell.sim);
    let mut predictor = cell.build.build_any(store, cell.trace);
    let mut sim = SimResult {
        scheme: predictor.name(),
        predictions: 0,
        correct: 0,
        context_switches: schedule.total(),
    };
    let mut breakdown = (cell.metrics.miss_breakdown && matches!(predictor, AnyPredictor::Pag(_)))
        .then(MissBreakdown::default);
    // Shadow of the global PHT: which static branch (by interned id)
    // last updated each entry, for interference attribution. Grown on
    // demand so any history length works.
    let mut last_writer: Vec<Option<u32>> = Vec::new();
    let mut fetch = cell
        .metrics
        .fetch
        .map(|spec| (TargetCache::new(spec.entries, spec.ways), FetchStats::default()));
    let mut events = interned.events().iter();
    let mut points = schedule.points().iter().peekable();
    for branch in branches.iter() {
        let branch = &branch;
        let predicted_taken = if branch.class.is_conditional() {
            let index = sim.predictions as usize;
            if let Some(&(_, switches)) = points.next_if(|&&(at, _)| at == index) {
                (0..switches).for_each(|_| predictor.context_switch());
            }
            let id = events.next().expect("one interned event per conditional branch").id();
            debug_assert_eq!(interned.pc_of(id), branch.pc, "interned events in branch order");
            let predicted = match (&mut predictor, &mut breakdown) {
                (AnyPredictor::Pag(pag), Some(buckets)) => {
                    let diagnostics = pag.step_interned_diagnosed(id, branch);
                    let pattern = diagnostics.pattern;
                    if last_writer.len() <= pattern {
                        last_writer.resize(pattern + 1, None);
                    }
                    if diagnostics.predicted_taken != branch.taken {
                        if !diagnostics.bht_hit {
                            buckets.bht_miss += 1;
                        } else if matches!(diagnostics.pattern_state.value(), 1 | 2) {
                            buckets.weak_pattern += 1;
                        } else if last_writer[pattern].is_some_and(|writer| writer != id) {
                            buckets.interference += 1;
                        } else {
                            buckets.noise += 1;
                        }
                    }
                    last_writer[pattern] = Some(id);
                    diagnostics.predicted_taken
                }
                _ => predictor.step_interned(id, branch),
            };
            sim.predictions += 1;
            sim.correct += u64::from(predicted == branch.taken);
            predicted
        } else {
            true
        };
        if let Some((cache, stats)) = &mut fetch {
            let outcome = cache.fetch(branch, predicted_taken);
            cache.resolve(branch);
            stats.branches += 1;
            stats.correct_path += u64::from(outcome.is_correct_path());
            match outcome {
                FetchOutcome::HitCorrectTarget => stats.no_bubble_taken += 1,
                FetchOutcome::HitWrongPath => {
                    stats.squashes += 1;
                    if branch.class == BranchClass::Return {
                        stats.return_target_misses += 1;
                    }
                }
                FetchOutcome::HitFallThrough { correct } | FetchOutcome::Miss { correct } => {
                    stats.squashes += u64::from(!correct);
                }
            }
        }
    }
    if let Some(buckets) = &breakdown {
        assert_eq!(
            buckets.total(),
            sim.predictions - sim.correct,
            "every misprediction is classified exactly once"
        );
    }
    JobMetrics { sim, miss_breakdown: breakdown, fetch: fetch.map(|(_, stats)| stats) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TargetCacheSpec;
    use tlabp_core::automaton::Automaton;
    use tlabp_core::bht::BhtConfig;
    use tlabp_core::schemes::Gshare;
    use tlabp_workloads::Benchmark;

    fn li() -> &'static Benchmark {
        Benchmark::by_name("li").expect("li exists")
    }

    /// `plan` on the global pool against `store`.
    fn run(plan: &Plan, store: &TraceStore) -> ResultSet {
        Session::new(store.clone()).run(plan)
    }

    /// A suite plan reassembles into one suite per configuration, in
    /// configuration order and with one row per benchmark in
    /// `Benchmark::ALL` order; duplicate configurations stay separate
    /// suites.
    #[test]
    fn suites_follow_config_order_and_keep_duplicates() {
        let configs = [
            SchemeConfig::pag(6),
            SchemeConfig::gag(6),
            SchemeConfig::btfn(),
            SchemeConfig::btfn(),
        ];
        let plan = Plan::suites(&configs, &SimConfig::no_context_switch());
        let suites = run(&plan, &TraceStore::new()).suites();
        assert_eq!(suites.len(), configs.len(), "duplicate configs must not merge");
        let expected: Vec<&str> = Benchmark::ALL.iter().map(Benchmark::name).collect();
        for (config, suite) in configs.iter().zip(&suites) {
            assert_eq!(suite.scheme, config.to_string());
            let names: Vec<&str> = suite.rows.iter().map(|r| r.benchmark.as_str()).collect();
            assert_eq!(names, expected, "rows follow Benchmark::ALL order");
        }
        assert_eq!(suites[2], suites[3]);
    }

    /// A suite plan generates exactly the traces its measurable cells
    /// read: the testing trace of every benchmark for an adaptive
    /// scheme, and for a profiled scheme a testing and a training trace
    /// of only the benchmarks with a training set, skipping the rest
    /// (the paper's "NA" cells).
    #[test]
    fn suites_generate_only_the_traces_measurable_cells_read() {
        let sim = SimConfig::no_context_switch();
        let store = TraceStore::new();
        let _ = run(&Plan::suites(&[SchemeConfig::btfn()], &sim), &store);
        assert_eq!(store.len(), Benchmark::ALL.len(), "one testing trace per benchmark");

        let store = TraceStore::new();
        let suites = run(&Plan::suites(&[SchemeConfig::profiling()], &sim), &store).suites();
        let with_training = Benchmark::ALL.iter().filter(|b| b.has_training_set()).count();
        assert_eq!(store.len(), 2 * with_training);
        let missing: Vec<&str> = suites[0]
            .rows
            .iter()
            .filter(|r| r.accuracy.is_none())
            .map(|r| r.benchmark.as_str())
            .collect();
        assert_eq!(missing, vec!["eqntott", "fpppp", "matrix300", "tomcatv"]);
    }

    /// PAg(8) measures every benchmark, and a scheme's `c` flag turns on
    /// the paper's context-switch model under a no-switch `sim`.
    #[test]
    fn suites_measure_pag_everywhere_and_honor_the_c_flag() {
        let configs = [SchemeConfig::pag(8), SchemeConfig::pag(8).with_context_switch(true)];
        let suites =
            run(&Plan::suites(&configs, &SimConfig::default()), &TraceStore::new()).suites();
        assert!(suites[0].rows.iter().all(|r| r.accuracy.is_some()));
        let gmean = suites[0].total_gmean();
        assert!(gmean > 0.80, "PAg(8) should be decent, got {gmean}");
        let gcc = suites[1].rows.iter().find(|r| r.benchmark == "gcc").expect("gcc row");
        assert!(gcc.context_switches > 50, "gcc switches: {}", gcc.context_switches);
    }

    #[test]
    fn custom_spec_runs_through_the_registry() {
        registry::register("engine-test-gshare", || Box::new(Gshare::new(10, Automaton::A2)));
        let plan: Plan = [Job::custom("engine-test-gshare", li())].into_iter().collect();
        let results = run(&plan, &TraceStore::new());
        let accuracy = results.outcome(0).accuracy().expect("measured");
        assert!(accuracy > 0.8, "gshare on li: {accuracy}");
    }

    /// Jobs that cannot run come back skipped with a reason, and their
    /// neighbour is still measured: an unregistered predictor name, a
    /// history length past the cap, a `c`-flagged PAp whose geometry
    /// cannot be built, a PAp whose 512 × 2^19 replay rows would take
    /// 2 GiB, a PAp over the ideal BHT with a 2^16-entry table per
    /// static branch, and a fetch job whose target cache cannot be
    /// built.
    #[test]
    fn jobs_that_cannot_run_are_skipped_with_a_reason() {
        let plan: Plan = [
            Job::custom("engine-test-unregistered", li()),
            Job::scheme(SchemeConfig::gag(40), li()),
            Job::scheme(SchemeConfig::pap(40).with_context_switch(true), li()),
            Job::scheme(SchemeConfig::pap(19), li()),
            Job::scheme(SchemeConfig::pap(16).with_bht(BhtConfig::Ideal), li()),
            Job::scheme(SchemeConfig::pag(8), li()).with_metrics(MetricSet {
                miss_breakdown: false,
                fetch: Some(TargetCacheSpec { entries: 3, ways: 2 }),
            }),
            Job::scheme(SchemeConfig::gag(8), li()),
        ]
        .into_iter()
        .collect();
        let results = run(&plan, &TraceStore::new());
        let reasons = [
            "no predictor registered",
            "cannot be built",
            "cannot be built",
            "cannot be built",
            "cannot be built",
            "bad fetch target cache",
        ];
        for (index, want) in reasons.iter().enumerate() {
            match results.outcome(index) {
                JobOutcome::Skipped { reason } => {
                    assert!(reason.contains(want), "job {index}: {reason}");
                }
                JobOutcome::Measured(_) => panic!("job {index} cannot run"),
            }
        }
        assert!(results.outcome(reasons.len()).accuracy().is_some(), "the neighbour is measured");
    }

    /// No paper route reads a full trace once its forms exist. The union
    /// of the analysis, fetch, fig9 and fig11 plans — instrumented jobs,
    /// switched walks, trained schemes, replays and plain walks — runs
    /// twice on one memory store: the first run loads each trace it
    /// derives a form from, the second loads none, and neither leaves a
    /// trace resident.
    #[test]
    fn a_warm_store_runs_the_paper_routes_without_a_trace() {
        let pag12 = SchemeConfig::pag(12);
        let breakdown = MetricSet { miss_breakdown: true, fetch: None };
        let fetch =
            MetricSet { miss_breakdown: false, fetch: Some(TargetCacheSpec::PAPER_DEFAULT) };
        let fig9: Vec<SchemeConfig> = [SchemeConfig::gag(18), pag12, SchemeConfig::pap(8)]
            .iter()
            .flat_map(|config| [*config, config.with_context_switch(true)])
            .collect();
        let fig11 = [
            pag12,
            SchemeConfig::psg(12),
            SchemeConfig::gsg(18),
            SchemeConfig::btb(Automaton::A2),
            SchemeConfig::profiling(),
            SchemeConfig::btb(Automaton::LastTime),
            SchemeConfig::btfn(),
            SchemeConfig::always_taken(),
        ];
        let mut plan: Plan = [breakdown, fetch]
            .iter()
            .flat_map(|&metrics| {
                Benchmark::ALL.iter().map(move |b| Job::scheme(pag12, b).with_metrics(metrics))
            })
            .collect();
        plan.extend(Plan::suites(&fig9, &SimConfig::no_context_switch()));
        plan.extend(Plan::suites(&fig11, &SimConfig::no_context_switch()));

        let store = TraceStore::new();
        let cold = run(&plan, &store);
        let loads = store.trace_loads();
        assert!(loads >= 14, "every testing and training trace loads once: {loads}");
        assert_eq!(store.cache_bytes().traces, 0, "the first run leaves no trace");
        let warm = run(&plan, &store);
        assert_eq!(warm, cold);
        assert_eq!(store.trace_loads(), loads, "the warm run loads no trace");
        assert_eq!(store.cache_bytes().traces, 0);
        assert_eq!(store.len(), 14, "every slot keeps its compact forms");
    }

    /// The prefetch barrier derives every form of a slot in one task and
    /// writes the slot once. Its artifact must be byte-identical to the
    /// one the public getters leave when they derive the same forms one
    /// write each, and a fresh store must hydrate every form from it,
    /// decoding the trace section, without running the VM or rewriting.
    #[test]
    fn prefetch_writes_each_slot_once_as_the_getters_would() {
        let root =
            std::env::temp_dir().join(format!("tlabp-engine-prefetch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (barrier_dir, getters_dir) = (root.join("barrier"), root.join("getters"));
        let set = DataSet::Testing;
        let configs = [SchemeConfig::pag(8), SchemeConfig::gag(10)];
        let plan: Plan = configs.iter().map(|&config| Job::scheme(config, li())).collect();
        let keys: Vec<StreamKey> =
            configs.iter().map(|&config| replay_stream_key(config).expect("two-level")).collect();
        assert_ne!(keys[0], keys[1], "two stream keys on one trace");

        let barrier = TraceStore::with_cache_dir(&barrier_dir);
        prefetch_on(SweepPool::global(), &plan, &barrier);
        assert_eq!(barrier.artifact_writes(), 1, "the barrier writes its one slot once");
        let getters = TraceStore::with_cache_dir(&getters_dir);
        let _ = getters.get_interned(li(), set);
        for &key in &keys {
            let _ = getters.get_pattern_stream(li(), set, key);
        }
        assert_eq!(getters.artifact_writes(), 3, "a getter writes each form it derives");

        let artifact = |dir: &std::path::Path| {
            let paths: Vec<_> = std::fs::read_dir(dir)
                .expect("cache dir exists")
                .map(|entry| entry.expect("dir entry").path())
                .collect();
            assert_eq!(paths.len(), 1, "one artifact and no residue: {paths:?}");
            std::fs::read(&paths[0]).expect("artifact reads")
        };
        assert!(
            artifact(&barrier_dir) == artifact(&getters_dir),
            "the barrier's artifact differs from the getters'"
        );

        // Hydrated, not regenerated: the getters neither run the VM nor
        // write, since a getter writes whenever it generates.
        let fresh = TraceStore::with_cache_dir(&barrier_dir);
        assert!(*fresh.get(li(), set) == *getters.get(li(), set), "the trace decodes");
        assert_eq!(*fresh.get_interned(li(), set), *getters.get_interned(li(), set));
        for &key in &keys {
            let derived = getters.get_pattern_stream(li(), set, key);
            assert!(*fresh.get_pattern_stream(li(), set, key) == *derived, "{key:?} hydrates");
        }
        assert_eq!((fresh.vm_runs(), fresh.artifact_writes()), (0, 0), "nothing regenerates");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reference_path_matches_fast_path() {
        let store = TraceStore::new();
        let fast: Plan = [Job::scheme(SchemeConfig::pag(8), li())].into_iter().collect();
        let reference: Plan = [Job::scheme(SchemeConfig::pag(8), li()).with_reference_path(true)]
            .into_iter()
            .collect();
        let fast_out = run(&fast, &store);
        let reference_out = run(&reference, &store);
        assert_eq!(
            fast_out.outcome(0).metrics().unwrap().sim,
            reference_out.outcome(0).metrics().unwrap().sim,
            "reference and fast paths must be bit-identical"
        );
    }

    #[test]
    fn miss_breakdown_buckets_sum_to_mispredictions() {
        let store = TraceStore::new();
        let plan: Plan = [Job::scheme(SchemeConfig::pag(12), li())
            .with_metrics(MetricSet { miss_breakdown: true, fetch: None })]
        .into_iter()
        .collect();
        let results = run(&plan, &store);
        let metrics = results.outcome(0).metrics().expect("measured");
        let breakdown = metrics.miss_breakdown.expect("PAg yields a breakdown");
        assert_eq!(breakdown.total(), metrics.sim.predictions - metrics.sim.correct);
        assert!(metrics.sim.predictions > 0);
    }

    #[test]
    fn miss_breakdown_is_none_for_non_pag() {
        let store = TraceStore::new();
        let plan: Plan = [Job::scheme(SchemeConfig::gag(10), li())
            .with_metrics(MetricSet { miss_breakdown: true, fetch: None })]
        .into_iter()
        .collect();
        let results = run(&plan, &store);
        let metrics = results.outcome(0).metrics().expect("measured");
        assert!(metrics.miss_breakdown.is_none());
        assert!(metrics.sim.predictions > 0, "accuracy still measured");
    }

    #[test]
    fn fused_plan_matches_per_cell_plan_bit_for_bit() {
        let store = TraceStore::new();
        let configs = [
            SchemeConfig::pag(8),
            SchemeConfig::gag(10),
            SchemeConfig::pap(6),
            SchemeConfig::btfn(),
        ];
        let benchmarks = [li(), Benchmark::by_name("eqntott").unwrap()];
        let fused: Plan = benchmarks
            .iter()
            .flat_map(|&b| configs.iter().map(move |&c| Job::scheme(c, b)))
            .collect();
        let per_cell: Plan =
            fused.jobs().iter().map(|job| job.clone().with_fusion(false)).collect();
        let fused_out = run(&fused, &store);
        let per_cell_out = run(&per_cell, &store);
        for index in 0..fused.len() {
            assert_eq!(
                fused_out.outcome(index).metrics().unwrap().sim,
                per_cell_out.outcome(index).metrics().unwrap().sim,
                "job {index} must be fusion-invariant"
            );
        }
    }

    #[test]
    fn mixed_plan_fuses_eligible_jobs_and_falls_back_for_the_rest() {
        // One plan holding every scheduling class at once: fusible cells,
        // a context-switch (switch-scheduled) cell, an instrumented cell, a
        // fusion-off cell and a skip. The outcomes must match the same
        // jobs run as singleton per-cell plans.
        let store = TraceStore::new();
        let jobs = [
            Job::scheme(SchemeConfig::pag(8), li()),
            Job::scheme(SchemeConfig::gag(10).with_context_switch(true), li()),
            Job::scheme(SchemeConfig::pag(12), li())
                .with_metrics(MetricSet { miss_breakdown: true, fetch: None }),
            Job::scheme(SchemeConfig::pap(6), li()).with_fusion(false),
            Job::scheme(SchemeConfig::profiling(), Benchmark::by_name("eqntott").unwrap()),
            Job::scheme(SchemeConfig::btfn(), li()),
        ];
        let mixed: Plan = jobs.iter().cloned().collect();
        let mixed_out = run(&mixed, &store);
        for (index, job) in jobs.iter().enumerate() {
            let single: Plan = [job.clone().with_fusion(false)].into_iter().collect();
            let single_out = run(&single, &store);
            assert_eq!(
                mixed_out.outcome(index),
                single_out.outcome(0),
                "job {index} ({}) must not depend on its batch",
                job.label()
            );
        }
    }

    #[test]
    fn batch_sizes_are_capped_and_nearly_even() {
        assert_eq!(batch_sizes(0, MAX_FUSE_BATCH), Vec::<usize>::new());
        assert_eq!(batch_sizes(1, MAX_FUSE_BATCH), vec![1]);
        assert_eq!(batch_sizes(MAX_FUSE_BATCH, MAX_FUSE_BATCH), vec![MAX_FUSE_BATCH]);
        assert_eq!(batch_sizes(17, MAX_FUSE_BATCH), vec![9, 8]);
        assert_eq!(batch_sizes(33, MAX_FUSE_BATCH), vec![11, 11, 11]);
        assert_eq!(batch_sizes(MAX_REPLAY_BATCH, MAX_REPLAY_BATCH), vec![MAX_REPLAY_BATCH]);
        assert_eq!(batch_sizes(MAX_REPLAY_BATCH + 1, MAX_REPLAY_BATCH), vec![65, 64]);
        for cap in [MAX_FUSE_BATCH, MAX_REPLAY_BATCH] {
            for n in 0..10 * cap {
                let sizes = batch_sizes(n, cap);
                assert_eq!(sizes.iter().sum::<usize>(), n, "sizes partition {n} cells");
                assert!(sizes.iter().all(|&s| 0 < s && s <= cap), "cap {cap} holds for {n}");
                if let (Some(min), Some(max)) = (sizes.iter().min(), sizes.iter().max()) {
                    assert!(max - min <= 1, "sizes for {n} differ by more than one: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn split_replay_batch_respects_word_granules() {
        // 40 same-width members = 3 atoms (16 + 16 + 8): more workers
        // than atoms clamp to one atom per part, and no part ever holds
        // a fragment of a word.
        let indices: Vec<usize> = (0..40).collect();
        let widths = vec![12u32; 40];
        let parts = split_replay_batch(&indices, &widths, 8, u64::MAX);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![16, 16, 8],
            "word-granule atoms"
        );
        let merged: Vec<usize> = parts.concat();
        assert_eq!(merged, indices, "parts partition the batch in plan order");
        // A one-worker pool leaves the batch whole however big the work.
        assert_eq!(split_replay_batch(&indices, &widths, 1, u64::MAX), vec![indices.clone()]);
    }

    #[test]
    fn split_is_bounded_by_work_workers_and_words() {
        let indices: Vec<usize> = (0..64).collect();
        let widths = vec![10u32; 64];
        // Well under one SPLIT_UNIT of measured work: no split.
        let parts = split_replay_batch(&indices, &widths, 8, 1000);
        assert_eq!(parts.len(), 1);
        // Two units of work: two parts even with eight idle workers.
        let parts = split_replay_batch(&indices, &widths, 8, 2 * SPLIT_UNIT);
        assert_eq!(parts.len(), 2);
        // Ample work: the word cap (64 members = 4 atoms) bounds an
        // eight-worker split.
        let parts = split_replay_batch(&indices, &widths, 8, u64::MAX);
        assert_eq!(parts.len(), 4);
        // Two workers: the pool bounds it instead.
        let parts = split_replay_batch(&indices, &widths, 2, u64::MAX);
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn split_groups_interleaved_widths_into_whole_words() {
        // Alternating widths: members regroup by width before atomizing,
        // so a 2-way split yields two half-word atoms (one per width),
        // not sixteen fragments.
        let indices: Vec<usize> = (0..16).collect();
        let widths: Vec<u32> = (0..16).map(|i| if i % 2 == 0 { 4 } else { 6 }).collect();
        let parts = split_replay_batch(&indices, &widths, 2, u64::MAX);
        assert_eq!(parts.len(), 2);
        assert!(parts[0].iter().all(|&index| index % 2 == 0), "width-4 members stay together");
        assert!(parts[1].iter().all(|&index| index % 2 == 1), "width-6 members stay together");
    }

    /// How many sub-batches each replay batch of `plan` splits into on a
    /// pool of `threads` workers, once the prefetch barrier has made its
    /// streams resident: the split `Session::submit` schedules.
    fn replay_parts(plan: &Plan, store: &TraceStore, threads: usize) -> Vec<usize> {
        prefetch_on(&SweepPool::new(1), plan, store);
        let lowered: Vec<Lowered> = plan.jobs().iter().map(lower).collect();
        let partition = partition_batches(&lowered);
        let cells: Vec<Option<Cell>> = lowered
            .into_iter()
            .map(|low| match low {
                Lowered::Run(cell) => Some(cell),
                Lowered::Skip { .. } => None,
            })
            .collect();
        partition
            .replay
            .iter()
            .map(|(rep, indices)| split_replay(&cells, *rep, indices, store, threads).len())
            .collect()
    }

    #[test]
    fn forced_split_replay_matches_unsplit() {
        // GAg, PAg and PAp at two widths under every automaton, on li
        // (724,820 conditionals): the 12-member global batch and the
        // 24-member BHT batch each hold two width atoms and at least two
        // SPLIT_UNITs of work, so two workers provably split both. This
        // is the plan `tests/differential.rs`
        // `split_replay_matches_unsplit_for_every_scheme_and_automaton`
        // runs. The merged result sets must be bit-identical to the
        // one-worker run, which never splits: the scatter-merge
        // determinism contract.
        let store = TraceStore::new();
        let schemes: [fn(u32) -> SchemeConfig; 3] =
            [SchemeConfig::gag, SchemeConfig::pag, SchemeConfig::pap];
        let plan: Plan = schemes
            .iter()
            .flat_map(|scheme| {
                [6u32, 8].into_iter().flat_map(move |width| {
                    Automaton::ALL
                        .map(|automaton| Job::scheme(scheme(width).with_automaton(automaton), li()))
                })
            })
            .collect();
        assert_eq!(replay_parts(&plan, &store, 1), vec![1, 1]);
        assert_eq!(replay_parts(&plan, &store, 2), vec![2, 2], "both batches split");
        let run_on = |workers| Session::on(&SweepPool::new(workers), store.clone()).run(&plan);
        let unsplit = run_on(1);
        for workers in [2, 4] {
            let split = run_on(workers);
            for index in 0..plan.len() {
                assert_eq!(
                    unsplit.outcome(index),
                    split.outcome(index),
                    "job {index} diverged on {workers} workers"
                );
            }
        }
    }

    /// Every accuracy job that neither replays nor takes the reference
    /// path walks the interned stream: a fusion-off job in a batch of
    /// one, the rest shared per trace and switch configuration. Only
    /// reference and instrumented jobs run as single cells, and only
    /// the reference job needs the full trace: every other route needs
    /// the interned stream, and the replay batch its one stream.
    #[test]
    fn non_replay_accuracy_jobs_all_walk() {
        let miss = MetricSet { miss_breakdown: true, fetch: None };
        let fetch =
            MetricSet { miss_breakdown: false, fetch: Some(TargetCacheSpec::PAPER_DEFAULT) };
        let switched = SchemeConfig::pag(12).with_context_switch(true);
        let plan: Plan = [
            Job::scheme(SchemeConfig::btfn(), li()),
            Job::scheme(SchemeConfig::btb(Automaton::A2), li()),
            Job::scheme(SchemeConfig::pap(6), li()).with_fusion(false),
            Job::scheme(switched, li()),
            Job::scheme(SchemeConfig::pag(12), li()).with_metrics(miss),
            Job::scheme(switched, li()).with_metrics(miss),
            Job::scheme(SchemeConfig::gag(8), li()).with_reference_path(true),
            Job::scheme(SchemeConfig::gag(8), li()),
            Job::scheme(SchemeConfig::pag(12), li()).with_metrics(fetch),
        ]
        .into_iter()
        .collect();
        let lowered: Vec<Lowered> = plan.jobs().iter().map(lower).collect();
        let partition = partition_batches(&lowered);
        assert_eq!(partition.fused, vec![vec![0, 1], vec![2], vec![3]]);
        assert_eq!(partition.singles, vec![4, 5, 6, 8]);
        assert_eq!(
            partition.replay,
            vec![(replay_stream_key(SchemeConfig::gag(8)).expect("two-level"), vec![7])]
        );
        let routes: Vec<Route> = lowered
            .iter()
            .map(|low| match low {
                Lowered::Run(cell) => cell.route,
                Lowered::Skip { .. } => unreachable!("every job runs"),
            })
            .collect();
        let gag8 = replay_stream_key(SchemeConfig::gag(8)).expect("two-level");
        let (shared, alone) = (Route::Walk { shared: true }, Route::Walk { shared: false });
        assert_eq!(
            routes,
            [
                shared,
                shared,
                alone,
                shared,
                Route::Instrumented,
                Route::Instrumented,
                Route::Reference,
                Route::Replay(gag8),
                Route::Instrumented
            ]
        );
        let needs = SlotNeeds { trace: true, interned: true, streams: vec![gag8] };
        assert_eq!(slot_needs(&lowered, &partition), vec![(TraceKey::testing(li()), needs)]);
    }

    /// A plan that panics on a worker leaves the pool serving the next
    /// plan. The registered builder panics when the pool's only worker
    /// builds the job's predictor.
    #[test]
    fn a_panicking_plan_spares_the_pool_for_the_next() {
        registry::register("engine-test-panics", || panic!("this builder always panics"));
        let pool = SweepPool::new(1);
        let session = Session::on(&pool, TraceStore::new());
        let bad: Plan = [Job::custom("engine-test-panics", li())].into_iter().collect();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run(&bad)));
        assert!(failed.is_err(), "the builder panics");
        let good: Plan = [Job::scheme(SchemeConfig::gag(8), li())].into_iter().collect();
        let results = session.run(&good);
        assert!(results.outcome(0).accuracy().is_some(), "the next plan is measured");
    }

    /// Fold-class grouping: a grid column's width × automaton variants
    /// land in one replay batch with the widest member's key as
    /// representative, so the whole column is one stream walk.
    #[test]
    fn replay_batches_fold_width_variants_into_one_stream() {
        let plan: Plan = [4u32, 6, 8]
            .iter()
            .flat_map(|&bits| {
                [
                    Job::scheme(SchemeConfig::gag(bits), li()),
                    Job::scheme(SchemeConfig::gag(bits).with_automaton(Automaton::LastTime), li()),
                    Job::scheme(SchemeConfig::pag(bits), li()),
                    Job::scheme(SchemeConfig::pap(bits), li()),
                ]
            })
            .collect();
        let lowered: Vec<Lowered> = plan.jobs().iter().map(lower).collect();
        let partition = partition_batches(&lowered);
        assert!(partition.singles.is_empty());
        assert!(partition.fused.is_empty());
        // One Global fold group (GAg × 2 automata × 3 widths) and one
        // paper-default-BHT fold group (PAg + PAp × 3 widths).
        assert_eq!(partition.replay.len(), 2);
        assert_eq!(partition.replay[0].1.len(), 6);
        assert_eq!(partition.replay[1].1.len(), 6);
        for (rep, indices) in &partition.replay {
            let keys: Vec<StreamKey> = indices
                .iter()
                .map(|&index| match &lowered[index] {
                    Lowered::Run(cell) => cell.replay_key(),
                    Lowered::Skip { .. } => unreachable!(),
                })
                .collect();
            assert_eq!(rep.history_bits(), 8, "widest member wins");
            assert!(keys.iter().all(|key| key.fold_key() == rep.fold_key()));
        }
    }

    #[test]
    fn session_stream_yields_plan_order_and_matches_run() {
        let store = TraceStore::new();
        let plan: Plan = [
            Job::scheme(SchemeConfig::pag(8), li()),
            Job::scheme(SchemeConfig::profiling(), Benchmark::by_name("eqntott").unwrap()),
            Job::scheme(SchemeConfig::gag(10).with_context_switch(true), li()),
            Job::scheme(SchemeConfig::btfn(), li()),
        ]
        .into_iter()
        .collect();
        let blocking = run(&plan, &store);

        let session = Session::new(store);
        let stream = session.submit(&plan);
        assert_eq!(stream.len(), plan.len());
        let items: Vec<JobItem> = stream.collect();
        assert_eq!(items.len(), plan.len());
        for (position, item) in items.iter().enumerate() {
            assert_eq!(item.index, position, "items arrive in plan order");
            assert_eq!(&item.job, &plan.jobs()[position]);
            assert_eq!(&item.outcome, blocking.outcome(position), "stream matches run");
        }
    }

    #[test]
    fn session_streams_early_results_before_later_jobs_finish() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        registry::register("session-test-fast", || Box::new(tlabp_core::schemes::Btfn::new()));
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        registry::register("session-test-slow", move || {
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Box::new(tlabp_core::schemes::Btfn::new())
        });

        // Two singleton tasks on a two-worker pool: job 1's builder
        // blocks until the test observes job 0's streamed item, proving
        // the stream yields incrementally rather than after the sweep.
        let pool = SweepPool::new(2);
        let plan: Plan = [
            Job::custom("session-test-fast", li()).with_fusion(false),
            Job::custom("session-test-slow", li()).with_fusion(false),
        ]
        .into_iter()
        .collect();
        let session = Session::on(&pool, TraceStore::new());
        let mut stream = session.submit(&plan);
        let first = stream.next().expect("first item streams while job 1 is still blocked");
        assert_eq!(first.index, 0);
        assert!(first.outcome.accuracy().is_some());
        release.store(true, Ordering::SeqCst);
        let second = stream.next().expect("second item arrives after release");
        assert_eq!(second.index, 1);
        assert!(stream.next().is_none());
    }

    #[test]
    fn result_set_wire_round_trip_is_lossless() {
        let store = TraceStore::new();
        let plan: Plan = [
            Job::scheme(SchemeConfig::pag(12), li())
                .with_metrics(MetricSet { miss_breakdown: true, fetch: None }),
            Job::scheme(SchemeConfig::profiling(), Benchmark::by_name("eqntott").unwrap()),
            Job::scheme(SchemeConfig::pag(12), li()).with_metrics(MetricSet {
                miss_breakdown: false,
                fetch: Some(TargetCacheSpec::PAPER_DEFAULT),
            }),
            Job::scheme(SchemeConfig::gag(8), li()),
        ]
        .into_iter()
        .collect();
        let results = run(&plan, &store);
        let text = results.to_json_string();
        let back = ResultSet::from_json_str(&text, &plan).expect("serialized results parse");
        assert_eq!(back, results);
        assert_eq!(back.to_json_string(), text, "re-render is byte-identical");
    }

    #[test]
    fn result_set_wire_decode_rejects_mismatches() {
        let store = TraceStore::new();
        let plan: Plan = [Job::scheme(SchemeConfig::gag(8), li())].into_iter().collect();
        let results = run(&plan, &store);
        let text = results.to_json_string();

        let wrong_version = text.replacen("\"version\":1", "\"version\":9", 1);
        assert!(ResultSet::from_json_str(&wrong_version, &plan).is_err());

        let other_plan: Plan = [Job::scheme(SchemeConfig::gag(10), li())].into_iter().collect();
        let err = ResultSet::from_json_str(&text, &other_plan).unwrap_err();
        assert!(err.to_string().contains("plan hash"), "{err}");

        assert!(ResultSet::from_json_str("{}", &plan).is_err());
    }

    #[test]
    fn fetch_metric_reports_all_branch_classes() {
        let store = TraceStore::new();
        let plan: Plan = [Job::scheme(SchemeConfig::pag(12), li()).with_metrics(MetricSet {
            miss_breakdown: false,
            fetch: Some(TargetCacheSpec::PAPER_DEFAULT),
        })]
        .into_iter()
        .collect();
        let results = run(&plan, &store);
        let metrics = results.outcome(0).metrics().expect("measured");
        let fetch = metrics.fetch.expect("fetch stats requested");
        assert!(fetch.branches > metrics.sim.predictions, "all classes > conditionals only");
        assert!(fetch.correct_path <= fetch.branches);
    }
}
