//! The declarative job IR: describe *what* to measure, not *how*.
//!
//! A [`Job`] names four things — a predictor ([`PredictorSpec`]), a trace
//! ([`TraceKey`]), the simulation options ([`SimConfig`]) and the metrics
//! wanted ([`MetricSet`]). A [`Plan`] is an ordered batch of jobs. Every
//! experiment in the harness, from the paper's figures to the ablations
//! and the throughput benchmark, is a plan; the execution engine
//! ([`crate::engine`]) lowers each job onto the best execution path and
//! runs the whole batch on the worker pool.
//!
//! The IR is pure data: constructing a plan performs no simulation, no
//! trace generation and no predictor construction, so plans can be built,
//! inspected, stored and replayed (this is the seam a future server mode
//! plugs into — a request *is* a plan).
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
//! let configs: Vec<_> = (6..=12).map(SchemeConfig::pag).collect();
//! let plan = Plan::suites(&configs, &SimConfig::no_context_switch());
//! let results = Session::new(TraceStore::new()).run(&plan);
//! for suite in results.suites() {
//!     println!("{}: {:.2}%", suite.scheme, suite.total_gmean() * 100.0);
//! }
//! ```

use tlabp_core::config::SchemeConfig;
use tlabp_workloads::{Benchmark, DataSet};

use crate::json::{Json, WireError};
use crate::runner::{ContextSwitchConfig, SimConfig};

/// Version tag of the serialized plan format ([`Plan::to_json_string`]).
///
/// Bumped on any change to the job encoding; decoders reject documents
/// whose version differs, the same posture the artifact container takes
/// toward on-disk data.
pub const PLAN_WIRE_VERSION: u64 = 1;

/// Which predictor a job simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictorSpec {
    /// A Table 3 catalog configuration. Lowered to the monomorphized
    /// fast paths ([`tlabp_core::any::AnyPredictor`], and the packed
    /// conditional stream when no context switches are simulated).
    Scheme(SchemeConfig),
    /// A predictor registered under this name in
    /// [`tlabp_core::registry`]. Runs behind `Box<dyn BranchPredictor>`
    /// — the only path that still pays dynamic dispatch.
    Custom(String),
}

impl PredictorSpec {
    /// A registered-builder spec by name.
    #[must_use]
    pub fn custom(name: impl Into<String>) -> Self {
        PredictorSpec::Custom(name.into())
    }

    /// The display label: the Table 3 configuration string for schemes,
    /// the registered name for custom predictors. Result rows group into
    /// suites by this label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PredictorSpec::Scheme(config) => config.to_string(),
            PredictorSpec::Custom(name) => name.clone(),
        }
    }
}

impl From<SchemeConfig> for PredictorSpec {
    fn from(config: SchemeConfig) -> Self {
        PredictorSpec::Scheme(config)
    }
}

/// Which benchmark trace a job runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceKey {
    /// The workload.
    pub benchmark: &'static Benchmark,
    /// Training or testing data set. Jobs normally measure on
    /// [`DataSet::Testing`]; training traces are consumed implicitly by
    /// profiled schemes.
    pub data_set: DataSet,
}

impl TraceKey {
    /// The testing trace of `benchmark` — the measurement input of every
    /// paper experiment.
    #[must_use]
    pub fn testing(benchmark: &'static Benchmark) -> Self {
        TraceKey { benchmark, data_set: DataSet::Testing }
    }
}

/// Geometry of the target cache used by the fetch-path metric
/// (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetCacheSpec {
    /// Number of cache entries.
    pub entries: usize,
    /// Set associativity.
    pub ways: usize,
}

impl TargetCacheSpec {
    /// The paper's 4-way 512-entry geometry.
    pub const PAPER_DEFAULT: TargetCacheSpec = TargetCacheSpec { entries: 512, ways: 4 };
}

impl Default for TargetCacheSpec {
    fn default() -> Self {
        TargetCacheSpec::PAPER_DEFAULT
    }
}

/// Which metrics a job should produce beyond the always-computed
/// prediction-accuracy counters.
///
/// A job with instrumented metrics runs alone, in one pass that steps
/// its predictor over the trace while every requested metric observes
/// the same steps. The pass fires the job's context switches, so a
/// switched job's breakdown sums to its own mispredictions and its fetch
/// statistics include the switches. (The paper's Section 3 analyses are
/// measured without switches, and so are the paper plans' instrumented
/// jobs.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricSet {
    /// Attribute every misprediction to a cause (BHT miss, weak pattern,
    /// interference, intrinsic noise). Only meaningful for PAg-structured
    /// predictors; other predictors yield no breakdown.
    pub miss_breakdown: bool,
    /// Run the Section 3.2 fetch-path model (direction predictor plus a
    /// target cache over every branch class) with this cache geometry.
    pub fetch: Option<TargetCacheSpec>,
}

impl MetricSet {
    /// Only the accuracy counters (the default).
    pub const ACCURACY: MetricSet = MetricSet { miss_breakdown: false, fetch: None };
}

/// One unit of simulation work: predictor × trace × options × metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// What to simulate.
    pub spec: PredictorSpec,
    /// What to simulate it on.
    pub trace: TraceKey,
    /// Context-switch options. A scheme whose `c` flag is set upgrades a
    /// no-switch `sim` to the paper's context-switch model (Table 3
    /// semantics).
    pub sim: SimConfig,
    /// Extra instrumented metrics to compute.
    pub metrics: MetricSet,
    /// Force the reference execution path (`predict` + `update` over the
    /// full event trace), bypassing the fast paths. Used by differential
    /// tests and by the repository benchmark's paper-warm reference
    /// check.
    pub reference_path: bool,
    /// Whether this job may share a walk or a replay batch with other
    /// jobs (on by default; sharing never changes results). A walk over
    /// the interned conditional stream is shared by the jobs with this
    /// job's trace and context-switch configuration. Disabling this
    /// runs the job in a walk of its own and rules out replay. Jobs
    /// forced onto the reference path, or that request instrumented
    /// metrics, never share.
    pub fuse: bool,
    /// Allow the engine to lower this job to the pattern-stream replay
    /// path (on by default; replay never changes results). Replay applies
    /// when the predictor is a catalog scheme whose first level maps to a
    /// [`crate::runner::StreamKey`], the job simulates no context
    /// switches, requests accuracy-only metrics and has `fuse` set: the
    /// engine then materializes the first-level stream once per (trace,
    /// key) and replays only the second level. Disabling this puts the
    /// job on the interned walk.
    pub replay: bool,
}

impl Job {
    /// A job measuring `config` on `benchmark`'s testing trace with no
    /// context switches and accuracy metrics only.
    #[must_use]
    pub fn scheme(config: SchemeConfig, benchmark: &'static Benchmark) -> Self {
        Job {
            spec: PredictorSpec::Scheme(config),
            trace: TraceKey::testing(benchmark),
            sim: SimConfig::no_context_switch(),
            metrics: MetricSet::ACCURACY,
            reference_path: false,
            fuse: true,
            replay: true,
        }
    }

    /// A job measuring the registered predictor `name` on `benchmark`'s
    /// testing trace.
    #[must_use]
    pub fn custom(name: impl Into<String>, benchmark: &'static Benchmark) -> Self {
        Job {
            spec: PredictorSpec::custom(name),
            trace: TraceKey::testing(benchmark),
            sim: SimConfig::no_context_switch(),
            metrics: MetricSet::ACCURACY,
            reference_path: false,
            fuse: true,
            replay: true,
        }
    }

    /// Replaces the simulation options.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Replaces the metric selection.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricSet) -> Self {
        self.metrics = metrics;
        self
    }

    /// Forces (or releases) the reference execution path.
    #[must_use]
    pub fn with_reference_path(mut self, reference: bool) -> Self {
        self.reference_path = reference;
        self
    }

    /// Permits (or forbids) sharing a walk or a replay batch ([`Job::fuse`]).
    #[must_use]
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Permits (or forbids) lowering this job to pattern-stream replay.
    #[must_use]
    pub fn with_replay(mut self, replay: bool) -> Self {
        self.replay = replay;
        self
    }

    /// The job's display label (see [`PredictorSpec::label`]).
    #[must_use]
    pub fn label(&self) -> String {
        self.spec.label()
    }

    /// The job as a wire-format JSON value (see
    /// [`Plan::to_json_string`] for the enclosing document).
    ///
    /// Scheme specs serialize as their Table 3 configuration string —
    /// the notation already round-trips through
    /// [`SchemeConfig`]'s `Display`/`FromStr` pair, so the wire format
    /// inherits a stable, human-auditable encoding instead of
    /// duplicating the scheme structure field by field.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spec = match &self.spec {
            PredictorSpec::Scheme(config) => {
                Json::object(vec![("scheme", Json::Str(config.to_string()))])
            }
            PredictorSpec::Custom(name) => Json::object(vec![("custom", Json::Str(name.clone()))]),
        };
        let data_set = match self.trace.data_set {
            DataSet::Training => "training",
            DataSet::Testing => "testing",
        };
        let context_switch = match &self.sim.context_switch {
            None => Json::Null,
            Some(cs) => Json::object(vec![
                ("interval_instructions", Json::UInt(cs.interval_instructions)),
                ("on_traps", Json::Bool(cs.on_traps)),
            ]),
        };
        let fetch = match self.metrics.fetch {
            None => Json::Null,
            Some(spec) => Json::object(vec![
                ("entries", Json::UInt(spec.entries as u64)),
                ("ways", Json::UInt(spec.ways as u64)),
            ]),
        };
        Json::object(vec![
            ("spec", spec),
            ("benchmark", Json::Str(self.trace.benchmark.name().to_owned())),
            ("data_set", Json::Str(data_set.to_owned())),
            ("context_switch", context_switch),
            (
                "metrics",
                Json::object(vec![
                    ("miss_breakdown", Json::Bool(self.metrics.miss_breakdown)),
                    ("fetch", fetch),
                ]),
            ),
            ("reference_path", Json::Bool(self.reference_path)),
            ("fuse", Json::Bool(self.fuse)),
            ("replay", Json::Bool(self.replay)),
        ])
    }

    /// Decodes a job from its [`Job::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Fails on missing or mistyped fields, an unknown benchmark name,
    /// a scheme string [`SchemeConfig`] cannot parse (its parser also
    /// applies [`SchemeConfig::check_geometry`]), or a fetch target cache
    /// whose geometry breaks [`tlabp_core::geometry::check_table`]. Custom names
    /// are *not* resolved against the predictor registry here — the
    /// plan stays pure data; the engine (or the service's admission
    /// check) resolves names at execution time.
    pub fn from_json(json: &Json) -> Result<Job, WireError> {
        let spec_json = json.field("spec")?;
        let spec = if let Some(text) = spec_json.get("scheme") {
            let text =
                text.as_str().ok_or_else(|| WireError::new("spec.scheme must be a string"))?;
            let config: SchemeConfig =
                text.parse().map_err(|e| WireError::new(format!("bad scheme {text:?}: {e}")))?;
            PredictorSpec::Scheme(config)
        } else if let Some(name) = spec_json.get("custom") {
            let name =
                name.as_str().ok_or_else(|| WireError::new("spec.custom must be a string"))?;
            PredictorSpec::custom(name)
        } else {
            return Err(WireError::new("spec needs a \"scheme\" or \"custom\" field"));
        };

        let bench_name = json
            .field("benchmark")?
            .as_str()
            .ok_or_else(|| WireError::new("benchmark must be a string"))?;
        let benchmark = Benchmark::by_name(bench_name)
            .ok_or_else(|| WireError::new(format!("unknown benchmark {bench_name:?}")))?;
        let data_set = match json.field("data_set")?.as_str() {
            Some("training") => DataSet::Training,
            Some("testing") => DataSet::Testing,
            _ => return Err(WireError::new("data_set must be \"training\" or \"testing\"")),
        };

        let cs_json = json.field("context_switch")?;
        let context_switch = if cs_json.is_null() {
            None
        } else {
            Some(ContextSwitchConfig {
                interval_instructions: cs_json
                    .field("interval_instructions")?
                    .as_u64()
                    .ok_or_else(|| WireError::new("interval_instructions must be an integer"))?,
                on_traps: cs_json
                    .field("on_traps")?
                    .as_bool()
                    .ok_or_else(|| WireError::new("on_traps must be a boolean"))?,
            })
        };

        let metrics_json = json.field("metrics")?;
        let fetch_json = metrics_json.field("fetch")?;
        let fetch = if fetch_json.is_null() {
            None
        } else {
            let entries = decode_usize(fetch_json.field("entries")?, "fetch.entries")?;
            let ways = decode_usize(fetch_json.field("ways")?, "fetch.ways")?;
            tlabp_core::geometry::check_table(entries, ways)
                .map_err(|e| WireError::new(format!("bad fetch target cache: {e}")))?;
            Some(TargetCacheSpec { entries, ways })
        };
        let metrics = MetricSet {
            miss_breakdown: metrics_json
                .field("miss_breakdown")?
                .as_bool()
                .ok_or_else(|| WireError::new("miss_breakdown must be a boolean"))?,
            fetch,
        };

        let flag = |key: &str| -> Result<bool, WireError> {
            json.field(key)?
                .as_bool()
                .ok_or_else(|| WireError::new(format!("{key} must be a boolean")))
        };
        Ok(Job {
            spec,
            trace: TraceKey { benchmark, data_set },
            sim: SimConfig { context_switch },
            metrics,
            reference_path: flag("reference_path")?,
            fuse: flag("fuse")?,
            replay: flag("replay")?,
        })
    }
}

fn decode_usize(json: &Json, what: &str) -> Result<usize, WireError> {
    json.as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| WireError::new(format!("{what} must be an unsigned integer")))
}

/// An ordered batch of jobs. Execution order never affects results — the
/// engine reassembles outcomes in plan order regardless of which worker
/// finishes first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    jobs: Vec<Job>,
}

impl Plan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        Plan::default()
    }

    /// Appends a job.
    pub fn push(&mut self, job: Job) {
        self.jobs.push(job);
    }

    /// The jobs, in plan order.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan has no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The plan as a wire-format JSON value:
    /// `{"version":1,"jobs":[...]}` with each job encoded by
    /// [`Job::to_json`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("version", Json::UInt(PLAN_WIRE_VERSION)),
            ("jobs", Json::Array(self.jobs.iter().map(Job::to_json).collect())),
        ])
    }

    /// The plan's canonical serialized form: the [`Plan::to_json`]
    /// document rendered compactly with fixed field order. Equal plans
    /// produce byte-identical strings, so this text doubles as the
    /// service's memoization key and the input of [`Plan::wire_hash`].
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Decodes a plan from its serialized form (or any
    /// whitespace-formatted equivalent — hand-edited plan files parse
    /// too; only the *canonical* rendering is hashed).
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a version other than
    /// [`PLAN_WIRE_VERSION`], or any job that does not decode
    /// ([`Job::from_json`]).
    pub fn from_json_str(text: &str) -> Result<Plan, WireError> {
        let json = Json::parse(text)?;
        let version = json
            .field("version")?
            .as_u64()
            .ok_or_else(|| WireError::new("version must be an integer"))?;
        if version != PLAN_WIRE_VERSION {
            return Err(WireError::new(format!(
                "unsupported plan version {version} (this build speaks {PLAN_WIRE_VERSION})"
            )));
        }
        let jobs = json
            .field("jobs")?
            .as_array()
            .ok_or_else(|| WireError::new("jobs must be an array"))?;
        jobs.iter().map(Job::from_json).collect::<Result<Plan, WireError>>()
    }

    /// A stable 64-bit digest of the plan: the artifact container's
    /// checksum ([`tlabp_trace::io::checksum`]) over the canonical
    /// serialized form. Equal plans hash equal on every build; the
    /// service memoizes responses and tags streamed [`ResultSet`]
    /// documents by this value.
    ///
    /// [`ResultSet`]: crate::engine::ResultSet
    #[must_use]
    pub fn wire_hash(&self) -> u64 {
        tlabp_trace::io::checksum(self.to_json_string().as_bytes())
    }

    /// [`Plan::wire_hash`] as the fixed-width hex string used in wire
    /// documents.
    #[must_use]
    pub fn wire_hash_hex(&self) -> String {
        format!("{:016x}", self.wire_hash())
    }

    /// The full-suite matrix: every configuration on every benchmark
    /// (configuration-major, benchmarks in [`Benchmark::ALL`] order), all
    /// with the same simulation options. [`ResultSet::suites`]
    /// reassembles the outcomes into one
    /// [`SuiteResult`](crate::metrics::SuiteResult) per configuration.
    ///
    /// [`ResultSet::suites`]: crate::engine::ResultSet::suites
    #[must_use]
    pub fn suites(configs: &[SchemeConfig], sim: &SimConfig) -> Plan {
        configs
            .iter()
            .flat_map(|&config| {
                Benchmark::ALL
                    .iter()
                    .map(move |benchmark| Job::scheme(config, benchmark).with_sim(*sim))
            })
            .collect()
    }
}

impl FromIterator<Job> for Plan {
    fn from_iter<I: IntoIterator<Item = Job>>(iter: I) -> Self {
        Plan { jobs: iter.into_iter().collect() }
    }
}

impl Extend<Job> for Plan {
    fn extend<I: IntoIterator<Item = Job>>(&mut self, iter: I) {
        self.jobs.extend(iter);
    }
}

impl IntoIterator for Plan {
    type Item = Job;
    type IntoIter = std::vec::IntoIter<Job>;

    fn into_iter(self) -> Self::IntoIter {
        self.jobs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_matrix_is_config_major() {
        let configs = [SchemeConfig::pag(8), SchemeConfig::gag(10)];
        let plan = Plan::suites(&configs, &SimConfig::no_context_switch());
        assert_eq!(plan.len(), 2 * Benchmark::ALL.len());
        let first = &plan.jobs()[0];
        assert_eq!(first.label(), configs[0].to_string());
        assert_eq!(first.trace.benchmark.name(), Benchmark::ALL[0].name());
        let second_block = &plan.jobs()[Benchmark::ALL.len()];
        assert_eq!(second_block.label(), configs[1].to_string());
    }

    #[test]
    fn job_builders_compose() {
        let benchmark = Benchmark::by_name("li").unwrap();
        let job = Job::scheme(SchemeConfig::pag(12), benchmark)
            .with_sim(SimConfig::paper_context_switch())
            .with_metrics(MetricSet { miss_breakdown: true, fetch: None })
            .with_reference_path(true);
        assert!(job.reference_path);
        assert!(job.metrics.miss_breakdown);
        assert!(job.sim.context_switch.is_some());

        let custom = Job::custom("gshare(12)", benchmark);
        assert_eq!(custom.label(), "gshare(12)");
        assert_eq!(custom.trace.data_set, DataSet::Testing);
    }

    #[test]
    fn wire_round_trip_preserves_every_job_field() {
        let li = Benchmark::by_name("li").unwrap();
        let plan: Plan = [
            Job::scheme(SchemeConfig::pag(12), li),
            Job::scheme(SchemeConfig::gag(10).with_context_switch(true), li),
            Job::scheme(
                SchemeConfig::pap(8).with_bht(tlabp_core::bht::BhtConfig::Ideal),
                Benchmark::by_name("eqntott").unwrap(),
            )
            .with_reference_path(true),
            Job::scheme(SchemeConfig::profiling(), li).with_sim(SimConfig::paper_context_switch()),
            Job::custom("gshare(12)", li).with_fusion(false).with_replay(false),
            Job::scheme(SchemeConfig::btfn(), li).with_metrics(MetricSet {
                miss_breakdown: true,
                fetch: Some(TargetCacheSpec { entries: 256, ways: 2 }),
            }),
            Job {
                trace: TraceKey { benchmark: li, data_set: DataSet::Training },
                ..Job::scheme(SchemeConfig::gsg(6), li)
            },
        ]
        .into_iter()
        .collect();

        let text = plan.to_json_string();
        let back = Plan::from_json_str(&text).expect("canonical form parses");
        assert_eq!(back, plan);
        assert_eq!(back.to_json_string(), text, "re-render is byte-identical");
        assert_eq!(back.wire_hash(), plan.wire_hash());
        assert_eq!(plan.wire_hash_hex().len(), 16);

        let other: Plan = [Job::scheme(SchemeConfig::pag(10), li)].into_iter().collect();
        assert_ne!(other.wire_hash(), plan.wire_hash(), "different plans hash differently");
    }

    #[test]
    fn wire_decode_rejects_bad_documents() {
        let li = Benchmark::by_name("li").unwrap();
        let good: Plan = [Job::scheme(SchemeConfig::pag(8), li)].into_iter().collect();
        let text = good.to_json_string();

        let wrong_version = text.replacen("\"version\":1", "\"version\":2", 1);
        let err = Plan::from_json_str(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        let bad_bench = text.replace("\"benchmark\":\"li\"", "\"benchmark\":\"no-such\"");
        assert!(Plan::from_json_str(&bad_bench).is_err());

        let bad_scheme = text.replace("PAg", "QQQ");
        assert!(Plan::from_json_str(&bad_scheme).is_err());

        assert!(Plan::from_json_str("{\"version\":1}").is_err(), "missing jobs");
        assert!(Plan::from_json_str("not json").is_err());
    }

    #[test]
    fn wire_decode_rejects_impossible_geometry() {
        let li = Benchmark::by_name("li").unwrap();
        let good: Plan = [Job::scheme(SchemeConfig::gag(12), li)].into_iter().collect();
        let text = good.to_json_string();

        let deep = text.replace("12-sr", "40-sr").replace("2^12", "2^40");
        let err = Plan::from_json_str(&deep).unwrap_err();
        assert!(err.to_string().contains("history length 40"), "{err}");

        // One 2^16-entry table per static branch of the ideal BHT.
        let wide = SchemeConfig::pap(16).with_bht(tlabp_core::bht::BhtConfig::Ideal);
        let text = [Job::scheme(wide, li)].into_iter().collect::<Plan>().to_json_string();
        assert!(text.contains("PAp(IBHT(inf,,16-sr),infxPHT(2^16,A2))"), "fixture: {text}");
        let err = Plan::from_json_str(&text).unwrap_err();
        let cap = tlabp_core::geometry::GeometryError::TooManyPatternEntries {
            tables: 1 << 13,
            history_bits: 16,
        };
        assert!(err.to_string().contains(&cap.to_string()), "{err}");

        let fetching: Plan = [Job::scheme(SchemeConfig::gag(12), li).with_metrics(MetricSet {
            miss_breakdown: false,
            fetch: Some(TargetCacheSpec::PAPER_DEFAULT),
        })]
        .into_iter()
        .collect();
        let text = fetching.to_json_string();
        assert!(Plan::from_json_str(&text).is_ok());
        for (entries, ways) in [("0", "0"), ("3", "2"), ("384", "4"), ("1099511627776", "1")] {
            let bad = text.replace(
                "\"entries\":512,\"ways\":4",
                &format!("\"entries\":{entries},\"ways\":{ways}"),
            );
            assert_ne!(bad, text, "the fixture names the default cache");
            let err = Plan::from_json_str(&bad).unwrap_err();
            assert!(err.to_string().contains("fetch target cache"), "{entries}x{ways}: {err}");
        }
    }

    #[test]
    fn plan_collects_and_extends() {
        let benchmark = Benchmark::by_name("li").unwrap();
        let mut plan: Plan = (6..9).map(|k| Job::scheme(SchemeConfig::gag(k), benchmark)).collect();
        plan.extend([Job::custom("x", benchmark)]);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert!(Plan::new().is_empty());
    }
}
