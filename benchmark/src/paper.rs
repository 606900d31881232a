//! The paper-suite workloads: `paper-warm` (the union of every planned
//! paper artifact on a warm in-memory store) and `cold-start` (the same
//! plan's trace forms built from an empty disk cache, then reloaded by a
//! restarted store).

use std::path::Path;
use std::time::Instant;

use tlabp_core::automaton::Automaton;
use tlabp_core::config::SchemeConfig;
use tlabp_core::registry;
use tlabp_core::schemes::Gshare;
use tlabp_core::SimdMode;
use tlabp_sim::plan::{Job, MetricSet, Plan, PredictorSpec, TraceKey};
use tlabp_sim::runner::FoldKey;
use tlabp_sim::{
    derive_pattern_stream, prefetch_on, replay_stream_key, simulate_replay_transposed, CacheBytes,
    JobOutcome, ResultSet, Session, StreamKey, SweepPool, TraceStore,
};
use tlabp_trace::io::{
    read_artifacts, write_artifacts_chunked, write_file_atomic, DEFAULT_CHUNK_BYTES,
};
use tlabp_trace::InternedConds;
use tlabp_workloads::DataSet;

use crate::spans::{Tracer, OP, PROBE, SETUP};
use crate::{fnv1a, heap, Ctx, Measured, SETUP_REPEATS};

/// The paper artifacts' plans, as written by `experiments plan
/// <artifact>`, with the wire hash each must decode to.
const PLAN_FIXTURES: [(&str, &str, &str); 11] = [
    ("fig5", include_str!("../plans/fig5.plan.json"), "32166a4cc8bb3985"),
    ("fig6", include_str!("../plans/fig6.plan.json"), "4a9e5ebe7f84be81"),
    ("fig7", include_str!("../plans/fig7.plan.json"), "88c4901ee02daa64"),
    ("fig8", include_str!("../plans/fig8.plan.json"), "2db89f063406205d"),
    ("fig9", include_str!("../plans/fig9.plan.json"), "2478fa568367127a"),
    ("fig10", include_str!("../plans/fig10.plan.json"), "d36b2f5a7027c2a2"),
    ("fig11", include_str!("../plans/fig11.plan.json"), "704ddc9b9562375a"),
    ("extensions", include_str!("../plans/extensions.plan.json"), "28b66788c712e452"),
    ("analysis", include_str!("../plans/analysis.plan.json"), "7ecb847a29688a81"),
    ("fetch", include_str!("../plans/fetch.plan.json"), "e2909b91f9d55afb"),
    ("grid", include_str!("../plans/grid.plan.json"), "c14f6554c619c929"),
];

/// FNV-1a digest of the union plan's canonical result document. Pins
/// every simulated statistic of the paper suite across commits; the
/// `paper-warm` workload re-derives it against the reference path on
/// every run.
const GOLDEN_RESULTS_DIGEST: u64 = 0xc4bc_4f1f_0f79_d204;

/// The union of every planned paper artifact, in artifact order.
///
/// # Errors
///
/// Fails when a fixture does not decode or decodes to another plan than
/// the one recorded.
fn paper_plan() -> Result<Plan, String> {
    let mut plan = Plan::new();
    for (name, text, hash) in PLAN_FIXTURES {
        let part = Plan::from_json_str(text.trim_end())
            .map_err(|e| format!("plans/{name}.plan.json does not decode: {e}"))?;
        if part.wire_hash_hex() != hash {
            return Err(format!(
                "plans/{name}.plan.json hashes to {}, expected {hash}",
                part.wire_hash_hex()
            ));
        }
        plan.extend(part);
    }
    Ok(plan)
}

/// Registers the predictors outside the Table 3 catalog that the
/// `extensions` plan names, as `experiments` does.
fn register_custom_predictors() {
    for bits in [12u32, 16] {
        registry::register(&format!("gshare({bits})"), move || {
            Box::new(Gshare::new(bits, Automaton::A2))
        });
    }
}

const REPLAY: &str = "sim.engine.replay";
/// Jobs the engine skips without running: a trained scheme on a
/// benchmark with no training set (the paper's "NA" cells). Their
/// sub-plan costs next to nothing and is not reported as a layer.
const SKIP: &str = "sim.engine.skip";

/// The execution path a job lowers to, read from its public fields with
/// the engine's lowering rules.
fn path_of(job: &Job) -> &'static str {
    let config = match &job.spec {
        PredictorSpec::Custom(_) => return "sim.engine.dyn",
        PredictorSpec::Scheme(config) => *config,
    };
    if config.needs_training() && !job.trace.benchmark.has_training_set() {
        SKIP
    } else if job.metrics != MetricSet::ACCURACY {
        "sim.engine.instrumented"
    } else if job.sim.context_switch.is_some() || config.context_switch() {
        "sim.engine.full_trace"
    } else if job.replay && job.fuse && replay_stream_key(config).is_some() {
        REPLAY
    } else {
        "sim.engine.fused"
    }
}

/// A plan split into one sub-plan per execution path, remembering each
/// job's position in the whole.
struct PathSplit {
    parts: Vec<(&'static str, Plan, Vec<usize>)>,
}

impl PathSplit {
    fn new(plan: &Plan) -> PathSplit {
        let mut parts: Vec<(&'static str, Plan, Vec<usize>)> = Vec::new();
        for (index, job) in plan.jobs().iter().enumerate() {
            let path = path_of(job);
            let slot = match parts.iter().position(|(p, _, _)| *p == path) {
                Some(slot) => slot,
                None => {
                    parts.push((path, Plan::new(), Vec::new()));
                    parts.len() - 1
                }
            };
            parts[slot].1.push(job.clone());
            parts[slot].2.push(index);
        }
        PathSplit { parts }
    }

    /// Runs every sub-plan with a span around its submit (lowering,
    /// prefetch barrier, partition) and one around its drain, then
    /// reassembles the results in plan order.
    fn run(&self, plan: &Plan, session: &Session<'_>, tracer: &Tracer) -> ResultSet {
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; plan.len()];
        for (path, part, indices) in &self.parts {
            let stream = tracer.span("sim.engine.submit", || session.submit(part));
            let results = tracer.span(path, || stream.into_result_set());
            for (&index, outcome) in indices.iter().zip(results.outcomes()) {
                outcomes[index] = Some(outcome.clone());
            }
        }
        let outcomes = outcomes.into_iter().map(|o| o.expect("every job has a path")).collect();
        ResultSet::from_outcomes(plan, outcomes)
    }
}

fn predictions(results: &ResultSet) -> u64 {
    results.outcomes().filter_map(|o| o.metrics()).map(|m| m.sim.predictions).sum()
}

/// `(predictions, correct, context_switches)` of a measured job.
fn counters(outcome: &JobOutcome) -> Option<(u64, u64, u64)> {
    outcome.metrics().map(|m| (m.sim.predictions, m.sim.correct, m.sim.context_switches))
}

/// Jobs whose counters differ from a reference-path run of the plan.
fn reference_mismatches(plan: &Plan, results: &ResultSet, store: &TraceStore) -> Vec<String> {
    let reference_plan: Plan =
        plan.jobs().iter().map(|job| job.clone().with_reference_path(true)).collect();
    let reference = Session::new(store.clone()).run(&reference_plan);
    plan.jobs()
        .iter()
        .enumerate()
        .filter(|&(index, _)| {
            counters(results.outcome(index)) != counters(reference.outcome(index))
        })
        .map(|(index, job)| {
            format!(
                "job {index} ({} on {}) differs from the reference path",
                job.label(),
                job.trace.benchmark.name()
            )
        })
        .collect()
}

/// The plan's replay jobs grouped as the engine batches them: by trace
/// and first-level fold class, so each group replays one stream.
fn replay_groups(plan: &Plan) -> Vec<(TraceKey, Vec<SchemeConfig>)> {
    let mut groups: Vec<(TraceKey, FoldKey, Vec<SchemeConfig>)> = Vec::new();
    for job in plan.jobs().iter().filter(|job| path_of(job) == REPLAY) {
        let PredictorSpec::Scheme(config) = job.spec else { continue };
        let fold = replay_stream_key(config).expect("replay jobs have a stream key").fold_key();
        match groups.iter_mut().find(|(trace, f, _)| *trace == job.trace && *f == fold) {
            Some(group) => group.2.push(config),
            None => groups.push((job.trace, fold, vec![config])),
        }
    }
    groups.into_iter().map(|(trace, _, configs)| (trace, configs)).collect()
}

/// The stream a replay group walks: its widest member's.
fn widest_key(configs: &[SchemeConfig]) -> StreamKey {
    configs
        .iter()
        .filter_map(|config| replay_stream_key(*config))
        .max_by_key(|key| key.history_bits())
        .expect("replay groups are non-empty")
}

/// Every trace a plan's prefetch builds (the measured traces of the jobs
/// that run plus the training traces of profiled schemes), each with the
/// streams its replay groups walk.
fn ingest_keys(plan: &Plan) -> Vec<(TraceKey, Vec<StreamKey>)> {
    let mut traces: Vec<(TraceKey, Vec<StreamKey>)> = Vec::new();
    let mut add = |trace: TraceKey| {
        if !traces.iter().any(|(t, _)| *t == trace) {
            traces.push((trace, Vec::new()));
        }
    };
    for job in plan.jobs().iter().filter(|job| path_of(job) != SKIP) {
        add(job.trace);
        if let PredictorSpec::Scheme(config) = job.spec {
            if config.needs_training() {
                add(TraceKey { data_set: DataSet::Training, ..job.trace });
            }
        }
    }
    for (trace, configs) in replay_groups(plan) {
        let slot = traces.iter_mut().find(|(t, _)| *t == trace).expect("replay traces are listed");
        slot.1.push(widest_key(&configs));
    }
    traces
}

/// A serial replica of the plan's prefetch, one public layer call at a
/// time, so the traced run can attribute the parallel pass's work to
/// layers. With `dir`, each trace's forms are also encoded, written,
/// read back and decoded, as the disk tier does. Returns the summed
/// busy seconds of the layers the prefetch itself runs (the ones before
/// any read-back).
fn ingest_replica(plan: &Plan, dir: Option<&Path>, tracer: &Tracer) -> f64 {
    let before = busy(tracer, INGEST_LAYERS);
    for (request, (trace_key, keys)) in ingest_keys(plan).into_iter().enumerate() {
        let TraceKey { benchmark, data_set: set } = trace_key;
        tracer.root(PROBE, request as u64, || {
            let trace = tracer.span("workloads.trace", || benchmark.trace(set));
            tracer.count("workloads.events", trace.len() as f64);
            let packed = tracer.span("trace.pack", || trace.pack_conditionals());
            let interned = tracer.span("trace.intern", || InternedConds::from_packed(&packed));
            let streams: Vec<_> = keys
                .iter()
                .map(|&key| {
                    let stream =
                        tracer.span("sim.runner.derive", || derive_pattern_stream(&interned, key));
                    tracer.count("sim.runner.derive_events", stream.len() as f64);
                    (key.to_bytes(), stream)
                })
                .collect();
            let Some(dir) = dir else { return };
            let refs: Vec<_> = streams.iter().map(|(key, s)| (key.clone(), s)).collect();
            let bytes = tracer.span("trace.io.encode", || {
                write_artifacts_chunked(
                    benchmark.fingerprint(set),
                    Some(&trace),
                    Some(&packed),
                    Some(&interned),
                    &refs,
                    DEFAULT_CHUNK_BYTES,
                )
            });
            tracer.count("trace.io.encode_bytes", bytes.len() as f64);
            let path = dir.join(format!("{}-{set:?}.tlabp", benchmark.name()));
            tracer.span("trace.io.write", || write_file_atomic(&path, &bytes)).ok();
            let read = tracer.span("trace.io.read", || std::fs::read(&path)).unwrap_or_default();
            let bundle = tracer.span("trace.io.decode", || read_artifacts(&read));
            if bundle.is_ok() {
                tracer.count("trace.io.decode_bytes", read.len() as f64);
            }
        });
    }
    busy(tracer, INGEST_LAYERS) - before
}

/// The layers a prefetch pass runs on a cold store.
const INGEST_LAYERS: &[&str] = &[
    "workloads.trace",
    "trace.pack",
    "trace.intern",
    "sim.runner.derive",
    "trace.io.encode",
    "trace.io.write",
];

fn busy(tracer: &Tracer, layers: &[&str]) -> f64 {
    layers.iter().map(|layer| tracer.total(layer)).sum()
}

fn cache_bytes_layers(bytes: CacheBytes) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.suite.bytes.packed", bytes.packed as f64),
        ("sim.suite.bytes.interned", bytes.interned as f64),
        ("sim.suite.bytes.streams", bytes.streams as f64),
        ("sim.suite.bytes.disk", bytes.disk as f64),
    ]
}

/// `paper-warm`: one caller runs the union paper plan again and again
/// through `Session::run` on a warm in-memory store.
pub fn paper_warm(ctx: &Ctx<'_>) -> Result<Measured, String> {
    let tracer = ctx.tracer;
    let plan = paper_plan()?;
    register_custom_predictors();
    let pool = SweepPool::global();
    let mut measured = Measured::default();

    let mut store = TraceStore::new();
    for round in 0..SETUP_REPEATS {
        store = TraceStore::new();
        let start = Instant::now();
        tracer.root(SETUP, round, || {
            tracer.span("sim.suite.prefetch", || prefetch_on(pool, &plan, &store));
        });
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }

    // Oracles, outside every timed region: the first warm-up run must
    // match the reference path job for job and the recorded digest.
    let session = Session::new(store.clone());
    let golden = session.run(&plan);
    let golden_json = golden.to_json_string();
    let mismatches = reference_mismatches(&plan, &golden, &store);
    let golden_ok = mismatches.is_empty() && digest_matches(&golden_json, &mut measured.failures);
    measured.failures.extend(mismatches);
    let _ = session.run(&plan);
    let plan_predictions = predictions(&golden) as f64;

    let split = PathSplit::new(&plan);
    let deadline = ctx.start_measuring();
    let mut request = 0;
    while Instant::now() < deadline {
        request += 1;
        let start = Instant::now();
        let results = tracer.root(OP, request, || {
            if tracer.enabled() {
                split.run(&plan, &session, tracer)
            } else {
                session.run(&plan)
            }
        });
        let latency = start.elapsed().as_secs_f64();
        let ok = golden_ok && results.to_json_string() == golden_json;
        if !ok {
            measured
                .failures
                .push(format!("operation {request}: results differ from the golden run"));
        }
        measured.ops.record(ok.then_some(latency));
        if ok {
            measured.work += plan_predictions;
            measured.work_s += latency;
        }
    }
    measured.end_measuring();

    if tracer.enabled() {
        tracer.count("sim.engine.preds", plan_predictions * measured.ops.attempted() as f64);
        // The pool time the replay sub-plan occupied, against the kernel
        // time of the same batches run alone: the rest is scheduling,
        // stream fetch, predictor construction, scatter and idle workers.
        let engine_replay = tracer.total("sim.engine.replay") / measured.ops.attempted() as f64
            * pool.threads() as f64;
        let kernel = replay_kernel_probe(&plan, &store, tracer);
        measured.layers.push(("sim.engine.replay_overhead", 1.0 - kernel / engine_replay));
        let prefetch = tracer.total("sim.suite.prefetch") / SETUP_REPEATS as f64;
        let serial = ingest_replica(&plan, None, tracer);
        measured
            .layers
            .push(("sim.suite.parallel_efficiency", serial / (prefetch * pool.threads() as f64)));
        measured.layers.extend(cache_bytes_layers(store.cache_bytes()));
    }
    Ok(measured)
}

/// Whether a result document of the paper plan matches the recorded
/// digest; a mismatch is logged to `failures`.
fn digest_matches(results_json: &str, failures: &mut Vec<String>) -> bool {
    let digest = fnv1a(results_json.bytes());
    if digest != GOLDEN_RESULTS_DIGEST {
        failures.push(format!(
            "paper-suite results digest {digest:016x} differs from the recorded \
             {GOLDEN_RESULTS_DIGEST:016x}"
        ));
    }
    digest == GOLDEN_RESULTS_DIGEST
}

/// Times the replay kernel alone on the store's cached streams, one call
/// per replay group of the plan, and returns the seconds it took.
fn replay_kernel_probe(plan: &Plan, store: &TraceStore, tracer: &Tracer) -> f64 {
    let before = tracer.total("sim.runner.replay_kernel");
    for (request, (trace, configs)) in replay_groups(plan).into_iter().enumerate() {
        let stream =
            store.get_pattern_stream(trace.benchmark, trace.data_set, widest_key(&configs));
        let predictors: Vec<_> = configs
            .iter()
            .map(|config| {
                if config.needs_training() {
                    config.build_any_trained(&store.get(trace.benchmark, DataSet::Training))
                } else {
                    config.build_any().expect("untrained schemes build")
                }
            })
            .collect();
        tracer.root(PROBE, request as u64, || {
            tracer.span("sim.runner.replay_kernel", || {
                simulate_replay_transposed(&predictors, &stream, SimdMode::from_env())
            })
        });
        tracer.count("sim.runner.replay_kernel_preds", (stream.len() * predictors.len()) as f64);
    }
    tracer.total("sim.runner.replay_kernel") - before
}

/// `cold-start`: set-up fills an empty cache directory with every trace
/// form the paper plan needs (`prefetch_on` on a fresh disk-backed
/// store); each operation opens a new store on that directory and
/// prefetches again, as a restarted process would.
pub fn cold_start(ctx: &Ctx<'_>) -> Result<Measured, String> {
    let tracer = ctx.tracer;
    let plan = paper_plan()?;
    register_custom_predictors();
    let pool = SweepPool::global();
    let mut measured = Measured::default();

    let mut dir = ctx.dir.join("cache-0");
    let mut cold = TraceStore::new();
    for round in 0..SETUP_REPEATS {
        let _ = std::fs::remove_dir_all(&dir);
        dir = ctx.dir.join(format!("cache-{round}"));
        cold = TraceStore::with_cache_dir(&dir);
        let start = Instant::now();
        tracer.root(SETUP, round, || {
            tracer.span("sim.suite.prefetch", || prefetch_on(pool, &plan, &cold));
        });
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }
    let cold_bytes = cold.cache_bytes();
    let keys = ingest_keys(&plan);
    let cold_forms = Forms::of(&cold, &keys);
    drop(cold);

    let deadline = ctx.start_measuring();
    let mut request = 0;
    while Instant::now() < deadline {
        request += 1;
        let store = TraceStore::with_cache_dir(&dir);
        let start = Instant::now();
        tracer.root(OP, request, || {
            tracer.span("sim.suite.prefetch", || prefetch_on(pool, &plan, &store));
        });
        let latency = start.elapsed().as_secs_f64();
        let forms = Forms::of(&store, &keys);
        let mut ok = forms == cold_forms;
        if !ok {
            measured.failures.push(format!(
                "restart {request} holds {:?}, the cold store {:?}",
                forms.bytes, cold_forms.bytes
            ));
        }
        // The restarted store must also serve the plan bit-identically,
        // checked on the first and the last restart. The run simulates
        // the whole suite, so its memory is kept out of the restart's
        // heap peak (the store goes with it).
        if ok && (request == 1 || Instant::now() >= deadline) {
            ok = heap::unmeasured(|| {
                let json = Session::new(store).run(&plan).to_json_string();
                digest_matches(&json, &mut measured.failures)
            });
        }
        measured.ops.record(ok.then_some(latency));
        if ok {
            measured.work += cold_bytes.disk as f64;
            measured.work_s += latency;
        }
    }
    measured.end_measuring();

    if tracer.enabled() {
        let serial = ingest_replica(&plan, Some(&ctx.dir.join("replica")), tracer);
        let cold_s = measured.setup_s.iter().sum::<f64>() / SETUP_REPEATS as f64;
        measured
            .layers
            .push(("sim.suite.parallel_efficiency", serial / (cold_s * pool.threads() as f64)));
        measured.layers.extend(cache_bytes_layers(cold_bytes));
    }
    Ok(measured)
}

/// What a store holds, reduced to what a restart must reproduce: its
/// packed, interned and on-disk bytes and a digest of every pattern
/// stream the plan walks. Streams are digested by content because
/// `cache_bytes` counts their allocated capacity, which differs between
/// a derived and a decoded stream.
#[derive(Debug, PartialEq)]
struct Forms {
    bytes: (usize, usize, usize),
    streams: Vec<Option<u64>>,
}

impl Forms {
    fn of(store: &TraceStore, keys: &[(TraceKey, Vec<StreamKey>)]) -> Forms {
        let bytes = store.cache_bytes();
        let streams = keys
            .iter()
            .flat_map(|(trace, stream_keys)| stream_keys.iter().map(move |&key| (trace, key)))
            .map(|(trace, key)| {
                let stream = store.peek_pattern_stream(trace.benchmark, trace.data_set, key)?;
                Some(fnv1a::<u32>(stream.events().iter().chain(stream.lanes()).copied()))
            })
            .collect();
        Forms { bytes: (bytes.packed, bytes.interned, bytes.disk), streams }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classifier skips exactly the jobs the engine skips: Figure
    /// 11's trained schemes on the benchmarks without a training set.
    #[test]
    fn skipped_jobs_match_the_engine() {
        let (_, text, _) = PLAN_FIXTURES.iter().find(|(name, _, _)| *name == "fig11").unwrap();
        let plan = Plan::from_json_str(text.trim_end()).expect("the fixture decodes");
        let results = Session::new(TraceStore::new()).run(&plan);
        let engine: Vec<bool> =
            results.outcomes().map(|o| matches!(o, JobOutcome::Skipped { .. })).collect();
        let classified: Vec<bool> = plan.jobs().iter().map(|job| path_of(job) == SKIP).collect();
        assert_eq!(classified, engine);
        assert!(classified.contains(&true) && classified.contains(&false));
    }
}
