//! `import-replay`: external trace captures taken through the import
//! path and replayed in bounded memory.
//!
//! Set-up builds four seeded TLBE captures. Each joins a seeded choice of
//! the 18 (benchmark, data set) VM traces and a seeded Markov branch
//! segment, to the same event count: the seed varies the branch mix, not
//! the amount of work, so runs with different seeds stay comparable. One
//! operation takes one capture through import → artifact write → read
//! → decode → pattern-stream derivation → stream-section write →
//! streamed replay of a 64-member automaton batch (window capped at a
//! quarter of the stream), and checks it against the hydrated replay.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tlabp_core::automaton::Automaton;
use tlabp_core::config::SchemeConfig;
use tlabp_core::SimdMode;
use tlabp_sim::runner::SimConfig;
use tlabp_sim::{
    derive_pattern_stream, replay_stream_key, simulate, simulate_replay_transposed,
    simulate_replay_transposed_streamed, SimResult, StreamCursor, StreamWindow,
};
use tlabp_trace::import::{etrace_fingerprint, import_artifacts, read_etrace, write_etrace};
use tlabp_trace::io::{
    read_artifacts, write_artifacts_chunked, write_file_atomic, DEFAULT_CHUNK_BYTES,
};
use tlabp_trace::{BranchRecord, Trace};
use tlabp_workloads::{Benchmark, DataSet};

use crate::spans::{Tracer, OP, PROBE, SETUP};
use crate::{heap, Ctx, Measured, Rng, SETUP_REPEATS};

const CAPTURES: usize = 4;
/// Events in every capture.
const CAPTURE_EVENTS: usize = 2_000_000;
/// The shortest Markov segment a capture ends with.
const MIN_MARKOV_EVENTS: usize = 250_000;
/// Replay batch width: every Figure 5 automaton at PAg widths 12 down
/// to 5, folded onto the one PAg(12) stream.
const MEMBERS: usize = 64;
/// Encoded chunk budget of the stream section: small enough that the
/// section spans dozens of chunks, so the bounded window cycles.
const STREAM_CHUNK_BYTES: usize = 256 << 10;

/// Appends a seeded Markov branch segment of `events` events: a seeded
/// number of static branches executed round-robin, each keeping its
/// direction with a seeded persistence.
fn push_markov(rng: &mut Rng, capture: &mut Trace, events: usize) {
    let branches = rng.range(8, 256) as usize;
    let persistence = 0.5 + 0.49 * rng.unit();
    let mut state: Vec<bool> = (0..branches).map(|_| rng.below(2) == 1).collect();
    let first = capture.total_instructions();
    for i in 0..events {
        let slot = i % branches;
        let pc = 0x4000_0000 + 16 * slot as u64;
        let instret = first + 4 * (i as u64 + 1);
        capture.push(BranchRecord::conditional(pc, state[slot], pc + 64, instret));
        if rng.unit() >= persistence {
            state[slot] = !state[slot];
        }
    }
}

/// Builds the seeded captures. Each walks a seeded order of the 18
/// (benchmark, data set) VM traces, joins every trace that still fits
/// its VM share, and fills the rest with a Markov segment, so every
/// capture has exactly [`CAPTURE_EVENTS`] events.
fn build_captures(seed: u64, tracer: &Tracer) -> Vec<Vec<u8>> {
    let traces: Vec<Trace> = Benchmark::ALL
        .iter()
        .flat_map(|b| [(b, DataSet::Training), (b, DataSet::Testing)])
        .map(|(benchmark, set)| {
            let trace = tracer.span("workloads.trace", || benchmark.trace(set));
            tracer.count("workloads.events", trace.len() as f64);
            trace
        })
        .collect();
    let mut rng = Rng::new(seed);
    (0..CAPTURES)
        .map(|_| {
            let capture = tracer.span("bench.inputs", || {
                let mut order: Vec<usize> = (0..traces.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let mut capture = Trace::with_capacity(CAPTURE_EVENTS);
                for index in order {
                    if capture.len() + traces[index].len() <= CAPTURE_EVENTS - MIN_MARKOV_EVENTS {
                        capture.append_shifted(&traces[index]);
                    }
                }
                let fill = CAPTURE_EVENTS - capture.len();
                push_markov(&mut rng, &mut capture, fill);
                capture
            });
            tracer.span("trace.import.encode", || write_etrace(&capture))
        })
        .collect()
}

/// The replay batch: PAg at widths 12 down to 5 under every Figure 5
/// automaton, cycled to [`MEMBERS`].
fn members() -> Vec<SchemeConfig> {
    (0..MEMBERS)
        .map(|i| {
            let width = 12 - (i / Automaton::FIGURE5.len()) as u32 % 8;
            SchemeConfig::pag(width)
                .with_automaton(Automaton::FIGURE5[i % Automaton::FIGURE5.len()])
        })
        .collect()
}

/// What one pass of the pipeline produced.
struct Pipeline {
    fingerprint: u64,
    streamed: Option<Vec<SimResult>>,
    hydrated: Option<Vec<SimResult>>,
}

/// The fixed inputs of every pass.
struct Replay {
    dir: PathBuf,
    configs: Vec<SchemeConfig>,
    window: Arc<StreamWindow>,
}

impl Replay {
    /// One operation: the whole import-and-replay pipeline on one
    /// capture. Buffers are dropped as soon as the next stage no longer
    /// needs them, so the heap peak is the library's, not the caller's.
    fn run(&self, capture: &[u8], tracer: &Tracer) -> Result<Pipeline, String> {
        let (fingerprint, artifact) = tracer
            .span("trace.import.artifact", || import_artifacts(capture, DEFAULT_CHUNK_BYTES))
            .map_err(|e| format!("import failed: {e}"))?;
        let path = self.dir.join(format!("import-{fingerprint:016x}.tlabp"));
        write(&path, &artifact, tracer)?;
        drop(artifact);
        let bytes = tracer
            .span("trace.io.read", || std::fs::read(&path))
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let bundle = tracer
            .span("trace.io.decode", || read_artifacts(&bytes))
            .map_err(|e| format!("the imported artifact does not decode: {e}"))?;
        tracer.count("trace.io.decode_bytes", bytes.len() as f64);
        drop(bytes);
        let interned = bundle.interned.as_ref().ok_or("the artifact has no interned form")?;
        let key = replay_stream_key(SchemeConfig::pag(12)).expect("PAg replays");
        let stream = tracer.span("sim.runner.derive", || derive_pattern_stream(interned, key));
        tracer.count("sim.runner.derive_events", stream.len() as f64);
        drop(bundle);
        let section = tracer.span("trace.io.encode", || {
            let sections = [(key.to_bytes(), &stream)];
            write_artifacts_chunked(fingerprint, None, None, None, &sections, STREAM_CHUNK_BYTES)
        });
        tracer.count("trace.io.encode_bytes", section.len() as f64);
        let stream_path = self.dir.join(format!("stream-{fingerprint:016x}.tlabp"));
        write(&stream_path, &section, tracer)?;
        drop(section);

        let predictors: Vec<_> =
            self.configs.iter().map(|c| c.build_any().expect("PAg builds")).collect();
        let mode = SimdMode::from_env();
        let streamed = tracer.span("sim.stream.replay", || {
            let mut cursor = StreamCursor::open(
                &stream_path,
                &key.to_bytes(),
                stream.bytes() / 4,
                &self.window,
            )?;
            tracer.count("sim.stream.chunks", cursor.chunks() as f64);
            simulate_replay_transposed_streamed(&predictors, &mut cursor, mode)?.ok()
        });
        let hydrated = tracer.span("sim.runner.replay_kernel", || {
            simulate_replay_transposed(&predictors, &stream, mode)
        });
        tracer.count("sim.runner.replay_kernel_preds", (stream.len() * predictors.len()) as f64);
        Ok(Pipeline { fingerprint, streamed, hydrated })
    }
}

fn write(path: &Path, bytes: &[u8], tracer: &Tracer) -> Result<(), String> {
    tracer
        .span("trace.io.write", || write_file_atomic(path, bytes))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Why a pass's output is wrong, if it is. With `reference`, replay
/// member 0 is also checked against the reference simulator on the
/// decoded capture, outside the heap peak: the decoded trace is the
/// check's, not the pipeline's.
fn problems(run: &Pipeline, capture: &[u8], reference: Option<&SchemeConfig>) -> Vec<&'static str> {
    let mut problems = Vec::new();
    if run.fingerprint != etrace_fingerprint(capture) {
        problems.push("import fingerprint differs from etrace_fingerprint");
    }
    if run.streamed.is_none() || run.streamed != run.hydrated {
        problems.push("streamed replay differs from the hydrated replay");
    }
    if let Some(config) = reference {
        let expected = heap::unmeasured(|| {
            let trace = read_etrace(capture).ok()?;
            let mut predictor = config.build().expect("PAg builds");
            Some(simulate(&mut *predictor, &trace, &SimConfig::no_context_switch()))
        });
        if expected.as_ref() != run.hydrated.as_ref().and_then(|h| h.first()) {
            problems.push("replay member 0 differs from the reference simulator");
        }
    }
    problems
}

pub fn import_replay(ctx: &Ctx<'_>) -> Result<Measured, String> {
    let tracer = ctx.tracer;
    let mut measured = Measured::default();
    let mut captures = Vec::new();
    for round in 0..SETUP_REPEATS {
        let start = Instant::now();
        captures = tracer.root(SETUP, round, || build_captures(ctx.seed, tracer));
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }
    let replay =
        Replay { dir: ctx.dir.join("imports"), configs: members(), window: Arc::default() };
    std::fs::create_dir_all(&replay.dir)
        .map_err(|e| format!("cannot create {}: {e}", replay.dir.display()))?;

    let deadline = ctx.start_measuring();
    let mut request = 0;
    while Instant::now() < deadline {
        let capture = &captures[request % CAPTURES];
        // Member 0 is checked against the reference simulator on each
        // capture's first pass.
        let first_pass = request < CAPTURES;
        request += 1;
        let start = Instant::now();
        let result = tracer.root(OP, request as u64, || replay.run(capture, tracer));
        let latency = start.elapsed().as_secs_f64();
        let problems: Vec<String> = match result {
            Ok(run) => problems(&run, capture, first_pass.then_some(&replay.configs[0]))
                .into_iter()
                .map(str::to_owned)
                .collect(),
            Err(message) => vec![message],
        };
        for problem in &problems {
            measured.failures.push(format!("operation {request}: {problem}"));
        }
        let ok = problems.is_empty();
        measured.ops.record(ok.then_some(latency));
        if ok {
            measured.work += CAPTURE_EVENTS as f64;
            measured.work_s += latency;
        }
        for entry in std::fs::read_dir(&replay.dir).into_iter().flatten().flatten() {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    measured.end_measuring();

    if tracer.enabled() {
        let capture_bytes: usize = captures.iter().map(Vec::len).sum();
        tracer.count("trace.import.capture_bytes", capture_bytes as f64);
        for (request, capture) in captures.iter().enumerate() {
            tracer.root(PROBE, request as u64, || {
                tracer.span("trace.import.decode", || read_etrace(capture).is_ok())
            });
        }
        measured.layers.push(("sim.stream.window_peak_bytes", replay.window.peak() as f64));
        let streamed = tracer.total("sim.stream.replay");
        let hydrated = tracer.total("sim.runner.replay_kernel");
        measured.layers.push(("sim.stream.wait", (streamed - hydrated) / streamed));
    }
    Ok(measured)
}
