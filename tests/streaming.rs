//! Differential tests pinning the chunked streaming trace pipeline to
//! the in-memory paths.
//!
//! The streaming tier replaces a hydrated [`PatternStream`] walk with a
//! chunk-by-chunk walk over a persisted v3 artifact
//! ([`tlabp::sim::StreamCursor`] feeding
//! [`simulate_replay_transposed_streamed`]), with a decode thread
//! reading ahead behind a bounded resident-byte window. None of that may
//! change a single prediction: for every replay-eligible scheme
//! structure crossed with every automaton, on every trace, under both
//! kernel bodies, the streamed walk must reproduce the in-memory walk bit
//! for bit — and on a stream several times larger than the window, the
//! peak resident bytes must stay under the cap while doing so.

use std::sync::Arc;

use tlabp::core::automaton::Automaton;
use tlabp::core::config::SchemeConfig;
use tlabp::core::{BhtConfig, SimdMode};
use tlabp::sim::runner::{derive_pattern_stream, replay_stream_key, StreamKey};
use tlabp::sim::{
    simulate_replay_transposed, simulate_replay_transposed_streamed, StreamCursor, StreamWindow,
    TraceStore,
};
use tlabp::trace::io::write_artifacts_chunked;
use tlabp::trace::synth::{BiasedCoins, CorrelatedBranches, Correlation, LoopNest, MarkovBranches};
use tlabp::trace::{InternedConds, PatternStream, Trace};
use tlabp::workloads::{Benchmark, DataSet};

/// Both bodies of the transposed replay kernel.
const KERNELS: [SimdMode; 2] = [SimdMode::Auto, SimdMode::Scalar];

/// The replay-eligible scheme structures of the differential suite:
/// global register, ideal and cache BHTs, and the per-address (laned)
/// second level.
fn structures() -> Vec<SchemeConfig> {
    vec![
        SchemeConfig::gag(8),
        SchemeConfig::pag(8),
        SchemeConfig::pag(10).with_bht(BhtConfig::Cache { entries: 256, ways: 1 }),
        SchemeConfig::pag(12).with_bht(BhtConfig::Ideal),
        SchemeConfig::pap(6),
    ]
}

fn traces() -> Vec<(&'static str, Trace)> {
    vec![
        ("loop_nest", LoopNest::new(&[40, 11, 3]).generate()),
        ("biased_coins", BiasedCoins::uniform(24, 0.7, 400, 7).generate()),
        ("correlated", CorrelatedBranches::new(Correlation::Xor, 2000, 0.5, 11).generate()),
        ("markov", MarkovBranches::new(16, 0.85, 3000, 23).generate()),
        ("li_testing", Benchmark::by_name("li").expect("li exists").trace(DataSet::Testing)),
    ]
}

/// A scratch directory unique to this test binary run.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tlabp-streaming-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Persists `stream` under `key` as a v3 artifact with a deliberately
/// tiny chunk budget, so even the synthetic fixtures span many chunks.
fn persist_stream(path: &std::path::Path, key: StreamKey, stream: &PatternStream) {
    let bytes = write_artifacts_chunked(0, None, None, None, &[(key.to_bytes(), stream)], 1);
    std::fs::write(path, bytes).expect("artifact writes");
}

/// Streaming replay is bit-identical to the in-memory transposed walk
/// for every scheme structure × automaton (plus the trained preset-bit
/// schemes) on every trace, under both kernel bodies. Each structure's
/// automaton ablations replay as one batch over the shared persisted
/// stream — the same batching the engine's fold grouping produces.
#[test]
fn streamed_replay_matches_in_memory_for_every_scheme_automaton_and_kernel() {
    let dir = scratch("differential");
    let training = BiasedCoins::uniform(24, 0.7, 400, 8).generate();
    let window = Arc::new(StreamWindow::new());

    for (trace_name, trace) in traces() {
        let interned = InternedConds::from_trace(&trace);
        // One batch per structure: the five Figure 5 automata, plus the
        // trained preset-bit member where the structure supports it.
        for structure in structures() {
            let key = replay_stream_key(structure).expect("structure has a stream key");
            let stream = derive_pattern_stream(&interned, key);
            let path = dir.join(format!("{trace_name}-{structure}.tlabp"));
            persist_stream(&path, key, &stream);

            let mut configs: Vec<SchemeConfig> = Automaton::FIGURE5
                .iter()
                .map(|&automaton| structure.with_automaton(automaton))
                .collect();
            match key {
                StreamKey::Global { history_bits } => configs.push(SchemeConfig::gsg(history_bits)),
                StreamKey::Bht(signature) if signature.config == BhtConfig::PAPER_DEFAULT => {
                    configs.push(SchemeConfig::psg(signature.history_bits));
                }
                StreamKey::Bht(_) => {}
            }
            let predictors: Vec<_> = configs
                .iter()
                .map(|config| {
                    if config.needs_training() {
                        config.build_any_trained(&training)
                    } else {
                        config.build_any().expect("builds")
                    }
                })
                .collect();

            for mode in KERNELS {
                let in_memory = simulate_replay_transposed(&predictors, &stream, mode)
                    .expect("structures are replay-eligible");
                let mut cursor = StreamCursor::open(&path, &key.to_bytes(), 1 << 20, &window)
                    .expect("persisted stream opens");
                let streamed = simulate_replay_transposed_streamed(&predictors, &mut cursor, mode)
                    .expect("structures are replay-eligible")
                    .expect("persisted stream is intact");
                assert_eq!(
                    streamed, in_memory,
                    "streamed vs in-memory diverged for {structure} batch on {trace_name} \
                     under {mode:?}"
                );
            }
        }
    }
    assert_eq!(window.current(), 0, "every chunk lease must be released");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stream more than four times the configured window replays entirely
/// within the window: the cursor's bounded ring caps resident bytes at
/// the requested budget while the results stay bit-identical to the
/// hydrated walk.
#[test]
fn capped_window_bounds_resident_bytes_on_a_large_stream() {
    let dir = scratch("capped");
    let path = dir.join("large.tlabp");

    // A synthetic laned stream big enough to dwarf the window: 48 replay
    // blocks (~6 MiB resident at 8 bytes/event).
    let events = 48 * (1 << 14);
    let mut stream = PatternStream::new(10, true);
    let mut state = 0x2468ace0u32;
    for _ in 0..events {
        // xorshift: a pattern walk with no short period, so chunks differ.
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        stream.push_with_lane((state & 0x3ff) as usize, state & 0x8000 != 0, state % 7);
    }
    let key = replay_stream_key(SchemeConfig::pap(10)).expect("PAp(10) replays");
    let bytes =
        write_artifacts_chunked(0, None, None, None, &[(key.to_bytes(), &stream)], 16 << 10);
    std::fs::write(&path, bytes).expect("artifact writes");

    let predictors: Vec<_> = Automaton::FIGURE5
        .iter()
        .map(|&automaton| {
            SchemeConfig::pap(10).with_automaton(automaton).build_any().expect("builds")
        })
        .collect();
    let reference =
        simulate_replay_transposed(&predictors, &stream, SimdMode::Auto).expect("replays");

    let resident = stream.bytes();
    let cap = resident / 4;
    let window = Arc::new(StreamWindow::new());
    let mut cursor =
        StreamCursor::open(&path, &key.to_bytes(), cap, &window).expect("stream opens");
    assert!(cursor.chunks() >= 4, "fixture must span several chunks");
    let streamed = simulate_replay_transposed_streamed(&predictors, &mut cursor, SimdMode::Auto)
        .expect("replays")
        .expect("artifact is intact");
    assert_eq!(streamed, reference, "capped streaming changed results");
    assert!(
        window.peak() <= cap,
        "peak residency {} exceeded the {cap}-byte window on a {resident}-byte stream",
        window.peak()
    );
    assert!(window.peak() > 0, "the gauge must have seen the walk");
    drop(cursor);
    assert_eq!(window.current(), 0, "every chunk lease must be released");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store-level round trip: a pattern stream persisted by a
/// disk-backed [`TraceStore`] is streamable back through
/// [`TraceStore::open_stream_cursor`], the probe
/// [`TraceStore::stream_on_disk`] sees it, the streamed walk matches the
/// hydrated one, and the store's window gauge drains to zero afterwards.
#[test]
fn store_persisted_streams_replay_identically_through_the_cursor() {
    let dir = scratch("store");
    let store = TraceStore::with_cache_dir(&dir);
    let benchmark = Benchmark::by_name("li").expect("li exists");
    let config = SchemeConfig::pag(12);
    let key = replay_stream_key(config).expect("PAg(12) replays");

    assert!(!store.stream_on_disk(benchmark, DataSet::Testing, key), "nothing persisted yet");
    let stream = store.get_pattern_stream(benchmark, DataSet::Testing, key);
    assert!(
        store.stream_on_disk(benchmark, DataSet::Testing, key),
        "deriving the stream must persist a streamable v3 section"
    );

    let predictors: Vec<_> = Automaton::FIGURE5
        .iter()
        .map(|&automaton| config.with_automaton(automaton).build_any().expect("builds"))
        .collect();
    let hydrated =
        simulate_replay_transposed(&predictors, &stream, SimdMode::Auto).expect("replays");

    let mut cursor = store
        .open_stream_cursor(benchmark, DataSet::Testing, key, 1 << 20)
        .expect("persisted artifact streams");
    let streamed = simulate_replay_transposed_streamed(&predictors, &mut cursor, SimdMode::Auto)
        .expect("replays")
        .expect("artifact is intact");
    assert_eq!(streamed, hydrated, "store cursor diverged from the hydrated stream");
    drop(cursor);
    assert_eq!(
        store.cache_bytes().stream_window,
        0,
        "the streaming window must drain once cursors are gone"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Importing the same TLBE capture is deterministic (byte-identical
/// artifacts), round-trips the trace exactly, and the imported interned
/// form replays identically streamed and hydrated — the full external
/// ingestion path of `experiments import`.
#[test]
fn imported_captures_are_deterministic_and_replay_identically() {
    use tlabp::trace::import::{import_artifacts, write_etrace};
    use tlabp::trace::io::read_artifacts;

    let dir = scratch("import");
    let capture = write_etrace(&LoopNest::new(&[23, 17, 5]).generate());

    let (fingerprint, artifact) = import_artifacts(&capture, 1 << 12).expect("capture imports");
    let again = import_artifacts(&capture, 1 << 12).expect("capture imports");
    assert_eq!(again, (fingerprint, artifact.clone()), "import must be deterministic");

    let bundle = read_artifacts(&artifact).expect("imported artifact decodes");
    assert_eq!(bundle.fingerprint, fingerprint);
    assert_eq!(
        bundle.trace.as_ref().expect("trace section"),
        &LoopNest::new(&[23, 17, 5]).generate()
    );

    // Derive a stream from the imported interned form, persist, and pin
    // streamed == hydrated over the imported workload too.
    let interned = bundle.interned.expect("interned section");
    let config = SchemeConfig::pag(8);
    let key = replay_stream_key(config).expect("PAg(8) replays");
    let stream = derive_pattern_stream(&interned, key);
    let path = dir.join("imported-stream.tlabp");
    persist_stream(&path, key, &stream);

    let predictors = vec![config.build_any().expect("builds")];
    let hydrated =
        simulate_replay_transposed(&predictors, &stream, SimdMode::Auto).expect("replays");
    let window = Arc::new(StreamWindow::new());
    let mut cursor =
        StreamCursor::open(&path, &key.to_bytes(), 1 << 20, &window).expect("stream opens");
    let streamed = simulate_replay_transposed_streamed(&predictors, &mut cursor, SimdMode::Auto)
        .expect("replays")
        .expect("artifact is intact");
    assert_eq!(streamed, hydrated, "imported workload diverged streamed vs hydrated");
    let _ = std::fs::remove_dir_all(&dir);
}
