//! Satellite: the disk tier of [`TraceStore`] is invisible to results.
//!
//! Every simulation number must be a pure function of the plan: whether
//! a store is memory-only, writing a cold cache directory, hydrating a
//! warm one, or recovering from a corrupted artifact file may change
//! wall-clock time, never a prediction. These tests drive the same plan
//! through all four store states and require bit-identical
//! [`ResultSet`]s, and pin the artifact lifecycle (atomic writes,
//! re-persist on deepening, footprint reporting) from the outside.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tlabp::core::bht::BhtSignature;
use tlabp::core::config::SchemeConfig;
use tlabp::core::BhtConfig;
use tlabp::sim::plan::{Job, Plan};
use tlabp::sim::runner::derive_pattern_stream;
use tlabp::sim::{ResultSet, Session, StreamKey, TraceStore};
use tlabp::trace::io::{
    read_artifacts, write_artifacts_chunked, ArtifactBundle, ARTIFACT_VERSION_CHUNKED,
    DEFAULT_CHUNK_BYTES,
};
use tlabp::trace::{InternedConds, PatternStream};
use tlabp::workloads::{Benchmark, DataSet};

/// `plan` on the global pool against `store`.
fn run(plan: &Plan, store: &TraceStore) -> ResultSet {
    Session::new(store.clone()).run(plan)
}

/// A unique scratch cache directory per test (tests run concurrently in
/// one process; a shared dir would interleave lifecycles).
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlabp-disk-cache-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A plan exercising every persisted form on one benchmark: replay jobs
/// (pattern streams, two distinct keys), a fused job (interned stream)
/// and a context-switch job (interned stream, plus the full trace its
/// switch schedule is built from).
fn plan() -> Plan {
    let li = Benchmark::by_name("li").expect("li exists");
    [
        Job::scheme(SchemeConfig::pag(8), li),
        Job::scheme(SchemeConfig::pag(8).with_bht(BhtConfig::Ideal), li),
        Job::scheme(SchemeConfig::gag(10), li).with_replay(false),
        Job::scheme(SchemeConfig::pag(8).with_context_switch(true), li),
    ]
    .into_iter()
    .collect()
}

fn artifact_paths(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "tlabp"))
        .collect();
    paths.sort();
    paths
}

/// Memory-only, cold-disk and warm-disk executions produce bit-identical
/// result sets, and the artifact directory holds exactly the benchmark's
/// two files (one per data set would require training; this plan touches
/// only the testing trace).
#[test]
fn disk_enabled_and_disabled_agree_bit_for_bit() {
    let dir = scratch_dir("agree");
    let plan = plan();

    let memory_out = run(&plan, &TraceStore::new());
    let cold_out = run(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, cold_out, "writing the disk cache changed results");

    let paths = artifact_paths(&dir);
    assert_eq!(paths.len(), 1, "one artifact per (benchmark, data set): {paths:?}");
    assert!(
        paths[0].file_name().unwrap().to_str().unwrap().starts_with("li-testing-v3-"),
        "artifact name carries benchmark, data set and version: {paths:?}"
    );

    let warm_out = run(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, warm_out, "hydrating from the disk cache changed results");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm store hydrates every form without regenerating: the second
/// store's streams match the first's but are distinct allocations, and a
/// pure read leaves the artifact bytes untouched.
#[test]
fn warm_store_hydrates_all_forms_from_disk() {
    let dir = scratch_dir("hydrate");
    let li = Benchmark::by_name("li").expect("li exists");

    let cold = TraceStore::with_cache_dir(&dir);
    let _ = run(&plan(), &cold);
    let trace = cold.get(li, DataSet::Testing);
    let interned = cold.get_interned(li, DataSet::Testing);
    let bytes_before = std::fs::read(&artifact_paths(&dir)[0]).expect("artifact exists");

    let warm = TraceStore::with_cache_dir(&dir);
    let warm_trace = warm.get(li, DataSet::Testing);
    let warm_interned = warm.get_interned(li, DataSet::Testing);
    assert_eq!(*warm_trace, *trace);
    assert_eq!(*warm_interned, *interned);
    assert!(!Arc::ptr_eq(&warm_trace, &trace), "fresh store holds its own hydrated copy");

    let bytes_after = std::fs::read(&artifact_paths(&dir)[0]).expect("artifact exists");
    assert_eq!(bytes_before, bytes_after, "hydration must not rewrite the artifact");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption can cost time, never correctness: a store pointed at a
/// cache whose artifact was bit-flipped (or truncated, or given a chunk
/// count far past its end) regenerates and still matches the memory-only
/// run bit for bit — and its re-persist repairs the file for the next
/// store.
#[test]
fn corrupted_artifacts_fall_back_to_regeneration() {
    let dir = scratch_dir("corrupt");
    let plan = plan();
    let memory_out = run(&plan, &TraceStore::new());
    let _ = run(&plan, &TraceStore::with_cache_dir(&dir));
    let path = artifact_paths(&dir).remove(0);
    let good = std::fs::read(&path).expect("artifact exists");

    // Flip one payload bit.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&path, &flipped).expect("write corrupted artifact");
    let flipped_out = run(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, flipped_out, "bit-flipped cache changed results");
    assert_eq!(
        std::fs::read(&path).expect("artifact exists"),
        good,
        "regeneration re-persists a clean artifact"
    );

    // Declare `u32::MAX` chunks in the first section head (kind, meta
    // length, metadata, then the count): a chunk table of ~103 GB. The
    // store's whole-buffer reader must treat it as corruption; the
    // seekable reader's handling of the same head is pinned by
    // `inflated_head_lengths_are_typed_errors_in_both_readers` in
    // `tlabp_trace::io`.
    let meta_len = u32::from_le_bytes(good[19..23].try_into().expect("4 bytes")) as usize;
    let count_at = 23 + meta_len;
    let mut inflated = good.clone();
    inflated[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &inflated).expect("write inflated artifact");
    let inflated_out = run(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, inflated_out, "inflated chunk count changed results");

    // Truncate mid-file.
    std::fs::write(&path, &good[..mid]).expect("write truncated artifact");
    let truncated_out = run(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, truncated_out, "truncated cache changed results");

    let _ = std::fs::remove_dir_all(&dir);
}

fn read_bundle(path: &Path) -> ArtifactBundle {
    read_artifacts(&std::fs::read(path).expect("artifact reads")).expect("artifact decodes")
}

/// A disk-backed store keeps only the forms jobs read: after the plan
/// runs, no artifact carries a packed section, the testing artifact
/// carries the interned stream every walk reads, and the store holds no
/// packed bytes.
#[test]
fn store_writes_and_holds_no_packed_form() {
    let dir = scratch_dir("no-packed");
    let li = Benchmark::by_name("li").expect("li exists");
    let store = TraceStore::with_cache_dir(&dir);
    let _ = run(&plan(), &store);

    let paths = artifact_paths(&dir);
    assert!(!paths.is_empty(), "the plan persists its slots");
    for path in &paths {
        let bundle = read_bundle(path);
        assert!(bundle.packed.is_none(), "{} holds a packed section", path.display());
        if path.to_string_lossy().contains("-testing-") {
            assert_eq!(
                bundle.interned.as_ref(),
                Some(&*store.get_interned(li, DataSet::Testing)),
                "{} lacks its interned section",
                path.display()
            );
        }
    }
    assert_eq!(store.cache_bytes().packed, 0, "the store holds no packed form");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An artifact written with a packed section beside the trace and
/// interned ones (as older builds wrote every slot) still hydrates: a
/// store reads the trace and the interned stream from it without
/// regenerating or rewriting, keeps no packed form, and drops the packed
/// section the next time it rewrites the slot.
#[test]
fn artifacts_with_a_packed_section_hydrate_and_lose_it_on_rewrite() {
    let dir = scratch_dir("packed-section");
    let li = Benchmark::by_name("li").expect("li exists");
    let set = DataSet::Testing;
    let trace = li.trace(set);
    let packed = trace.pack_conditionals();
    let interned = InternedConds::from_packed(&packed);
    let fingerprint = li.fingerprint(set);
    let written = write_artifacts_chunked(
        fingerprint,
        Some(&trace),
        Some(&packed),
        Some(&interned),
        &[],
        DEFAULT_CHUNK_BYTES,
    );
    std::fs::create_dir_all(&dir).expect("cache dir");
    let path = dir.join(format!("li-testing-v{ARTIFACT_VERSION_CHUNKED}-{fingerprint:016x}.tlabp"));
    std::fs::write(&path, &written).expect("artifact writes");

    let store = TraceStore::with_cache_dir(&dir);
    assert_eq!(*store.get(li, set), trace, "the trace hydrates");
    assert_eq!(*store.get_interned(li, set), interned, "the interned stream hydrates");
    assert_eq!(std::fs::read(&path).expect("artifact reads"), written, "hydration rewrote it");
    assert_eq!(store.cache_bytes().packed, 0, "a hydrated packed section is not kept");

    let key = StreamKey::Global { history_bits: 8 };
    let stream = store.get_pattern_stream(li, set, key);
    assert_eq!(artifact_paths(&dir), vec![path.clone()], "the rewrite keeps the file name");
    let bundle = read_bundle(&path);
    assert!(bundle.packed.is_none(), "the rewrite drops the packed section");
    assert_eq!(bundle.trace.as_ref(), Some(&trace));
    assert_eq!(bundle.interned.as_ref(), Some(&interned));
    assert_eq!(bundle.streams, vec![(key.to_bytes(), (*stream).clone())]);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `plan` on a store over a cache directory holding one li testing
/// artifact: the trace, the interned stream, and the stream `stream`
/// makes of it, filed under `key`. The result must equal a memory-only
/// run's: a stream that does not fit its key is dropped on hydration and
/// re-derives, so the rewritten artifact holds the derived stream under
/// `key`.
fn hydrate_mismatched_stream(
    test: &str,
    key: StreamKey,
    plan: &Plan,
    stream: impl FnOnce(&InternedConds) -> PatternStream,
) {
    let dir = scratch_dir(test);
    let li = Benchmark::by_name("li").expect("li exists");
    let set = DataSet::Testing;
    let trace = li.trace(set);
    let interned = InternedConds::from_trace(&trace);
    let fingerprint = li.fingerprint(set);
    let written = write_artifacts_chunked(
        fingerprint,
        Some(&trace),
        None,
        Some(&interned),
        &[(key.to_bytes(), &stream(&interned))],
        DEFAULT_CHUNK_BYTES,
    );
    std::fs::create_dir_all(&dir).expect("cache dir");
    let path = dir.join(format!("li-testing-v{ARTIFACT_VERSION_CHUNKED}-{fingerprint:016x}.tlabp"));
    std::fs::write(&path, &written).expect("artifact writes");

    let want = run(plan, &TraceStore::new());
    assert_eq!(run(plan, &TraceStore::with_cache_dir(&dir)), want, "{test}: hydrated results");
    let derived = derive_pattern_stream(&interned, key);
    assert_eq!(
        read_bundle(&path).streams,
        vec![(key.to_bytes(), derived)],
        "{test}: the rewrite holds the derived stream"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// li's PAg(8) and PAp(8) over the paper's 512x4 BHT: one replay batch
/// of a shared and a per-lane bank on the `Bht(512x4, 8)` stream.
fn bht_plan() -> (StreamKey, Plan) {
    let li = Benchmark::by_name("li").expect("li exists");
    let key = StreamKey::Bht(BhtSignature { config: BhtConfig::PAPER_DEFAULT, history_bits: 8 });
    let plan = [Job::scheme(SchemeConfig::pag(8), li), Job::scheme(SchemeConfig::pap(8), li)]
        .into_iter()
        .collect();
    (key, plan)
}

/// A 4-bit global stream filed under the 12-bit global key: replaying
/// it would fold every GAg(12) pattern to 4 bits.
#[test]
fn a_stream_narrower_than_its_key_is_dropped_on_hydration() {
    let li = Benchmark::by_name("li").expect("li exists");
    let plan = [Job::scheme(SchemeConfig::gag(12), li)].into_iter().collect();
    hydrate_mismatched_stream(
        "narrow",
        StreamKey::Global { history_bits: 12 },
        &plan,
        |interned| derive_pattern_stream(interned, StreamKey::Global { history_bits: 4 }),
    );
}

/// An unlaned stream filed under a BHT key: a per-lane bank has no lane
/// to pick its table with.
#[test]
fn an_unlaned_stream_under_a_bht_key_is_dropped_on_hydration() {
    let (key, plan) = bht_plan();
    hydrate_mismatched_stream("unlaned", key, &plan, |interned| {
        derive_pattern_stream(interned, StreamKey::Global { history_bits: 8 })
    });
}

/// A laned stream whose odd events name lane 512, one past the last
/// slot of a 512-entry BHT.
#[test]
fn a_stream_lane_past_its_bound_is_dropped_on_hydration() {
    let (key, plan) = bht_plan();
    hydrate_mismatched_stream("lane-past", key, &plan, |interned| {
        let derived = derive_pattern_stream(interned, key);
        let lanes = derived
            .lanes()
            .iter()
            .enumerate()
            .map(|(event, &lane)| if event % 2 == 1 { 512 } else { lane })
            .collect();
        PatternStream::from_raw_parts(8, derived.events().to_vec(), lanes, true)
            .expect("well-formed parts")
    });
}

/// `cache_bytes` reports the on-disk footprint: the `disk` component
/// equals the artifact file sizes, rides into the total, and stays zero
/// for memory-only stores.
#[test]
fn cache_bytes_reports_disk_footprint() {
    let dir = scratch_dir("footprint");
    let store = TraceStore::with_cache_dir(&dir);
    assert_eq!(store.cache_bytes().disk, 0, "empty cache dir has no footprint");

    let _ = run(&plan(), &store);
    let on_disk: usize = artifact_paths(&dir)
        .iter()
        .map(|path| std::fs::metadata(path).expect("artifact exists").len() as usize)
        .sum();
    let bytes = store.cache_bytes();
    assert!(on_disk > 0);
    assert_eq!(bytes.disk, on_disk);
    assert_eq!(bytes.total(), bytes.packed + bytes.interned + bytes.streams + bytes.disk);

    let memory = TraceStore::new();
    let _ = run(&plan(), &memory);
    assert_eq!(memory.cache_bytes().disk, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression test for the disk-tier write race: several stores (as in
/// several daemon connections or concurrent driver processes) target the
/// same cache directory and the same benchmark, each deriving a
/// *different* pattern stream. The advisory artifact lock plus
/// merge-on-persist must converge the file to the union of every
/// writer's sections — not last-writer-wins over the whole artifact —
/// and leave no `.lock` or `.tmp-*` residue behind.
#[test]
fn concurrent_writers_merge_into_one_artifact() {
    let dir = scratch_dir("race");
    let li = Benchmark::by_name("li").expect("li exists");
    let widths = [6u32, 8, 10, 12];
    let plan_for =
        |k: u32| -> Plan { [Job::scheme(SchemeConfig::gag(k), li)].into_iter().collect() };

    // Reference outcomes from hermetic memory-only stores.
    let expected: Vec<_> = widths.iter().map(|&k| run(&plan_for(k), &TraceStore::new())).collect();

    // Four threads, four *distinct* store instances, one directory: each
    // persists the shared li-testing artifact concurrently with a
    // different stream key inside.
    let outputs: Vec<_> = widths
        .iter()
        .map(|&k| {
            let dir = dir.clone();
            std::thread::spawn(move || run(&plan_for(k), &TraceStore::with_cache_dir(&dir)))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|handle| handle.join().expect("writer thread panicked"))
        .collect();
    for (output, expected) in outputs.iter().zip(&expected) {
        assert_eq!(output, expected, "racing the disk tier changed results");
    }

    // Exactly the artifact survives: no stale advisory locks, no
    // orphaned temp files.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| !(name.starts_with("li-testing-v3-") && name.ends_with(".tlabp")))
        .collect();
    assert!(leftovers.is_empty(), "lock/temp residue after racing writers: {leftovers:?}");
    let paths = artifact_paths(&dir);
    assert_eq!(paths.len(), 1, "all writers share one artifact: {paths:?}");

    // The surviving file holds the union: a warm store replays all four
    // plans purely from hydration, and since nothing new is derived the
    // artifact bytes stay untouched.
    let bytes_before = std::fs::read(&paths[0]).expect("artifact exists");
    let warm = TraceStore::with_cache_dir(&dir);
    for (&k, expected) in widths.iter().zip(&expected) {
        assert_eq!(&run(&plan_for(k), &warm), expected, "hydrated union changed results");
    }
    let bytes_after = std::fs::read(&paths[0]).expect("artifact exists");
    assert_eq!(bytes_before, bytes_after, "a complete union artifact must not be rewritten");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper artifacts' plans, as `experiments plan` writes them (the
/// repository benchmark's fixtures), as one plan.
fn paper_plan() -> Plan {
    let fixtures = [
        include_str!("../benchmark/plans/fig5.plan.json"),
        include_str!("../benchmark/plans/fig6.plan.json"),
        include_str!("../benchmark/plans/fig7.plan.json"),
        include_str!("../benchmark/plans/fig8.plan.json"),
        include_str!("../benchmark/plans/fig9.plan.json"),
        include_str!("../benchmark/plans/fig10.plan.json"),
        include_str!("../benchmark/plans/fig11.plan.json"),
        include_str!("../benchmark/plans/extensions.plan.json"),
        include_str!("../benchmark/plans/analysis.plan.json"),
        include_str!("../benchmark/plans/fetch.plan.json"),
        include_str!("../benchmark/plans/grid.plan.json"),
    ];
    let mut plan = Plan::new();
    for text in fixtures {
        plan.extend(Plan::from_json_str(text.trim_end()).expect("a paper plan decodes"));
    }
    plan
}

/// A store reopened on a filled cache directory prefetches the paper
/// plans from every section but the trace: afterwards it holds no full
/// trace and has rewritten no artifact. It then serves the plans
/// byte-identically to a memory-only store, loading the trace sections
/// only where a form is first built (switch schedules, branch streams),
/// and again keeps no trace.
#[test]
fn a_reopened_store_prefetches_the_paper_plans_without_a_trace() {
    use tlabp::core::automaton::Automaton;
    use tlabp::core::registry;
    use tlabp::core::schemes::Gshare;
    use tlabp::sim::{prefetch_on, SweepPool};

    for bits in [12u32, 16] {
        registry::register(&format!("gshare({bits})"), move || {
            Box::new(Gshare::new(bits, Automaton::A2))
        });
    }
    let dir = scratch_dir("paper");
    let plan = paper_plan();
    assert_eq!(plan.len(), 1143);
    let pool = SweepPool::global();
    prefetch_on(pool, &plan, &TraceStore::with_cache_dir(&dir));
    let files = |dir: &Path| -> Vec<Vec<u8>> {
        artifact_paths(dir).iter().map(|p| std::fs::read(p).expect("artifact reads")).collect()
    };
    let filled = files(&dir);
    assert_eq!(filled.len(), 14, "9 testing and 5 training artifacts");

    let reopened = TraceStore::with_cache_dir(&dir);
    prefetch_on(pool, &plan, &reopened);
    assert_eq!(reopened.cache_bytes().traces, 0, "the prefetch keeps no trace");
    assert_eq!(reopened.len(), 14);
    assert_eq!(files(&dir), filled, "a hydrating prefetch writes nothing");

    let want = run(&plan, &TraceStore::new()).to_json_string();
    assert_eq!(run(&plan, &reopened).to_json_string(), want, "the reopened store's results");
    assert_eq!(reopened.cache_bytes().traces, 0, "the run keeps no trace");
    assert_eq!(files(&dir), filled, "reading trace sections writes nothing");

    let _ = std::fs::remove_dir_all(&dir);
}
