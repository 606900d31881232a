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

use tlabp::core::config::SchemeConfig;
use tlabp::core::BhtConfig;
use tlabp::sim::engine::execute;
use tlabp::sim::plan::{Job, Plan};
use tlabp::sim::TraceStore;
use tlabp::workloads::{Benchmark, DataSet};

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

    let memory_out = execute(&plan, &TraceStore::new());
    let cold_out = execute(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, cold_out, "writing the disk cache changed results");

    let paths = artifact_paths(&dir);
    assert_eq!(paths.len(), 1, "one artifact per (benchmark, data set): {paths:?}");
    assert!(
        paths[0].file_name().unwrap().to_str().unwrap().starts_with("li-testing-v3-"),
        "artifact name carries benchmark, data set and version: {paths:?}"
    );

    let warm_out = execute(&plan, &TraceStore::with_cache_dir(&dir));
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
    let _ = execute(&plan(), &cold);
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
/// cache whose artifact was bit-flipped (or truncated) regenerates and
/// still matches the memory-only run bit for bit — and its re-persist
/// repairs the file for the next store.
#[test]
fn corrupted_artifacts_fall_back_to_regeneration() {
    let dir = scratch_dir("corrupt");
    let plan = plan();
    let memory_out = execute(&plan, &TraceStore::new());
    let _ = execute(&plan, &TraceStore::with_cache_dir(&dir));
    let path = artifact_paths(&dir).remove(0);
    let good = std::fs::read(&path).expect("artifact exists");

    // Flip one payload bit.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&path, &flipped).expect("write corrupted artifact");
    let flipped_out = execute(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, flipped_out, "bit-flipped cache changed results");
    assert_eq!(
        std::fs::read(&path).expect("artifact exists"),
        good,
        "regeneration re-persists a clean artifact"
    );

    // Truncate mid-file.
    std::fs::write(&path, &good[..mid]).expect("write truncated artifact");
    let truncated_out = execute(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, truncated_out, "truncated cache changed results");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache_bytes` reports the on-disk footprint: the `disk` component
/// equals the artifact file sizes, rides into the total, and stays zero
/// for memory-only stores.
#[test]
fn cache_bytes_reports_disk_footprint() {
    let dir = scratch_dir("footprint");
    let store = TraceStore::with_cache_dir(&dir);
    assert_eq!(store.cache_bytes().disk, 0, "empty cache dir has no footprint");

    let _ = execute(&plan(), &store);
    let on_disk: usize = artifact_paths(&dir)
        .iter()
        .map(|path| std::fs::metadata(path).expect("artifact exists").len() as usize)
        .sum();
    let bytes = store.cache_bytes();
    assert!(on_disk > 0);
    assert_eq!(bytes.disk, on_disk);
    assert_eq!(
        bytes.total(),
        bytes.packed + bytes.interned + bytes.streams + bytes.disk + bytes.stream_window
    );
    assert_eq!(bytes.stream_window, 0, "no streaming cursor is open");

    let memory = TraceStore::new();
    let _ = execute(&plan(), &memory);
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
    let expected: Vec<_> =
        widths.iter().map(|&k| execute(&plan_for(k), &TraceStore::new())).collect();

    // Four threads, four *distinct* store instances, one directory: each
    // persists the shared li-testing artifact concurrently with a
    // different stream key inside.
    let outputs: Vec<_> = widths
        .iter()
        .map(|&k| {
            let dir = dir.clone();
            std::thread::spawn(move || execute(&plan_for(k), &TraceStore::with_cache_dir(&dir)))
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
        assert_eq!(&execute(&plan_for(k), &warm), expected, "hydrated union changed results");
    }
    let bytes_after = std::fs::read(&paths[0]).expect("artifact exists");
    assert_eq!(bytes_before, bytes_after, "a complete union artifact must not be rewritten");

    let _ = std::fs::remove_dir_all(&dir);
}
