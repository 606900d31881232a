//! The trace store: every benchmark trace a plan reads, generated once
//! and cached with the forms derived from it, in memory and on disk.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use tlabp_core::env::{Config, DirKnob};
use tlabp_trace::io::{
    read_artifacts, write_artifacts_chunked, write_file_atomic, FileLock, ARTIFACT_VERSION_CHUNKED,
    DEFAULT_CHUNK_BYTES,
};
use tlabp_trace::{InternedConds, PatternStream, Trace};
use tlabp_workloads::{Benchmark, DataSet};

use crate::runner::{
    derive_pattern_stream, ContextSwitchConfig, SimConfig, StreamKey, SwitchSchedule,
};

/// Default disk cache directory when `TLABP_TRACE_DIR` is unset but
/// persistence was requested ([`TraceStore::persistent`]).
pub const DEFAULT_TRACE_DIR: &str = "target/trace-cache";

/// A cache of generated benchmark traces.
///
/// Workload generation (running the mini-RISC VM) is deterministic but
/// not free; the store generates each (benchmark, data set) trace once
/// and shares it across every scheme evaluation. Cloning the store is
/// cheap and shares the cache, so sweep cells on other threads can hold
/// their own handle.
///
/// A slot holds the forms jobs read: the full trace, the pc-interned
/// conditional stream every walk and every pattern-stream derivation
/// reads, and the pattern streams themselves, one per [`StreamKey`].
/// Interning packs the conditional branches into a buffer it drops, so
/// no packed copy stays resident.
///
/// Each cache slot initializes through its own [`OnceLock`]: when many
/// sweep cells ask for the same ungenerated trace at once, exactly one
/// thread runs the VM while the rest block on that slot — the map locks
/// are only ever held to find or insert the (empty) slot, never during
/// generation.
///
/// # Disk tier
///
/// A store built with [`TraceStore::persistent`],
/// [`TraceStore::from_env`] or [`TraceStore::with_cache_dir`]
/// additionally persists every slot as a v3 chunked artifact container
/// (`tlabp_trace::io`): on the first touch of a slot the store tries to
/// hydrate every form from `<dir>/<bench>-<set>-v3-<fingerprint>.tlabp`
/// without running the VM; whenever a getter actually generates or
/// derives something new, the slot is re-written atomically (temp file +
/// rename). The engine's prefetch barrier derives through getters that
/// leave the write to it, and then writes each changed slot once. File
/// names carry the container version and the workload fingerprint
/// ([`TraceStore::fingerprint`]), so artifacts from an older format, an
/// edited workload generator or an edited VM are simply never opened —
/// an older build's files included, whatever their version. A file that
/// exists but fails its checksum or decode is ignored with a warning and
/// the slot regenerates — a corrupt cache can cost time, never
/// correctness. A packed section an older build wrote is skipped on
/// hydration and dropped the next time the slot is rewritten.
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    cache: Arc<RwLock<SlotMap>>,
    disk: Option<Arc<DiskTier>>,
}

type SlotMap = HashMap<(&'static str, DataSetKey), Arc<TraceSlot>>;

#[derive(Debug, Default)]
struct TraceSlot {
    trace: OnceLock<Arc<Trace>>,
    interned: OnceLock<Arc<InternedConds>>,
    // One materialized first-level stream per StreamKey. The mutex guards
    // only the map (find or insert the cell); each cell's derivation runs
    // behind its own OnceLock, exactly like the two fixed forms above.
    streams: Mutex<HashMap<StreamKey, Arc<OnceLock<Arc<PatternStream>>>>>,
    // One context-switch schedule per switch configuration, built the
    // same way from the full trace. Never persisted: a schedule is a few
    // hundred points, rebuilt in about a millisecond.
    schedules: Mutex<HashMap<ContextSwitchConfig, Arc<OnceLock<Arc<SwitchSchedule>>>>>,
    // Disk-tier state: the workload fingerprint (computed once), a
    // hydration gate so the artifact file is read at most once per slot,
    // and a write lock serializing re-persists of this slot.
    fingerprint: OnceLock<u64>,
    hydrated: OnceLock<()>,
    write_lock: Mutex<()>,
}

impl TraceSlot {
    /// The slot's workload fingerprint, computed on first use.
    fn fingerprint(&self, benchmark: &Benchmark, data_set: DataSet) -> u64 {
        *self.fingerprint.get_or_init(|| benchmark.fingerprint(data_set))
    }
}

/// The persistence layer of a [`TraceStore`]: one artifact container per
/// (benchmark, data set) under a cache directory.
#[derive(Debug)]
struct DiskTier {
    dir: PathBuf,
}

/// How long a persist waits for a contended artifact lock before
/// proceeding unlocked (last writer wins; the rename keeps files whole).
const LOCK_WAIT_MILLIS: u64 = 2_000;

/// Age beyond which a lock file is considered abandoned by a crashed
/// writer and broken. Persists hold the lock for milliseconds, so
/// anything this old is dead.
const LOCK_STALE_SECS: u64 = 10;

impl DiskTier {
    /// The artifact path for a slot. The container version and workload
    /// fingerprint are part of the name, so a format bump or workload
    /// edit invalidates by construction — the old file is just never
    /// looked up again.
    fn path_for(&self, name: &str, data_set: DataSet, fingerprint: u64) -> PathBuf {
        let set = match data_set {
            DataSet::Training => "training",
            DataSet::Testing => "testing",
        };
        self.dir.join(format!("{name}-{set}-v{ARTIFACT_VERSION_CHUNKED}-{fingerprint:016x}.tlabp"))
    }

    /// Fills whatever forms the slot's artifact file holds. Missing file
    /// is a plain miss; a present-but-unreadable file warns and behaves
    /// as a miss (the next persist overwrites it).
    fn hydrate(&self, slot: &TraceSlot, benchmark: &Benchmark, data_set: DataSet) {
        let fingerprint = slot.fingerprint(benchmark, data_set);
        let path = self.path_for(benchmark.name(), data_set, fingerprint);
        let Ok(bytes) = fs::read(&path) else { return };
        let bundle = match read_artifacts(&bytes) {
            Ok(bundle) => bundle,
            Err(err) => {
                eprintln!(
                    "warning: ignoring corrupt trace artifact {} ({err}); regenerating",
                    path.display()
                );
                return;
            }
        };
        if bundle.fingerprint != fingerprint {
            return;
        }
        if let Some(trace) = bundle.trace {
            let _ = slot.trace.set(Arc::new(trace));
        }
        if let Some(interned) = bundle.interned {
            let _ = slot.interned.set(Arc::new(interned));
        }
        let mut streams = slot.streams.lock().expect("stream map lock");
        for (key_bytes, stream) in bundle.streams {
            // An undecodable key (written by a future scheme variant) is
            // skipped, not trusted.
            let Some(key) = StreamKey::from_bytes(&key_bytes) else { continue };
            let _ = streams.entry(key).or_default().set(Arc::new(stream));
        }
    }

    /// Atomically rewrites the slot's artifact file with every form
    /// currently materialized. I/O failures warn and leave the previous
    /// file (if any) intact — persistence is an accelerator, never a
    /// correctness dependency.
    ///
    /// # Concurrent writers
    ///
    /// The in-process `write_lock` serializes persists of one slot within
    /// a store, but a shared cache directory can be written by *several*
    /// processes at once (concurrent service clients, parallel CI
    /// suites). Two defenses make that safe:
    ///
    /// * an **advisory file lock** (`<artifact>.lock`, created with
    ///   `create_new`) serializes cross-process persists of one artifact.
    ///   Stale locks left by a killed process are broken after
    ///   [`LOCK_STALE_SECS`]; a writer that cannot acquire the lock
    ///   within [`LOCK_WAIT_MILLIS`] proceeds anyway with a warning —
    ///   the atomic rename below means the worst outcome is last writer
    ///   wins, never a torn file.
    /// * **merge-on-persist**: under the lock, the current artifact is
    ///   re-read and any sections it has that this store has not
    ///   materialized (a trace form, disk-only pattern streams) are
    ///   carried into the rewrite. Without this, two clients deriving
    ///   *different* streams for the same trace would each overwrite the
    ///   other's work; with it, the artifact converges to the union.
    ///   In-memory forms win on conflict — they are what this store
    ///   measured with. A packed section is never carried over: the
    ///   rewrite holds only the forms a store reads.
    ///
    /// Readers need no lock at all: hydration re-validates every section
    /// checksum on open and treats a torn or corrupt file as a miss.
    fn persist(&self, slot: &TraceSlot, benchmark: &Benchmark, data_set: DataSet) {
        let _guard = slot.write_lock.lock().expect("slot write lock");
        let fingerprint = slot.fingerprint(benchmark, data_set);
        let trace = slot.trace.get().cloned();
        let interned = slot.interned.get().cloned();
        let streams: Vec<(Vec<u8>, Arc<PatternStream>)> = {
            let map = slot.streams.lock().expect("stream map lock");
            map.iter()
                .filter_map(|(key, cell)| cell.get().map(|s| (key.to_bytes(), Arc::clone(s))))
                .collect()
        };
        let path = self.path_for(benchmark.name(), data_set, fingerprint);
        let _file_lock = self.lock_artifact(&path);

        // Merge: keep sections a concurrent writer (or an earlier run)
        // already persisted that this store never materialized.
        let existing = fs::read(&path)
            .ok()
            .and_then(|bytes| read_artifacts(&bytes).ok())
            .filter(|bundle| bundle.fingerprint == fingerprint);
        let merged_trace: Option<&Trace> =
            trace.as_deref().or(existing.as_ref().and_then(|b| b.trace.as_ref()));
        let merged_interned: Option<&InternedConds> =
            interned.as_deref().or(existing.as_ref().and_then(|b| b.interned.as_ref()));
        let mut refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(key, stream)| (key.clone(), stream.as_ref())).collect();
        if let Some(bundle) = &existing {
            for (key, stream) in &bundle.streams {
                if !refs.iter().any(|(have, _)| have == key) {
                    refs.push((key.clone(), stream));
                }
            }
        }
        // Deterministic section order keeps repeated persists of the same
        // content byte-identical.
        refs.sort_by(|a, b| a.0.cmp(&b.0));

        let bytes = write_artifacts_chunked(
            fingerprint,
            merged_trace,
            None,
            merged_interned,
            &refs,
            DEFAULT_CHUNK_BYTES,
        );
        if let Err(err) = self.write_atomic(&path, &bytes) {
            eprintln!("warning: failed to write trace artifact {} ({err})", path.display());
        }
    }

    /// Acquires the advisory cross-process lock for an artifact path:
    /// `<artifact>.lock`, created exclusively
    /// ([`FileLock::acquire`] — the same machinery the service's
    /// persistent memo tier uses). Returns `None` (with a warning) when
    /// the lock cannot be acquired within the wait budget — the caller
    /// proceeds unlocked rather than stalling simulation on a cache
    /// courtesy.
    fn lock_artifact(&self, path: &Path) -> Option<FileLock> {
        if fs::create_dir_all(&self.dir).is_err() {
            return None;
        }
        FileLock::acquire(
            &path.with_extension("tlabp.lock"),
            std::time::Duration::from_millis(LOCK_WAIT_MILLIS),
            std::time::Duration::from_secs(LOCK_STALE_SECS),
        )
    }

    /// Writes via a unique temp file in the same directory, then renames
    /// over the target, so readers only ever observe complete files.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        write_file_atomic(path, bytes)
    }

    /// Total size of the artifact files currently in the cache directory.
    fn disk_bytes(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else { return 0 };
        entries
            .filter_map(Result::ok)
            .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "tlabp"))
            .filter_map(|entry| entry.metadata().ok())
            .map(|meta| meta.len() as usize)
            .sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DataSetKey {
    Training,
    Testing,
}

impl From<DataSet> for DataSetKey {
    fn from(ds: DataSet) -> Self {
        match ds {
            DataSet::Training => DataSetKey::Training,
            DataSet::Testing => DataSetKey::Testing,
        }
    }
}

impl TraceStore {
    /// Creates an empty, memory-only store.
    #[must_use]
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// Creates a store with the disk tier enabled: artifacts live under
    /// `TLABP_TRACE_DIR` if set, else [`DEFAULT_TRACE_DIR`]. Setting the
    /// variable to an empty string disables persistence entirely.
    #[must_use]
    pub fn persistent() -> Self {
        match &Config::get().trace_dir {
            DirKnob::Unset => TraceStore::with_cache_dir(DEFAULT_TRACE_DIR),
            DirKnob::Off => TraceStore::new(),
            DirKnob::Dir(dir) => TraceStore::with_cache_dir(dir),
        }
    }

    /// Creates a store whose disk tier is enabled only when
    /// `TLABP_TRACE_DIR` is set (and non-empty). This is the constructor
    /// for test suites: plain runs stay hermetic and memory-only, while
    /// CI can opt the same tests into the disk path by exporting the
    /// variable.
    #[must_use]
    pub fn from_env() -> Self {
        match &Config::get().trace_dir {
            DirKnob::Dir(dir) => TraceStore::with_cache_dir(dir),
            DirKnob::Unset | DirKnob::Off => TraceStore::new(),
        }
    }

    /// Creates a store persisting artifacts under `dir` (created on first
    /// write; a missing directory just means every lookup misses).
    #[must_use]
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Self {
        TraceStore { cache: Arc::default(), disk: Some(Arc::new(DiskTier { dir: dir.into() })) }
    }

    /// The disk cache directory, if the disk tier is enabled.
    #[must_use]
    pub fn cache_dir(&self) -> Option<&Path> {
        self.disk.as_deref().map(|disk| disk.dir.as_path())
    }

    /// The workload fingerprint of `(benchmark, data_set)`
    /// ([`Benchmark::fingerprint`]): the stamp and name of the slot's
    /// artifact, and what the daemon's memo artifacts fold. Computed
    /// once per store and cached in the slot, since every call of
    /// [`Benchmark::fingerprint`] regenerates the program; a new store
    /// pays it once again.
    #[must_use]
    pub fn fingerprint(&self, benchmark: &Benchmark, data_set: DataSet) -> u64 {
        self.slot(benchmark.name(), data_set.into()).fingerprint(benchmark, data_set)
    }

    /// Returns the trace for `(benchmark, data_set)`, generating it on
    /// first use. Concurrent callers for the same key block until the
    /// single generating thread finishes.
    #[must_use]
    pub fn get(&self, benchmark: &Benchmark, data_set: DataSet) -> Arc<Trace> {
        let (trace, generated) = self.get_unpersisted(benchmark, data_set);
        if generated {
            self.persist_slot(benchmark, data_set);
        }
        trace
    }

    /// [`TraceStore::get`] without the re-persist. Also returns whether
    /// it generated anything, so a caller deriving many forms at once
    /// (the engine's prefetch barrier) can write each changed slot once
    /// afterwards through [`TraceStore::persist_slot`]. The other
    /// `*_unpersisted` getters work the same way.
    pub(crate) fn get_unpersisted(
        &self,
        benchmark: &Benchmark,
        data_set: DataSet,
    ) -> (Arc<Trace>, bool) {
        let slot = self.slot_hydrated(benchmark, data_set);
        let mut generated = false;
        let trace = Self::trace_of(&slot, benchmark, data_set, &mut generated);
        (trace, generated)
    }

    /// Returns the pc-interned conditional stream for
    /// `(benchmark, data_set)` — the input of
    /// [`crate::runner::simulate_fused`] — interning it on first use.
    ///
    /// Both fixed forms (trace, interned) share one slot, each behind
    /// its own `OnceLock`, so every derivation happens exactly once per
    /// key however many cells race for it. Interning packs the trace's
    /// conditional branches into a buffer it drops.
    #[must_use]
    pub fn get_interned(&self, benchmark: &Benchmark, data_set: DataSet) -> Arc<InternedConds> {
        let (interned, generated) = self.get_interned_unpersisted(benchmark, data_set);
        if generated {
            self.persist_slot(benchmark, data_set);
        }
        interned
    }

    pub(crate) fn get_interned_unpersisted(
        &self,
        benchmark: &Benchmark,
        data_set: DataSet,
    ) -> (Arc<InternedConds>, bool) {
        let slot = self.slot_hydrated(benchmark, data_set);
        let mut generated = false;
        let interned = Self::interned_of(&slot, benchmark, data_set, &mut generated);
        (interned, generated)
    }

    /// Returns the materialized first-level stream for
    /// `(benchmark, data_set, key)` — the input of
    /// [`crate::runner::simulate_replay_transposed`] — deriving it on first
    /// use.
    ///
    /// The third cached form, keyed per first-level [`StreamKey`] rather
    /// than only per trace. The derivation chains through the interned
    /// stream (and thus the trace), each stage
    /// behind its own `OnceLock`, so every derivation happens exactly once
    /// per key however many replay cells race for it.
    #[must_use]
    pub fn get_pattern_stream(
        &self,
        benchmark: &Benchmark,
        data_set: DataSet,
        key: StreamKey,
    ) -> Arc<PatternStream> {
        let (stream, generated) = self.get_pattern_stream_unpersisted(benchmark, data_set, key);
        if generated {
            self.persist_slot(benchmark, data_set);
        }
        stream
    }

    pub(crate) fn get_pattern_stream_unpersisted(
        &self,
        benchmark: &Benchmark,
        data_set: DataSet,
        key: StreamKey,
    ) -> (Arc<PatternStream>, bool) {
        let slot = self.slot_hydrated(benchmark, data_set);
        let cell = {
            let mut streams = slot.streams.lock().expect("stream map lock");
            Arc::clone(streams.entry(key).or_default())
        };
        if let Some(stream) = cell.get() {
            return (Arc::clone(stream), false);
        }
        let mut generated = false;
        let interned = Self::interned_of(&slot, benchmark, data_set, &mut generated);
        let stream = Arc::clone(cell.get_or_init(|| {
            generated = true;
            Arc::new(derive_pattern_stream(&interned, key))
        }));
        (stream, generated)
    }

    /// Returns where `config`'s context switches fall in the trace for
    /// `(benchmark, data_set)` — the schedule
    /// [`crate::runner::simulate_fused`] takes — building it from the full
    /// trace on first use. Empty, without touching the slot, when
    /// `config` models no switches.
    #[must_use]
    pub fn get_switch_schedule(
        &self,
        benchmark: &Benchmark,
        data_set: DataSet,
        config: &SimConfig,
    ) -> Arc<SwitchSchedule> {
        let Some(switches) = config.context_switch else { return Arc::default() };
        let slot = self.slot_hydrated(benchmark, data_set);
        let cell = {
            let mut schedules = slot.schedules.lock().expect("schedule map lock");
            Arc::clone(schedules.entry(switches).or_default())
        };
        Arc::clone(
            cell.get_or_init(|| {
                Arc::new(SwitchSchedule::new(&self.get(benchmark, data_set), config))
            }),
        )
    }

    /// The already-resident pattern stream for `(benchmark, data_set,
    /// key)`, or `None` when it has not been derived or hydrated yet — a
    /// non-forcing peek. The engine's intra-batch split heuristic uses
    /// this to size sub-batches by event count without ever triggering a
    /// derivation (or even a disk hydration) on the submitting thread.
    #[must_use]
    pub fn peek_pattern_stream(
        &self,
        benchmark: &Benchmark,
        data_set: DataSet,
        key: StreamKey,
    ) -> Option<Arc<PatternStream>> {
        let slot = {
            let cache = self.cache.read().expect("trace store lock");
            Arc::clone(cache.get(&(benchmark.name(), data_set.into()))?)
        };
        let streams = slot.streams.lock().expect("stream map lock");
        streams.get(&key).and_then(|cell| cell.get()).map(Arc::clone)
    }

    /// The slot's trace, generating it when neither the VM nor the disk
    /// tier has filled it yet; sets `generated` when the VM ran.
    fn trace_of(
        slot: &TraceSlot,
        benchmark: &Benchmark,
        data_set: DataSet,
        generated: &mut bool,
    ) -> Arc<Trace> {
        Arc::clone(slot.trace.get_or_init(|| {
            *generated = true;
            Arc::new(benchmark.trace(data_set))
        }))
    }

    /// The trace → interned derivation chain on a slot; sets `generated`
    /// when any stage actually ran (vs. was already cached or hydrated).
    fn interned_of(
        slot: &TraceSlot,
        benchmark: &Benchmark,
        data_set: DataSet,
        generated: &mut bool,
    ) -> Arc<InternedConds> {
        // Interning reads the full trace, so a hydrated interned form
        // without its trace must not force trace regeneration: only
        // consult the trace when interning actually needs to run.
        if let Some(interned) = slot.interned.get() {
            return Arc::clone(interned);
        }
        let trace = Self::trace_of(slot, benchmark, data_set, generated);
        Arc::clone(slot.interned.get_or_init(|| {
            *generated = true;
            Arc::new(InternedConds::from_trace(&trace))
        }))
    }

    /// Finds or creates the slot and, when the disk tier is on, hydrates
    /// it from its artifact file exactly once.
    fn slot_hydrated(&self, benchmark: &Benchmark, data_set: DataSet) -> Arc<TraceSlot> {
        let slot = self.slot(benchmark.name(), data_set.into());
        if let Some(disk) = &self.disk {
            slot.hydrated.get_or_init(|| disk.hydrate(&slot, benchmark, data_set));
        }
        slot
    }

    /// Re-persists the slot for `(benchmark, data_set)` with every form
    /// it holds, after something generated a new one; a no-op for
    /// memory-only stores.
    pub(crate) fn persist_slot(&self, benchmark: &Benchmark, data_set: DataSet) {
        if let Some(disk) = &self.disk {
            disk.persist(&self.slot(benchmark.name(), data_set.into()), benchmark, data_set);
        }
    }

    /// Bytes currently held by each cached trace form, across every slot
    /// in the store, plus the on-disk artifact footprint when the disk
    /// tier is enabled.
    #[must_use]
    pub fn cache_bytes(&self) -> CacheBytes {
        let mut bytes = CacheBytes::default();
        for slot in self.cache.read().expect("trace store lock").values() {
            if let Some(interned) = slot.interned.get() {
                bytes.interned += interned.len() * 4 + interned.distinct_pcs() * 8;
            }
            for cell in slot.streams.lock().expect("stream map lock").values() {
                if let Some(stream) = cell.get() {
                    bytes.streams += stream.bytes();
                }
            }
        }
        if let Some(disk) = &self.disk {
            bytes.disk = disk.disk_bytes();
        }
        bytes
    }

    /// Finds or inserts the (possibly uninitialized) slot for a key.
    fn slot(&self, name: &'static str, key: DataSetKey) -> Arc<TraceSlot> {
        if let Some(slot) = self.cache.read().expect("trace store lock").get(&(name, key)) {
            return Arc::clone(slot);
        }
        let mut cache = self.cache.write().expect("trace store lock");
        Arc::clone(cache.entry((name, key)).or_default())
    }

    /// Number of generated traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cache
            .read()
            .expect("trace store lock")
            .values()
            .filter(|slot| slot.trace.get().is_some())
            .count()
    }

    /// Whether no trace has been generated yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-form footprint of a [`TraceStore`]'s cache hierarchy, in bytes.
/// The repository benchmark records it per run, so the growing set of
/// cached forms stays visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBytes {
    /// Packed conditional streams: always 0, since the store keeps no
    /// packed form (interning packs into a buffer it drops). The field
    /// stays because the repository benchmark still records it.
    pub packed: usize,
    /// Interned conditional streams (4 bytes per event + the id→pc table).
    pub interned: usize,
    /// Materialized first-level pattern streams (4 bytes per event, plus
    /// 4 more per event for laned BHT-derived streams).
    pub streams: usize,
    /// On-disk artifact containers in the cache directory (0 for
    /// memory-only stores).
    pub disk: usize,
}

impl CacheBytes {
    /// Total bytes across all cached forms, in memory and on disk.
    #[must_use]
    pub fn total(self) -> usize {
        self.packed + self.interned + self.streams + self.disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_store() -> TraceStore {
        TraceStore::new()
    }

    #[test]
    fn store_caches() {
        let store = small_store();
        let b = Benchmark::by_name("li").unwrap();
        let first = store.get(b, DataSet::Testing);
        let second = store.get(b, DataSet::Testing);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn interned_stream_is_cached_and_consistent() {
        let store = small_store();
        let b = Benchmark::by_name("li").unwrap();
        let interned = store.get_interned(b, DataSet::Testing);
        assert_eq!(store.len(), 1, "interning generates the trace into the same slot");
        let packed = store.get(b, DataSet::Testing).pack_conditionals();
        assert_eq!(interned.len(), packed.len());
        for (event, cond) in interned.events().iter().zip(&packed) {
            assert_eq!(interned.record(*event), cond.to_record());
        }
        let again = store.get_interned(b, DataSet::Testing);
        assert!(Arc::ptr_eq(&interned, &again), "interning happens once");
        assert_eq!(store.len(), 1, "interned stream shares the trace slot");
    }

    #[test]
    fn pattern_streams_are_cached_per_key() {
        use tlabp_core::bht::{BhtConfig, BhtSignature};

        let store = small_store();
        let b = Benchmark::by_name("li").unwrap();
        let global = StreamKey::Global { history_bits: 8 };
        let bht =
            StreamKey::Bht(BhtSignature { config: BhtConfig::PAPER_DEFAULT, history_bits: 8 });
        let first = store.get_pattern_stream(b, DataSet::Testing, global);
        let again = store.get_pattern_stream(b, DataSet::Testing, global);
        assert!(Arc::ptr_eq(&first, &again), "derivation happens once per key");
        let other = store.get_pattern_stream(b, DataSet::Testing, bht);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(first.len(), store.get_interned(b, DataSet::Testing).len());
        assert_eq!(other.len(), first.len());
        assert!(!first.is_laned());
        assert!(other.is_laned());
        assert_eq!(store.len(), 1, "streams share the trace slot");
    }

    #[test]
    fn switch_schedules_are_cached_per_config() {
        let store = small_store();
        let b = Benchmark::by_name("gcc").unwrap();
        let paper = SimConfig::paper_context_switch();
        let first = store.get_switch_schedule(b, DataSet::Testing, &paper);
        let again = store.get_switch_schedule(b, DataSet::Testing, &paper);
        assert!(Arc::ptr_eq(&first, &again), "built once per config");
        assert_eq!(*first, SwitchSchedule::new(&store.get(b, DataSet::Testing), &paper));
        assert!(!first.is_empty(), "gcc traps");
        let traps_off = SimConfig {
            context_switch: Some(ContextSwitchConfig { on_traps: false, ..Default::default() }),
        };
        let other = store.get_switch_schedule(b, DataSet::Testing, &traps_off);
        assert!(other.total() < first.total(), "{} vs {}", other.total(), first.total());
        assert!(store
            .get_switch_schedule(b, DataSet::Testing, &SimConfig::no_context_switch())
            .is_empty());
        assert_eq!(store.len(), 1, "schedules share the trace slot");
    }

    #[test]
    fn cache_bytes_counts_every_form() {
        let store = small_store();
        assert_eq!(store.cache_bytes(), CacheBytes::default());
        let b = Benchmark::by_name("li").unwrap();
        let interned = store.get_interned(b, DataSet::Testing);
        let bytes = store.cache_bytes();
        assert_eq!(bytes.interned, interned.len() * 4 + interned.distinct_pcs() * 8);
        assert_eq!(bytes.streams, 0);
        let stream =
            store.get_pattern_stream(b, DataSet::Testing, StreamKey::Global { history_bits: 6 });
        let bytes = store.cache_bytes();
        assert_eq!(bytes.streams, stream.bytes());
        assert_eq!(bytes.packed, 0, "the store keeps no packed form");
        assert_eq!(bytes.disk, 0, "memory-only store has no disk footprint");
        assert_eq!(bytes.total(), bytes.interned + bytes.streams);
    }

    #[test]
    fn disk_tier_persists_and_rehydrates_slots() {
        let dir =
            std::env::temp_dir().join(format!("tlabp-suite-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = Benchmark::by_name("li").unwrap();
        let key = StreamKey::Global { history_bits: 6 };

        let store = TraceStore::with_cache_dir(&dir);
        assert_eq!(store.cache_dir(), Some(dir.as_path()));
        let interned = store.get_interned(b, DataSet::Testing);
        let stream = store.get_pattern_stream(b, DataSet::Testing, key);
        let bytes = store.cache_bytes();
        assert!(bytes.disk > 0, "persist should leave an artifact on disk");
        assert!(bytes.total() > bytes.interned + bytes.streams);

        // A fresh store over the same directory hydrates every form from
        // disk; the handles are new allocations with identical content.
        let warm = TraceStore::with_cache_dir(&dir);
        let warm_interned = warm.get_interned(b, DataSet::Testing);
        let warm_stream = warm.get_pattern_stream(b, DataSet::Testing, key);
        assert_eq!(*warm_interned, *interned);
        assert_eq!(*warm_stream, *stream);
        assert!(!Arc::ptr_eq(&warm_interned, &interned));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_getters_share_one_generation() {
        // The old store generated outside any lock and only the winner's
        // trace was cached: racing callers could each run the VM and end
        // up holding distinct copies. The per-slot OnceLock makes every
        // caller block on the single generating thread, so all handles
        // must alias.
        let store = small_store();
        let b = Benchmark::by_name("li").unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let store = store.clone();
                std::thread::spawn(move || store.get(b, DataSet::Testing))
            })
            .collect();
        let traces: Vec<Arc<Trace>> =
            handles.into_iter().map(|h| h.join().expect("getter thread")).collect();
        for trace in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], trace), "every caller shares one generation");
        }
        assert_eq!(store.len(), 1);
    }
}
