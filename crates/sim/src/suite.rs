//! The trace store: every benchmark trace a plan reads, generated once
//! and cached with the forms derived from it, in memory and on disk.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};

use tlabp_core::env::{Config, DirKnob};
use tlabp_trace::io::{
    read_artifact_sections, write_artifacts_chunked, write_file_atomic, ArtifactBundle, FileLock,
    ReadTraceError, Sections, ARTIFACT_VERSION_CHUNKED, DEFAULT_CHUNK_BYTES,
};
use tlabp_trace::{BranchStream, InternedConds, PatternStream, Trace};
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
/// A slot keeps resident the compact forms jobs read: the pc-interned
/// conditional stream every walk, every pattern-stream derivation and
/// every profiling pass reads; the pattern streams themselves, one per
/// [`StreamKey`]; and, once a job first asks, the context-switch
/// schedules and the [`BranchStream`] the instrumented pass reads.
/// Interning packs the conditional branches into a buffer it drops, so
/// no packed copy stays resident.
///
/// The full trace is transient. A slot holds it only while a reader
/// does ([`TraceStore::get`] hands out the `Arc` and the slot keeps a
/// [`Weak`]); once the last reader drops it, the next `get` loads it
/// again: a memory-only store reruns the VM, a disk-backed one decodes
/// the artifact's trace section alone. The loads that need it are
/// interning a slot the first time, building a schedule or a branch
/// stream, and the opt-in reference path.
///
/// One crate-private routine warms a slot: it hydrates the slot, loads
/// the trace only when the caller needs it or the slot is not yet
/// interned, interns, derives the pattern streams asked for and, when
/// it generated anything, writes the slot once. Every getter but the
/// schedule and branch-stream ones is that routine followed by a read
/// of the slot, and the engine's prefetch barrier calls it once per
/// slot its plan reads.
///
/// Each form initializes through its own lock: when many sweep cells
/// ask for the same missing form at once, exactly one thread derives
/// (or loads) it while the rest block on that slot — the map locks are
/// only ever held to find or insert the (empty) slot, never during
/// generation.
///
/// # Disk tier
///
/// A store built with [`TraceStore::persistent`],
/// [`TraceStore::from_env`] or [`TraceStore::with_cache_dir`]
/// additionally persists every slot as a v3 chunked artifact container
/// (`tlabp_trace::io`): on the first touch of a slot the store tries to
/// hydrate every form but the trace from
/// `<dir>/<bench>-<set>-v3-<fingerprint>.tlabp` without running the VM,
/// and it reads the trace section alone whenever a reader needs the
/// trace. Whenever a call that warms the slot generates or derives
/// something new, it re-writes the slot once, atomically (temp file +
/// rename), trace section included: the trace that call loaded, else
/// one a reader holds, else the section carried over from the file.
/// File names carry the container version and the workload fingerprint
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

type SlotMap = HashMap<(&'static str, DataSet), Arc<TraceSlot>>;

#[derive(Debug, Default)]
struct TraceSlot {
    // The full trace while a reader holds it. A load runs under the
    // lock, so concurrent readers share one load.
    trace: Mutex<Weak<Trace>>,
    // How many times the trace was loaded (generated or decoded), how
    // many of those loads ran the VM, and how many times the slot's
    // artifact was written.
    trace_loads: AtomicUsize,
    vm_runs: AtomicUsize,
    writes: AtomicUsize,
    interned: OnceLock<Arc<InternedConds>>,
    // One materialized first-level stream per StreamKey. The mutex guards
    // only the map (find or insert the cell); each cell's derivation runs
    // behind its own OnceLock, exactly like the interned form above.
    streams: Mutex<HashMap<StreamKey, Arc<OnceLock<Arc<PatternStream>>>>>,
    // One context-switch schedule per switch configuration, and the
    // branch stream, each built the same way from the full trace the
    // first time a job asks. Never persisted: a schedule is a few
    // hundred points and a branch stream one pass over the trace.
    schedules: Mutex<HashMap<ContextSwitchConfig, Arc<OnceLock<Arc<SwitchSchedule>>>>>,
    branches: OnceLock<Arc<BranchStream>>,
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

    /// The full trace, if a reader holds it now.
    fn resident_trace(&self) -> Option<Arc<Trace>> {
        self.trace.lock().expect("trace lock").upgrade()
    }

    /// Whether the slot holds any form: a trace some reader holds, or a
    /// derived form.
    fn holds_any_form(&self) -> bool {
        self.resident_trace().is_some()
            || self.interned.get().is_some()
            || self.branches.get().is_some()
            || self.streams.lock().expect("stream map lock").values().any(|c| c.get().is_some())
            || self.schedules.lock().expect("schedule map lock").values().any(|c| c.get().is_some())
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

    /// Reads `sections` of the slot's artifact file, or `None` when the
    /// file is missing or stale. A present-but-unreadable file warns and
    /// behaves as a miss (the next persist overwrites it).
    fn read(
        &self,
        slot: &TraceSlot,
        benchmark: &Benchmark,
        data_set: DataSet,
        sections: Sections,
    ) -> Option<ArtifactBundle> {
        let fingerprint = slot.fingerprint(benchmark, data_set);
        let path = self.path_for(benchmark.name(), data_set, fingerprint);
        let mut file = fs::File::open(&path).ok()?;
        match read_artifact_sections(&mut file, sections) {
            Ok(bundle) => (bundle.fingerprint == fingerprint).then_some(bundle),
            Err(ReadTraceError::Io { .. }) => None,
            Err(err) => {
                eprintln!(
                    "warning: ignoring corrupt trace artifact {} ({err}); regenerating",
                    path.display()
                );
                None
            }
        }
    }

    /// Fills every form but the trace that the slot's artifact file
    /// holds; the trace section stays on disk until a reader needs the
    /// trace.
    fn hydrate(&self, slot: &TraceSlot, benchmark: &Benchmark, data_set: DataSet) {
        let Some(bundle) = self.read(slot, benchmark, data_set, Sections::AllButTrace) else {
            return;
        };
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
    /// currently materialized, and with `trace`, the trace the caller
    /// holds, as its trace section. I/O failures warn and leave the
    /// previous file (if any) intact — persistence is an accelerator,
    /// never a correctness dependency.
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
    ///   materialized (the trace, when neither the caller nor any reader
    ///   holds it; disk-only pattern streams) are
    ///   carried into the rewrite. Without this, two clients deriving
    ///   *different* streams for the same trace would each overwrite the
    ///   other's work; with it, the artifact converges to the union.
    ///   In-memory forms win on conflict — they are what this store
    ///   measured with. A packed section is never carried over: the
    ///   rewrite holds only the forms a store reads.
    ///
    /// Readers need no lock at all: hydration re-validates every section
    /// checksum on open and treats a torn or corrupt file as a miss.
    fn persist(
        &self,
        slot: &TraceSlot,
        benchmark: &Benchmark,
        data_set: DataSet,
        trace: Option<&Trace>,
    ) {
        let _guard = slot.write_lock.lock().expect("slot write lock");
        slot.writes.fetch_add(1, Ordering::Relaxed);
        let fingerprint = slot.fingerprint(benchmark, data_set);
        let resident = if trace.is_none() { slot.resident_trace() } else { None };
        let trace = trace.or(resident.as_deref());
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
        // already persisted that this store never materialized. The
        // trace section is decoded only when there is no trace at hand.
        let sections = if trace.is_some() { Sections::AllButTrace } else { Sections::All };
        let existing = fs::File::open(&path)
            .ok()
            .and_then(|mut file| read_artifact_sections(&mut file, sections).ok())
            .filter(|bundle| bundle.fingerprint == fingerprint);
        let merged_trace: Option<&Trace> =
            trace.or(existing.as_ref().and_then(|b| b.trace.as_ref()));
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
        if let Err(err) = write_file_atomic(&path, &bytes) {
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

/// What a caller needs of one slot: the input of [`TraceStore::warm`].
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct SlotNeeds {
    /// The full trace, which `warm` returns.
    pub(crate) trace: bool,
    /// The pc-interned conditional stream.
    pub(crate) interned: bool,
    /// Pattern streams, each derived from the interned stream.
    pub(crate) streams: Vec<StreamKey>,
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
        self.slot(benchmark.name(), data_set).fingerprint(benchmark, data_set)
    }

    /// Returns the full trace for `(benchmark, data_set)`, loading it
    /// when no reader holds it: a memory-only store runs the VM, a
    /// disk-backed one decodes the trace section of the slot's artifact
    /// (and runs the VM only when that fails, writing the slot with the
    /// trace it generated). Concurrent callers for the same key block
    /// until the single loading thread finishes and share its trace.
    ///
    /// The store does not keep the trace: it is freed with the last
    /// handle this returns, so a caller holds it only while reading.
    #[must_use]
    pub fn get(&self, benchmark: &Benchmark, data_set: DataSet) -> Arc<Trace> {
        let needs = SlotNeeds { trace: true, ..SlotNeeds::default() };
        self.warm(benchmark, data_set, &needs).expect("a full-trace need returns the trace")
    }

    /// Returns the pc-interned conditional stream for
    /// `(benchmark, data_set)` — the input of
    /// [`crate::runner::simulate_fused`] and of every profiling pass —
    /// interning it on first use.
    ///
    /// The interned stream sits behind its slot's `OnceLock`, so it is
    /// derived exactly once per key however many cells race for it.
    /// Interning loads the trace (see [`TraceStore::get`]) and packs its
    /// conditional branches into a buffer it drops.
    #[must_use]
    pub fn get_interned(&self, benchmark: &Benchmark, data_set: DataSet) -> Arc<InternedConds> {
        let needs = SlotNeeds { interned: true, ..SlotNeeds::default() };
        self.warm(benchmark, data_set, &needs);
        let slot = self.slot(benchmark.name(), data_set);
        Arc::clone(slot.interned.get().expect("warming interns the slot"))
    }

    /// Returns the materialized first-level stream for
    /// `(benchmark, data_set, key)` — the input of
    /// [`crate::runner::simulate_replay_transposed`] — deriving it on first
    /// use.
    ///
    /// Keyed per first-level [`StreamKey`] rather than only per trace.
    /// The derivation reads the interned stream (interning it first if
    /// need be), each stage behind its own `OnceLock`, so every
    /// derivation happens exactly once per key however many replay cells
    /// race for it.
    #[must_use]
    pub fn get_pattern_stream(
        &self,
        benchmark: &Benchmark,
        data_set: DataSet,
        key: StreamKey,
    ) -> Arc<PatternStream> {
        let needs = SlotNeeds { streams: vec![key], ..SlotNeeds::default() };
        self.warm(benchmark, data_set, &needs);
        self.peek_pattern_stream(benchmark, data_set, key).expect("warming derives the stream")
    }

    /// Returns where `config`'s context switches fall in the trace for
    /// `(benchmark, data_set)` — the schedule
    /// [`crate::runner::simulate_fused`] takes — building it from the full
    /// trace on first use and keeping it in memory. Empty, without
    /// touching the slot, when `config` models no switches.
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

    /// Returns every branch of the trace for `(benchmark, data_set)` as a
    /// [`BranchStream`] — what the instrumented pass walks — building it
    /// from the full trace on first use and keeping it in memory.
    #[must_use]
    pub fn get_branch_stream(&self, benchmark: &Benchmark, data_set: DataSet) -> Arc<BranchStream> {
        let slot = self.slot_hydrated(benchmark, data_set);
        Arc::clone(
            slot.branches
                .get_or_init(|| Arc::new(BranchStream::from_trace(&self.get(benchmark, data_set)))),
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
            Arc::clone(cache.get(&(benchmark.name(), data_set))?)
        };
        let streams = slot.streams.lock().expect("stream map lock");
        streams.get(&key).and_then(|cell| cell.get()).map(Arc::clone)
    }

    /// Warms the slot for `(benchmark, data_set)` with every form
    /// `needs` lists, and returns the full trace when `needs.trace` asks
    /// for it.
    ///
    /// In order: it hydrates the slot; loads the trace, but only for a
    /// full-trace need or a first interning; interns; derives each
    /// listed pattern stream; and, when it generated anything (ran the
    /// VM, interned or derived) and the store has a disk tier, writes
    /// the slot once, while it still holds any trace it loaded. Each
    /// form initializes behind its own `OnceLock`, so it is derived
    /// exactly once however many callers race for it.
    pub(crate) fn warm(
        &self,
        benchmark: &Benchmark,
        data_set: DataSet,
        needs: &SlotNeeds,
    ) -> Option<Arc<Trace>> {
        let slot = self.slot_hydrated(benchmark, data_set);
        let mut generated = false;
        let mut trace =
            needs.trace.then(|| self.trace_of(&slot, benchmark, data_set, &mut generated));
        let cells: Vec<Arc<OnceLock<Arc<PatternStream>>>> = {
            let mut streams = slot.streams.lock().expect("stream map lock");
            needs.streams.iter().map(|&key| Arc::clone(streams.entry(key).or_default())).collect()
        };
        if needs.interned || cells.iter().any(|cell| cell.get().is_none()) {
            // The trace loads inside the `OnceLock`, so a hydrated or
            // already-derived stream never loads it, and racing callers
            // wait for one interning instead of each loading the trace.
            let interned = Arc::clone(slot.interned.get_or_init(|| {
                generated = true;
                let trace = trace.get_or_insert_with(|| {
                    self.trace_of(&slot, benchmark, data_set, &mut generated)
                });
                Arc::new(InternedConds::from_trace(trace))
            }));
            for (cell, &key) in cells.iter().zip(&needs.streams) {
                cell.get_or_init(|| {
                    generated = true;
                    Arc::new(derive_pattern_stream(&interned, key))
                });
            }
        }
        if let (true, Some(disk)) = (generated, &self.disk) {
            disk.persist(&slot, benchmark, data_set, trace.as_deref());
        }
        trace.filter(|_| needs.trace)
    }

    /// The slot's trace: the one a reader holds, else a new load under
    /// the slot's lock — the artifact's trace section when the disk tier
    /// has one, else the VM. Sets `generated` when the VM ran.
    fn trace_of(
        &self,
        slot: &TraceSlot,
        benchmark: &Benchmark,
        data_set: DataSet,
        generated: &mut bool,
    ) -> Arc<Trace> {
        let mut held = slot.trace.lock().expect("trace lock");
        if let Some(trace) = held.upgrade() {
            return trace;
        }
        slot.trace_loads.fetch_add(1, Ordering::Relaxed);
        let decoded = self.disk.as_ref().and_then(|disk| {
            disk.read(slot, benchmark, data_set, Sections::TraceOnly).and_then(|b| b.trace)
        });
        let trace = Arc::new(decoded.unwrap_or_else(|| {
            *generated = true;
            slot.vm_runs.fetch_add(1, Ordering::Relaxed);
            benchmark.trace(data_set)
        }));
        *held = Arc::downgrade(&trace);
        trace
    }

    /// Finds or creates the slot and, when the disk tier is on, hydrates
    /// it from its artifact file exactly once.
    fn slot_hydrated(&self, benchmark: &Benchmark, data_set: DataSet) -> Arc<TraceSlot> {
        let slot = self.slot(benchmark.name(), data_set);
        if let Some(disk) = &self.disk {
            slot.hydrated.get_or_init(|| disk.hydrate(&slot, benchmark, data_set));
        }
        slot
    }

    /// Bytes currently held by each cached trace form, across every slot
    /// in the store, plus the on-disk artifact footprint when the disk
    /// tier is enabled.
    #[must_use]
    pub fn cache_bytes(&self) -> CacheBytes {
        let mut bytes = CacheBytes::default();
        for slot in self.cache.read().expect("trace store lock").values() {
            if let Some(trace) = slot.resident_trace() {
                bytes.traces += trace.allocated_bytes();
            }
            if let Some(interned) = slot.interned.get() {
                bytes.interned += interned.len() * 4 + interned.distinct_pcs() * 8;
            }
            if let Some(branches) = slot.branches.get() {
                bytes.branches += branches.bytes();
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
    fn slot(&self, name: &'static str, data_set: DataSet) -> Arc<TraceSlot> {
        if let Some(slot) = self.cache.read().expect("trace store lock").get(&(name, data_set)) {
            return Arc::clone(slot);
        }
        let mut cache = self.cache.write().expect("trace store lock");
        Arc::clone(cache.entry((name, data_set)).or_default())
    }

    /// Number of traces the store holds any form of: a full trace some
    /// reader holds, an interned stream, a pattern stream, a switch
    /// schedule or a branch stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cache.read().expect("trace store lock").values().filter(|s| s.holds_any_form()).count()
    }

    /// Whether the store holds no form of any trace.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times the store has loaded a full trace, by the VM or
    /// from an artifact, across every slot.
    #[cfg(test)]
    pub(crate) fn trace_loads(&self) -> usize {
        self.count(|slot| &slot.trace_loads)
    }

    /// How many of those loads ran the VM.
    #[cfg(test)]
    pub(crate) fn vm_runs(&self) -> usize {
        self.count(|slot| &slot.vm_runs)
    }

    /// How many times the store has written an artifact, across every
    /// slot.
    #[cfg(test)]
    pub(crate) fn artifact_writes(&self) -> usize {
        self.count(|slot| &slot.writes)
    }

    #[cfg(test)]
    fn count(&self, counter: impl Fn(&TraceSlot) -> &AtomicUsize) -> usize {
        let cache = self.cache.read().expect("trace store lock");
        cache.values().map(|slot| counter(slot).load(Ordering::Relaxed)).sum()
    }
}

/// Per-form footprint of a [`TraceStore`]'s cache hierarchy, in bytes.
/// The repository benchmark records it per run, so the growing set of
/// cached forms stays visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBytes {
    /// Full traces some reader holds now (their allocated capacity): 0
    /// whenever no reader runs, since the store keeps no trace.
    pub traces: usize,
    /// Packed conditional streams: always 0, since the store keeps no
    /// packed form (interning packs into a buffer it drops). The field
    /// stays because the repository benchmark still records it.
    pub packed: usize,
    /// Interned conditional streams (4 bytes per event + the id→pc table).
    pub interned: usize,
    /// Materialized first-level pattern streams (4 bytes per event, plus
    /// 4 more per event for laned BHT-derived streams).
    pub streams: usize,
    /// Branch streams of the instrumented pass (4 bytes per branch plus
    /// the table of distinct branch sites).
    pub branches: usize,
    /// On-disk artifact containers in the cache directory (0 for
    /// memory-only stores).
    pub disk: usize,
}

impl CacheBytes {
    /// Total bytes across all cached forms, in memory and on disk.
    #[must_use]
    pub fn total(self) -> usize {
        self.traces + self.packed + self.interned + self.streams + self.branches + self.disk
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
        assert_eq!(bytes.traces, 0, "interning keeps no trace");
        let stream =
            store.get_pattern_stream(b, DataSet::Testing, StreamKey::Global { history_bits: 6 });
        let branches = store.get_branch_stream(b, DataSet::Testing);
        let bytes = store.cache_bytes();
        assert_eq!(bytes.streams, stream.bytes());
        assert_eq!(bytes.branches, branches.bytes());
        assert_eq!(bytes.packed, 0, "the store keeps no packed form");
        assert_eq!(bytes.disk, 0, "memory-only store has no disk footprint");
        assert_eq!(bytes.total(), bytes.interned + bytes.streams + bytes.branches);
        let trace = store.get(b, DataSet::Testing);
        assert_eq!(store.cache_bytes().traces, trace.allocated_bytes(), "a held trace counts");
        drop(trace);
        assert_eq!(store.cache_bytes().traces, 0);
    }

    /// A slot holds its trace only while a reader does: readers that
    /// overlap share one load, a trace no one holds is freed, and the
    /// next reader loads it again, identical.
    #[test]
    fn the_trace_lives_only_while_a_reader_holds_it() {
        let store = small_store();
        let b = Benchmark::by_name("li").unwrap();
        let interned = store.get_interned(b, DataSet::Testing);
        assert_eq!(store.trace_loads(), 1, "interning loads the trace once");
        assert_eq!(store.cache_bytes().traces, 0, "and drops it");
        let _ =
            store.get_pattern_stream(b, DataSet::Testing, StreamKey::Global { history_bits: 6 });
        assert_eq!(store.trace_loads(), 1, "a stream derives from the interned form");

        let first = store.get(b, DataSet::Testing);
        let second = store.get(b, DataSet::Testing);
        assert!(Arc::ptr_eq(&first, &second), "overlapping readers share one load");
        assert_eq!(store.trace_loads(), 2);
        assert_eq!(InternedConds::from_trace(&first), *interned);
        let weak = Arc::downgrade(&first);
        drop((first, second));
        assert!(weak.upgrade().is_none(), "the store keeps no trace");
        assert_eq!(store.len(), 1, "the slot still holds its other forms");

        let again = store.get(b, DataSet::Testing);
        assert_eq!(store.trace_loads(), 3, "a later reader loads it again");
        assert_eq!(InternedConds::from_trace(&again), *interned);
        let _ = store.get_branch_stream(b, DataSet::Testing);
        assert_eq!(store.trace_loads(), 3, "the branch stream reads the held trace");
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
        assert_eq!(bytes.traces, 0, "the VM's trace went with the write");

        // A fresh store over the same directory hydrates every form from
        // disk; the handles are new allocations with identical content.
        let warm = TraceStore::with_cache_dir(&dir);
        let warm_interned = warm.get_interned(b, DataSet::Testing);
        let warm_stream = warm.get_pattern_stream(b, DataSet::Testing, key);
        assert_eq!(*warm_interned, *interned);
        assert_eq!(*warm_stream, *stream);
        assert!(!Arc::ptr_eq(&warm_interned, &interned));
        assert_eq!(warm.trace_loads(), 0, "hydration leaves the trace section on disk");

        // The trace loads from its section alone, without the VM, and
        // nothing is rewritten.
        let trace = warm.get(b, DataSet::Testing);
        assert_eq!((warm.trace_loads(), warm.vm_runs()), (1, 0), "decoded, not generated");
        assert_eq!(warm.artifact_writes(), 0);
        assert_eq!(*trace, b.trace(DataSet::Testing));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Warming a cold disk-backed slot without a full-trace need loads
    /// the trace once, writes the slot once with it, and keeps none; a
    /// store reopened on the directory decodes that trace section
    /// instead of running the VM.
    #[test]
    fn warming_a_cold_disk_slot_writes_the_trace_it_loaded_and_keeps_none() {
        let dir =
            std::env::temp_dir().join(format!("tlabp-suite-warm-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (b, set) = (Benchmark::by_name("eqntott").unwrap(), DataSet::Testing);
        let needs = SlotNeeds {
            trace: false,
            interned: true,
            streams: vec![StreamKey::Global { history_bits: 6 }],
        };

        let store = TraceStore::with_cache_dir(&dir);
        assert!(store.warm(b, set, &needs).is_none(), "no full trace was asked for");
        assert_eq!(store.cache_bytes().traces, 0, "the loaded trace went with the write");
        assert_eq!((store.vm_runs(), store.artifact_writes()), (1, 1));

        let reopened = TraceStore::with_cache_dir(&dir);
        assert!(reopened.warm(b, set, &needs).is_none());
        let trace = reopened.get(b, set);
        assert_eq!((reopened.trace_loads(), reopened.vm_runs()), (1, 0), "the section decodes");
        assert_eq!(reopened.artifact_writes(), 0, "a hydrated slot is not rewritten");
        assert_eq!(*trace, b.trace(set));

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
