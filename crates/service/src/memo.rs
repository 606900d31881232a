//! The daemon's two memo tiers.
//!
//! **In memory** — [`MemoCache`]: a byte-capped LRU keyed by the
//! canonical plan JSON, holding each memoized response as its
//! pre-encoded `result` frame payloads. Replaying the exact stored
//! strings (never re-encoding a `ResultSet`) is what makes a memo hit
//! byte-identical to the original response by construction. The cap
//! counts what the cache actually holds — the pre-encoded frame bytes
//! plus the key — so `TLABP_SERVE_MEMO_BYTES` bounds real memory, not
//! an entry count.
//!
//! **On disk** — [`MemoDisk`]: every completed cold response is also
//! persisted next to the trace artifacts as a v3 artifact container
//! ([`tlabp_trace::io::write_text_sections`]) of text sections: the
//! canonical plan JSON, then each frame payload, under the workload
//! fingerprint. It is named `<plan_hash>-<workload_fingerprint>.tlabm`:
//!
//! * `plan_hash` is [`Plan::wire_hash`] of the canonical plan JSON —
//!   the same key equality the in-memory tier uses, compressed to a
//!   file name; the full JSON is stored *inside* the artifact and
//!   re-verified on hydration, so a 64-bit collision can waste a file
//!   name but never serve the wrong response.
//! * `workload_fingerprint` folds the workload fingerprints
//!   ([`Benchmark::fingerprint`]) of every workload the plan touches,
//!   so editing a workload generator or the VM strands the old response
//!   under a name that is simply never looked up again — the same
//!   self-invalidation discipline as the trace disk tier. The
//!   fingerprints come from the server's [`TraceStore`], which computes
//!   each once per store, so neither a persist nor startup hydration
//!   regenerates a program the daemon has already fingerprinted.
//!
//! Writes go through the shared artifact filesystem machinery
//! (advisory [`FileLock`] + [`write_file_atomic`]), and reads through
//! the container's one verifying reader ([`read_artifacts`]): readers
//! never see a torn file, and a corrupt or stale file hydrates as a
//! miss, never as wrong bytes. A daemon restarted over the same
//! directory hydrates every valid artifact into the LRU before
//! accepting connections, so previously-seen plans replay with zero
//! simulation work.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tlabp_sim::plan::Plan;
use tlabp_sim::TraceStore;
use tlabp_trace::io::{
    checksum, read_artifacts, write_file_atomic, write_text_sections, FileLock, ReadTraceError,
    DEFAULT_CHUNK_BYTES,
};
use tlabp_workloads::{Benchmark, DataSet};

/// A memoized response: the pre-encoded `result` frame payloads, in
/// plan order, shared between the cache and any connection currently
/// replaying them.
pub(crate) type MemoEntry = Arc<Vec<String>>;

/// Bytes a cached response accounts for: its frame payloads plus its
/// key (the canonical plan JSON the map stores alongside).
pub(crate) fn entry_cost(key: &str, frames: &[String]) -> usize {
    key.len() + frames.iter().map(String::len).sum::<usize>()
}

/// One cached response plus its LRU bookkeeping.
#[derive(Debug)]
struct Slot {
    frames: MemoEntry,
    cost: usize,
    last_used: u64,
}

/// Byte-capped LRU memo cache keyed by canonical plan JSON.
#[derive(Debug)]
pub(crate) struct MemoCache {
    cap_bytes: usize,
    used_bytes: usize,
    tick: u64,
    entries: HashMap<String, Slot>,
}

impl MemoCache {
    /// A cache bounded to `cap_bytes` of pre-encoded frame bytes (plus
    /// keys); 0 disables memoization entirely.
    pub(crate) fn new(cap_bytes: usize) -> MemoCache {
        MemoCache { cap_bytes, used_bytes: 0, tick: 0, entries: HashMap::new() }
    }

    /// Looks `key` up and, on a hit, marks the entry most-recently used.
    pub(crate) fn get(&mut self, key: &str) -> Option<MemoEntry> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|slot| {
            slot.last_used = tick;
            Arc::clone(&slot.frames)
        })
    }

    /// Inserts a response, evicting least-recently-used entries until it
    /// fits. An entry that alone exceeds the cap is not cached (evicting
    /// the whole cache for one oversized response would thrash), and a
    /// key already present is left as is — responses are deterministic,
    /// so a second computation is byte-identical anyway.
    pub(crate) fn insert(&mut self, key: &str, frames: MemoEntry) {
        let cost = entry_cost(key, &frames);
        if self.cap_bytes == 0 || cost > self.cap_bytes || self.entries.contains_key(key) {
            return;
        }
        while self.used_bytes + cost > self.cap_bytes {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            if let Some(slot) = self.entries.remove(&oldest) {
                self.used_bytes -= slot.cost;
            }
        }
        self.tick += 1;
        self.used_bytes += cost;
        self.entries.insert(key.to_owned(), Slot { frames, cost, last_used: self.tick });
    }

    /// Bytes currently held (pre-encoded frames plus keys).
    pub(crate) fn bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of cached responses.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Folds the workload fingerprints of every workload `plan` touches into
/// one u64 — the staleness guard in a memo artifact's name — reading
/// each from `store` ([`TraceStore::fingerprint`]). Both data sets are
/// folded for every benchmark the plan names (profiled schemes consume
/// training traces implicitly, so the conservative fold over-invalidates
/// rather than ever serving a response computed from edited workloads).
pub(crate) fn plan_workload_fingerprint(plan: &Plan, store: &TraceStore) -> u64 {
    fold_workload_fingerprints(plan, |bench, set| store.fingerprint(bench, set))
}

/// The fold behind [`plan_workload_fingerprint`], over any source of
/// per-trace fingerprints.
fn fold_workload_fingerprints(
    plan: &Plan,
    mut fingerprint: impl FnMut(&Benchmark, DataSet) -> u64,
) -> u64 {
    let mut benchmarks: Vec<&'static Benchmark> =
        plan.jobs().iter().map(|job| job.trace.benchmark).collect();
    benchmarks.sort_by_key(|bench| bench.name());
    benchmarks.dedup_by_key(|bench| bench.name());
    let mut folded = Vec::new();
    for bench in benchmarks {
        folded.extend_from_slice(bench.name().as_bytes());
        folded.push(0);
        folded.extend_from_slice(&fingerprint(bench, DataSet::Testing).to_le_bytes());
        if bench.has_training_set() {
            folded.extend_from_slice(&fingerprint(bench, DataSet::Training).to_le_bytes());
        }
    }
    checksum(&folded)
}

/// The persistent memo tier: one memo artifact per memoized plan under
/// a directory next to the trace artifacts, optionally bounded to a
/// byte budget (`TLABP_SERVE_MEMO_DISK_BYTES`) enforced by aging out
/// the oldest artifacts first.
#[derive(Debug)]
pub(crate) struct MemoDisk {
    dir: PathBuf,
    /// Byte cap over all `.tlabm` files; `None` = unbounded.
    cap_bytes: Option<usize>,
}

impl MemoDisk {
    pub(crate) fn new(dir: PathBuf, cap_bytes: Option<usize>) -> MemoDisk {
        MemoDisk { dir, cap_bytes }
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, plan_hash: u64, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{plan_hash:016x}-{fingerprint:016x}.tlabm"))
    }

    /// Persists one completed response, its workload fingerprints read
    /// from `store`. Failures warn and are otherwise ignored — the
    /// persistent tier is an accelerator, never a correctness
    /// dependency.
    pub(crate) fn persist(&self, store: &TraceStore, plan: &Plan, key: &str, frames: &[String]) {
        let fingerprint = plan_workload_fingerprint(plan, store);
        let path = self.path_for(plan.wire_hash(), fingerprint);
        if let Err(err) = std::fs::create_dir_all(&self.dir) {
            eprintln!(
                "warning: cannot create memo directory {} ({err}); response not persisted",
                self.dir.display()
            );
            return;
        }
        let texts: Vec<&str> =
            std::iter::once(key).chain(frames.iter().map(String::as_str)).collect();
        let bytes = write_text_sections(fingerprint, &texts, DEFAULT_CHUNK_BYTES);
        let _lock = FileLock::acquire(&path.with_extension("tlabm.lock"));
        if let Err(err) = write_file_atomic(&path, &bytes) {
            eprintln!("warning: failed to write memo artifact {} ({err})", path.display());
        }
        self.enforce_budget();
    }

    /// Every `.tlabm` artifact in the directory with its modification
    /// time and size, oldest first: the one listing behind hydration
    /// and the byte budget.
    fn artifacts_by_age(&self) -> Vec<(std::time::SystemTime, PathBuf, usize)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut files: Vec<(std::time::SystemTime, PathBuf, usize)> = entries
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "tlabm"))
            .filter_map(|path| {
                let meta = std::fs::metadata(&path).ok()?;
                let modified = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                Some((modified, path, meta.len() as usize))
            })
            .collect();
        files.sort();
        files
    }

    /// Ages out the oldest artifacts until the tier fits its byte cap.
    ///
    /// Called after every persist and once at daemon startup, so the
    /// budget holds across restarts and across daemons sharing one
    /// directory (each enforces after its own writes; eviction of a
    /// file another daemon still holds in its LRU is harmless — the
    /// in-memory entry keeps serving, only the restart-survival copy is
    /// gone). A missing file at removal time just means a concurrent
    /// enforcer got there first.
    pub(crate) fn enforce_budget(&self) {
        let Some(cap) = self.cap_bytes else { return };
        let files = self.artifacts_by_age();
        let mut total: usize = files.iter().map(|(_, _, size)| size).sum();
        for (_, path, size) in files {
            if total <= cap {
                break;
            }
            match std::fs::remove_file(&path) {
                Ok(()) => total -= size,
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => total -= size,
                Err(err) => {
                    eprintln!("warning: cannot evict memo artifact {} ({err})", path.display());
                }
            }
        }
    }

    /// Total bytes of `.tlabm` artifacts currently in the directory.
    #[cfg(test)]
    pub(crate) fn disk_bytes(&self) -> usize {
        self.artifacts_by_age().iter().map(|(_, _, size)| size).sum()
    }

    /// Reads every valid memo artifact in the directory, oldest first
    /// (so inserting them in order leaves the most recently written
    /// entries hottest in the LRU). A corrupt file warns; a stale one
    /// (see [`MemoDisk::load`]) is skipped quietly.
    pub(crate) fn hydrate(&self, store: &TraceStore) -> Vec<(String, MemoEntry)> {
        let mut hydrated = Vec::new();
        for (_, path, _) in self.artifacts_by_age() {
            match MemoDisk::load(&path, store) {
                Ok(Some(entry)) => hydrated.push(entry),
                Ok(None) => {}
                Err(err) => {
                    eprintln!("warning: ignoring corrupt memo artifact {} ({err})", path.display());
                }
            }
        }
        hydrated
    }

    /// One memo file's response, re-verified before it is trusted: the
    /// container must decode, its stored plan must parse, render
    /// canonically to the stored key byte-for-byte, and fold to the
    /// *current* workload fingerprint (read from `store`) that the
    /// container records. `Ok(None)` is a stale file: unreadable by
    /// now, of another container version or of the retired `TLBM` memo
    /// format, a plan of another wire version or of edited workloads,
    /// or no plan at all. `Err` is a corrupt one.
    fn load(
        path: &Path,
        store: &TraceStore,
    ) -> Result<Option<(String, MemoEntry)>, ReadTraceError> {
        let Ok(bytes) = std::fs::read(path) else { return Ok(None) };
        let bundle = match read_artifacts(&bytes) {
            Ok(bundle) => bundle,
            Err(ReadTraceError::UnsupportedVersion { .. }) => return Ok(None),
            Err(ReadTraceError::BadMagic { found }) if &found == b"TLBM" => return Ok(None),
            Err(err) => return Err(err),
        };
        let mut texts = bundle.texts.into_iter();
        let Some(key) = texts.next() else { return Ok(None) };
        let Ok(plan) = Plan::from_json_str(&key) else { return Ok(None) };
        let fresh = plan.to_json_string() == key
            && plan_workload_fingerprint(&plan, store) == bundle.fingerprint;
        Ok(fresh.then(|| (key, Arc::new(texts.collect()))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn entry(frames: &[&str]) -> MemoEntry {
        Arc::new(frames.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn lru_evicts_least_recently_used_when_over_byte_cap() {
        // Keys and frames are 8 bytes each: every entry costs 16 bytes.
        let mut cache = MemoCache::new(40);
        cache.insert("key-aaaa", entry(&["frame-a1"]));
        cache.insert("key-bbbb", entry(&["frame-b1"]));
        assert_eq!((cache.len(), cache.bytes()), (2, 32));
        // Touch A so B becomes the LRU victim.
        assert!(cache.get("key-aaaa").is_some());
        cache.insert("key-cccc", entry(&["frame-c1"]));
        assert_eq!(cache.len(), 2, "inserting C over cap evicts exactly one entry");
        assert!(cache.get("key-bbbb").is_none(), "the least-recently-used entry is evicted");
        assert!(cache.get("key-aaaa").is_some());
        assert!(cache.get("key-cccc").is_some());
        assert_eq!(cache.bytes(), 32);
    }

    #[test]
    fn oversized_entries_and_zero_cap_are_not_cached() {
        let mut cache = MemoCache::new(10);
        cache.insert("key", entry(&["a frame far larger than the whole cache"]));
        assert_eq!((cache.len(), cache.bytes()), (0, 0));

        let mut disabled = MemoCache::new(0);
        disabled.insert("key", entry(&["x"]));
        assert!(disabled.get("key").is_none(), "cap 0 disables memoization");
    }

    #[test]
    fn reinserting_an_existing_key_is_a_no_op() {
        let mut cache = MemoCache::new(1 << 10);
        cache.insert("key", entry(&["first"]));
        cache.insert("key", entry(&["second"]));
        assert_eq!(cache.get("key").unwrap()[0], "first");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_budget_ages_out_oldest_artifacts_first() {
        let dir = std::env::temp_dir().join(format!("tlabp-memo-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("memo dir");

        // Four 100-byte artifacts with strictly increasing mtimes set
        // explicitly (never sleep-derived, so the ordering is exact).
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        for (index, name) in ["a", "b", "c", "d"].iter().enumerate() {
            let path = dir.join(format!("{name}.tlabm"));
            std::fs::write(&path, [0u8; 100]).expect("write artifact");
            let file = std::fs::File::options().append(true).open(&path).expect("open");
            file.set_modified(epoch + Duration::from_secs(1000 + index as u64)).expect("set mtime");
        }

        // Unbounded: nothing is evicted.
        let unbounded = MemoDisk::new(dir.clone(), None);
        unbounded.enforce_budget();
        assert_eq!(unbounded.disk_bytes(), 400);

        // A 250-byte cap keeps the two newest whole artifacts: the two
        // oldest age out, newest-first survivors untouched.
        let capped = MemoDisk::new(dir.clone(), Some(250));
        capped.enforce_budget();
        assert_eq!(capped.disk_bytes(), 200);
        assert!(!dir.join("a.tlabm").exists(), "oldest evicted");
        assert!(!dir.join("b.tlabm").exists(), "second-oldest evicted");
        assert!(dir.join("c.tlabm").exists() && dir.join("d.tlabm").exists());

        // Already under budget: enforcement is a no-op.
        capped.enforce_budget();
        assert_eq!(capped.disk_bytes(), 200);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_enforces_the_disk_budget() {
        use tlabp_core::config::SchemeConfig;
        use tlabp_sim::plan::Job;

        let dir = std::env::temp_dir().join(format!("tlabp-memo-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("memo dir");

        // An old artifact that must age out once real persists push the
        // tier over a tiny cap.
        let stale = dir.join("stale.tlabm");
        std::fs::write(&stale, [0u8; 64]).expect("write stale");
        let file = std::fs::File::options().append(true).open(&stale).expect("open");
        file.set_modified(std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1))
            .expect("set mtime");

        let li = Benchmark::by_name("li").expect("li exists");
        let plan: Plan = [Job::scheme(SchemeConfig::btfn(), li)].into_iter().collect();
        let key = plan.to_json_string();
        let disk = MemoDisk::new(dir.clone(), Some(1)); // smaller than any artifact
        disk.persist(&TraceStore::new(), &plan, &key, &["frame".to_owned()]);
        assert!(!stale.exists(), "persist evicts the stale artifact");
        // With a cap below a single artifact, even the fresh write ages
        // out — the budget is a hard bound, mirroring the in-memory
        // LRU's oversized-entry rule.
        assert_eq!(disk.disk_bytes(), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-job plan on li, its canonical key, and a memo directory
    /// holding its persisted response (one `"frame"`), fresh for `test`.
    fn persisted_btfn(test: &str) -> (PathBuf, Plan, String, TraceStore) {
        use tlabp_core::config::SchemeConfig;
        use tlabp_sim::plan::Job;

        let dir = std::env::temp_dir().join(format!("tlabp-memo-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let li = Benchmark::by_name("li").expect("li exists");
        let plan: Plan = [Job::scheme(SchemeConfig::btfn(), li)].into_iter().collect();
        let key = plan.to_json_string();
        let store = TraceStore::new();
        MemoDisk::new(dir.clone(), None).persist(&store, &plan, &key, &["frame".to_owned()]);
        (dir, plan, key, store)
    }

    /// A memo file whose chunk declares more bytes than the file holds
    /// (its head checksum re-stamped, so only the length check can
    /// catch it) is corrupt: it hydrates as a miss next to a good
    /// artifact, so one such file cannot stop the daemon from starting.
    #[test]
    fn hydrate_skips_a_memo_file_with_an_inflated_chunk_length() {
        let (dir, _, key, store) = persisted_btfn("inflated");
        // One text section of one chunk after the 18-byte header: kind
        // (1), meta length (4), meta (8), chunk count (4), then the chunk
        // table (encoded length at 35..43) and the head checksum (59..67).
        let mut bad = write_text_sections(7, &["{}"], DEFAULT_CHUNK_BYTES);
        bad[35..43].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        let head = checksum(&bad[18..59]);
        bad[59..67].copy_from_slice(&head.to_le_bytes());
        let path = dir.join("inflated.tlabm");
        std::fs::write(&path, &bad).expect("write bad artifact");
        assert_eq!(
            MemoDisk::load(&path, &store).unwrap_err(),
            ReadTraceError::Truncated { at_event: 0 }
        );

        let hydrated = MemoDisk::new(dir.clone(), None).hydrate(&store);
        assert_eq!(hydrated.len(), 1, "only the good artifact hydrates");
        assert_eq!(hydrated[0].0, key);
        assert_eq!(*hydrated[0].1, vec!["frame".to_owned()]);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `.tlabm` file of the retired `TLBM` memo format (here the plan
    /// section of one, as earlier daemons wrote it) is stale, not
    /// corrupt: it hydrates as a miss, with no warning, beside a v3
    /// artifact of the same plan.
    #[test]
    fn hydrate_skips_a_retired_tlbm_memo_file_as_stale() {
        let (dir, plan, key, store) = persisted_btfn("retired");
        let mut old = b"TLBM".to_vec();
        old.extend_from_slice(&1u16.to_le_bytes());
        old.extend_from_slice(&plan.wire_hash().to_le_bytes());
        old.extend_from_slice(&plan_workload_fingerprint(&plan, &store).to_le_bytes());
        old.extend_from_slice(&1u32.to_le_bytes());
        old.push(1);
        old.extend_from_slice(&(key.len() as u64).to_le_bytes());
        old.extend_from_slice(key.as_bytes());
        old.extend_from_slice(&checksum(key.as_bytes()).to_le_bytes());
        let path = dir.join("retired.tlabm");
        std::fs::write(&path, &old).expect("write retired artifact");
        assert_eq!(MemoDisk::load(&path, &store), Ok(None), "stale, not corrupt");

        let hydrated = MemoDisk::new(dir.clone(), None).hydrate(&store);
        assert_eq!(hydrated.len(), 1, "only the v3 artifact hydrates");
        assert_eq!(hydrated[0].0, key);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_fingerprint_is_order_insensitive_and_workload_sensitive() {
        use tlabp_core::config::SchemeConfig;
        use tlabp_sim::plan::Job;
        let li = Benchmark::by_name("li").expect("li exists");
        let gcc = Benchmark::by_name("gcc").expect("gcc exists");
        let ab: Plan =
            [Job::scheme(SchemeConfig::btfn(), li), Job::scheme(SchemeConfig::btfn(), gcc)]
                .into_iter()
                .collect();
        let ba: Plan =
            [Job::scheme(SchemeConfig::btfn(), gcc), Job::scheme(SchemeConfig::btfn(), li)]
                .into_iter()
                .collect();
        let a_only: Plan = [Job::scheme(SchemeConfig::btfn(), li)].into_iter().collect();
        let store = TraceStore::new();
        assert_eq!(
            plan_workload_fingerprint(&ab, &store),
            plan_workload_fingerprint(&ba, &store),
            "the fold depends on the workload set, not job order"
        );
        assert_ne!(
            plan_workload_fingerprint(&ab, &store),
            plan_workload_fingerprint(&a_only, &store)
        );
    }

    /// The store hands out what [`Benchmark::fingerprint`] computes, so
    /// the store-backed fold names a memo artifact exactly as the fold
    /// over freshly computed fingerprints would: from a memory-only
    /// store, and from a disk-backed one whose `li` slot is already
    /// filled.
    #[test]
    fn store_backed_fold_equals_the_fold_over_benchmark_fingerprints() {
        use tlabp_core::config::SchemeConfig;
        use tlabp_sim::plan::Job;
        let plan: Plan = ["li", "eqntott", "gcc"]
            .iter()
            .map(|name| Benchmark::by_name(name).expect("benchmark exists"))
            .map(|bench| Job::scheme(SchemeConfig::profiling(), bench))
            .collect();
        let expected = fold_workload_fingerprints(&plan, |bench, set| bench.fingerprint(set));
        let dir = std::env::temp_dir().join(format!("tlabp-memo-fold-{}", std::process::id()));
        let on_disk = TraceStore::with_cache_dir(&dir);
        let li = Benchmark::by_name("li").expect("li exists");
        let _ = on_disk.get_interned(li, DataSet::Testing);
        for store in [TraceStore::new(), on_disk] {
            assert_eq!(plan_workload_fingerprint(&plan, &store), expected);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
