//! Branch history tables (first-level storage) — Section 3.3 of the paper.
//!
//! The per-address schemes (PAg, PAp) keep one history register per static
//! conditional branch. The paper studies two implementations:
//!
//! * an **ideal** BHT ([`IdealBht`]) with one history register per static
//!   branch, used to show the accuracy loss of practical tables, and
//! * a **practical** BHT ([`CacheBht`]) organized as a direct-mapped or
//!   set-associative cache with address tags and LRU replacement.
//!
//! Both honor the paper's miss policy (Section 4.2): a newly allocated
//! history register "is initialized to all 1's"; after the result of the
//! missing branch is known, "the result bit is extended throughout the
//!   history register".

use crate::fxhash::FxHashMap;
use crate::history::HistoryRegister;

/// Selects a branch history table implementation for the per-address
/// schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BhtConfig {
    /// One history register per static branch, never evicted (IBHT).
    Ideal,
    /// A cache of `entries` history registers, `ways`-way set-associative
    /// (`ways = 1` is direct-mapped), LRU replacement within a set.
    Cache {
        /// Total number of entries: `ways ×` a power of two, at most
        /// [`MAX_TABLE_ENTRIES`](crate::geometry::MAX_TABLE_ENTRIES).
        entries: usize,
        /// Set associativity.
        ways: usize,
    },
}

impl BhtConfig {
    /// The paper's default practical configuration: 4-way set-associative,
    /// 512 entries (Section 5.2 selects it as "simple enough to be
    /// implemented").
    pub const PAPER_DEFAULT: BhtConfig = BhtConfig::Cache { entries: 512, ways: 4 };

    /// The four practical configurations of Figure 10 plus the ideal table.
    pub const FIGURE10: [BhtConfig; 5] = [
        BhtConfig::Ideal,
        BhtConfig::Cache { entries: 512, ways: 4 },
        BhtConfig::Cache { entries: 512, ways: 1 },
        BhtConfig::Cache { entries: 256, ways: 4 },
        BhtConfig::Cache { entries: 256, ways: 1 },
    ];

    /// Builds the table for `history_bits`-bit history registers.
    ///
    /// # Panics
    ///
    /// Panics if a cache geometry is invalid (see [`CacheBht::new`]).
    #[must_use]
    pub fn build(self, history_bits: u32) -> BranchHistoryTable {
        match self {
            BhtConfig::Ideal => BranchHistoryTable::Ideal(IdealBht::new(history_bits)),
            BhtConfig::Cache { entries, ways } => {
                BranchHistoryTable::Cache(CacheBht::new(entries, ways, history_bits))
            }
        }
    }

    /// A short label, e.g. `IBHT`, `512x4`, `256x1`.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            BhtConfig::Ideal => "IBHT".to_owned(),
            BhtConfig::Cache { entries, ways } => format!("{entries}x{ways}"),
        }
    }
}

/// The identity of a first-level table's *state evolution*: its
/// implementation, geometry and history width.
///
/// A branch history table is outcome-driven — every mutation
/// (allocation, LRU touch, history fill/shift, eviction) depends only on
/// the access sequence and the resolved directions, never on any
/// prediction. Two tables with equal signatures, stepped over the same
/// stream, therefore hold identical state at every event. Pattern-stream
/// replay exploits this: `tlabp_sim::runner::derive_pattern_stream`
/// walks one fresh table per signature, and every predictor whose first
/// level has that signature replays the patterns it emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BhtSignature {
    /// Table implementation and geometry.
    pub config: BhtConfig,
    /// History register width in bits.
    pub history_bits: u32,
}

impl BhtSignature {
    /// Builds a fresh table in this signature's initial state.
    #[must_use]
    pub fn build(self) -> BranchHistoryTable {
        self.config.build(self.history_bits)
    }
}

/// Hit/miss counters for a branch history table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BhtStats {
    /// Accesses that found the branch's entry.
    pub hits: u64,
    /// Accesses that allocated a new entry.
    pub misses: u64,
}

impl BhtStats {
    /// Hit rate in `[0, 1]`; 0 when no accesses were made.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct IdealEntry {
    history: HistoryRegister,
    fresh: bool,
}

/// The Ideal Branch History Table (IBHT): one history register per static
/// conditional branch, unbounded capacity.
///
/// The paper simulates the IBHT "to show the accuracy loss due to the
/// history interference in a practical branch history table
/// implementation".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdealBht {
    history_bits: u32,
    entries: FxHashMap<u64, IdealEntry>,
    /// Entries keyed by dense interned id instead of pc — the fused
    /// sweep's fast path (see [`IdealBht::access_pattern_id`]). A
    /// predictor instance is driven either entirely by pc or entirely by
    /// id, so at most one of the two stores is ever populated.
    dense: Vec<Option<IdealEntry>>,
    stats: BhtStats,
}

impl IdealBht {
    /// Creates an empty ideal table for `history_bits`-bit registers.
    #[must_use]
    pub fn new(history_bits: u32) -> Self {
        IdealBht {
            history_bits,
            entries: FxHashMap::default(),
            dense: Vec::new(),
            stats: BhtStats::default(),
        }
    }

    /// Looks up `pc`, allocating an all-ones entry on first sight.
    /// Returns `true` on hit.
    pub fn access(&mut self, pc: u64) -> bool {
        if self.entries.contains_key(&pc) {
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            self.entries.insert(
                pc,
                IdealEntry { history: HistoryRegister::all_ones(self.history_bits), fresh: true },
            );
            false
        }
    }

    /// The current pattern for `pc`, if present.
    #[must_use]
    pub fn pattern(&self, pc: u64) -> Option<usize> {
        self.entries.get(&pc).map(|e| e.history.pattern())
    }

    /// [`IdealBht::access`] + [`IdealBht::pattern`] keyed by a dense
    /// interned id: a bounds check and vector index replace the hash
    /// lookup, and the pre-update pattern comes back with the hit flag.
    ///
    /// `id` must alias one pc bijectively over this table's lifetime
    /// (one trace's interning — see `tlabp_trace::InternedConds`), and
    /// the instance must not also be driven through the pc-keyed
    /// methods; then hits, misses and patterns are bit-identical to
    /// `access` + `pattern` on the aliased pcs.
    #[inline]
    pub fn access_pattern_id(&mut self, id: u32) -> (usize, bool) {
        let index = id as usize;
        if index >= self.dense.len() {
            self.dense.resize(index + 1, None);
        }
        match &self.dense[index] {
            Some(entry) => {
                self.stats.hits += 1;
                (entry.history.pattern(), true)
            }
            None => {
                self.stats.misses += 1;
                let entry = IdealEntry {
                    history: HistoryRegister::all_ones(self.history_bits),
                    fresh: true,
                };
                let pattern = entry.history.pattern();
                self.dense[index] = Some(entry);
                (pattern, false)
            }
        }
    }

    /// [`IdealBht::record_outcome`] keyed by a dense interned id.
    #[inline]
    pub fn record_outcome_id(&mut self, id: u32, taken: bool) {
        if let Some(Some(entry)) = self.dense.get_mut(id as usize) {
            if entry.fresh {
                entry.history.fill(taken);
                entry.fresh = false;
            } else {
                entry.history.shift_in(taken);
            }
        }
    }

    /// Records the resolved outcome for `pc`: extends the result bit
    /// through a fresh register, otherwise shifts it in. Returns `false`
    /// if `pc` has no entry (e.g. it was flushed between predict and
    /// update).
    pub fn record_outcome(&mut self, pc: u64, taken: bool) -> bool {
        match self.entries.get_mut(&pc) {
            Some(entry) => {
                if entry.fresh {
                    entry.history.fill(taken);
                    entry.fresh = false;
                } else {
                    entry.history.shift_in(taken);
                }
                true
            }
            None => false,
        }
    }

    /// Number of distinct static branches seen (by pc or by id).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len() + self.dense.iter().filter(|e| e.is_some()).count()
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all entries (context switch).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.dense.clear();
    }

    /// Access statistics.
    #[must_use]
    pub fn stats(&self) -> BhtStats {
        self.stats
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheSlot {
    valid: bool,
    tag: u64,
    history: HistoryRegister,
    fresh: bool,
    /// Timestamp of last access, for LRU replacement.
    last_used: u64,
}

/// A practical branch history table: a direct-mapped or set-associative
/// cache of history registers with LRU replacement (Section 3.3).
///
/// "The lower part of a branch address is used to index into the table and
/// the higher part is stored as a tag." Addresses are word-granular: the
/// two low bits of the pc are dropped before indexing.
///
/// # Example
///
/// ```
/// use tlabp_core::bht::CacheBht;
///
/// let mut bht = CacheBht::new(512, 4, 12);
/// assert!(!bht.access(0x4000), "first access misses");
/// bht.record_outcome(0x4000, false);
/// assert!(bht.access(0x4000), "second access hits");
/// assert_eq!(bht.pattern(0x4000), Some(0)); // result bit extended through
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheBht {
    sets: usize,
    ways: usize,
    history_bits: u32,
    slots: Vec<CacheSlot>,
    clock: u64,
    stats: BhtStats,
    /// Per-interned-id memo of the derived lookup key `(set base, tag)`.
    /// The mapping is a pure function of the pc (no table state), so it
    /// survives flushes; dense ids make caching it a vector index, which
    /// the pc-keyed path could only match by paying a hash lookup. Only
    /// [`CacheBht::access_slot_interned`] touches this.
    id_keys: Vec<Option<(u32, u64)>>,
}

impl CacheBht {
    /// Creates a cache with `entries` total slots organized as
    /// `entries / ways` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry breaks a rule of
    /// [`check_table`](crate::geometry::check_table).
    #[must_use]
    pub fn new(entries: usize, ways: usize, history_bits: u32) -> Self {
        let sets = crate::geometry::assert_valid(crate::geometry::check_table(entries, ways));
        let empty = CacheSlot {
            valid: false,
            tag: 0,
            history: HistoryRegister::all_ones(history_bits),
            fresh: true,
            last_used: 0,
        };
        CacheBht {
            sets,
            ways,
            history_bits,
            slots: vec![empty; entries],
            clock: 0,
            stats: BhtStats::default(),
            id_keys: Vec::new(),
        }
    }

    /// Total slot count.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Set associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    fn set_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    fn tag(&self, pc: u64) -> u64 {
        (pc >> 2) / self.sets as u64
    }

    fn find(&self, pc: u64) -> Option<usize> {
        let set = self.set_index(pc);
        let tag = self.tag(pc);
        let base = set * self.ways;
        self.slots[base..base + self.ways]
            .iter()
            .position(|slot| slot.valid && slot.tag == tag)
            .map(|way| base + way)
    }

    /// Looks up `pc`, allocating on miss (evicting the LRU way of the set).
    /// Returns `true` on hit.
    pub fn access(&mut self, pc: u64) -> bool {
        let base = self.set_index(pc) * self.ways;
        let tag = self.tag(pc);
        self.access_set(base, tag).1
    }

    /// [`CacheBht::access`] for an interned stream, returning the
    /// physical slot index holding `pc` (so callers can touch the entry
    /// again through [`CacheBht::pattern_at`] and
    /// [`CacheBht::record_outcome_at`] without re-running the tag search)
    /// and the hit flag. The derived key `(set base, tag)` is memoized
    /// per interned id, so the steady state replaces the index/tag
    /// arithmetic (including a division) with one vector read. Same
    /// bijection contract as [`IdealBht::access_pattern_id`].
    #[inline]
    pub fn access_slot_interned(&mut self, id: u32, pc: u64) -> (usize, bool) {
        let index = id as usize;
        if index >= self.id_keys.len() {
            self.id_keys.resize(index + 1, None);
        }
        let (base, tag) = match self.id_keys[index] {
            Some(key) => key,
            None => {
                let key = ((self.set_index(pc) * self.ways) as u32, self.tag(pc));
                self.id_keys[index] = Some(key);
                key
            }
        };
        self.access_set(base as usize, tag)
    }

    /// The access/replacement core shared by the pc-keyed and id-memoized
    /// lookups: LRU-touch the matching way of the set at `base`, or
    /// allocate over the least recently used one.
    #[inline]
    fn access_set(&mut self, base: usize, tag: u64) -> (usize, bool) {
        self.clock += 1;
        let hit = self.slots[base..base + self.ways]
            .iter()
            .position(|slot| slot.valid && slot.tag == tag);
        if let Some(way) = hit {
            let i = base + way;
            self.slots[i].last_used = self.clock;
            self.stats.hits += 1;
            return (i, true);
        }
        self.stats.misses += 1;
        let victim = (base..base + self.ways)
            .min_by_key(|&i| (self.slots[i].valid, self.slots[i].last_used))
            .expect("set has at least one way");
        let history_bits = self.history_bits;
        let slot = &mut self.slots[victim];
        slot.valid = true;
        slot.tag = tag;
        slot.history = HistoryRegister::all_ones(history_bits);
        slot.fresh = true;
        slot.last_used = self.clock;
        (victim, false)
    }

    /// The pattern in physical slot `slot` (from
    /// [`CacheBht::access_slot_interned`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    #[must_use]
    pub fn pattern_at(&self, slot: usize) -> usize {
        self.slots[slot].history.pattern()
    }

    /// Records the resolved outcome directly into physical slot `slot`
    /// (fill if fresh, else shift) without a tag search.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn record_outcome_at(&mut self, slot: usize, taken: bool) {
        let slot = &mut self.slots[slot];
        if slot.fresh {
            slot.history.fill(taken);
            slot.fresh = false;
        } else {
            slot.history.shift_in(taken);
        }
    }

    /// The current pattern for `pc`, if resident.
    #[must_use]
    pub fn pattern(&self, pc: u64) -> Option<usize> {
        self.find(pc).map(|i| self.slots[i].history.pattern())
    }

    /// The physical slot index currently holding `pc`, if resident.
    ///
    /// PAp uses this to associate one pattern history table with each
    /// physical BHT entry.
    #[must_use]
    pub fn slot_of(&self, pc: u64) -> Option<usize> {
        self.find(pc)
    }

    /// Records the resolved outcome for `pc` (fill if fresh, else shift).
    /// Returns `false` if `pc` is not resident.
    pub fn record_outcome(&mut self, pc: u64, taken: bool) -> bool {
        match self.find(pc) {
            Some(i) => {
                let slot = &mut self.slots[i];
                if slot.fresh {
                    slot.history.fill(taken);
                    slot.fresh = false;
                } else {
                    slot.history.shift_in(taken);
                }
                true
            }
            None => false,
        }
    }

    /// Invalidates every slot (context switch: "a context switch results
    /// in flushing and reinitialization of the branch history table").
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.valid = false;
            slot.fresh = true;
        }
    }

    /// Access statistics.
    #[must_use]
    pub fn stats(&self) -> BhtStats {
        self.stats
    }
}

/// Either branch history table implementation behind one interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BranchHistoryTable {
    /// Unbounded per-branch table.
    Ideal(IdealBht),
    /// Practical cache implementation.
    Cache(CacheBht),
}

/// Opaque handle returned by
/// [`BranchHistoryTable::access_pattern_interned`], locating the entry
/// just touched so the outcome write can skip the second lookup on the
/// cache implementation.
#[derive(Debug, Clone, Copy)]
pub struct BhtCursor {
    slot: usize,
    hit: bool,
}

impl BhtCursor {
    const KEYED: usize = usize::MAX;

    /// The physical cache slot, or `None` for the keyed (ideal) table.
    #[must_use]
    pub fn slot(self) -> Option<usize> {
        if self.slot == Self::KEYED {
            None
        } else {
            Some(self.slot)
        }
    }

    /// Whether the access found the branch's entry resident. On a miss
    /// it allocated a fresh all-ones history register.
    #[must_use]
    pub fn hit(self) -> bool {
        self.hit
    }

    /// The entry's *lane*, given the interned `id` the cursor was
    /// resolved for: the physical slot under a practical BHT, the id
    /// under the ideal one. PAp keeps one pattern table per lane, and a
    /// laned pattern stream records this per event, so the rule that
    /// ties the two together lives here.
    #[must_use]
    pub fn lane(self, id: u32) -> u32 {
        self.slot().map_or(id, |slot| slot as u32)
    }
}

impl BranchHistoryTable {
    /// Looks up `pc`, allocating on miss. Returns `true` on hit.
    pub fn access(&mut self, pc: u64) -> bool {
        match self {
            BranchHistoryTable::Ideal(t) => t.access(pc),
            BranchHistoryTable::Cache(t) => t.access(pc),
        }
    }

    /// Fused [`BranchHistoryTable::access`] +
    /// [`BranchHistoryTable::pattern`] for an interned stream: one lookup
    /// resolving the entry, its pre-update pattern, and a [`BhtCursor`]
    /// carrying the hit flag, for
    /// [`BranchHistoryTable::record_outcome_at_interned`]. The ideal
    /// table indexes directly by the dense `id` (no hash); the cache
    /// table memoizes the pc's derived `(set, tag)` key per id
    /// ([`CacheBht::access_slot_interned`]).
    ///
    /// The caller owes the same bijection contract as
    /// [`IdealBht::access_pattern_id`]: `id` and `pc` alias each other
    /// for this table's lifetime.
    #[inline]
    pub fn access_pattern_interned(&mut self, id: u32, pc: u64) -> (usize, BhtCursor) {
        match self {
            BranchHistoryTable::Ideal(t) => {
                let (pattern, hit) = t.access_pattern_id(id);
                (pattern, BhtCursor { slot: BhtCursor::KEYED, hit })
            }
            BranchHistoryTable::Cache(t) => {
                let (slot, hit) = t.access_slot_interned(id, pc);
                (t.pattern_at(slot), BhtCursor { slot, hit })
            }
        }
    }

    /// Records the resolved outcome at the entry `cursor` points to: the
    /// cursor and `id` of the [`BranchHistoryTable::access_pattern_interned`]
    /// call just made, with no intervening flush.
    #[inline]
    pub fn record_outcome_at_interned(&mut self, cursor: BhtCursor, id: u32, taken: bool) {
        match self {
            BranchHistoryTable::Ideal(t) => t.record_outcome_id(id, taken),
            BranchHistoryTable::Cache(t) => t.record_outcome_at(
                cursor.slot().expect("cache table always yields a slot cursor"),
                taken,
            ),
        }
    }

    /// The current pattern for `pc`, if present.
    #[must_use]
    pub fn pattern(&self, pc: u64) -> Option<usize> {
        match self {
            BranchHistoryTable::Ideal(t) => t.pattern(pc),
            BranchHistoryTable::Cache(t) => t.pattern(pc),
        }
    }

    /// Records the resolved outcome for `pc`. Returns `false` if absent.
    pub fn record_outcome(&mut self, pc: u64, taken: bool) -> bool {
        match self {
            BranchHistoryTable::Ideal(t) => t.record_outcome(pc, taken),
            BranchHistoryTable::Cache(t) => t.record_outcome(pc, taken),
        }
    }

    /// The physical slot currently holding `pc` (cache only; `None` for the
    /// ideal table, which has no fixed slots).
    #[must_use]
    pub fn slot_of(&self, pc: u64) -> Option<usize> {
        match self {
            BranchHistoryTable::Ideal(_) => None,
            BranchHistoryTable::Cache(t) => t.slot_of(pc),
        }
    }

    /// Discards all entries (context switch).
    pub fn flush(&mut self) {
        match self {
            BranchHistoryTable::Ideal(t) => t.flush(),
            BranchHistoryTable::Cache(t) => t.flush(),
        }
    }

    /// Access statistics.
    #[must_use]
    pub fn stats(&self) -> BhtStats {
        match self {
            BranchHistoryTable::Ideal(t) => t.stats(),
            BranchHistoryTable::Cache(t) => t.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_allocates_all_ones_then_extends_result() {
        let mut bht = IdealBht::new(6);
        assert!(!bht.access(0x100));
        assert_eq!(bht.pattern(0x100), Some(0b111111));
        bht.record_outcome(0x100, false);
        assert_eq!(bht.pattern(0x100), Some(0), "result bit extended throughout");
        bht.record_outcome(0x100, true);
        assert_eq!(bht.pattern(0x100), Some(1), "subsequent outcomes shift in");
    }

    #[test]
    fn ideal_tracks_distinct_branches() {
        let mut bht = IdealBht::new(4);
        for pc in [0x10u64, 0x20, 0x30, 0x10] {
            bht.access(pc);
        }
        assert_eq!(bht.len(), 3);
        assert_eq!(bht.stats().hits, 1);
        assert_eq!(bht.stats().misses, 3);
    }

    #[test]
    fn ideal_flush_clears() {
        let mut bht = IdealBht::new(4);
        bht.access(0x10);
        bht.flush();
        assert!(bht.is_empty());
        assert_eq!(bht.pattern(0x10), None);
    }

    #[test]
    fn ideal_id_path_matches_pc_path() {
        // The same access/outcome sequence, once keyed by pc and once by
        // a dense alias of each pc, must produce identical patterns, hit
        // flags and hit/miss statistics.
        let pcs = [0x100u64, 0x204, 0x308, 0x100, 0x40c, 0x204, 0x100, 0x510, 0x308, 0x204];
        let mut by_pc = IdealBht::new(6);
        let mut by_id = IdealBht::new(6);
        let mut ids: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (i, &pc) in pcs.iter().cycle().take(200).enumerate() {
            let next = ids.len() as u32;
            let id = *ids.entry(pc).or_insert(next);
            let taken = (i * 7 + i / 3) % 3 != 0;
            let hit = by_pc.access(pc);
            let pattern = by_pc.pattern(pc).expect("entry present after access");
            assert_eq!((pattern, hit), by_id.access_pattern_id(id), "event {i}");
            by_pc.record_outcome(pc, taken);
            by_id.record_outcome_id(id, taken);
        }
        assert_eq!(by_pc.stats(), by_id.stats());
        assert_eq!(by_pc.len(), by_id.len());
    }

    #[test]
    fn ideal_id_path_flushes_too() {
        let mut bht = IdealBht::new(4);
        bht.access_pattern_id(3);
        assert_eq!(bht.len(), 1);
        bht.flush();
        assert!(bht.is_empty());
        // Post-flush access misses and reallocates all-ones.
        assert_eq!(bht.access_pattern_id(3), (0b1111, false));
        assert_eq!(bht.stats().misses, 2);
    }

    #[test]
    fn cache_id_memo_path_matches_pc_path() {
        // Conflicting pcs (several share sets in a tiny table) driven
        // once through the pc-keyed methods and once through the
        // id-memoized lookup: slots, hit flags, patterns and stats must
        // agree event for event, across a mid-stream flush (the memo is
        // pc-derived, not table state, so it survives).
        let pcs = [0x100u64, 0x204, 0x308, 0x100, 0x40c, 0x204, 0x100, 0x510, 0x308, 0x204];
        let mut by_pc = CacheBht::new(8, 2, 6);
        let mut by_id = CacheBht::new(8, 2, 6);
        let mut ids: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (i, &pc) in pcs.iter().cycle().take(200).enumerate() {
            let next = ids.len() as u32;
            let id = *ids.entry(pc).or_insert(next);
            if i == 77 {
                by_pc.flush();
                by_id.flush();
            }
            let taken = (i * 7 + i / 3) % 3 != 0;
            let hit_pc = by_pc.access(pc);
            let slot_pc = by_pc.slot_of(pc).expect("resident after access");
            let (slot_id, hit_id) = by_id.access_slot_interned(id, pc);
            assert_eq!((slot_pc, hit_pc), (slot_id, hit_id), "event {i}");
            assert_eq!(by_pc.pattern(pc), Some(by_id.pattern_at(slot_id)), "event {i}");
            by_pc.record_outcome(pc, taken);
            by_id.record_outcome_at(slot_id, taken);
        }
        assert_eq!(by_pc.stats(), by_id.stats());
    }

    #[test]
    fn cache_geometry_validation() {
        let bht = CacheBht::new(512, 4, 12);
        assert_eq!(bht.sets(), 128);
        assert_eq!(bht.ways(), 4);
        assert_eq!(bht.slot_count(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_rejects_non_power_of_two_sets() {
        let _ = CacheBht::new(384, 4, 12);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn cache_rejects_non_multiple_entries() {
        let _ = CacheBht::new(510, 4, 12);
    }

    #[test]
    fn cache_hit_after_allocate() {
        let mut bht = CacheBht::new(16, 2, 4);
        assert!(!bht.access(0x40));
        assert!(bht.access(0x40));
        assert_eq!(bht.stats().hits, 1);
        assert_eq!(bht.stats().misses, 1);
    }

    #[test]
    fn cache_distinguishes_tags_in_same_set() {
        let mut bht = CacheBht::new(8, 2, 4);
        // 4 sets; word addresses 0 and 4 both map to set 0 with different tags.
        let a = 0u64; // word 0, set 0
        let b = (4 * 4) as u64; // word 4, set 0, tag 1
        bht.access(a);
        bht.record_outcome(a, false);
        bht.access(b);
        bht.record_outcome(b, true);
        assert_eq!(bht.pattern(a), Some(0));
        assert_eq!(bht.pattern(b), Some(0b1111));
    }

    #[test]
    fn cache_lru_evicts_least_recent() {
        // 2 sets x 2 ways; three pcs in set 0.
        let mut bht = CacheBht::new(4, 2, 4);
        let pc = |word: u64| word * 4 * 2; // even words -> set 0
        bht.access(pc(0));
        bht.access(pc(2));
        bht.access(pc(0)); // refresh pc(0): LRU is now pc(2)
        bht.access(pc(4)); // evicts pc(2)
        assert!(bht.pattern(pc(0)).is_some());
        assert!(bht.pattern(pc(2)).is_none());
        assert!(bht.pattern(pc(4)).is_some());
    }

    #[test]
    fn cache_direct_mapped_conflicts() {
        let mut bht = CacheBht::new(4, 1, 4);
        let a = 0u64;
        let b = 4 * 4; // same set (4 sets, word 4 -> set 0), different tag
        bht.access(a);
        bht.access(b);
        assert!(bht.pattern(a).is_none(), "direct-mapped conflict must evict");
        assert!(bht.pattern(b).is_some());
    }

    #[test]
    fn cache_prefers_invalid_slot_over_eviction() {
        let mut bht = CacheBht::new(4, 2, 4);
        let pc = |word: u64| word * 4 * 2;
        bht.access(pc(0));
        bht.access(pc(2)); // fills the second way; pc(0) must survive
        assert!(bht.pattern(pc(0)).is_some());
        assert!(bht.pattern(pc(2)).is_some());
    }

    #[test]
    fn cache_fresh_fill_then_shift() {
        let mut bht = CacheBht::new(16, 4, 4);
        bht.access(0x80);
        bht.record_outcome(0x80, true);
        assert_eq!(bht.pattern(0x80), Some(0b1111));
        bht.record_outcome(0x80, false);
        assert_eq!(bht.pattern(0x80), Some(0b1110));
    }

    #[test]
    fn cache_flush_invalidates_all() {
        let mut bht = CacheBht::new(16, 4, 4);
        bht.access(0x80);
        bht.flush();
        assert_eq!(bht.pattern(0x80), None);
        assert!(!bht.access(0x80), "post-flush access must miss");
    }

    #[test]
    fn record_outcome_on_absent_pc_reports_false() {
        let mut cache = CacheBht::new(16, 4, 4);
        assert!(!cache.record_outcome(0x99, true));
        let mut ideal = IdealBht::new(4);
        assert!(!ideal.record_outcome(0x99, true));
    }

    #[test]
    fn unified_interface_dispatches() {
        for config in [BhtConfig::Ideal, BhtConfig::Cache { entries: 64, ways: 4 }] {
            let mut bht = config.build(8);
            assert!(!bht.access(0x123_4560));
            bht.record_outcome(0x123_4560, false);
            assert_eq!(bht.pattern(0x123_4560), Some(0));
            bht.flush();
            assert_eq!(bht.pattern(0x123_4560), None);
        }
    }

    #[test]
    fn config_labels() {
        assert_eq!(BhtConfig::Ideal.label(), "IBHT");
        assert_eq!(BhtConfig::Cache { entries: 512, ways: 4 }.label(), "512x4");
    }

    #[test]
    fn stats_hit_rate() {
        let stats = BhtStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(BhtStats::default().hit_rate(), 0.0);
    }
}
