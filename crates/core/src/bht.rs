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

use tlabp_trace::{InternedCond, InternedConds};

use crate::fxhash::FxHashMap;
use crate::set_assoc::SetAssoc;

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

/// One branch's history register under the paper's miss policy: a new
/// entry is all ones and *fresh*; the first outcome recorded is extended
/// throughout the register, and later ones shift in.
///
/// Packed in one `u32`: the history in bits 0–23 (newest outcome in
/// bit 0), the register width in bits 24–28 and the fresh flag in
/// bit 31. A width is at least 1, so the all-zero word is no register:
/// [`HistoryEntry::ABSENT`], which recording leaves as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HistoryEntry(u32);

impl HistoryEntry {
    const WIDTH_SHIFT: u32 = 24;
    const FRESH: u32 = 1 << 31;
    /// The ideal BHT's empty slot.
    const ABSENT: HistoryEntry = HistoryEntry(0);

    /// A fresh all-ones register of `history_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is zero or exceeds
    /// [`MAX_HISTORY_BITS`](crate::history::MAX_HISTORY_BITS).
    fn new(history_bits: u32) -> Self {
        crate::geometry::assert_valid(crate::geometry::check_history_bits(history_bits));
        let ones = (1 << history_bits) - 1;
        HistoryEntry(Self::FRESH | history_bits << Self::WIDTH_SHIFT | ones)
    }

    fn pattern(self) -> usize {
        (self.0 & ((1 << Self::WIDTH_SHIFT) - 1)) as usize
    }

    /// Extends `taken` through a fresh register, else shifts it in; the
    /// register is no longer fresh.
    #[inline]
    fn record(&mut self, taken: bool) {
        let width = self.0 >> Self::WIDTH_SHIFT & 0b1_1111;
        let mask = (1 << width) - 1;
        let bit = u32::from(taken);
        let history =
            if self.0 & Self::FRESH != 0 { bit.wrapping_neg() } else { self.0 << 1 | bit };
        self.0 = width << Self::WIDTH_SHIFT | history & mask;
    }
}

/// The Ideal Branch History Table (IBHT): one history register per static
/// conditional branch, unbounded capacity.
///
/// The paper simulates the IBHT "to show the accuracy loss due to the
/// history interference in a practical branch history table
/// implementation".
///
/// Entries live in one dense store indexed by branch: the interned id
/// on the interned walk ([`BranchHistoryTable::walk_interned`]), and on
/// the pc path an index each pc gets on first sight. A predictor
/// instance is driven either entirely by pc or entirely by id. Each
/// entry is one packed `u32`, and a branch with no register holds an
/// absent sentinel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdealBht {
    /// A new branch's entry.
    fresh: HistoryEntry,
    entries: Vec<HistoryEntry>,
    /// The pc path's index of each pc seen. It depends only on the order
    /// pcs first appear, not on table state, so it survives flushes: a
    /// branch keeps its index, and PAp its pattern table, for the
    /// table's lifetime.
    indices: FxHashMap<u64, u32>,
}

impl IdealBht {
    /// Creates an empty ideal table for `history_bits`-bit registers.
    #[must_use]
    pub fn new(history_bits: u32) -> Self {
        IdealBht {
            fresh: HistoryEntry::new(history_bits),
            entries: Vec::new(),
            indices: FxHashMap::default(),
        }
    }

    /// Looks up `pc`, allocating an all-ones entry on first sight.
    /// Returns `true` on hit.
    pub fn access(&mut self, pc: u64) -> bool {
        let next = self.indices.len() as u32;
        let index = *self.indices.entry(pc).or_insert(next);
        self.access_pattern_id(index).1
    }

    /// The index of `pc`'s entry, if resident.
    fn resident(&self, pc: u64) -> Option<u32> {
        let index = *self.indices.get(&pc)?;
        (*self.entries.get(index as usize)? != HistoryEntry::ABSENT).then_some(index)
    }

    /// The current pattern for `pc`, if present.
    #[must_use]
    pub fn pattern(&self, pc: u64) -> Option<usize> {
        let index = self.resident(pc)?;
        Some(self.entries[index as usize].pattern())
    }

    /// [`IdealBht::access`] + [`IdealBht::pattern`] keyed by a dense
    /// index (the interned id on the interned walk, the pc's index on
    /// the pc path): the pre-update pattern and the hit flag.
    #[inline]
    fn access_pattern_id(&mut self, id: u32) -> (usize, bool) {
        let index = id as usize;
        if index >= self.entries.len() {
            self.entries.resize(index + 1, HistoryEntry::ABSENT);
        }
        let entry = &mut self.entries[index];
        let hit = *entry != HistoryEntry::ABSENT;
        if !hit {
            *entry = self.fresh;
        }
        (entry.pattern(), hit)
    }

    /// [`IdealBht::record_outcome`] keyed by a dense index.
    #[inline]
    fn record_outcome_id(&mut self, id: u32, taken: bool) {
        if let Some(entry) = self.entries.get_mut(id as usize) {
            entry.record(taken);
        }
    }

    /// Records the resolved outcome for `pc`: extends the result bit
    /// through a fresh register, otherwise shifts it in. Returns `false`
    /// if `pc` has no entry (e.g. it was flushed between predict and
    /// update).
    pub fn record_outcome(&mut self, pc: u64, taken: bool) -> bool {
        let index = self.resident(pc);
        if let Some(index) = index {
            self.record_outcome_id(index, taken);
        }
        index.is_some()
    }

    /// Number of distinct static branches resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|&&entry| entry != HistoryEntry::ABSENT).count()
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all entries (context switch).
    pub fn flush(&mut self) {
        self.entries.fill(HistoryEntry::ABSENT);
    }
}

/// A practical branch history table: a direct-mapped or set-associative
/// cache of history registers with LRU replacement (Section 3.3), on the
/// crate's one set-associative table.
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
    table: SetAssoc<HistoryEntry>,
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
        CacheBht { table: SetAssoc::new(entries, ways, HistoryEntry::new(history_bits)) }
    }

    /// Looks up `pc`, allocating on miss (evicting the LRU way of the set).
    /// Returns `true` on hit.
    pub fn access(&mut self, pc: u64) -> bool {
        self.table.access(pc).1
    }

    /// [`CacheBht::access`], returning the physical slot index holding
    /// `pc` (so the entry can be touched again through
    /// [`CacheBht::pattern_at`] and [`CacheBht::record_outcome_at`]
    /// without re-running the tag search) and the hit flag.
    #[inline]
    fn access_slot(&mut self, pc: u64) -> (usize, bool) {
        self.table.access(pc)
    }

    /// The pattern in physical slot `slot` (from
    /// [`CacheBht::access_slot`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    fn pattern_at(&self, slot: usize) -> usize {
        self.table.value(slot).pattern()
    }

    /// Records the resolved outcome directly into physical slot `slot`
    /// (fill if fresh, else shift) without a tag search.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    fn record_outcome_at(&mut self, slot: usize, taken: bool) {
        self.table.value_mut(slot).record(taken);
    }

    /// The current pattern for `pc`, if resident.
    #[must_use]
    pub fn pattern(&self, pc: u64) -> Option<usize> {
        self.table.find(pc).map(|slot| self.pattern_at(slot))
    }

    /// The physical slot index currently holding `pc`, if resident: its
    /// lane ([`BhtCursor::lane`]).
    fn slot_of(&self, pc: u64) -> Option<usize> {
        self.table.find(pc)
    }

    /// Records the resolved outcome for `pc` (fill if fresh, else shift).
    /// Returns `false` if `pc` is not resident.
    pub fn record_outcome(&mut self, pc: u64, taken: bool) -> bool {
        let slot = self.table.find(pc);
        if let Some(slot) = slot {
            self.record_outcome_at(slot, taken);
        }
        slot.is_some()
    }

    /// Invalidates every slot (context switch: "a context switch results
    /// in flushing and reinitialization of the branch history table").
    pub fn flush(&mut self) {
        self.table.flush();
    }
}

/// One interned first-level access and record, written once per
/// implementation for the monomorphic body of
/// [`BranchHistoryTable::walk_interned`].
trait EntryStore {
    /// Resolves the branch's entry, allocating on a miss: its pattern
    /// and its cursor. Only a table keyed by address calls `pc`.
    fn access_entry(&mut self, id: u32, pc: impl FnOnce() -> u64) -> (usize, BhtCursor);
    /// Records `taken` at the entry `cursor` points to.
    fn record_entry(&mut self, cursor: BhtCursor, taken: bool);
}

impl EntryStore for IdealBht {
    #[inline]
    fn access_entry(&mut self, id: u32, _pc: impl FnOnce() -> u64) -> (usize, BhtCursor) {
        let (pattern, hit) = self.access_pattern_id(id);
        (pattern, BhtCursor { lane: id, hit })
    }

    #[inline]
    fn record_entry(&mut self, cursor: BhtCursor, taken: bool) {
        self.record_outcome_id(cursor.lane, taken);
    }
}

impl EntryStore for CacheBht {
    #[inline]
    fn access_entry(&mut self, _id: u32, pc: impl FnOnce() -> u64) -> (usize, BhtCursor) {
        let (slot, hit) = self.access_slot(pc());
        (self.pattern_at(slot), BhtCursor { lane: slot as u32, hit })
    }

    #[inline]
    fn record_entry(&mut self, cursor: BhtCursor, taken: bool) {
        self.record_outcome_at(cursor.lane as usize, taken);
    }
}

/// The monomorphic body of [`BranchHistoryTable::walk_interned`].
#[inline]
fn walk<T: EntryStore>(
    table: &mut T,
    interned: &InternedConds,
    events: &[InternedCond],
    mut visit: impl FnMut(usize, BhtCursor, InternedCond),
) {
    let pcs = interned.pcs();
    for &event in events {
        let id = event.id();
        let (pattern, cursor) = table.access_entry(id, || pcs[id as usize]);
        visit(pattern, cursor, event);
        table.record_entry(cursor, event.taken());
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

/// Opaque handle on the entry an interned access just touched: what
/// [`BranchHistoryTable::walk_interned`] hands its visitor with each
/// event's pattern, and what locates the outcome write without a second
/// lookup.
#[derive(Debug, Clone, Copy)]
pub struct BhtCursor {
    lane: u32,
    hit: bool,
}

impl BhtCursor {
    /// Whether the access found the branch's entry resident. On a miss
    /// it allocated a fresh all-ones history register.
    #[must_use]
    pub fn hit(self) -> bool {
        self.hit
    }

    /// The entry's *lane*: the physical slot under a practical BHT, the
    /// interned id under the ideal one. PAp keeps one pattern table per
    /// lane, and a laned pattern stream records this per event, so the
    /// rule that ties the two together lives here.
    #[must_use]
    pub fn lane(self) -> u32 {
        self.lane
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

    /// Walks `events` of `interned` through the table in order: per
    /// event, one lookup resolves the branch's entry (allocating on a
    /// miss), then `visit(pattern, cursor, event)` sees the pre-update
    /// pattern and a [`BhtCursor`] with the lane and the hit flag, then
    /// the outcome is recorded at the cursor. The ideal table indexes
    /// its entries by the dense id (no hash); the cache table searches
    /// by the pc from `interned`'s id→pc table. One walk of a whole block
    /// matches on the implementation once, so the per-event loop is
    /// monomorphic.
    ///
    /// The ids of `events` must come from `interned`, whose ids alias its
    /// pcs one to one, and the table must not also be driven through the
    /// pc-keyed methods; then hit flags and patterns are bit-identical to
    /// `access` + `pattern` on the aliased pcs.
    #[inline]
    pub fn walk_interned(
        &mut self,
        interned: &InternedConds,
        events: &[InternedCond],
        visit: impl FnMut(usize, BhtCursor, InternedCond),
    ) {
        match self {
            BranchHistoryTable::Ideal(t) => walk(t, interned, events, visit),
            BranchHistoryTable::Cache(t) => walk(t, interned, events, visit),
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

    /// The lane ([`BhtCursor::lane`]) of `pc`'s entry, if resident: the
    /// physical slot under a practical BHT, the index the pc path gave
    /// `pc` under the ideal one.
    #[must_use]
    pub fn lane_of(&self, pc: u64) -> Option<u32> {
        match self {
            BranchHistoryTable::Ideal(t) => t.resident(pc),
            BranchHistoryTable::Cache(t) => t.slot_of(pc).map(|slot| slot as u32),
        }
    }

    /// Discards all entries (context switch).
    pub fn flush(&mut self) {
        match self {
            BranchHistoryTable::Ideal(t) => t.flush(),
            BranchHistoryTable::Cache(t) => t.flush(),
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
        let hits: Vec<bool> = [0x10u64, 0x20, 0x30, 0x10].map(|pc| bht.access(pc)).into();
        assert_eq!(hits, [false, false, false, true]);
        assert_eq!(bht.len(), 3);
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
        // a dense alias of each pc, must produce identical patterns and
        // hit flags, across a mid-stream flush (the pc path's index map
        // is not table state, so it survives). Ids are given in order of
        // first sight, as the pc path gives its indices, so each pc's
        // index is its id.
        let pcs = [0x100u64, 0x204, 0x308, 0x100, 0x40c, 0x204, 0x100, 0x510, 0x308, 0x204];
        let mut by_pc = IdealBht::new(6);
        let mut by_id = IdealBht::new(6);
        let mut ids: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (i, &pc) in pcs.iter().cycle().take(200).enumerate() {
            let next = ids.len() as u32;
            let id = *ids.entry(pc).or_insert(next);
            if i == 77 {
                by_pc.flush();
                by_id.flush();
            }
            let taken = (i * 7 + i / 3) % 3 != 0;
            let hit = by_pc.access(pc);
            let pattern = by_pc.pattern(pc).expect("entry present after access");
            assert_eq!((pattern, hit), by_id.access_pattern_id(id), "event {i}");
            assert_eq!(by_pc.resident(pc), Some(id), "event {i}");
            by_pc.record_outcome(pc, taken);
            by_id.record_outcome_id(id, taken);
        }
        assert_eq!(by_pc.len(), by_id.len());
    }

    #[test]
    fn ideal_id_path_flushes_too() {
        let mut bht = IdealBht::new(4);
        bht.access_pattern_id(3);
        assert_eq!(bht.len(), 1);
        bht.flush();
        assert!(bht.is_empty());
        // Recording into a flushed entry leaves it absent.
        bht.record_outcome_id(3, true);
        assert!(bht.is_empty());
        // Post-flush access misses and reallocates all-ones.
        assert_eq!(bht.access_pattern_id(3), (0b1111, false));
    }

    #[test]
    fn cache_slot_path_matches_pc_path() {
        // Conflicting pcs (several share sets in a tiny table) driven
        // once through the pc-keyed methods and once through the slot
        // the walk's access returns: slots, hit flags and patterns must
        // agree event for event, across a mid-stream flush.
        let pcs = [0x100u64, 0x204, 0x308, 0x100, 0x40c, 0x204, 0x100, 0x510, 0x308, 0x204];
        let mut by_pc = CacheBht::new(8, 2, 6);
        let mut by_slot = CacheBht::new(8, 2, 6);
        for (i, &pc) in pcs.iter().cycle().take(200).enumerate() {
            if i == 77 {
                by_pc.flush();
                by_slot.flush();
            }
            let taken = (i * 7 + i / 3) % 3 != 0;
            let hit_pc = by_pc.access(pc);
            let slot_pc = by_pc.slot_of(pc).expect("resident after access");
            let (slot, hit) = by_slot.access_slot(pc);
            assert_eq!((slot_pc, hit_pc), (slot, hit), "event {i}");
            assert_eq!(by_pc.pattern(pc), Some(by_slot.pattern_at(slot)), "event {i}");
            by_pc.record_outcome(pc, taken);
            by_slot.record_outcome_at(slot, taken);
        }
    }

    #[test]
    fn cache_geometry_sets_and_ways() {
        // 512 × 4: 128 sets, so pcs 128 words apart share a set. Four of
        // them fit its ways; a fifth evicts the least recent.
        let mut bht = CacheBht::new(512, 4, 12);
        let pc = |n: u64| 0x1000 + n * 128 * 4;
        let hits: Vec<bool> = (0..5).map(|n| bht.access(pc(n))).collect();
        assert_eq!(hits, [false; 5]);
        assert_eq!(bht.pattern(pc(0)), None, "pc(4) evicted the least recent, pc(0)");
        assert!(!bht.access(0x1004), "the next word maps to another set");
        assert!((1..5).all(|n| bht.access(pc(n))), "so set 0 keeps its four ways");
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
}
