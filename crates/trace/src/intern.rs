//! PC-interned conditional-branch streams: the input of the fused
//! multi-predictor simulation path.
//!
//! A packed stream ([`PackedCond`]) still carries every branch's full
//! 62-bit address, so each per-address predictor stepping it must hash
//! (or tag-search) the pc on every event. A whole-plan sweep replays the
//! same trace under many predictors, re-resolving the same addresses
//! once per predictor per event. Interning hoists that work out of the
//! hot loop entirely: one pass per trace assigns each distinct branch pc
//! a dense `u32` id (in first-appearance order, so the mapping is
//! deterministic), after which ideal per-address state becomes direct
//! `Vec` indexing (see `step_interned_block` in `tlabp-core`) and each
//! event shrinks to 4 bytes.
//!
//! The id→pc table rides along ([`InternedConds::pc_of`]) because
//! practical cache BHTs still need real address bits for set indexing
//! and tags; the interned stream loses no information a predictor reads.
//!
//! # Example
//!
//! ```
//! use tlabp_trace::synth::LoopNest;
//! use tlabp_trace::InternedConds;
//!
//! let trace = LoopNest::new(&[10, 4]).generate();
//! let interned = InternedConds::from_packed(&trace.pack_conditionals());
//! assert_eq!(interned.len(), trace.conditional_branches().count());
//! assert!(interned.distinct_pcs() < interned.len());
//! ```

use std::collections::HashMap;

use crate::record::BranchRecord;
use crate::trace::{PackedCond, Trace};

/// One conditional branch of an interned stream, compressed into 32
/// bits: `id << 2 | backward << 1 | taken`.
///
/// `id` is the dense alias of the branch's pc, assigned per stream by
/// [`InternedConds::from_packed`]; the two low bits mirror
/// [`PackedCond`] exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct InternedCond(u32);

impl InternedCond {
    /// Most distinct pcs one stream can intern (`id` gets 30 bits).
    pub const MAX_IDS: usize = 1 << 30;

    fn new(id: u32, taken: bool, backward: bool) -> Self {
        InternedCond(id << 2 | u32::from(backward) << 1 | u32::from(taken))
    }

    /// The raw 32-bit encoding (`id << 2 | backward << 1 | taken`) — the
    /// value the artifact container's interned section delta-encodes
    /// ([`crate::io`]).
    #[must_use]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Reconstructs an interned conditional from its raw encoding. Every
    /// 32-bit value decodes (the id field spans the remaining width);
    /// whether the id is *meaningful* depends on the owning stream's
    /// id→pc table, which [`InternedConds::from_raw_parts`] validates.
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        InternedCond(bits)
    }

    /// The dense id of the branch's pc within its stream.
    #[must_use]
    pub fn id(self) -> u32 {
        self.0 >> 2
    }

    /// The resolved direction.
    #[must_use]
    pub fn taken(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether the branch jumps backward (target ≤ pc).
    #[must_use]
    pub fn is_backward(self) -> bool {
        self.0 & 2 != 0
    }
}

/// A conditional-branch stream whose pcs have been interned to dense
/// ids, plus the id→pc table.
///
/// Within one `InternedConds` the id↔pc mapping is a bijection: equal
/// ids always mean equal pcs and vice versa, so a predictor keying
/// per-address state by id sees exactly the aliasing it would see
/// keying by pc — a walk over the interned stream stays bit-identical
/// to one keyed by pc.
/// Ids are only meaningful relative to their own stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InternedConds {
    events: Vec<InternedCond>,
    pcs: Vec<u64>,
}

impl InternedConds {
    /// Interns a packed stream: one id per distinct pc, assigned in
    /// first-appearance order.
    ///
    /// # Panics
    ///
    /// Panics if the stream holds more than [`InternedCond::MAX_IDS`]
    /// distinct pcs.
    #[must_use]
    pub fn from_packed(packed: &[PackedCond]) -> Self {
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut pcs: Vec<u64> = Vec::new();
        let events = packed
            .iter()
            .map(|cond| {
                let pc = cond.pc();
                let id = *ids.entry(pc).or_insert_with(|| {
                    assert!(pcs.len() < InternedCond::MAX_IDS, "too many distinct pcs to intern");
                    pcs.push(pc);
                    (pcs.len() - 1) as u32
                });
                InternedCond::new(id, cond.taken(), cond.is_backward())
            })
            .collect();
        InternedConds { events, pcs }
    }

    /// Interns a trace's conditional branches (packs, then interns).
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        InternedConds::from_packed(&trace.pack_conditionals())
    }

    /// Reassembles a stream from its parts (the inverse of
    /// [`InternedConds::events`] + [`InternedConds::pcs`]), or `None`
    /// when the parts are inconsistent: an event id outside the pc table,
    /// or a pc table that is not an injective image of distinct
    /// addresses. Deserialization uses this so a corrupted or truncated
    /// artifact can never yield a stream whose id↔pc mapping is not the
    /// bijection the fused simulation path relies on.
    #[must_use]
    pub fn from_raw_parts(events: Vec<InternedCond>, pcs: Vec<u64>) -> Option<Self> {
        let distinct: std::collections::HashSet<u64> = pcs.iter().copied().collect();
        if distinct.len() != pcs.len() {
            return None;
        }
        if events.iter().any(|event| event.id() as usize >= pcs.len()) {
            return None;
        }
        Some(InternedConds { events, pcs })
    }

    /// The id→pc table, indexed by id.
    #[must_use]
    pub fn pcs(&self) -> &[u64] {
        &self.pcs
    }

    /// The interned events, in stream order.
    #[must_use]
    pub fn events(&self) -> &[InternedCond] {
        &self.events
    }

    /// The `(pc, taken)` pair of every event, in stream order: the
    /// pairs [`Trace::conditional_outcomes`] yields for the trace this
    /// stream interned (each pc masked to [`PackedCond::PC_BITS`], as
    /// interning stores it).
    pub fn outcomes(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.events.iter().map(|event| (self.pcs[event.id() as usize], event.taken()))
    }

    /// The pc that `id` aliases.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not assigned by this stream.
    #[must_use]
    pub fn pc_of(&self, id: u32) -> u64 {
        self.pcs[id as usize]
    }

    /// Number of distinct branch pcs (= the number of ids assigned).
    #[must_use]
    pub fn distinct_pcs(&self) -> usize {
        self.pcs.len()
    }

    /// Number of events in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Expands an event of this stream back into a [`BranchRecord`] —
    /// the same record [`PackedCond::to_record`] would have produced, so
    /// simulations over either stream are bit-identical.
    #[inline]
    #[must_use]
    pub fn record(&self, event: InternedCond) -> BranchRecord {
        let pc = self.pcs[event.id() as usize];
        let target = if event.is_backward() { pc } else { pc + 4 };
        BranchRecord::conditional(pc, event.taken(), target, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use crate::synth::{BiasedCoins, LoopNest};

    fn random_packed(seed: u64, events: usize, pcs: u64) -> Vec<PackedCond> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..events)
            .map(|_| {
                // Spread pcs across the full packable width so interning is
                // exercised on high bits too.
                let pc = (rng.next_below(pcs) << 40 | rng.next_below(pcs)) & PackedCond::PC_MASK;
                PackedCond::new(pc, rng.random_bool(0.6), rng.random_bool(0.3))
            })
            .collect()
    }

    #[test]
    fn ids_are_dense_and_first_appearance_ordered() {
        let packed = random_packed(1, 5_000, 37);
        let interned = InternedConds::from_packed(&packed);
        assert_eq!(interned.len(), packed.len());
        let mut next_expected = 0u32;
        for (event, cond) in interned.events().iter().zip(&packed) {
            // A fresh id must be exactly the next unused integer.
            if event.id() >= next_expected {
                assert_eq!(event.id(), next_expected);
                next_expected += 1;
            }
            assert_eq!(interned.pc_of(event.id()), cond.pc());
        }
        assert_eq!(interned.distinct_pcs() as u32, next_expected);
    }

    #[test]
    fn id_pc_mapping_is_a_bijection() {
        let packed = random_packed(2, 8_000, 211);
        let interned = InternedConds::from_packed(&packed);
        let distinct: std::collections::HashSet<u64> = packed.iter().map(|c| c.pc()).collect();
        assert_eq!(interned.distinct_pcs(), distinct.len());
        let distinct_ids: std::collections::HashSet<u32> =
            interned.events().iter().map(|e| e.id()).collect();
        assert_eq!(distinct_ids.len(), distinct.len());
    }

    #[test]
    fn records_match_packed_expansion_exactly() {
        let packed = random_packed(3, 5_000, 97);
        let interned = InternedConds::from_packed(&packed);
        for (event, cond) in interned.events().iter().zip(&packed) {
            assert_eq!(interned.record(*event), cond.to_record());
        }
    }

    #[test]
    fn from_trace_matches_from_packed() {
        let trace = BiasedCoins::uniform(24, 0.7, 400, 7).generate();
        assert_eq!(
            InternedConds::from_trace(&trace),
            InternedConds::from_packed(&trace.pack_conditionals())
        );
        let loops = LoopNest::new(&[12, 5]).generate();
        let interned = InternedConds::from_trace(&loops);
        assert_eq!(interned.len(), loops.conditional_branches().count());
    }

    #[test]
    fn empty_stream_interns_to_empty() {
        let interned = InternedConds::from_packed(&[]);
        assert!(interned.is_empty());
        assert_eq!(interned.distinct_pcs(), 0);
        assert_eq!(InternedConds::default(), interned);
    }
}
