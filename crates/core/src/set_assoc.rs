//! The one set-associative table behind the practical branch history
//! table ([`CacheBht`](crate::bht::CacheBht), §3.3), the branch target
//! buffer ([`Btb`](crate::schemes::Btb)) and the target cache
//! ([`TargetCache`](crate::target_cache::TargetCache), §3.2).
//!
//! "The lower part of a branch address is used to index into the table
//! and the higher part is stored as a tag." Addresses are word-granular:
//! the two low bits of the pc are dropped, the low bits of the word
//! address pick the set and the rest is the tag. An access makes its
//! way the set's most recently used; a miss allocates the set's least
//! recently used way, an invalid one first.
//!
//! The table is struct-of-arrays: tags, LRU stamps and values live in
//! three vectors indexed by slot (`set × ways + way`), so a way search
//! reads only the set's tags and stamps. An invalid way holds the tag
//! [`INVALID`], which no address produces (a tag is a word address
//! shifted right, so at most 62 bits wide).

use crate::geometry::{assert_valid, check_table};

/// The tag of an invalid way.
const INVALID: u64 = u64::MAX;

/// A set-associative table of `V`s with LRU replacement. A slot index
/// (`set × ways + way`) names one way for as long as no later access
/// evicts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SetAssoc<V> {
    ways: usize,
    /// `sets - 1`: the set count is a power of two, so the low word
    /// bits pick the set ...
    set_mask: u64,
    /// ... and the word shifted right by `log2(sets)` is the tag.
    set_bits: u32,
    /// Each way's tag, [`INVALID`] when the way holds nothing.
    tags: Vec<u64>,
    /// Clock reading at each way's last access, for LRU replacement.
    stamps: Vec<u64>,
    values: Vec<V>,
    /// The value a way takes when a miss allocates it.
    fresh: V,
    clock: u64,
}

impl<V: Copy> SetAssoc<V> {
    /// A table of `entries` ways in `entries / ways` sets, every way
    /// invalid; a miss allocates a way holding `fresh`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry breaks a rule of [`check_table`].
    pub(crate) fn new(entries: usize, ways: usize, fresh: V) -> Self {
        let sets = assert_valid(check_table(entries, ways));
        SetAssoc {
            ways,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            tags: vec![INVALID; entries],
            stamps: vec![0; entries],
            values: vec![fresh; entries],
            fresh,
            clock: 0,
        }
    }

    /// Total way count.
    pub(crate) fn entries(&self) -> usize {
        self.tags.len()
    }

    /// Set associativity.
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// The first slot of `pc`'s set, and `pc`'s tag.
    #[inline]
    fn key(&self, pc: u64) -> (usize, u64) {
        let word = pc >> 2;
        ((word & self.set_mask) as usize * self.ways, word >> self.set_bits)
    }

    /// The way of the set at `base` holding `tag`, if any. Branchless
    /// over the set: a valid tag sits in at most one way, and no address
    /// has the invalid tag.
    #[inline]
    fn search(&self, base: usize, tag: u64) -> Option<usize> {
        let mut found = usize::MAX;
        for (way, &have) in self.tags[base..base + self.ways].iter().enumerate() {
            if have == tag {
                found = way;
            }
        }
        (found != usize::MAX).then(|| base + found)
    }

    /// The slot holding `pc`, if resident. Touches no LRU state.
    pub(crate) fn find(&self, pc: u64) -> Option<usize> {
        let (base, tag) = self.key(pc);
        self.search(base, tag)
    }

    /// Looks `pc` up and makes its way the set's most recently used; a
    /// miss allocates it over the set's least recently used way, an
    /// invalid one first. Returns the slot and the hit flag.
    #[inline]
    pub(crate) fn access(&mut self, pc: u64) -> (usize, bool) {
        let (base, tag) = self.key(pc);
        self.clock += 1;
        let found = self.search(base, tag);
        let slot = found.unwrap_or_else(|| self.victim(base));
        self.stamps[slot] = self.clock;
        if found.is_none() {
            self.tags[slot] = tag;
            self.values[slot] = self.fresh;
        }
        (slot, found.is_some())
    }

    /// The set at `base`'s way to replace: the smallest key
    /// `valid << 63 | last access`, the first such way on a tie (only
    /// invalid ways can tie). So an invalid way goes first, the least
    /// recently used valid one otherwise, as `min_by_key((valid,
    /// last_used))` picks.
    fn victim(&self, base: usize) -> usize {
        let (mut victim, mut oldest) = (base, u64::MAX);
        for slot in base..base + self.ways {
            let key = u64::from(self.tags[slot] != INVALID) << 63 | self.stamps[slot];
            if key < oldest {
                (victim, oldest) = (slot, key);
            }
        }
        victim
    }

    /// The value in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub(crate) fn value(&self, slot: usize) -> V {
        self.values[slot]
    }

    /// The value in `slot`, to write.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub(crate) fn value_mut(&mut self, slot: usize) -> &mut V {
        &mut self.values[slot]
    }

    /// Invalidates every way (a context switch). The LRU stamps survive.
    pub(crate) fn flush(&mut self) {
        self.tags.fill(INVALID);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pc of word `word`.
    fn pc(word: u64) -> u64 {
        word * 4
    }

    #[test]
    fn low_word_bits_pick_the_set_and_the_rest_is_the_tag() {
        // 4 sets × 2 ways: words 0, 4 and 8 share set 0 under different
        // tags; word 1 lives in set 1.
        let mut table = SetAssoc::new(8, 2, 0u8);
        assert_eq!(table.access(pc(0)), (0, false));
        *table.value_mut(0) = 1;
        assert_eq!(table.access(pc(1)), (2, false));
        assert_eq!(table.access(pc(4)), (1, false));
        *table.value_mut(1) = 3;
        assert_eq!(table.access(pc(0)), (0, true), "a hit keeps the stored value");
        assert_eq!(table.value(0), 1);
        assert_eq!(table.access(pc(8)), (1, false), "word 4 was the set's LRU way");
        assert_eq!(table.value(1), 0, "a miss allocates the fresh value");
        assert_eq!(table.find(pc(4)), None);
        assert_eq!((table.entries(), table.ways()), (8, 2));
    }

    #[test]
    fn flush_invalidates_and_refill_prefers_invalid_ways() {
        let mut table = SetAssoc::new(4, 4, 0u32); // one set, four ways
        for word in 0..4 {
            table.access(pc(word));
        }
        table.flush();
        assert_eq!(table.find(pc(2)), None);
        // Refilling picks invalid ways, oldest first, before any eviction.
        let slots: Vec<usize> = (10..14).map(|word| table.access(pc(word)).0).collect();
        assert_eq!(slots, [0, 1, 2, 3]);
        *table.value_mut(3) = 7;
        assert_eq!(table.value(table.find(pc(13)).expect("resident")), 7);
    }
}
