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

use crate::geometry::{assert_valid, check_table};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Way<V> {
    valid: bool,
    tag: u64,
    /// Clock reading at the way's last access, for LRU replacement.
    last_used: u64,
    value: V,
}

/// A set-associative table of `V`s with LRU replacement. A slot index
/// (`set × ways + way`) names one way for as long as no later access
/// evicts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SetAssoc<V> {
    sets: usize,
    ways: usize,
    slots: Vec<Way<V>>,
    /// The value a way takes when a miss allocates it.
    fresh: V,
    clock: u64,
    /// Per-interned-id memo of the derived lookup key `(set base, tag)`.
    /// The key is a pure function of the pc, not table state, so it
    /// survives flushes; dense ids make caching it a vector index, which
    /// the pc-keyed path could only match by paying a hash lookup. Only
    /// [`SetAssoc::access_interned`] touches this.
    id_keys: Vec<Option<(u32, u64)>>,
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
        let empty = Way { valid: false, tag: 0, last_used: 0, value: fresh };
        SetAssoc { sets, ways, slots: vec![empty; entries], fresh, clock: 0, id_keys: Vec::new() }
    }

    /// Total way count.
    pub(crate) fn entries(&self) -> usize {
        self.slots.len()
    }

    /// Set associativity.
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// The first slot of `pc`'s set, and `pc`'s tag.
    fn key(&self, pc: u64) -> (usize, u64) {
        let word = pc >> 2;
        (((word as usize) & (self.sets - 1)) * self.ways, word / self.sets as u64)
    }

    fn search(&self, base: usize, tag: u64) -> Option<usize> {
        self.slots[base..base + self.ways]
            .iter()
            .position(|way| way.valid && way.tag == tag)
            .map(|way| base + way)
    }

    /// The slot holding `pc`, if resident. Touches no LRU state.
    pub(crate) fn find(&self, pc: u64) -> Option<usize> {
        let (base, tag) = self.key(pc);
        self.search(base, tag)
    }

    /// Looks `pc` up and makes its way the set's most recently used; a
    /// miss allocates it. Returns the slot and the hit flag.
    pub(crate) fn access(&mut self, pc: u64) -> (usize, bool) {
        let (base, tag) = self.key(pc);
        self.access_set(base, tag)
    }

    /// [`SetAssoc::access`] for an interned stream: the key is derived
    /// once per `id`, so the steady state replaces the index and tag
    /// arithmetic (a division among it) with one vector read. `id` must
    /// alias `pc` bijectively for the table's lifetime (one trace's
    /// interning, see `tlabp_trace::InternedConds`); then every slot and
    /// hit flag is the one the pc-keyed access returns.
    #[inline]
    pub(crate) fn access_interned(&mut self, id: u32, pc: u64) -> (usize, bool) {
        let index = id as usize;
        if index >= self.id_keys.len() {
            self.id_keys.resize(index + 1, None);
        }
        let (base, tag) = match self.id_keys[index] {
            Some((base, tag)) => (base as usize, tag),
            None => {
                let (base, tag) = self.key(pc);
                self.id_keys[index] = Some((base as u32, tag));
                (base, tag)
            }
        };
        self.access_set(base, tag)
    }

    /// The access and replacement core: touch the matching way of the set
    /// at `base`, or allocate a fresh value over the set's least recently
    /// used way, an invalid one first.
    #[inline]
    fn access_set(&mut self, base: usize, tag: u64) -> (usize, bool) {
        self.clock += 1;
        if let Some(slot) = self.search(base, tag) {
            self.slots[slot].last_used = self.clock;
            return (slot, true);
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&slot| (self.slots[slot].valid, self.slots[slot].last_used))
            .expect("set has at least one way");
        self.slots[victim] = Way { valid: true, tag, last_used: self.clock, value: self.fresh };
        (victim, false)
    }

    /// The value in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub(crate) fn value(&self, slot: usize) -> V {
        self.slots[slot].value
    }

    /// The value in `slot`, to write.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub(crate) fn value_mut(&mut self, slot: usize) -> &mut V {
        &mut self.slots[slot].value
    }

    /// Invalidates every way (a context switch). The LRU order and the
    /// id memo survive.
    pub(crate) fn flush(&mut self) {
        for way in &mut self.slots {
            way.valid = false;
        }
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
    fn interned_access_matches_pc_access_across_a_flush() {
        let mut by_pc = SetAssoc::new(8, 2, ());
        let mut by_id = SetAssoc::new(8, 2, ());
        let words = [0u64, 4, 8, 1, 0, 12, 5, 4, 8, 0, 9, 1];
        for (n, &word) in words.iter().cycle().take(120).enumerate() {
            if n == 50 {
                by_pc.flush();
                by_id.flush();
            }
            let id = words.iter().position(|&w| w == word).expect("listed") as u32;
            assert_eq!(by_pc.access(pc(word)), by_id.access_interned(id, pc(word)), "{n}");
        }
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
