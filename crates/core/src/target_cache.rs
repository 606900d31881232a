//! Target address caching (Section 3.2).
//!
//! "After the direction of a branch is predicted, there is still the
//! possibility of a pipeline bubble due to the time it takes to generate
//! the target address. To eliminate this bubble, we cache the target
//! addresses of branches." The cache is indexed by the fetch address so a
//! prediction (direction + target) can be produced before the instruction
//! block is even decoded; on a miss the sequential path is fetched and a
//! static prediction decides after decode whether to squash.

use tlabp_trace::BranchRecord;

#[derive(Debug, Clone, PartialEq, Eq)]
struct TargetSlot {
    valid: bool,
    tag: u64,
    target: u64,
    last_used: u64,
}

/// What the fetch engine did for one branch, as determined by the target
/// cache and the direction prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Cache hit, branch predicted taken, cached target was correct: the
    /// taken path was fetched with no bubble.
    HitCorrectTarget,
    /// Cache hit and predicted taken, but the branch went elsewhere (or
    /// was not taken): fetched instructions are squashed.
    HitWrongPath,
    /// Cache hit, predicted not taken: fall-through fetched. Correct iff
    /// the branch really was not taken.
    HitFallThrough {
        /// Whether falling through was the right thing to do.
        correct: bool,
    },
    /// Cache miss: sequential fetch continued; after decode, the branch is
    /// discovered and handled by static prediction (one-bubble penalty if
    /// the branch was taken).
    Miss {
        /// Whether the sequential (not-taken) guess was right.
        correct: bool,
    },
}

impl FetchOutcome {
    /// Whether the fetch proceeded down the correct path without squash.
    #[must_use]
    pub fn is_correct_path(self) -> bool {
        matches!(
            self,
            FetchOutcome::HitCorrectTarget
                | FetchOutcome::HitFallThrough { correct: true }
                | FetchOutcome::Miss { correct: true }
        )
    }
}

/// Counters for target-cache behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TargetCacheStats {
    /// Lookups that found an entry for the fetch address.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Taken predictions whose cached target matched the actual target.
    pub correct_targets: u64,
    /// Taken predictions whose cached target was wrong (e.g. an indirect
    /// branch changed destination).
    pub wrong_targets: u64,
}

/// A set-associative cache of branch target addresses.
///
/// # Example
///
/// ```
/// use tlabp_core::target_cache::TargetCache;
/// use tlabp_trace::BranchRecord;
///
/// let mut cache = TargetCache::new(512, 4);
/// let branch = BranchRecord::conditional(0x40, true, 0x100, 1);
/// let outcome = cache.fetch(&branch, true);
/// assert!(!outcome.is_correct_path(), "cold miss on a taken branch");
/// cache.resolve(&branch);
/// let outcome = cache.fetch(&branch, true);
/// assert!(outcome.is_correct_path(), "warm hit supplies the target");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetCache {
    sets: usize,
    ways: usize,
    slots: Vec<TargetSlot>,
    clock: u64,
    stats: TargetCacheStats,
}

impl TargetCache {
    /// Creates a cache with `entries` slots, `ways`-way set-associative.
    ///
    /// # Panics
    ///
    /// Panics if the geometry breaks a rule of
    /// [`check_table`](crate::geometry::check_table).
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        let sets = crate::geometry::assert_valid(crate::geometry::check_table(entries, ways));
        let empty = TargetSlot { valid: false, tag: 0, target: 0, last_used: 0 };
        TargetCache {
            sets,
            ways,
            slots: vec![empty; entries],
            clock: 0,
            stats: TargetCacheStats::default(),
        }
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
        (base..base + self.ways).find(|&i| self.slots[i].valid && self.slots[i].tag == tag)
    }

    /// The cached target for `pc`, if present (no statistics side
    /// effects).
    #[must_use]
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        self.find(pc).map(|i| self.slots[i].target)
    }

    /// Simulates the fetch decision for `branch` given the direction
    /// predictor's output, updating hit/target statistics.
    pub fn fetch(&mut self, branch: &BranchRecord, predicted_taken: bool) -> FetchOutcome {
        self.clock += 1;
        match self.find(branch.pc) {
            Some(i) => {
                self.slots[i].last_used = self.clock;
                self.stats.hits += 1;
                if predicted_taken {
                    let cached = self.slots[i].target;
                    if branch.taken && cached == branch.target {
                        self.stats.correct_targets += 1;
                        FetchOutcome::HitCorrectTarget
                    } else {
                        self.stats.wrong_targets += 1;
                        FetchOutcome::HitWrongPath
                    }
                } else {
                    FetchOutcome::HitFallThrough { correct: !branch.taken }
                }
            }
            None => {
                self.stats.misses += 1;
                FetchOutcome::Miss { correct: !branch.taken }
            }
        }
    }

    /// Records the resolved branch: inserts or refreshes its target
    /// (LRU replacement within the set).
    pub fn resolve(&mut self, branch: &BranchRecord) {
        self.clock += 1;
        if let Some(i) = self.find(branch.pc) {
            self.slots[i].target = branch.target;
            self.slots[i].last_used = self.clock;
            return;
        }
        let set = self.set_index(branch.pc);
        let base = set * self.ways;
        let victim = (base..base + self.ways)
            .min_by_key(|&i| (self.slots[i].valid, self.slots[i].last_used))
            .expect("set has at least one way");
        let tag = self.tag(branch.pc);
        let slot = &mut self.slots[victim];
        slot.valid = true;
        slot.tag = tag;
        slot.target = branch.target;
        slot.last_used = self.clock;
    }

    /// Invalidates every slot.
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.valid = false;
        }
    }

    /// Access statistics.
    #[must_use]
    pub fn stats(&self) -> TargetCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taken(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::conditional(pc, true, target, 1)
    }

    fn not_taken(pc: u64) -> BranchRecord {
        BranchRecord::conditional(pc, false, pc + 64, 1)
    }

    #[test]
    fn cold_miss_then_warm_hit() {
        let mut cache = TargetCache::new(64, 4);
        let b = taken(0x40, 0x100);
        assert_eq!(cache.fetch(&b, true), FetchOutcome::Miss { correct: false });
        cache.resolve(&b);
        assert_eq!(cache.fetch(&b, true), FetchOutcome::HitCorrectTarget);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn changed_target_detected() {
        let mut cache = TargetCache::new(64, 4);
        let original = taken(0x40, 0x100);
        cache.resolve(&original);
        let moved = taken(0x40, 0x200);
        assert_eq!(cache.fetch(&moved, true), FetchOutcome::HitWrongPath);
        cache.resolve(&moved);
        assert_eq!(cache.fetch(&moved, true), FetchOutcome::HitCorrectTarget);
    }

    #[test]
    fn fall_through_correctness() {
        let mut cache = TargetCache::new(64, 4);
        let b = not_taken(0x40);
        cache.resolve(&b);
        assert_eq!(cache.fetch(&b, false), FetchOutcome::HitFallThrough { correct: true });
        let b_taken = taken(0x40, 0x100);
        assert_eq!(cache.fetch(&b_taken, false), FetchOutcome::HitFallThrough { correct: false });
    }

    #[test]
    fn miss_on_not_taken_costs_nothing() {
        let mut cache = TargetCache::new(64, 4);
        let b = not_taken(0x40);
        let outcome = cache.fetch(&b, false);
        assert_eq!(outcome, FetchOutcome::Miss { correct: true });
        assert!(outcome.is_correct_path());
    }

    #[test]
    fn lru_eviction() {
        let mut cache = TargetCache::new(2, 2); // one set, two ways
        cache.resolve(&taken(0x10, 0x100));
        cache.resolve(&taken(0x20, 0x200));
        cache.resolve(&taken(0x10, 0x100)); // refresh 0x10
        cache.resolve(&taken(0x30, 0x300)); // evicts 0x20
        assert!(cache.lookup(0x10).is_some());
        assert!(cache.lookup(0x20).is_none());
        assert!(cache.lookup(0x30).is_some());
    }

    #[test]
    fn flush_empties_cache() {
        let mut cache = TargetCache::new(64, 4);
        cache.resolve(&taken(0x40, 0x100));
        cache.flush();
        assert_eq!(cache.lookup(0x40), None);
    }

    #[test]
    fn correct_path_classification() {
        assert!(FetchOutcome::HitCorrectTarget.is_correct_path());
        assert!(!FetchOutcome::HitWrongPath.is_correct_path());
        assert!(FetchOutcome::HitFallThrough { correct: true }.is_correct_path());
        assert!(!FetchOutcome::Miss { correct: false }.is_correct_path());
    }
}
