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

use crate::set_assoc::SetAssoc;

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

/// A set-associative cache of branch target addresses, on the crate's
/// one set-associative table.
///
/// # Example
///
/// ```
/// use tlabp_core::target_cache::TargetCache;
/// use tlabp_trace::BranchRecord;
///
/// let mut cache = TargetCache::new(512, 4);
/// let branch = BranchRecord::conditional(0x40, true, 0x100, 1);
/// let outcome = cache.fetch_and_resolve(&branch, true);
/// assert!(!outcome.is_correct_path(), "cold miss on a taken branch");
/// let outcome = cache.fetch_and_resolve(&branch, true);
/// assert!(outcome.is_correct_path(), "warm hit supplies the target");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetCache {
    /// Each way holds its branch's last resolved target.
    table: SetAssoc<u64>,
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
        TargetCache { table: SetAssoc::new(entries, ways, 0) }
    }

    /// Simulates the fetch decision for `branch` given the direction
    /// predictor's output, then records the resolved branch: its target
    /// is inserted (LRU replacement within the set) or refreshed. One
    /// table access does both.
    pub fn fetch_and_resolve(
        &mut self,
        branch: &BranchRecord,
        predicted_taken: bool,
    ) -> FetchOutcome {
        let (slot, hit) = self.table.access(branch.pc);
        let cached = std::mem::replace(self.table.value_mut(slot), branch.target);
        match (hit, predicted_taken) {
            (false, _) => FetchOutcome::Miss { correct: !branch.taken },
            (true, false) => FetchOutcome::HitFallThrough { correct: !branch.taken },
            (true, true) if branch.taken && cached == branch.target => {
                FetchOutcome::HitCorrectTarget
            }
            (true, true) => FetchOutcome::HitWrongPath,
        }
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
        assert_eq!(cache.fetch_and_resolve(&b, true), FetchOutcome::Miss { correct: false });
        assert_eq!(cache.fetch_and_resolve(&b, true), FetchOutcome::HitCorrectTarget);
    }

    #[test]
    fn changed_target_detected() {
        let mut cache = TargetCache::new(64, 4);
        let original = taken(0x40, 0x100);
        cache.fetch_and_resolve(&original, true);
        let moved = taken(0x40, 0x200);
        assert_eq!(cache.fetch_and_resolve(&moved, true), FetchOutcome::HitWrongPath);
        assert_eq!(cache.fetch_and_resolve(&moved, true), FetchOutcome::HitCorrectTarget);
    }

    #[test]
    fn fall_through_correctness() {
        let mut cache = TargetCache::new(64, 4);
        let b = not_taken(0x40);
        cache.fetch_and_resolve(&b, false);
        assert_eq!(
            cache.fetch_and_resolve(&b, false),
            FetchOutcome::HitFallThrough { correct: true }
        );
        let b_taken = taken(0x40, 0x100);
        assert_eq!(
            cache.fetch_and_resolve(&b_taken, false),
            FetchOutcome::HitFallThrough { correct: false }
        );
    }

    #[test]
    fn miss_on_not_taken_costs_nothing() {
        let mut cache = TargetCache::new(64, 4);
        let b = not_taken(0x40);
        let outcome = cache.fetch_and_resolve(&b, false);
        assert_eq!(outcome, FetchOutcome::Miss { correct: true });
        assert!(outcome.is_correct_path());
    }

    #[test]
    fn lru_eviction() {
        let mut cache = TargetCache::new(2, 2); // one set, two ways
        let mut fetch = |pc: u64| cache.fetch_and_resolve(&taken(pc, pc * 16), true);
        fetch(0x10);
        fetch(0x20);
        fetch(0x10); // refresh 0x10
        assert_eq!(fetch(0x30), FetchOutcome::Miss { correct: false }, "evicts 0x20");
        assert_eq!(fetch(0x10), FetchOutcome::HitCorrectTarget);
        assert_eq!(fetch(0x30), FetchOutcome::HitCorrectTarget);
        assert_eq!(fetch(0x20), FetchOutcome::Miss { correct: false });
    }

    #[test]
    fn correct_path_classification() {
        assert!(FetchOutcome::HitCorrectTarget.is_correct_path());
        assert!(!FetchOutcome::HitWrongPath.is_correct_path());
        assert!(FetchOutcome::HitFallThrough { correct: true }.is_correct_path());
        assert!(!FetchOutcome::Miss { correct: false }.is_correct_path());
    }
}
