//! The static prediction schemes the paper compares against: Always
//! Taken, Backward-Taken/Forward-Not-Taken, and Profiling.

use crate::fxhash::FxHashMap;

use tlabp_trace::BranchRecord;

use crate::predictor::BranchPredictor;

/// Predicts taken for every branch.
///
/// The paper measures this baseline at about 62.5% average accuracy
/// (Figure 11).
///
/// # Example
///
/// ```
/// use tlabp_core::predictor::BranchPredictor;
/// use tlabp_core::schemes::AlwaysTaken;
/// use tlabp_trace::BranchRecord;
///
/// let mut p = AlwaysTaken::new();
/// assert!(p.predict(&BranchRecord::conditional(0x40, false, 0x10, 1)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysTaken;

impl AlwaysTaken {
    /// Creates the predictor.
    #[must_use]
    pub fn new() -> Self {
        AlwaysTaken
    }
}

impl BranchPredictor for AlwaysTaken {
    fn predict(&mut self, _branch: &BranchRecord) -> bool {
        true
    }

    fn update(&mut self, _branch: &BranchRecord) {}

    fn name(&self) -> String {
        "AlwaysTaken".to_owned()
    }
}

/// Backward Taken, Forward Not taken (BTFN): "if the branch is backward,
/// predict taken, if forward, predict not taken."
///
/// Effective for loop-bound programs (one miss per loop execution), poor
/// on irregular code; the paper measures about 68.5% average accuracy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Btfn;

impl Btfn {
    /// Creates the predictor.
    #[must_use]
    pub fn new() -> Self {
        Btfn
    }
}

impl BranchPredictor for Btfn {
    fn predict(&mut self, branch: &BranchRecord) -> bool {
        branch.is_backward()
    }

    fn update(&mut self, _branch: &BranchRecord) {}

    fn name(&self) -> String {
        "BTFN".to_owned()
    }
}

/// The profiling scheme: each static branch is statically predicted in the
/// direction it took most frequently during a training run.
///
/// "The profiling information of a program executed with a training data
/// set is used for branch predictions for the program executed with testing
/// data sets." Branches never seen in training predict taken. The paper
/// measures about 91% average accuracy.
///
/// # Example
///
/// ```
/// use tlabp_core::predictor::BranchPredictor;
/// use tlabp_core::schemes::Profiling;
/// use tlabp_trace::synth::BiasedCoins;
///
/// let training = BiasedCoins::uniform(8, 0.8, 200, 1).generate();
/// let mut p = Profiling::train(training.conditional_outcomes());
/// assert_eq!(p.name(), "Profiling");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profiling {
    predictions: FxHashMap<u64, bool>,
}

impl Profiling {
    /// Builds per-branch majority predictions from a training run's
    /// conditional branches, given as `(pc, taken)` pairs (see
    /// [`train_global`](crate::schemes::train_global) for where they
    /// come from).
    #[must_use]
    pub fn train(outcomes: impl IntoIterator<Item = (u64, bool)>) -> Self {
        let mut counts: FxHashMap<u64, (u64, u64)> = FxHashMap::default();
        for (pc, taken) in outcomes {
            let entry = counts.entry(pc).or_insert((0, 0));
            entry.0 += u64::from(taken);
            entry.1 += 1;
        }
        let predictions =
            counts.into_iter().map(|(pc, (taken, total))| (pc, 2 * taken >= total)).collect();
        Profiling { predictions }
    }
}

impl BranchPredictor for Profiling {
    fn predict(&mut self, branch: &BranchRecord) -> bool {
        self.predictions.get(&branch.pc).copied().unwrap_or(true)
    }

    fn update(&mut self, _branch: &BranchRecord) {}

    fn name(&self) -> String {
        "Profiling".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlabp_trace::Trace;

    #[test]
    fn always_taken_ignores_everything() {
        let mut p = AlwaysTaken::new();
        let b = BranchRecord::conditional(0x40, false, 0x10, 1);
        assert!(p.predict(&b));
        p.update(&b);
        p.context_switch();
        assert!(p.predict(&b));
    }

    #[test]
    fn btfn_follows_direction() {
        let mut p = Btfn::new();
        let backward = BranchRecord::conditional(0x100, false, 0x80, 1);
        let forward = BranchRecord::conditional(0x100, true, 0x180, 2);
        assert!(p.predict(&backward));
        assert!(!p.predict(&forward));
    }

    #[test]
    fn btfn_one_miss_per_loop_execution() {
        // 20-iteration loop with a backward branch: BTFN predicts taken
        // every time, missing only the single exit.
        let mut p = Btfn::new();
        let mut wrong = 0;
        for i in 0..20u64 {
            let b = BranchRecord::conditional(0x100, i != 19, 0x80, i);
            wrong += u64::from(p.predict(&b) != b.taken);
            p.update(&b);
        }
        assert_eq!(wrong, 1);
    }

    #[test]
    fn profiling_learns_majorities() {
        let mut training = Trace::new();
        for i in 0..10u64 {
            training.push(BranchRecord::conditional(0x100, i < 8, 0x40, 2 * i + 1));
            training.push(BranchRecord::conditional(0x200, i < 2, 0x40, 2 * i + 2));
        }
        let mut p = Profiling::train(training.conditional_outcomes());
        assert!(p.predict(&BranchRecord::conditional(0x100, false, 0x40, 1)));
        assert!(!p.predict(&BranchRecord::conditional(0x200, true, 0x40, 2)));
    }

    #[test]
    fn profiling_defaults_unseen_to_taken() {
        let mut p = Profiling::train(Trace::new().conditional_outcomes());
        assert!(p.predict(&BranchRecord::conditional(0x999, false, 0x40, 1)));
    }

    #[test]
    fn profiling_tie_breaks_taken() {
        let mut training = Trace::new();
        training.push(BranchRecord::conditional(0x100, true, 0x40, 1));
        training.push(BranchRecord::conditional(0x100, false, 0x40, 2));
        let mut p = Profiling::train(training.conditional_outcomes());
        assert!(p.predict(&BranchRecord::conditional(0x100, false, 0x40, 3)));
    }

    #[test]
    fn names() {
        assert_eq!(AlwaysTaken::new().name(), "AlwaysTaken");
        assert_eq!(Btfn::new().name(), "BTFN");
    }
}
