//! GAg: Global history register, global pattern history table.

use tlabp_trace::{BranchRecord, InternedCond, InternedConds};

use crate::automaton::Automaton;
use crate::history::HistoryRegister;
use crate::pht::PatternHistoryTable;
use crate::predictor::BranchPredictor;

/// Global Two-Level Adaptive Branch Prediction using a global pattern
/// history table (GAg).
///
/// "There is only a single global history register (GHR) and a single
/// global pattern history table (GPHT) ... All branch predictions are based
/// on the same global history register and global pattern history table
/// which are updated after each branch is resolved." Predictions for one
/// branch therefore depend on the outcomes of *other* branches — the source
/// of both GAg's interference (bad at short history) and its ability to
/// capture inter-branch correlation.
///
/// On a context switch only the global history register is reinitialized;
/// the paper notes an initialized GHR "can be refilled quickly", which is
/// why GAg suffers least from context switches (Section 5.1.4).
///
/// # Example
///
/// ```
/// use tlabp_core::automaton::Automaton;
/// use tlabp_core::predictor::BranchPredictor;
/// use tlabp_core::schemes::Gag;
/// use tlabp_trace::BranchRecord;
///
/// let mut gag = Gag::new(12, Automaton::A2);
/// let b = BranchRecord::conditional(0x40, true, 0x10, 1);
/// let _ = gag.predict(&b);
/// gag.update(&b);
/// assert_eq!(gag.name(), "GAg(HR(1,,12-sr),1xPHT(2^12,A2))");
/// ```
#[derive(Debug, Clone)]
pub struct Gag {
    history: HistoryRegister,
    pht: PatternHistoryTable,
    label: String,
}

impl Gag {
    /// Creates a GAg predictor with a `history_bits`-bit global history
    /// register and a `2^history_bits`-entry global PHT of `automaton`
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is out of range (see
    /// [`crate::history::MAX_HISTORY_BITS`]).
    #[must_use]
    pub fn new(history_bits: u32, automaton: Automaton) -> Self {
        let pht = PatternHistoryTable::new(history_bits, automaton);
        let label = format!("GAg(HR(1,,{history_bits}-sr),1xPHT(2^{history_bits},{automaton}))");
        Gag::with_pht(pht, label)
    }

    /// Creates a GAg-structured predictor over an existing pattern table.
    ///
    /// This is how the GSg Static Training scheme is assembled: the same
    /// global-history structure over a *preset* table whose entries never
    /// change at run time.
    #[must_use]
    pub fn with_pht(pht: PatternHistoryTable, label: String) -> Self {
        let history = HistoryRegister::all_ones(pht.history_bits());
        Gag { history, pht, label }
    }

    /// The global history register length `k`.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history.len()
    }

    /// Read-only access to the pattern history table.
    #[must_use]
    pub fn pht(&self) -> &PatternHistoryTable {
        &self.pht
    }

    /// The current global history pattern.
    #[must_use]
    pub fn current_pattern(&self) -> usize {
        self.history.pattern()
    }

    /// The interned walk's predict + update: the pattern is read before
    /// the outcome shifts in.
    #[inline]
    fn step(&mut self, taken: bool) -> bool {
        let predicted = self.pht.predict_update(self.history.pattern(), taken);
        self.history.shift_in(taken);
        predicted
    }
}

impl BranchPredictor for Gag {
    fn predict(&mut self, _branch: &BranchRecord) -> bool {
        self.pht.predict(self.history.pattern())
    }

    fn update(&mut self, branch: &BranchRecord) {
        let pattern = self.history.pattern();
        self.pht.update(pattern, branch.taken);
        self.history.shift_in(branch.taken);
    }

    fn context_switch(&mut self) {
        // Reinitialize the global history register; keep the PHT
        // (Section 5.1.4).
        self.history.fill(true);
    }

    #[inline]
    fn step_interned_block(&mut self, _interned: &InternedConds, events: &[InternedCond]) -> u64 {
        let mut correct = 0u64;
        for &event in events {
            let taken = event.taken();
            correct += u64::from(self.step(taken) == taken);
        }
        correct
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch(taken: bool, n: u64) -> BranchRecord {
        BranchRecord::conditional(0x100, taken, 0x40, n)
    }

    #[test]
    fn learns_repeating_pattern_perfectly() {
        // Pattern 1 1 0 repeating; with k=6 every distinct history maps to
        // a unique pattern, so after warm-up GAg predicts it exactly.
        let mut gag = Gag::new(6, Automaton::A2);
        let pattern = [true, true, false];
        let mut correct = 0;
        let mut total = 0;
        for i in 0..300u64 {
            let b = branch(pattern[(i % 3) as usize], i);
            let predicted = gag.predict(&b);
            gag.update(&b);
            if i >= 100 {
                total += 1;
                correct += u64::from(predicted == b.taken);
            }
        }
        assert_eq!(correct, total, "steady-state predictions must be perfect");
    }

    #[test]
    fn update_uses_pre_shift_pattern() {
        let mut gag = Gag::new(2, Automaton::LastTime);
        // History starts all ones (pattern 0b11).
        let b = branch(false, 1);
        gag.update(&b);
        // The entry for 0b11 must have learned "not taken".
        assert!(!gag.pht().predict(0b11));
        // And history is now 0b10.
        assert_eq!(gag.current_pattern(), 0b10);
    }

    #[test]
    fn different_branches_share_everything() {
        let mut gag = Gag::new(4, Automaton::A2);
        let a = BranchRecord::conditional(0x10, false, 0x4, 1);
        let b = BranchRecord::conditional(0x20, false, 0x8, 2);
        gag.update(&a);
        // b's update sees a history containing a's outcome.
        assert_eq!(gag.current_pattern(), 0b1110);
        gag.update(&b);
        assert_eq!(gag.current_pattern(), 0b1100);
    }

    #[test]
    fn context_switch_reinitializes_history_only() {
        let mut gag = Gag::new(4, Automaton::A2);
        for i in 0..8 {
            gag.update(&branch(false, i));
        }
        let trained_state = gag.pht().state(0);
        gag.context_switch();
        assert_eq!(gag.current_pattern(), 0b1111, "GHR reinitialized to all ones");
        assert_eq!(gag.pht().state(0), trained_state, "PHT must survive context switch");
    }

    #[test]
    fn name_matches_table3_notation() {
        let gag = Gag::new(18, Automaton::A3);
        assert_eq!(gag.name(), "GAg(HR(1,,18-sr),1xPHT(2^18,A3))");
    }
}
