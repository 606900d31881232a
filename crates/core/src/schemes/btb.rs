//! Branch Target Buffer designs (J. Smith), simulated for comparison.

use tlabp_trace::{BranchRecord, InternedCond, InternedConds};

use crate::automaton::{Automaton, State};
use crate::predictor::BranchPredictor;
use crate::set_assoc::SetAssoc;

/// A branch-target-buffer style predictor: a set-associative table of
/// per-branch prediction automata, with *no* second-level pattern history.
///
/// This is J. Smith's design the paper compares against: "a branch target
/// buffer to store, for each branch, a two-bit saturating up-down counter
/// which collects and subsequently bases its prediction on branch history
/// information about that branch." The paper simulates it with the A2
/// counter (≈93% average accuracy) and with Last-Time (≈89%); see
/// Figure 11.
///
/// # Example
///
/// ```
/// use tlabp_core::automaton::Automaton;
/// use tlabp_core::predictor::BranchPredictor;
/// use tlabp_core::schemes::Btb;
/// use tlabp_trace::BranchRecord;
///
/// let mut btb = Btb::new(512, 4, Automaton::A2);
/// let b = BranchRecord::conditional(0x40, true, 0x10, 1);
/// assert!(btb.predict(&b)); // entries allocate biased taken
/// btb.update(&b);
/// assert_eq!(btb.name(), "BTB(BHT(512,4,A2),)");
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    automaton: Automaton,
    /// The automaton's fused (δ, λ) word ([`Automaton::packed_lut`]),
    /// which the interned step reads.
    lut: u32,
    /// One automaton state per way, initial on allocation.
    table: SetAssoc<State>,
}

impl Btb {
    /// Creates a BTB predictor with `entries` total slots, `ways`-way
    /// set-associative, each entry holding one `automaton`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry breaks a rule of
    /// [`check_table`](crate::geometry::check_table).
    #[must_use]
    pub fn new(entries: usize, ways: usize, automaton: Automaton) -> Self {
        Btb {
            automaton,
            lut: automaton.packed_lut(),
            table: SetAssoc::new(entries, ways, automaton.initial_state()),
        }
    }

    /// The paper's standard configuration: 4-way, 512 entries.
    #[must_use]
    pub fn paper_default(automaton: Automaton) -> Self {
        Btb::new(512, 4, automaton)
    }

    /// One table access and one packed (δ, λ) step: the interned walk's
    /// predict + update.
    ///
    /// Bit-identical to `predict` then `update`: update's search after
    /// predict always re-hits the slot predict just touched (same pc, no
    /// intervening access), and collapsing its second LRU touch preserves
    /// the relative recency order every replacement decision is based on
    /// (each event still moves exactly its own slot to most-recent).
    #[inline]
    fn step(&mut self, pc: u64, taken: bool) -> bool {
        let (slot, _) = self.table.access(pc);
        let state = self.table.value_mut(slot);
        let (next, predicted) = Automaton::packed_step(self.lut, *state, taken);
        *state = next;
        predicted
    }
}

impl BranchPredictor for Btb {
    fn predict(&mut self, branch: &BranchRecord) -> bool {
        let (slot, _) = self.table.access(branch.pc);
        self.automaton.predict(self.table.value(slot))
    }

    fn update(&mut self, branch: &BranchRecord) {
        let (slot, _) = self.table.access(branch.pc);
        let state = self.table.value_mut(slot);
        *state = self.automaton.update(*state, branch.taken);
    }

    fn context_switch(&mut self) {
        self.table.flush();
    }

    #[inline]
    fn step_interned_block(&mut self, interned: &InternedConds, events: &[InternedCond]) -> u64 {
        let pcs = interned.pcs();
        let mut correct = 0u64;
        for &event in events {
            let taken = event.taken();
            correct += u64::from(self.step(pcs[event.id() as usize], taken) == taken);
        }
        correct
    }

    fn name(&self) -> String {
        format!("BTB(BHT({},{},{}),)", self.table.entries(), self.table.ways(), self.automaton)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch(pc: u64, taken: bool, n: u64) -> BranchRecord {
        BranchRecord::conditional(pc, taken, pc + 16, n)
    }

    #[test]
    fn counter_learns_bias() {
        let mut btb = Btb::paper_default(Automaton::A2);
        let b = branch(0x80, false, 1);
        btb.update(&b);
        btb.update(&b);
        assert!(!btb.predict(&b), "two not-takens drop the counter below 2");
    }

    #[test]
    fn loop_branch_mispredicts_once_per_exit_with_a2() {
        // Classic result: a 2-bit counter on a T...TN loop mispredicts only
        // the exit, not the re-entry.
        let mut btb = Btb::paper_default(Automaton::A2);
        let outcomes: Vec<bool> = (0..400).map(|i| i % 8 != 7).collect();
        let mut wrong = 0;
        for (i, &taken) in outcomes.iter().enumerate().skip(16) {
            let b = branch(0x80, taken, i as u64);
            let predicted = btb.predict(&b);
            btb.update(&b);
            wrong += u64::from(predicted != taken);
        }
        // 48 loop exits in positions 16..400 → exactly one miss each.
        assert_eq!(wrong, 48);
    }

    #[test]
    fn last_time_mispredicts_twice_per_exit() {
        let mut btb = Btb::paper_default(Automaton::LastTime);
        let outcomes: Vec<bool> = (0..400).map(|i| i % 8 != 7).collect();
        let mut wrong = 0;
        for (i, &taken) in outcomes.iter().enumerate().skip(16) {
            let b = branch(0x80, taken, i as u64);
            let predicted = btb.predict(&b);
            btb.update(&b);
            wrong += u64::from(predicted != taken);
        }
        // Last-Time misses the exit AND the first iteration after re-entry:
        // 48 exits plus 47 re-entries inside the measured range.
        assert_eq!(wrong, 95);
    }

    #[test]
    fn cannot_learn_alternation_unlike_two_level() {
        let mut btb = Btb::paper_default(Automaton::LastTime);
        let mut wrong = 0;
        for i in 0..200u64 {
            let b = branch(0x80, i % 2 == 0, i);
            let predicted = btb.predict(&b);
            btb.update(&b);
            if i >= 50 {
                wrong += u64::from(predicted != b.taken);
            }
        }
        assert_eq!(wrong, 150, "Last-Time BTB mispredicts every alternating branch");
    }

    #[test]
    fn eviction_resets_state() {
        let mut btb = Btb::new(4, 1, Automaton::A2); // 4 direct-mapped sets
        let a = branch(0, false, 1);
        let conflicting = branch(4 * 4, true, 2);
        btb.update(&a);
        btb.update(&a); // state for a now 1 (not taken)
        btb.update(&conflicting); // evicts a
        assert!(btb.predict(&a), "re-allocated entry starts at initial (taken) state");
    }

    #[test]
    fn context_switch_flushes() {
        let mut btb = Btb::paper_default(Automaton::A2);
        let b = branch(0x80, false, 1);
        btb.update(&b);
        btb.update(&b);
        btb.context_switch();
        assert!(btb.predict(&b), "post-flush allocation uses initial state");
    }

    #[test]
    fn name_matches_table3_notation() {
        assert_eq!(Btb::paper_default(Automaton::LastTime).name(), "BTB(BHT(512,4,LT),)");
    }
}
