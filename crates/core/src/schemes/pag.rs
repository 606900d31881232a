//! PAg: Per-address branch history table, global pattern history table.

use tlabp_trace::{BranchRecord, InternedCond, InternedConds};

use crate::automaton::Automaton;
use crate::bht::{BhtConfig, BranchHistoryTable};
use crate::pht::PatternHistoryTable;
use crate::predictor::BranchPredictor;

/// Per-address Two-Level Adaptive Branch Prediction using a global pattern
/// history table (PAg).
///
/// "One history register is associated with each distinct static
/// conditional branch to collect branch history information individually
/// ... Since all branches update the same pattern history table, the
/// pattern history interference still exists." The paper concludes PAg is
/// the most cost-effective variation: 12 bits of per-branch history reach
/// the same ≈97% accuracy that GAg needs 18 bits of global history for,
/// at lower hardware cost than PAp (Figure 8).
///
/// # Example
///
/// ```
/// use tlabp_core::automaton::Automaton;
/// use tlabp_core::bht::BhtConfig;
/// use tlabp_core::predictor::BranchPredictor;
/// use tlabp_core::schemes::Pag;
///
/// let pag = Pag::new(12, BhtConfig::PAPER_DEFAULT, Automaton::A2);
/// assert_eq!(pag.name(), "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))");
/// ```
#[derive(Debug, Clone)]
pub struct Pag {
    bht: BranchHistoryTable,
    pht: PatternHistoryTable,
    label: String,
    flush_pht_on_switch: bool,
}

impl Pag {
    /// Creates a PAg predictor with the given history length, BHT
    /// implementation and pattern automaton.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is out of range or the BHT geometry is
    /// invalid.
    #[must_use]
    pub fn new(history_bits: u32, bht: BhtConfig, automaton: Automaton) -> Self {
        let pht = PatternHistoryTable::new(history_bits, automaton);
        let label =
            format!("PAg({},1xPHT(2^{history_bits},{automaton}))", bht_spec(bht, history_bits));
        Pag { bht: bht.build(history_bits), pht, label, flush_pht_on_switch: false }
    }

    /// Creates a PAg-structured predictor over an existing pattern table —
    /// the assembly used by the PSg Static Training scheme.
    #[must_use]
    pub fn with_pht(bht: BhtConfig, pht: PatternHistoryTable, label: String) -> Self {
        Pag { bht: bht.build(pht.history_bits()), pht, label, flush_pht_on_switch: false }
    }

    /// Ablation switch for Section 5.1.4's design decision: when enabled,
    /// a context switch reinitializes the pattern history table too. The
    /// paper deliberately does *not* do this ("the pattern history table
    /// of the saved process is more likely to be similar to the current
    /// process's pattern history table than to a re-initialized" one);
    /// this knob lets the experiment harness quantify that choice.
    pub fn set_flush_pht_on_context_switch(&mut self, enabled: bool) {
        self.flush_pht_on_switch = enabled;
    }

    /// Read-only access to the pattern history table.
    #[must_use]
    pub fn pht(&self) -> &PatternHistoryTable {
        &self.pht
    }
}

/// Everything the PAg structure knew at prediction time — used by the
/// misprediction-characterization analysis (the paper's concluding
/// remark: "We are examining that 3 percent to try to characterize it").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagDiagnostics {
    /// The direction predicted.
    pub predicted_taken: bool,
    /// Whether the branch's history register was resident in the BHT
    /// (a miss means the prediction came from a fresh all-ones history).
    pub bht_hit: bool,
    /// The pattern used to index the PHT.
    pub pattern: usize,
    /// The PHT entry's automaton state at prediction time.
    pub pattern_state: crate::automaton::State,
}

impl Pag {
    /// [`BranchPredictor::step_interned_block`] over the one event
    /// `event` of `interned` (under the same contract), reporting *why*
    /// the prediction came out the way it did.
    pub fn step_diagnosed(
        &mut self,
        interned: &InternedConds,
        event: InternedCond,
    ) -> PagDiagnostics {
        let pht = &mut self.pht;
        let mut diagnostics = None;
        self.bht.walk_interned(interned, &[event], |pattern, cursor, event| {
            let pattern_state = pht.state(pattern);
            let predicted_taken = pht.predict_update(pattern, event.taken());
            let bht_hit = cursor.hit();
            diagnostics = Some(PagDiagnostics { predicted_taken, bht_hit, pattern, pattern_state });
        });
        diagnostics.expect("the walk visits its one event")
    }
}

pub(crate) fn bht_spec(bht: BhtConfig, history_bits: u32) -> String {
    match bht {
        BhtConfig::Ideal => format!("IBHT(inf,,{history_bits}-sr)"),
        BhtConfig::Cache { entries, ways } => {
            format!("BHT({entries},{ways},{history_bits}-sr)")
        }
    }
}

impl BranchPredictor for Pag {
    fn predict(&mut self, branch: &BranchRecord) -> bool {
        self.bht.access(branch.pc);
        let pattern = self.bht.pattern(branch.pc).expect("entry was just accessed or allocated");
        self.pht.predict(pattern)
    }

    fn update(&mut self, branch: &BranchRecord) {
        // Defensive: if update arrives without a preceding predict (or
        // after a flush in between), allocate the entry first.
        if self.bht.pattern(branch.pc).is_none() {
            self.bht.access(branch.pc);
        }
        let pattern = self.bht.pattern(branch.pc).expect("entry present");
        self.pht.update(pattern, branch.taken);
        self.bht.record_outcome(branch.pc, branch.taken);
    }

    fn context_switch(&mut self) {
        // Flush the BHT; the PHT is deliberately retained (Section 5.1.4)
        // unless the ablation knob says otherwise.
        self.bht.flush();
        if self.flush_pht_on_switch {
            self.pht.reinitialize();
        }
    }

    #[inline]
    fn step_interned_block(&mut self, interned: &InternedConds, events: &[InternedCond]) -> u64 {
        let pht = &mut self.pht;
        let mut correct = 0u64;
        self.bht.walk_interned(interned, events, |pattern, _, event| {
            let taken = event.taken();
            correct += u64::from(pht.predict_update(pattern, taken) == taken);
        });
        correct
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlabp_trace::PackedCond;

    fn branch(pc: u64, taken: bool, n: u64) -> BranchRecord {
        BranchRecord::conditional(pc, taken, pc.wrapping_sub(8), n)
    }

    #[test]
    fn per_branch_history_is_isolated() {
        let mut pag = Pag::new(4, BhtConfig::Ideal, Automaton::A2);
        // Branch A always taken, branch B always not taken; their
        // histories must not pollute each other.
        for i in 0..40u64 {
            pag.process_pair(i);
        }
    }

    impl Pag {
        /// Test helper: run one A(taken)/B(not-taken) pair and assert
        /// steady-state correctness after warm-up.
        fn process_pair(&mut self, i: u64) {
            let a = branch(0x100, true, 2 * i);
            let b = branch(0x200, false, 2 * i + 1);
            let pa = self.predict(&a);
            self.update(&a);
            let pb = self.predict(&b);
            self.update(&b);
            if i > 10 {
                assert!(pa, "A must be predicted taken at iteration {i}");
                assert!(!pb, "B must be predicted not taken at iteration {i}");
            }
        }
    }

    #[test]
    fn learns_loop_exit_with_sufficient_history() {
        // A 4-iteration loop: T T T N repeating. k=4 captures the full
        // period, so steady-state prediction is perfect — the paper's core
        // claim about loop branches.
        let mut pag = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        let outcomes = [true, true, true, false];
        let mut wrong_late = 0;
        for i in 0..400u64 {
            let b = branch(0x40, outcomes[(i % 4) as usize], i);
            let predicted = pag.predict(&b);
            pag.update(&b);
            if i >= 200 && predicted != b.taken {
                wrong_late += 1;
            }
        }
        assert_eq!(wrong_late, 0);
    }

    #[test]
    fn last_time_cannot_learn_loop_exit() {
        // The same loop under a Last-Time PHT keeps mispredicting the exit
        // and the re-entry (Figure 5's reason A2 beats Last-Time)... unless
        // the pattern repeats exactly, in which case LT *can* learn it.
        // Use a noisy pattern to defeat it: alternate exits.
        let mut pag = Pag::new(2, BhtConfig::PAPER_DEFAULT, Automaton::LastTime);
        let mut wrong = 0;
        let mut total = 0;
        // Outcome depends on history in a way 2 bits cannot capture:
        // period-5 pattern with k=2.
        let outcomes = [true, true, false, true, false];
        for i in 0..500u64 {
            let b = branch(0x40, outcomes[(i % 5) as usize], i);
            let predicted = pag.predict(&b);
            pag.update(&b);
            if i >= 100 {
                total += 1;
                wrong += u64::from(predicted != b.taken);
            }
        }
        assert!(wrong > 0, "expected mispredictions, got {wrong}/{total}");
    }

    #[test]
    fn context_switch_flushes_bht_keeps_pht() {
        let mut pag = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        let interned = InternedConds::from_packed(&[PackedCond::new(0x40, false, false); 21]);
        let (&last, events) = interned.events().split_last().expect("21 events");
        for (i, &event) in events.iter().enumerate() {
            let diagnostics = pag.step_diagnosed(&interned, event);
            assert_eq!(diagnostics.bht_hit, i > 0, "only the first access misses");
        }
        let state_before = pag.pht().state(0);
        pag.context_switch();
        assert_eq!(pag.pht().state(0), state_before);
        // After the flush the next access misses and reallocates.
        let diagnostics = pag.step_diagnosed(&interned, last);
        assert!(!diagnostics.bht_hit);
        assert_eq!(diagnostics.pattern, 0b1111, "a fresh all-ones history");
    }

    #[test]
    fn ideal_name_uses_ibht_notation() {
        let pag = Pag::new(12, BhtConfig::Ideal, Automaton::A2);
        assert_eq!(pag.name(), "PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2))");
    }
}
