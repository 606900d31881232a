//! PAp: Per-address branch history table, per-address pattern history
//! tables.

use crate::fxhash::FxHashMap;

use tlabp_trace::BranchRecord;

use crate::automaton::Automaton;
use crate::bht::{BhtConfig, BhtStats, BranchHistoryTable};
use crate::pht::PatternHistoryTable;
use crate::predictor::BranchPredictor;
use crate::schemes::pag::bht_spec;

/// Per-address Two-Level Adaptive Branch Prediction using per-address
/// pattern history tables (PAp).
///
/// "In order to completely remove the interference in both levels, each
/// static branch has its own pattern history table." With a practical
/// (cache) BHT, each *physical entry slot* owns a pattern history table —
/// that is what the hardware provides (`p = h` in the cost model of
/// Section 3.4) — so a branch that reallocates an evicted slot inherits
/// the previous occupant's pattern history. With the ideal BHT every
/// static branch gets a private table.
///
/// PAp achieves the paper's target ≈97% accuracy with only 6 history bits
/// (Figure 8) but is the most expensive variation because of the `h`
/// pattern history tables.
///
/// # Example
///
/// ```
/// use tlabp_core::automaton::Automaton;
/// use tlabp_core::bht::BhtConfig;
/// use tlabp_core::predictor::BranchPredictor;
/// use tlabp_core::schemes::Pap;
///
/// let pap = Pap::new(6, BhtConfig::PAPER_DEFAULT, Automaton::A2);
/// assert_eq!(pap.name(), "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))");
/// ```
#[derive(Debug, Clone)]
pub struct Pap {
    bht: BranchHistoryTable,
    tables: PapTables,
    history_bits: u32,
    automaton: Automaton,
    label: String,
}

#[derive(Debug, Clone)]
enum PapTables {
    /// One PHT per physical BHT slot (practical implementation).
    PerSlot(Vec<PatternHistoryTable>),
    /// One PHT per static branch (ideal implementation). The pc-keyed
    /// map serves the ordinary paths; the dense vector serves
    /// [`BranchPredictor::step_interned`], which indexes by the branch's
    /// interned id instead of hashing the pc. A predictor instance only
    /// ever populates one of the two (the simulation paths never mix
    /// keying modes on one instance).
    PerBranch {
        keyed: FxHashMap<u64, PatternHistoryTable>,
        interned: Vec<Option<PatternHistoryTable>>,
    },
}

impl Pap {
    /// Creates a PAp predictor.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is out of range, the BHT geometry is
    /// invalid, or the per-slot pattern tables hold more than
    /// [`MAX_PATTERN_ENTRIES`](crate::geometry::MAX_PATTERN_ENTRIES)
    /// entries.
    #[must_use]
    pub fn new(history_bits: u32, bht: BhtConfig, automaton: Automaton) -> Self {
        let table = bht.build(history_bits);
        let tables = match bht {
            BhtConfig::Ideal => {
                PapTables::PerBranch { keyed: FxHashMap::default(), interned: Vec::new() }
            }
            BhtConfig::Cache { entries, .. } => {
                crate::geometry::assert_valid(crate::geometry::check_pattern_tables(
                    entries,
                    history_bits,
                ));
                PapTables::PerSlot(vec![PatternHistoryTable::new(history_bits, automaton); entries])
            }
        };
        let set_size = match bht {
            BhtConfig::Ideal => "inf".to_owned(),
            BhtConfig::Cache { entries, .. } => entries.to_string(),
        };
        let label = format!(
            "PAp({},{set_size}xPHT(2^{history_bits},{automaton}))",
            bht_spec(bht, history_bits)
        );
        Pap { bht: table, tables, history_bits, automaton, label }
    }

    /// Branch-history-table hit statistics.
    #[must_use]
    pub fn bht_stats(&self) -> BhtStats {
        self.bht.stats()
    }

    /// The per-table history-register length `k`.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// The automaton stored in every pattern table entry.
    #[must_use]
    pub fn automaton(&self) -> Automaton {
        self.automaton
    }

    /// Number of pattern history tables currently instantiated.
    #[must_use]
    pub fn pattern_table_count(&self) -> usize {
        match &self.tables {
            PapTables::PerSlot(v) => v.len(),
            PapTables::PerBranch { keyed, interned } => {
                keyed.len() + interned.iter().filter(|t| t.is_some()).count()
            }
        }
    }

    fn table_mut(&mut self, pc: u64) -> &mut PatternHistoryTable {
        let history_bits = self.history_bits;
        let automaton = self.automaton;
        match &mut self.tables {
            PapTables::PerSlot(tables) => {
                let slot = self.bht.slot_of(pc).expect("cache BHT entry resident after access");
                &mut tables[slot]
            }
            PapTables::PerBranch { keyed, .. } => {
                keyed.entry(pc).or_insert_with(|| PatternHistoryTable::new(history_bits, automaton))
            }
        }
    }
}

impl BranchPredictor for Pap {
    fn predict(&mut self, branch: &BranchRecord) -> bool {
        self.bht.access(branch.pc);
        let pattern = self.bht.pattern(branch.pc).expect("entry present after access");
        self.table_mut(branch.pc).predict(pattern)
    }

    fn update(&mut self, branch: &BranchRecord) {
        if self.bht.pattern(branch.pc).is_none() {
            self.bht.access(branch.pc);
        }
        let pattern = self.bht.pattern(branch.pc).expect("entry present");
        self.table_mut(branch.pc).update(pattern, branch.taken);
        self.bht.record_outcome(branch.pc, branch.taken);
    }

    fn context_switch(&mut self) {
        // Flush the BHT; all pattern history tables are retained.
        self.bht.flush();
    }

    #[inline]
    fn step(&mut self, branch: &BranchRecord) -> bool {
        let (pattern, cursor) = self.bht.access_pattern(branch.pc);
        let history_bits = self.history_bits;
        let automaton = self.automaton;
        let table = match (&mut self.tables, cursor.slot()) {
            (PapTables::PerSlot(tables), Some(slot)) => &mut tables[slot],
            (PapTables::PerBranch { keyed, .. }, _) => keyed
                .entry(branch.pc)
                .or_insert_with(|| PatternHistoryTable::new(history_bits, automaton)),
            (PapTables::PerSlot(_), None) => {
                unreachable!("cache BHT always yields a slot cursor")
            }
        };
        let predicted = table.predict_update(pattern, branch.taken);
        self.bht.record_outcome_at(cursor, branch.pc, branch.taken);
        predicted
    }

    #[inline]
    fn step_interned(&mut self, id: u32, branch: &BranchRecord) -> bool {
        let (pattern, cursor) = self.bht.access_pattern_interned(id, branch.pc);
        let history_bits = self.history_bits;
        let automaton = self.automaton;
        let table = match (&mut self.tables, cursor.slot()) {
            (PapTables::PerSlot(tables), Some(slot)) => &mut tables[slot],
            (PapTables::PerBranch { interned, .. }, _) => {
                let index = id as usize;
                if index >= interned.len() {
                    interned.resize(index + 1, None);
                }
                interned[index]
                    .get_or_insert_with(|| PatternHistoryTable::new(history_bits, automaton))
            }
            (PapTables::PerSlot(_), None) => {
                unreachable!("cache BHT always yields a slot cursor")
            }
        };
        let predicted = table.predict_update(pattern, branch.taken);
        self.bht.record_outcome_at_interned(cursor, id, branch.taken);
        predicted
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch(pc: u64, taken: bool, n: u64) -> BranchRecord {
        BranchRecord::conditional(pc, taken, pc.wrapping_sub(8), n)
    }

    #[test]
    fn pattern_history_is_private_per_branch() {
        // Branch A repeats T,T,N and branch B repeats T,N,N. Their
        // pattern→outcome maps disagree on histories (T,N) and (N,T), so a
        // shared Last-Time PHT ping-pongs on those patterns while PAp's
        // per-address tables predict both branches perfectly (k=2 covers a
        // period-3 sequence's distinguishing histories).
        let a_seq = [true, true, false];
        let b_seq = [true, false, false];

        let mut pap = Pap::new(2, BhtConfig::Ideal, Automaton::LastTime);
        let mut pap_wrong = 0;
        let mut pag = crate::schemes::Pag::new(2, BhtConfig::Ideal, Automaton::LastTime);
        let mut pag_wrong = 0;
        for i in 0..300u64 {
            let a = branch(0x100, a_seq[(i % 3) as usize], 2 * i);
            let b = branch(0x200, b_seq[(i % 3) as usize], 2 * i + 1);
            for rec in [a, b] {
                for (predictor, wrong) in [
                    (&mut pap as &mut dyn BranchPredictor, &mut pap_wrong),
                    (&mut pag as &mut dyn BranchPredictor, &mut pag_wrong),
                ] {
                    let predicted = predictor.predict(&rec);
                    predictor.update(&rec);
                    if i >= 100 && predicted != rec.taken {
                        *wrong += 1;
                    }
                }
            }
        }
        assert_eq!(pap_wrong, 0, "PAp removes pattern interference");
        assert!(pag_wrong > 0, "shared PHT must show interference here");
    }

    #[test]
    fn per_slot_tables_are_allocated_up_front() {
        let pap = Pap::new(6, BhtConfig::Cache { entries: 128, ways: 4 }, Automaton::A2);
        assert_eq!(pap.pattern_table_count(), 128);
    }

    #[test]
    fn per_branch_tables_grow_on_demand() {
        let mut pap = Pap::new(4, BhtConfig::Ideal, Automaton::A2);
        assert_eq!(pap.pattern_table_count(), 0);
        for pc in [0x10u64, 0x20, 0x30] {
            let b = branch(pc, true, pc);
            pap.predict(&b);
            pap.update(&b);
        }
        assert_eq!(pap.pattern_table_count(), 3);
    }

    #[test]
    fn slot_reallocation_inherits_pattern_history() {
        // Direct-mapped 4-entry BHT: two pcs conflict on set 0. The second
        // branch inherits the first's per-slot PHT — the interference the
        // ideal version avoids.
        let mut pap = Pap::new(2, BhtConfig::Cache { entries: 4, ways: 1 }, Automaton::LastTime);
        let a = branch(0, false, 1); // set 0
        let conflicting = branch(4 * 4, true, 2); // also set 0
                                                  // Train pattern 0b11 (fresh all-ones history) to "not taken" via A.
        pap.predict(&a);
        pap.update(&a);
        // B evicts A; fresh history = 0b11 again; its prediction comes from
        // the PHT state A left behind.
        let predicted = pap.predict(&conflicting);
        assert!(!predicted, "slot PHT must carry A's learned not-taken");
    }

    #[test]
    fn context_switch_keeps_pattern_tables() {
        let mut pap = Pap::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        for i in 0..20u64 {
            let b = branch(0x40, false, i);
            pap.predict(&b);
            pap.update(&b);
        }
        let tables_before = pap.pattern_table_count();
        pap.context_switch();
        assert_eq!(pap.pattern_table_count(), tables_before);
        let b = branch(0x40, false, 100);
        let misses_before = pap.bht_stats().misses;
        pap.predict(&b);
        assert_eq!(pap.bht_stats().misses, misses_before + 1, "BHT was flushed");
    }

    #[test]
    fn name_matches_table3_notation() {
        let pap = Pap::new(6, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        assert_eq!(pap.name(), "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))");
        let ideal = Pap::new(6, BhtConfig::Ideal, Automaton::A2);
        assert_eq!(ideal.name(), "PAp(IBHT(inf,,6-sr),infxPHT(2^6,A2))");
    }
}
