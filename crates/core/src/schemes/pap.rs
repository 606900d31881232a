//! PAp: Per-address branch history table, per-address pattern history
//! tables.

use tlabp_trace::{BranchRecord, InternedCond, InternedConds};

use crate::automaton::Automaton;
use crate::bht::{BhtConfig, BranchHistoryTable};
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
/// Tables fill on first use: each starts as a clone of a fresh
/// [`Pap::template`] the first time its slot (or branch) is touched, and
/// a never-touched table is indistinguishable from a fresh one. A
/// predictor that only lends its template to pattern-stream replay
/// allocates no per-slot tables at all.
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
/// assert_eq!(pap.pattern_table_count(), 0); // none touched yet
/// ```
#[derive(Debug, Clone)]
pub struct Pap {
    bht: BranchHistoryTable,
    /// A fresh table: every pattern table starts as a clone of it.
    template: PatternHistoryTable,
    /// One table per lane ([`crate::bht::BhtCursor::lane`]): the BHT slot
    /// under a practical BHT; under the ideal one, the interned id on
    /// the interned path and the BHT's index of the pc on the pc path.
    lanes: Vec<Option<PatternHistoryTable>>,
    label: String,
}

impl Pap {
    /// Creates a PAp predictor.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is out of range, the BHT geometry is
    /// invalid, or the per-slot pattern tables would hold more than
    /// [`MAX_PATTERN_ENTRIES`](crate::geometry::MAX_PATTERN_ENTRIES)
    /// entries once every slot is touched (under the ideal BHT, a slot
    /// per static branch, for at most 2^13 branches).
    #[must_use]
    pub fn new(history_bits: u32, bht: BhtConfig, automaton: Automaton) -> Self {
        let table = bht.build(history_bits);
        crate::geometry::assert_valid(crate::geometry::check_pap_tables(bht, history_bits));
        let set_size = match bht {
            BhtConfig::Ideal => "inf".to_owned(),
            BhtConfig::Cache { entries, .. } => entries.to_string(),
        };
        let label = format!(
            "PAp({},{set_size}xPHT(2^{history_bits},{automaton}))",
            bht_spec(bht, history_bits)
        );
        Pap {
            bht: table,
            template: PatternHistoryTable::new(history_bits, automaton),
            lanes: Vec::new(),
            label,
        }
    }

    /// The fresh table every pattern table starts from. Replay builds its
    /// per-lane bank from it.
    #[must_use]
    pub fn template(&self) -> &PatternHistoryTable {
        &self.template
    }

    /// The per-table history-register length `k`.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.template.history_bits()
    }

    /// The automaton stored in every pattern table entry.
    #[must_use]
    pub fn automaton(&self) -> Automaton {
        self.template.automaton()
    }

    /// Number of pattern history tables made so far: one per slot or
    /// branch touched.
    #[must_use]
    pub fn pattern_table_count(&self) -> usize {
        self.lanes.iter().flatten().count()
    }

    /// The pattern table of the branch at `pc`, whose BHT entry the
    /// caller has just accessed.
    fn table_mut(&mut self, pc: u64) -> &mut PatternHistoryTable {
        let lane = self.bht.lane_of(pc).expect("BHT entry resident after access");
        lane_table(&mut self.lanes, &self.template, lane)
    }
}

/// `lane`'s table, cloned from `template` on the lane's first touch.
#[inline]
fn lane_table<'a>(
    lanes: &'a mut Vec<Option<PatternHistoryTable>>,
    template: &PatternHistoryTable,
    lane: u32,
) -> &'a mut PatternHistoryTable {
    let lane = lane as usize;
    if lane >= lanes.len() {
        lanes.resize_with(lane + 1, || None);
    }
    lanes[lane].get_or_insert_with(|| template.clone())
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
    fn step_interned_block(&mut self, interned: &InternedConds, events: &[InternedCond]) -> u64 {
        let (lanes, template) = (&mut self.lanes, &self.template);
        let mut correct = 0u64;
        self.bht.walk_interned(interned, events, |pattern, cursor, event| {
            let taken = event.taken();
            let table = lane_table(lanes, template, cursor.lane());
            correct += u64::from(table.predict_update(pattern, taken) == taken);
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
    fn per_slot_tables_fill_on_first_touch() {
        let mut pap = Pap::new(6, BhtConfig::Cache { entries: 128, ways: 4 }, Automaton::A2);
        assert_eq!(pap.pattern_table_count(), 0, "a fresh PAp holds no tables");
        // Five distinct pcs, each touched three times, in five slots.
        for n in 0..15u64 {
            let b = branch(0x100 + (n % 5) * 4, n % 2 == 0, n);
            pap.predict(&b);
            pap.update(&b);
        }
        assert_eq!(pap.pattern_table_count(), 5, "one table per touched slot");
    }

    #[test]
    fn interned_twin_matches_pc_driven_cache_pap() {
        // The twin driven by interned ids must predict every branch as
        // the pc-driven one does and make the same tables, across a
        // context switch. In a small 2-way table pcs conflict and slots
        // are reallocated: set 0's four pcs share both its ways, and sets
        // 1–3 hold one pc each, which after the flush refills the set's
        // never-used way, so all 8 slots get a table. Under the ideal
        // BHT, the pc path's lane is the index the BHT gave the pc, which
        // survives the flush, so each of the 7 pcs keeps one table.
        let pcs = [0x100u64, 0x204, 0x308, 0x100, 0x40c, 0x204, 0x120, 0x510, 0x308, 0x140];
        let packed: Vec<PackedCond> = pcs
            .iter()
            .cycle()
            .take(600)
            .enumerate()
            .map(|(n, &pc)| PackedCond::new(pc, (n * 7 + n / 5) % 3 != 0, false))
            .collect();
        let interned = InternedConds::from_packed(&packed);
        for (config, tables) in
            [(BhtConfig::Cache { entries: 8, ways: 2 }, 8), (BhtConfig::Ideal, 7)]
        {
            let mut by_pc = Pap::new(4, config, Automaton::A2);
            let mut by_id = Pap::new(4, config, Automaton::A2);
            for (n, event) in interned.events().iter().enumerate() {
                if n == 300 {
                    by_pc.context_switch();
                    by_id.context_switch();
                }
                let b = interned.record(*event);
                let predicted = by_pc.predict(&b);
                by_pc.update(&b);
                let correct = by_id.step_interned_block(&interned, std::slice::from_ref(event));
                assert_eq!(b.taken == (correct == 1), predicted, "{config:?}: branch {n}");
                assert_eq!(by_id.pattern_table_count(), by_pc.pattern_table_count(), "{n}");
            }
            assert_eq!(by_pc.pattern_table_count(), tables, "{config:?}");
        }
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
        assert_eq!(pap.bht.pattern(0x40), None, "BHT was flushed");
    }

    #[test]
    fn name_matches_table3_notation() {
        let pap = Pap::new(6, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        assert_eq!(pap.name(), "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))");
        let ideal = Pap::new(6, BhtConfig::Ideal, Automaton::A2);
        assert_eq!(ideal.name(), "PAp(IBHT(inf,,6-sr),infxPHT(2^6,A2))");
    }
}
