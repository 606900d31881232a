//! The Static Training schemes of Lee & A. Smith (GSg and PSg).
//!
//! Static Training has the same two-level *structure* as the adaptive
//! schemes "but with the important difference that the prediction for a
//! given pattern is pre-determined by profiling": a training run gathers,
//! for every history pattern, the direction the next branch most often
//! took; the resulting per-pattern prediction bits are loaded into the
//! pattern history table before the testing run and never change.
//!
//! * **GSg** — global history register over a preset global table.
//! * **PSg** — per-address branch history table over a preset global table
//!   (this is the configuration closest to Lee & A. Smith's published
//!   scheme; the paper reports it at 94.4% average accuracy).
//!
//! The paper deliberately does not simulate PSp (per-address preset
//! tables) because of its profiling storage cost; neither do we.

use crate::automaton::{Automaton, State};
use crate::bht::BhtConfig;
use crate::history::HistoryRegister;
use crate::pht::PatternHistoryTable;
use crate::schemes::pag::bht_spec;
use crate::schemes::{Gag, Pag};

/// Per-pattern taken/not-taken statistics gathered from a training trace,
/// and the preset prediction bits derived from them.
///
/// # Example
///
/// ```
/// use tlabp_core::schemes::{train_global, Gsg};
/// use tlabp_trace::synth::RepeatingPattern;
///
/// let training = RepeatingPattern::new(&[true, true, false], 100).generate();
/// let preset = train_global(training.conditional_outcomes(), 6);
/// let gsg = Gsg::new(&preset);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresetTable {
    history_bits: u32,
    taken_counts: Vec<u64>,
    total_counts: Vec<u64>,
}

impl PresetTable {
    fn new(history_bits: u32) -> Self {
        let entries = 1usize << history_bits;
        PresetTable { history_bits, taken_counts: vec![0; entries], total_counts: vec![0; entries] }
    }

    fn record(&mut self, pattern: usize, taken: bool) {
        self.taken_counts[pattern] += u64::from(taken);
        self.total_counts[pattern] += 1;
    }

    /// The history-register length `k` this table was trained for.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// The preset prediction for `pattern`: the majority direction observed
    /// in training. Unseen patterns and exact ties predict taken (the
    /// direction branches favor overall).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn prediction(&self, pattern: usize) -> bool {
        let total = self.total_counts[pattern];
        if total == 0 {
            return true;
        }
        2 * self.taken_counts[pattern] >= total
    }

    /// Number of patterns that occurred at least once in training.
    #[must_use]
    pub fn patterns_seen(&self) -> usize {
        self.total_counts.iter().filter(|&&c| c > 0).count()
    }

    /// Materializes the preset bits into a [`PatternHistoryTable`] of
    /// [`Automaton::PresetBit`] entries (which run-time updates never
    /// change).
    #[must_use]
    pub fn to_pht(&self) -> PatternHistoryTable {
        let mut pht = PatternHistoryTable::new(self.history_bits, Automaton::PresetBit);
        for pattern in 0..pht.len() {
            pht.set_state(pattern, State::new(u8::from(self.prediction(pattern))));
        }
        pht
    }
}

/// Profiles a training run's conditional branches, given as
/// `(pc, taken)` pairs in program order, through a single global
/// history register, producing the preset table for a GSg predictor.
///
/// The pairs come from a full trace
/// ([`Trace::conditional_outcomes`](tlabp_trace::Trace::conditional_outcomes))
/// or from its interned stream
/// ([`InternedConds::outcomes`](tlabp_trace::InternedConds::outcomes)):
/// the same pairs give the same table.
///
/// # Panics
///
/// Panics if `history_bits` is out of range.
#[must_use]
pub fn train_global(
    outcomes: impl IntoIterator<Item = (u64, bool)>,
    history_bits: u32,
) -> PresetTable {
    let mut preset = PresetTable::new(history_bits);
    let mut history = HistoryRegister::all_ones(history_bits);
    for (_, taken) in outcomes {
        preset.record(history.pattern(), taken);
        history.shift_in(taken);
    }
    preset
}

/// Profiles a training run's conditional branches, given as
/// `(pc, taken)` pairs in program order (as for [`train_global`]),
/// through ideal per-address history registers, producing the preset
/// table for a PSg predictor.
///
/// Profiling uses an ideal (unbounded) per-branch history table: the
/// statistics-gathering pass has no reason to model capacity misses.
///
/// # Panics
///
/// Panics if `history_bits` is out of range.
#[must_use]
pub fn train_per_address(
    outcomes: impl IntoIterator<Item = (u64, bool)>,
    history_bits: u32,
) -> PresetTable {
    let mut preset = PresetTable::new(history_bits);
    let mut bht = BhtConfig::Ideal.build(history_bits);
    for (pc, taken) in outcomes {
        bht.access(pc);
        let pattern = bht.pattern(pc).expect("just accessed");
        preset.record(pattern, taken);
        bht.record_outcome(pc, taken);
    }
    preset
}

/// Global Static Training using a preset global pattern history table
/// (GSg): the GAg structure over profiled, immutable prediction bits.
///
/// Returned predictor reports its configuration as
/// `GSg(HR(1,,k-sr),1xPHT(2^k,PB))`.
#[derive(Debug, Clone)]
pub struct Gsg;

impl Gsg {
    /// Assembles a GSg predictor from a preset table produced by
    /// [`train_global`].
    #[must_use]
    #[allow(clippy::new_ret_no_self)]
    pub fn new(preset: &PresetTable) -> Gag {
        let k = preset.history_bits();
        Gag::with_pht(preset.to_pht(), format!("GSg(HR(1,,{k}-sr),1xPHT(2^{k},PB))"))
    }
}

/// Per-address Static Training using a preset global pattern history table
/// (PSg) — Lee & A. Smith's scheme as the paper configures it.
#[derive(Debug, Clone)]
pub struct Psg;

impl Psg {
    /// Assembles a PSg predictor from a preset table produced by
    /// [`train_per_address`], using `bht` for the run-time first level.
    #[must_use]
    #[allow(clippy::new_ret_no_self)]
    pub fn new(preset: &PresetTable, bht: BhtConfig) -> Pag {
        let k = preset.history_bits();
        let label = format!("PSg({},1xPHT(2^{k},PB))", bht_spec(bht, k));
        Pag::with_pht(bht, preset.to_pht(), label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::BranchPredictor;
    use tlabp_trace::synth::{BiasedCoins, RepeatingPattern};
    use tlabp_trace::{BranchRecord, Trace};

    #[test]
    fn preset_majority_and_defaults() {
        let mut preset = PresetTable::new(2);
        preset.record(0b01, true);
        preset.record(0b01, true);
        preset.record(0b01, false);
        preset.record(0b10, false);
        assert!(preset.prediction(0b01), "majority taken");
        assert!(!preset.prediction(0b10), "majority not taken");
        assert!(preset.prediction(0b00), "unseen defaults to taken");
        assert_eq!(preset.patterns_seen(), 2);
    }

    #[test]
    fn tie_breaks_toward_taken() {
        let mut preset = PresetTable::new(1);
        preset.record(0, true);
        preset.record(0, false);
        assert!(preset.prediction(0));
    }

    #[test]
    fn gsg_predicts_trained_pattern_exactly() {
        let pattern = [true, true, false];
        let training = RepeatingPattern::new(&pattern, 200).generate();
        let preset = train_global(training.conditional_outcomes(), 6);
        let mut gsg = Gsg::new(&preset);

        // Same-distribution testing data: GSg should be near perfect.
        let testing = RepeatingPattern::new(&pattern, 100).generate();
        let mut wrong = 0;
        for (i, b) in testing.conditional_branches().enumerate() {
            let predicted = gsg.predict(b);
            gsg.update(b);
            if i >= 20 && predicted != b.taken {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 0);
    }

    #[test]
    fn static_training_cannot_adapt_to_shifted_data() {
        // Train on 90%-taken branches, test on 10%-taken: the preset bits
        // are wrong for the new data and Static Training cannot adapt —
        // the paper's core criticism of profiling-based schemes.
        let training = BiasedCoins::uniform(4, 0.9, 500, 11).generate();
        let preset = train_per_address(training.conditional_outcomes(), 4);
        let mut psg = Psg::new(&preset, BhtConfig::PAPER_DEFAULT);
        let mut pag = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);

        let testing = BiasedCoins::uniform(4, 0.1, 500, 13).generate();
        let mut psg_correct = 0u64;
        let mut pag_correct = 0u64;
        let mut total = 0u64;
        for b in testing.conditional_branches() {
            psg_correct += u64::from(psg.process(b));
            pag_correct += u64::from(pag.process(b));
            total += 1;
        }
        assert!(
            pag_correct > psg_correct,
            "adaptive PAg ({pag_correct}/{total}) must beat preset PSg ({psg_correct}/{total}) \
             when the data distribution shifts"
        );
    }

    #[test]
    fn preset_bits_do_not_change_at_run_time() {
        let training = RepeatingPattern::new(&[true], 50).generate();
        let preset = train_global(training.conditional_outcomes(), 3);
        let mut gsg = Gsg::new(&preset);
        // Hammer with not-taken branches; predictions keep following the
        // preset table (which defaults everything to taken here).
        for i in 0..50u64 {
            let b = BranchRecord::conditional(0x40, false, 0x10, i);
            let predicted = gsg.predict(&b);
            gsg.update(&b);
            assert!(predicted, "preset GSg must keep predicting taken at step {i}");
        }
    }

    #[test]
    fn names_follow_table3() {
        let preset = PresetTable::new(6);
        assert_eq!(Gsg::new(&preset).name(), "GSg(HR(1,,6-sr),1xPHT(2^6,PB))");
        assert_eq!(
            Psg::new(&preset, BhtConfig::PAPER_DEFAULT).name(),
            "PSg(BHT(512,4,6-sr),1xPHT(2^6,PB))"
        );
    }

    #[test]
    fn per_address_training_separates_branches() {
        // Branch A always taken, branch B always not taken, alternating.
        // Per-address training sees pattern all-ones→taken (from A) and
        // all-zeros→not-taken (from B); global training would interleave
        // them into mixed patterns.
        let mut trace = Trace::new();
        for i in 0..100u64 {
            trace.push(BranchRecord::conditional(0x100, true, 0x40, 2 * i + 1));
            trace.push(BranchRecord::conditional(0x200, false, 0x40, 2 * i + 2));
        }
        let preset = train_per_address(trace.conditional_outcomes(), 4);
        assert!(preset.prediction(0b1111));
        assert!(!preset.prediction(0b0000));
    }
}
