//! The common interface every simulated branch predictor implements.

use tlabp_trace::{BranchRecord, InternedCond, InternedConds};

/// A dynamic (or static) conditional-branch predictor under trace-driven
/// simulation.
///
/// The simulation contract mirrors the paper's Section 4: for each dynamic
/// conditional branch, the simulator calls [`BranchPredictor::predict`] and
/// then, once the branch resolves, [`BranchPredictor::update`] with the
/// same record (whose `taken` field holds the actual outcome). `update`
/// must be called exactly once after each `predict`, in the same order.
/// The reference loop (`tlabp_sim::runner::simulate`) calls exactly
/// these two. The engine's other loops, over a pc-interned stream, call
/// [`BranchPredictor::step_interned_block`] instead: the walk on chunks
/// of the stream, the instrumented pass on one event at a time. Its
/// default (`predict` + `update` on each event's record) keeps every
/// implementation correct there, and schemes override it only to go
/// faster, never to change a prediction.
///
/// [`BranchPredictor::context_switch`] implements Section 5.1.4's model:
/// flush and reinitialize the first-level branch history, but leave pattern
/// history tables alone.
///
/// # Example
///
/// ```
/// use tlabp_core::predictor::BranchPredictor;
/// use tlabp_core::schemes::Gag;
/// use tlabp_core::automaton::Automaton;
/// use tlabp_trace::BranchRecord;
///
/// let mut predictor = Gag::new(8, Automaton::A2);
/// let branch = BranchRecord::conditional(0x40, true, 0x10, 1);
/// let predicted_taken = predictor.predict(&branch);
/// predictor.update(&branch);
/// assert!(predicted_taken); // tables initialize biased toward taken
/// ```
pub trait BranchPredictor {
    /// Predicts the direction of `branch` (ignoring its `taken` field).
    fn predict(&mut self, branch: &BranchRecord) -> bool;

    /// Informs the predictor of the resolved outcome (`branch.taken`).
    fn update(&mut self, branch: &BranchRecord);

    /// Simulates a context switch: flush first-level branch history.
    ///
    /// The default does nothing, which is correct for stateless static
    /// schemes.
    fn context_switch(&mut self) {}

    /// A descriptive name in the paper's Table 3 notation where
    /// applicable.
    fn name(&self) -> String;

    /// Steps every event of `events`, a slice of `interned`'s stream, in
    /// order, returning how many predictions matched the resolved
    /// direction.
    ///
    /// Semantically identical to [`BranchPredictor::predict`] then
    /// [`BranchPredictor::update`] on each event's record
    /// ([`InternedConds::record`]), which is the default. The caller's
    /// contract: over this predictor's lifetime every block comes from
    /// one stream, whose ids alias its pcs one to one, never mixed with
    /// pc-keyed `predict`/`update`. Under it the hot schemes read the
    /// 4-byte events (and the id→pc table) directly, resolve their
    /// first-level entry once per branch and index per-address state by
    /// id; `tests/differential.rs` pins the equivalence for every catalog
    /// scheme.
    ///
    /// The interned walk (`tlabp_sim::runner::simulate_fused`) hands each
    /// predictor of a batch the same chunk, so per-event dispatch (the
    /// `AnyPredictor` variant match, or a `dyn` call) is paid once per
    /// chunk and each predictor's own tables stay cache-hot for it. The
    /// instrumented pass steps one-event blocks.
    fn step_interned_block(&mut self, interned: &InternedConds, events: &[InternedCond]) -> u64 {
        let mut correct = 0u64;
        for &event in events {
            let branch = interned.record(event);
            let predicted = self.predict(&branch);
            self.update(&branch);
            correct += u64::from(predicted == branch.taken);
        }
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Automaton;
    use crate::schemes::Gag;

    /// A GAg that keeps the trait's default block step.
    struct Plain(Gag);

    impl BranchPredictor for Plain {
        fn predict(&mut self, branch: &BranchRecord) -> bool {
            self.0.predict(branch)
        }

        fn update(&mut self, branch: &BranchRecord) {
            self.0.update(branch);
        }

        fn name(&self) -> String {
            self.0.name()
        }
    }

    #[test]
    fn default_block_step_counts_what_predict_and_update_get_right() {
        let trace = tlabp_trace::synth::MarkovBranches::new(24, 0.8, 3000, 5).generate();
        let interned = InternedConds::from_trace(&trace);
        let mut plain = Plain(Gag::new(8, Automaton::A2));
        let one_at_a_time: u64 = interned
            .events()
            .chunks(1)
            .map(|event| plain.step_interned_block(&interned, event))
            .sum();
        let mut gag = Gag::new(8, Automaton::A2);
        assert_eq!(one_at_a_time, gag.step_interned_block(&interned, interned.events()));
        assert_eq!(plain.0.current_pattern(), gag.current_pattern());
    }

    #[test]
    fn boxed_predictor_dispatches() {
        let mut p: Box<dyn BranchPredictor> = Box::new(Gag::new(4, Automaton::A2));
        let b = BranchRecord::conditional(0x10, true, 0x4, 1);
        assert!(p.predict(&b));
        p.update(&b);
        p.context_switch();
        assert!(p.name().contains("GAg"));
    }
}
