//! The common interface every simulated branch predictor implements.

use tlabp_trace::BranchRecord;

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
/// [`BranchPredictor::step_interned_block`] (the walk) or
/// [`BranchPredictor::step_interned`] (the instrumented pass) instead; the
/// default chain (`step_interned_block` → `step_interned` → `predict` +
/// `update`) keeps every implementation correct there, and schemes
/// override links of the chain only to go faster, never to change a
/// prediction.
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

    /// Convenience: predict then immediately update, returning whether the
    /// prediction was *correct*.
    fn process(&mut self, branch: &BranchRecord) -> bool
    where
        Self: Sized,
    {
        let predicted = self.predict(branch);
        self.update(branch);
        predicted == branch.taken
    }

    /// Fused predict-then-update against a pc-interned stream, returning
    /// the prediction: `id` is the dense per-trace alias of `branch.pc`
    /// (see `tlabp_trace::InternedConds`).
    ///
    /// Semantically identical to [`BranchPredictor::predict`] followed by
    /// [`BranchPredictor::update`] with the same record, which is the
    /// default. The contract a caller must uphold: over this predictor's
    /// lifetime, equal ids always accompany equal pcs and vice versa (one
    /// trace's interning, never mixed with pc-keyed `predict`/`update`).
    /// Under it, the hot two-level schemes override this to resolve their
    /// first-level entry once per branch instead of once per call, and
    /// schemes with per-address state index a dense vector by `id`
    /// instead of hashing `branch.pc`; `tests/differential.rs` pins the
    /// equivalence for every catalog scheme.
    fn step_interned(&mut self, id: u32, branch: &BranchRecord) -> bool {
        let _ = id;
        let predicted = self.predict(branch);
        self.update(branch);
        predicted
    }

    /// Steps every `(id, record)` of `block` in order, returning how many
    /// predictions matched the resolved direction.
    ///
    /// This is the inner loop of the interned walk
    /// (`tlabp_sim::runner::simulate_fused`): the caller decodes a chunk
    /// of the interned stream once and hands it to each predictor of the
    /// batch, so per-event dispatch (the `AnyPredictor` variant match, or
    /// a `dyn` call) is paid once per block instead of once per event,
    /// and each predictor's tables stay cache-hot for the whole chunk.
    /// Every predictor walks its own tables; no state is shared between
    /// the members of a batch.
    fn step_interned_block(&mut self, block: &[(u32, BranchRecord)]) -> u64 {
        let mut correct = 0u64;
        for (id, branch) in block {
            correct += u64::from(self.step_interned(*id, branch) == branch.taken);
        }
        correct
    }
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for Box<P> {
    fn predict(&mut self, branch: &BranchRecord) -> bool {
        (**self).predict(branch)
    }

    fn update(&mut self, branch: &BranchRecord) {
        (**self).update(branch);
    }

    fn context_switch(&mut self) {
        (**self).context_switch();
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn step_interned(&mut self, id: u32, branch: &BranchRecord) -> bool {
        (**self).step_interned(id, branch)
    }

    fn step_interned_block(&mut self, block: &[(u32, BranchRecord)]) -> u64 {
        (**self).step_interned_block(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Automaton;
    use crate::schemes::Gag;

    #[test]
    fn process_reports_correctness() {
        let mut p = Gag::new(4, Automaton::A2);
        let taken = BranchRecord::conditional(0x10, true, 0x4, 1);
        let not_taken = BranchRecord::conditional(0x10, false, 0x4, 2);
        assert!(p.process(&taken), "initial bias predicts taken");
        assert!(!p.process(&not_taken), "strongly-taken entry mispredicts first not-taken");
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
