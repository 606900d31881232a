//! A monomorphized sum of every concrete predictor.
//!
//! [`AnyPredictor`] wraps every catalog scheme in an enum, so a generic
//! `simulate<P: BranchPredictor>` instantiation resolves every call
//! statically: the per-branch cost becomes a jump table the optimizer can
//! hoist out of the loop, and the scheme methods inline into the
//! simulation loop body. Every simulation path runs one, the reference
//! loop included.
//!
//! [`SchemeConfig`](crate::config::SchemeConfig) has one factory,
//! [`build_any`](crate::config::SchemeConfig::build_any), and its
//! training twin
//! [`build_any_trained`](crate::config::SchemeConfig::build_any_trained).
//! [`SchemeConfig::build`](crate::config::SchemeConfig::build) boxes what
//! `build_any` returns as a `Box<dyn BranchPredictor>`, which pays one
//! virtual dispatch per `predict`/`update`, for callers that want a trait
//! object; both forms step the same predictor state.
//!
//! # Example
//!
//! ```
//! use tlabp_core::config::SchemeConfig;
//! use tlabp_core::predictor::BranchPredictor;
//! use tlabp_trace::BranchRecord;
//!
//! let mut p = SchemeConfig::pag(12).build_any()?;
//! let branch = BranchRecord::conditional(0x40, true, 0x10, 1);
//! let predicted = p.predict(&branch);
//! p.update(&branch);
//! assert!(predicted);
//! # Ok::<(), tlabp_core::config::BuildError>(())
//! ```

use tlabp_trace::{BranchRecord, InternedCond, InternedConds};

use crate::predictor::BranchPredictor;
use crate::schemes::{AlwaysTaken, Btb, Btfn, Gag, Pag, Pap, Profiling};

/// Every concrete predictor behind one statically dispatched type.
///
/// GSg and PSg do not appear as variants: their training constructors
/// yield a preset [`Gag`] / [`Pag`] (the Static Training schemes are the
/// adaptive structures with frozen pattern tables), so they map onto
/// those variants.
///
/// The [`Dyn`](AnyPredictor::Dyn) variant is the escape hatch for
/// predictors outside the catalog (built through
/// [`registry`](crate::registry) builders): it pays one virtual dispatch
/// per call, which is exactly the cost model the execution engine
/// advertises for externally-registered schemes. Everything else resolves
/// statically.
#[allow(missing_docs)] // variant names mirror the scheme structs
pub enum AnyPredictor {
    Gag(Gag),
    Pag(Pag),
    Pap(Pap),
    Btb(Btb),
    AlwaysTaken(AlwaysTaken),
    Btfn(Btfn),
    Profiling(Profiling),
    /// An externally-registered predictor behind dynamic dispatch.
    Dyn(Box<dyn BranchPredictor + Send>),
}

impl std::fmt::Debug for AnyPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnyPredictor::Gag(p) => f.debug_tuple("Gag").field(p).finish(),
            AnyPredictor::Pag(p) => f.debug_tuple("Pag").field(p).finish(),
            AnyPredictor::Pap(p) => f.debug_tuple("Pap").field(p).finish(),
            AnyPredictor::Btb(p) => f.debug_tuple("Btb").field(p).finish(),
            AnyPredictor::AlwaysTaken(p) => f.debug_tuple("AlwaysTaken").field(p).finish(),
            AnyPredictor::Btfn(p) => f.debug_tuple("Btfn").field(p).finish(),
            AnyPredictor::Profiling(p) => f.debug_tuple("Profiling").field(p).finish(),
            AnyPredictor::Dyn(p) => f.debug_tuple("Dyn").field(&p.name()).finish(),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyPredictor::Gag($p) => $body,
            AnyPredictor::Pag($p) => $body,
            AnyPredictor::Pap($p) => $body,
            AnyPredictor::Btb($p) => $body,
            AnyPredictor::AlwaysTaken($p) => $body,
            AnyPredictor::Btfn($p) => $body,
            AnyPredictor::Profiling($p) => $body,
            AnyPredictor::Dyn($p) => $body,
        }
    };
}

impl BranchPredictor for AnyPredictor {
    #[inline]
    fn predict(&mut self, branch: &BranchRecord) -> bool {
        delegate!(self, p => p.predict(branch))
    }

    #[inline]
    fn update(&mut self, branch: &BranchRecord) {
        delegate!(self, p => p.update(branch));
    }

    #[inline]
    fn context_switch(&mut self) {
        delegate!(self, p => p.context_switch());
    }

    // Delegating the whole block (not just each step) hoists the variant
    // match out of the per-event loop: each fused chunk pays one dispatch
    // and then runs a fully monomorphized inner loop over the scheme.
    #[inline]
    fn step_interned_block(&mut self, interned: &InternedConds, events: &[InternedCond]) -> u64 {
        delegate!(self, p => p.step_interned_block(interned, events))
    }

    fn name(&self) -> String {
        delegate!(self, p => p.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Automaton;
    use crate::config::SchemeConfig;

    #[test]
    fn every_kind_builds_a_variant() {
        assert!(matches!(SchemeConfig::gag(6).build_any().unwrap(), AnyPredictor::Gag(_)));
        assert!(matches!(
            SchemeConfig::btb(Automaton::A2).build_any().unwrap(),
            AnyPredictor::Btb(_)
        ));
        assert!(matches!(SchemeConfig::btfn().build_any().unwrap(), AnyPredictor::Btfn(_)));
    }
}
