//! # Mini-RISC instruction-level simulator
//!
//! The paper generated its branch traces with "a Motorola 88100
//! instruction level simulator". That toolchain (and the SPEC'89 inputs it
//! ran) is not available, so this crate provides the substitute substrate:
//! a small register ISA ([`inst`]), a two-pass text assembler ([`asm`]), a
//! builder API for generated code ([`program::ProgramBuilder`]) and an
//! interpreter ([`vm::Vm`]) that executes programs while emitting exactly
//! the events the branch-prediction study consumes — conditional
//! branches, unconditional jumps, calls, returns (the classes of
//! Figure 4) and traps (the context-switch triggers of Section 5.1.4),
//! each stamped with the dynamic instruction count.
//!
//! The predictors only ever observe `(pc, class, direction, target)`
//! tuples, so any ISA producing real control flow from real program
//! execution exercises the identical code path as the original setup; see
//! DESIGN.md (substitution 1).
//!
//! # Example
//!
//! ```
//! use tlabp_isa::asm::assemble;
//! use tlabp_isa::vm::Vm;
//!
//! let program = assemble(
//!     "       li   r1, 0
//!             li   r2, 100
//!      loop:  addi r1, r1, 1
//!             blt  r1, r2, loop
//!             halt",
//! )?;
//! let mut vm = Vm::new(program);
//! vm.run().expect("program runs to halt");
//! let trace = vm.into_trace();
//! assert_eq!(trace.conditional_branches().count(), 100);
//! # Ok::<(), tlabp_isa::program::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod inst;
pub mod program;
pub mod vm;

pub use asm::assemble;
pub use inst::{AluOp, Cond, Inst, Reg};
pub use program::{Program, ProgramBuilder, ProgramError};
pub use vm::{RunOutcome, StopReason, Vm, VmError};

/// A digest of the source text that defines what an instruction means
/// and how a program runs: [`inst`] and [`vm`]. Workload fingerprints
/// fold it in, so an edit to either file renames every cached trace
/// artifact, and every memoized response built from one. Any edit
/// counts, comments and formatting included: a needless rename costs
/// one regeneration, a missed one would replay a stale trace.
pub const SEMANTICS_DIGEST: u64 = source_digest(&[include_str!("inst.rs"), include_str!("vm.rs")]);

/// FNV-1a over the bytes of `sources`, each closed by a `0xff` byte
/// (which UTF-8 text never contains), evaluated at compile time.
const fn source_digest(sources: &[&str]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut source = 0;
    while source < sources.len() {
        let bytes = sources[source].as_bytes();
        let mut at = 0;
        while at < bytes.len() {
            hash = (hash ^ bytes[at] as u64).wrapping_mul(PRIME);
            at += 1;
        }
        hash = (hash ^ 0xff).wrapping_mul(PRIME);
        source += 1;
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_digest_separates_edits_and_file_boundaries() {
        let base = source_digest(&["fn step() {}", "fn run() {}"]);
        assert_eq!(base, source_digest(&["fn step() {}", "fn run() {}"]));
        assert_ne!(base, source_digest(&["fn step() {} ", "fn run() {}"]), "one added byte");
        assert_ne!(base, source_digest(&["fn step() {", "}fn run() {}"]), "a moved boundary");
    }
}
