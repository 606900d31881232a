//! Trace substrate for the Two-Level Adaptive Branch Prediction reproduction.
//!
//! The original study (Yeh & Patt, *Alternative Implementations of Two-Level
//! Adaptive Branch Prediction*) drove its branch-prediction simulator with
//! instruction/address traces produced by a Motorola 88100 instruction-level
//! simulator running the SPEC'89 benchmarks. This crate provides the
//! equivalent plumbing for our reproduction:
//!
//! * [`BranchRecord`] / [`TraceEvent`] — the events a trace generator emits
//!   and a predictor simulator consumes: branches (with class, direction and
//!   target) and traps (used to trigger simulated context switches), each
//!   stamped with the cumulative dynamic instruction count.
//! * [`Trace`] — an in-memory event sequence with query helpers.
//! * [`PackedCond`] / [`InternedConds`] — compact conditional-branch
//!   streams for the simulator's fast paths: 8 bytes per event, and a
//!   pc-interned 4-byte form whose dense ids let per-address predictor
//!   state become direct vector indexing.
//! * [`BranchStream`] — every branch (any class) at 4 bytes each over a
//!   table of distinct `(pc, class, target)` sites: the form the
//!   simulator's fetch model and miss breakdown read instead of the
//!   full trace.
//! * [`PatternStream`] — a materialized first-level (pattern, outcome)
//!   stream: the simulator derives it once per first-level signature and
//!   replays second-level (PHT automaton) variants over it.
//! * [`io`] — the checksummed, chunked artifact container behind the
//!   simulator's disk cache, and the memo artifact behind the daemon's.
//! * [`import`] — the `TLBE` trace exchange format for external captures.
//! * [`synth`] — seeded synthetic trace generators (loops, biased coins,
//!   repeating patterns, correlated branches, Markov chains) used by unit
//!   tests, property tests, benches and the examples.
//! * [`stats`] — the branch-mix statistics behind the paper's Figure 4 and
//!   the static-branch counts behind Table 1.
//!
//! # Example
//!
//! ```
//! use tlabp_trace::synth::LoopNest;
//! use tlabp_trace::stats::BranchMix;
//!
//! // A doubly nested loop: 10 outer iterations of a 50-iteration inner loop.
//! let trace = LoopNest::new(&[10, 50]).generate();
//! let mix = BranchMix::from_trace(&trace);
//! assert!(mix.conditional > 0);
//! assert!(trace.conditional_branches().count() > 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_stream;
mod intern;
mod pattern_stream;
mod record;
mod trace;

pub mod import;
pub mod io;
pub mod rng;
pub mod stats;
pub mod synth;

pub use branch_stream::BranchStream;
pub use intern::{InternedCond, InternedConds};
pub use pattern_stream::{PatternStream, MAX_PATTERN_BITS};
pub use record::{BranchClass, BranchRecord, TrapRecord};
pub use trace::{PackedCond, Trace, TraceEvent};
