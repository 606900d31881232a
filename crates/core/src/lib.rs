//! # Two-Level Adaptive Branch Prediction — core library
//!
//! A from-scratch implementation of every prediction mechanism studied in
//! Yeh & Patt, *Alternative Implementations of Two-Level Adaptive Branch
//! Prediction*:
//!
//! * the three variations of the proposed predictor — [`schemes::Gag`]
//!   (global history, global pattern table), [`schemes::Pag`] (per-address
//!   history, global pattern table) and [`schemes::Pap`] (per-address
//!   history, per-address pattern tables);
//! * the pattern-history automata of Figure 2 ([`automaton::Automaton`]):
//!   Last-Time, A1, A2, A3, A4, plus the Static Training preset bit;
//! * first-level storage ([`bht`]): ideal and practical (direct-mapped /
//!   set-associative, LRU) branch history tables with the paper's
//!   initialize-to-ones miss policy;
//! * every comparison scheme of Figure 11: Static Training GSg/PSg
//!   ([`schemes::Gsg`], [`schemes::Psg`]), branch target buffers
//!   ([`schemes::Btb`]), Always-Taken, BTFN and Profiling;
//! * the hardware cost model of Section 3.4 ([`cost`], Equations 3–6);
//! * the implementation considerations of Section 3: speculative history
//!   update with repair/reinitialize ([`speculative`]) and target address
//!   caching ([`target_cache`]);
//! * the Table 3 configuration notation ([`config::SchemeConfig`]), which
//!   round-trips through `Display`/`FromStr` and builds any simulated
//!   predictor;
//! * the process environment ([`env`](mod@env)): every `TLABP_*` knob,
//!   read once by one parser into a typed [`env::Config`];
//! * a process-wide [`registry`] of named builders for predictors outside
//!   the catalog (e.g. [`schemes::Gshare`]), so the simulation engine can
//!   execute them through the same job pipeline as Table 3 schemes.
//!
//! # Quick start
//!
//! ```
//! use tlabp_core::config::SchemeConfig;
//! use tlabp_core::predictor::BranchPredictor;
//! use tlabp_trace::synth::LoopNest;
//!
//! // The paper's most cost-effective configuration: PAg with 12-bit
//! // history registers in a 4-way 512-entry BHT.
//! let mut predictor = SchemeConfig::pag(12).build()?;
//!
//! let trace = LoopNest::new(&[100, 10]).generate();
//! let mut correct = 0u64;
//! let mut total = 0u64;
//! for branch in trace.conditional_branches() {
//!     let predicted = predictor.predict(branch);
//!     predictor.update(branch);
//!     correct += u64::from(predicted == branch.taken);
//!     total += 1;
//! }
//! assert!(correct as f64 / total as f64 > 0.9);
//! # Ok::<(), tlabp_core::config::BuildError>(())
//! ```

// The replay kernel is portable `u64` SWAR with no `std::arch` bodies,
// so the whole crate is safe code.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod any;
pub mod automaton;
pub mod bht;
pub mod config;
pub mod cost;
pub mod env;
pub mod fxhash;
pub mod geometry;
pub mod history;
pub mod pht;
pub mod predictor;
pub mod registry;
pub mod schemes;
mod set_assoc;
pub mod simd;
pub mod speculative;
pub mod target_cache;

pub use any::AnyPredictor;
pub use automaton::Automaton;
pub use bht::BhtConfig;
pub use config::{SchemeConfig, SchemeKind};
pub use cost::CostModel;
pub use predictor::BranchPredictor;
pub use simd::SimdMode;
