//! # tlabp — Two-Level Adaptive Branch Prediction
//!
//! A from-scratch Rust reproduction of Yeh & Patt, *Alternative
//! Implementations of Two-Level Adaptive Branch Prediction*: the GAg, PAg
//! and PAp predictor variations, every comparison scheme the paper
//! simulates, the hardware cost model, the trace-driven simulation
//! methodology, a mini-RISC trace-generation substrate, and nine
//! SPEC'89-like workloads.
//!
//! This facade crate re-exports the member crates:
//!
//! * [`core`] (`tlabp-core`) — predictors, automata, history registers,
//!   branch/pattern history tables, the Table 3 configuration notation and
//!   the Section 3.4 cost model.
//! * [`trace`] (`tlabp-trace`) — trace records, artifact and `TLBE` trace
//!   IO, synthetic generators and branch-mix statistics.
//! * [`isa`] (`tlabp-isa`) — the mini-RISC ISA, assembler and
//!   trace-emitting VM standing in for the paper's Motorola 88100
//!   simulator.
//! * [`workloads`] (`tlabp-workloads`) — the nine SPEC'89-like benchmarks
//!   with training and testing data sets.
//! * [`sim`] (`tlabp-sim`) — the trace-driven simulation runner, context
//!   switch model, suite orchestration and reporting.
//! * [`service`] (`tlabp-service`) — the sweep-as-a-service daemon:
//!   serialized plans over a line-delimited checksummed wire protocol,
//!   streamed results, memoized responses.
//!
//! # Quick start
//!
//! ```
//! use tlabp::core::config::SchemeConfig;
//! use tlabp::sim::runner::{simulate, SimConfig};
//! use tlabp::workloads::{Benchmark, DataSet};
//!
//! // Build the paper's most cost-effective predictor: PAg with 12-bit
//! // history registers in a 4-way 512-entry branch history table.
//! let mut predictor = SchemeConfig::pag(12).build()?;
//!
//! // Run it over the eqntott-like workload.
//! let trace = Benchmark::by_name("eqntott").unwrap().trace(DataSet::Testing);
//! let result = simulate(&mut *predictor, &trace, &SimConfig::default());
//! println!("accuracy: {:.2}%", 100.0 * result.accuracy());
//! assert!(result.accuracy() > 0.85);
//! # Ok::<(), tlabp::core::config::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tlabp_core as core;
pub use tlabp_isa as isa;
pub use tlabp_service as service;
pub use tlabp_sim as sim;
pub use tlabp_trace as trace;
pub use tlabp_workloads as workloads;
