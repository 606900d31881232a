//! Quickstart: build the paper's recommended predictor and measure it on
//! one workload.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tlabp::core::config::SchemeConfig;
use tlabp::sim::runner::{simulate, SimConfig};
use tlabp::workloads::{Benchmark, DataSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's conclusion: the most effective implementation of
    // Two-Level Adaptive Branch Prediction uses a per-address branch
    // history table and a global pattern history table (PAg), with 12-bit
    // history registers in a 4-way set-associative 512-entry BHT.
    let config = SchemeConfig::pag(12);
    let mut predictor = config.build()?;
    println!("predictor: {}", predictor.name());

    // Generate the eqntott-like workload trace by actually running the
    // benchmark program on the bundled mini-RISC VM.
    let benchmark = Benchmark::by_name("eqntott").expect("eqntott is in the suite");
    let trace = benchmark.trace(DataSet::Testing);
    println!(
        "workload: {} ({} dynamic conditional branches)",
        benchmark,
        trace.conditional_branches().count()
    );

    // Drive the trace-driven simulation, exactly as the paper's Section 4
    // describes: decode, predict, verify, update.
    let result = simulate(&mut *predictor, &trace, &SimConfig::default());
    println!(
        "prediction accuracy: {:.2}%  ({} correct of {})",
        100.0 * result.accuracy(),
        result.correct,
        result.predictions
    );

    // A single step of the API, spelled out: predict then update.
    let mut fresh = config.build()?;
    if let Some(branch) = trace.conditional_branches().next() {
        let predicted_taken = fresh.predict(branch);
        fresh.update(branch);
        println!(
            "first branch at {:#x}: predicted {}, actually {}",
            branch.pc,
            if predicted_taken { "taken" } else { "not taken" },
            if branch.taken { "taken" } else { "not taken" },
        );
    }
    Ok(())
}
