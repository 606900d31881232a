//! Trace tooling: generate a workload trace, export it in the TLBE trace
//! exchange format, import it back, and inspect its statistics — the
//! workflow for sharing traces between machines or tools.
//!
//! ```text
//! cargo run --release --example trace_tools
//! ```

use std::fs;

use tlabp::trace::import::{read_etrace, write_etrace};
use tlabp::trace::stats::{BranchMix, TraceSummary};
use tlabp::trace::BranchClass;
use tlabp::workloads::{Benchmark, DataSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Generate a real workload trace by running the li benchmark (the
    // eight-queens testing input of Table 2) on the mini-RISC VM.
    let benchmark = Benchmark::by_name("li").expect("li is in the suite");
    let trace = benchmark.trace(DataSet::Testing);
    println!("generated {} trace events", trace.len());

    // Export to the compact TLBE format and write it to a temp file.
    let bytes = write_etrace(&trace);
    let path = std::env::temp_dir().join("li_testing.tlbe");
    fs::write(&path, &bytes)?;
    println!(
        "wrote {} ({:.1} MiB, {:.1} bytes/event)",
        path.display(),
        bytes.len() as f64 / (1024.0 * 1024.0),
        bytes.len() as f64 / trace.len() as f64
    );

    // Read it back and verify the round trip.
    let reloaded = read_etrace(&fs::read(&path)?)?;
    assert_eq!(trace, reloaded, "TLBE round trip must be lossless");
    println!("round trip verified");

    // Inspect: the Figure 4 branch-class mix and Table 1-style summary.
    let mix = BranchMix::from_trace(&reloaded);
    println!("\nbranch mix (paper Figure 4):");
    for class in BranchClass::ALL {
        println!("  {:<14} {:>6.1}%", class.to_string(), 100.0 * mix.fraction(class));
    }
    let summary = TraceSummary::from_trace(&reloaded);
    println!("\nstatic conditional branches: {}", summary.static_conditional_branches);
    println!("dynamic conditional branches: {}", summary.dynamic_conditional_branches);
    println!("taken rate: {:.1}%", 100.0 * summary.taken_rate);
    println!("traps: {}", summary.traps);

    fs::remove_file(&path).ok();
    Ok(())
}
