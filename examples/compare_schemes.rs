//! Compare every prediction scheme across the full nine-benchmark suite —
//! a miniature of the paper's Figure 11.
//!
//! ```text
//! cargo run --release --example compare_schemes
//! ```

use tlabp::core::automaton::Automaton;
use tlabp::core::config::SchemeConfig;
use tlabp::sim::plan::Plan;
use tlabp::sim::report::suite_table;
use tlabp::sim::runner::SimConfig;
use tlabp::sim::suite::TraceStore;
use tlabp::sim::Session;

fn main() {
    let store = TraceStore::new();
    let sim = SimConfig::no_context_switch();

    let configs = [
        SchemeConfig::pag(12),
        SchemeConfig::gag(12),
        SchemeConfig::pap(8),
        SchemeConfig::psg(12),
        SchemeConfig::btb(Automaton::A2),
        SchemeConfig::btb(Automaton::LastTime),
        SchemeConfig::profiling(),
        SchemeConfig::btfn(),
        SchemeConfig::always_taken(),
    ];

    println!("running {} schemes x 9 benchmarks...\n", configs.len());
    let results = Session::new(store).run(&Plan::suites(&configs, &sim)).suites();
    println!("{}", suite_table(&results).to_ascii());

    // The paper's headline: Two-Level Adaptive Branch Prediction is
    // superior to every other known scheme.
    let two_level = results[0].total_gmean();
    let best_other = results[3..].iter().map(|r| r.total_gmean()).fold(f64::NEG_INFINITY, f64::max);
    println!(
        "two-level PAg(12): {:.2}%   best non-two-level scheme: {:.2}%   margin: {:.2} points",
        100.0 * two_level,
        100.0 * best_other,
        100.0 * (two_level - best_other)
    );
}
