//! Explore the paper's hardware cost model (Section 3.4): cost versus
//! accuracy for the three variations, reproducing the Figure 8 reasoning.
//!
//! ```text
//! cargo run --release --example cost_explorer
//! ```

use tlabp::core::config::SchemeConfig;
use tlabp::core::cost::{BhtGeometry, CostModel};
use tlabp::sim::plan::Plan;
use tlabp::sim::runner::SimConfig;
use tlabp::sim::suite::TraceStore;
use tlabp::sim::Session;

fn main() {
    let model = CostModel::paper_default();
    let geometry = BhtGeometry::PAPER_DEFAULT;

    println!("cost curves (unit base costs, 30-bit addresses, s = 2):\n");
    println!("{:>4}  {:>12}  {:>12}  {:>12}", "k", "GAg (eq.4)", "PAg (eq.5)", "PAp (eq.6)");
    for k in (6..=18).step_by(2) {
        println!(
            "{k:>4}  {:>12.0}  {:>12.0}  {:>12.0}",
            model.gag_cost(k, 2),
            model.pag_cost(geometry, k, 2),
            model.pap_cost(geometry, k, 2),
        );
    }

    // The Figure 8 question: which variation reaches a target accuracy
    // most cheaply? Measure a few candidate configurations.
    println!("\nmeasuring candidate configurations (this runs the full suite)...\n");
    let candidates = [SchemeConfig::gag(18), SchemeConfig::pag(12), SchemeConfig::pap(8)];
    let plan = Plan::suites(&candidates, &SimConfig::no_context_switch());
    let suites = Session::new(TraceStore::new()).run(&plan).suites();
    println!("{:<42} {:>10} {:>14}", "configuration", "accuracy", "cost");
    let mut best: Option<(String, f64)> = None;
    for (config, suite) in candidates.iter().zip(&suites) {
        let accuracy = suite.total_gmean();
        let cost = config.cost(&model).expect("two-level schemes are costed");
        println!("{:<42} {:>9.2}% {:>14.0}", config.to_string(), 100.0 * accuracy, cost);
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((config.to_string(), cost));
        }
    }
    let (winner, _) = best.expect("candidates are non-empty");
    println!(
        "\ncheapest at roughly equal accuracy: {winner}\n\
         (the paper's conclusion: PAg is the most cost-effective variation)"
    );
}
