//! Accuracy ablations of the paper's design choices (DESIGN.md §4).

use tlabp_core::automaton::Automaton;
use tlabp_core::bht::BhtConfig;
use tlabp_core::config::SchemeConfig;
use tlabp_core::registry;
use tlabp_core::schemes::Pag;
use tlabp_core::speculative::{HistoryUpdatePolicy, MispredictRepair, SpeculativeGag};
use tlabp_sim::plan::{Job, Plan};
use tlabp_sim::report::Table;
use tlabp_sim::runner::SimConfig;
use tlabp_workloads::Benchmark;

use crate::Ctx;

/// Section 3.1: speculative history update vs. waiting for resolution,
/// across pipeline depths, on the GAg structure (where staleness hurts
/// most because every branch shares the history register).
pub fn ablation_speculative(ctx: &Ctx) {
    const BENCHMARKS: [&str; 3] = ["eqntott", "gcc", "tomcatv"];
    let benchmarks: Vec<&'static Benchmark> =
        BENCHMARKS.iter().map(|name| Benchmark::by_name(name).expect("known benchmark")).collect();
    let mut table = Table::new(
        std::iter::once("policy".to_owned())
            .chain(BENCHMARKS.iter().map(|b| (*b).to_owned()))
            .collect(),
    );

    let policies: Vec<(String, HistoryUpdatePolicy)> = [0usize, 2, 4, 8]
        .iter()
        .flat_map(|&delay| {
            [
                (format!("stale history, depth {delay}"), HistoryUpdatePolicy::OnResolve { delay }),
                (
                    format!("speculative+repair, depth {delay}"),
                    HistoryUpdatePolicy::Speculative { delay, repair: MispredictRepair::Repair },
                ),
                (
                    format!("speculative+reinit, depth {delay}"),
                    HistoryUpdatePolicy::Speculative {
                        delay,
                        repair: MispredictRepair::Reinitialize,
                    },
                ),
            ]
        })
        .collect();

    // SpeculativeGag lives outside the Table 3 catalog: each policy
    // variant registers a builder once, then the whole (policy ×
    // benchmark) matrix is one plan.
    for (name, policy) in &policies {
        let policy = *policy;
        registry::register(name, move || Box::new(SpeculativeGag::new(12, Automaton::A2, policy)));
    }
    let plan: Plan = policies
        .iter()
        .flat_map(|(name, _)| {
            benchmarks.iter().map(move |&benchmark| Job::custom(name.clone(), benchmark))
        })
        .collect();
    let accuracies = ctx.run(&plan).accuracies();
    for ((name, _), row) in policies.iter().zip(accuracies.chunks(benchmarks.len())) {
        let mut cells = vec![name.clone()];
        cells.extend(row.iter().map(|a| format!("{:.2}", 100.0 * a.expect("measurable"))));
        table.push_row(cells);
    }
    ctx.emit(
        "ablation_speculative",
        "Ablation (Section 3.1): history update policy under pipeline depth",
        &table,
    );
}

/// Section 5.1.4's design decision: the PHT is *not* reinitialized on a
/// context switch. Quantify what flushing it would cost.
pub fn ablation_flush_pht(ctx: &Ctx) {
    let mut table = Table::new(vec![
        "benchmark".into(),
        "keep PHT (paper) %".into(),
        "flush PHT too %".into(),
        "cost of flushing (points)".into(),
    ]);
    // The flush variant is a modified PAg outside the catalog; the keep
    // variant is plain PAg(12). Both jobs simulate the paper's
    // context-switch model, so the engine fuses each benchmark's pair
    // into one pass that switches at the trace's switch schedule, with
    // one shared first-level table walk for both.
    registry::register("PAg(12)+flushPHT", || {
        let mut p = Pag::new(12, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        p.set_flush_pht_on_context_switch(true);
        Box::new(p)
    });
    let sim = SimConfig::paper_context_switch();
    let plan: Plan = Benchmark::ALL
        .iter()
        .flat_map(|benchmark| {
            [
                Job::scheme(SchemeConfig::pag(12), benchmark).with_sim(sim),
                Job::custom("PAg(12)+flushPHT", benchmark).with_sim(sim),
            ]
        })
        .collect();
    let accuracies = ctx.run(&plan).accuracies();
    for (benchmark, pair) in Benchmark::ALL.iter().zip(accuracies.chunks(2)) {
        let (keep, flush) = (pair[0].expect("measurable"), pair[1].expect("measurable"));
        table.push_row(vec![
            benchmark.name().into(),
            format!("{:.2}", 100.0 * keep),
            format!("{:.2}", 100.0 * flush),
            format!("{:.2}", 100.0 * (keep - flush)),
        ]);
    }
    ctx.emit(
        "ablation_flush_pht",
        "Ablation (Section 5.1.4): reinitializing the PHT on context switches",
        &table,
    );
}

/// Both ablations.
pub fn ablations(ctx: &Ctx) {
    ablation_speculative(ctx);
    ablation_flush_pht(ctx);
}
