//! Figures 4 through 11: the simulation experiments.

use tlabp_core::automaton::Automaton;
use tlabp_core::bht::BhtConfig;
use tlabp_core::config::SchemeConfig;
use tlabp_core::cost::CostModel;
use tlabp_sim::plan::{Job, Plan};
use tlabp_sim::report::{format_accuracy, suite_table, Table};
use tlabp_sim::runner::SimConfig;
use tlabp_trace::stats::BranchMix;
use tlabp_trace::BranchClass;
use tlabp_workloads::{Benchmark, DataSet};

use crate::Ctx;

/// Every figure driver declares its whole configuration matrix as one
/// [`Plan`] (exposed as a `*_plan()` function so `experiments plan` can
/// serialize it for the sweep service) and hands it to the session core
/// in a single call, so cells from every configuration share the worker
/// pool.
fn suites_of(ctx: &Ctx, plan: &Plan) -> Vec<tlabp_sim::SuiteResult> {
    ctx.run(plan).suites()
}

/// Figure 4: distribution of dynamic branch instructions by class.
pub fn fig4(ctx: &Ctx) {
    let mut table = Table::new(vec![
        "benchmark".into(),
        "conditional %".into(),
        "unconditional %".into(),
        "call %".into(),
        "return %".into(),
    ]);
    for benchmark in &Benchmark::ALL {
        let trace = ctx.store().get(benchmark, DataSet::Testing);
        let mix = BranchMix::from_trace(&trace);
        let pct = |class: BranchClass| format!("{:.1}", 100.0 * mix.fraction(class));
        table.push_row(vec![
            benchmark.name().into(),
            pct(BranchClass::Conditional),
            pct(BranchClass::Unconditional),
            pct(BranchClass::Call),
            pct(BranchClass::Return),
        ]);
    }
    ctx.emit("fig4", "Figure 4: distribution of dynamic branch instructions", &table);
}

/// The plan behind [`fig5`].
pub fn fig5_plan() -> Plan {
    let configs: Vec<SchemeConfig> =
        Automaton::FIGURE5.iter().map(|&a| SchemeConfig::pag(12).with_automaton(a)).collect();
    Plan::suites(&configs, &SimConfig::no_context_switch())
}

/// Figure 5: PAg(BHT(512,4,12-sr)) under each pattern automaton.
pub fn fig5(ctx: &Ctx) {
    let table = suite_table(&suites_of(ctx, &fig5_plan()));
    ctx.emit("fig5", "Figure 5: effect of the pattern history automaton", &table);
}

/// The plan behind [`fig6`].
pub fn fig6_plan() -> Plan {
    let mut configs = Vec::new();
    for k in [6u32, 8, 10, 12] {
        configs.push(SchemeConfig::gag(k));
        configs.push(SchemeConfig::pag(k));
        configs.push(SchemeConfig::pap(k));
    }
    Plan::suites(&configs, &SimConfig::no_context_switch())
}

/// Figure 6: the three variations at equal history register lengths.
pub fn fig6(ctx: &Ctx) {
    let table = suite_table(&suites_of(ctx, &fig6_plan()));
    ctx.emit("fig6", "Figure 6: GAg vs PAg vs PAp at equal history length", &table);
}

/// The plan behind [`fig7`].
pub fn fig7_plan() -> Plan {
    let configs: Vec<SchemeConfig> = (6..=18).step_by(2).map(SchemeConfig::gag).collect();
    Plan::suites(&configs, &SimConfig::no_context_switch())
}

/// Figure 7: GAg accuracy as the global history register lengthens.
pub fn fig7(ctx: &Ctx) {
    let table = suite_table(&suites_of(ctx, &fig7_plan()));
    ctx.emit("fig7", "Figure 7: effect of history register length on GAg", &table);
}

/// The equal-accuracy triple of Figure 8. The paper's is
/// GAg(18)/PAg(12)/PAp(6); with our workloads' loop periods, PAp needs 8
/// history bits to reach the same band (see EXPERIMENTS.md).
fn fig8_configs() -> [SchemeConfig; 3] {
    [SchemeConfig::gag(18), SchemeConfig::pag(12), SchemeConfig::pap(8)]
}

/// The plan behind [`fig8`].
pub fn fig8_plan() -> Plan {
    Plan::suites(&fig8_configs(), &SimConfig::no_context_switch())
}

/// Figure 8: the three configurations that reach roughly equal accuracy,
/// with their hardware cost estimates.
pub fn fig8(ctx: &Ctx) {
    let configs = fig8_configs();
    let results = suites_of(ctx, &fig8_plan());
    let mut table = suite_table(&results);
    ctx.emit("fig8", "Figure 8: equal-accuracy configurations", &table);

    let model = CostModel::paper_default();
    table = Table::new(vec![
        "configuration".into(),
        "Tot GMean %".into(),
        "hardware cost (unit constants)".into(),
    ]);
    for (config, result) in configs.iter().zip(&results) {
        table.push_row(vec![
            config.to_string(),
            format_accuracy(Some(result.total_gmean())),
            format!("{:.0}", config.cost(&model).expect("costed scheme")),
        ]);
    }
    ctx.emit("fig8_costs", "Figure 8: cost of the equal-accuracy configurations", &table);
}

/// The plan behind [`fig9`]: one sweep over the interleaved
/// (no-CS, with-CS) pairs. The sweep cell honors each config's own `c`
/// flag, so the plain configs run without context switches and the
/// flagged ones with the paper model.
pub fn fig9_plan() -> Plan {
    let configs: Vec<SchemeConfig> =
        fig8_configs().iter().flat_map(|base| [*base, base.with_context_switch(true)]).collect();
    Plan::suites(&configs, &SimConfig::no_context_switch())
}

/// Figure 9: effect of context switches on the three ~equal-accuracy
/// schemes.
pub fn fig9(ctx: &Ctx) {
    let results = suites_of(ctx, &fig9_plan());
    let table = suite_table(&results);
    ctx.emit("fig9", "Figure 9: effect of context switches", &table);

    // Degradation summary.
    let mut summary = Table::new(vec![
        "scheme".into(),
        "no CS Tot GMean %".into(),
        "with CS Tot GMean %".into(),
        "degradation (points)".into(),
        "gcc degradation (points)".into(),
    ]);
    for pair in results.chunks(2) {
        let (no_cs, with_cs) = (&pair[0], &pair[1]);
        let gcc_no = no_cs.accuracy_of("gcc").unwrap_or(f64::NAN);
        let gcc_with = with_cs.accuracy_of("gcc").unwrap_or(f64::NAN);
        summary.push_row(vec![
            no_cs.scheme.clone(),
            format_accuracy(Some(no_cs.total_gmean())),
            format_accuracy(Some(with_cs.total_gmean())),
            format!("{:.2}", 100.0 * (no_cs.total_gmean() - with_cs.total_gmean())),
            format!("{:.2}", 100.0 * (gcc_no - gcc_with)),
        ]);
    }
    ctx.emit("fig9_summary", "Figure 9: context-switch degradation", &summary);
}

/// The plan behind [`fig10`].
pub fn fig10_plan() -> Plan {
    let configs: Vec<SchemeConfig> = BhtConfig::FIGURE10
        .iter()
        .map(|&bht| SchemeConfig::pag(12).with_bht(bht).with_context_switch(true))
        .collect();
    Plan::suites(&configs, &SimConfig::paper_context_switch())
}

/// Figure 10: effect of the BHT implementation on PAg (with context
/// switches, as in the paper).
pub fn fig10(ctx: &Ctx) {
    let table = suite_table(&suites_of(ctx, &fig10_plan()));
    ctx.emit("fig10", "Figure 10: effect of BHT implementation on PAg", &table);
}

/// The plan behind [`fig11`].
pub fn fig11_plan() -> Plan {
    let configs = [
        SchemeConfig::pag(12),
        SchemeConfig::psg(12),
        SchemeConfig::gsg(18),
        SchemeConfig::btb(Automaton::A2),
        SchemeConfig::profiling(),
        SchemeConfig::btb(Automaton::LastTime),
        SchemeConfig::btfn(),
        SchemeConfig::always_taken(),
    ];
    Plan::suites(&configs, &SimConfig::no_context_switch())
}

/// Figure 11: the shoot-out against every other scheme.
pub fn fig11(ctx: &Ctx) {
    let table = suite_table(&suites_of(ctx, &fig11_plan()));
    ctx.emit("fig11", "Figure 11: comparison of branch prediction schemes", &table);
}

/// Registers the custom (outside-the-catalog) predictors that serialized
/// plans may reference by name — currently the gshare pair of the
/// extensions artifact. Idempotent; called by the drivers that need the
/// builders and by the `exec`/`serve` commands before they execute
/// client-supplied plans.
pub fn register_custom_predictors() {
    use tlabp_core::registry;
    use tlabp_core::schemes::Gshare;

    // gshare lives outside the Table 3 catalog, so it enters the engine
    // through the predictor registry rather than a SchemeConfig.
    for bits in [12u32, 16] {
        registry::register(&format!("gshare({bits})"), move || {
            Box::new(Gshare::new(bits, Automaton::A2))
        });
    }
}

/// The plan behind [`extensions`]: a flat benchmark-major
/// (benchmark × variant) matrix.
pub fn extensions_plan() -> Plan {
    Benchmark::ALL
        .iter()
        .flat_map(|benchmark| {
            [
                Job::scheme(SchemeConfig::gag(12), benchmark),
                Job::custom("gshare(12)", benchmark),
                Job::scheme(SchemeConfig::gag(16), benchmark),
                Job::custom("gshare(16)", benchmark),
            ]
        })
        .collect()
}

/// Extension beyond the paper: the gshare predictor attacks the residual
/// global-table interference the paper's conclusion identifies ("we are
/// examining that 3 percent"). Compare it with GAg at equal table sizes.
pub fn extensions(ctx: &Ctx) {
    register_custom_predictors();

    let mut table = Table::new(vec![
        "benchmark".into(),
        "GAg(12) %".into(),
        "gshare(12) %".into(),
        "GAg(16) %".into(),
        "gshare(16) %".into(),
    ]);
    let variants = 4usize;
    let accuracies = ctx.run(&extensions_plan()).accuracies();
    for (benchmark, row) in Benchmark::ALL.iter().zip(accuracies.chunks(variants)) {
        let mut cells = vec![benchmark.name().to_owned()];
        cells.extend(
            row.iter().map(|a| format!("{:.2}", 100.0 * a.expect("all variants measurable"))),
        );
        table.push_row(cells);
    }
    ctx.emit(
        "extensions_gshare",
        "Extension: gshare (address-hashed global history) vs GAg",
        &table,
    );
}

/// The plan behind [`calibrate`].
pub fn calibrate_plan() -> Plan {
    let configs = [
        SchemeConfig::pag(12),
        SchemeConfig::pag(12).with_bht(BhtConfig::Ideal),
        SchemeConfig::pap(6).with_bht(BhtConfig::Ideal),
        SchemeConfig::gag(12),
        SchemeConfig::pap(6),
        SchemeConfig::btb(Automaton::A2),
        SchemeConfig::btfn(),
        SchemeConfig::always_taken(),
    ];
    Plan::suites(&configs, &SimConfig::no_context_switch())
}

/// Calibration helper (not a paper artifact): a quick per-benchmark
/// accuracy readout for a handful of reference schemes.
pub fn calibrate(ctx: &Ctx) {
    let table = suite_table(&suites_of(ctx, &calibrate_plan()));
    ctx.emit("calibrate", "Calibration readout", &table);
}
