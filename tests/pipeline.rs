//! End-to-end integration: workload program → VM execution → trace →
//! TLBE export and import → predictor simulation, spanning every crate
//! in the workspace.

use tlabp::core::automaton::Automaton;
use tlabp::core::config::SchemeConfig;
use tlabp::sim::runner::{simulate, SimConfig};
use tlabp::trace::import::{read_etrace, write_etrace};
use tlabp::trace::stats::TraceSummary;
use tlabp::workloads::{Benchmark, DataSet};

#[test]
fn workload_to_prediction_pipeline() {
    let benchmark = Benchmark::by_name("li").expect("li exists");
    let trace = benchmark.trace(DataSet::Testing);

    // The trace survives a TLBE round trip bit-exactly.
    let reloaded = read_etrace(&write_etrace(&trace)).expect("trace decodes");
    assert_eq!(trace, reloaded);

    // A two-level predictor achieves sensible accuracy on it.
    let mut predictor = SchemeConfig::pag(12).build().expect("PAg builds");
    let result = simulate(&mut *predictor, &reloaded, &SimConfig::default());
    assert!(result.predictions > 40_000);
    assert!(result.accuracy() > 0.8, "PAg(12) on li: {:.4}", result.accuracy());
}

#[test]
fn trace_generation_is_deterministic() {
    let benchmark = Benchmark::by_name("espresso").expect("espresso exists");
    let a = benchmark.trace(DataSet::Testing);
    let b = benchmark.trace(DataSet::Testing);
    assert_eq!(a, b, "same benchmark + data set must give identical traces");
}

#[test]
fn two_level_beats_counters_on_an_integer_workload() {
    // The paper's central comparison, on one integer benchmark.
    let trace = Benchmark::by_name("doduc").expect("doduc exists").trace(DataSet::Testing);
    let sim = SimConfig::no_context_switch();

    let mut pag = SchemeConfig::pag(12).build().unwrap();
    let mut btb = SchemeConfig::btb(Automaton::A2).build().unwrap();
    let pag_acc = simulate(&mut *pag, &trace, &sim).accuracy();
    let btb_acc = simulate(&mut *btb, &trace, &sim).accuracy();
    assert!(
        pag_acc > btb_acc + 0.03,
        "two-level ({pag_acc:.4}) must clearly beat the BTB counter ({btb_acc:.4})"
    );
}

#[test]
fn parsed_config_behaves_identically_to_constructed_config() {
    let trace = Benchmark::by_name("eqntott").expect("eqntott exists").trace(DataSet::Testing);
    let sim = SimConfig::no_context_switch();

    let constructed = SchemeConfig::pag(10);
    let parsed: SchemeConfig =
        "PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))".parse().expect("valid notation");
    assert_eq!(parsed, constructed);

    let a = simulate(&mut *constructed.build().unwrap(), &trace, &sim);
    let b = simulate(&mut *parsed.build().unwrap(), &trace, &sim);
    assert_eq!(a.correct, b.correct, "identical configs must predict identically");
}

#[test]
fn context_switches_reduce_accuracy_on_gcc() {
    // gcc's many traps make it the context-switch stress case
    // (Section 5.1.4).
    let trace = Benchmark::by_name("gcc").expect("gcc exists").trace(DataSet::Testing);
    let summary = TraceSummary::from_trace(&trace);
    assert!(summary.traps > 100, "gcc must trap a lot, got {}", summary.traps);

    let run = |sim: &SimConfig| {
        let mut p = SchemeConfig::pag(12).build().unwrap();
        simulate(&mut *p, &trace, sim)
    };
    let without = run(&SimConfig::no_context_switch());
    let with = run(&SimConfig::paper_context_switch());
    assert!(with.context_switches > 100);
    assert!(
        with.accuracy() < without.accuracy(),
        "flushing the BHT must cost accuracy: {} vs {}",
        with.accuracy(),
        without.accuracy()
    );
}

#[test]
fn training_schemes_train_on_training_trace_and_run_on_testing() {
    let benchmark = Benchmark::by_name("espresso").expect("espresso exists");
    let training = benchmark.trace(DataSet::Training);
    let testing = benchmark.trace(DataSet::Testing);

    for config in [SchemeConfig::psg(10), SchemeConfig::gsg(10), SchemeConfig::profiling()] {
        let mut predictor = config.build_any_trained(&training);
        let result = simulate(&mut predictor, &testing, &SimConfig::default());
        assert!(result.accuracy() > 0.6, "{}: accuracy {:.4}", config, result.accuracy());
    }
}

#[test]
fn branch_mix_is_conditional_dominated() {
    // Figure 4: conditional branches dominate the dynamic branch mix.
    for name in ["gcc", "li", "doduc"] {
        let trace = Benchmark::by_name(name).unwrap().trace(DataSet::Testing);
        let summary = TraceSummary::from_trace(&trace);
        assert!(
            summary.mix.fraction(tlabp::trace::BranchClass::Conditional) > 0.5,
            "{name}: conditional fraction {:?}",
            summary.mix
        );
    }
}
