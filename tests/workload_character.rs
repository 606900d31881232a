//! Each workload stand-in must keep the branch character its namesake is
//! documented to have (Section 4.1 of the paper, DESIGN.md substitution
//! 2). These tests pin that character down so future edits to the
//! generators cannot silently drift away from it.

use tlabp::core::config::SchemeConfig;
use tlabp::core::geometry::GeometryError;
use tlabp::core::BhtConfig;
use tlabp::sim::runner::{simulate, SimConfig};
use tlabp::trace::stats::TraceSummary;
use tlabp::trace::{BranchClass, InternedConds};
use tlabp::workloads::{Benchmark, BenchmarkKind, DataSet};

fn summary(name: &str) -> TraceSummary {
    let trace = Benchmark::by_name(name).expect("known benchmark").trace(DataSet::Testing);
    TraceSummary::from_trace(&trace)
}

/// "Fpppp, matrix300 and tomcatv have repetitive loop execution; thus a
/// very high prediction accuracy is attainable, independent of the
/// predictors used."
#[test]
fn regular_fp_benchmarks_are_easy_for_everyone() {
    for name in ["fpppp", "matrix300", "tomcatv"] {
        let trace = Benchmark::by_name(name).unwrap().trace(DataSet::Testing);
        // Even a plain 2-bit-counter BTB does well here.
        let mut btb = SchemeConfig::btb(tlabp::core::Automaton::A2).build().expect("BTB builds");
        let accuracy = simulate(&mut *btb, &trace, &SimConfig::no_context_switch()).accuracy();
        assert!(accuracy > 0.8, "{name}: BTB accuracy {accuracy:.4}");
    }
}

/// "It is on the integer benchmarks where a branch predictor's mettle is
/// tested": the two-level edge over a counter BTB must be biggest on
/// integer codes.
#[test]
fn two_level_edge_is_larger_on_integer_codes() {
    let sim = SimConfig::no_context_switch();
    let mut edges = Vec::new();
    for kind in [BenchmarkKind::Integer, BenchmarkKind::FloatingPoint] {
        let mut edge_sum = 0.0;
        let mut count = 0;
        for benchmark in Benchmark::of_kind(kind) {
            let trace = benchmark.trace(DataSet::Testing);
            let mut pag = SchemeConfig::pag(12).build().unwrap();
            let mut btb = SchemeConfig::btb(tlabp::core::Automaton::A2).build().unwrap();
            edge_sum += simulate(&mut *pag, &trace, &sim).accuracy()
                - simulate(&mut *btb, &trace, &sim).accuracy();
            count += 1;
        }
        edges.push(edge_sum / f64::from(count));
    }
    assert!(edges[0] > 0.0 && edges[1] > 0.0, "two-level must win on both groups: {edges:?}");
}

/// gcc is the static-branch giant and the trap factory.
#[test]
fn gcc_character() {
    let s = summary("gcc");
    assert!(s.static_conditional_branches > 3_000);
    assert!(s.traps > 100);
}

/// li is the recursion benchmark: returns must be a visible slice of the
/// dynamic branch mix.
#[test]
fn li_is_recursion_heavy() {
    let s = summary("li");
    let return_fraction = s.mix.fraction(BranchClass::Return);
    assert!(return_fraction > 0.02, "li returns fraction {return_fraction:.4}");
    assert_eq!(s.mix.calls, s.mix.returns, "calls and returns must balance");
}

/// fpppp is branch-sparse ("very few conditional branches ... regular
/// behavior").
#[test]
fn fpppp_is_branch_sparse() {
    let s = summary("fpppp");
    assert!(
        s.branch_instruction_fraction < 0.15,
        "fpppp branch fraction {}",
        s.branch_instruction_fraction
    );
}

/// matrix300's control flow is data-independent: identical data sets per
/// run, zero traps, extremely high taken rate (pure loop nests).
#[test]
fn matrix300_is_pure_loops() {
    let s = summary("matrix300");
    assert_eq!(s.traps, 0);
    assert!(s.taken_rate > 0.85, "taken rate {}", s.taken_rate);
}

/// Training inputs are smaller than testing inputs wherever Table 2 has
/// both (the paper trains on reduced data sets like `cexp.i` and
/// `short greycode.in`).
#[test]
fn training_inputs_are_smaller() {
    for benchmark in Benchmark::ALL.iter().filter(|b| b.has_training_set()) {
        let train = benchmark.trace(DataSet::Training);
        let test = benchmark.trace(DataSet::Testing);
        assert!(
            train.total_instructions() < test.total_instructions(),
            "{}: training {} !< testing {}",
            benchmark.name(),
            train.total_instructions(),
            test.total_instructions()
        );
    }
}

/// Every benchmark's program is a genuine mini-RISC program: it assembles
/// to a non-trivial instruction count and its label metadata is intact.
#[test]
fn programs_are_substantial() {
    for benchmark in &Benchmark::ALL {
        let program = benchmark.program(DataSet::Testing);
        assert!(program.len() > 500, "{}: only {} instructions", benchmark.name(), program.len());
        assert!(program.static_conditional_branches() > 50, "{}", benchmark.name());
    }
}

/// Every built-in trace, training and testing, has at most as many
/// static conditional branches as the geometry rules assume an ideal BHT
/// holds, so a PAp over the ideal BHT that passes them keeps at most
/// that many pattern tables. The rule reports its bound as the table
/// count of the smallest history length it rejects.
#[test]
fn static_branches_fit_the_ideal_bht_bound() {
    let Err(GeometryError::TooManyPatternEntries { tables: bound, .. }) =
        SchemeConfig::pap(15).with_bht(BhtConfig::Ideal).check_geometry()
    else {
        panic!("PAp over the ideal BHT at k = 15 breaks the pattern-entry cap");
    };
    for benchmark in &Benchmark::ALL {
        let sets: &[DataSet] = if benchmark.has_training_set() {
            &[DataSet::Testing, DataSet::Training]
        } else {
            &[DataSet::Testing]
        };
        for &data_set in sets {
            let branches = InternedConds::from_trace(&benchmark.trace(data_set)).distinct_pcs();
            assert!(branches <= bound, "{} {data_set:?}: {branches} > {bound}", benchmark.name());
        }
    }
}
