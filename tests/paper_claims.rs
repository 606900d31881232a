//! Checks of the paper's qualitative claims, at two scales: fast versions
//! on controlled synthetic traces, and full-suite versions over the
//! committed result tables (`results/fig*.csv`). `scripts/verify.sh`
//! regenerates those tables on a fresh trace cache and byte-compares them
//! with the committed files, so a claim checked here holds for the code
//! that produced them.

use tlabp::core::automaton::Automaton;
use tlabp::core::config::{SchemeConfig, SchemeKind};
use tlabp::core::cost::{BhtGeometry, CostModel};
use tlabp::sim::runner::{simulate, SimConfig};
use tlabp::trace::synth::{
    BiasedCoins, CorrelatedBranches, Correlation, MarkovBranches, RepeatingPattern,
};
use tlabp::trace::Trace;

fn accuracy(config: &SchemeConfig, trace: &Trace) -> f64 {
    let mut predictor = config.build().expect("non-training scheme");
    simulate(&mut *predictor, trace, &SimConfig::no_context_switch()).accuracy()
}

/// "The mechanism uses two levels of branch history" — on a branch whose
/// outcome depends on the outcomes of *other* branches, global history
/// shines while per-branch counters are stuck at the bias.
///
/// The trace is two random feeder branches plus one XOR-dependent branch,
/// so only one branch in three is predictable at all: a perfect global
/// predictor tops out at (0.5 + 0.5 + 1.0) / 3 ≈ 67%, a counter at 50%.
#[test]
fn global_history_captures_correlation() {
    let trace = CorrelatedBranches::new(Correlation::Xor, 4000, 0.5, 42).generate();
    let gag = accuracy(&SchemeConfig::gag(8), &trace);
    let btb = accuracy(&SchemeConfig::btb(Automaton::A2), &trace);
    assert!(gag > 0.62, "GAg must learn the XOR branch (ceiling ≈ 0.67): {gag:.4}");
    assert!(btb < 0.58, "a per-branch counter cannot learn XOR: {btb:.4}");
    assert!(gag > btb + 0.08, "GAg {gag:.4} vs BTB {btb:.4}");
}

/// Figure 5's reasoning: the four-state automata "maintain more history
/// information than Last-Time ... they are therefore more tolerant to the
/// deviations in the execution history". Inject sparse deviations into a
/// learnable pattern: Last-Time pays for each deviation twice (it flips
/// the entry, then mispredicts the return to normal), A2 pays once.
#[test]
fn four_state_automata_tolerate_deviations() {
    use tlabp::trace::BranchRecord;

    let pattern = [true, true, false, true, true, true, false];
    let mut trace = Trace::new();
    let mut instret = 0u64;
    for i in 0..6000u64 {
        instret += 4;
        let base = pattern[(i % 7) as usize];
        // Deterministic sparse deviation: every 47th execution flips.
        let taken = if i % 47 == 13 { !base } else { base };
        trace.push(BranchRecord::conditional(0x40, taken, 0x10, instret));
    }
    let a2 = accuracy(&SchemeConfig::pag(8), &trace);
    let lt = accuracy(&SchemeConfig::pag(8).with_automaton(Automaton::LastTime), &trace);
    assert!(a2 > lt, "A2 ({a2:.4}) must beat Last-Time ({lt:.4}) under deviations");
    assert!(a2 > 0.95, "A2 should still nail the noisy pattern: {a2:.4}");
}

/// Figure 7's monotonicity: more global history never hurts much, and
/// markedly helps on long patterns.
#[test]
fn longer_global_history_helps_on_long_patterns() {
    // Period-15 pattern built from long runs of taken: its 6-bit windows
    // (e.g. six consecutive "taken") are ambiguous — they occur at
    // multiple positions with different successors — while every
    // 14-bit window is unique.
    let pattern = [
        true, true, true, true, true, true, true, false, // 7 taken, exit
        true, true, true, true, true, true,  // 6 taken
        false, // second exit
    ];
    let trace = RepeatingPattern::new(&pattern, 1500).generate();
    let short = accuracy(&SchemeConfig::gag(6), &trace);
    let long = accuracy(&SchemeConfig::gag(14), &trace);
    assert!(long > short + 0.05, "GAg(14) = {long:.4} must clearly beat GAg(6) = {short:.4}");
    assert!(long > 0.99, "GAg(14) should be near-perfect: {long:.4}");
}

/// Section 4.2: initialization biases predictions toward taken, so a
/// taken-heavy cold-start stream is predicted well immediately.
#[test]
fn cold_start_predicts_taken() {
    let trace = BiasedCoins::uniform(32, 1.0, 4, 7).generate();
    for config in [
        SchemeConfig::gag(8),
        SchemeConfig::pag(8),
        SchemeConfig::pap(8),
        SchemeConfig::btb(Automaton::A2),
    ] {
        let acc = accuracy(&config, &trace);
        assert!(
            (acc - 1.0).abs() < 1e-12,
            "{config}: all-taken cold start must be perfect, got {acc}"
        );
    }
}

/// Figure 8 / Section 5.1.3: at roughly equal accuracy, PAg is the
/// cheapest of the three variations under the Section 3.4 cost model.
#[test]
fn pag_is_cheapest_at_equal_accuracy() {
    let model = CostModel::paper_default();
    let gag = SchemeConfig::gag(18).cost(&model).unwrap();
    let pag = SchemeConfig::pag(12).cost(&model).unwrap();
    let pap = SchemeConfig::pap(8).cost(&model).unwrap();
    assert!(pag < gag && pag < pap, "PAg {pag} vs GAg {gag}, PAp {pap}");
}

/// Equation 4: GAg's cost doubles (asymptotically) with each history bit.
#[test]
fn gag_cost_grows_exponentially() {
    let model = CostModel::paper_default();
    let mut previous = model.gag_cost(6, 2);
    for k in 7..=18 {
        let cost = model.gag_cost(k, 2);
        assert!(cost > previous * 1.5, "k={k}: {cost} vs {previous}");
        previous = cost;
    }
}

/// Equations 5/6: PAg and PAp costs are linear in the BHT size, with PAp's
/// slope dominated by the per-entry pattern tables.
#[test]
fn pap_slope_exceeds_pag_slope() {
    let model = CostModel::paper_default();
    let small = BhtGeometry { entries: 256, ways: 4 };
    let large = BhtGeometry { entries: 1024, ways: 4 };
    let pag_slope = model.pag_cost(large, 10, 2) - model.pag_cost(small, 10, 2);
    let pap_slope = model.pap_cost(large, 10, 2) - model.pap_cost(small, 10, 2);
    assert!(pap_slope > 10.0 * pag_slope, "PAp slope {pap_slope} must dwarf PAg slope {pag_slope}");
}

/// Section 3.3: an ideal BHT can only help relative to a practical one.
///
/// The trace needs per-branch *structure* for the claim to be testable:
/// on independent coin flips an evicted history register costs nothing,
/// so the sign of the margin is pure noise. Persistent Markov branches
/// make every eviction discard genuinely predictive history.
#[test]
fn ideal_bht_dominates_practical_bht() {
    // A working set of 2000 branches overflows a 512-entry BHT.
    let trace = MarkovBranches::new(2000, 0.9, 40, 3).generate();
    let practical = accuracy(&SchemeConfig::pag(8), &trace);
    let ideal = accuracy(&SchemeConfig::pag(8).with_bht(tlabp::core::BhtConfig::Ideal), &trace);
    assert!(ideal >= practical, "ideal ({ideal:.4}) must be at least practical ({practical:.4})");
}

/// One row of a committed suite table: the scheme and its total
/// geometric-mean accuracy over the nine benchmarks.
struct SuiteRow {
    config: SchemeConfig,
    tot_gmean: f64,
}

/// Reads `results/<name>.csv`: a header whose last column is `Tot GMean`,
/// then one row per scheme, labelled in the Table 3 notation.
fn suite_rows(name: &str) -> Vec<SuiteRow> {
    let path = format!("{}/results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    assert!(header.ends_with(",Tot GMean"), "{path}: unexpected header {header:?}");
    lines
        .map(|line| {
            let (label, values) = match line.strip_prefix('"') {
                Some(quoted) => quoted.split_once("\",").expect("closing quote"),
                None => line.split_once(',').expect("label column"),
            };
            let config = label.parse().unwrap_or_else(|e| panic!("{path}: {label:?}: {e}"));
            let last = values.rsplit(',').next().expect("Tot GMean column");
            let tot_gmean = last.parse().unwrap_or_else(|e| panic!("{path}: {last:?}: {e}"));
            SuiteRow { config, tot_gmean }
        })
        .collect()
}

/// Figure 5: every four-state automaton beats Last-Time on the suite's
/// total geometric mean.
#[test]
fn fig5_four_state_automata_beat_last_time_on_the_suite() {
    let rows = suite_rows("fig5");
    let score = |automaton: Automaton| {
        rows.iter().find(|row| row.config.automaton() == automaton).expect("row").tot_gmean
    };
    let last_time = score(Automaton::LastTime);
    for automaton in [Automaton::A1, Automaton::A2, Automaton::A3, Automaton::A4] {
        let four_state = score(automaton);
        assert!(four_state > last_time, "{automaton} {four_state} vs Last-Time {last_time}");
    }
}

/// Figure 6: at every history length, per-address history (PAg) beats
/// global history (GAg) on the suite's total geometric mean.
#[test]
fn fig6_pag_beats_gag_at_every_history_length() {
    let rows = suite_rows("fig6");
    let score = |kind: SchemeKind, bits: u32| {
        rows.iter()
            .find(|row| row.config.kind() == kind && row.config.history_bits() == bits)
            .map(|row| row.tot_gmean)
    };
    let lengths: Vec<u32> = rows
        .iter()
        .filter(|row| row.config.kind() == SchemeKind::Gag)
        .map(|row| row.config.history_bits())
        .collect();
    assert!(lengths.len() >= 4, "fig6 sweeps several history lengths: {lengths:?}");
    for bits in lengths {
        let gag = score(SchemeKind::Gag, bits).expect("GAg row");
        let pag = score(SchemeKind::Pag, bits).expect("PAg row at every GAg length");
        assert!(pag > gag, "{bits}-bit history: PAg {pag} vs GAg {gag}");
    }
}

/// Figure 10: the ideal BHT scores at least as high as every practical
/// BHT on the suite's total geometric mean.
#[test]
fn fig10_ideal_bht_scores_at_least_every_practical_bht() {
    let rows = suite_rows("fig10");
    let (ideal, practical): (Vec<&SuiteRow>, Vec<&SuiteRow>) =
        rows.iter().partition(|row| row.config.bht() == Some(tlabp::core::BhtConfig::Ideal));
    assert_eq!(ideal.len(), 1, "one ideal BHT row");
    assert!(practical.len() >= 4, "the practical BHTs of Figure 10");
    for row in practical {
        assert!(
            ideal[0].tot_gmean >= row.tot_gmean,
            "ideal {} vs {} {}",
            ideal[0].tot_gmean,
            row.config,
            row.tot_gmean
        );
    }
}

/// Figure 11: of every scheme compared, PAg has the top total geometric
/// mean.
#[test]
fn fig11_pag_has_the_top_total_gmean() {
    let rows = suite_rows("fig11");
    let best = rows.iter().max_by(|a, b| a.tot_gmean.total_cmp(&b.tot_gmean)).expect("rows");
    assert_eq!(best.config.kind(), SchemeKind::Pag, "top scheme is {}", best.config);
    assert!(rows.len() >= 8, "fig11 compares every scheme of the paper");
}
