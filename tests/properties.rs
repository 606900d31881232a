//! Property-style tests over the core data structures and the
//! cross-crate trace formats.
//!
//! Originally written with proptest; rewritten as seeded randomized
//! loops on the in-tree [`SmallRng`] so the tier-1 suite builds with no
//! external dependencies. Each property runs a fixed number of cases
//! from a fixed seed, so failures reproduce exactly.

use tlabp::core::automaton::{Automaton, State};
use tlabp::core::config::SchemeConfig;
use tlabp::core::history::HistoryRegister;
use tlabp::core::predictor::BranchPredictor;
use tlabp::core::schemes::Gag;
use tlabp::core::speculative::{HistoryUpdatePolicy, MispredictRepair, SpeculativeGag};
use tlabp::core::{Automaton as Atm, BhtConfig};
use tlabp::trace::import::{read_etrace, write_etrace};
use tlabp::trace::io::{read_artifacts, write_artifacts_chunked, DEFAULT_CHUNK_BYTES};
use tlabp::trace::rng::SmallRng;
use tlabp::trace::{BranchClass, BranchRecord, Trace, TrapRecord};

const CASES: u64 = 64;

fn random_outcomes(rng: &mut SmallRng) -> Vec<bool> {
    let len = rng.next_range(1, 200) as usize;
    (0..len).map(|_| rng.random_bool(0.5)).collect()
}

fn random_automaton(rng: &mut SmallRng) -> Automaton {
    Automaton::ALL[rng.next_below(Automaton::ALL.len() as u64) as usize]
}

/// Automaton updates always stay inside the automaton's state space and
/// predictions are a pure function of the state.
#[test]
fn automata_are_closed_and_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xA001);
    for _ in 0..CASES {
        let automaton = random_automaton(&mut rng);
        let mut state = automaton.initial_state();
        for taken in random_outcomes(&mut rng) {
            assert!(automaton.is_valid_state(state));
            assert_eq!(automaton.predict(state), automaton.predict(state));
            state = automaton.update(state, taken);
        }
        assert!(automaton.is_valid_state(state));
    }
}

/// Counter automata saturate: 4 consecutive identical outcomes force the
/// corresponding prediction, for every starting state.
#[test]
fn counters_saturate() {
    for automaton in [Automaton::A2, Automaton::A3, Automaton::A4] {
        for start in 0u8..4 {
            for taken in [false, true] {
                let mut state = State::new(start);
                for _ in 0..4 {
                    state = automaton.update(state, taken);
                }
                assert_eq!(
                    automaton.predict(state),
                    taken,
                    "{automaton:?} from state {start} after 4x taken={taken}"
                );
            }
        }
    }
}

/// The history register behaves exactly like a bounded Vec<bool>
/// reference model.
#[test]
fn history_register_matches_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0xA002);
    for _ in 0..CASES {
        let len = rng.next_range(1, 25) as u32;
        let mut hr = HistoryRegister::new(len);
        let mut model: Vec<bool> = vec![false; len as usize];
        for taken in random_outcomes(&mut rng) {
            hr.shift_in(taken);
            model.remove(0);
            model.push(taken);
            let expected: usize = model.iter().fold(0, |acc, &bit| (acc << 1) | usize::from(bit));
            assert_eq!(hr.pattern(), expected);
            for (age, &bit) in model.iter().rev().enumerate() {
                assert_eq!(hr.outcome(age as u32), bit);
            }
        }
    }
}

/// fill() then pattern() round-trips the saturated values.
#[test]
fn history_fill_saturates() {
    for len in 1u32..=24 {
        for taken in [false, true] {
            let mut hr = HistoryRegister::new(len);
            hr.fill(taken);
            let expected = if taken { (1usize << len) - 1 } else { 0 };
            assert_eq!(hr.pattern(), expected);
        }
    }
}

/// Trace serialization is lossless for arbitrary event sequences, traps
/// included: through the TLBE exchange format, and through a trace-only
/// artifact at chunk budgets from one event per chunk to the default.
#[test]
fn trace_io_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0xA003);
    for _ in 0..CASES {
        let mut trace = Trace::new();
        let mut instret = 0u64;
        let events = rng.next_below(300);
        for _ in 0..events {
            let pc = rng.next_below(1 << 40);
            let target = rng.next_below(1 << 40);
            instret += 1 + (pc % 7);
            if rng.random_bool(0.5) {
                trace.push(TrapRecord::new(pc, instret));
            } else {
                let taken = rng.random_bool(0.5);
                let class = match rng.next_below(4) {
                    0 => BranchClass::Conditional,
                    1 => BranchClass::Unconditional,
                    2 => BranchClass::Call,
                    _ => BranchClass::Return,
                };
                let record = if class.is_conditional() {
                    BranchRecord::conditional(pc, taken, target, instret)
                } else {
                    BranchRecord::unconditional(pc, class, target, instret)
                };
                trace.push(record);
            }
        }
        let decoded = read_etrace(&write_etrace(&trace)).expect("TLBE round trip decodes");
        assert_eq!(trace, decoded);
        for chunk_bytes in [1, 64, DEFAULT_CHUNK_BYTES] {
            let bytes = write_artifacts_chunked(7, Some(&trace), None, None, &[], chunk_bytes);
            let bundle = read_artifacts(&bytes).expect("artifact round trip decodes");
            assert_eq!(bundle.trace.as_ref(), Some(&trace), "chunk budget {chunk_bytes}");
        }
    }
}

/// The Table 3 notation round-trips for arbitrary two-level
/// configurations, and one whose tables cannot be built (a PAp whose
/// per-slot tables pass the pattern-entry cap) fails to parse with the
/// rule [`SchemeConfig::check_geometry`] names.
#[test]
fn scheme_notation_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0xA004);
    for _ in 0..CASES {
        let k = rng.next_range(1, 19) as u32;
        let automaton = random_automaton(&mut rng);
        let entries = 1usize << rng.next_range(4, 12);
        let ways = (1usize << rng.next_below(4)).min(entries);
        let bht = BhtConfig::Cache { entries, ways };
        let config = match rng.next_below(4) {
            0 => SchemeConfig::gag(k).with_automaton(automaton),
            1 => SchemeConfig::pag(k).with_automaton(automaton).with_bht(bht),
            2 => SchemeConfig::pap(k).with_automaton(automaton).with_bht(bht),
            _ => SchemeConfig::pag(k).with_automaton(automaton).with_bht(BhtConfig::Ideal),
        }
        .with_context_switch(rng.random_bool(0.5));
        let text = config.to_string();
        let parsed: Result<SchemeConfig, _> = text.parse();
        match config.check_geometry() {
            Ok(()) => assert_eq!(parsed.expect("own notation parses"), config, "{text:?}"),
            Err(rule) => {
                let err = parsed.expect_err("a geometry past a cap does not parse");
                assert_eq!(err.geometry(), Some(rule), "{text:?}");
            }
        }
    }
}

/// A zero-delay speculative GAg is observationally identical to the
/// plain GAg for any outcome sequence and any repair policy.
#[test]
fn speculative_gag_with_zero_delay_equals_gag() {
    let mut rng = SmallRng::seed_from_u64(0xA005);
    for case in 0..CASES {
        let repair = if rng.random_bool(0.5) {
            MispredictRepair::Repair
        } else {
            MispredictRepair::Reinitialize
        };
        let mut plain = Gag::new(8, Atm::A2);
        let mut speculative =
            SpeculativeGag::new(8, Atm::A2, HistoryUpdatePolicy::Speculative { delay: 0, repair });
        for (i, taken) in random_outcomes(&mut rng).into_iter().enumerate() {
            let record = BranchRecord::conditional(0x100, taken, 0x40, i as u64 + 1);
            let a = plain.predict(&record);
            let b = speculative.predict(&record);
            assert_eq!(a, b, "prediction diverged at step {i} of case {case}");
            plain.update(&record);
            speculative.update(&record);
        }
    }
}

/// Predict never observes the record's `taken` field: two records that
/// differ only in the outcome get the same prediction.
#[test]
fn predict_is_oblivious_to_outcome() {
    let mut rng = SmallRng::seed_from_u64(0xA006);
    for _ in 0..CASES {
        let k = rng.next_range(1, 15) as u32;
        let mut a = SchemeConfig::pag(k).build().expect("builds");
        let mut b = SchemeConfig::pag(k).build().expect("builds");
        for (i, taken) in random_outcomes(&mut rng).iter().enumerate() {
            let record = BranchRecord::conditional(0x200, *taken, 0x40, i as u64 + 1);
            a.predict(&record);
            a.update(&record);
            b.predict(&record);
            b.update(&record);
        }
        let probe_taken = BranchRecord::conditional(0x200, true, 0x40, 9999);
        let probe_not = BranchRecord::conditional(0x200, false, 0x40, 9999);
        assert_eq!(a.predict(&probe_taken), b.predict(&probe_not));
    }
}
