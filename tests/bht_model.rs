//! Model-based property tests: the practical BHT, the BTB and the target
//! cache share one set-associative LRU table, and each must behave
//! exactly like a straightforward reference implementation of it.
//!
//! Randomized op sequences come from the in-tree seeded [`SmallRng`]
//! (no proptest), so every run exercises the same cases.

use std::collections::VecDeque;

use tlabp::core::automaton::{Automaton, State};
use tlabp::core::bht::CacheBht;
use tlabp::core::history::MAX_HISTORY_BITS;
use tlabp::core::predictor::BranchPredictor;
use tlabp::core::schemes::Btb;
use tlabp::core::target_cache::{FetchOutcome, TargetCache};
use tlabp::trace::rng::SmallRng;
use tlabp::trace::{BranchRecord, PackedCond};

/// Table geometries `(entries, ways)`: direct-mapped, 2- and 4-way, and
/// one set of 16 ways (fully associative).
const GEOMETRIES: [(usize, usize); 5] = [(8, 1), (8, 2), (16, 4), (32, 4), (16, 16)];

/// Reference model of the shared table: per set, the resident entries
/// as `(tag, value)`, most recently used first.
struct Model<V> {
    sets: Vec<VecDeque<(u64, V)>>,
    ways: usize,
}

impl<V> Model<V> {
    fn new(entries: usize, ways: usize) -> Self {
        Model { sets: (0..entries / ways).map(|_| VecDeque::new()).collect(), ways }
    }

    fn set_and_tag(&self, pc: u64) -> (usize, u64) {
        let word = pc >> 2;
        ((word as usize) % self.sets.len(), word / self.sets.len() as u64)
    }

    /// Looks `pc` up and moves its entry to the front; on a miss, drops
    /// the set's last entry when the set is full and puts `fresh` in
    /// front. Returns the hit flag and the entry.
    fn access(&mut self, pc: u64, fresh: V) -> (bool, &mut V) {
        let (set, tag) = self.set_and_tag(pc);
        let entries = &mut self.sets[set];
        let hit = match entries.iter().position(|(t, _)| *t == tag) {
            Some(index) => {
                let entry = entries.remove(index).expect("found above");
                entries.push_front(entry);
                true
            }
            None => {
                if entries.len() == self.ways {
                    entries.pop_back();
                }
                entries.push_front((tag, fresh));
                false
            }
        };
        (hit, &mut entries[0].1)
    }

    /// `pc`'s entry, if resident, without touching the LRU order.
    fn get_mut(&mut self, pc: u64) -> Option<&mut V> {
        let (set, tag) = self.set_and_tag(pc);
        self.sets[set].iter_mut().find(|(t, _)| *t == tag).map(|(_, value)| value)
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

/// A model BHT entry: history bits and the fresh flag.
type ModelHistory = (u64, bool);

fn all_ones(history_bits: u32) -> ModelHistory {
    ((1u64 << history_bits) - 1, true)
}

/// The paper's miss policy, written out: extend the first outcome
/// through the register, then shift the later ones in.
fn record(entry: &mut ModelHistory, taken: bool, history_bits: u32) {
    let mask = (1u64 << history_bits) - 1;
    if entry.1 {
        *entry = (if taken { mask } else { 0 }, false);
    } else {
        entry.0 = ((entry.0 << 1) | u64::from(taken)) & mask;
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    Record(u64, bool),
    Flush,
}

/// The high address bits a pc may carry: none; the top bit of the
/// interned pc range ([`PackedCond::PC_BITS`] wide); and every bit of
/// that range above the low 16, so tags reach their full width and sit
/// next to the all-ones word an invalid-tag sentinel could collide with.
const HIGH_BITS: [u64; 3] = [0, 1 << (PackedCond::PC_BITS - 1), PackedCond::PC_MASK & !0xFFFF];

/// How many distinct pcs the tests draw from: 64 dense words under each
/// of [`HIGH_BITS`].
const PCS: u64 = 64 * HIGH_BITS.len() as u64;

/// The `n`-th pc (`n < PCS`): dense word-aligned low bits in a small
/// range, so sets conflict whatever the high bits, under one of
/// [`HIGH_BITS`]. Its interned id is `n`.
fn pc_of(n: u64) -> u64 {
    HIGH_BITS[(n / 64) as usize] | (0x1000 + n % 64 * 4)
}

fn random_pc(rng: &mut SmallRng) -> u64 {
    pc_of(rng.next_below(PCS))
}

fn random_op(rng: &mut SmallRng) -> Op {
    let pc = random_pc(rng);
    match rng.next_below(9) {
        0..=3 => Op::Access(pc),
        4..=7 => Op::Record(pc, rng.random_bool(0.5)),
        _ => Op::Flush,
    }
}

/// A random branch at one of [`pc_of`]'s pcs with its interned id, or
/// `None` (one time in 16) for a flush.
fn random_step(rng: &mut SmallRng) -> Option<(u32, BranchRecord)> {
    let n = rng.next_below(PCS);
    let taken = rng.random_bool(0.6);
    let target = 0x8000 + rng.next_below(2) * 0x40;
    (rng.next_below(16) != 0)
        .then(|| (n as u32, BranchRecord::conditional(pc_of(n), taken, target, 1)))
}

/// Asserts that `real` reports every pc's pattern as `model` holds it.
fn assert_patterns_match(real: &CacheBht, model: &mut Model<ModelHistory>, at: &str) {
    for pc in (0..PCS).map(pc_of) {
        let want = model.get_mut(pc).map(|entry| entry.0 as usize);
        assert_eq!(real.pattern(pc), want, "pattern diverged for pc {pc:#x} at {at}");
    }
}

#[test]
fn cache_bht_matches_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0xB001);
    for case in 0..60u64 {
        let (entries, ways) = GEOMETRIES[rng.next_below(GEOMETRIES.len() as u64) as usize];
        let history_bits = rng.next_range(1, u64::from(MAX_HISTORY_BITS) + 1) as u32;
        let mut real = CacheBht::new(entries, ways, history_bits);
        let mut model = Model::new(entries, ways);
        let steps = rng.next_range(1, 400);
        for step in 0..steps {
            match random_op(&mut rng) {
                Op::Access(pc) => {
                    let a = real.access(pc);
                    let b = model.access(pc, all_ones(history_bits)).0;
                    assert_eq!(a, b, "hit/miss diverged at step {step} of case {case}");
                }
                Op::Record(pc, taken) => {
                    let a = real.record_outcome(pc, taken);
                    let entry = model.get_mut(pc);
                    let b = entry.is_some();
                    entry.into_iter().for_each(|entry| record(entry, taken, history_bits));
                    assert_eq!(a, b, "record presence diverged at step {step} of case {case}");
                }
                Op::Flush => {
                    real.flush();
                    model.flush();
                }
            }
            // Full-state comparison via observable patterns.
            assert_patterns_match(&real, &mut model, &format!("step {step} of case {case}"));
        }
    }
}

/// The walk's path: `access_slot`, then `pattern_at` and
/// `record_outcome_at` on the slot it returned.
#[test]
fn cache_bht_interned_path_matches_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0xB002);
    for case in 0..60u64 {
        let (entries, ways) = GEOMETRIES[rng.next_below(GEOMETRIES.len() as u64) as usize];
        let history_bits = rng.next_range(1, u64::from(MAX_HISTORY_BITS) + 1) as u32;
        let mut real = CacheBht::new(entries, ways, history_bits);
        let mut model = Model::new(entries, ways);
        for step in 0..rng.next_range(1, 400) {
            let at = format!("step {step} of case {case}");
            let Some((_, branch)) = random_step(&mut rng) else {
                real.flush();
                model.flush();
                continue;
            };
            let (slot, hit) = real.access_slot(branch.pc);
            assert_eq!(real.slot_of(branch.pc), Some(slot), "{at}");
            let (want_hit, entry) = model.access(branch.pc, all_ones(history_bits));
            assert_eq!((real.pattern_at(slot), hit), (entry.0 as usize, want_hit), "{at}");
            real.record_outcome_at(slot, branch.taken);
            record(entry, branch.taken, history_bits);
            assert_patterns_match(&real, &mut model, &at);
        }
    }
}

/// A BTB stepped by `predict` + `update` and its twin stepped by
/// `step_interned` both predict what the model's automaton state says,
/// and a context switch flushes the table.
#[test]
fn btb_matches_reference_model() {
    let automata = [Automaton::LastTime, Automaton::A1, Automaton::A2, Automaton::A3];
    let mut rng = SmallRng::seed_from_u64(0xB003);
    for case in 0..60u64 {
        let (entries, ways) = GEOMETRIES[rng.next_below(GEOMETRIES.len() as u64) as usize];
        let automaton = automata[rng.next_below(automata.len() as u64) as usize];
        let mut by_pc = Btb::new(entries, ways, automaton);
        let mut by_id = Btb::new(entries, ways, automaton);
        let mut model: Model<State> = Model::new(entries, ways);
        for step in 0..rng.next_range(1, 400) {
            let Some((id, branch)) = random_step(&mut rng) else {
                by_pc.context_switch();
                by_id.context_switch();
                model.flush();
                continue;
            };
            let state = model.access(branch.pc, automaton.initial_state()).1;
            let want = automaton.predict(*state);
            *state = automaton.update(*state, branch.taken);
            let predicted = by_pc.predict(&branch);
            by_pc.update(&branch);
            assert_eq!(predicted, want, "predict diverged at step {step} of case {case}");
            let stepped = by_id.step_interned(id, &branch);
            assert_eq!(stepped, want, "step_interned diverged at step {step} of case {case}");
        }
    }
}

/// Each fetch's outcome follows from the model's hit flag and the
/// target it held, and the access refreshes the target.
#[test]
fn target_cache_matches_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0xB004);
    for case in 0..60u64 {
        let (entries, ways) = GEOMETRIES[rng.next_below(GEOMETRIES.len() as u64) as usize];
        let mut real = TargetCache::new(entries, ways);
        let mut model: Model<u64> = Model::new(entries, ways);
        for step in 0..rng.next_range(1, 400) {
            let Some((_, branch)) = random_step(&mut rng) else { continue };
            let predicted_taken = rng.random_bool(0.5);
            let (hit, target) = model.access(branch.pc, branch.target);
            let cached = std::mem::replace(target, branch.target);
            let want = match (hit, predicted_taken) {
                (false, _) => FetchOutcome::Miss { correct: !branch.taken },
                (true, false) => FetchOutcome::HitFallThrough { correct: !branch.taken },
                (true, true) if branch.taken && cached == branch.target => {
                    FetchOutcome::HitCorrectTarget
                }
                (true, true) => FetchOutcome::HitWrongPath,
            };
            let outcome = real.fetch_and_resolve(&branch, predicted_taken);
            assert_eq!(outcome, want, "outcome diverged at step {step} of case {case}");
        }
    }
}
