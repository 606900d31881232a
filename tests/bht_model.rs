//! Model-based property tests: the practical BHT, the BTB and the target
//! cache share one set-associative LRU table, and each must behave
//! exactly like a straightforward reference implementation of it.
//!
//! Randomized op sequences come from the in-tree seeded [`SmallRng`]
//! (no proptest), so every run exercises the same cases.

use std::collections::VecDeque;

use tlabp::core::automaton::{Automaton, State};
use tlabp::core::bht::{BhtConfig, CacheBht};
use tlabp::core::history::MAX_HISTORY_BITS;
use tlabp::core::predictor::BranchPredictor;
use tlabp::core::schemes::Btb;
use tlabp::core::target_cache::{FetchOutcome, TargetCache};
use tlabp::trace::rng::SmallRng;
use tlabp::trace::{BranchRecord, InternedCond, InternedConds, PackedCond};

/// Table geometries `(entries, ways)`: direct-mapped, 2- and 4-way, and
/// one set of 16 ways (fully associative).
const GEOMETRIES: [(usize, usize); 5] = [(8, 1), (8, 2), (16, 4), (32, 4), (16, 16)];

/// One way of a model set: its index and, when valid, its `(tag, value)`.
type Way<V> = (usize, Option<(u64, V)>);

/// Reference model of the shared table: per set, every way, most
/// recently used first. A new set lists its ways in descending order,
/// so its least recent way is way 0.
struct Model<V> {
    sets: Vec<VecDeque<Way<V>>>,
}

impl<V> Model<V> {
    fn new(entries: usize, ways: usize) -> Self {
        let set = || (0..ways).rev().map(|way| (way, None)).collect();
        Model { sets: (0..entries / ways).map(|_| set()).collect() }
    }

    fn set_and_tag(&self, pc: u64) -> (usize, u64) {
        let word = pc >> 2;
        ((word as usize) % self.sets.len(), word / self.sets.len() as u64)
    }

    /// Looks `pc` up and moves its way to the front; on a miss, the
    /// least recent invalid way, or else the least recent way, takes
    /// `fresh` and moves to the front. Returns the hit flag, the slot
    /// (`set × ways + way`) and the entry.
    fn access(&mut self, pc: u64, fresh: V) -> (bool, usize, &mut V) {
        let (set, tag) = self.set_and_tag(pc);
        let entries = &mut self.sets[set];
        let ways = entries.len();
        let found = entries.iter().position(|(_, e)| e.as_ref().is_some_and(|(t, _)| *t == tag));
        let invalid = || entries.iter().rposition(|(_, e)| e.is_none());
        let index = found.or_else(invalid).unwrap_or(ways - 1);
        let (way, entry) = entries.remove(index).expect("a way of the set");
        entries.push_front((way, if found.is_some() { entry } else { Some((tag, fresh)) }));
        let (_, value) = entries[0].1.as_mut().expect("the way just accessed is valid");
        (found.is_some(), set * ways + way, value)
    }

    /// `pc`'s entry, if resident, without touching the LRU order.
    fn get_mut(&mut self, pc: u64) -> Option<&mut V> {
        let (set, tag) = self.set_and_tag(pc);
        let entry = self.sets[set].iter_mut().find_map(|(_, e)| e.as_mut().filter(|e| e.0 == tag));
        entry.map(|(_, value)| value)
    }

    /// Invalidates every way, keeping the LRU order.
    fn flush(&mut self) {
        for (_, entry) in self.sets.iter_mut().flatten() {
            *entry = None;
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

/// The interned stream's id→pc table for [`pc_of`]'s pcs: id `n` is
/// `pc_of(n)`.
fn id_table() -> InternedConds {
    InternedConds::from_raw_parts(Vec::new(), (0..PCS).map(pc_of).collect()).expect("distinct pcs")
}

/// `branch`, whose pc is `pc_of(id)`, as an event of [`id_table`].
fn event(id: u32, branch: &BranchRecord) -> InternedCond {
    let backward = branch.target <= branch.pc;
    InternedCond::from_bits(id << 2 | u32::from(backward) << 1 | u32::from(branch.taken))
}

/// Asserts that `pattern` reports every pc's pattern as `model` holds it.
fn assert_patterns_match(
    pattern: impl Fn(u64) -> Option<usize>,
    model: &mut Model<ModelHistory>,
    at: &str,
) {
    for pc in (0..PCS).map(pc_of) {
        let want = model.get_mut(pc).map(|entry| entry.0 as usize);
        assert_eq!(pattern(pc), want, "pattern diverged for pc {pc:#x} at {at}");
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
            let at = format!("step {step} of case {case}");
            assert_patterns_match(|pc| real.pattern(pc), &mut model, &at);
        }
    }
}

/// The interned walk, one event at a time: each event's pattern, hit
/// flag and lane (the slot) are the model's, and so is the table after
/// the outcome is recorded.
#[test]
fn cache_bht_interned_path_matches_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0xB002);
    let ids = id_table();
    for case in 0..60u64 {
        let (entries, ways) = GEOMETRIES[rng.next_below(GEOMETRIES.len() as u64) as usize];
        let history_bits = rng.next_range(1, u64::from(MAX_HISTORY_BITS) + 1) as u32;
        let mut real = BhtConfig::Cache { entries, ways }.build(history_bits);
        let mut model = Model::new(entries, ways);
        for step in 0..rng.next_range(1, 400) {
            let at = format!("step {step} of case {case}");
            let Some((id, branch)) = random_step(&mut rng) else {
                real.flush();
                model.flush();
                continue;
            };
            let mut seen = None;
            real.walk_interned(&ids, &[event(id, &branch)], |pattern, cursor, _| {
                seen = Some((pattern, cursor.hit(), cursor.lane() as usize));
            });
            let (want_hit, slot, entry) = model.access(branch.pc, all_ones(history_bits));
            let want = (entry.0 as usize, want_hit, slot);
            assert_eq!(seen, Some(want), "{at}");
            record(entry, branch.taken, history_bits);
            assert_eq!(real.lane_of(branch.pc), Some(slot as u32), "{at}");
            assert_patterns_match(|pc| real.pattern(pc), &mut model, &at);
        }
    }
}

/// A BTB stepped by `predict` + `update` and its twin stepped by
/// one-event interned blocks both predict what the model's automaton
/// state says, and a context switch flushes the table.
#[test]
fn btb_matches_reference_model() {
    let automata = [Automaton::LastTime, Automaton::A1, Automaton::A2, Automaton::A3];
    let mut rng = SmallRng::seed_from_u64(0xB003);
    let ids = id_table();
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
            let state = model.access(branch.pc, automaton.initial_state()).2;
            let want = automaton.predict(*state);
            *state = automaton.update(*state, branch.taken);
            let predicted = by_pc.predict(&branch);
            by_pc.update(&branch);
            assert_eq!(predicted, want, "predict diverged at step {step} of case {case}");
            let correct = by_id.step_interned_block(&ids, &[event(id, &branch)]);
            let stepped = branch.taken == (correct == 1);
            assert_eq!(stepped, want, "block step diverged at step {step} of case {case}");
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
            let (hit, _, target) = model.access(branch.pc, branch.target);
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
