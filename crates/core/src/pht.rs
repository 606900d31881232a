//! The pattern history table (PHT) of the paper's Section 2.1.

use crate::automaton::{Automaton, State};
use crate::simd::SimdMode;

/// A pattern history table: `2^k` automaton states indexed by the content
/// of a k-bit history register.
///
/// "For each of these 2^k patterns, there is a corresponding entry in the
/// pattern history table which contains branch results for the last s times
/// the preceding k branches were represented by that specific content of
/// the history register."
///
/// All entries are initialized per Section 4.2 (strongly-taken for the
/// four-state automata, taken for Last-Time); the paper notes the PHT is
/// *not* reinitialized on context switches.
///
/// # Example
///
/// ```
/// use tlabp_core::automaton::Automaton;
/// use tlabp_core::pht::PatternHistoryTable;
///
/// let mut pht = PatternHistoryTable::new(4, Automaton::A2);
/// assert_eq!(pht.len(), 16);
/// assert!(pht.predict(0b1010)); // initialized strongly taken
/// pht.update(0b1010, false);
/// pht.update(0b1010, false);
/// assert!(!pht.predict(0b1010)); // learned not-taken for this pattern
/// assert!(pht.predict(0b0101)); // other patterns unaffected
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHistoryTable {
    automaton: Automaton,
    /// The automaton's fused (δ, λ) word ([`Automaton::packed_lut`]),
    /// which the fused step reads instead of matching on the automaton.
    lut: u32,
    history_bits: u32,
    states: Vec<State>,
}

impl PatternHistoryTable {
    /// Creates a table for `history_bits`-bit patterns (so `2^history_bits`
    /// entries), every entry at the automaton's initial state.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is zero or exceeds
    /// [`crate::history::MAX_HISTORY_BITS`].
    #[must_use]
    pub fn new(history_bits: u32, automaton: Automaton) -> Self {
        crate::geometry::assert_valid(crate::geometry::check_history_bits(history_bits));
        let entries = 1usize << history_bits;
        PatternHistoryTable {
            automaton,
            lut: automaton.packed_lut(),
            history_bits,
            states: vec![automaton.initial_state(); entries],
        }
    }

    /// The automaton stored in each entry.
    #[must_use]
    pub fn automaton(&self) -> Automaton {
        self.automaton
    }

    /// Number of entries (`2^k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always `false`; a table has at least two entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The history-register length `k` this table is sized for.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// Predicts the branch direction for `pattern` (Equation 1).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn predict(&self, pattern: usize) -> bool {
        self.automaton.predict(self.states[pattern])
    }

    /// Applies the transition function δ to the entry for `pattern`
    /// (Equation 2).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    pub fn update(&mut self, pattern: usize, taken: bool) {
        let state = self.states[pattern];
        self.states[pattern] = self.automaton.update(state, taken);
    }

    /// Fused [`PatternHistoryTable::predict`] +
    /// [`PatternHistoryTable::update`]: one table access and one step
    /// through the automaton's packed (δ, λ) word
    /// ([`Automaton::packed_step`]) instead of two.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[inline]
    pub fn predict_update(&mut self, pattern: usize, taken: bool) -> bool {
        let state = &mut self.states[pattern];
        let (next, predicted) = Automaton::packed_step(self.lut, *state, taken);
        *state = next;
        predicted
    }

    /// The current state of the entry for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn state(&self, pattern: usize) -> State {
        self.states[pattern]
    }

    /// Overwrites the state of the entry for `pattern` — used by the
    /// Static Training schemes to preset prediction bits from profiling.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range or `state` is invalid for the
    /// table's automaton.
    pub fn set_state(&mut self, pattern: usize, state: State) {
        assert!(
            self.automaton.is_valid_state(state),
            "state {state} invalid for {}",
            self.automaton
        );
        self.states[pattern] = state;
    }

    /// Resets every entry to the automaton's initial state.
    ///
    /// The paper's context-switch model deliberately does *not* do this
    /// ("the pattern history table of the saved process is more likely to
    /// be similar to the current process's"); it exists for experiment
    /// ablations and for starting fresh runs.
    pub fn reinitialize(&mut self) {
        self.states.fill(self.automaton.initial_state());
    }
}

/// Bit 0 of every nibble lane.
const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;
/// Most members a [`TransposedPhtBank`] holds: one 4-bit nibble each in
/// a single `u64` word. Public because the runner packs banks up to this
/// size, and the engine's intra-batch split cuts width groups at the
/// same boundary.
pub const LANES_PER_WORD: usize = 16;
/// Most fields (runs of equal-width members) a [`TransposedPhtBank`]
/// holds: the word body is specialized for each field count up to this
/// cap. Public because the runner packs banks under it.
pub const MAX_FIELDS: usize = 6;
/// Events between accumulator flushes: each nibble of the accumulator
/// gains at most one per event and holds up to 15.
const ACC_FLUSH_EVENTS: usize = 15;

/// A lane-transposed bank of up to [`LANES_PER_WORD`]
/// [`PatternHistoryTable`]s of any widths for the SWAR replay kernel:
/// member `m` lives in nibble `m` of one `u64` word, so one round of
/// bit-sliced logic steps every member of a replayed event at once.
///
/// Members of one width form a contiguous nibble *field* (a maximal run
/// of equal-width members, in member order; at most [`MAX_FIELDS`] of
/// them), backed by a table of its own `2^k` rows. A row holds the
/// field's nibbles in their word positions and zeros elsewhere. Per
/// event the word body gathers the event's row of every field into one
/// word (`pattern & (2^k - 1)` per field), steps that word once, and
/// writes each field's nibbles back to its row. So a batch of many
/// widths pays one step per event, not one per width, while each member
/// still indexes its own table. The body is specialized for each field
/// count, which keeps the rows and masks of every field in registers.
///
/// Every member's fused transition `f(s1, s0)`, the entry
/// `(s << 1) | taken` of its [`Automaton::packed_lut`] word (3 output
/// bits: next state low/high, prediction), is expanded in the AND–XOR
/// (Reed–Muller) basis
///
/// ```text
/// f(s1, s0) = c0 ^ (c1 & s0) ^ (c2 & s1) ^ (c3 & s1 & s0)
/// ```
///
/// which is exact for *any* boolean function of the two state bits — so
/// a bank freely mixes automata per lane. The four coefficients are
/// stored as nibble-lane masks (3 live bits per member nibble), one set
/// per resolved direction.
///
/// Because a k-bit history register's content is exactly the low k bits
/// of any wider register fed the same outcomes, a stream derived at
/// width `K >= k` replays a width-k field bit-identically — the
/// width-fold contract the engine's transposed sweep lowering builds on
/// (pinned by `tests/differential.rs`).
///
/// Prediction *counting* is bit-sliced too: bit 2 of each advanced
/// nibble (λ of the pre-update state, xored with the event's direction)
/// lands in a nibble accumulator, flushed to 64-bit per-member counters
/// every `ACC_FLUSH_EVENTS` (15) events.
///
/// A bank comes in two forms over the same kernel: *shared*
/// ([`TransposedPhtBank::new`]), one set of field tables every event
/// indexes (GAg, PAg and the GSg/PSg preset assemblies), and *per-lane*
/// ([`TransposedPhtBank::per_lane`]), one set per stream lane (PAp),
/// materialized from the members' template states on the lane's first
/// event — behaviorally identical to per-lane clones of the templates,
/// which is how PAp fills its own tables.
#[derive(Debug)]
pub struct TransposedPhtBank {
    /// The fields in nibble order.
    fields: Vec<Field>,
    /// Coefficient masks, direction-major: `coeff[taken * 4 + k]`.
    coeff: [u64; 8],
    /// Nibble bit 2 set for every occupied member lane: masks the
    /// kernel's prediction bits and (xored in when the branch was not
    /// taken) converts them to correctness bits.
    pred_occ: u64,
    /// Per-member [`Automaton::packed_lut`] words for the scalar
    /// reference body.
    luts: Vec<u32>,
    rows: Rows,
    counts: Vec<u64>,
}

/// One field of a [`TransposedPhtBank`]: a run of equal-width members
/// and its table, rows `offset..=offset + row_mask` of the bank's flat
/// row vector.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// The field's first row in the flat row vector.
    offset: usize,
    /// `2^k - 1`: masks an event's pattern to one of the field's rows.
    row_mask: usize,
    /// Bits 0–1 (the stored state) of each of the field's nibbles: what
    /// a row keeps of a stepped word.
    state_mask: u64,
}

impl Field {
    /// The row of this field that `pattern` selects, in the flat vector.
    #[inline(always)]
    fn row(self, pattern: usize) -> usize {
        self.offset + (pattern & self.row_mask)
    }

    /// The members (nibbles) this field holds.
    fn members(self) -> std::ops::Range<usize> {
        let first = self.state_mask.trailing_zeros() as usize / 4;
        let end = (64 - self.state_mask.leading_zeros() as usize).div_ceil(4);
        first..end
    }
}

/// The transposed table rows of a [`TransposedPhtBank`]: every field's
/// table, concatenated in field order.
#[derive(Debug)]
enum Rows {
    /// One set of field tables.
    Shared(Vec<u64>),
    /// One set per stream lane, cloned from `template` on the lane's
    /// first event (a never-touched table is indistinguishable from a
    /// fresh one).
    PerLane { template: Vec<u64>, lanes: Vec<Vec<u64>> },
}

impl TransposedPhtBank {
    /// Transposes `tables` into a shared bank, preserving every member's
    /// current per-entry state (preset GSg/PSg assemblies included).
    /// Consecutive members of equal width share a field.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty, holds more than [`LANES_PER_WORD`]
    /// members, or forms more than [`MAX_FIELDS`] fields.
    #[must_use]
    pub fn new(tables: &[&PatternHistoryTable]) -> Self {
        Self::build(tables, false)
    }

    /// Builds a per-lane bank whose lane tables start from the members'
    /// current states in `templates`.
    ///
    /// # Panics
    ///
    /// As [`TransposedPhtBank::new`].
    #[must_use]
    pub fn per_lane(templates: &[&PatternHistoryTable]) -> Self {
        Self::build(templates, true)
    }

    fn build(tables: &[&PatternHistoryTable], per_lane: bool) -> Self {
        assert!(!tables.is_empty(), "a bank needs at least one member");
        assert!(
            tables.len() <= LANES_PER_WORD,
            "a transposed bank holds at most {LANES_PER_WORD} members (one u64 per row), got {}; \
             cut wider groups into several banks",
            tables.len()
        );
        let mut fields: Vec<Field> = Vec::new();
        let mut coeff = [0u64; 8];
        let mut pred_occ = 0u64;
        let mut luts = Vec::with_capacity(tables.len());
        let mut words: Vec<u64> = Vec::new();
        for (member, table) in tables.iter().enumerate() {
            let shift = member * 4;
            match fields.last_mut() {
                Some(field) if field.row_mask == table.len() - 1 => {
                    field.state_mask |= 0b11 << shift
                }
                _ => {
                    let (offset, row_mask) = (words.len(), table.len() - 1);
                    fields.push(Field { offset, row_mask, state_mask: 0b11 << shift });
                    words.resize(offset + table.len(), 0);
                }
            }
            let lut = table.lut;
            for taken in 0..2usize {
                let f = |state: usize| (lut >> (((state << 1) | taken) * 4)) & 0b111;
                let (f0, f1, f2, f3) = (f(0), f(1), f(2), f(3));
                for (k, bits) in [f0, f0 ^ f1, f0 ^ f2, f0 ^ f1 ^ f2 ^ f3].into_iter().enumerate() {
                    coeff[taken * 4 + k] |= u64::from(bits) << shift;
                }
            }
            pred_occ |= 0b100 << shift;
            luts.push(lut);
            // The member's field is the last one, so its rows end the vector.
            let first_row = words.len() - table.len();
            for (word, state) in words[first_row..].iter_mut().zip(&table.states) {
                *word |= u64::from(state.value()) << shift;
            }
        }
        assert!(
            fields.len() <= MAX_FIELDS,
            "a transposed bank holds at most {MAX_FIELDS} fields of equal-width members, got {}",
            fields.len()
        );
        TransposedPhtBank {
            fields,
            coeff,
            pred_occ,
            luts,
            rows: if per_lane {
                Rows::PerLane { template: words, lanes: Vec::new() }
            } else {
                Rows::Shared(words)
            },
            counts: vec![0; tables.len()],
        }
    }

    /// Number of member tables (per lane, for a per-lane bank).
    #[must_use]
    pub fn members(&self) -> usize {
        self.counts.len()
    }

    /// Number of fields: runs of equal-width members, each with a table
    /// of its own.
    #[must_use]
    pub fn fields(&self) -> usize {
        self.fields.len()
    }

    /// Replays a block of packed `pattern << 1 | taken` events (each
    /// field masks the pattern to its own width, see the type docs)
    /// through every member, adding each member's correct predictions to
    /// its [`TransposedPhtBank::counts`] slot. A per-lane bank takes each
    /// event's tables from `lanes`; a shared bank never reads `lanes`
    /// (pass `&[]`). `mode` picks the word body or the scalar reference
    /// loop; both are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the bank is per-lane and `events` and `lanes` differ in
    /// length.
    pub fn replay(&mut self, events: &[u32], lanes: &[u32], mode: SimdMode) {
        if let Rows::PerLane { .. } = self.rows {
            assert_eq!(events.len(), lanes.len(), "one lane selector per event");
        }
        match (mode, self.fields.len()) {
            (SimdMode::Scalar, _) => self.replay_scalar(events, lanes),
            (SimdMode::Auto, 1) => self.replay_words::<1>(events, lanes),
            (SimdMode::Auto, 2) => self.replay_words::<2>(events, lanes),
            (SimdMode::Auto, 3) => self.replay_words::<3>(events, lanes),
            (SimdMode::Auto, 4) => self.replay_words::<4>(events, lanes),
            (SimdMode::Auto, 5) => self.replay_words::<5>(events, lanes),
            (SimdMode::Auto, 6) => self.replay_words::<6>(events, lanes),
            (SimdMode::Auto, fields) => {
                unreachable!("a bank holds 1..={MAX_FIELDS} fields, not {fields}")
            }
        }
    }

    /// The word body over `F` fields.
    fn replay_words<const F: usize>(&mut self, events: &[u32], lanes: &[u32]) {
        let fields: [Field; F] = self.fields[..].try_into().expect("a bank of F fields");
        let (coeff, pred_occ, counts) = (&self.coeff, self.pred_occ, &mut self.counts);
        match &mut self.rows {
            Rows::Shared(table) => {
                for chunk in events.chunks(ACC_FLUSH_EVENTS) {
                    let mut acc = 0u64;
                    for &event in chunk {
                        acc += step_fields(table, &fields, event, coeff, pred_occ);
                    }
                    flush_acc(acc, counts);
                }
            }
            Rows::PerLane { template, lanes: tables } => {
                let chunks = events.chunks(ACC_FLUSH_EVENTS).zip(lanes.chunks(ACC_FLUSH_EVENTS));
                for (events, lanes) in chunks {
                    let mut acc = 0u64;
                    for (&event, &lane) in events.iter().zip(lanes) {
                        let table = lane_table(tables, template, lane);
                        acc += step_fields(table, &fields, event, coeff, pred_occ);
                    }
                    flush_acc(acc, counts);
                }
            }
        }
    }

    /// The scalar reference body: each member steps its nibble of its
    /// own field's row through its packed LUT, counting directly.
    fn replay_scalar(&mut self, events: &[u32], lanes: &[u32]) {
        let (fields, luts, counts) = (&self.fields, &self.luts, &mut self.counts);
        match &mut self.rows {
            Rows::Shared(table) => {
                for &event in events {
                    step_scalar(table, fields, event, luts, counts);
                }
            }
            Rows::PerLane { template, lanes: tables } => {
                for (&event, &lane) in events.iter().zip(lanes) {
                    step_scalar(lane_table(tables, template, lane), fields, event, luts, counts);
                }
            }
        }
    }

    /// Per-member correct-prediction counts accumulated by
    /// [`TransposedPhtBank::replay`] so far, in member order.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The current state of `member`'s entry for `pattern` in a shared
    /// bank.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range, `pattern` is out of the
    /// member's range, or the bank is per-lane.
    #[must_use]
    pub fn state(&self, pattern: usize, member: usize) -> State {
        let Rows::Shared(table) = &self.rows else {
            panic!("a per-lane bank has no single table to read")
        };
        let field = self
            .fields
            .iter()
            .find(|field| field.members().contains(&member))
            .unwrap_or_else(|| panic!("member {member} out of range"));
        assert!(pattern <= field.row_mask, "pattern {pattern} out of range");
        State::new(((table[field.offset + pattern] >> (member * 4)) & 0b11) as u8)
    }
}

/// The word body for one event over `F` fields: gathers the event's row
/// of every field into one word, advances every member nibble, writes
/// each field's nibbles back, and returns the members' correctness bits,
/// one per nibble (bit 0).
#[inline(always)]
fn step_fields<const F: usize>(
    table: &mut [u64],
    fields: &[Field; F],
    event: u32,
    coeff: &[u64; 8],
    pred_occ: u64,
) -> u64 {
    let pattern = (event >> 1) as usize;
    let rows = fields.map(|field| field.row(pattern));
    let word = rows.iter().fold(0, |word, &row| word | table[row]);
    let ct = (event as usize & 1) * 4;
    let not_taken = u64::from(event & 1).wrapping_sub(1);
    let lo = word & NIBBLE_LO;
    let hi = (word >> 1) & NIBBLE_LO;
    let hl = hi & lo;
    // `x * 7` spreads each nibble's bit 0 across bits 0–2 (no nibble
    // carries: 7 < 16), broadcasting a state bit to all three
    // coefficient bit positions.
    let out = coeff[ct]
        ^ (coeff[ct + 1] & lo.wrapping_mul(7))
        ^ (coeff[ct + 2] & hi.wrapping_mul(7))
        ^ (coeff[ct + 3] & hl.wrapping_mul(7));
    for (field, row) in fields.iter().zip(rows) {
        table[row] = out & field.state_mask;
    }
    // Bit 2 of each occupied nibble is the member's prediction; xoring in
    // the occupancy mask on a not-taken branch flips it to "was correct".
    ((out & pred_occ) ^ (pred_occ & not_taken)) >> 2
}

/// The scalar reference body for one event: per member, one packed-LUT
/// step of its nibble in its own field's row, counting directly (no
/// gather and no bit-sliced accumulator).
#[inline(always)]
fn step_scalar(table: &mut [u64], fields: &[Field], event: u32, luts: &[u32], counts: &mut [u64]) {
    let taken = event & 1 != 0;
    let pattern = (event >> 1) as usize;
    for &field in fields {
        let word = &mut table[field.row(pattern)];
        for member in field.members() {
            let shift = member * 4;
            let state = State::new(((*word >> shift) & 0b11) as u8);
            let (next, predicted) = Automaton::packed_step(luts[member], state, taken);
            *word = (*word & !(0xF << shift)) | (u64::from(next.value()) << shift);
            counts[member] += u64::from(predicted == taken);
        }
    }
}

/// Adds each member's nibble of a bit-sliced accumulator to its counter.
#[inline]
fn flush_acc(acc: u64, counts: &mut [u64]) {
    for (member, count) in counts.iter_mut().enumerate() {
        *count += (acc >> (member * 4)) & 0xF;
    }
}

/// `lane`'s field tables, cloned from `template` on the lane's first
/// touch.
#[inline]
fn lane_table<'a>(tables: &'a mut Vec<Vec<u64>>, template: &[u64], lane: u32) -> &'a mut [u64] {
    let lane = lane as usize;
    if lane >= tables.len() {
        tables.resize_with(lane + 1, Vec::new);
    }
    let table = &mut tables[lane];
    if table.is_empty() {
        table.extend_from_slice(template);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializes_to_biased_taken() {
        for automaton in Automaton::ALL {
            let pht = PatternHistoryTable::new(3, automaton);
            for pattern in 0..pht.len() {
                assert!(pht.predict(pattern), "{automaton} pattern {pattern}");
            }
        }
    }

    #[test]
    fn entries_are_independent() {
        let mut pht = PatternHistoryTable::new(2, Automaton::LastTime);
        pht.update(0b01, false);
        assert!(!pht.predict(0b01));
        assert!(pht.predict(0b00));
        assert!(pht.predict(0b10));
        assert!(pht.predict(0b11));
    }

    #[test]
    fn len_is_power_of_two() {
        assert_eq!(PatternHistoryTable::new(6, Automaton::A2).len(), 64);
        assert_eq!(PatternHistoryTable::new(18, Automaton::A2).len(), 262_144);
    }

    #[test]
    fn update_follows_automaton() {
        let mut pht = PatternHistoryTable::new(2, Automaton::A2);
        pht.update(1, false);
        assert_eq!(pht.state(1), State::new(2));
        pht.update(1, false);
        assert_eq!(pht.state(1), State::new(1));
        assert!(!pht.predict(1));
    }

    #[test]
    fn set_state_validates() {
        let mut pht = PatternHistoryTable::new(2, Automaton::LastTime);
        pht.set_state(0, State::new(0));
        assert!(!pht.predict(0));
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn set_state_rejects_out_of_range_state() {
        let mut pht = PatternHistoryTable::new(2, Automaton::LastTime);
        pht.set_state(0, State::new(2));
    }

    #[test]
    fn reinitialize_restores_initial() {
        let mut pht = PatternHistoryTable::new(3, Automaton::A2);
        for pattern in 0..pht.len() {
            pht.update(pattern, false);
            pht.update(pattern, false);
            pht.update(pattern, false);
        }
        assert!(!pht.predict(0));
        pht.reinitialize();
        for pattern in 0..pht.len() {
            assert!(pht.predict(pattern));
            assert_eq!(pht.state(pattern), Automaton::A2.initial_state());
        }
    }

    #[test]
    fn preset_table_ignores_updates() {
        let mut pht = PatternHistoryTable::new(2, Automaton::PresetBit);
        pht.set_state(2, State::new(0));
        pht.update(2, true);
        pht.update(2, true);
        assert!(!pht.predict(2), "preset bit must not learn");
    }

    const EVERY_MODE: [SimdMode; 2] = [SimdMode::Auto, SimdMode::Scalar];

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut rng = seed;
        move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        }
    }

    /// Random packed events whose patterns span `pattern_bits` (possibly
    /// wider than the bank under test, exercising the width fold).
    fn random_events(pattern_bits: u32, count: usize, seed: u64) -> Vec<u32> {
        let mut next = xorshift(seed);
        (0..count)
            .map(|_| {
                let r = next();
                ((r as u32 >> 8) & ((1 << pattern_bits) - 1)) << 1 | (r as u32 & 1)
            })
            .collect()
    }

    /// A bank's member slice: one borrow per table.
    fn members(tables: &[PatternHistoryTable]) -> Vec<&PatternHistoryTable> {
        tables.iter().collect()
    }

    /// Field widths and member counts of a full 16-member bank over
    /// [`MAX_FIELDS`] fields: fields of one and of several members, and
    /// widths in no order (the widest is 7).
    const FIELDS: [(u32, usize); MAX_FIELDS] = [(3, 1), (5, 4), (2, 1), (7, 5), (4, 3), (6, 2)];

    /// One table per member of [`FIELDS`], cycling through every
    /// automaton.
    fn field_tables() -> Vec<PatternHistoryTable> {
        let widths = FIELDS.iter().flat_map(|&(width, count)| std::iter::repeat_n(width, count));
        widths
            .enumerate()
            .map(|(member, width)| {
                PatternHistoryTable::new(width, Automaton::ALL[member % Automaton::ALL.len()])
            })
            .collect()
    }

    /// Steps every table of `tables` through `event` (its pattern masked
    /// to the table's width), adding its correctness to `counts`.
    fn step_tables(tables: &mut [PatternHistoryTable], event: u32, counts: &mut [u64]) {
        let taken = event & 1 != 0;
        for (table, count) in tables.iter_mut().zip(counts) {
            let pattern = (event >> 1) as usize & (table.len() - 1);
            *count += u64::from(table.predict_update(pattern, taken) == taken);
        }
    }

    #[test]
    fn transposed_bank_matches_tables_on_random_walks() {
        // 16 members of mixed automata in six fields of widths 2–7;
        // events carry width-8 patterns, so every field folds the
        // pattern to its own width.
        let mut tables = field_tables();
        let events = random_events(8, 5000, 0x2545_f491_4f6c_dd1d);
        for mode in EVERY_MODE {
            let mut bank = TransposedPhtBank::new(&members(&tables));
            assert_eq!(bank.members(), LANES_PER_WORD);
            assert_eq!(bank.fields(), MAX_FIELDS);
            bank.replay(&events, &[], mode);
            let mut reference = vec![0u64; tables.len()];
            let mut shadow = tables.clone();
            for &event in &events {
                step_tables(&mut shadow, event, &mut reference);
            }
            assert_eq!(bank.counts(), &reference[..], "{mode:?} counts diverged");
            for (member, table) in shadow.iter().enumerate() {
                for pattern in 0..table.len() {
                    assert_eq!(
                        bank.state(pattern, member),
                        table.state(pattern),
                        "{mode:?} member {member} pattern {pattern}"
                    );
                }
            }
        }
        // Presets survive transposition: rebuild member 0 as a preset
        // table and confirm the initial states round-trip.
        let mut preset = PatternHistoryTable::new(3, Automaton::PresetBit);
        for pattern in 0..preset.len() {
            preset.set_state(pattern, State::new(u8::from(pattern % 3 == 0)));
        }
        tables[0] = preset.clone();
        let bank = TransposedPhtBank::new(&members(&tables));
        for pattern in 0..preset.len() {
            assert_eq!(bank.state(pattern, 0), preset.state(pattern));
        }
    }

    #[test]
    fn transposed_bank_exhaustive_transitions_match_the_automata() {
        // Every (automaton, valid state, direction) transition input,
        // stepped one event at a time through a one-member bank under
        // both bodies.
        for automaton in Automaton::ALL {
            for state in 0..automaton.state_count() {
                let state = State::new(state);
                if !automaton.is_valid_state(state) {
                    continue;
                }
                for taken in [false, true] {
                    for mode in EVERY_MODE {
                        let mut table = PatternHistoryTable::new(1, automaton);
                        table.set_state(0, state);
                        table.set_state(1, state);
                        let mut bank = TransposedPhtBank::new(&[&table]);
                        bank.replay(&[u32::from(taken)], &[], mode);
                        let predicted = table.predict_update(0, taken);
                        assert_eq!(
                            bank.state(0, 0),
                            table.state(0),
                            "{automaton} {state} taken={taken} {mode:?}: next state"
                        );
                        assert_eq!(
                            bank.counts()[0],
                            u64::from(predicted == taken),
                            "{automaton} {state} taken={taken} {mode:?}: correctness"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_body_agrees_with_scalar_on_all_256_lane_inputs() {
        // Per automaton, seed a full 16-member bank of six fields from
        // every one of the 256 initial 4-lane state bytes — each byte's
        // four 2-bit fields seed adjacent lanes, so every adjacent-state
        // combination crosses every nibble boundary of the word, field
        // boundaries included — and require the word body bit-identical
        // to the scalar reference.
        const WIDTHS: [(u32, usize); MAX_FIELDS] = [(2, 3), (1, 2), (3, 4), (2, 1), (1, 5), (3, 1)];
        let widths: Vec<u32> =
            WIDTHS.iter().flat_map(|&(width, count)| std::iter::repeat_n(width, count)).collect();
        assert_eq!(widths.len(), LANES_PER_WORD);
        for automaton in Automaton::ALL {
            for input in 0..=255u8 {
                let tables: Vec<PatternHistoryTable> = widths
                    .iter()
                    .enumerate()
                    .map(|(member, &width)| {
                        let mut table = PatternHistoryTable::new(width, automaton);
                        let field = State::new((input >> ((member % 4) * 2)) & 0b11);
                        let state = if automaton.is_valid_state(field) {
                            field
                        } else {
                            State::new(field.value() & 1)
                        };
                        for pattern in 0..table.len() {
                            table.set_state(pattern, state);
                        }
                        table
                    })
                    .collect();
                // Two events per pattern/direction pair over the widest
                // field's 8 patterns: every seeded row sees both
                // directions and one follow-up step.
                let events: Vec<u32> =
                    (0..32u32).map(|e| ((e >> 1) & 0b111) << 1 | (e & 1)).collect();
                let mut word = TransposedPhtBank::new(&members(&tables));
                assert_eq!(word.fields(), MAX_FIELDS);
                word.replay(&events, &[], SimdMode::Auto);
                let mut scalar = TransposedPhtBank::new(&members(&tables));
                scalar.replay(&events, &[], SimdMode::Scalar);
                assert_eq!(
                    word.counts(),
                    scalar.counts(),
                    "{automaton} input {input:#04x}: counts diverged"
                );
                for (member, table) in tables.iter().enumerate() {
                    for pattern in 0..table.len() {
                        assert_eq!(
                            word.state(pattern, member),
                            scalar.state(pattern, member),
                            "{automaton} input {input:#04x} member {member} pattern {pattern}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn per_lane_bank_matches_per_lane_table_clones() {
        // The six-field bank of the random-walk test in its per-lane
        // form, against per-lane clones of its templates.
        let templates = field_tables();
        let mut next = xorshift(0x0123_4567_89ab_cdef);
        let mut events = Vec::new();
        let mut lanes = Vec::new();
        for _ in 0..4000 {
            let r = next();
            // Width-8 patterns against fields of widths 2–7.
            events.push(((r as u32 >> 8) & 0xFF) << 1 | (r as u32 & 1));
            lanes.push((r >> 40) as u32 % 7);
        }
        let mut reference = vec![0u64; templates.len()];
        let mut shadow: Vec<Vec<PatternHistoryTable>> = Vec::new();
        for (&event, &lane) in events.iter().zip(&lanes) {
            let lane = lane as usize;
            if lane >= shadow.len() {
                shadow.resize_with(lane + 1, || templates.clone());
            }
            step_tables(&mut shadow[lane], event, &mut reference);
        }
        for mode in EVERY_MODE {
            let mut bank = TransposedPhtBank::per_lane(&members(&templates));
            assert_eq!(bank.members(), templates.len());
            assert_eq!(bank.fields(), MAX_FIELDS);
            bank.replay(&events, &lanes, mode);
            assert_eq!(bank.counts(), &reference[..], "{mode:?} lane counts diverged");
        }
    }

    #[test]
    fn transposed_replay_accumulates_across_blocks() {
        // Splitting the event stream into arbitrary replay() calls must
        // not change the result (the engine feeds blocks).
        let tables: Vec<PatternHistoryTable> = Automaton::FIGURE5
            .iter()
            .map(|&automaton| PatternHistoryTable::new(6, automaton))
            .collect();
        let events = random_events(6, 2048, 0xdead_beef_cafe_f00d);
        let mut whole = TransposedPhtBank::new(&members(&tables));
        whole.replay(&events, &[], SimdMode::Auto);
        let mut split = TransposedPhtBank::new(&members(&tables));
        for block in events.chunks(97) {
            split.replay(block, &[], SimdMode::Auto);
        }
        assert_eq!(whole.counts(), split.counts());
    }

    #[test]
    #[should_panic(
        expected = "a transposed bank holds at most 6 fields of equal-width members, got 7"
    )]
    fn transposed_bank_rejects_a_field_past_the_cap() {
        // Seven runs of alternating widths are seven fields.
        let narrow = PatternHistoryTable::new(4, Automaton::A2);
        let wide = PatternHistoryTable::new(6, Automaton::A2);
        let tables: Vec<&PatternHistoryTable> =
            (0..=MAX_FIELDS).map(|field| if field % 2 == 0 { &narrow } else { &wide }).collect();
        let _ = TransposedPhtBank::new(&tables);
    }

    #[test]
    #[should_panic(
        expected = "a transposed bank holds at most 16 members (one u64 per row), got 17"
    )]
    fn transposed_bank_rejects_more_than_one_word_of_members() {
        let table = PatternHistoryTable::new(4, Automaton::A2);
        let _ = TransposedPhtBank::per_lane(&[&table; LANES_PER_WORD + 1]);
    }

    #[test]
    #[should_panic(expected = "one lane selector per event")]
    fn per_lane_bank_requires_lane_selectors() {
        let table = PatternHistoryTable::new(4, Automaton::A2);
        let mut bank = TransposedPhtBank::per_lane(&[&table]);
        bank.replay(&[0b10], &[], SimdMode::Auto);
    }
}
