//! The finite-state Moore machines of the paper's Figure 2.
//!
//! Each pattern history table entry holds the state of one of these
//! automata. The automaton supplies the paper's two functions: the
//! prediction decision function λ ([`Automaton::predict`], Equation 1) and
//! the state transition function δ ([`Automaton::update`], Equation 2).
//!
//! The prose of Section 2.1 fully specifies three of the machines:
//!
//! * **Last-Time** — one bit; predict whatever happened the last time this
//!   history pattern appeared.
//! * **A1** — records the outcomes of the last *two* occurrences of the
//!   pattern; predicts not taken only when neither was taken.
//! * **A2** — the classic two-bit saturating up/down counter (J. Smith);
//!   predict taken when the counter is ≥ 2.
//!
//! A3 and A4 are described only as "variations of A2" (their diagrams are
//! figures we do not have). We reconstruct them as the standard asymmetric
//! counter variants (see DESIGN.md §1, substitution 3):
//!
//! * **A3** — like A2, but a taken branch in the weakly-not-taken state 1
//!   jumps directly to strongly-taken state 3.
//! * **A4** — like A2, but both weak states jump to the adjacent strong
//!   state when confirmed: 1 →(taken) 3 and 2 →(not taken) 0.
//!
//! The reproduction target for this choice is behavioral: Figure 5 of the
//! paper shows A2 ≈ A3 ≈ A4, all better than A1, and Last-Time clearly
//! worst — which these definitions reproduce.
//!
//! Finally, [`Automaton::PresetBit`] models the Static Training schemes
//! (GSg/PSg): a single prediction bit preset from profiling that run-time
//! updates never change.

use std::fmt;
use std::str::FromStr;

/// The state of a pattern-history automaton.
///
/// States are small integers; the meaning depends on the automaton. For the
/// counter-like automata (A2/A3/A4), 0 is strongly-not-taken and 3 is
/// strongly-taken. For A1 the two bits are the last two outcomes. For
/// Last-Time and PresetBit the single bit is the prediction itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct State(u8);

impl State {
    /// Creates a state from its integer encoding.
    ///
    /// Validity depends on the automaton; use
    /// [`Automaton::is_valid_state`] to check.
    #[must_use]
    pub fn new(value: u8) -> Self {
        State(value)
    }

    /// The integer encoding of the state.
    #[must_use]
    pub fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A pattern-history automaton from the paper's Figure 2 (plus the Static
/// Training preset bit).
///
/// # Example
///
/// ```
/// use tlabp_core::automaton::Automaton;
///
/// let a2 = Automaton::A2;
/// let mut s = a2.initial_state(); // strongly taken (3)
/// assert!(a2.predict(s));
/// s = a2.update(s, false); // one not-taken: now weakly taken (2)
/// assert!(a2.predict(s));
/// s = a2.update(s, false); // second not-taken: now weakly not-taken (1)
/// assert!(!a2.predict(s));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Automaton {
    /// One bit recording the last outcome for this pattern.
    LastTime,
    /// Shift register of the last two outcomes; predicts taken unless both
    /// recorded outcomes were not-taken.
    A1,
    /// Two-bit saturating up/down counter; predicts taken when ≥ 2.
    A2,
    /// A2 variant: weakly-not-taken jumps to strongly-taken on a taken
    /// outcome (reconstructed; see module docs).
    A3,
    /// A2 variant: both weak states jump to the adjacent strong state when
    /// confirmed (reconstructed; see module docs).
    A4,
    /// Static Training preset prediction bit: run-time updates are ignored.
    PresetBit,
}

impl Automaton {
    /// All automata usable as pattern-history entry content.
    pub const ALL: [Automaton; 6] = [
        Automaton::LastTime,
        Automaton::A1,
        Automaton::A2,
        Automaton::A3,
        Automaton::A4,
        Automaton::PresetBit,
    ];

    /// The adaptive automata evaluated in the paper's Figure 5.
    pub const FIGURE5: [Automaton; 5] =
        [Automaton::LastTime, Automaton::A1, Automaton::A2, Automaton::A3, Automaton::A4];

    /// Number of pattern history bits `s` an entry of this automaton needs.
    #[must_use]
    pub fn history_bits(self) -> u32 {
        match self {
            Automaton::LastTime | Automaton::PresetBit => 1,
            Automaton::A1 | Automaton::A2 | Automaton::A3 | Automaton::A4 => 2,
        }
    }

    /// Number of states (`2^s`).
    #[must_use]
    pub fn state_count(self) -> u8 {
        1 << self.history_bits()
    }

    /// Whether `state` is a valid encoding for this automaton.
    #[must_use]
    pub fn is_valid_state(self, state: State) -> bool {
        state.value() < self.state_count()
    }

    /// The initial state prescribed by the paper's Section 4.2: "Since
    /// taken branches are more likely ... all entries are initialized to
    /// state 3. For Last-Time, all entries are initialized to state 1 such
    /// that the branches at the beginning of execution will be more likely
    /// to be predicted taken." The preset bit also initializes to taken.
    #[must_use]
    pub fn initial_state(self) -> State {
        match self {
            Automaton::LastTime | Automaton::PresetBit => State(1),
            Automaton::A1 | Automaton::A2 | Automaton::A3 | Automaton::A4 => State(3),
        }
    }

    /// The prediction decision function λ (Equation 1): the direction
    /// predicted when an entry is in `state`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `state` is not valid for this automaton.
    #[must_use]
    pub fn predict(self, state: State) -> bool {
        debug_assert!(self.is_valid_state(state), "invalid state {state} for {self}");
        match self {
            Automaton::LastTime | Automaton::PresetBit => state.value() == 1,
            // Taken unless no taken branch recorded in the last two.
            Automaton::A1 => state.value() != 0,
            Automaton::A2 | Automaton::A3 | Automaton::A4 => state.value() >= 2,
        }
    }

    /// The state transition function δ (Equation 2): the successor state
    /// after observing outcome `taken`.
    ///
    /// For [`Automaton::PresetBit`] this is the identity: Static Training
    /// never changes pattern history at run time.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `state` is not valid for this automaton.
    #[must_use]
    pub fn update(self, state: State, taken: bool) -> State {
        debug_assert!(self.is_valid_state(state), "invalid state {state} for {self}");
        let s = state.value();
        let next = match self {
            Automaton::PresetBit => s,
            Automaton::LastTime => u8::from(taken),
            Automaton::A1 => ((s << 1) | u8::from(taken)) & 0b11,
            Automaton::A2 => saturating_counter(s, taken),
            Automaton::A3 => match (s, taken) {
                (1, true) => 3,
                _ => saturating_counter(s, taken),
            },
            Automaton::A4 => match (s, taken) {
                (1, true) => 3,
                (2, false) => 0,
                _ => saturating_counter(s, taken),
            },
        };
        State(next)
    }

    /// δ and λ fused into one packed word: one 4-bit entry for each of
    /// the eight `(state, taken)` inputs, entry `(state << 1) | taken`
    /// in bits `4 × index ..`. An entry's low two bits are the successor
    /// state and bit 2 is the prediction λ made from the *pre-update*
    /// state — exactly the contract of
    /// [`crate::pht::PatternHistoryTable::predict_update`]. Read it with
    /// [`Automaton::packed_step`].
    ///
    /// This word is the one encoding of (δ, λ) every fast path steps: the
    /// pattern table's fused step, the BTB's interned step, and the
    /// transposed replay kernel ([`crate::pht::TransposedPhtBank`]),
    /// which reads its bit-sliced coefficients and its scalar body off
    /// it. [`Automaton::update`] and [`Automaton::predict`] stay the
    /// definition the word is built from.
    ///
    /// Every 2-bit state field indexes it: the state is masked to the
    /// automaton's state space before δ/λ are consulted, so a 2-state
    /// automaton's unused high bit (say, in a field read from a packed
    /// word) changes nothing.
    #[must_use]
    pub fn packed_lut(self) -> u32 {
        let mask = self.state_count() - 1;
        (0..8u32).fold(0, |lut, index| {
            let taken = index & 1 != 0;
            let state = State::new((index >> 1) as u8 & mask);
            let next = u32::from(self.update(state, taken).value());
            let predicted = u32::from(self.predict(state));
            lut | (next | predicted << 2) << (index * 4)
        })
    }

    /// One step through a [`Automaton::packed_lut`] word: the successor
    /// of `state` after outcome `taken`, and the prediction `state`
    /// made. Only the low two bits of `state` are read.
    #[inline]
    #[must_use]
    pub fn packed_step(lut: u32, state: State, taken: bool) -> (State, bool) {
        let index = u32::from(state.value() & 0b11) << 1 | u32::from(taken);
        let entry = lut >> (index * 4);
        (State((entry & 0b11) as u8), entry & 0b100 != 0)
    }

    /// The short name used by the paper's Table 3 configuration strings.
    #[must_use]
    pub fn table3_name(self) -> &'static str {
        match self {
            Automaton::LastTime => "LT",
            Automaton::A1 => "A1",
            Automaton::A2 => "A2",
            Automaton::A3 => "A3",
            Automaton::A4 => "A4",
            Automaton::PresetBit => "PB",
        }
    }
}

fn saturating_counter(s: u8, taken: bool) -> u8 {
    if taken {
        (s + 1).min(3)
    } else {
        s.saturating_sub(1)
    }
}

impl fmt::Display for Automaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.table3_name())
    }
}

/// Error returned when parsing an automaton name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAutomatonError {
    input: String,
}

impl fmt::Display for ParseAutomatonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown automaton {:?}, expected one of LT, A1, A2, A3, A4, PB", self.input)
    }
}

impl std::error::Error for ParseAutomatonError {}

impl FromStr for Automaton {
    type Err = ParseAutomatonError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "LT" | "Last-Time" | "LastTime" => Ok(Automaton::LastTime),
            "A1" => Ok(Automaton::A1),
            "A2" => Ok(Automaton::A2),
            "A3" => Ok(Automaton::A3),
            "A4" => Ok(Automaton::A4),
            "PB" | "PresetBit" => Ok(Automaton::PresetBit),
            other => Err(ParseAutomatonError { input: other.to_owned() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_time_tracks_last_outcome() {
        let a = Automaton::LastTime;
        let mut s = a.initial_state();
        assert!(a.predict(s), "initialized to predict taken");
        s = a.update(s, false);
        assert!(!a.predict(s));
        s = a.update(s, true);
        assert!(a.predict(s));
    }

    #[test]
    fn a1_full_transition_table() {
        let a = Automaton::A1;
        // state bits are (previous << 1) | last
        let expect = [
            // (state, taken) -> next
            ((0, false), 0),
            ((0, true), 1),
            ((1, false), 2),
            ((1, true), 3),
            ((2, false), 0),
            ((2, true), 1),
            ((3, false), 2),
            ((3, true), 3),
        ];
        for ((s, taken), next) in expect {
            assert_eq!(a.update(State(s), taken), State(next), "state {s} taken {taken}");
        }
    }

    #[test]
    fn a1_predicts_not_taken_only_from_zero() {
        let a = Automaton::A1;
        assert!(!a.predict(State(0)));
        for s in 1..4 {
            assert!(a.predict(State(s)));
        }
    }

    #[test]
    fn a2_full_transition_table() {
        let a = Automaton::A2;
        let expect = [
            ((0, false), 0),
            ((0, true), 1),
            ((1, false), 0),
            ((1, true), 2),
            ((2, false), 1),
            ((2, true), 3),
            ((3, false), 2),
            ((3, true), 3),
        ];
        for ((s, taken), next) in expect {
            assert_eq!(a.update(State(s), taken), State(next), "state {s} taken {taken}");
        }
    }

    #[test]
    fn a3_differs_from_a2_only_in_weak_not_taken_on_taken() {
        for s in 0..4u8 {
            for taken in [false, true] {
                let a2 = Automaton::A2.update(State(s), taken);
                let a3 = Automaton::A3.update(State(s), taken);
                if s == 1 && taken {
                    assert_eq!(a3, State(3));
                } else {
                    assert_eq!(a3, a2, "state {s} taken {taken}");
                }
            }
        }
    }

    #[test]
    fn a4_differs_from_a2_in_both_weak_states() {
        for s in 0..4u8 {
            for taken in [false, true] {
                let a2 = Automaton::A2.update(State(s), taken);
                let a4 = Automaton::A4.update(State(s), taken);
                match (s, taken) {
                    (1, true) => assert_eq!(a4, State(3)),
                    (2, false) => assert_eq!(a4, State(0)),
                    _ => assert_eq!(a4, a2, "state {s} taken {taken}"),
                }
            }
        }
    }

    #[test]
    fn counter_predictions_threshold_at_two() {
        for a in [Automaton::A2, Automaton::A3, Automaton::A4] {
            assert!(!a.predict(State(0)));
            assert!(!a.predict(State(1)));
            assert!(a.predict(State(2)));
            assert!(a.predict(State(3)));
        }
    }

    #[test]
    fn preset_bit_never_changes() {
        let a = Automaton::PresetBit;
        for s in 0..2u8 {
            for taken in [false, true] {
                assert_eq!(a.update(State(s), taken), State(s));
            }
        }
        assert!(a.predict(State(1)));
        assert!(!a.predict(State(0)));
    }

    #[test]
    fn updates_stay_in_valid_state_space() {
        for a in Automaton::ALL {
            for s in 0..a.state_count() {
                for taken in [false, true] {
                    let next = a.update(State(s), taken);
                    assert!(a.is_valid_state(next), "{a} from {s} taken {taken}");
                }
            }
        }
    }

    #[test]
    fn initial_states_predict_taken() {
        // Section 4.2: initialization biases every automaton toward taken.
        for a in Automaton::ALL {
            assert!(a.predict(a.initial_state()), "{a} initial state must predict taken");
        }
    }

    #[test]
    fn history_bits_match_state_count() {
        for a in Automaton::ALL {
            assert_eq!(1u8 << a.history_bits(), a.state_count());
        }
    }

    #[test]
    fn name_round_trips_through_parse() {
        for a in Automaton::ALL {
            let parsed: Automaton = a.table3_name().parse().unwrap();
            assert_eq!(parsed, a);
        }
        assert!("A9".parse::<Automaton>().is_err());
        let err = "A9".parse::<Automaton>().unwrap_err();
        assert!(err.to_string().contains("A9"));
    }

    #[test]
    fn saturation_under_long_runs() {
        for a in [Automaton::A2, Automaton::A3, Automaton::A4] {
            let mut s = a.initial_state();
            for _ in 0..10 {
                s = a.update(s, true);
            }
            assert_eq!(s, State(3), "{a} must saturate at 3");
            for _ in 0..10 {
                s = a.update(s, false);
            }
            assert_eq!(s, State(0), "{a} must saturate at 0");
        }
    }
}
