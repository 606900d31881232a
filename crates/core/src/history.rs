//! The k-bit branch history (shift) register of the paper's Section 2.1.

use std::fmt;

/// Maximum supported history register length.
///
/// The paper evaluates up to 18 bits (Figure 7); we allow some headroom
/// while keeping pattern indices comfortably inside a `usize`.
pub const MAX_HISTORY_BITS: u32 = 24;

/// A k-bit branch history shift register (HR).
///
/// The register "shifts in bits representing the branch results of the most
/// recent k branches": 1 for taken, 0 for not taken, newest outcome in the
/// least significant bit. Its content, interpreted as an integer, is the
/// *pattern* used to index a pattern history table with `2^k` entries.
///
/// Per Section 4.2 of the paper, a history register allocated on a branch
/// history table miss "is initialized to all 1's"; once the missing branch
/// resolves, "the result bit is extended throughout the history register"
/// ([`HistoryRegister::fill`]).
///
/// # Example
///
/// ```
/// use tlabp_core::history::HistoryRegister;
///
/// let mut hr = HistoryRegister::all_ones(4);
/// assert_eq!(hr.pattern(), 0b1111);
/// hr.shift_in(false);
/// hr.shift_in(true);
/// assert_eq!(hr.pattern(), 0b1101);
/// hr.fill(false);
/// assert_eq!(hr.pattern(), 0b0000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryRegister {
    bits: u32,
    len: u32,
}

impl HistoryRegister {
    /// Creates a register of `len` bits, initialized to all zeros.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds [`MAX_HISTORY_BITS`].
    #[must_use]
    pub fn new(len: u32) -> Self {
        crate::geometry::assert_valid(crate::geometry::check_history_bits(len));
        HistoryRegister { bits: 0, len }
    }

    /// Creates a register of `len` bits initialized to all ones — the
    /// paper's initialization for newly allocated BHT entries.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds [`MAX_HISTORY_BITS`].
    #[must_use]
    pub fn all_ones(len: u32) -> Self {
        let mut hr = HistoryRegister::new(len);
        hr.fill(true);
        hr
    }

    fn mask(&self) -> u32 {
        (1u32 << self.len) - 1
    }

    /// The register length `k`.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Always `false`: a history register has at least one bit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current content interpreted as a pattern-table index.
    #[must_use]
    pub fn pattern(&self) -> usize {
        self.bits as usize
    }

    /// Shifts the outcome of the newest branch into the least significant
    /// bit, dropping the oldest outcome.
    pub fn shift_in(&mut self, taken: bool) {
        self.bits = ((self.bits << 1) | u32::from(taken)) & self.mask();
    }

    /// Sets every bit to `taken` — used both for all-ones initialization
    /// and for the paper's "result bit is extended throughout the history
    /// register" rule after the first resolution of a missing branch.
    pub fn fill(&mut self, taken: bool) {
        self.bits = if taken { self.mask() } else { 0 };
    }

    /// The outcome recorded `age` branches ago (0 = newest).
    ///
    /// # Panics
    ///
    /// Panics if `age >= len`.
    #[must_use]
    pub fn outcome(&self, age: u32) -> bool {
        assert!(age < self.len, "age {age} out of range for {}-bit register", self.len);
        (self.bits >> age) & 1 == 1
    }
}

impl fmt::Display for HistoryRegister {
    /// Renders the register as a bit string, oldest outcome first — the
    /// same orientation as the paper's example `11100101`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for age in (0..self.len).rev() {
            f.write_str(if self.outcome(age) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_in_drops_oldest() {
        let mut hr = HistoryRegister::new(3);
        hr.shift_in(true); // 001
        hr.shift_in(true); // 011
        hr.shift_in(false); // 110
        hr.shift_in(true); // 101
        assert_eq!(hr.pattern(), 0b101);
    }

    #[test]
    fn all_ones_matches_paper_initialization() {
        let hr = HistoryRegister::all_ones(6);
        assert_eq!(hr.pattern(), 0b111111);
    }

    #[test]
    fn fill_extends_result_bit() {
        let mut hr = HistoryRegister::all_ones(5);
        hr.fill(false);
        assert_eq!(hr.pattern(), 0);
        hr.fill(true);
        assert_eq!(hr.pattern(), 0b11111);
    }

    #[test]
    fn outcome_by_age() {
        let mut hr = HistoryRegister::new(4);
        for taken in [true, false, true, false] {
            hr.shift_in(taken); // oldest first: 1010
        }
        assert!(!hr.outcome(0)); // newest
        assert!(hr.outcome(1));
        assert!(!hr.outcome(2));
        assert!(hr.outcome(3)); // oldest
    }

    #[test]
    fn display_oldest_first() {
        let mut hr = HistoryRegister::new(8);
        // Shift in the paper's example pattern 11100101 oldest-to-newest.
        for bit in [true, true, true, false, false, true, false, true] {
            hr.shift_in(bit);
        }
        assert_eq!(hr.to_string(), "11100101");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_length() {
        let _ = HistoryRegister::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_excessive_length() {
        let _ = HistoryRegister::new(MAX_HISTORY_BITS + 1);
    }

    #[test]
    fn max_length_register_works() {
        let mut hr = HistoryRegister::all_ones(MAX_HISTORY_BITS);
        assert_eq!(hr.pattern(), (1usize << MAX_HISTORY_BITS) - 1);
        hr.shift_in(false);
        assert_eq!(hr.pattern(), (1usize << MAX_HISTORY_BITS) - 2);
    }
}
