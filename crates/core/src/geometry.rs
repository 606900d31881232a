//! Validity rules for table geometry, in one place.
//!
//! The configuration parser ([`SchemeConfig`](crate::config::SchemeConfig)'s
//! `FromStr`, and through it every plan decoded from the wire) rejects a
//! geometry that breaks these rules with a typed [`GeometryError`]. The
//! table constructors ([`HistoryRegister`](crate::history::HistoryRegister),
//! [`PatternHistoryTable`](crate::pht::PatternHistoryTable),
//! [`CacheBht`](crate::bht::CacheBht), [`Btb`](crate::schemes::Btb),
//! [`Pap`](crate::schemes::Pap) and
//! [`TargetCache`](crate::target_cache::TargetCache)) assert the same
//! rules, so a configuration that parses always builds.

use std::error::Error;
use std::fmt;

use crate::bht::BhtConfig;
use crate::history::MAX_HISTORY_BITS;

/// Largest entry count of a set-associative table: a practical BHT, a
/// BTB or a target cache. Every configuration the paper studies uses
/// 256 or 512 entries; the cap leaves 128× headroom while keeping one
/// table's allocation in the low megabytes.
pub const MAX_TABLE_ENTRIES: usize = 1 << 16;

/// Largest number of pattern-table entries a configuration holds at
/// most: `2^k` for a single table, and for PAp's per-slot tables, once
/// every slot has been touched (PAp fills its tables on first use),
/// `entries × 2^k` behind a practical BHT or one `2^k` table per static
/// conditional branch behind the ideal one, whose branch count is
/// bounded in turn (2^13 branches). An entry costs one byte of
/// automaton state on the walk, and one 8-byte row of a transposed
/// replay bank (one row per pattern per lane, shared by up to 16
/// members), so the cap bounds every replay bank at 1 GiB and a walked
/// predictor at 128 MiB. The paper's largest PAp, 512 × 2^12, is 2^21:
/// 64× below.
pub const MAX_PATTERN_ENTRIES: usize = 1 << 27;

/// Largest number of static conditional branches an ideal BHT is
/// checked for: PAp keeps one pattern table per branch behind it, so
/// this count is its table count under [`MAX_PATTERN_ENTRIES`], which
/// holds an ideal-BHT PAp to `k <= 14`. gcc's 4,404 branches (Table 1)
/// are the most of any built-in workload.
pub(crate) const MAX_IDEAL_BHT_BRANCHES: usize = 1 << 13;

/// Why a table geometry is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeometryError {
    /// A history register length outside `1..=MAX_HISTORY_BITS`.
    HistoryBits(u32),
    /// A table with zero ways.
    ZeroWays,
    /// An entry count that is not a positive multiple of the ways.
    EntriesNotMultipleOfWays {
        /// Total entries.
        entries: usize,
        /// Set associativity.
        ways: usize,
    },
    /// A set count (`entries / ways`) that is not a power of two.
    SetsNotPowerOfTwo {
        /// The set count.
        sets: usize,
    },
    /// More than [`MAX_TABLE_ENTRIES`] entries.
    TooManyEntries {
        /// Total entries.
        entries: usize,
    },
    /// More than [`MAX_PATTERN_ENTRIES`] pattern-table entries in all.
    TooManyPatternEntries {
        /// Number of pattern tables.
        tables: usize,
        /// History length `k` of each `2^k`-entry table.
        history_bits: u32,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GeometryError::HistoryBits(bits) => {
                write!(f, "history length {bits} out of range 1..={MAX_HISTORY_BITS}")
            }
            GeometryError::ZeroWays => f.write_str("associativity must be positive"),
            GeometryError::EntriesNotMultipleOfWays { entries, ways } => {
                write!(f, "entries {entries} must be a positive multiple of ways {ways}")
            }
            GeometryError::SetsNotPowerOfTwo { sets } => {
                write!(f, "set count {sets} must be a power of two")
            }
            GeometryError::TooManyEntries { entries } => {
                write!(f, "{entries} entries exceed the cap of {MAX_TABLE_ENTRIES}")
            }
            GeometryError::TooManyPatternEntries { tables, history_bits } => write!(
                f,
                "{tables} pattern tables of 2^{history_bits} entries exceed the cap of \
                 {MAX_PATTERN_ENTRIES} entries"
            ),
        }
    }
}

impl Error for GeometryError {}

/// Checks a history register length.
///
/// # Errors
///
/// [`GeometryError::HistoryBits`] unless `bits` is in
/// `1..=MAX_HISTORY_BITS`.
pub(crate) fn check_history_bits(bits: u32) -> Result<(), GeometryError> {
    if (1..=MAX_HISTORY_BITS).contains(&bits) {
        Ok(())
    } else {
        Err(GeometryError::HistoryBits(bits))
    }
}

/// Checks a set-associative table of `entries` slots in `ways` ways and
/// returns its set count.
///
/// # Errors
///
/// Fails when `ways` is zero, `entries` is not a positive multiple of
/// `ways`, the set count is not a power of two, or `entries` exceeds
/// [`MAX_TABLE_ENTRIES`].
pub fn check_table(entries: usize, ways: usize) -> Result<usize, GeometryError> {
    if ways == 0 {
        return Err(GeometryError::ZeroWays);
    }
    if entries == 0 || !entries.is_multiple_of(ways) {
        return Err(GeometryError::EntriesNotMultipleOfWays { entries, ways });
    }
    if entries > MAX_TABLE_ENTRIES {
        return Err(GeometryError::TooManyEntries { entries });
    }
    let sets = entries / ways;
    if !sets.is_power_of_two() {
        return Err(GeometryError::SetsNotPowerOfTwo { sets });
    }
    Ok(sets)
}

/// Checks `tables` pattern tables of `2^history_bits` entries each.
///
/// # Errors
///
/// Fails when `history_bits` is out of range (see
/// [`check_history_bits`]) or the tables hold more than
/// [`MAX_PATTERN_ENTRIES`] entries in all.
pub(crate) fn check_pattern_tables(tables: usize, history_bits: u32) -> Result<(), GeometryError> {
    check_history_bits(history_bits)?;
    if tables.saturating_mul(1usize << history_bits) > MAX_PATTERN_ENTRIES {
        return Err(GeometryError::TooManyPatternEntries { tables, history_bits });
    }
    Ok(())
}

/// Checks PAp's per-slot pattern tables behind `bht`: one per entry of
/// a practical BHT, one per static branch of the ideal one (at most
/// [`MAX_IDEAL_BHT_BRANCHES`]).
///
/// # Errors
///
/// As [`check_pattern_tables`].
pub(crate) fn check_pap_tables(bht: BhtConfig, history_bits: u32) -> Result<(), GeometryError> {
    let tables = match bht {
        BhtConfig::Ideal => MAX_IDEAL_BHT_BRANCHES,
        BhtConfig::Cache { entries, .. } => entries,
    };
    check_pattern_tables(tables, history_bits)
}

/// Panics with the rule's message when `check` failed: the constructors'
/// side of the shared rules.
pub(crate) fn assert_valid<T>(check: Result<T, GeometryError>) -> T {
    check.unwrap_or_else(|err| panic!("{err}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_bits_cover_exactly_the_supported_range() {
        assert_eq!(check_history_bits(0), Err(GeometryError::HistoryBits(0)));
        assert_eq!(check_history_bits(1), Ok(()));
        assert_eq!(check_history_bits(MAX_HISTORY_BITS), Ok(()));
        assert_eq!(check_history_bits(40), Err(GeometryError::HistoryBits(40)));
    }

    #[test]
    fn tables_need_ways_a_multiple_a_power_of_two_and_the_cap() {
        assert_eq!(check_table(512, 4), Ok(128));
        assert_eq!(check_table(256, 1), Ok(256));
        assert_eq!(check_table(MAX_TABLE_ENTRIES, 1), Ok(MAX_TABLE_ENTRIES));
        assert_eq!(check_table(0, 0), Err(GeometryError::ZeroWays));
        assert_eq!(
            check_table(0, 4),
            Err(GeometryError::EntriesNotMultipleOfWays { entries: 0, ways: 4 })
        );
        assert_eq!(
            check_table(3, 2),
            Err(GeometryError::EntriesNotMultipleOfWays { entries: 3, ways: 2 })
        );
        assert_eq!(check_table(384, 4), Err(GeometryError::SetsNotPowerOfTwo { sets: 96 }));
        assert_eq!(
            check_table(1 << 40, 1),
            Err(GeometryError::TooManyEntries { entries: 1 << 40 })
        );
    }

    #[test]
    fn pattern_tables_are_capped_in_total() {
        assert_eq!(check_pattern_tables(1, MAX_HISTORY_BITS), Ok(()));
        assert_eq!(check_pattern_tables(512, 12), Ok(()));
        // 8-byte replay rows: 512 × 2^18 rows is exactly 1 GiB.
        assert_eq!(check_pattern_tables(512, 18), Ok(()));
        assert_eq!(
            check_pattern_tables(512, 19),
            Err(GeometryError::TooManyPatternEntries { tables: 512, history_bits: 19 })
        );
        assert_eq!(
            check_pattern_tables(512, 24),
            Err(GeometryError::TooManyPatternEntries { tables: 512, history_bits: 24 })
        );
        assert_eq!(check_pattern_tables(1, 0), Err(GeometryError::HistoryBits(0)));
        // PAp over the ideal BHT: one table per (bounded) static branch.
        assert_eq!(check_pap_tables(BhtConfig::PAPER_DEFAULT, 18), Ok(()));
        assert_eq!(check_pap_tables(BhtConfig::Ideal, 14), Ok(()));
        assert_eq!(
            check_pap_tables(BhtConfig::Ideal, 15),
            Err(GeometryError::TooManyPatternEntries {
                tables: MAX_IDEAL_BHT_BRANCHES,
                history_bits: 15
            })
        );
    }
}
