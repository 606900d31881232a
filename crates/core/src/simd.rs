//! Kernel selection for the transposed replay path.
//!
//! The transposed pattern-history bank ([`crate::pht::TransposedPhtBank`])
//! has two bodies: the bit-sliced word body, which advances all (up to
//! 16) members of a bank with one round of `u64` logic per event, and a
//! scalar per-member reference loop in the identical transposed layout.
//! Both are bit-identical by construction (and pinned so by
//! `tests/differential.rs`); [`SimdMode`] picks which one runs.
//!
//! The mode comes from the `TLABP_SIMD` environment variable:
//!
//! * `auto` (default) — the word body.
//! * `scalar` — the per-member scalar reference loop.
//!
//! An unrecognized value warns on stderr and falls back to `auto`,
//! matching the `TLABP_THREADS` validation: a typo'd knob should not
//! abort a sweep, but it must not silently pretend to be the kernel it
//! named either — hence the warning.
//!
//! A mode handed through an API (e.g. `ExecOptions::simd`) overrides the
//! environment, which is how the in-process differential suites pin
//! each body without racing on environment mutation.

use std::sync::OnceLock;

/// Which body of the transposed replay kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdMode {
    /// The bit-sliced word body: one `u64` step per event advances every
    /// member of a bank.
    #[default]
    Auto,
    /// The scalar per-member reference loop (transposed layout, no
    /// bit-slicing) — the differential baseline.
    Scalar,
}

impl SimdMode {
    /// Parses a `TLABP_SIMD` value.
    ///
    /// Returns `Err(raw value)` on an unrecognized string so the caller
    /// decides how loudly to fall back; [`SimdMode::parse`] is the
    /// warn-and-default wrapper every runtime path uses.
    pub fn try_parse(value: &str) -> Result<SimdMode, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(SimdMode::Auto),
            "scalar" => Ok(SimdMode::Scalar),
            _ => Err(value.to_owned()),
        }
    }

    /// Parses a `TLABP_SIMD` value, warning on stderr and falling back
    /// to [`SimdMode::Auto`] when the value is unrecognized — the same
    /// contract as the `TLABP_THREADS` override: a typo'd knob must not
    /// abort the run, and must not silently masquerade as a forced
    /// kernel either.
    #[must_use]
    pub fn parse(value: &str) -> SimdMode {
        match SimdMode::try_parse(value) {
            Ok(mode) => mode,
            Err(raw) => {
                eprintln!(
                    "warning: ignoring TLABP_SIMD={raw:?} (expected auto|scalar); using auto"
                );
                SimdMode::Auto
            }
        }
    }

    /// The mode selected by the `TLABP_SIMD` environment variable
    /// (default [`SimdMode::Auto`]), read once per process. Unrecognized
    /// values warn and resolve to `Auto` (see [`SimdMode::parse`]).
    #[must_use]
    pub fn from_env() -> SimdMode {
        static MODE: OnceLock<SimdMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("TLABP_SIMD") {
            Ok(value) => SimdMode::parse(&value),
            Err(_) => SimdMode::Auto,
        })
    }

    /// The canonical lowercase name of this mode, as accepted by
    /// [`SimdMode::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Auto => "auto",
            SimdMode::Scalar => "scalar",
        }
    }

    /// The name of the kernel body this mode runs — what bench artifacts
    /// record as the *selected* body, as opposed to the mode that was
    /// requested: `swar` (the word body) or `scalar`.
    #[must_use]
    pub fn resolved_name(self) -> &'static str {
        match self {
            SimdMode::Auto => "swar",
            SimdMode::Scalar => "scalar",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_documented_value() {
        assert_eq!(SimdMode::parse("auto"), SimdMode::Auto);
        assert_eq!(SimdMode::parse(" AUTO "), SimdMode::Auto);
        assert_eq!(SimdMode::parse("scalar"), SimdMode::Scalar);
        assert_eq!(SimdMode::parse("Scalar"), SimdMode::Scalar);
    }

    #[test]
    fn parse_warns_and_falls_back_to_auto_on_unknown_values() {
        // The warn-and-default contract (matching TLABP_THREADS): a
        // garbage value — including a retired tier name — must not panic
        // and must resolve to Auto.
        for value in ["neon", "", "swar", "avx512"] {
            assert_eq!(SimdMode::parse(value), SimdMode::Auto, "{value:?}");
            assert_eq!(SimdMode::try_parse(value).unwrap_err(), value);
        }
    }

    #[test]
    fn names_round_trip_through_parse() {
        for mode in [SimdMode::Auto, SimdMode::Scalar] {
            assert_eq!(SimdMode::parse(mode.name()), mode);
        }
        assert_eq!(SimdMode::Auto.resolved_name(), "swar");
        assert_eq!(SimdMode::Scalar.resolved_name(), "scalar");
    }
}
