//! Kernel selection for the transposed replay path.
//!
//! The transposed pattern-history bank ([`crate::pht::TransposedPhtBank`])
//! has two bodies: the bit-sliced word body, which advances all (up to
//! 16) members of a bank with one round of `u64` logic per event, and a
//! scalar per-member reference loop in the identical transposed layout.
//! Both are bit-identical by construction (and pinned so by
//! `tests/differential.rs`); [`SimdMode`] picks which one runs.
//!
//! The mode comes from the `TLABP_SIMD` environment variable, read by
//! [`crate::env`]:
//!
//! * `auto` (default) — the word body.
//! * `scalar` — the per-member scalar reference loop.
//!
//! A mode handed through an API (e.g. `ExecOptions::simd`) overrides the
//! environment, which is how the in-process differential suites pin
//! each body without racing on environment mutation.

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
    /// The mode `name` names: [`SimdMode::name`] in any case, with
    /// surrounding whitespace ignored.
    #[must_use]
    pub fn from_name(name: &str) -> Option<SimdMode> {
        [SimdMode::Auto, SimdMode::Scalar]
            .into_iter()
            .find(|mode| name.trim().eq_ignore_ascii_case(mode.name()))
    }

    /// The mode the `TLABP_SIMD` environment variable selects, as
    /// [`Config::get`](crate::env::Config::get) read it: `Auto` when it
    /// is unset, empty or unrecognized.
    #[must_use]
    pub fn from_env() -> SimdMode {
        crate::env::Config::get().simd
    }

    /// The canonical lowercase name of this mode, as accepted by
    /// [`SimdMode::from_name`].
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
    fn names_round_trip() {
        for mode in [SimdMode::Auto, SimdMode::Scalar] {
            assert_eq!(SimdMode::from_name(mode.name()), Some(mode));
            assert_eq!(
                SimdMode::from_name(&format!(" {} ", mode.name().to_uppercase())),
                Some(mode)
            );
        }
        for garbage in ["neon", "", "swar", "avx512"] {
            assert_eq!(SimdMode::from_name(garbage), None, "{garbage:?}");
        }
        assert_eq!(SimdMode::Auto.resolved_name(), "swar");
        assert_eq!(SimdMode::Scalar.resolved_name(), "scalar");
    }
}
