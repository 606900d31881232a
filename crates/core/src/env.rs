//! The process environment: every `TLABP_*` knob, read once, by one
//! parser.
//!
//! No knob changes a simulated number. They choose where caches live,
//! which replay-kernel body runs and how the daemon serves; the
//! `*_ENV` constants name all six. One rule covers every knob: unset or
//! empty means the default, and a value that does not parse warns once
//! on stderr and falls back to the default, so a typo neither aborts a
//! run nor poses silently as the setting it names. The two directory
//! knobs keep their documented meaning for empty: their tier is off
//! ([`DirKnob::Off`]). A value that is not Unicode counts as unset.
//!
//! [`Config::get`] reads the environment on first use and keeps the
//! result for the life of the process, so each warning prints once,
//! whichever command reads first. The parser behind it is a pure
//! function of the variables. A value handed through an API, such as
//! `ExecOptions::simd` or a [`ServeConfig`] literal, overrides the
//! environment.

use std::path::PathBuf;
use std::sync::OnceLock;

use crate::simd::SimdMode;

/// The trace store's disk cache directory.
pub const TRACE_DIR_ENV: &str = "TLABP_TRACE_DIR";
/// The transposed replay kernel's body: `auto` or `scalar`.
pub const SIMD_ENV: &str = "TLABP_SIMD";
/// The daemon's listen address, which `experiments client` dials too.
pub const SERVE_ADDR_ENV: &str = "TLABP_SERVE_ADDR";
/// The in-memory memo tier's budget in bytes of pre-encoded response
/// frames (plus keys); 0 disables both memo tiers.
pub const SERVE_MEMO_BYTES_ENV: &str = "TLABP_SERVE_MEMO_BYTES";
/// The persistent memo tier's directory.
pub const SERVE_MEMO_DIR_ENV: &str = "TLABP_SERVE_MEMO_DIR";
/// The persistent memo tier's budget in bytes of `.tlabm` artifacts on
/// disk; 0 turns persistence off.
pub const SERVE_MEMO_DISK_BYTES_ENV: &str = "TLABP_SERVE_MEMO_DISK_BYTES";

/// Default listen address.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7391";
/// Default in-memory memo budget: 64 MiB of pre-encoded frames.
pub const DEFAULT_MEMO_BYTES: usize = 64 << 20;

/// A directory knob's setting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DirKnob {
    /// Unset: the tier's default location.
    #[default]
    Unset,
    /// Set but empty: the tier is off.
    Off,
    /// An explicit directory.
    Dir(PathBuf),
}

/// Where the trace store's disk tier lives ([`TRACE_DIR_ENV`]). Unset,
/// the drivers persist under their default directory and test suites
/// stay memory-only.
pub type TraceDir = DirKnob;
/// Where the persistent memo tier lives ([`SERVE_MEMO_DIR_ENV`]). Unset,
/// it is `memo/` next to the trace artifacts when the store has a disk
/// tier, and off for a purely in-memory store.
pub type MemoDirMode = DirKnob;

/// Daemon configuration, normally read from the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen address (`host:port`). Use port 0 for an ephemeral port.
    pub addr: String,
    /// In-memory memo budget in bytes of pre-encoded response frames;
    /// 0 disables memoization (both tiers).
    pub memo_bytes: usize,
    /// Persistent memo tier location.
    pub memo_dir: MemoDirMode,
    /// Persistent memo tier byte budget: over-budget artifacts age out
    /// oldest first. `None` is unbounded, `Some(0)` turns persistence
    /// off.
    pub memo_disk_bytes: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_SERVE_ADDR.to_owned(),
            memo_bytes: DEFAULT_MEMO_BYTES,
            memo_dir: MemoDirMode::Unset,
            memo_disk_bytes: None,
        }
    }
}

impl ServeConfig {
    /// The daemon knobs as [`Config::get`] read them.
    #[must_use]
    pub fn from_env() -> Self {
        Config::get().serve.clone()
    }
}

/// Every `TLABP_*` knob, resolved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Config {
    /// [`TRACE_DIR_ENV`].
    pub trace_dir: TraceDir,
    /// [`SIMD_ENV`].
    pub simd: SimdMode,
    /// The `TLABP_SERVE_*` knobs.
    pub serve: ServeConfig,
}

impl Config {
    /// The process's configuration, read from the environment on first
    /// use. Each value that does not parse earns one warning on stderr.
    #[must_use]
    pub fn get() -> &'static Config {
        static CONFIG: OnceLock<Config> = OnceLock::new();
        CONFIG.get_or_init(|| {
            let (config, warnings) = Config::from_vars(|name| std::env::var(name).ok());
            for warning in warnings {
                eprintln!("warning: {warning}");
            }
            config
        })
    }

    /// Parses every knob from `var`, which returns a variable's value or
    /// `None` when it is unset. Returns the configuration and one warning
    /// for each value that did not parse; that knob takes its default.
    pub(crate) fn from_vars(var: impl Fn(&str) -> Option<String>) -> (Config, Vec<String>) {
        let mut warnings = Vec::new();
        let bytes = |raw: &str| raw.trim().parse::<usize>().ok();
        let simd = parsed(&var, SIMD_ENV, "auto|scalar", SimdMode::from_name, &mut warnings);
        let memo_bytes = parsed(&var, SERVE_MEMO_BYTES_ENV, "a byte count", bytes, &mut warnings);
        let memo_disk_bytes =
            parsed(&var, SERVE_MEMO_DISK_BYTES_ENV, "a byte count", bytes, &mut warnings);
        // Any non-empty value is an address or a directory: a bad one
        // fails where it is used, with the OS's error.
        let addr = var(SERVE_ADDR_ENV).filter(|addr| !addr.is_empty());
        let dir = |name| match var(name) {
            None => DirKnob::Unset,
            Some(raw) if raw.is_empty() => DirKnob::Off,
            Some(raw) => DirKnob::Dir(raw.into()),
        };
        let serve = ServeConfig {
            addr: addr.unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_owned()),
            memo_bytes: memo_bytes.unwrap_or(DEFAULT_MEMO_BYTES),
            memo_dir: dir(SERVE_MEMO_DIR_ENV),
            memo_disk_bytes,
        };
        (Config { trace_dir: dir(TRACE_DIR_ENV), simd: simd.unwrap_or_default(), serve }, warnings)
    }
}

/// One knob's value, or `None` for its default: when it is unset or
/// empty, and when `parse` rejects it, which adds a warning.
fn parsed<T>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
    warnings: &mut Vec<String>,
) -> Option<T> {
    let raw = var(name).filter(|raw| !raw.is_empty())?;
    let value = parse(&raw);
    if value.is_none() {
        warnings.push(format!("ignoring {name}={raw:?} (expected {expected}); using the default"));
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> (Config, Vec<String>) {
        Config::from_vars(|name| {
            vars.iter().find(|(var, _)| *var == name).map(|(_, value)| (*value).to_owned())
        })
    }

    fn with(change: impl FnOnce(&mut Config)) -> Config {
        let mut config = Config::default();
        change(&mut config);
        config
    }

    /// Every knob in each of its four states: unset, empty, valid and
    /// garbage. Only a number or a kernel name can be garbage; any other
    /// non-empty value is a directory or an address, taken as given.
    #[test]
    fn every_knob_reads_unset_empty_valid_and_garbage_values() {
        let defaults = Config::default();
        assert_eq!(parse(&[]), (defaults.clone(), Vec::new()), "unset: every default");
        // (knob, what empty gives, a valid value and what it gives, garbage)
        let rows = [
            (
                TRACE_DIR_ENV,
                with(|c| c.trace_dir = DirKnob::Off),
                (" traces ", with(|c| c.trace_dir = DirKnob::Dir(" traces ".into()))),
                None,
            ),
            (
                SIMD_ENV,
                defaults.clone(),
                (" Scalar ", with(|c| c.simd = SimdMode::Scalar)),
                Some("avx512"),
            ),
            (
                SERVE_ADDR_ENV,
                defaults.clone(),
                ("[::1]:0", with(|c| c.serve.addr = "[::1]:0".to_owned())),
                None,
            ),
            (
                SERVE_MEMO_BYTES_ENV,
                defaults.clone(),
                (" 1048576 ", with(|c| c.serve.memo_bytes = 1 << 20)),
                Some("64MiB"),
            ),
            (
                SERVE_MEMO_DIR_ENV,
                with(|c| c.serve.memo_dir = DirKnob::Off),
                ("memo", with(|c| c.serve.memo_dir = DirKnob::Dir("memo".into()))),
                None,
            ),
            (
                SERVE_MEMO_DISK_BYTES_ENV,
                defaults.clone(),
                ("0", with(|c| c.serve.memo_disk_bytes = Some(0))),
                Some("-1"),
            ),
        ];
        for (knob, empty, (valid, parsed), garbage) in rows {
            assert_eq!(parse(&[(knob, "")]), (empty, Vec::new()), "{knob} empty");
            assert_eq!(parse(&[(knob, valid)]), (parsed, Vec::new()), "{knob}={valid:?}");
            if let Some(garbage) = garbage {
                let (config, warnings) = parse(&[(knob, garbage)]);
                assert_eq!(config, defaults, "{knob}={garbage:?} falls back");
                assert_eq!(warnings.len(), 1, "{knob}={garbage:?}: {warnings:?}");
                assert!(warnings[0].contains(knob), "{warnings:?} names {knob}");
            }
        }
    }
}
