//! The predictor naming convention of the paper's Table 3, plus a factory
//! that instantiates any named configuration.
//!
//! The paper identifies each simulated predictor as
//! `Scheme(History(Size, Associativity, Entry_Content),
//! Pattern_Table_Set_Size × Pattern(Size, Entry_Content), Context_Switch)`,
//! e.g. `PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)`. [`SchemeConfig`]
//! round-trips this notation through [`std::fmt::Display`] and
//! [`std::str::FromStr`] and builds the corresponding predictor.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use tlabp_trace::{InternedConds, Trace};

use crate::any::AnyPredictor;
use crate::automaton::Automaton;
use crate::bht::BhtConfig;
use crate::cost::{BhtGeometry, CostModel};
use crate::geometry::{check_history_bits, check_pap_tables, check_table, GeometryError};
use crate::predictor::BranchPredictor;
use crate::schemes::{
    train_global, train_per_address, AlwaysTaken, Btb, Btfn, Gag, Gsg, Pag, Pap, Profiling, Psg,
};

/// Which prediction scheme a configuration names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Global two-level adaptive (global HR, global PHT).
    Gag,
    /// Per-address two-level adaptive with a global PHT.
    Pag,
    /// Per-address two-level adaptive with per-address PHTs.
    Pap,
    /// Global Static Training (preset global PHT).
    Gsg,
    /// Per-address Static Training (preset global PHT) — Lee & A. Smith.
    Psg,
    /// Branch target buffer design — J. Smith.
    Btb,
    /// Static: predict taken always.
    AlwaysTaken,
    /// Static: backward taken, forward not taken.
    Btfn,
    /// Static: per-branch majority from a profiling run.
    Profiling,
}

impl SchemeKind {
    /// The scheme mnemonic used in configuration strings.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            SchemeKind::Gag => "GAg",
            SchemeKind::Pag => "PAg",
            SchemeKind::Pap => "PAp",
            SchemeKind::Gsg => "GSg",
            SchemeKind::Psg => "PSg",
            SchemeKind::Btb => "BTB",
            SchemeKind::AlwaysTaken => "AlwaysTaken",
            SchemeKind::Btfn => "BTFN",
            SchemeKind::Profiling => "Profiling",
        }
    }

    /// Whether this scheme requires a training (profiling) trace before it
    /// can predict.
    #[must_use]
    pub fn needs_training(self) -> bool {
        matches!(self, SchemeKind::Gsg | SchemeKind::Psg | SchemeKind::Profiling)
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A fully specified predictor configuration in the paper's Table 3
/// vocabulary.
///
/// # Example
///
/// ```
/// use tlabp_core::config::SchemeConfig;
///
/// let config = SchemeConfig::pag(12).with_context_switch(true);
/// assert_eq!(config.to_string(), "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)");
/// let parsed: SchemeConfig = config.to_string().parse()?;
/// assert_eq!(parsed, config);
/// # Ok::<(), tlabp_core::config::ParseSchemeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeConfig {
    kind: SchemeKind,
    history_bits: u32,
    bht: Option<BhtConfig>,
    automaton: Automaton,
    context_switch: bool,
}

impl SchemeConfig {
    /// GAg with an A2 pattern table.
    #[must_use]
    pub fn gag(history_bits: u32) -> Self {
        SchemeConfig {
            kind: SchemeKind::Gag,
            history_bits,
            bht: None,
            automaton: Automaton::A2,
            context_switch: false,
        }
    }

    /// PAg with the paper's standard 4-way 512-entry BHT and A2.
    #[must_use]
    pub fn pag(history_bits: u32) -> Self {
        SchemeConfig {
            kind: SchemeKind::Pag,
            history_bits,
            bht: Some(BhtConfig::PAPER_DEFAULT),
            automaton: Automaton::A2,
            context_switch: false,
        }
    }

    /// PAp with the paper's standard BHT and A2.
    #[must_use]
    pub fn pap(history_bits: u32) -> Self {
        SchemeConfig { bht: Some(BhtConfig::PAPER_DEFAULT), ..Self::gag(history_bits) }
            .with_kind(SchemeKind::Pap)
    }

    /// GSg (global Static Training).
    #[must_use]
    pub fn gsg(history_bits: u32) -> Self {
        SchemeConfig {
            kind: SchemeKind::Gsg,
            history_bits,
            bht: None,
            automaton: Automaton::PresetBit,
            context_switch: false,
        }
    }

    /// PSg (per-address Static Training) with the standard BHT.
    #[must_use]
    pub fn psg(history_bits: u32) -> Self {
        SchemeConfig {
            kind: SchemeKind::Psg,
            history_bits,
            bht: Some(BhtConfig::PAPER_DEFAULT),
            automaton: Automaton::PresetBit,
            context_switch: false,
        }
    }

    /// BTB with the standard 4-way 512-entry table and the given per-entry
    /// automaton.
    #[must_use]
    pub fn btb(automaton: Automaton) -> Self {
        SchemeConfig {
            kind: SchemeKind::Btb,
            history_bits: 0,
            bht: Some(BhtConfig::PAPER_DEFAULT),
            automaton,
            context_switch: false,
        }
    }

    /// The Always-Taken static scheme.
    #[must_use]
    pub fn always_taken() -> Self {
        SchemeConfig {
            kind: SchemeKind::AlwaysTaken,
            history_bits: 0,
            bht: None,
            automaton: Automaton::PresetBit,
            context_switch: false,
        }
    }

    /// The backward-taken/forward-not-taken static scheme.
    #[must_use]
    pub fn btfn() -> Self {
        SchemeConfig { kind: SchemeKind::Btfn, ..Self::always_taken() }
    }

    /// The profiling static scheme.
    #[must_use]
    pub fn profiling() -> Self {
        SchemeConfig { kind: SchemeKind::Profiling, ..Self::always_taken() }
    }

    fn with_kind(mut self, kind: SchemeKind) -> Self {
        self.kind = kind;
        self
    }

    /// Replaces the BHT implementation (PAg/PAp/PSg/BTB).
    #[must_use]
    pub fn with_bht(mut self, bht: BhtConfig) -> Self {
        self.bht = Some(bht);
        self
    }

    /// Replaces the pattern automaton.
    #[must_use]
    pub fn with_automaton(mut self, automaton: Automaton) -> Self {
        self.automaton = automaton;
        self
    }

    /// Enables or disables context-switch simulation (the `c` flag).
    #[must_use]
    pub fn with_context_switch(mut self, enabled: bool) -> Self {
        self.context_switch = enabled;
        self
    }

    /// The scheme kind.
    #[must_use]
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// The history register length `k` (0 for history-less schemes).
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// The BHT implementation, if the scheme uses one.
    #[must_use]
    pub fn bht(&self) -> Option<BhtConfig> {
        self.bht
    }

    /// The pattern (or BTB entry) automaton.
    #[must_use]
    pub fn automaton(&self) -> Automaton {
        self.automaton
    }

    /// Whether context switches are simulated for this configuration.
    #[must_use]
    pub fn context_switch(&self) -> bool {
        self.context_switch
    }

    /// Checks the configuration against the shared table-geometry rules
    /// of [`crate::geometry`]. Parsing applies this check, so every
    /// configuration that parses builds; for one assembled from the
    /// constructors (say `SchemeConfig::gag(40)`) that breaks a rule,
    /// [`SchemeConfig::build_any`] returns [`BuildError::Geometry`].
    ///
    /// # Errors
    ///
    /// The first rule the history length, the BHT or BTB geometry, or
    /// PAp's per-slot pattern tables break.
    pub fn check_geometry(&self) -> Result<(), GeometryError> {
        match self.kind {
            SchemeKind::AlwaysTaken | SchemeKind::Btfn | SchemeKind::Profiling => Ok(()),
            SchemeKind::Btb => match self.bht {
                Some(BhtConfig::Cache { entries, ways }) => check_table(entries, ways).map(drop),
                _ => Ok(()),
            },
            SchemeKind::Gag | SchemeKind::Gsg => check_history_bits(self.history_bits),
            SchemeKind::Pag | SchemeKind::Psg | SchemeKind::Pap => {
                check_history_bits(self.history_bits)?;
                if let Some(BhtConfig::Cache { entries, ways }) = self.bht {
                    check_table(entries, ways)?;
                }
                match self.bht {
                    Some(bht) if self.kind == SchemeKind::Pap => {
                        check_pap_tables(bht, self.history_bits)
                    }
                    _ => Ok(()),
                }
            }
        }
    }

    /// Whether [`SchemeConfig::build`] would fail for lack of a training
    /// trace.
    #[must_use]
    pub fn needs_training(&self) -> bool {
        self.kind.needs_training()
    }

    /// Builds the predictor for schemes that need no training run, behind
    /// dynamic dispatch: [`SchemeConfig::build_any`], boxed.
    ///
    /// # Errors
    ///
    /// As [`SchemeConfig::build_any`].
    pub fn build(&self) -> Result<Box<dyn BranchPredictor>, BuildError> {
        Ok(Box::new(self.build_any()?))
    }

    /// Builds the predictor for schemes that need no training run, wrapped
    /// in the statically dispatched [`AnyPredictor`] enum.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::NeedsTraining`] for GSg, PSg and Profiling
    /// (use [`SchemeConfig::build_any_trained`] for those), and
    /// [`BuildError::Geometry`] when [`SchemeConfig::check_geometry`]
    /// fails.
    pub fn build_any(&self) -> Result<AnyPredictor, BuildError> {
        if self.needs_training() {
            return Err(BuildError::NeedsTraining { config: self.to_string() });
        }
        self.check_geometry().map_err(BuildError::Geometry)?;
        let bht = self.bht.unwrap_or(BhtConfig::PAPER_DEFAULT);
        Ok(match self.kind {
            SchemeKind::Gag => AnyPredictor::Gag(Gag::new(self.history_bits, self.automaton)),
            SchemeKind::Pag => AnyPredictor::Pag(Pag::new(self.history_bits, bht, self.automaton)),
            SchemeKind::Pap => AnyPredictor::Pap(Pap::new(self.history_bits, bht, self.automaton)),
            SchemeKind::Btb => {
                let (entries, ways) = match self.bht {
                    Some(BhtConfig::Cache { entries, ways }) => (entries, ways),
                    _ => (512, 4),
                };
                AnyPredictor::Btb(Btb::new(entries, ways, self.automaton))
            }
            SchemeKind::AlwaysTaken => AnyPredictor::AlwaysTaken(AlwaysTaken::new()),
            SchemeKind::Btfn => AnyPredictor::Btfn(Btfn::new()),
            SchemeKind::Gsg | SchemeKind::Psg | SchemeKind::Profiling => {
                unreachable!("training schemes handled above")
            }
        })
    }

    /// Builds the predictor, running the profiling pass on `training` when
    /// the scheme requires it (adaptive schemes ignore `training`).
    ///
    /// GSg and PSg produce preset [`Gag`]/[`Pag`] structures, so they land
    /// in those variants. The profiling pass reads only each conditional
    /// branch's pc and direction, so this builds the same predictor as
    /// [`SchemeConfig::build_any_trained_interned`] over the trace's
    /// interned stream.
    ///
    /// # Panics
    ///
    /// Panics if the configuration breaks a rule of
    /// [`SchemeConfig::check_geometry`] (history length, BHT or BTB
    /// geometry, PAp's pattern-table cap): this factory has no error
    /// path, and every configuration that parses passes.
    #[must_use]
    pub fn build_any_trained(&self, training: &Trace) -> AnyPredictor {
        self.build_any_profiled(training.conditional_outcomes())
    }

    /// [`SchemeConfig::build_any_trained`] from the training trace's
    /// interned conditional stream instead of the full trace.
    ///
    /// # Panics
    ///
    /// As [`SchemeConfig::build_any_trained`].
    #[must_use]
    pub fn build_any_trained_interned(&self, training: &InternedConds) -> AnyPredictor {
        self.build_any_profiled(training.outcomes())
    }

    /// The one profiling fold behind both trained builders: `outcomes`
    /// are the training run's conditional `(pc, taken)` pairs.
    fn build_any_profiled(&self, outcomes: impl IntoIterator<Item = (u64, bool)>) -> AnyPredictor {
        match self.kind {
            SchemeKind::Gsg => {
                AnyPredictor::Gag(Gsg::new(&train_global(outcomes, self.history_bits)))
            }
            SchemeKind::Psg => AnyPredictor::Pag(Psg::new(
                &train_per_address(outcomes, self.history_bits),
                self.bht.unwrap_or(BhtConfig::PAPER_DEFAULT),
            )),
            SchemeKind::Profiling => AnyPredictor::Profiling(Profiling::train(outcomes)),
            _ => self.build_any().unwrap_or_else(|err| panic!("{err}")),
        }
    }

    /// The hardware cost of this configuration under `model` (the paper's
    /// simplified Equations 4–6), when the model covers the scheme.
    ///
    /// Returns `None` for schemes the paper's cost model does not price:
    /// the static schemes, the BTB, and ideal (infinite) BHTs.
    #[must_use]
    pub fn cost(&self, model: &CostModel) -> Option<f64> {
        let pattern_bits = self.automaton.history_bits();
        let geometry = match self.bht {
            Some(BhtConfig::Cache { entries, ways }) => Some(BhtGeometry { entries, ways }),
            _ => None,
        };
        match self.kind {
            SchemeKind::Gag | SchemeKind::Gsg => {
                Some(model.gag_cost(self.history_bits, pattern_bits))
            }
            SchemeKind::Pag | SchemeKind::Psg => {
                Some(model.pag_cost(geometry?, self.history_bits, pattern_bits))
            }
            SchemeKind::Pap => Some(model.pap_cost(geometry?, self.history_bits, pattern_bits)),
            SchemeKind::Btb
            | SchemeKind::AlwaysTaken
            | SchemeKind::Btfn
            | SchemeKind::Profiling => None,
        }
    }
}

impl fmt::Display for SchemeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cs = if self.context_switch { ",c" } else { "" };
        match self.kind {
            SchemeKind::AlwaysTaken | SchemeKind::Btfn | SchemeKind::Profiling => {
                write!(f, "{}", self.kind)
            }
            SchemeKind::Btb => {
                let (entries, ways) = match self.bht {
                    Some(BhtConfig::Cache { entries, ways }) => (entries, ways),
                    _ => (512, 4),
                };
                write!(f, "BTB(BHT({entries},{ways},{}),{cs})", self.automaton)
            }
            SchemeKind::Gag | SchemeKind::Gsg => {
                let k = self.history_bits;
                write!(f, "{}(HR(1,,{k}-sr),1xPHT(2^{k},{}){cs})", self.kind, self.automaton)
            }
            SchemeKind::Pag | SchemeKind::Psg | SchemeKind::Pap => {
                let k = self.history_bits;
                let bht = self.bht.unwrap_or(BhtConfig::PAPER_DEFAULT);
                let history = match bht {
                    BhtConfig::Ideal => format!("IBHT(inf,,{k}-sr)"),
                    BhtConfig::Cache { entries, ways } => {
                        format!("BHT({entries},{ways},{k}-sr)")
                    }
                };
                let set_size = if self.kind == SchemeKind::Pap {
                    match bht {
                        BhtConfig::Ideal => "inf".to_owned(),
                        BhtConfig::Cache { entries, .. } => entries.to_string(),
                    }
                } else {
                    "1".to_owned()
                };
                write!(f, "{}({history},{set_size}xPHT(2^{k},{}){cs})", self.kind, self.automaton)
            }
        }
    }
}

/// Error building a predictor from a [`SchemeConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The scheme is profiling-based; call
    /// [`SchemeConfig::build_any_trained`].
    NeedsTraining {
        /// The configuration string of the offending scheme.
        config: String,
    },
    /// The configuration names tables that cannot be built (see
    /// [`SchemeConfig::check_geometry`]).
    Geometry(GeometryError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NeedsTraining { config } => {
                write!(f, "scheme {config} requires a training trace; use build_any_trained")
            }
            BuildError::Geometry(err) => write!(f, "{err}"),
        }
    }
}

impl Error for BuildError {}

/// Error parsing a configuration string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    message: String,
    geometry: Option<GeometryError>,
}

impl ParseSchemeError {
    fn new(message: impl Into<String>) -> Self {
        ParseSchemeError { message: message.into(), geometry: None }
    }

    /// The geometry rule the string broke, when it is well formed but
    /// names tables that cannot be built (see
    /// [`SchemeConfig::check_geometry`]).
    #[must_use]
    pub fn geometry(&self) -> Option<GeometryError> {
        self.geometry
    }
}

impl From<GeometryError> for ParseSchemeError {
    fn from(err: GeometryError) -> Self {
        ParseSchemeError { message: err.to_string(), geometry: Some(err) }
    }
}

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scheme configuration: {}", self.message)
    }
}

impl Error for ParseSchemeError {}

impl FromStr for SchemeConfig {
    type Err = ParseSchemeError;

    /// Parses the Table 3 notation, then applies
    /// [`SchemeConfig::check_geometry`], so a string naming tables that
    /// cannot be built is an error here rather than a panic later.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let config = SchemeConfig::parse_notation(s)?;
        config.check_geometry()?;
        Ok(config)
    }
}

impl SchemeConfig {
    /// The syntax half of [`SchemeConfig::from_str`].
    fn parse_notation(s: &str) -> Result<SchemeConfig, ParseSchemeError> {
        let s = s.trim();
        match s {
            "AlwaysTaken" => return Ok(SchemeConfig::always_taken()),
            "BTFN" => return Ok(SchemeConfig::btfn()),
            "Profiling" => return Ok(SchemeConfig::profiling()),
            _ => {}
        }
        let open =
            s.find('(').ok_or_else(|| ParseSchemeError::new(format!("unknown scheme {s:?}")))?;
        if !s.ends_with(')') {
            return Err(ParseSchemeError::new("missing closing parenthesis"));
        }
        let mnemonic = &s[..open];
        let body = &s[open + 1..s.len() - 1];
        let parts = split_top_level(body);

        let context_switch = parts.last().map(|p| p.trim() == "c").unwrap_or(false);
        let args: Vec<&str> = parts[..parts.len() - usize::from(context_switch)].to_vec();

        match mnemonic {
            "BTB" => {
                let history = args
                    .first()
                    .ok_or_else(|| ParseSchemeError::new("BTB needs a history spec"))?;
                let (entries, ways, content) = parse_table_spec(history)?;
                let automaton: Automaton =
                    content.parse().map_err(|e| ParseSchemeError::new(format!("{e}")))?;
                let entries =
                    entries.parse::<usize>().map_err(|_| ParseSchemeError::new("bad BTB size"))?;
                let ways = ways
                    .parse::<usize>()
                    .map_err(|_| ParseSchemeError::new("bad BTB associativity"))?;
                Ok(SchemeConfig::btb(automaton)
                    .with_bht(BhtConfig::Cache { entries, ways })
                    .with_context_switch(context_switch))
            }
            "GAg" | "GSg" | "PAg" | "PSg" | "PAp" => {
                if args.len() < 2 {
                    return Err(ParseSchemeError::new(
                        "two-level scheme needs history and pattern specs",
                    ));
                }
                let (size, assoc, content) = parse_table_spec(args[0])?;
                let history_bits = parse_sr_content(content)?;
                let bht = match (mnemonic, args[0].starts_with("IBHT"), size) {
                    ("GAg" | "GSg", _, _) => None,
                    (_, true, _) => Some(BhtConfig::Ideal),
                    (_, false, size) => {
                        let entries = size
                            .parse::<usize>()
                            .map_err(|_| ParseSchemeError::new("bad BHT size"))?;
                        let ways = assoc
                            .parse::<usize>()
                            .map_err(|_| ParseSchemeError::new("bad BHT associativity"))?;
                        Some(BhtConfig::Cache { entries, ways })
                    }
                };
                let (pattern_k, automaton) = parse_pattern_spec(args[1])?;
                if pattern_k != history_bits {
                    return Err(ParseSchemeError::new(format!(
                        "history length {history_bits} disagrees with PHT size 2^{pattern_k}"
                    )));
                }
                let base = match mnemonic {
                    "GAg" => SchemeConfig::gag(history_bits),
                    "GSg" => SchemeConfig::gsg(history_bits),
                    "PAg" => SchemeConfig::pag(history_bits),
                    "PSg" => SchemeConfig::psg(history_bits),
                    "PAp" => SchemeConfig::pap(history_bits),
                    _ => unreachable!(),
                };
                let mut config = base.with_automaton(automaton);
                if let Some(bht) = bht {
                    config = config.with_bht(bht);
                }
                Ok(config.with_context_switch(context_switch))
            }
            other => Err(ParseSchemeError::new(format!("unknown scheme {other:?}"))),
        }
    }
}

/// Splits `a,b(c,d),e` into `["a", "b(c,d)", "e"]`.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Parses `NAME(size,assoc,content)` into its three fields.
fn parse_table_spec(s: &str) -> Result<(&str, &str, &str), ParseSchemeError> {
    let s = s.trim();
    let open = s.find('(').ok_or_else(|| ParseSchemeError::new(format!("bad table spec {s:?}")))?;
    if !s.ends_with(')') {
        return Err(ParseSchemeError::new(format!("bad table spec {s:?}")));
    }
    let body = &s[open + 1..s.len() - 1];
    let fields: Vec<&str> = body.splitn(3, ',').collect();
    if fields.len() != 3 {
        return Err(ParseSchemeError::new(format!(
            "table spec {s:?} needs (size,associativity,content)"
        )));
    }
    Ok((fields[0].trim(), fields[1].trim(), fields[2].trim()))
}

/// Parses `12-sr` into 12.
fn parse_sr_content(s: &str) -> Result<u32, ParseSchemeError> {
    let digits = s
        .strip_suffix("-sr")
        .ok_or_else(|| ParseSchemeError::new(format!("expected `<k>-sr`, got {s:?}")))?;
    digits
        .parse::<u32>()
        .map_err(|_| ParseSchemeError::new(format!("bad history length {digits:?}")))
}

/// Parses `1xPHT(2^12,A2)` into `(12, Automaton::A2)`.
fn parse_pattern_spec(s: &str) -> Result<(u32, Automaton), ParseSchemeError> {
    let s = s.trim();
    let x = s.find('x').ok_or_else(|| ParseSchemeError::new(format!("bad pattern spec {s:?}")))?;
    // Set size prefix (1, 512, inf, ...) is implied by the scheme; skip it.
    let rest = &s[x + 1..];
    let (size, content) = parse_pht_body(rest)?;
    let k = if let Some(exponent) = size.strip_prefix("2^") {
        exponent
            .parse::<u32>()
            .map_err(|_| ParseSchemeError::new(format!("bad PHT size {size:?}")))?
    } else {
        let entries = size
            .parse::<u64>()
            .map_err(|_| ParseSchemeError::new(format!("bad PHT size {size:?}")))?;
        if !entries.is_power_of_two() {
            return Err(ParseSchemeError::new(format!(
                "PHT size {entries} must be a power of two"
            )));
        }
        entries.trailing_zeros()
    };
    let automaton: Automaton =
        content.parse().map_err(|e| ParseSchemeError::new(format!("{e}")))?;
    Ok((k, automaton))
}

fn parse_pht_body(s: &str) -> Result<(&str, &str), ParseSchemeError> {
    let s = s.trim();
    let body = s
        .strip_prefix("PHT(")
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(|| ParseSchemeError::new(format!("expected PHT(...), got {s:?}")))?;
    let mut fields = body.splitn(2, ',');
    let size = fields.next().ok_or_else(|| ParseSchemeError::new("PHT spec missing size"))?;
    let content = fields.next().ok_or_else(|| ParseSchemeError::new("PHT spec missing content"))?;
    Ok((size.trim(), content.trim()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlabp_trace::synth::BiasedCoins;

    #[test]
    fn display_matches_table3_rows() {
        assert_eq!(
            SchemeConfig::gag(12).with_context_switch(true).to_string(),
            "GAg(HR(1,,12-sr),1xPHT(2^12,A2),c)"
        );
        assert_eq!(SchemeConfig::pag(12).to_string(), "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))");
        assert_eq!(
            SchemeConfig::pag(12).with_bht(BhtConfig::Ideal).to_string(),
            "PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2))"
        );
        assert_eq!(SchemeConfig::pap(6).to_string(), "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))");
        assert_eq!(SchemeConfig::psg(12).to_string(), "PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))");
        assert_eq!(
            SchemeConfig::btb(Automaton::A2).with_context_switch(true).to_string(),
            "BTB(BHT(512,4,A2),,c)"
        );
        assert_eq!(SchemeConfig::btfn().to_string(), "BTFN");
    }

    #[test]
    fn round_trip_every_kind() {
        let configs = [
            SchemeConfig::gag(18),
            SchemeConfig::gag(6).with_automaton(Automaton::A4).with_context_switch(true),
            SchemeConfig::pag(12),
            SchemeConfig::pag(10).with_bht(BhtConfig::Cache { entries: 256, ways: 1 }),
            SchemeConfig::pag(12).with_bht(BhtConfig::Ideal).with_context_switch(true),
            SchemeConfig::pap(6),
            SchemeConfig::pap(8).with_bht(BhtConfig::Ideal),
            SchemeConfig::gsg(12),
            SchemeConfig::psg(12).with_context_switch(true),
            SchemeConfig::btb(Automaton::A2),
            SchemeConfig::btb(Automaton::LastTime).with_context_switch(true),
            SchemeConfig::always_taken(),
            SchemeConfig::btfn(),
            SchemeConfig::profiling(),
        ];
        for config in configs {
            let text = config.to_string();
            let parsed: SchemeConfig = text.parse().unwrap_or_else(|e| {
                panic!("failed to parse {text:?}: {e}");
            });
            assert_eq!(parsed, config, "round trip of {text:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "XYZ(BHT(512,4,12-sr),1xPHT(2^12,A2))",
            "PAg(BHT(512,4,12-sr)",
            "PAg(BHT(512,4,12),1xPHT(2^12,A2))",
            "PAg(BHT(512,4,12-sr),1xPHT(2^10,A2))", // k mismatch
            "PAg(BHT(512,4,12-sr),1xPHT(2^12,A9))",
            "BTB(BHT(abc,4,A2),)",
        ] {
            assert!(bad.parse::<SchemeConfig>().is_err(), "should reject {bad:?}");
        }
    }

    /// Parses `text`, expecting it to be well formed but to break the
    /// geometry rule `want`.
    fn assert_geometry_rejected(text: &str, want: GeometryError) {
        let err = text.parse::<SchemeConfig>().expect_err("geometry must be rejected");
        assert_eq!(err.geometry(), Some(want), "{text}: {err}");
    }

    #[test]
    fn parse_rejects_history_longer_than_the_register() {
        assert_geometry_rejected(
            "GAg(HR(1,,40-sr),1xPHT(2^40,A2))",
            GeometryError::HistoryBits(40),
        );
    }

    #[test]
    fn parse_rejects_zero_history() {
        assert_geometry_rejected("GAg(HR(1,,0-sr),1xPHT(2^0,A2))", GeometryError::HistoryBits(0));
    }

    #[test]
    fn parse_rejects_entries_that_are_not_a_multiple_of_ways() {
        assert_geometry_rejected(
            "PAg(BHT(3,2,12-sr),1xPHT(2^12,A2))",
            GeometryError::EntriesNotMultipleOfWays { entries: 3, ways: 2 },
        );
    }

    #[test]
    fn parse_rejects_zero_ways() {
        assert_geometry_rejected("PAg(BHT(0,0,12-sr),1xPHT(2^12,A2))", GeometryError::ZeroWays);
    }

    #[test]
    fn parse_rejects_a_set_count_that_is_not_a_power_of_two() {
        assert_geometry_rejected(
            "PAp(BHT(384,4,6-sr),384xPHT(2^6,A2))",
            GeometryError::SetsNotPowerOfTwo { sets: 96 },
        );
    }

    #[test]
    fn parse_rejects_a_bht_above_the_entry_cap() {
        assert_geometry_rejected(
            "PAg(BHT(1099511627776,1,12-sr),1xPHT(2^12,A2))",
            GeometryError::TooManyEntries { entries: 1 << 40 },
        );
    }

    #[test]
    fn parse_rejects_a_btb_with_an_impossible_geometry() {
        assert_geometry_rejected("BTB(BHT(12,0,A2),)", GeometryError::ZeroWays);
    }

    #[test]
    fn parse_rejects_pap_tables_above_the_pattern_cap() {
        assert_geometry_rejected(
            "PAp(BHT(512,4,24-sr),512xPHT(2^24,A2))",
            GeometryError::TooManyPatternEntries { tables: 512, history_bits: 24 },
        );
        assert_geometry_rejected(
            "PAp(IBHT(inf,,16-sr),infxPHT(2^16,A2))",
            GeometryError::TooManyPatternEntries { tables: 1 << 13, history_bits: 16 },
        );
    }

    #[test]
    fn every_catalog_geometry_passes_the_shared_rules() {
        for bht in BhtConfig::FIGURE10 {
            for k in [1, 12, crate::history::MAX_HISTORY_BITS] {
                for config in [SchemeConfig::gag(k), SchemeConfig::pag(k).with_bht(bht)] {
                    assert_eq!(config.check_geometry(), Ok(()), "{config}");
                    assert_eq!(config.to_string().parse::<SchemeConfig>(), Ok(config));
                }
            }
        }
        assert_eq!(SchemeConfig::pap(12).check_geometry(), Ok(()));
        assert_eq!(SchemeConfig::btb(Automaton::A2).check_geometry(), Ok(()));
    }

    #[test]
    fn parse_accepts_decimal_pht_size() {
        let parsed: SchemeConfig = "PAg(BHT(512,4,12-sr),1xPHT(4096,A2))".parse().unwrap();
        assert_eq!(parsed, SchemeConfig::pag(12));
    }

    #[test]
    fn build_adaptive_schemes() {
        for config in [
            SchemeConfig::gag(8),
            SchemeConfig::pag(8),
            SchemeConfig::pap(6),
            SchemeConfig::btb(Automaton::A2),
            SchemeConfig::always_taken(),
            SchemeConfig::btfn(),
        ] {
            let predictor = config.build().expect("adaptive scheme builds");
            // Name of the built predictor matches the config (modulo the
            // context-switch flag, which belongs to the simulator).
            let expected = config.with_context_switch(false).to_string();
            assert_eq!(predictor.name(), expected);
        }
    }

    #[test]
    fn build_training_schemes_requires_trace() {
        let err = match SchemeConfig::psg(8).build() {
            Err(err) => err,
            Ok(_) => panic!("PSg must refuse to build without training"),
        };
        assert!(err.to_string().contains("training"));

        let training = BiasedCoins::uniform(4, 0.8, 100, 3).generate();
        for config in [SchemeConfig::gsg(8), SchemeConfig::psg(8), SchemeConfig::profiling()] {
            let predictor = config.build_any_trained(&training);
            assert!(!predictor.name().is_empty());
        }
    }

    #[test]
    fn impossible_geometry_is_a_build_error() {
        let want = BuildError::Geometry(GeometryError::HistoryBits(40));
        assert_eq!(SchemeConfig::gag(40).build_any().err(), Some(want.clone()));
        assert_eq!(SchemeConfig::gag(40).build().err(), Some(want));
        assert_eq!(
            SchemeConfig::pap(24).build_any().err(),
            Some(BuildError::Geometry(GeometryError::TooManyPatternEntries {
                tables: 512,
                history_bits: 24
            }))
        );
    }

    #[test]
    #[should_panic(expected = "history length 40 out of range")]
    fn build_any_trained_asserts_geometry() {
        let training = BiasedCoins::uniform(4, 0.8, 100, 3).generate();
        let _ = SchemeConfig::gag(40).build_any_trained(&training);
    }

    #[test]
    fn cost_covers_the_right_schemes() {
        let model = CostModel::paper_default();
        assert!(SchemeConfig::gag(12).cost(&model).is_some());
        assert!(SchemeConfig::pag(12).cost(&model).is_some());
        assert!(SchemeConfig::pap(6).cost(&model).is_some());
        assert!(SchemeConfig::psg(12).cost(&model).is_some());
        assert!(SchemeConfig::btfn().cost(&model).is_none());
        assert!(SchemeConfig::btb(Automaton::A2).cost(&model).is_none());
        assert!(
            SchemeConfig::pag(12).with_bht(BhtConfig::Ideal).cost(&model).is_none(),
            "infinite tables have no finite cost"
        );
    }

    #[test]
    fn accessors() {
        let config = SchemeConfig::pag(12).with_context_switch(true);
        assert_eq!(config.kind(), SchemeKind::Pag);
        assert_eq!(config.history_bits(), 12);
        assert_eq!(config.bht(), Some(BhtConfig::PAPER_DEFAULT));
        assert_eq!(config.automaton(), Automaton::A2);
        assert!(config.context_switch());
        assert!(!config.needs_training());
        assert!(SchemeConfig::profiling().needs_training());
    }
}
