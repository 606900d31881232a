//! The trace-driven simulation loop.

use std::ops::Range;

use tlabp_core::any::AnyPredictor;
use tlabp_core::bht::{BhtConfig, BhtSignature};
use tlabp_core::config::{SchemeConfig, SchemeKind};
use tlabp_core::history::HistoryRegister;
use tlabp_core::pht::{PatternHistoryTable, TransposedPhtBank, LANES_PER_WORD, MAX_FIELDS};
use tlabp_core::predictor::BranchPredictor;
use tlabp_core::simd::SimdMode;
use tlabp_trace::io::ReadTraceError;
use tlabp_trace::{InternedConds, PatternStream, Trace, TraceEvent};

use crate::stream::StreamCursor;

/// Context-switch simulation parameters (the paper's Section 5.1.4).
///
/// "Whenever a trap occurs in the instruction trace or every 500,000
/// instructions if no trap occurs, a context switch is simulated" — the
/// 500,000 figure derives from a 50 MHz, 1-IPC machine switching every
/// 10 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextSwitchConfig {
    /// Instructions between forced switches when no trap intervenes. A
    /// deadline past `u64::MAX` saturates there, so `u64::MAX` means
    /// traps alone switch.
    pub interval_instructions: u64,
    /// Whether trace trap events trigger switches.
    pub on_traps: bool,
}

impl Default for ContextSwitchConfig {
    fn default() -> Self {
        ContextSwitchConfig { interval_instructions: 500_000, on_traps: true }
    }
}

/// Simulation options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// When `Some`, context switches flush first-level branch history.
    pub context_switch: Option<ContextSwitchConfig>,
}

impl SimConfig {
    /// No context switches (the paper's default measurement mode).
    #[must_use]
    pub fn no_context_switch() -> Self {
        SimConfig { context_switch: None }
    }

    /// The paper's context-switch model (trap-triggered + 500k interval).
    #[must_use]
    pub fn paper_context_switch() -> Self {
        SimConfig { context_switch: Some(ContextSwitchConfig::default()) }
    }
}

/// Result of simulating one predictor over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The predictor's configuration name.
    pub scheme: String,
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Predictions that matched the resolved direction.
    pub correct: u64,
    /// Context switches simulated.
    pub context_switches: u64,
}

impl SimResult {
    /// Prediction accuracy in `[0, 1]`; 0 when no branch was predicted.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    /// Misprediction rate (`1 - accuracy`).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }
}

/// Runs `predictor` over every conditional branch of `trace`, honoring
/// the context-switch model of `config`.
///
/// This is the paper's simulation loop: decode (already done by the trace
/// generator), predict, verify against the resolved direction, update.
///
/// # Example
///
/// ```
/// use tlabp_core::config::SchemeConfig;
/// use tlabp_sim::runner::{simulate, SimConfig};
/// use tlabp_trace::synth::LoopNest;
///
/// let trace = LoopNest::new(&[50, 20]).generate();
/// let mut predictor = SchemeConfig::pag(6).build()?;
/// let result = simulate(&mut *predictor, &trace, &SimConfig::default());
/// assert!(result.accuracy() > 0.9);
/// # Ok::<(), tlabp_core::config::BuildError>(())
/// ```
pub fn simulate<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
    config: &SimConfig,
) -> SimResult {
    let mut result =
        SimResult { scheme: predictor.name(), predictions: 0, correct: 0, context_switches: 0 };
    let mut next_interval_switch = config.context_switch.map(|cs| cs.interval_instructions);

    for event in trace.iter() {
        // Interval-based context switch ("every 500,000 instructions if no
        // trap occurs").
        if let (Some(cs), Some(due)) = (config.context_switch, next_interval_switch) {
            if event.instret() >= due {
                predictor.context_switch();
                result.context_switches += 1;
                next_interval_switch =
                    Some(event.instret().saturating_add(cs.interval_instructions));
            }
        }
        match event {
            TraceEvent::Branch(branch) if branch.class.is_conditional() => {
                let predicted = predictor.predict(branch);
                predictor.update(branch);
                result.predictions += 1;
                result.correct += u64::from(predicted == branch.taken);
            }
            TraceEvent::Branch(_) => {}
            TraceEvent::Trap(trap) => {
                if let Some(cs) = config.context_switch {
                    if cs.on_traps {
                        predictor.context_switch();
                        result.context_switches += 1;
                        // A trap-triggered switch restarts the interval.
                        next_interval_switch =
                            Some(trap.instret.saturating_add(cs.interval_instructions));
                    }
                }
            }
        }
    }
    result
}

/// Where one trace's context switches fall, against its
/// conditional-branch stream: [`simulate`]'s trap and interval rules
/// evaluated once per (trace, [`ContextSwitchConfig`]).
///
/// A switch flushes first-level history and keeps pattern tables, and
/// *when* it fires depends only on the trace's instruction counts and
/// traps, never on the predictor. So one schedule serves every job of a
/// trace under the same configuration, and the interned walk
/// ([`simulate_fused`]) models switches without the full trace: it walks
/// the conditional stream in the segments between switch points and
/// fires each point's switches before its conditional. The default
/// (empty) schedule models no switches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchSchedule {
    /// `(conditional index, switch count)` in increasing index order:
    /// `count` switches fire just before the conditional at `index`.
    points: Vec<(usize, u32)>,
    /// Every switch, including those after the last conditional, which
    /// change no prediction and so appear in no point.
    total: u64,
}

impl SwitchSchedule {
    /// The schedule of `config`'s context switches over `trace`; empty
    /// when `config` models none. Bit-for-bit the switches [`simulate`]
    /// fires: the same interval and trap rules, in the same order.
    #[must_use]
    pub fn new(trace: &Trace, config: &SimConfig) -> SwitchSchedule {
        let mut schedule = SwitchSchedule::default();
        let Some(cs) = config.context_switch else { return schedule };
        let mut conditionals = 0usize;
        let mut next_interval_switch = cs.interval_instructions;
        for event in trace.iter() {
            if event.instret() >= next_interval_switch {
                schedule.fire(conditionals);
                next_interval_switch = event.instret().saturating_add(cs.interval_instructions);
            }
            match event {
                TraceEvent::Branch(branch) if branch.class.is_conditional() => conditionals += 1,
                TraceEvent::Branch(_) => {}
                TraceEvent::Trap(trap) => {
                    if cs.on_traps {
                        schedule.fire(conditionals);
                        next_interval_switch =
                            trap.instret.saturating_add(cs.interval_instructions);
                    }
                }
            }
        }
        if schedule.points.last().is_some_and(|&(index, _)| index == conditionals) {
            schedule.points.pop();
        }
        schedule
    }

    /// Records one switch just before the conditional at `index`.
    fn fire(&mut self, index: usize) {
        self.total += 1;
        match self.points.last_mut() {
            Some((last, count)) if *last == index => *count += 1,
            _ => self.points.push((index, 1)),
        }
    }

    /// Every switch the schedule fires (the result's `context_switches`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether no switch fires at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The switch points, in the `points` field's form.
    pub(crate) fn points(&self) -> &[(usize, u32)] {
        &self.points
    }

    /// The conditional stream `0..len` cut at the switch points, each
    /// segment paired with the number of switches that fire before it.
    fn segments(&self, len: usize) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
        debug_assert!(self.points.iter().all(|&(index, _)| index < len), "schedule of this stream");
        let starts = std::iter::once((0, 0)).chain(self.points.iter().copied());
        let ends = self.points.iter().map(|&(index, _)| index).chain(std::iter::once(len));
        starts.zip(ends).map(|((start, switches), end)| (switches, start..end))
    }
}

/// How many interned events one fused chunk hands each predictor.
///
/// Every predictor of the batch steps the same chunk of 4-byte events
/// (1 KiB at 256 events, L1-resident across the batch), so the
/// per-predictor dispatch is amortized over the chunk. Within a chunk
/// each predictor runs a tight monomorphic loop with its own tables
/// cache-hot.
const FUSE_CHUNK: usize = 256;

/// Runs a batch of predictors over one pc-interned conditional stream in
/// a single pass: the engine's walk for every job that does not replay a
/// pattern stream and does not take the reference path.
///
/// Each member is bit-identical to [`simulate`] over the trace the
/// interning came from, under the configuration `schedule` was built for
/// (the differential tests pin this for every catalog scheme, alone and
/// in batches): the stream expands to the same
/// [`BranchRecord`](tlabp_trace::BranchRecord)s, and
/// [`BranchPredictor::step_interned_block`] is predict + update with a
/// dense alias for the pc. The walk hands each predictor whole chunks of
/// the stream, so per-event dispatch collapses to per-chunk dispatch.
/// Every member steps its own tables, so a batch of one is the per-cell
/// walk.
///
/// Context switches come from `schedule`: chunks never straddle a switch
/// point, and at each point every predictor switches once per switch.
///
/// # Example
///
/// ```
/// use tlabp_core::config::SchemeConfig;
/// use tlabp_sim::runner::{simulate_fused, SimConfig, SwitchSchedule};
/// use tlabp_trace::synth::LoopNest;
/// use tlabp_trace::InternedConds;
///
/// let trace = LoopNest::new(&[50, 20]).generate();
/// let interned = InternedConds::from_trace(&trace);
/// let schedule = SwitchSchedule::new(&trace, &SimConfig::paper_context_switch());
/// let mut batch = vec![
///     SchemeConfig::pag(6).build_any()?,
///     SchemeConfig::gag(8).build_any()?,
/// ];
/// let results = simulate_fused(&mut batch, &interned, &schedule);
/// assert!(results.iter().all(|r| r.accuracy() > 0.9));
/// # Ok::<(), tlabp_core::config::BuildError>(())
/// ```
pub fn simulate_fused<P: BranchPredictor>(
    predictors: &mut [P],
    interned: &InternedConds,
    schedule: &SwitchSchedule,
) -> Vec<SimResult> {
    let mut correct = vec![0u64; predictors.len()];
    for (switches, segment) in schedule.segments(interned.len()) {
        for _ in 0..switches {
            predictors.iter_mut().for_each(P::context_switch);
        }
        for chunk in interned.events()[segment].chunks(FUSE_CHUNK) {
            for (predictor, correct) in predictors.iter_mut().zip(&mut correct) {
                *correct += predictor.step_interned_block(interned, chunk);
            }
        }
    }
    predictors
        .iter()
        .zip(correct)
        .map(|(predictor, correct)| SimResult {
            scheme: predictor.name(),
            predictions: interned.len() as u64,
            correct,
            context_switches: schedule.total(),
        })
        .collect()
}

/// Identifies the first-level mechanism a [`PatternStream`] was derived
/// from: a lone global history register, or a branch history table with a
/// specific implementation and geometry.
///
/// Two predictors with the same stream key produce — by construction —
/// exactly the same first-level `(pattern, outcome)` sequence over a given
/// trace, whatever automaton sits in their second level. The key is
/// therefore the cache index for materialized streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKey {
    /// A single k-bit global history register (GAg/GSg): the degenerate
    /// signature with no table at all.
    Global {
        /// The history register length `k`.
        history_bits: u32,
    },
    /// A branch history table walk (PAg/PAp/PSg).
    Bht(BhtSignature),
}

impl StreamKey {
    /// The pattern width of streams derived under this key.
    #[must_use]
    pub fn history_bits(self) -> u32 {
        match self {
            StreamKey::Global { history_bits } => history_bits,
            StreamKey::Bht(signature) => signature.history_bits,
        }
    }

    /// Whether `stream` has the shape [`derive_pattern_stream`] gives
    /// this key over `interned`: the key's history width, a lane vector
    /// exactly when the key is a BHT key, one event per interned event,
    /// and every lane below the key's lane bound (the cache BHT's entry
    /// count, or the interned pc count under the ideal BHT). The disk
    /// tier checks a hydrated stream with this, since replay trusts a
    /// stream's width and lanes to index its tables.
    pub(crate) fn admits(self, stream: &PatternStream, interned: &InternedConds) -> bool {
        let lane_bound = match self {
            StreamKey::Global { .. } => None,
            StreamKey::Bht(BhtSignature { config: BhtConfig::Ideal, .. }) => {
                Some(interned.distinct_pcs())
            }
            StreamKey::Bht(BhtSignature { config: BhtConfig::Cache { entries, .. }, .. }) => {
                Some(entries)
            }
        };
        stream.history_bits() == self.history_bits()
            && stream.len() == interned.len()
            && match lane_bound {
                None => !stream.is_laned(),
                // One max over the lanes (no early exit), so it vectorizes.
                Some(bound) => {
                    let max = stream.lanes().iter().fold(0, |max, &lane| max.max(lane));
                    stream.is_laned() && (stream.is_empty() || (max as usize) < bound)
                }
            }
    }

    /// Encodes the key as the opaque byte tag stored in trace artifact
    /// containers (`tlabp-trace::io` holds stream keys as raw bytes — the
    /// trace crate cannot name simulator types). Layout: a one-byte
    /// variant tag (0 = global, 1 = ideal BHT, 2 = cache BHT) followed by
    /// the variant's little-endian fields. The inverse of
    /// [`StreamKey::from_bytes`].
    #[must_use]
    pub fn to_bytes(self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(21);
        match self {
            StreamKey::Global { history_bits } => {
                bytes.push(0);
                bytes.extend_from_slice(&history_bits.to_le_bytes());
            }
            StreamKey::Bht(BhtSignature { config: BhtConfig::Ideal, history_bits }) => {
                bytes.push(1);
                bytes.extend_from_slice(&history_bits.to_le_bytes());
            }
            StreamKey::Bht(BhtSignature {
                config: BhtConfig::Cache { entries, ways },
                history_bits,
            }) => {
                bytes.push(2);
                bytes.extend_from_slice(&history_bits.to_le_bytes());
                bytes.extend_from_slice(&(entries as u64).to_le_bytes());
                bytes.extend_from_slice(&(ways as u64).to_le_bytes());
            }
        }
        bytes
    }

    /// Decodes a key from its [`StreamKey::to_bytes`] encoding, or `None`
    /// for any malformed input (unknown tag, wrong length, geometry that
    /// does not fit `usize`) — an unrecognized key in a cache file is
    /// skipped, never trusted.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        let u32_at = |range: std::ops::Range<usize>| {
            rest.get(range).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        };
        let usize_at = |range: std::ops::Range<usize>| {
            rest.get(range)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                .and_then(|v| usize::try_from(v).ok())
        };
        match tag {
            0 if rest.len() == 4 => Some(StreamKey::Global { history_bits: u32_at(0..4)? }),
            1 if rest.len() == 4 => Some(StreamKey::Bht(BhtSignature {
                config: BhtConfig::Ideal,
                history_bits: u32_at(0..4)?,
            })),
            2 if rest.len() == 20 => Some(StreamKey::Bht(BhtSignature {
                config: BhtConfig::Cache { entries: usize_at(4..12)?, ways: usize_at(12..20)? },
                history_bits: u32_at(0..4)?,
            })),
            _ => None,
        }
    }
}

/// A [`StreamKey`] with the history width erased: the first-level
/// *mechanism* (global register, or a BHT of a specific implementation
/// and geometry) without the register length.
///
/// Two stream keys with the same fold key describe the same first-level
/// walk at different widths — and those walks are *nested*: a history
/// register holds the last `k` outcomes, so the width-`k` pattern at any
/// point is the low `k` bits of the width-`K` pattern (`k ≤ K`) of the
/// same walk. The all-ones initialization and the BHT's initialize-to-
/// ones miss policy preserve this (all-ones at width `k` *is* the low
/// `k` bits of all-ones at width `K`), and BHT entry replacement is
/// driven by addresses alone, never by register contents, so lane
/// selection is width-independent too. A stream derived at the widest
/// width of a fold group therefore serves every member: each event's
/// pattern is masked down to the member's own width (which the
/// transposed bank does for free via its row mask). This is what lets
/// the engine walk one cached stream for an entire width × automaton
/// grid column instead of one stream per width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FoldKey {
    /// A lone global history register (GAg/GSg), any width.
    Global,
    /// A branch history table walk with this implementation/geometry,
    /// any register width.
    Bht(BhtConfig),
}

impl StreamKey {
    /// This key's width-erased fold class.
    #[must_use]
    pub fn fold_key(self) -> FoldKey {
        match self {
            StreamKey::Global { .. } => FoldKey::Global,
            StreamKey::Bht(signature) => FoldKey::Bht(signature.config),
        }
    }

    /// The same first-level mechanism at a different register width.
    #[must_use]
    pub fn with_history_bits(self, history_bits: u32) -> StreamKey {
        match self {
            StreamKey::Global { .. } => StreamKey::Global { history_bits },
            StreamKey::Bht(signature) => {
                StreamKey::Bht(BhtSignature { config: signature.config, history_bits })
            }
        }
    }
}

/// The stream key a scheme configuration's first level corresponds to, or
/// `None` when the scheme has no (pattern → PHT) second level to replay
/// (BTB, static predictors, profiling).
///
/// Any two configurations mapping to the same key differ only in their
/// second level — automaton choice, PHT initialization, preset bits — and
/// can therefore replay one shared materialized stream.
#[must_use]
pub fn replay_stream_key(config: SchemeConfig) -> Option<StreamKey> {
    match config.kind() {
        SchemeKind::Gag | SchemeKind::Gsg => {
            Some(StreamKey::Global { history_bits: config.history_bits() })
        }
        SchemeKind::Pag | SchemeKind::Psg | SchemeKind::Pap => Some(StreamKey::Bht(BhtSignature {
            config: config.bht().unwrap_or(BhtConfig::PAPER_DEFAULT),
            history_bits: config.history_bits(),
        })),
        SchemeKind::Btb | SchemeKind::AlwaysTaken | SchemeKind::Btfn | SchemeKind::Profiling => {
            None
        }
    }
}

/// Materializes the first-level `(pattern, outcome)` stream for `key` by
/// walking the interned conditional stream once.
///
/// * [`StreamKey::Global`] replays a fresh all-ones history register —
///   the exact walk GAg's block step performs (pattern read *before*
///   the shift-in), so GAg/GSg replay is bit-identical by construction.
/// * [`StreamKey::Bht`] builds the signature's table and walks it
///   ([`BranchHistoryTable::walk_interned`](tlabp_core::bht::BranchHistoryTable::walk_interned))
///   as a PAg/PAp block step does; table evolution is outcome-driven,
///   so the emitted patterns match what every same-signature
///   predictor's own table would produce. Each event also records its *lane*
///   ([`tlabp_core::bht::BhtCursor::lane`]: the cache slot the entry
///   resolved to, or the interned id under an ideal BHT), which is the
///   per-address table selector PAp's second level uses.
#[must_use]
pub fn derive_pattern_stream(interned: &InternedConds, key: StreamKey) -> PatternStream {
    match key {
        StreamKey::Global { history_bits } => {
            let mut history = HistoryRegister::all_ones(history_bits);
            let mut stream = PatternStream::with_capacity(history_bits, interned.len(), false);
            for event in interned.events() {
                let taken = event.taken();
                stream.push(history.pattern(), taken);
                history.shift_in(taken);
            }
            stream
        }
        StreamKey::Bht(signature) => {
            let mut stream =
                PatternStream::with_capacity(signature.history_bits, interned.len(), true);
            signature.build().walk_interned(
                interned,
                interned.events(),
                |pattern, cursor, event| {
                    stream.push_with_lane(pattern, event.taken(), cursor.lane());
                },
            );
            stream
        }
    }
}

/// The second level a replay walks, borrowed from an already-built
/// predictor: one shared table (GAg, PAg, and the GSg/PSg preset
/// assemblies, `false`) or the template of one table per stream lane
/// (PAp, `true`). `None` when the predictor has no replayable second
/// level.
///
/// Reading the *constructed* predictor rather than its config keeps
/// preset tables (GSg/PSg) intact: the bank starts from the exact
/// per-entry states the predictor would run with.
fn replay_table(predictor: &AnyPredictor) -> Option<(&PatternHistoryTable, bool)> {
    match predictor {
        AnyPredictor::Gag(gag) => Some((gag.pht(), false)),
        AnyPredictor::Pag(pag) => Some((pag.pht(), false)),
        AnyPredictor::Pap(pap) => Some((pap.template(), true)),
        _ => None,
    }
}

/// Events per block of the transposed walk: 2<sup>14</sup> events is a
/// 64 KiB slice of the stream (plus 64 KiB of lanes when laned), so when
/// several banks walk the same stream the slice stays cache-hot across
/// all of them instead of streaming the full multi-megabyte buffer once
/// per bank.
const REPLAY_BLOCK: usize = 1 << 14;

/// Replays a batch's second levels over one materialized first-level
/// stream: walks the stream once, updating every member's bit-sliced
/// second level in the same pass through [`TransposedPhtBank`]s.
///
/// Members group by PHT width and second-level form (shared or
/// per-lane), each group cuts into runs of at most [`LANES_PER_WORD`]
/// members, and the runs pack into banks of up to [`LANES_PER_WORD`]
/// members and [`MAX_FIELDS`] widths, one `u64` word per event: a bank
/// steps all its widths at once. Widths *narrower than the stream* are
/// welcome: each field of a bank masks event patterns down to its own
/// row index, which is exactly the width fold
/// [`StreamKey::fold_key`] justifies. The engine uses this to replay an
/// entire width × automaton grid column (e.g. GAg(6), GAg(8), …
/// GAg(12) across all five automata) over the single stream derived at
/// the column's widest width. Banks walk the stream in
/// `REPLAY_BLOCK`-event slices, interleaved, so the slice is read from
/// cache by every bank after the first.
///
/// The caller hands in a stream derived under the members' fold class
/// (no member wider than the stream, debug-asserted); per-lane members
/// (PAp) additionally require a laned stream. Given that, each member's
/// result is bit-identical to [`simulate`] without context switches —
/// the stream *is* the first level's output, and the bank transition
/// equals [`tlabp_core::pht::PatternHistoryTable::predict_update`] on
/// all inputs — for either kernel `mode`, which `tests/differential.rs`
/// pins for every catalog scheme and every automaton. Replay models no
/// context switches: a stream is one uninterrupted first-level walk.
///
/// Returns `None` (and replays nobody) unless every member has a
/// replayable second level.
///
/// # Example
///
/// ```
/// use tlabp_core::config::SchemeConfig;
/// use tlabp_core::SimdMode;
/// use tlabp_sim::runner::{derive_pattern_stream, replay_stream_key, simulate_replay_transposed};
/// use tlabp_trace::synth::LoopNest;
/// use tlabp_trace::InternedConds;
///
/// let trace = LoopNest::new(&[50, 20]).generate();
/// let interned = InternedConds::from_trace(&trace);
/// let config = SchemeConfig::pag(6);
/// let stream = derive_pattern_stream(&interned, replay_stream_key(config).unwrap());
/// let predictors = [config.build_any()?];
/// let results = simulate_replay_transposed(&predictors, &stream, SimdMode::Auto).unwrap();
/// assert!(results[0].accuracy() > 0.9);
/// # Ok::<(), tlabp_core::config::BuildError>(())
/// ```
#[must_use]
pub fn simulate_replay_transposed(
    predictors: &[AnyPredictor],
    stream: &PatternStream,
    mode: SimdMode,
) -> Option<Vec<SimResult>> {
    let mut banks = TransposedBanks::build(predictors, stream.history_bits(), stream.is_laned())?;
    banks.feed(stream.events(), stream.lanes(), mode);
    Some(banks.results(predictors, stream.len() as u64))
}

/// The streaming form of [`simulate_replay_transposed`]: walks a
/// persisted stream chunk-by-chunk through a [`StreamCursor`] instead
/// of a hydrated [`PatternStream`], so resident bytes stay bounded by
/// the cursor's window while the cursor's decode thread reads ahead.
///
/// Bit-identical to the in-memory form: replay is a left fold over the
/// event sequence (banks carry their state across feeds and never
/// interact), so any order-preserving chunking yields the same counts —
/// and the v3 writer additionally aligns stream chunks to
/// `REPLAY_BLOCK`, so even the interleaved block walk matches.
///
/// Returns `None` (before reading anything) unless every member has a
/// replayable second level, `Some(Err(..))` if the artifact turns out
/// corrupt or short mid-stream, and `Some(Ok(results))` otherwise.
#[must_use]
pub fn simulate_replay_transposed_streamed(
    predictors: &[AnyPredictor],
    cursor: &mut StreamCursor,
    mode: SimdMode,
) -> Option<Result<Vec<SimResult>, ReadTraceError>> {
    let mut banks = TransposedBanks::build(predictors, cursor.history_bits(), cursor.laned())?;
    let mut fed = 0u64;
    while let Some(next) = cursor.next_chunk() {
        match next {
            Ok(chunk) => {
                fed += chunk.events().len() as u64;
                banks.feed(chunk.events(), chunk.lanes(), mode);
            }
            Err(error) => return Some(Err(error)),
        }
    }
    if fed != cursor.events() {
        return Some(Err(ReadTraceError::Truncated { at_event: fed }));
    }
    Some(Ok(banks.results(predictors, fed)))
}

/// The bank state shared by [`simulate_replay_transposed`] and
/// [`simulate_replay_transposed_streamed`]: build once per batch, feed
/// any order-preserving sequence of event slices, then assemble the
/// per-member results.
struct TransposedBanks {
    /// Every bank with the batch indices of its members, in member order.
    banks: Vec<(Vec<usize>, TransposedPhtBank)>,
}

impl TransposedBanks {
    /// Groups member tables by (width, second-level form) in first-seen
    /// order, cuts each group into runs of at most [`LANES_PER_WORD`]
    /// members, and packs the cuts first-fit, in that order, into banks
    /// of at most [`LANES_PER_WORD`] members and [`MAX_FIELDS`] fields:
    /// each cut becomes one field of the first bank of its form with
    /// room for it, else of a new bank. Shared and per-lane members never
    /// share a bank. The result assembly is a pure function of the batch.
    /// `None` unless every member has a replayable second level.
    fn build(predictors: &[AnyPredictor], history_bits: u32, stream_laned: bool) -> Option<Self> {
        struct Group<'a> {
            width: u32,
            per_lane: bool,
            indices: Vec<usize>,
            tables: Vec<&'a PatternHistoryTable>,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (index, predictor) in predictors.iter().enumerate() {
            let (table, per_lane) = replay_table(predictor)?;
            let width = table.history_bits();
            match groups.iter_mut().find(|g| g.width == width && g.per_lane == per_lane) {
                Some(group) => {
                    group.indices.push(index);
                    group.tables.push(table);
                }
                None => {
                    groups.push(Group {
                        width,
                        per_lane,
                        indices: vec![index],
                        tables: vec![table],
                    });
                }
            }
        }
        struct Packed<'a> {
            per_lane: bool,
            fields: usize,
            indices: Vec<usize>,
            tables: Vec<&'a PatternHistoryTable>,
        }
        let mut packed: Vec<Packed> = Vec::new();
        for group in &groups {
            debug_assert!(group.width <= history_bits, "member wider than stream");
            debug_assert!(!group.per_lane || stream_laned, "per-lane replay needs a laned stream");
            let cuts =
                group.indices.chunks(LANES_PER_WORD).zip(group.tables.chunks(LANES_PER_WORD));
            for (indices, tables) in cuts {
                let fits = |bank: &&mut Packed| {
                    bank.per_lane == group.per_lane
                        && bank.fields < MAX_FIELDS
                        && bank.indices.len() + indices.len() <= LANES_PER_WORD
                };
                match packed.iter_mut().find(fits) {
                    Some(bank) => {
                        bank.fields += 1;
                        bank.indices.extend_from_slice(indices);
                        bank.tables.extend_from_slice(tables);
                    }
                    None => packed.push(Packed {
                        per_lane: group.per_lane,
                        fields: 1,
                        indices: indices.to_vec(),
                        tables: tables.to_vec(),
                    }),
                }
            }
        }
        let banks = packed
            .into_iter()
            .map(|bank| {
                let members = if bank.per_lane {
                    TransposedPhtBank::per_lane(&bank.tables)
                } else {
                    TransposedPhtBank::new(&bank.tables)
                };
                (bank.indices, members)
            })
            .collect();
        Some(TransposedBanks { banks })
    }

    /// Feeds one contiguous slice of the stream to every bank,
    /// interleaved in [`REPLAY_BLOCK`]-event sub-blocks so the slice
    /// stays cache-hot across banks. `lanes` is empty for an unlaned
    /// stream; shared banks never read it.
    fn feed(&mut self, events: &[u32], lanes: &[u32], mode: SimdMode) {
        for (block, events) in events.chunks(REPLAY_BLOCK).enumerate() {
            let start = block * REPLAY_BLOCK;
            let lanes = lanes.get(start..start + events.len()).unwrap_or_default();
            for (_, bank) in &mut self.banks {
                bank.replay(events, lanes, mode);
            }
        }
    }

    /// Collects each member's correct count back into batch order.
    fn results(self, predictors: &[AnyPredictor], predictions: u64) -> Vec<SimResult> {
        let mut corrects = vec![0u64; predictors.len()];
        for (indices, bank) in &self.banks {
            for (&index, &correct) in indices.iter().zip(bank.counts()) {
                corrects[index] = correct;
            }
        }
        predictors
            .iter()
            .zip(corrects)
            .map(|(predictor, correct)| SimResult {
                scheme: predictor.name(),
                predictions,
                correct,
                context_switches: 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlabp_core::automaton::Automaton;
    use tlabp_core::bht::BhtConfig;
    use tlabp_core::schemes::Pag;
    use tlabp_trace::synth::{LoopNest, RepeatingPattern};
    use tlabp_trace::{BranchRecord, TrapRecord};

    #[test]
    fn counts_only_conditional_branches() {
        let mut trace = Trace::new();
        trace.push(BranchRecord::conditional(0x10, true, 0x4, 1));
        trace.push(BranchRecord::unconditional(0x20, tlabp_trace::BranchClass::Call, 0x100, 2));
        trace.push(TrapRecord::new(0x104, 3));
        let mut p = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        let result = simulate(&mut p, &trace, &SimConfig::no_context_switch());
        assert_eq!(result.predictions, 1);
        assert_eq!(result.context_switches, 0);
    }

    #[test]
    fn perfect_on_learnable_pattern() {
        let trace = RepeatingPattern::new(&[true, true, false], 500).generate();
        let mut p = Pag::new(6, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        let result = simulate(&mut p, &trace, &SimConfig::default());
        // Warm-up mispredictions only.
        assert!(result.accuracy() > 0.97, "accuracy {}", result.accuracy());
    }

    #[test]
    fn trap_triggers_context_switch() {
        let mut trace = Trace::new();
        trace.push(BranchRecord::conditional(0x10, true, 0x4, 1));
        trace.push(TrapRecord::new(0x20, 2));
        trace.push(BranchRecord::conditional(0x10, true, 0x4, 3));
        let mut p = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        let result = simulate(&mut p, &trace, &SimConfig::paper_context_switch());
        assert_eq!(result.context_switches, 1);
    }

    #[test]
    fn interval_triggers_context_switch() {
        let mut trace = Trace::new();
        for i in 0..10u64 {
            trace.push(BranchRecord::conditional(0x10, true, 0x4, i * 300_000 + 1));
        }
        let mut p = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        let result = simulate(&mut p, &trace, &SimConfig::paper_context_switch());
        // Events at 1, 300_001, ..., 2_700_001: switches due at 500k,
        // then ~800k(+500k after firing at 900_001)... at least 4 fire.
        assert!(
            (4..=6).contains(&result.context_switches),
            "switches: {}",
            result.context_switches
        );
    }

    #[test]
    fn context_switches_hurt_accuracy_on_per_address_schemes() {
        // Dense traps: flush the BHT constantly.
        let mut trace = Trace::new();
        let pattern = [true, true, false];
        let mut instret = 0;
        for i in 0..3000u64 {
            instret += 4;
            trace.push(BranchRecord::conditional(0x40, pattern[(i % 3) as usize], 0x10, instret));
            if i % 10 == 9 {
                instret += 1;
                trace.push(TrapRecord::new(0x80, instret));
            }
        }
        let accuracy = |cfg: &SimConfig| {
            let mut p = Pag::new(6, BhtConfig::PAPER_DEFAULT, Automaton::A2);
            simulate(&mut p, &trace, cfg).accuracy()
        };
        let without = accuracy(&SimConfig::no_context_switch());
        let with = accuracy(&SimConfig::paper_context_switch());
        assert!(with < without, "flushing must hurt: with={with} without={without}");
    }

    fn dense(on_traps: bool) -> SimConfig {
        SimConfig {
            context_switch: Some(ContextSwitchConfig { interval_instructions: 100, on_traps }),
        }
    }

    #[test]
    fn schedule_counts_a_trap_and_an_interval_on_one_event_twice() {
        let mut trace = Trace::new();
        trace.push(BranchRecord::conditional(0x10, true, 0x4, 10));
        // Past the interval due at 100 *and* a trap: both rules fire.
        trace.push(TrapRecord::new(0x20, 150));
        trace.push(BranchRecord::conditional(0x10, true, 0x4, 160));
        let schedule = SwitchSchedule::new(&trace, &dense(true));
        assert_eq!(schedule.points, [(1, 2)]);
        assert_eq!(schedule.total(), 2);
        let mut p = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        assert_eq!(simulate(&mut p, &trace, &dense(true)).context_switches, 2);
        // Without traps only the interval fires.
        let schedule = SwitchSchedule::new(&trace, &dense(false));
        assert_eq!(schedule.points, [(1, 1)]);
    }

    #[test]
    fn switches_after_the_last_conditional_only_count() {
        let mut trace = Trace::new();
        trace.push(BranchRecord::conditional(0x10, true, 0x4, 10));
        trace.push(BranchRecord::conditional(0x10, false, 0x4, 20));
        trace.push(TrapRecord::new(0x20, 30));
        trace.push(TrapRecord::new(0x20, 40));
        let schedule = SwitchSchedule::new(&trace, &dense(true));
        assert!(schedule.points.is_empty(), "{schedule:?}");
        assert_eq!(schedule.total(), 2);
        assert!(!schedule.is_empty());
        let mut batch = [Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2)];
        let walked = simulate_fused(&mut batch, &InternedConds::from_trace(&trace), &schedule);
        let mut p = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        assert_eq!(walked[0], simulate(&mut p, &trace, &dense(true)));
        assert_eq!(walked[0].context_switches, 2);
    }

    #[test]
    fn schedule_is_empty_without_a_context_switch_model() {
        let mut trace = Trace::new();
        for i in 0..50u64 {
            trace.push(BranchRecord::conditional(0x10, i % 3 == 0, 0x4, i * 100));
            trace.push(TrapRecord::new(0x20, i * 100 + 50));
        }
        let schedule = SwitchSchedule::new(&trace, &SimConfig::no_context_switch());
        assert_eq!(schedule, SwitchSchedule::default());
        assert!(schedule.is_empty());
        assert!(!SwitchSchedule::new(&trace, &dense(true)).is_empty());
    }

    #[test]
    fn accuracy_of_empty_trace_is_zero() {
        let mut p = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        let result = simulate(&mut p, &Trace::new(), &SimConfig::default());
        assert_eq!(result.accuracy(), 0.0);
        assert_eq!(result.miss_rate(), 1.0);
    }

    #[test]
    fn fused_batch_matches_simulate_per_predictor() {
        use tlabp_core::config::SchemeConfig;
        use tlabp_trace::synth::MarkovBranches;

        let trace = MarkovBranches::new(16, 0.85, 3000, 23).generate();
        let interned = InternedConds::from_trace(&trace);
        // A batch larger than one chunk's worth of variety: ideal and
        // cache BHTs, per-address tables, static schemes, and members
        // whose first levels have equal geometry (PAg + PAp on
        // BHT(512,4,8), and on the ideal table at 12 bits), each walking
        // its own tables.
        let configs = [
            SchemeConfig::pag(8),
            SchemeConfig::pag(8).with_automaton(tlabp_core::automaton::Automaton::A3),
            SchemeConfig::pap(8),
            SchemeConfig::pag(12).with_bht(tlabp_core::bht::BhtConfig::Ideal),
            SchemeConfig::pap(12).with_bht(tlabp_core::bht::BhtConfig::Ideal),
            SchemeConfig::pap(6),
            SchemeConfig::gag(10),
            SchemeConfig::btfn(),
        ];
        let mut batch: Vec<_> = configs.iter().map(|c| c.build_any().expect("builds")).collect();
        let fused = simulate_fused(&mut batch, &interned, &SwitchSchedule::default());
        for (config, fused_result) in configs.iter().zip(&fused) {
            let mut alone = config.build_any().expect("builds");
            let reference = simulate(&mut alone, &trace, &SimConfig::no_context_switch());
            assert_eq!(fused_result, &reference, "{config}");
        }
    }

    #[test]
    fn fused_batch_on_empty_stream_reports_zero_predictions() {
        use tlabp_core::config::SchemeConfig;
        let mut batch = vec![SchemeConfig::gag(6).build_any().expect("builds")];
        let results =
            simulate_fused(&mut batch, &InternedConds::default(), &SwitchSchedule::default());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].predictions, 0);
        assert_eq!(results[0].accuracy(), 0.0);
    }

    #[test]
    fn replay_matches_simulate_for_every_stream_key_scheme() {
        use tlabp_core::config::SchemeConfig;
        use tlabp_trace::synth::MarkovBranches;

        let trace = MarkovBranches::new(24, 0.8, 4000, 7).generate();
        let interned = InternedConds::from_trace(&trace);
        let configs = [
            SchemeConfig::gag(8),
            SchemeConfig::pag(8),
            SchemeConfig::pag(8).with_automaton(Automaton::LastTime),
            SchemeConfig::pap(6),
            SchemeConfig::pap(10).with_bht(BhtConfig::Ideal),
        ];
        for config in configs {
            let key = replay_stream_key(config).expect("two-level scheme");
            let stream = derive_pattern_stream(&interned, key);
            assert_eq!(stream.len(), interned.len());
            let mut alone = config.build_any().expect("builds");
            let reference = simulate(&mut alone, &trace, &SimConfig::no_context_switch());
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let predictors = [config.build_any().expect("builds")];
                let replayed =
                    simulate_replay_transposed(&predictors, &stream, mode).expect("replayable");
                assert_eq!(replayed[0], reference, "{config} under {mode:?}");
            }
        }
    }

    #[test]
    fn schemes_without_second_level_have_no_stream_key() {
        use tlabp_core::config::SchemeConfig;
        assert!(replay_stream_key(SchemeConfig::btfn()).is_none());
        assert!(replay_stream_key(SchemeConfig::always_taken()).is_none());
        assert!(replay_stream_key(SchemeConfig::btb(Automaton::A2)).is_none());
        let predictors = [SchemeConfig::btfn().build_any().expect("builds")];
        let stream = PatternStream::new(4, false);
        assert!(simulate_replay_transposed(&predictors, &stream, SimdMode::Auto).is_none());
    }

    #[test]
    fn same_key_configs_share_one_stream() {
        use tlabp_core::config::SchemeConfig;
        let pag = replay_stream_key(SchemeConfig::pag(12)).unwrap();
        let pap = replay_stream_key(SchemeConfig::pap(12)).unwrap();
        let psg = replay_stream_key(SchemeConfig::psg(12)).unwrap();
        assert_eq!(pag, pap);
        assert_eq!(pag, psg);
        let gag = replay_stream_key(SchemeConfig::gag(12)).unwrap();
        let gsg = replay_stream_key(SchemeConfig::gsg(12)).unwrap();
        assert_eq!(gag, gsg);
        assert_ne!(gag, pag);
        assert_ne!(pag, replay_stream_key(SchemeConfig::pag(10)).unwrap());
        assert_ne!(
            pag,
            replay_stream_key(SchemeConfig::pag(12).with_bht(BhtConfig::Ideal)).unwrap()
        );
    }

    #[test]
    fn stream_key_bytes_round_trip_and_reject_garbage() {
        let keys = [
            StreamKey::Global { history_bits: 18 },
            StreamKey::Bht(BhtSignature { config: BhtConfig::Ideal, history_bits: 6 }),
            StreamKey::Bht(BhtSignature { config: BhtConfig::PAPER_DEFAULT, history_bits: 12 }),
            StreamKey::Bht(BhtSignature {
                config: BhtConfig::Cache { entries: 256, ways: 1 },
                history_bits: 24,
            }),
        ];
        let mut encodings = std::collections::HashSet::new();
        for key in keys {
            let bytes = key.to_bytes();
            assert_eq!(StreamKey::from_bytes(&bytes), Some(key));
            assert!(encodings.insert(bytes), "{key:?}: encoding collides");
        }
        assert_eq!(StreamKey::from_bytes(&[]), None);
        assert_eq!(StreamKey::from_bytes(&[9, 0, 0, 0, 0]), None);
        assert_eq!(StreamKey::from_bytes(&[0, 0, 0, 0]), None, "short global");
        let mut long = StreamKey::Global { history_bits: 4 }.to_bytes();
        long.push(0);
        assert_eq!(StreamKey::from_bytes(&long), None, "trailing byte");
    }

    #[test]
    fn fold_keys_erase_width_and_nothing_else() {
        use tlabp_core::config::SchemeConfig;
        let gag8 = replay_stream_key(SchemeConfig::gag(8)).unwrap();
        let gag12 = replay_stream_key(SchemeConfig::gag(12)).unwrap();
        assert_eq!(gag8.fold_key(), gag12.fold_key());
        assert_eq!(gag8.with_history_bits(12), gag12);
        let pag8 = replay_stream_key(SchemeConfig::pag(8)).unwrap();
        let pag12 = replay_stream_key(SchemeConfig::pag(12)).unwrap();
        assert_eq!(pag8.fold_key(), pag12.fold_key());
        assert_eq!(pag8.with_history_bits(12), pag12);
        assert_ne!(gag8.fold_key(), pag8.fold_key());
        let ideal = replay_stream_key(SchemeConfig::pag(8).with_bht(BhtConfig::Ideal)).unwrap();
        assert_ne!(pag8.fold_key(), ideal.fold_key());
        assert_eq!(ideal.history_bits(), ideal.with_history_bits(8).history_bits());
    }

    /// The width fold itself: a stream derived at width `K` carries, per
    /// event, the width-`k` pattern in its low `k` bits, and identical
    /// lanes — for both fold classes.
    #[test]
    fn wider_streams_embed_narrower_streams() {
        use tlabp_trace::synth::MarkovBranches;
        use tlabp_trace::InternedConds;
        let trace = MarkovBranches::new(24, 0.8, 4000, 11).generate();
        let interned = InternedConds::from_packed(&trace.pack_conditionals());
        let keys = [
            StreamKey::Global { history_bits: 12 },
            StreamKey::Bht(BhtSignature { config: BhtConfig::PAPER_DEFAULT, history_bits: 12 }),
            StreamKey::Bht(BhtSignature { config: BhtConfig::Ideal, history_bits: 12 }),
        ];
        for wide_key in keys {
            let wide = derive_pattern_stream(&interned, wide_key);
            let narrow = derive_pattern_stream(&interned, wide_key.with_history_bits(6));
            assert_eq!(wide.len(), narrow.len());
            let mask = (1u32 << 6) - 1;
            for (&wide_event, &narrow_event) in wide.events().iter().zip(narrow.events()) {
                let folded = ((PatternStream::event_pattern(wide_event) as u32 & mask) << 1)
                    | u32::from(PatternStream::event_taken(wide_event));
                assert_eq!(folded, narrow_event, "{wide_key:?}");
            }
            if wide.is_laned() {
                assert_eq!(wide.lanes(), narrow.lanes(), "{wide_key:?}");
            }
        }
    }

    /// Transposed replay over a *wider* shared stream must equal each
    /// member's own reference simulation — the fold group contract.
    #[test]
    fn transposed_replay_matches_per_member_replay_across_widths() {
        use tlabp_core::config::SchemeConfig;
        use tlabp_trace::synth::MarkovBranches;
        use tlabp_trace::InternedConds;

        let trace = MarkovBranches::new(24, 0.8, 5000, 3).generate();
        let interned = InternedConds::from_packed(&trace.pack_conditionals());
        let cases: [(&[SchemeConfig], StreamKey); 2] = [
            (
                &[
                    SchemeConfig::gag(6),
                    SchemeConfig::gag(10),
                    SchemeConfig::gag(10).with_automaton(Automaton::LastTime),
                    SchemeConfig::gag(8).with_automaton(Automaton::A3),
                ],
                StreamKey::Global { history_bits: 10 },
            ),
            (
                &[
                    SchemeConfig::pag(6),
                    SchemeConfig::pag(10),
                    SchemeConfig::pap(6),
                    SchemeConfig::pap(10).with_automaton(Automaton::A4),
                    SchemeConfig::pag(8).with_automaton(Automaton::A1),
                ],
                StreamKey::Bht(BhtSignature { config: BhtConfig::PAPER_DEFAULT, history_bits: 10 }),
            ),
        ];
        for (configs, rep_key) in cases {
            let shared = derive_pattern_stream(&interned, rep_key);
            let predictors: Vec<AnyPredictor> =
                configs.iter().map(|c| c.build_any().expect("builds")).collect();
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let transposed =
                    simulate_replay_transposed(&predictors, &shared, mode).expect("replayable");
                for (config, result) in configs.iter().zip(&transposed) {
                    let own_key = replay_stream_key(*config).expect("two-level");
                    assert_eq!(own_key.fold_key(), rep_key.fold_key());
                    let mut predictor = config.build().expect("builds");
                    let own = simulate(&mut *predictor, &trace, &SimConfig::no_context_switch());
                    assert_eq!(result, &own, "{config} under {mode:?}");
                }
            }
        }
    }

    /// The packing rule on the grid plan's li fold groups: five widths
    /// of five automata per scheme, so each (width, form) group is one
    /// five-member cut. Packed first-fit (three cuts fill 15 of a
    /// bank's 16 nibbles), the Global group's 25 GAg members take 2
    /// banks and the BHT group's 25 PAg and 25 PAp members 4, two of
    /// each form; one bank per width would take 5 and 10.
    #[test]
    fn grid_fold_groups_pack_into_few_banks() {
        use crate::plan::{Plan, PredictorSpec};

        let plan =
            Plan::from_json_str(include_str!("../../../benchmark/plans/grid.plan.json").trim_end())
                .expect("the grid plan decodes");
        let mut groups: Vec<(FoldKey, Vec<AnyPredictor>)> = Vec::new();
        for job in plan.jobs().iter().filter(|job| job.trace.benchmark.name() == "li") {
            let PredictorSpec::Scheme(config) = job.spec else { panic!("a catalog scheme") };
            let fold = replay_stream_key(config).expect("a replayable scheme").fold_key();
            let predictor = config.build_any().expect("an untrained scheme builds");
            match groups.iter_mut().find(|(key, _)| *key == fold) {
                Some((_, members)) => members.push(predictor),
                None => groups.push((fold, vec![predictor])),
            }
        }
        // Each bank as (per-lane, members, fields).
        let want = |fold: FoldKey| match fold {
            FoldKey::Global => vec![(false, 15, 3), (false, 10, 2)],
            FoldKey::Bht(_) => vec![(false, 15, 3), (false, 10, 2), (true, 15, 3), (true, 10, 2)],
        };
        assert_eq!(groups.len(), 2, "li's Global and 512x4 BHT groups");
        for (fold, members) in &groups {
            assert_eq!(members.len(), if *fold == FoldKey::Global { 25 } else { 50 });
            let laned = matches!(fold, FoldKey::Bht(_));
            let banks = TransposedBanks::build(members, 12, laned).expect("replayable");
            let shapes: Vec<(bool, usize, usize)> = banks
                .banks
                .iter()
                .map(|(indices, bank)| {
                    let per_lane = matches!(members[indices[0]], AnyPredictor::Pap(_));
                    (per_lane, bank.members(), bank.fields())
                })
                .collect();
            assert_eq!(shapes, want(*fold), "{fold:?}");
        }
    }

    #[test]
    fn transposed_replay_refuses_non_replayable_members() {
        use tlabp_core::config::SchemeConfig;
        let predictors = vec![
            SchemeConfig::gag(6).build_any().expect("builds"),
            SchemeConfig::btfn().build_any().expect("builds"),
        ];
        let stream = PatternStream::new(6, false);
        assert!(simulate_replay_transposed(&predictors, &stream, SimdMode::Auto).is_none());
    }

    #[test]
    fn result_carries_scheme_name() {
        let trace = LoopNest::new(&[4]).generate();
        let mut p = Pag::new(4, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        let result = simulate(&mut p, &trace, &SimConfig::default());
        assert!(result.scheme.starts_with("PAg("));
    }
}
