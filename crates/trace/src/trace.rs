//! In-memory traces: ordered sequences of branch and trap events.

use crate::record::{BranchRecord, TrapRecord};

/// One event in an instruction trace.
///
/// A trace records only the events the branch-prediction study needs —
/// branches and traps — each stamped with the cumulative dynamic instruction
/// count, rather than every executed instruction. This matches the
/// information content the paper's simulator extracts from its full
/// Motorola 88100 instruction traces while staying compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A dynamic branch instance.
    Branch(BranchRecord),
    /// A trap (context-switch trigger).
    Trap(TrapRecord),
}

impl TraceEvent {
    /// The cumulative instruction count at this event.
    #[must_use]
    pub fn instret(&self) -> u64 {
        match self {
            TraceEvent::Branch(b) => b.instret,
            TraceEvent::Trap(t) => t.instret,
        }
    }

    /// The program counter of the instruction that produced this event.
    #[must_use]
    pub fn pc(&self) -> u64 {
        match self {
            TraceEvent::Branch(b) => b.pc,
            TraceEvent::Trap(t) => t.pc,
        }
    }

    /// Returns the contained branch record, if this is a branch event.
    #[must_use]
    pub fn as_branch(&self) -> Option<&BranchRecord> {
        match self {
            TraceEvent::Branch(b) => Some(b),
            TraceEvent::Trap(_) => None,
        }
    }
}

impl From<BranchRecord> for TraceEvent {
    fn from(record: BranchRecord) -> Self {
        TraceEvent::Branch(record)
    }
}

impl From<TrapRecord> for TraceEvent {
    fn from(record: TrapRecord) -> Self {
        TraceEvent::Trap(record)
    }
}

/// An ordered, in-memory instruction trace.
///
/// `Trace` wraps a vector of [`TraceEvent`]s in program order together with
/// the total number of instructions the generating run executed (which may
/// exceed the `instret` of the final event, since non-branch instructions
/// can follow the last branch).
///
/// # Example
///
/// ```
/// use tlabp_trace::{BranchRecord, Trace, TraceEvent};
///
/// let mut trace = Trace::new();
/// trace.push(BranchRecord::conditional(0x10, true, 0x4, 5));
/// trace.push(BranchRecord::conditional(0x10, false, 0x4, 9));
/// trace.set_total_instructions(12);
///
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.conditional_branches().count(), 2);
/// assert_eq!(trace.total_instructions(), 12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    total_instructions: u64,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with pre-allocated capacity for `n` events.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Trace { events: Vec::with_capacity(n), total_instructions: 0 }
    }

    /// Creates a trace from a vector of events.
    ///
    /// `total_instructions` is initialized to the last event's `instret`
    /// (0 if empty); adjust it with [`Trace::set_total_instructions`] if the
    /// run continued past the last event.
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let total = events.last().map_or(0, TraceEvent::instret);
        Trace { events, total_instructions: total }
    }

    /// Appends an event (anything convertible into [`TraceEvent`]).
    ///
    /// The total instruction count is raised to the event's `instret` if it
    /// was lower.
    pub fn push(&mut self, event: impl Into<TraceEvent>) {
        let event = event.into();
        self.total_instructions = self.total_instructions.max(event.instret());
        self.events.push(event);
    }

    /// Number of events (branches + traps) in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total dynamic instructions executed by the generating run.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Overrides the total dynamic instruction count.
    ///
    /// # Panics
    ///
    /// Panics if `total` is less than the `instret` of the last event.
    pub fn set_total_instructions(&mut self, total: u64) {
        let min = self.events.last().map_or(0, TraceEvent::instret);
        assert!(total >= min, "total instructions {total} below final event instret {min}");
        self.total_instructions = total;
    }

    /// All events in program order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterates over all events.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Iterates over all branch records (any class), in program order.
    pub fn branches(&self) -> impl Iterator<Item = &BranchRecord> {
        self.events.iter().filter_map(TraceEvent::as_branch)
    }

    /// Iterates over conditional-branch records only, in program order.
    pub fn conditional_branches(&self) -> impl Iterator<Item = &BranchRecord> {
        self.branches().filter(|b| b.class.is_conditional())
    }

    /// The `(pc, taken)` pair of every conditional branch, in program
    /// order: all a profiling pass reads (see
    /// [`crate::InternedConds::outcomes`] for the same pairs from the
    /// interned stream).
    pub fn conditional_outcomes(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.conditional_branches().map(|b| (b.pc, b.taken))
    }

    /// Heap bytes the event vector has allocated (its capacity, not its
    /// length).
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<TraceEvent>()
    }

    /// Packs every conditional branch into the compact [`PackedCond`]
    /// stream that interning ([`crate::InternedConds::from_packed`]) reads.
    #[must_use]
    pub fn pack_conditionals(&self) -> Vec<PackedCond> {
        self.conditional_branches().map(PackedCond::from_record).collect()
    }

    /// Appends every event of `other` after this trace's events.
    ///
    /// Events of `other` have their `instret` shifted by this trace's
    /// current total so the combined trace remains monotonic — useful for
    /// splicing per-phase traces together.
    pub fn append_shifted(&mut self, other: &Trace) {
        let base = self.total_instructions;
        for event in &other.events {
            let shifted = match *event {
                TraceEvent::Branch(mut b) => {
                    b.instret += base;
                    TraceEvent::Branch(b)
                }
                TraceEvent::Trap(mut t) => {
                    t.instret += base;
                    TraceEvent::Trap(t)
                }
            };
            self.events.push(shifted);
        }
        self.total_instructions = base + other.total_instructions;
    }
}

/// A conditional branch compressed into one 64-bit word:
/// `pc << 2 | backward << 1 | taken`.
///
/// The simulation hot loop only ever reads three things from a
/// conditional branch: its address (indexes every per-address structure),
/// its resolved direction, and whether it jumps backward (the BTFN
/// discriminator). Packing those into 8 bytes — versus the 40-byte
/// [`TraceEvent`] — lets the no-context-switch fast path stream 5× fewer
/// bytes per event through the cache.
///
/// # Example
///
/// ```
/// use tlabp_trace::{BranchRecord, PackedCond};
///
/// let record = BranchRecord::conditional(0x1000, true, 0x0f00, 7);
/// let packed = PackedCond::from_record(&record);
/// assert_eq!(packed.pc(), 0x1000);
/// assert!(packed.taken());
/// assert!(packed.is_backward());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct PackedCond(u64);

impl PackedCond {
    /// How many program-counter bits the packing preserves: the two flag
    /// bits leave 62 of the 64 for the address.
    pub const PC_BITS: u32 = 62;

    /// Mask selecting the packable low [`PackedCond::PC_BITS`] of a pc.
    pub const PC_MASK: u64 = (1 << Self::PC_BITS) - 1;

    /// Packs the three prediction-relevant fields into one word.
    ///
    /// Addresses wider than [`PackedCond::PC_BITS`] are masked to their
    /// low 62 bits — deterministically, in every build profile. (Every
    /// trace generator in this repository stays far below that bound;
    /// the mask pins the behavior for arbitrary external traces instead
    /// of letting the shift silently drop bits in release and trap in
    /// debug.)
    #[must_use]
    pub fn new(pc: u64, taken: bool, backward: bool) -> Self {
        PackedCond((pc & Self::PC_MASK) << 2 | u64::from(backward) << 1 | u64::from(taken))
    }

    /// Packs a conditional branch record.
    #[must_use]
    pub fn from_record(record: &BranchRecord) -> Self {
        PackedCond::new(record.pc, record.taken, record.is_backward())
    }

    /// The branch instruction's address.
    #[must_use]
    pub fn pc(self) -> u64 {
        self.0 >> 2
    }

    /// The resolved direction.
    #[must_use]
    pub fn taken(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether the branch jumps backward (target ≤ pc).
    #[must_use]
    pub fn is_backward(self) -> bool {
        self.0 & 2 != 0
    }

    /// The raw 64-bit encoding (`pc << 2 | backward << 1 | taken`) — the
    /// value the artifact container's packed section delta-encodes
    /// ([`crate::io`]).
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstructs a packed conditional from its raw encoding.
    ///
    /// Every 64-bit value is a valid encoding (the pc field spans the
    /// full remaining width), so this is total — the inverse of
    /// [`PackedCond::bits`].
    #[must_use]
    pub fn from_bits(bits: u64) -> Self {
        PackedCond(bits)
    }

    /// Expands back into a [`BranchRecord`] carrying exactly the
    /// information predictors observe.
    ///
    /// The target is synthesized to preserve [`BranchRecord::is_backward`]
    /// and `instret` is zeroed — neither is read by any predictor, so a
    /// simulation over expanded records is bit-identical to one over the
    /// original conditional branches (see the differential tests).
    #[must_use]
    pub fn to_record(self) -> BranchRecord {
        let pc = self.pc();
        let target = if self.is_backward() { pc } else { pc + 4 };
        BranchRecord::conditional(pc, self.taken(), target, 0)
    }
}

impl From<&BranchRecord> for PackedCond {
    fn from(record: &BranchRecord) -> Self {
        PackedCond::from_record(record)
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Trace::from_events(iter.into_iter().collect())
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        for event in iter {
            self.push(event);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceEvent;
    type IntoIter = std::vec::IntoIter<TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchClass;

    fn cond(pc: u64, taken: bool, instret: u64) -> BranchRecord {
        BranchRecord::conditional(pc, taken, pc + 8, instret)
    }

    #[test]
    fn push_tracks_total_instructions() {
        let mut t = Trace::new();
        t.push(cond(0x10, true, 4));
        t.push(TrapRecord::new(0x20, 9));
        assert_eq!(t.total_instructions(), 9);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn from_events_uses_last_instret() {
        let t = Trace::from_events(vec![cond(0, true, 3).into(), cond(0, false, 7).into()]);
        assert_eq!(t.total_instructions(), 7);
    }

    #[test]
    fn conditional_filter_skips_other_classes() {
        let mut t = Trace::new();
        t.push(cond(0x10, true, 1));
        t.push(BranchRecord::unconditional(0x18, BranchClass::Call, 0x100, 2));
        t.push(cond(0x110, false, 3));
        assert_eq!(t.conditional_branches().count(), 2);
        assert_eq!(t.branches().count(), 3);
    }

    #[test]
    #[should_panic(expected = "below final event")]
    fn set_total_rejects_regression() {
        let mut t = Trace::new();
        t.push(cond(0, true, 10));
        t.set_total_instructions(5);
    }

    #[test]
    fn append_shifted_keeps_monotonic_instret() {
        let mut a = Trace::new();
        a.push(cond(0x10, true, 5));
        a.set_total_instructions(8);
        let mut b = Trace::new();
        b.push(cond(0x20, false, 3));
        b.set_total_instructions(4);

        a.append_shifted(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.events()[1].instret(), 11);
        assert_eq!(a.total_instructions(), 12);
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = vec![TraceEvent::from(cond(0, true, 1))].into_iter().collect();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iteration_both_ways() {
        let mut t = Trace::new();
        t.push(cond(0, true, 1));
        assert_eq!((&t).into_iter().count(), 1);
        assert_eq!(t.clone().into_iter().count(), 1);
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn packed_cond_round_trips_any_packable_pc() {
        use crate::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x9A11);
        for i in 0..10_000u64 {
            // Cover the full packable width, including the top bits: draw
            // a random bit width in [1, 62] and a random pc below it.
            let bits = rng.next_range(1, u64::from(PackedCond::PC_BITS) + 1) as u32;
            let pc = rng.next_u64() >> (64 - bits);
            let taken = rng.random_bool(0.5);
            let backward = rng.random_bool(0.5);
            let packed = PackedCond::new(pc, taken, backward);
            assert_eq!(packed.pc(), pc, "iteration {i}: pc {pc:#x} ({bits} bits)");
            assert_eq!(packed.taken(), taken, "iteration {i}");
            assert_eq!(packed.is_backward(), backward, "iteration {i}");
            let record = packed.to_record();
            assert_eq!(record.pc, pc);
            assert_eq!(record.taken, taken);
            assert_eq!(record.is_backward(), backward);
        }
    }

    #[test]
    fn packed_cond_masks_out_of_range_pcs_deterministically() {
        use crate::rng::SmallRng;
        assert_eq!(PackedCond::PC_BITS, 62, "pc << 2 leaves 62 bits");
        let mut rng = SmallRng::seed_from_u64(0x9A12);
        for _ in 0..10_000u64 {
            // Force at least one of the two unpackable top bits on.
            let pc = rng.next_u64() | 1 << 63;
            let taken = rng.random_bool(0.5);
            let backward = rng.random_bool(0.5);
            let wide = PackedCond::new(pc, taken, backward);
            let masked = PackedCond::new(pc & PackedCond::PC_MASK, taken, backward);
            assert_eq!(wide, masked, "out-of-range pc {pc:#x} must mask, not scramble");
            assert_eq!(wide.pc(), pc & PackedCond::PC_MASK);
            assert_eq!(wide.taken(), taken);
            assert_eq!(wide.is_backward(), backward);
        }
    }

    #[test]
    fn packed_cond_round_trips_structured_records() {
        use crate::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x9A13);
        for i in 0..2_000u64 {
            let pc = rng.next_below(PackedCond::PC_MASK + 1);
            let taken = rng.random_bool(0.7);
            // Exercise both forward and backward targets around pc.
            let target = if rng.random_bool(0.5) { pc.saturating_sub(16) } else { pc + 16 };
            let record = BranchRecord::conditional(pc, taken, target, i);
            let packed = PackedCond::from_record(&record);
            let rebuilt = packed.to_record();
            assert_eq!(rebuilt.pc, record.pc);
            assert_eq!(rebuilt.taken, record.taken);
            assert_eq!(rebuilt.is_backward(), record.is_backward());
        }
    }
}
