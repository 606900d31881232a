//! Individual trace events: branch records and trap records.

use std::fmt;

/// The class of a dynamic branch instruction.
///
/// The paper's Figure 4 breaks dynamic branches down into these four
/// classes and observes that about 80 percent of them are conditional,
/// motivating its focus on conditional-branch prediction. Only
/// [`BranchClass::Conditional`] records are predicted; the other classes
/// participate in the branch-mix statistics and in target-cache modelling.
///
/// # Example
///
/// ```
/// use tlabp_trace::BranchClass;
///
/// assert!(BranchClass::Conditional.is_conditional());
/// assert!(!BranchClass::Call.is_conditional());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchClass {
    /// A conditional branch; may be taken or not taken.
    Conditional,
    /// An unconditional jump; always taken.
    Unconditional,
    /// A subroutine call; always taken.
    Call,
    /// A subroutine return; always taken, target depends on call site.
    Return,
}

impl BranchClass {
    /// All branch classes, in the order used by reports.
    pub const ALL: [BranchClass; 4] = [
        BranchClass::Conditional,
        BranchClass::Unconditional,
        BranchClass::Call,
        BranchClass::Return,
    ];

    /// Returns `true` for [`BranchClass::Conditional`].
    #[must_use]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchClass::Conditional)
    }

    /// A compact single-byte encoding, shared by the artifact container's
    /// trace chunks and `TLBE` jump packets.
    #[must_use]
    pub(crate) fn to_tag(self) -> u8 {
        match self {
            BranchClass::Conditional => 0,
            BranchClass::Unconditional => 1,
            BranchClass::Call => 2,
            BranchClass::Return => 3,
        }
    }

    /// Inverse of [`BranchClass::to_tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(BranchClass::Conditional),
            1 => Some(BranchClass::Unconditional),
            2 => Some(BranchClass::Call),
            3 => Some(BranchClass::Return),
            _ => None,
        }
    }
}

impl fmt::Display for BranchClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BranchClass::Conditional => "conditional",
            BranchClass::Unconditional => "unconditional",
            BranchClass::Call => "call",
            BranchClass::Return => "return",
        };
        f.write_str(name)
    }
}

/// One dynamic branch instance observed by the trace generator.
///
/// This is the unit of information the branch-prediction simulator consumes:
/// the branch instruction's address (used to index per-address structures and
/// as the profiling key), its class, the resolved direction, the resolved
/// target address (used by the backward-taken/forward-not-taken static
/// scheme and the target cache), and the cumulative dynamic instruction
/// count `instret` at which the branch executed (used to schedule the
/// 500 000-instruction context-switch interval of the paper's Section 5.1.4).
///
/// # Example
///
/// ```
/// use tlabp_trace::{BranchClass, BranchRecord};
///
/// let backward = BranchRecord::conditional(0x100, true, 0x0c0, 17);
/// assert!(backward.is_backward());
/// assert_eq!(backward.class, BranchClass::Conditional);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Address of the branch instruction.
    pub pc: u64,
    /// Which class of branch this is.
    pub class: BranchClass,
    /// Resolved direction. Always `true` for non-conditional classes.
    pub taken: bool,
    /// Resolved target address (the address control transfers to if taken).
    pub target: u64,
    /// Cumulative dynamic instruction count at this branch (1-based: the
    /// branch itself is the `instret`-th instruction executed).
    pub instret: u64,
}

impl BranchRecord {
    /// Creates a conditional-branch record.
    #[must_use]
    pub fn conditional(pc: u64, taken: bool, target: u64, instret: u64) -> Self {
        BranchRecord { pc, class: BranchClass::Conditional, taken, target, instret }
    }

    /// Creates an always-taken record of the given non-conditional class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`BranchClass::Conditional`]; use
    /// [`BranchRecord::conditional`] for those.
    #[must_use]
    pub fn unconditional(pc: u64, class: BranchClass, target: u64, instret: u64) -> Self {
        assert!(!class.is_conditional(), "use BranchRecord::conditional for conditional branches");
        BranchRecord { pc, class, taken: true, target, instret }
    }

    /// Whether the branch's target precedes the branch itself in the address
    /// space — the discriminator used by the BTFN static scheme ("if the
    /// branch is backward, predict taken; if forward, predict not taken").
    #[must_use]
    pub fn is_backward(&self) -> bool {
        self.target <= self.pc
    }
}

/// A trap (system-call or exception) event in the trace.
///
/// The paper simulates a context switch "whenever a trap occurs in the
/// instruction trace or every 500,000 instructions if no trap occurs"
/// (Section 5.1.4). Trap records carry the trapping instruction's address
/// and the cumulative instruction count so the simulator can honor both
/// triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrapRecord {
    /// Address of the trapping instruction.
    pub pc: u64,
    /// Cumulative dynamic instruction count at the trap.
    pub instret: u64,
}

impl TrapRecord {
    /// Creates a trap record.
    #[must_use]
    pub fn new(pc: u64, instret: u64) -> Self {
        TrapRecord { pc, instret }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_class_tag_round_trip() {
        for class in BranchClass::ALL {
            assert_eq!(BranchClass::from_tag(class.to_tag()), Some(class));
        }
        assert_eq!(BranchClass::from_tag(200), None);
    }

    #[test]
    fn branch_class_display_names() {
        assert_eq!(BranchClass::Conditional.to_string(), "conditional");
        assert_eq!(BranchClass::Return.to_string(), "return");
    }

    #[test]
    fn conditional_constructor_sets_class() {
        let r = BranchRecord::conditional(0x40, false, 0x80, 3);
        assert_eq!(r.class, BranchClass::Conditional);
        assert!(!r.taken);
        assert_eq!(r.instret, 3);
    }

    #[test]
    fn unconditional_constructor_is_taken() {
        let r = BranchRecord::unconditional(0x40, BranchClass::Call, 0x2000, 9);
        assert!(r.taken);
        assert_eq!(r.class, BranchClass::Call);
    }

    #[test]
    #[should_panic(expected = "conditional")]
    fn unconditional_constructor_rejects_conditional_class() {
        let _ = BranchRecord::unconditional(0, BranchClass::Conditional, 0, 0);
    }

    #[test]
    fn backward_detection() {
        assert!(BranchRecord::conditional(0x100, true, 0x100, 0).is_backward());
        assert!(BranchRecord::conditional(0x100, true, 0xff, 0).is_backward());
        assert!(!BranchRecord::conditional(0x100, true, 0x104, 0).is_backward());
    }
}
