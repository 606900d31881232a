//! The compact branch stream: every branch of a trace, one word each.
//!
//! A full [`Trace`] spends 32 bytes per event on branches and traps
//! alike, and most of them repeat: a static branch always has the same
//! class, and (on every workload here) a conditional branch always
//! jumps to the same target. A [`BranchStream`] keeps each distinct
//! `(pc, class, target)` once, in a table of sites, and each dynamic
//! branch as one `u32`: its site id and its direction. It drops traps
//! and instruction counts, which only the context-switch schedule reads.
//!
//! # Example
//!
//! ```
//! use tlabp_trace::synth::LoopNest;
//! use tlabp_trace::BranchStream;
//!
//! let trace = LoopNest::new(&[10, 4]).generate();
//! let stream = BranchStream::from_trace(&trace);
//! assert_eq!(stream.len(), trace.branches().count());
//! assert!(stream.sites() < stream.len());
//! let first = stream.iter().next().expect("the loops branch");
//! assert_eq!(first.pc, trace.branches().next().unwrap().pc);
//! ```

use std::collections::HashMap;

use crate::record::{BranchClass, BranchRecord};
use crate::trace::Trace;

/// Every branch of a trace in program order, as `site << 1 | taken`,
/// where `site` indexes the stream's table of distinct
/// `(pc, class, target)` records.
///
/// [`BranchStream::iter`] expands each word back into the trace's
/// [`BranchRecord`] with `instret` 0. The table holds whole records, so
/// a branch whose target changes between executions (a return, an
/// indirect jump) takes one site per target and loses nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchStream {
    words: Vec<u32>,
    /// One record per site, with `taken` false and `instret` 0.
    sites: Vec<BranchRecord>,
}

impl BranchStream {
    /// Most distinct sites one stream can hold (the id gets 31 bits).
    pub const MAX_SITES: usize = 1 << 31;

    /// The branch stream of `trace`: one word per branch, sites numbered
    /// in first-appearance order.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds more than [`BranchStream::MAX_SITES`]
    /// distinct `(pc, class, target)` records.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let mut ids: HashMap<(u64, BranchClass, u64), u32> = HashMap::new();
        let mut sites: Vec<BranchRecord> = Vec::new();
        let words = trace
            .branches()
            .map(|branch| {
                let id =
                    *ids.entry((branch.pc, branch.class, branch.target)).or_insert_with(|| {
                        assert!(sites.len() < Self::MAX_SITES, "too many branch sites");
                        sites.push(BranchRecord { taken: false, instret: 0, ..*branch });
                        (sites.len() - 1) as u32
                    });
                id << 1 | u32::from(branch.taken)
            })
            .collect();
        BranchStream { words, sites }
    }

    /// Every branch, in program order, with `instret` 0.
    pub fn iter(&self) -> impl Iterator<Item = BranchRecord> + '_ {
        self.words
            .iter()
            .map(|&word| BranchRecord { taken: word & 1 != 0, ..self.sites[(word >> 1) as usize] })
    }

    /// Number of branches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the stream holds no branch.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of distinct `(pc, class, target)` sites.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.sites.len()
    }

    /// Heap bytes the stream holds: 4 per branch plus one record per
    /// site.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.words.len() * 4 + self.sites.len() * std::mem::size_of::<BranchRecord>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TrapRecord;
    use crate::synth::{BiasedCoins, LoopNest};

    fn expanded(trace: &Trace) -> Vec<BranchRecord> {
        trace.branches().map(|b| BranchRecord { instret: 0, ..*b }).collect()
    }

    #[test]
    fn iter_reproduces_every_branch_but_its_instret() {
        for trace in [
            LoopNest::new(&[12, 5, 3]).generate(),
            BiasedCoins::uniform(24, 0.7, 400, 7).generate(),
        ] {
            let stream = BranchStream::from_trace(&trace);
            assert_eq!(stream.iter().collect::<Vec<_>>(), expanded(&trace));
            assert_eq!(stream.bytes(), stream.len() * 4 + stream.sites() * 32);
        }
    }

    #[test]
    fn a_site_per_distinct_target_and_no_traps() {
        let mut trace = Trace::new();
        trace.push(BranchRecord::unconditional(0x40, BranchClass::Return, 0x100, 1));
        trace.push(TrapRecord::new(0x44, 2));
        trace.push(BranchRecord::unconditional(0x40, BranchClass::Return, 0x200, 3));
        trace.push(BranchRecord::conditional(0x80, true, 0x10, 4));
        trace.push(BranchRecord::conditional(0x80, false, 0x10, 5));
        trace.push(BranchRecord::unconditional(0x40, BranchClass::Return, 0x100, 6));
        let stream = BranchStream::from_trace(&trace);
        assert_eq!(stream.len(), 5, "traps are dropped");
        assert_eq!(stream.sites(), 3, "two return targets and one conditional");
        assert_eq!(stream.iter().collect::<Vec<_>>(), expanded(&trace));
    }

    #[test]
    fn empty_trace_gives_an_empty_stream() {
        let stream = BranchStream::from_trace(&Trace::new());
        assert!(stream.is_empty());
        assert_eq!(stream, BranchStream::default());
    }
}
