//! Importer for an etrace-style compressed branch-trace format.
//!
//! Hardware trace encoders (the RISC-V E-Trace family being the modern
//! reference) do not emit one record per branch: they batch conditional
//! branch *outcomes* into a small bitmap (`branch_map`) and emit full
//! addresses only at synchronization points, with everything in between
//! delta-compressed against the previous packet. This module implements
//! a self-contained format in that mold — `TLBE` — so externally
//! captured traces can enter the pipeline as first-class workloads:
//!
//! * `TLBE` magic + `u16` version header, then a packet stream.
//! * `SYNC` packets carry an absolute pc and instruction count and reset
//!   the delta state (the encoder's `start_of_trace` idiom). A trace
//!   must begin with one, and every trap forces one before further
//!   branch packets — exactly the resynchronization points a hardware
//!   encoder emits after exceptions.
//! * `BMAP` packets batch up to 31 conditional branches: a count byte,
//!   the outcome bitmap (bit *i* = branch *i* taken), then per-branch
//!   varint deltas (pc from previous pc, target from pc, instret from
//!   previous instret).
//! * `JUMP` packets carry one unconditional transfer (jump/call/return)
//!   with the same delta payload.
//! * `TRAP` packets mark context-switch points; the `END` packet closes
//!   the stream with declared event and instruction totals the decoder
//!   verifies.
//!
//! [`read_etrace`] rejects malformed input precisely (bad magic/version,
//! unknown packets, oversized or overfull branch maps, missing
//! synchronization, non-monotonic instruction counts, truncation,
//! declared-count mismatches, trailing bytes). [`write_etrace`] is the
//! exact inverse, so any [`Trace`] round-trips; [`import_artifacts`]
//! decodes a `TLBE` buffer and re-encodes it (plus its derived interned
//! form) as a v3 chunked artifact keyed by the content fingerprint,
//! ready for the on-disk cache tier.

use std::error::Error;
use std::fmt;

use crate::intern::InternedConds;
use crate::io::{
    checksum, get_varint, put_varint, unzigzag, write_artifacts_chunked, zigzag, Cursor,
};
use crate::record::{BranchClass, BranchRecord, TrapRecord};
use crate::trace::{Trace, TraceEvent};

/// File magic identifying the etrace-style import format.
pub const ETRACE_MAGIC: &[u8; 4] = b"TLBE";
/// Version of the import format.
pub const ETRACE_VERSION: u16 = 1;
/// Largest number of conditional branches one `BMAP` packet may carry
/// (the bitmap is a `u32` with one bit reserved, as in the RISC-V
/// encoder's 31-entry branch map).
pub const MAX_BRANCH_MAP: usize = 31;

mod packet {
    pub const END: u8 = 0;
    pub const SYNC: u8 = 1;
    pub const BMAP: u8 = 2;
    pub const JUMP: u8 = 3;
    pub const TRAP: u8 = 4;
}

/// Error produced when decoding a `TLBE` buffer fails.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImportError {
    /// The buffer did not start with [`ETRACE_MAGIC`].
    BadMagic {
        /// The four bytes actually found (zero-padded if short).
        found: [u8; 4],
    },
    /// The header declared an unsupported version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The buffer ended inside a packet.
    Truncated {
        /// Index of the packet being decoded when input ran out.
        at_packet: u64,
    },
    /// A packet carried an unknown tag byte.
    UnknownPacket {
        /// The offending tag.
        tag: u8,
        /// Index of the packet with the bad tag.
        at_packet: u64,
    },
    /// The stream did not synchronize where the format requires it: at
    /// the very start, and immediately after every trap.
    MissingSync {
        /// Index of the packet that appeared instead of a `SYNC`.
        at_packet: u64,
    },
    /// A `BMAP` packet declared zero or more than [`MAX_BRANCH_MAP`]
    /// branches, or set outcome bits beyond its declared count.
    BadBranchMap {
        /// Index of the offending packet.
        at_packet: u64,
    },
    /// Decoded events were not monotonically ordered by `instret`.
    NonMonotonic {
        /// Index of the offending packet.
        at_packet: u64,
    },
    /// The `END` packet's declared event count did not match the stream.
    CountMismatch {
        /// Events the `END` packet declared.
        declared: u64,
        /// Events actually decoded.
        actual: u64,
    },
    /// The stream ended without an `END` packet.
    MissingEnd,
    /// Bytes remained after the `END` packet.
    TrailingBytes {
        /// Number of unexpected trailing bytes.
        count: usize,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::BadMagic { found } => {
                write!(f, "bad etrace magic {found:?}, expected {ETRACE_MAGIC:?}")
            }
            ImportError::UnsupportedVersion { found } => {
                write!(f, "unsupported etrace version {found} (expected {ETRACE_VERSION})")
            }
            ImportError::Truncated { at_packet } => {
                write!(f, "etrace truncated while decoding packet {at_packet}")
            }
            ImportError::UnknownPacket { tag, at_packet } => {
                write!(f, "unknown etrace packet tag {tag} at packet {at_packet}")
            }
            ImportError::MissingSync { at_packet } => {
                write!(f, "etrace packet {at_packet} arrived where a sync packet is required")
            }
            ImportError::BadBranchMap { at_packet } => {
                write!(f, "etrace packet {at_packet} carries a malformed branch map")
            }
            ImportError::NonMonotonic { at_packet } => {
                write!(f, "etrace packet {at_packet} regressed the instruction count")
            }
            ImportError::CountMismatch { declared, actual } => {
                write!(f, "etrace declared {declared} events but decoded {actual}")
            }
            ImportError::MissingEnd => f.write_str("etrace ended without an end packet"),
            ImportError::TrailingBytes { count } => {
                write!(f, "{count} unexpected byte(s) after the etrace end packet")
            }
        }
    }
}

impl Error for ImportError {}

/// The content fingerprint a `TLBE` buffer is keyed by: the checksum of
/// its raw bytes. Deterministic, so re-importing the same capture maps
/// to the same artifact, cache slot and service memo entries.
#[must_use]
pub fn etrace_fingerprint(bytes: &[u8]) -> u64 {
    checksum(bytes)
}

/// Encoder state shared with the decoder: the previous pc / instret the
/// next packet's deltas are taken against.
#[derive(Clone, Copy)]
struct DeltaState {
    pc: u64,
    instret: u64,
}

fn push_branch_payload(buf: &mut Vec<u8>, state: &mut DeltaState, b: &BranchRecord) {
    put_varint(buf, zigzag(b.pc.wrapping_sub(state.pc) as i64));
    put_varint(buf, zigzag(b.target.wrapping_sub(b.pc) as i64));
    put_varint(buf, b.instret.wrapping_sub(state.instret));
    *state = DeltaState { pc: b.pc, instret: b.instret };
}

/// Serializes a trace into the `TLBE` import format.
///
/// The exact inverse of [`read_etrace`]; used by tests and by the
/// `import --demo` path to manufacture external-capture fixtures.
#[must_use]
pub fn write_etrace(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + trace.len() * 4);
    buf.extend_from_slice(ETRACE_MAGIC);
    buf.extend_from_slice(&ETRACE_VERSION.to_le_bytes());

    let mut state = DeltaState { pc: 0, instret: 0 };
    let mut pending: Vec<&BranchRecord> = Vec::with_capacity(MAX_BRANCH_MAP);
    let mut synced = false;

    fn flush(buf: &mut Vec<u8>, state: &mut DeltaState, pending: &mut Vec<&BranchRecord>) {
        if pending.is_empty() {
            return;
        }
        buf.push(packet::BMAP);
        buf.push(pending.len() as u8);
        let mut map = 0u64;
        for (i, b) in pending.iter().enumerate() {
            map |= u64::from(b.taken) << i;
        }
        put_varint(buf, map);
        for b in pending.drain(..) {
            push_branch_payload(buf, state, b);
        }
    }

    for event in trace.events() {
        if !synced {
            buf.push(packet::SYNC);
            put_varint(&mut buf, event.pc());
            put_varint(&mut buf, event.instret());
            state = DeltaState { pc: event.pc(), instret: event.instret() };
            synced = true;
        }
        match event {
            TraceEvent::Branch(b) if b.class.is_conditional() => {
                pending.push(b);
                if pending.len() == MAX_BRANCH_MAP {
                    flush(&mut buf, &mut state, &mut pending);
                }
            }
            TraceEvent::Branch(b) => {
                flush(&mut buf, &mut state, &mut pending);
                buf.push(packet::JUMP);
                buf.push(b.class.to_tag() | if b.taken { 0x10 } else { 0 });
                push_branch_payload(&mut buf, &mut state, b);
            }
            TraceEvent::Trap(t) => {
                flush(&mut buf, &mut state, &mut pending);
                buf.push(packet::TRAP);
                put_varint(&mut buf, zigzag(t.pc.wrapping_sub(state.pc) as i64));
                put_varint(&mut buf, t.instret.wrapping_sub(state.instret));
                state = DeltaState { pc: t.pc, instret: t.instret };
                // A trap desynchronizes the encoder: the next packet
                // must re-sync, as after a hardware exception.
                synced = false;
            }
        }
    }
    flush(&mut buf, &mut state, &mut pending);
    buf.push(packet::END);
    put_varint(&mut buf, trace.len() as u64);
    put_varint(&mut buf, trace.total_instructions());
    buf
}

/// Decodes a `TLBE` buffer into a [`Trace`], validating every packet.
pub fn read_etrace(bytes: &[u8]) -> Result<Trace, ImportError> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.remaining() < 4 {
        let mut found = [0u8; 4];
        found[..bytes.len()].copy_from_slice(bytes);
        return Err(ImportError::BadMagic { found });
    }
    let found: [u8; 4] = bytes[..4].try_into().expect("4 bytes");
    cur.pos = 4;
    if &found != ETRACE_MAGIC {
        return Err(ImportError::BadMagic { found });
    }
    if cur.remaining() < 2 {
        return Err(ImportError::Truncated { at_packet: 0 });
    }
    let version = cur.get_u16_le();
    if version != ETRACE_VERSION {
        return Err(ImportError::UnsupportedVersion { found: version });
    }

    let mut trace = Trace::new();
    let mut state = DeltaState { pc: 0, instret: 0 };
    let mut last_instret = 0u64;
    let mut synced = false;
    let mut packet_index = 0u64;
    loop {
        let at_packet = packet_index;
        let truncated = ImportError::Truncated { at_packet };
        if cur.remaining() == 0 {
            return Err(ImportError::MissingEnd);
        }
        let tag = cur.get_u8();
        packet_index += 1;
        if !synced && !matches!(tag, packet::SYNC | packet::END) {
            return Err(ImportError::MissingSync { at_packet });
        }
        match tag {
            packet::END => {
                let declared = get_varint(&mut cur).ok_or(truncated.clone())?;
                let total = get_varint(&mut cur).ok_or(truncated)?;
                if declared != trace.len() as u64 {
                    return Err(ImportError::CountMismatch {
                        declared,
                        actual: trace.len() as u64,
                    });
                }
                if total < last_instret {
                    return Err(ImportError::NonMonotonic { at_packet });
                }
                if cur.remaining() > 0 {
                    return Err(ImportError::TrailingBytes { count: cur.remaining() });
                }
                trace.set_total_instructions(total);
                return Ok(trace);
            }
            packet::SYNC => {
                let pc = get_varint(&mut cur).ok_or(truncated.clone())?;
                let instret = get_varint(&mut cur).ok_or(truncated)?;
                if instret < last_instret {
                    return Err(ImportError::NonMonotonic { at_packet });
                }
                state = DeltaState { pc, instret };
                synced = true;
            }
            packet::BMAP => {
                if cur.remaining() == 0 {
                    return Err(truncated);
                }
                let count = usize::from(cur.get_u8());
                let map = get_varint(&mut cur).ok_or(truncated.clone())?;
                if count == 0 || count > MAX_BRANCH_MAP || map >> count != 0 {
                    return Err(ImportError::BadBranchMap { at_packet });
                }
                // The sync packet carries the *first* event's own pc and
                // instret, so the first decoded delta is zero-based at
                // that event, mirroring the encoder.
                for i in 0..count {
                    let (pc, target, instret) =
                        decode_branch_payload(&mut cur, &mut state).ok_or(truncated.clone())?;
                    if instret < last_instret {
                        return Err(ImportError::NonMonotonic { at_packet });
                    }
                    last_instret = instret;
                    trace.push(BranchRecord::conditional(pc, map >> i & 1 == 1, target, instret));
                }
            }
            packet::JUMP => {
                if cur.remaining() == 0 {
                    return Err(truncated);
                }
                let class_byte = cur.get_u8();
                let class = BranchClass::from_tag(class_byte & 0x0f)
                    .filter(|c| !c.is_conditional() && class_byte & !0x1f == 0)
                    .ok_or(ImportError::UnknownPacket { tag: class_byte, at_packet })?;
                let taken = class_byte & 0x10 != 0;
                let (pc, target, instret) =
                    decode_branch_payload(&mut cur, &mut state).ok_or(truncated)?;
                if instret < last_instret {
                    return Err(ImportError::NonMonotonic { at_packet });
                }
                last_instret = instret;
                trace.push(BranchRecord { pc, class, taken, target, instret });
            }
            packet::TRAP => {
                let pc = state
                    .pc
                    .wrapping_add(unzigzag(get_varint(&mut cur).ok_or(truncated.clone())?) as u64);
                let instret = state
                    .instret
                    .checked_add(get_varint(&mut cur).ok_or(truncated)?)
                    .ok_or(ImportError::NonMonotonic { at_packet })?;
                if instret < last_instret {
                    return Err(ImportError::NonMonotonic { at_packet });
                }
                last_instret = instret;
                state = DeltaState { pc, instret };
                trace.push(TrapRecord::new(pc, instret));
                synced = false;
            }
            tag => return Err(ImportError::UnknownPacket { tag, at_packet }),
        }
    }
}

fn decode_branch_payload(cur: &mut Cursor<'_>, state: &mut DeltaState) -> Option<(u64, u64, u64)> {
    let pc = state.pc.wrapping_add(unzigzag(get_varint(cur)?) as u64);
    let target = pc.wrapping_add(unzigzag(get_varint(cur)?) as u64);
    let instret = state.instret.checked_add(get_varint(cur)?)?;
    *state = DeltaState { pc, instret };
    Some((pc, target, instret))
}

/// Decodes a `TLBE` buffer and re-encodes it as a v3 chunked artifact
/// containing the trace plus its derived interned form, keyed by
/// [`etrace_fingerprint`].
///
/// Returns `(fingerprint, artifact_bytes)`. Both are pure functions of
/// the input, so repeated imports of the same capture are byte-for-byte
/// identical — which is what makes imported workloads cacheable in the
/// disk tier and memoizable through the sweep service.
pub fn import_artifacts(bytes: &[u8], chunk_bytes: usize) -> Result<(u64, Vec<u8>), ImportError> {
    let trace = read_etrace(bytes)?;
    let fingerprint = etrace_fingerprint(bytes);
    let interned = InternedConds::from_trace(&trace);
    let artifact =
        write_artifacts_chunked(fingerprint, Some(&trace), None, Some(&interned), &[], chunk_bytes);
    Ok((fingerprint, artifact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_artifacts;
    use crate::synth::LoopNest;

    fn sample_trace() -> Trace {
        // A mixed trace: nested-loop conditionals, unconditional
        // transfers and a trap (which forces a mid-stream resync).
        let mut t = Trace::new();
        for event in LoopNest::new(&[5, 7]).generate().events() {
            t.push(*event);
        }
        let base = t.events().last().map_or(0, TraceEvent::instret);
        t.push(BranchRecord::unconditional(0x9000, BranchClass::Call, 0x400, base + 3));
        t.push(TrapRecord::new(0x404, base + 9));
        t.push(BranchRecord::conditional(0x410, true, 0x300, base + 12));
        t.push(BranchRecord::unconditional(0x308, BranchClass::Return, 0x9004, base + 14));
        t.set_total_instructions(base + 20);
        t
    }

    #[test]
    fn etrace_round_trips() {
        let t = sample_trace();
        let bytes = write_etrace(&t);
        assert_eq!(read_etrace(&bytes).unwrap(), t);
        // More conditionals than one branch map can hold → several BMAPs.
        let big = LoopNest::new(&[9, 11, 4]).generate();
        assert_eq!(read_etrace(&write_etrace(&big)).unwrap(), big);
        let empty = Trace::new();
        assert_eq!(read_etrace(&write_etrace(&empty)).unwrap(), empty);
    }

    #[test]
    fn etrace_rejects_truncation_at_every_byte_boundary() {
        let bytes = write_etrace(&sample_trace());
        for cut in 0..bytes.len() {
            assert!(
                read_etrace(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn etrace_rejects_bad_magic_and_version() {
        assert!(matches!(read_etrace(b"NOPE..").unwrap_err(), ImportError::BadMagic { .. }));
        assert!(matches!(read_etrace(b"TL").unwrap_err(), ImportError::BadMagic { .. }));
        let mut bytes = write_etrace(&sample_trace());
        bytes[4] = 9;
        assert_eq!(read_etrace(&bytes).unwrap_err(), ImportError::UnsupportedVersion { found: 9 });
    }

    #[test]
    fn etrace_rejects_malformed_packets() {
        // Stream must open with a SYNC.
        let mut bytes = vec![];
        bytes.extend_from_slice(ETRACE_MAGIC);
        bytes.extend_from_slice(&ETRACE_VERSION.to_le_bytes());
        bytes.push(packet::BMAP);
        assert_eq!(read_etrace(&bytes).unwrap_err(), ImportError::MissingSync { at_packet: 0 });

        // Rewrite the END tag to an unknown tag. No byte after the END
        // tag can be zero (both trailing varints are nonzero), so a
        // reverse scan lands on the tag itself.
        let good = write_etrace(&sample_trace());
        let mut bad = good.clone();
        let end_tag_at = (0..good.len()).rev().find(|&i| bad[i] == packet::END).unwrap();
        bad[end_tag_at] = 0x7f;
        assert!(matches!(
            read_etrace(&bad).unwrap_err(),
            ImportError::UnknownPacket { tag: 0x7f, .. } | ImportError::Truncated { .. }
        ));

        // Branch map with an outcome bit beyond its declared count.
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x100, true, 0x80, 5));
        let bytes = write_etrace(&t);
        // Layout: magic(4) version(2) SYNC(tag + pc + instret varints),
        // then the BMAP packet; parse past the SYNC payload to find it.
        let sync_at = 6;
        assert_eq!(bytes[sync_at], packet::SYNC);
        let mut cur = Cursor { bytes: &bytes, pos: sync_at + 1 };
        let _ = get_varint(&mut cur);
        let _ = get_varint(&mut cur);
        let bmap_tag_at = cur.pos;
        assert_eq!(bytes[bmap_tag_at], packet::BMAP);
        // count = 1, one map byte follows; set bit 1 (beyond count).
        let mut overfull = bytes.clone();
        overfull[bmap_tag_at + 2] = 0b10;
        assert!(matches!(read_etrace(&overfull).unwrap_err(), ImportError::BadBranchMap { .. }));
        // Zero-count branch map.
        let mut zero = bytes.clone();
        zero[bmap_tag_at + 1] = 0;
        assert!(matches!(read_etrace(&zero).unwrap_err(), ImportError::BadBranchMap { .. }));

        // Declared-count mismatch: declare one extra event.
        let t = sample_trace();
        let mut bytes = write_etrace(&t);
        let end_tag_at = (0..bytes.len()).rev().find(|&i| bytes[i] == packet::END).unwrap();
        // Both END varints here are small; bump the declared count byte.
        bytes[end_tag_at + 1] = bytes[end_tag_at + 1].wrapping_add(1) & 0x7f;
        assert!(matches!(
            read_etrace(&bytes).unwrap_err(),
            ImportError::CountMismatch { .. } | ImportError::Truncated { .. }
        ));

        // Trailing bytes after END.
        let mut bytes = write_etrace(&t);
        bytes.push(0);
        assert_eq!(read_etrace(&bytes).unwrap_err(), ImportError::TrailingBytes { count: 1 });
    }

    #[test]
    fn etrace_requires_resync_after_traps() {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x100, true, 0x80, 5));
        t.push(TrapRecord::new(0x84, 9));
        t.push(BranchRecord::conditional(0x100, false, 0x80, 14));
        let bytes = write_etrace(&t);
        assert_eq!(read_etrace(&bytes).unwrap(), t);
        // Excise the post-trap SYNC packet: decoding must now fail.
        let trap_at = bytes.iter().position(|&b| b == packet::TRAP).unwrap();
        let mut cur = Cursor { bytes: &bytes, pos: trap_at + 1 };
        let _ = get_varint(&mut cur);
        let _ = get_varint(&mut cur);
        let sync_at = cur.pos;
        assert_eq!(bytes[sync_at], packet::SYNC);
        let mut cut = bytes[..sync_at].to_vec();
        let mut rest = Cursor { bytes: &bytes, pos: sync_at + 1 };
        let _ = get_varint(&mut rest);
        let _ = get_varint(&mut rest);
        cut.extend_from_slice(&bytes[rest.pos..]);
        assert!(matches!(read_etrace(&cut).unwrap_err(), ImportError::MissingSync { .. }));
    }

    #[test]
    fn etrace_rejects_instret_regression() {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x100, true, 0x80, 5));
        t.push(TrapRecord::new(0x84, 9));
        let mut bytes = write_etrace(&t);
        // Rewrite the END packet's total-instructions varint to a value
        // below the last event's instret.
        let end_tag_at = (0..bytes.len()).rev().find(|&i| bytes[i] == packet::END).unwrap();
        let mut cur = Cursor { bytes: &bytes, pos: end_tag_at + 1 };
        let _ = get_varint(&mut cur);
        let total_at = cur.pos;
        bytes[total_at] = 0; // total_instructions = 0 < last instret
        bytes.truncate(total_at + 1);
        assert!(matches!(read_etrace(&bytes).unwrap_err(), ImportError::NonMonotonic { .. }));
    }

    #[test]
    fn import_artifacts_is_deterministic_and_loadable() {
        let t = sample_trace();
        let bytes = write_etrace(&t);
        let (fp1, art1) = import_artifacts(&bytes, 64 << 10).unwrap();
        let (fp2, art2) = import_artifacts(&bytes, 64 << 10).unwrap();
        assert_eq!(fp1, fp2);
        assert_eq!(art1, art2, "same capture must produce identical artifacts");
        assert_eq!(fp1, etrace_fingerprint(&bytes));

        let bundle = read_artifacts(&art1).unwrap();
        assert_eq!(bundle.fingerprint, fp1);
        assert_eq!(bundle.trace.as_ref(), Some(&t));
        assert!(bundle.packed.is_none(), "an import writes no packed section");
        assert_eq!(bundle.interned, Some(InternedConds::from_trace(&t)));

        // A different capture gets a different fingerprint.
        let other = write_etrace(&LoopNest::new(&[3, 3]).generate());
        assert_ne!(etrace_fingerprint(&other), fp1);
    }
}
