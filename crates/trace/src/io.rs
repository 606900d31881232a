//! Compact binary serialization for derived trace artifacts.
//!
//! The **artifact container** (`b"TLBP"`, version 3) is the disk tier
//! of the simulator's trace store: the raw trace *plus* the derived
//! forms jobs read (pc-interned stream, materialized first-level
//! pattern streams), so a warm cache hit restores the whole derivation
//! chain without re-running the VM or any derivation pass. The
//! container can also carry a packed conditional stream; the store
//! neither writes nor keeps one. Its UTF-8 text sections hold the sweep
//! daemon's memoized responses ([`write_text_sections`]: the canonical
//! plan JSON, then each pre-encoded result frame), so the persistent
//! memo tier is decoded and verified by the same readers as every trace
//! artifact. Each section's items are split into fixed-budget chunks
//! (the store writes [`DEFAULT_CHUNK_BYTES`]) that are varint+delta
//! encoded (text chunks hold raw bytes) and independently checksummed,
//! behind a seekable per-section chunk table. All integers are
//! little-endian:
//!
//! ```text
//! magic       : 4 bytes = b"TLBP"
//! version     : u16     = 3
//! fingerprint : u64     workload-codegen fingerprint (caller-defined)
//! sections    : u32     number of sections
//! per section:
//!   kind          : u8   1 trace, 2 packed, 3 interned, 4 pattern stream, 5 text
//!   meta_len      : u32, meta bytes   (kind-specific section metadata)
//!   chunk count   : u32
//!   chunk table   : count x (encoded_len u64, items u64, checksum u64)
//!   head checksum : u64  fx-fold of kind + meta + chunk table
//!   chunk payloads, concatenated (encoded_len bytes each)
//! ```
//!
//! Because every chunk decodes independently (delta state resets at
//! chunk boundaries) and the chunk table is read before any payload, a
//! reader can `seek` straight to chunk *k* of a section — that is what
//! [`ChunkedArtifact`] does for the simulator's streaming cursor, which
//! holds a bounded window of decoded chunks instead of a whole hydrated
//! section. [`read_artifacts`] decodes a whole buffer, and
//! [`read_artifact_sections`] decodes only the [`Sections`] it is asked
//! for from a seekable source, never reading a skipped section's
//! payload (the trace store keeps every form but the trace resident and
//! reads the trace section alone when a reader needs it). All the
//! readers parse the header and section heads with one parser that
//! checks every declared length against the bytes actually present
//! before allocating for it. They reject truncation at any byte
//! boundary, any checksum mismatch, trailing bytes, any other container
//! version (an older file is a versioned miss), and any payload whose
//! decoded parts fail the owning container's structural validation
//! ([`InternedConds::from_raw_parts`],
//! [`PatternStream::from_raw_parts`], UTF-8 for a text section). A
//! reader that cannot prove the sections it reads intact never yields a
//! bundle — the disk tiers fall back to regeneration instead of risking
//! wrong numbers.
//!
//! Traces cross machine boundaries in the `TLBE` exchange format
//! ([`crate::import`]), not in this container.
//!
//! The module also exports the filesystem discipline both disk tiers
//! share: [`write_file_atomic`] (unique temp file + rename, readers never
//! see a partial file) and [`FileLock`] (advisory cross-process lock file
//! with stale-lock scavenging, on one wait and one staleness budget).
//!
//! # Example
//!
//! ```
//! use tlabp_trace::io::{read_artifacts, write_artifacts_chunked, DEFAULT_CHUNK_BYTES};
//! use tlabp_trace::synth::LoopNest;
//!
//! let trace = LoopNest::new(&[4, 4]).generate();
//! let bytes = write_artifacts_chunked(7, Some(&trace), None, None, &[], DEFAULT_CHUNK_BYTES);
//! let bundle = read_artifacts(&bytes)?;
//! assert_eq!(bundle.fingerprint, 7);
//! assert_eq!(bundle.trace, Some(trace));
//! # Ok::<(), tlabp_trace::io::ReadTraceError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::io::{Read, Seek, SeekFrom};

use crate::intern::{InternedCond, InternedConds};
use crate::pattern_stream::PatternStream;
use crate::record::{BranchClass, BranchRecord, TrapRecord};
use crate::trace::{PackedCond, Trace, TraceEvent};

/// File magic identifying the artifact container.
pub const MAGIC: &[u8; 4] = b"TLBP";
/// Version of the artifact container ([`write_artifacts_chunked`] /
/// [`read_artifacts`] / [`ChunkedArtifact`]). The readers reject every
/// other version, including the retired bare-trace (1) and whole-section
/// (2) layouts, with [`ReadTraceError::UnsupportedVersion`].
pub const ARTIFACT_VERSION_CHUNKED: u16 = 3;

/// Chunk byte budget of the v3 artifacts the trace store and
/// `experiments import` write.
pub const DEFAULT_CHUNK_BYTES: usize = 4 << 20;

/// Pattern-stream chunks hold a multiple of this many events (except
/// the final chunk), matching the replay kernels' block size so a
/// streamed walk re-chunks into exactly the block sequence the
/// in-memory walk produces.
pub const STREAM_CHUNK_ALIGN: usize = 1 << 14;

const TRAP_TAG: u8 = 255;

/// Section kind tags of the artifact container.
mod section {
    pub const TRACE: u8 = 1;
    pub const PACKED: u8 = 2;
    pub const INTERNED: u8 = 3;
    pub const STREAM: u8 = 4;
    pub const TEXT: u8 = 5;
}

/// Error produced when decoding an artifact fails.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReadTraceError {
    /// The buffer did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually found (zero-padded if short).
        found: [u8; 4],
    },
    /// The header declared an unsupported version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The input ended before a length it declared was satisfied.
    Truncated {
        /// Index of the event at which input ran out, where the reader
        /// tracks events (0 otherwise).
        at_event: u64,
    },
    /// An artifact section's stored checksum did not match its payload.
    SectionChecksum {
        /// The section's kind tag.
        kind: u8,
    },
    /// An artifact section's payload decoded but failed structural
    /// validation (e.g. an interned id outside the pc table).
    BadSection {
        /// The section's kind tag.
        kind: u8,
    },
    /// Bytes remained after the last declared artifact section.
    TrailingBytes {
        /// Number of unexpected trailing bytes.
        count: usize,
    },
    /// An I/O error while reading a seekable chunked artifact.
    Io {
        /// The failing operation's [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
    },
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::BadMagic { found } => {
                write!(f, "bad artifact magic {found:?}, expected {MAGIC:?}")
            }
            ReadTraceError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported container version {found} (expected {ARTIFACT_VERSION_CHUNKED})"
                )
            }
            ReadTraceError::Truncated { at_event } => {
                write!(f, "trace truncated while decoding event {at_event}")
            }
            ReadTraceError::SectionChecksum { kind } => {
                write!(f, "artifact section kind {kind} failed its checksum")
            }
            ReadTraceError::BadSection { kind } => {
                write!(f, "artifact section kind {kind} failed structural validation")
            }
            ReadTraceError::TrailingBytes { count } => {
                write!(f, "{count} unexpected byte(s) after the last artifact section")
            }
            ReadTraceError::Io { kind } => {
                write!(f, "i/o error while reading chunked artifact: {kind}")
            }
        }
    }
}

impl Error for ReadTraceError {}

/// A checksum over `bytes`: the in-tree FxHash word fold (rotate, xor,
/// multiply by a golden-ratio constant) over 8-byte chunks, with the
/// length folded in last so zero-padding of the tail chunk cannot alias
/// a longer payload. Not cryptographic — it guards against torn writes,
/// truncation and bit rot in our own cache files, not an adversary.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let fold = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    let mut hash = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash = fold(hash, u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        hash = fold(hash, u64::from_le_bytes(word));
    }
    fold(hash, bytes.len() as u64)
}

/// The decoded contents of an artifact container: whichever forms the
/// writer had materialized, plus the pattern streams keyed by the
/// caller's opaque stream-key encoding (the trace crate does not know
/// the simulator's first-level signatures — it stores the bytes
/// verbatim).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArtifactBundle {
    /// The workload-codegen fingerprint the writer recorded; readers
    /// compare it against the expected value and treat a mismatch as a
    /// stale artifact.
    pub fingerprint: u64,
    /// The raw event trace, if serialized.
    pub trace: Option<Trace>,
    /// The packed conditional-branch stream, if serialized.
    pub packed: Option<Vec<PackedCond>>,
    /// The pc-interned conditional stream, if serialized.
    pub interned: Option<InternedConds>,
    /// Materialized first-level pattern streams, each tagged with its
    /// opaque key bytes, in serialization order.
    pub streams: Vec<(Vec<u8>, PatternStream)>,
    /// UTF-8 text sections ([`write_text_sections`]), in serialization
    /// order.
    pub texts: Vec<String>,
}

/// A minimal little-endian read cursor over a byte slice (replaces the
/// external `bytes` crate so the build has no registry dependencies).
pub(crate) struct Cursor<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl Cursor<'_> {
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn get_u8(&mut self) -> u8 {
        let v = self.bytes[self.pos];
        self.pos += 1;
        v
    }

    pub(crate) fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.bytes[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        v
    }

    pub(crate) fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        v
    }

    pub(crate) fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }
}

// ---------------------------------------------------------------------------
// The artifact container: chunk codecs, writer and readers.
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation).
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint; `None` on truncation or an encoding longer
/// than 10 bytes (a u64 never needs more).
pub(crate) fn get_varint(cur: &mut Cursor<'_>) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        if cur.remaining() == 0 {
            return None;
        }
        let byte = cur.get_u8();
        if shift == 63 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value
/// (small magnitudes of either sign encode short).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Items per chunk for a section kind under `chunk_bytes`, computed from
/// the *unencoded* item width so the budget bounds decoded (resident)
/// bytes, which is what a streaming cursor's window cap is about.
/// Pattern-stream chunks round down to a [`STREAM_CHUNK_ALIGN`] multiple
/// so streamed replay walks the same block sequence as in-memory replay.
fn items_per_chunk(kind: u8, laned: bool, chunk_bytes: usize) -> usize {
    match kind {
        section::TRACE => (chunk_bytes / 26).max(1),
        section::PACKED => (chunk_bytes / 8).max(1),
        section::TEXT => chunk_bytes,
        section::INTERNED => (chunk_bytes / 4).max(1),
        section::STREAM => {
            let per_event = if laned { 8 } else { 4 };
            ((chunk_bytes / per_event) / STREAM_CHUNK_ALIGN).max(1) * STREAM_CHUNK_ALIGN
        }
        _ => unreachable!("unknown section kind {kind}"),
    }
}

/// Appends one chunked section: kind, metadata, the chunk table
/// (encoded length, item count and checksum per chunk), a head checksum
/// over everything so far, then the chunk payloads.
fn push_chunked_section(buf: &mut Vec<u8>, kind: u8, meta: &[u8], chunks: &[(u64, Vec<u8>)]) {
    let mut head = Vec::with_capacity(1 + 4 + meta.len() + 4 + chunks.len() * 24);
    head.push(kind);
    head.extend_from_slice(&u32::try_from(meta.len()).expect("meta fits u32").to_le_bytes());
    head.extend_from_slice(meta);
    head.extend_from_slice(&u32::try_from(chunks.len()).expect("chunks fit u32").to_le_bytes());
    for (items, payload) in chunks {
        head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        head.extend_from_slice(&items.to_le_bytes());
        head.extend_from_slice(&checksum(payload).to_le_bytes());
    }
    buf.extend_from_slice(&head);
    buf.extend_from_slice(&checksum(&head).to_le_bytes());
    for (_, payload) in chunks {
        buf.extend_from_slice(payload);
    }
}

/// Splits `len` items into chunk ranges of at most `per_chunk` items.
/// Zero items still produce one empty chunk, so every section has a
/// well-formed table.
fn chunk_ranges(len: usize, per_chunk: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return vec![std::ops::Range { start: 0, end: 0 }];
    }
    (0..len).step_by(per_chunk).map(|start| start..(start + per_chunk).min(len)).collect()
}

fn encode_trace_chunk(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(events.len() * 6);
    let (mut prev_pc, mut prev_instret) = (0u64, 0u64);
    for event in events {
        match *event {
            TraceEvent::Branch(b) => {
                buf.push(b.class.to_tag() | if b.taken { 0x10 } else { 0 });
                put_varint(&mut buf, zigzag(b.pc.wrapping_sub(prev_pc) as i64));
                put_varint(&mut buf, zigzag(b.target.wrapping_sub(b.pc) as i64));
                put_varint(&mut buf, b.instret.wrapping_sub(prev_instret));
                (prev_pc, prev_instret) = (b.pc, b.instret);
            }
            TraceEvent::Trap(t) => {
                buf.push(TRAP_TAG);
                put_varint(&mut buf, zigzag(t.pc.wrapping_sub(prev_pc) as i64));
                put_varint(&mut buf, t.instret.wrapping_sub(prev_instret));
                (prev_pc, prev_instret) = (t.pc, t.instret);
            }
        }
    }
    buf
}

/// Decodes one trace chunk into `trace`, carrying the cross-chunk
/// monotonic-`instret` check in `last_instret`. Delta state resets per
/// chunk (that is what makes chunks independently decodable); `instret`
/// deltas are unsigned so order within a chunk holds by construction.
fn decode_trace_chunk(
    payload: &[u8],
    items: u64,
    trace: &mut Trace,
    last_instret: &mut u64,
) -> Option<()> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let (mut prev_pc, mut prev_instret) = (0u64, 0u64);
    for _ in 0..items {
        if cur.remaining() == 0 {
            return None;
        }
        let tag = cur.get_u8();
        let event = if tag == TRAP_TAG {
            let pc = prev_pc.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
            let instret = prev_instret.checked_add(get_varint(&mut cur)?)?;
            (prev_pc, prev_instret) = (pc, instret);
            TraceEvent::Trap(TrapRecord::new(pc, instret))
        } else {
            let class = BranchClass::from_tag(tag & 0x0f)?;
            if tag & !0x1f != 0 {
                return None;
            }
            let taken = tag & 0x10 != 0;
            let pc = prev_pc.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
            let target = pc.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
            let instret = prev_instret.checked_add(get_varint(&mut cur)?)?;
            (prev_pc, prev_instret) = (pc, instret);
            TraceEvent::Branch(BranchRecord { pc, class, taken, target, instret })
        };
        if event.instret() < *last_instret {
            return None;
        }
        *last_instret = event.instret();
        trace.push(event);
    }
    (cur.remaining() == 0).then_some(())
}

fn encode_packed_chunk(conds: &[PackedCond]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(conds.len() * 3);
    let mut prev = 0u64;
    for cond in conds {
        let bits = cond.bits();
        put_varint(&mut buf, zigzag(bits.wrapping_sub(prev) as i64));
        prev = bits;
    }
    buf
}

fn decode_packed_chunk(payload: &[u8], items: u64, out: &mut Vec<PackedCond>) -> Option<()> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let mut prev = 0u64;
    for _ in 0..items {
        prev = prev.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
        out.push(PackedCond::from_bits(prev));
    }
    (cur.remaining() == 0).then_some(())
}

fn encode_interned_chunk(events: &[InternedCond]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(events.len() * 2);
    let mut prev = 0u32;
    for event in events {
        let bits = event.bits();
        put_varint(&mut buf, zigzag(i64::from(bits.wrapping_sub(prev) as i32)));
        prev = bits;
    }
    buf
}

fn decode_interned_chunk(payload: &[u8], items: u64, out: &mut Vec<InternedCond>) -> Option<()> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let mut prev = 0u32;
    for _ in 0..items {
        let delta = i32::try_from(unzigzag(get_varint(&mut cur)?)).ok()?;
        prev = prev.wrapping_add(delta as u32);
        out.push(InternedCond::from_bits(prev));
    }
    (cur.remaining() == 0).then_some(())
}

/// Encodes one pattern-stream chunk: `items` event varints, then (for
/// laned streams) the matching `items` lane varints.
fn encode_stream_chunk(events: &[u32], lanes: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity((events.len() + lanes.len()) * 3);
    for &event in events {
        put_varint(&mut buf, u64::from(event));
    }
    for &lane in lanes {
        put_varint(&mut buf, u64::from(lane));
    }
    buf
}

/// Decodes one pattern-stream chunk produced by [`encode_stream_chunk`].
fn decode_stream_chunk(
    payload: &[u8],
    items: u64,
    laned: bool,
    events: &mut Vec<u32>,
    lanes: &mut Vec<u32>,
) -> Option<()> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    for _ in 0..items {
        events.push(u32::try_from(get_varint(&mut cur)?).ok()?);
    }
    if laned {
        for _ in 0..items {
            lanes.push(u32::try_from(get_varint(&mut cur)?).ok()?);
        }
    }
    (cur.remaining() == 0).then_some(())
}

/// Section metadata encodings (the per-section `meta` bytes of the v3
/// layout). Small and read whole; the chunk payloads carry the bulk.
mod meta {
    use super::{get_varint, put_varint, unzigzag, zigzag, Cursor};

    pub(super) fn trace(count: u64, total: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&total.to_le_bytes());
        buf
    }

    pub(super) fn parse_trace(meta: &[u8]) -> Option<(u64, u64)> {
        (meta.len() == 16).then(|| {
            let mut cur = Cursor { bytes: meta, pos: 0 };
            (cur.get_u64_le(), cur.get_u64_le())
        })
    }

    /// Packed and text metadata: the section's item count alone.
    pub(super) fn count(count: u64) -> Vec<u8> {
        count.to_le_bytes().to_vec()
    }

    pub(super) fn parse_count(meta: &[u8]) -> Option<u64> {
        (meta.len() == 8).then(|| u64::from_le_bytes(meta.try_into().expect("8 bytes")))
    }

    /// Interned metadata: event count plus the whole id→pc table
    /// (varint+delta — the table is per *static* branch, so it stays
    /// small however long the trace runs).
    pub(super) fn interned(count: u64, pcs: &[u64]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + pcs.len() * 3);
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&(pcs.len() as u64).to_le_bytes());
        let mut prev = 0u64;
        for &pc in pcs {
            put_varint(&mut buf, zigzag(pc.wrapping_sub(prev) as i64));
            prev = pc;
        }
        buf
    }

    pub(super) fn parse_interned(meta: &[u8]) -> Option<(u64, Vec<u64>)> {
        if meta.len() < 16 {
            return None;
        }
        let mut cur = Cursor { bytes: meta, pos: 0 };
        let count = cur.get_u64_le();
        let npcs = usize::try_from(cur.get_u64_le()).ok()?;
        if npcs > cur.remaining() * 10 {
            return None;
        }
        let mut pcs = Vec::with_capacity(npcs);
        let mut prev = 0u64;
        for _ in 0..npcs {
            prev = prev.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
            pcs.push(prev);
        }
        (cur.remaining() == 0).then_some((count, pcs))
    }

    pub(super) fn stream(key: &[u8], history_bits: u32, laned: bool, count: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 + key.len() + 13);
        buf.extend_from_slice(&u16::try_from(key.len()).expect("key fits u16").to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(&history_bits.to_le_bytes());
        buf.push(u8::from(laned));
        buf.extend_from_slice(&count.to_le_bytes());
        buf
    }

    pub(super) fn parse_stream(meta: &[u8]) -> Option<(Vec<u8>, u32, bool, u64)> {
        let mut cur = Cursor { bytes: meta, pos: 0 };
        if cur.remaining() < 2 {
            return None;
        }
        let key_len = usize::from(cur.get_u16_le());
        if cur.remaining() != key_len + 13 {
            return None;
        }
        let key = meta[cur.pos..cur.pos + key_len].to_vec();
        cur.pos += key_len;
        let history_bits = cur.get_u32_le();
        let laned = match cur.get_u8() {
            0 => false,
            1 => true,
            _ => return None,
        };
        let count = cur.get_u64_le();
        Some((key, history_bits, laned, count))
    }
}

/// Serializes an artifact container: every form the caller hands in, in
/// a fixed section order (trace, packed, interned, streams), each
/// section split into `chunk_bytes`-budget varint+delta chunks behind a
/// seekable, checksummed chunk table.
///
/// The inverse of [`read_artifacts`]; the two round-trip exactly.
/// [`ChunkedArtifact`] reads the same bytes seekably.
#[must_use]
pub fn write_artifacts_chunked(
    fingerprint: u64,
    trace: Option<&Trace>,
    packed: Option<&[PackedCond]>,
    interned: Option<&InternedConds>,
    streams: &[(Vec<u8>, &PatternStream)],
    chunk_bytes: usize,
) -> Vec<u8> {
    write_container(fingerprint, trace, packed, interned, streams, &[], chunk_bytes)
}

/// Serializes an artifact container of UTF-8 text sections alone, one
/// per entry of `texts` and in that order, each split into
/// `chunk_bytes`-byte checksummed chunks. [`read_artifacts`] returns
/// them in [`ArtifactBundle::texts`]; a chunk boundary may fall inside
/// a multi-byte character, since a section is checked as UTF-8 whole.
#[must_use]
pub fn write_text_sections(fingerprint: u64, texts: &[&str], chunk_bytes: usize) -> Vec<u8> {
    write_container(fingerprint, None, None, None, &[], texts, chunk_bytes)
}

/// The one container writer behind [`write_artifacts_chunked`] and
/// [`write_text_sections`]: trace, packed, interned, stream and text
/// sections, in that order.
fn write_container(
    fingerprint: u64,
    trace: Option<&Trace>,
    packed: Option<&[PackedCond]>,
    interned: Option<&InternedConds>,
    streams: &[(Vec<u8>, &PatternStream)],
    texts: &[&str],
    chunk_bytes: usize,
) -> Vec<u8> {
    let chunk_bytes = chunk_bytes.max(1);
    let sections = usize::from(trace.is_some())
        + usize::from(packed.is_some())
        + usize::from(interned.is_some())
        + streams.len()
        + texts.len();
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&ARTIFACT_VERSION_CHUNKED.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&u32::try_from(sections).expect("section count fits u32").to_le_bytes());

    if let Some(trace) = trace {
        let per = items_per_chunk(section::TRACE, false, chunk_bytes);
        let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(trace.len(), per)
            .into_iter()
            .map(|r| (r.len() as u64, encode_trace_chunk(&trace.events()[r])))
            .collect();
        let meta = meta::trace(trace.len() as u64, trace.total_instructions());
        push_chunked_section(&mut buf, section::TRACE, &meta, &chunks);
    }
    if let Some(packed) = packed {
        let per = items_per_chunk(section::PACKED, false, chunk_bytes);
        let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(packed.len(), per)
            .into_iter()
            .map(|r| (r.len() as u64, encode_packed_chunk(&packed[r])))
            .collect();
        push_chunked_section(&mut buf, section::PACKED, &meta::count(packed.len() as u64), &chunks);
    }
    if let Some(interned) = interned {
        let per = items_per_chunk(section::INTERNED, false, chunk_bytes);
        let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(interned.len(), per)
            .into_iter()
            .map(|r| (r.len() as u64, encode_interned_chunk(&interned.events()[r])))
            .collect();
        let meta = meta::interned(interned.len() as u64, interned.pcs());
        push_chunked_section(&mut buf, section::INTERNED, &meta, &chunks);
    }
    for (key, stream) in streams {
        let per = items_per_chunk(section::STREAM, stream.is_laned(), chunk_bytes);
        let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(stream.len(), per)
            .into_iter()
            .map(|r| {
                let lanes =
                    if stream.is_laned() { &stream.lanes()[r.clone()] } else { &[] as &[u32] };
                (r.len() as u64, encode_stream_chunk(&stream.events()[r], lanes))
            })
            .collect();
        let meta = meta::stream(key, stream.history_bits(), stream.is_laned(), stream.len() as u64);
        push_chunked_section(&mut buf, section::STREAM, &meta, &chunks);
    }
    for text in texts {
        let bytes = text.as_bytes();
        let per = items_per_chunk(section::TEXT, false, chunk_bytes);
        let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(bytes.len(), per)
            .into_iter()
            .map(|r| (r.len() as u64, bytes[r].to_vec()))
            .collect();
        push_chunked_section(&mut buf, section::TEXT, &meta::count(bytes.len() as u64), &chunks);
    }
    buf
}

/// Deserializes an artifact container written by
/// [`write_artifacts_chunked`], verifying every head and chunk checksum
/// and every structural invariant.
///
/// # Errors
///
/// Returns a [`ReadTraceError`] if the magic or version do not match,
/// the buffer is truncated at any byte boundary, bytes trail the last
/// section, any section or chunk checksum mismatches, or any payload
/// fails the structural validation of its form. An `Err` means the file
/// proves nothing — callers fall back to regeneration.
pub fn read_artifacts(bytes: &[u8]) -> Result<ArtifactBundle, ReadTraceError> {
    read_artifact_sections(&mut std::io::Cursor::new(bytes), Sections::All)
}

/// Which sections [`read_artifact_sections`] decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sections {
    /// Every section, as [`read_artifacts`] decodes them.
    All,
    /// The trace section alone: a full trace loaded on demand.
    TraceOnly,
    /// Every section but the trace: the forms a store keeps resident.
    AllButTrace,
}

impl Sections {
    fn includes(self, kind: u8) -> bool {
        match self {
            Sections::All => true,
            Sections::TraceOnly => kind == section::TRACE,
            Sections::AllButTrace => kind != section::TRACE,
        }
    }
}

/// Reads an artifact container from a seekable source, decoding only
/// the sections `sections` selects.
///
/// Every section head is parsed and checked, as [`read_artifacts`]
/// does, but the chunk payloads of a skipped section are never read:
/// a store reopening its cache skips the trace section, its largest,
/// and reads it alone when a reader needs the full trace. A section
/// that is read is verified exactly as [`read_artifacts`] verifies it;
/// the bundle leaves skipped forms `None` (or, for streams, empty).
///
/// # Errors
///
/// As [`read_artifacts`], for the header, every section head and the
/// selected sections; plus [`ReadTraceError::Io`] when `src` fails.
pub fn read_artifact_sections<R: Read + Seek>(
    src: &mut R,
    sections: Sections,
) -> Result<ArtifactBundle, ReadTraceError> {
    let (fingerprint, heads) = read_layout(src)?;
    let mut bundle = ArtifactBundle { fingerprint, ..ArtifactBundle::default() };
    let mut payload = Vec::new();
    for head in heads.iter().filter(|head| sections.includes(head.kind)) {
        let kind = head.kind;
        let bad = ReadTraceError::BadSection { kind };
        let encoded_total = head.chunks.iter().map(|c| c.encoded).sum();
        let mut decoder =
            SectionDecoder::new(kind, &head.meta, encoded_total).ok_or(bad.clone())?;
        for chunk in &head.chunks {
            // `read_layout` proved every payload lies inside `src`.
            src.seek(SeekFrom::Start(chunk.offset)).map_err(map_io)?;
            payload.resize(chunk.encoded as usize, 0);
            src.read_exact(&mut payload).map_err(map_io)?;
            if checksum(&payload) != chunk.checksum {
                return Err(ReadTraceError::SectionChecksum { kind });
            }
            decoder.decode_chunk(&payload, chunk.items).ok_or(bad.clone())?;
        }
        decoder.finish(&mut bundle).ok_or(bad)?;
    }
    Ok(bundle)
}

/// Incremental decoder for one section: chunks stream through
/// [`SectionDecoder::decode_chunk`] and [`SectionDecoder::finish`]
/// applies the declared-count and structural validations.
enum SectionDecoder {
    Trace {
        declared: u64,
        total: u64,
        trace: Trace,
        last_instret: u64,
    },
    Packed {
        declared: u64,
        out: Vec<PackedCond>,
    },
    Interned {
        declared: u64,
        pcs: Vec<u64>,
        out: Vec<InternedCond>,
    },
    Stream {
        key: Vec<u8>,
        history_bits: u32,
        laned: bool,
        declared: u64,
        events: Vec<u32>,
        lanes: Vec<u32>,
    },
    Text {
        declared: u64,
        bytes: Vec<u8>,
    },
}

/// Items to reserve for a section declaring `declared` items over
/// `encoded` payload bytes: the declared count, capped by what those
/// bytes can hold at `min_bytes` per item (every item takes at least one
/// varint byte), so a lying header cannot force a large allocation
/// while an honest one allocates each vector exactly once.
fn reserve_items(declared: u64, encoded: u64, min_bytes: u64) -> usize {
    usize::try_from(declared.min(encoded / min_bytes)).unwrap_or(0)
}

impl SectionDecoder {
    /// A decoder for a section of `kind` whose chunks total `encoded`
    /// payload bytes.
    fn new(kind: u8, meta: &[u8], encoded: u64) -> Option<SectionDecoder> {
        match kind {
            section::TRACE => {
                let (declared, total) = meta::parse_trace(meta)?;
                Some(SectionDecoder::Trace {
                    declared,
                    total,
                    trace: Trace::with_capacity(reserve_items(declared, encoded, 1)),
                    last_instret: 0,
                })
            }
            section::PACKED => {
                let declared = meta::parse_count(meta)?;
                let out = Vec::with_capacity(reserve_items(declared, encoded, 1));
                Some(SectionDecoder::Packed { declared, out })
            }
            section::INTERNED => {
                let (declared, pcs) = meta::parse_interned(meta)?;
                let out = Vec::with_capacity(reserve_items(declared, encoded, 1));
                Some(SectionDecoder::Interned { declared, pcs, out })
            }
            section::STREAM => {
                let (key, history_bits, laned, declared) = meta::parse_stream(meta)?;
                // A laned item is two varints: the event and its lane.
                let reserve = reserve_items(declared, encoded, 1 + u64::from(laned));
                Some(SectionDecoder::Stream {
                    key,
                    history_bits,
                    laned,
                    declared,
                    events: Vec::with_capacity(reserve),
                    lanes: Vec::with_capacity(if laned { reserve } else { 0 }),
                })
            }
            section::TEXT => {
                let declared = meta::parse_count(meta)?;
                let bytes = Vec::with_capacity(reserve_items(declared, encoded, 1));
                Some(SectionDecoder::Text { declared, bytes })
            }
            _ => None,
        }
    }

    fn decode_chunk(&mut self, payload: &[u8], items: u64) -> Option<()> {
        match self {
            SectionDecoder::Trace { trace, last_instret, .. } => {
                decode_trace_chunk(payload, items, trace, last_instret)
            }
            SectionDecoder::Packed { out, .. } => decode_packed_chunk(payload, items, out),
            SectionDecoder::Interned { out, .. } => decode_interned_chunk(payload, items, out),
            SectionDecoder::Stream { laned, events, lanes, .. } => {
                decode_stream_chunk(payload, items, *laned, events, lanes)
            }
            // A text chunk is its raw bytes: one item per byte.
            SectionDecoder::Text { bytes, .. } => {
                (payload.len() as u64 == items).then(|| bytes.extend_from_slice(payload))
            }
        }
    }

    fn finish(self, bundle: &mut ArtifactBundle) -> Option<()> {
        match self {
            SectionDecoder::Trace { declared, total, mut trace, last_instret } => {
                if trace.len() as u64 != declared {
                    return None;
                }
                if total >= last_instret {
                    trace.set_total_instructions(total);
                }
                bundle.trace = Some(trace);
            }
            SectionDecoder::Packed { declared, out } => {
                if out.len() as u64 != declared {
                    return None;
                }
                bundle.packed = Some(out);
            }
            SectionDecoder::Interned { declared, pcs, out } => {
                if out.len() as u64 != declared {
                    return None;
                }
                bundle.interned = Some(InternedConds::from_raw_parts(out, pcs)?);
            }
            SectionDecoder::Stream { key, history_bits, laned, declared, events, lanes } => {
                if events.len() as u64 != declared {
                    return None;
                }
                let stream = PatternStream::from_raw_parts(history_bits, events, lanes, laned)?;
                bundle.streams.push((key, stream));
            }
            SectionDecoder::Text { declared, bytes } => {
                if bytes.len() as u64 != declared {
                    return None;
                }
                bundle.texts.push(String::from_utf8(bytes).ok()?);
            }
        }
        Some(())
    }
}

fn map_io(err: std::io::Error) -> ReadTraceError {
    match err.kind() {
        std::io::ErrorKind::UnexpectedEof => ReadTraceError::Truncated { at_event: 0 },
        kind => ReadTraceError::Io { kind },
    }
}

/// Location of one chunk's payload inside an artifact.
#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    offset: u64,
    encoded: u64,
    items: u64,
    checksum: u64,
}

/// One section's head (kind, metadata, chunk table) inside an artifact.
#[derive(Debug, Clone)]
struct SectionEntry {
    kind: u8,
    meta: Vec<u8>,
    chunks: Vec<ChunkEntry>,
}

/// Parses and verifies an artifact's header and every section head from
/// `src` without reading any chunk payload: the fingerprint, plus each
/// section's head with its chunk payload offsets resolved. This is the
/// one head parser behind both [`read_artifacts`] and
/// [`ChunkedArtifact::open`].
///
/// Every declared length — metadata, chunk table, chunk payloads — is
/// checked against the bytes left in `src` before anything is read or
/// allocated for it, so a lying head costs a typed error and at most
/// the file's own size in memory.
fn read_layout<R: Read + Seek>(src: &mut R) -> Result<(u64, Vec<SectionEntry>), ReadTraceError> {
    let len = src.seek(SeekFrom::End(0)).map_err(map_io)?;
    src.seek(SeekFrom::Start(0)).map_err(map_io)?;
    let mut header = [0u8; 18];
    let got = len.min(18) as usize;
    src.read_exact(&mut header[..got]).map_err(map_io)?;
    let found: [u8; 4] = header[..4].try_into().expect("4 bytes");
    if &found != MAGIC {
        return Err(ReadTraceError::BadMagic { found });
    }
    let truncated = ReadTraceError::Truncated { at_event: 0 };
    if got < 6 {
        return Err(truncated);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != ARTIFACT_VERSION_CHUNKED {
        return Err(ReadTraceError::UnsupportedVersion { found: version });
    }
    if got < 18 {
        return Err(truncated);
    }
    let fingerprint = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let nsections = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes"));
    let mut left = len - 18;
    let mut sections = Vec::new();
    for _ in 0..nsections {
        sections.push(read_section_head(src, len, &mut left)?);
    }
    if left > 0 {
        return Err(ReadTraceError::TrailingBytes {
            count: usize::try_from(left).unwrap_or(usize::MAX),
        });
    }
    Ok((fingerprint, sections))
}

/// Reads the section head at the current position of `src` (a source of
/// `len` bytes with `left` of them unread), verifies its head checksum,
/// and leaves `src` past the section's chunk payloads.
fn read_section_head<R: Read + Seek>(
    src: &mut R,
    len: u64,
    left: &mut u64,
) -> Result<SectionEntry, ReadTraceError> {
    let truncated = ReadTraceError::Truncated { at_event: 0 };
    let mut head = Vec::new();
    // Appends the next `n` bytes of `src` to `head`, refusing a length
    // past the end of `src` before allocating for it.
    let mut take = |head: &mut Vec<u8>, n: u64| -> Result<(), ReadTraceError> {
        let n = usize::try_from(n).ok().filter(|_| n <= *left).ok_or(truncated.clone())?;
        let start = head.len();
        head.resize(start + n, 0);
        src.read_exact(&mut head[start..]).map_err(map_io)?;
        *left -= n as u64;
        Ok(())
    };
    take(&mut head, 5)?;
    let kind = head[0];
    let meta_len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize;
    take(&mut head, meta_len as u64 + 4)?;
    let table_start = head.len();
    let nchunks = u32::from_le_bytes(head[table_start - 4..].try_into().expect("4 bytes"));
    take(&mut head, u64::from(nchunks) * 24 + 8)?;
    let (body, stored) = head.split_at(head.len() - 8);
    if checksum(body) != u64::from_le_bytes(stored.try_into().expect("8 bytes")) {
        return Err(ReadTraceError::SectionChecksum { kind });
    }
    let mut offset = len - *left;
    let mut chunks = Vec::with_capacity(nchunks as usize);
    for entry in body[table_start..].chunks_exact(24) {
        let word = |at: usize| u64::from_le_bytes(entry[at..at + 8].try_into().expect("8 bytes"));
        let encoded = word(0);
        if encoded > *left {
            return Err(truncated);
        }
        *left -= encoded;
        chunks.push(ChunkEntry { offset, encoded, items: word(8), checksum: word(16) });
        offset += encoded;
    }
    src.seek(SeekFrom::Start(offset)).map_err(map_io)?;
    Ok(SectionEntry { kind, meta: body[5..5 + meta_len].to_vec(), chunks })
}

/// Identity and shape of one pattern-stream section inside a
/// [`ChunkedArtifact`], as reported by
/// [`ChunkedArtifact::stream_sections`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSectionInfo {
    /// Section index to pass to [`ChunkedArtifact::read_stream_chunk`].
    pub section: usize,
    /// The opaque stream key bytes the section was persisted under.
    pub key: Vec<u8>,
    /// First-level history width the stream was derived at.
    pub history_bits: u32,
    /// Whether the stream carries per-address lane indices.
    pub laned: bool,
    /// Total number of events across all chunks.
    pub events: u64,
    /// Declared item count of each chunk, in file order.
    pub chunk_items: Vec<u64>,
}

/// An artifact opened for seekable, chunk-at-a-time reads.
///
/// [`ChunkedArtifact::open`] reads and verifies only the header and the
/// per-section heads (metadata + chunk tables); chunk payloads stay on
/// disk until fetched with [`ChunkedArtifact::read_stream_chunk`], each
/// fetch verifying that chunk's stored checksum. This is the I/O layer
/// behind the simulator's bounded-memory streaming cursor.
#[derive(Debug)]
pub struct ChunkedArtifact {
    file: std::fs::File,
    fingerprint: u64,
    sections: Vec<SectionEntry>,
}

impl ChunkedArtifact {
    /// Opens `path` and parses + verifies its header and section heads
    /// without reading any chunk payloads.
    pub fn open(path: &std::path::Path) -> Result<ChunkedArtifact, ReadTraceError> {
        let mut file = std::fs::File::open(path).map_err(map_io)?;
        let (fingerprint, sections) = read_layout(&mut file)?;
        Ok(ChunkedArtifact { file, fingerprint, sections })
    }

    /// Workload fingerprint stamped into the artifact header.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Every pattern-stream section in the artifact, in file order.
    #[must_use]
    pub fn stream_sections(&self) -> Vec<StreamSectionInfo> {
        self.sections
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == section::STREAM)
            .filter_map(|(section, s)| {
                meta::parse_stream(&s.meta).map(|(key, history_bits, laned, events)| {
                    StreamSectionInfo {
                        section,
                        key,
                        history_bits,
                        laned,
                        events,
                        chunk_items: s.chunks.iter().map(|c| c.items).collect(),
                    }
                })
            })
            .collect()
    }

    /// Looks up the pattern-stream section persisted under `key`.
    #[must_use]
    pub fn find_stream(&self, key: &[u8]) -> Option<StreamSectionInfo> {
        self.stream_sections().into_iter().find(|info| info.key == key)
    }

    /// Reads, checksum-verifies and decodes one chunk of a
    /// pattern-stream section: `(events, lanes)`, with `lanes` empty
    /// for unlaned streams.
    pub fn read_stream_chunk(
        &mut self,
        section: usize,
        chunk: usize,
    ) -> Result<(Vec<u32>, Vec<u32>), ReadTraceError> {
        let bad = ReadTraceError::BadSection { kind: section::STREAM };
        let entry = self.sections.get(section).ok_or(bad.clone())?;
        if entry.kind != section::STREAM {
            return Err(ReadTraceError::BadSection { kind: entry.kind });
        }
        let (_, _, laned, _) = meta::parse_stream(&entry.meta).ok_or(bad.clone())?;
        let c = *entry.chunks.get(chunk).ok_or(bad.clone())?;
        self.file.seek(SeekFrom::Start(c.offset)).map_err(map_io)?;
        let encoded = usize::try_from(c.encoded).map_err(|_| bad.clone())?;
        let mut payload = vec![0u8; encoded];
        self.file.read_exact(&mut payload).map_err(map_io)?;
        if checksum(&payload) != c.checksum {
            return Err(ReadTraceError::SectionChecksum { kind: section::STREAM });
        }
        let reserve = reserve_items(c.items, c.encoded, 1 + u64::from(laned));
        let mut events = Vec::with_capacity(reserve);
        let mut lanes = Vec::with_capacity(if laned { reserve } else { 0 });
        decode_stream_chunk(&payload, c.items, laned, &mut events, &mut lanes).ok_or(bad)?;
        Ok((events, lanes))
    }
}

/// A held advisory cross-process lock: a lock file created exclusively,
/// removed on drop (and scavenged as stale by other writers if the
/// holding process dies first). See [`FileLock::acquire`].
pub struct FileLock {
    path: std::path::PathBuf,
}

impl Drop for FileLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl FileLock {
    /// How long [`FileLock::acquire`] waits for a contended lock before
    /// giving up, for every artifact writer.
    pub const WAIT: std::time::Duration = std::time::Duration::from_secs(2);
    /// Age beyond which a lock file is taken as abandoned by a crashed
    /// writer and broken. Writers hold a lock for milliseconds, so
    /// anything this old is dead.
    pub const STALE: std::time::Duration = std::time::Duration::from_secs(10);

    /// Acquires the advisory lock at `lock_path` (created with
    /// `create_new`, so exactly one process wins). A lock file older
    /// than [`FileLock::STALE`] is treated as abandoned by a crashed
    /// writer and broken with a warning. Returns `None` — with a warning
    /// — when the lock cannot be acquired within [`FileLock::WAIT`]:
    /// callers proceed unlocked rather than stalling real work on a
    /// cache courtesy, because every writer pairs this lock with
    /// [`write_file_atomic`], so the worst unlocked outcome is
    /// last-writer-wins, never a torn file.
    #[must_use]
    pub fn acquire(lock_path: &std::path::Path) -> Option<FileLock> {
        FileLock::acquire_within(lock_path, FileLock::WAIT, FileLock::STALE)
    }

    /// [`FileLock::acquire`] on explicit wait and staleness budgets.
    fn acquire_within(
        lock_path: &std::path::Path,
        wait: std::time::Duration,
        stale: std::time::Duration,
    ) -> Option<FileLock> {
        let deadline = std::time::Instant::now() + wait;
        loop {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(lock_path) {
                Ok(_) => return Some(FileLock { path: lock_path.to_path_buf() }),
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
                    let is_stale = std::fs::metadata(lock_path)
                        .and_then(|meta| meta.modified())
                        .ok()
                        .and_then(|modified| modified.elapsed().ok())
                        .is_some_and(|age| age >= stale);
                    if is_stale {
                        eprintln!("warning: breaking stale artifact lock {}", lock_path.display());
                        let _ = std::fs::remove_file(lock_path);
                        continue;
                    }
                    if std::time::Instant::now() >= deadline {
                        eprintln!(
                            "warning: timed out waiting for artifact lock {}; writing anyway",
                            lock_path.display()
                        );
                        return None;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(_) => return None,
            }
        }
    }
}

/// Writes `bytes` to `path` via a unique temp file in the same
/// directory, then renames over the target, so readers only ever
/// observe complete files (the parent directory is created if missing).
///
/// # Errors
///
/// Propagates directory-creation, write, and rename failures; a failed
/// rename removes the temp file.
pub fn write_file_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    std::fs::create_dir_all(dir)?;
    let temp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&temp, bytes)?;
    std::fs::rename(&temp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&temp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let msg = ReadTraceError::Truncated { at_event: 7 }.to_string();
        assert!(msg.contains("event 7"));
    }

    #[allow(clippy::type_complexity)]
    fn sample_bundle() -> (Trace, Vec<PackedCond>, InternedConds, Vec<(Vec<u8>, PatternStream)>) {
        let trace = crate::synth::LoopNest::new(&[6, 9]).generate();
        let packed = trace.pack_conditionals();
        let interned = InternedConds::from_packed(&packed);
        let mut unlaned = PatternStream::new(6, false);
        let mut laned = PatternStream::new(4, true);
        for (i, cond) in packed.iter().enumerate() {
            unlaned.push(i % 64, cond.taken());
            laned.push_with_lane(i % 16, cond.taken(), (i % 5) as u32);
        }
        (trace, packed, interned, vec![(vec![0, 9, 0, 0, 0], unlaned), (b"laned".to_vec(), laned)])
    }

    /// Two text sections: an empty one, then one of multi-byte UTF-8, so
    /// small chunk budgets cut inside its characters.
    const SAMPLE_TEXTS: [&str; 2] = ["", "{\"plan\":\"PAg(12)\"} · Yeh–Patt ✓ 🦀"];

    /// Every section kind: the sample bundle's forms, then the sample
    /// texts.
    fn write_sample(fingerprint: u64, chunk_bytes: usize) -> Vec<u8> {
        let (trace, packed, interned, streams) = sample_bundle();
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        write_container(
            fingerprint,
            Some(&trace),
            Some(&packed),
            Some(&interned),
            &refs,
            &SAMPLE_TEXTS,
            chunk_bytes,
        )
    }

    /// A scratch directory unique to one test (tests run concurrently).
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tlabp-io-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes `bytes` to `path` and opens it as a [`ChunkedArtifact`].
    fn open_bytes(path: &std::path::Path, bytes: &[u8]) -> Result<ChunkedArtifact, ReadTraceError> {
        std::fs::write(path, bytes).unwrap();
        ChunkedArtifact::open(path)
    }

    #[test]
    fn chunked_artifacts_round_trip_every_section() {
        let (trace, packed, interned, streams) = sample_bundle();
        for chunk_bytes in [DEFAULT_CHUNK_BYTES, 64, 1] {
            let bytes = write_sample(0xfeed, chunk_bytes);
            let bundle = read_artifacts(&bytes).unwrap();
            assert_eq!(bundle.fingerprint, 0xfeed);
            assert_eq!(bundle.trace.as_ref(), Some(&trace));
            assert_eq!(bundle.packed.as_deref(), Some(packed.as_slice()));
            assert_eq!(bundle.interned.as_ref(), Some(&interned));
            assert_eq!(bundle.streams, streams);
            assert_eq!(bundle.texts, SAMPLE_TEXTS);
        }
    }

    #[test]
    fn chunked_artifacts_round_trip_each_section_alone() {
        let (trace, packed, interned, streams) = sample_bundle();
        let b = 64;
        let bundle =
            read_artifacts(&write_artifacts_chunked(1, Some(&trace), None, None, &[], b)).unwrap();
        assert_eq!(bundle.trace, Some(trace));
        assert_eq!(bundle.packed, None);
        let bundle =
            read_artifacts(&write_artifacts_chunked(2, None, Some(&packed), None, &[], b)).unwrap();
        assert_eq!(bundle.packed.as_deref(), Some(packed.as_slice()));
        let bundle =
            read_artifacts(&write_artifacts_chunked(3, None, None, Some(&interned), &[], b))
                .unwrap();
        assert_eq!(bundle.interned, Some(interned));
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        let bundle =
            read_artifacts(&write_artifacts_chunked(4, None, None, None, &refs, b)).unwrap();
        assert_eq!(bundle.streams, streams);
        let bundle = read_artifacts(&write_text_sections(6, &SAMPLE_TEXTS, b)).unwrap();
        assert_eq!(
            bundle,
            ArtifactBundle {
                fingerprint: 6,
                texts: SAMPLE_TEXTS.map(String::from).to_vec(),
                ..ArtifactBundle::default()
            }
        );
        let empty = read_artifacts(&write_artifacts_chunked(5, None, None, None, &[], b)).unwrap();
        assert_eq!(empty, ArtifactBundle { fingerprint: 5, ..ArtifactBundle::default() });
    }

    /// A partial read decodes exactly the selected sections, bit for bit
    /// as the whole-buffer reader does, and never reads a skipped
    /// section's payload: a corrupt trace chunk fails a trace read and
    /// no other.
    #[test]
    fn partial_reads_decode_only_the_selected_sections() {
        let bytes = write_sample(0xfeed, 64);
        let all = read_artifacts(&bytes).unwrap();
        let read = |bytes: &[u8], sections| {
            read_artifact_sections(&mut std::io::Cursor::new(bytes), sections)
        };
        assert_eq!(read(&bytes, Sections::All).unwrap(), all);
        let trace_only = read(&bytes, Sections::TraceOnly).unwrap();
        assert_eq!(
            trace_only,
            ArtifactBundle { fingerprint: 0xfeed, trace: all.trace.clone(), ..Default::default() }
        );
        let rest = read(&bytes, Sections::AllButTrace).unwrap();
        assert_eq!(rest, ArtifactBundle { trace: None, ..all.clone() });

        // The trace section comes first: flip a bit in its first chunk.
        let (_, heads) = read_layout(&mut std::io::Cursor::new(&bytes[..])).unwrap();
        assert_eq!(heads[0].kind, section::TRACE);
        let mut corrupt = bytes.clone();
        corrupt[heads[0].chunks[0].offset as usize] ^= 1;
        assert!(matches!(
            read(&corrupt, Sections::TraceOnly),
            Err(ReadTraceError::SectionChecksum { kind: section::TRACE })
        ));
        assert!(read_artifacts(&corrupt).is_err());
        assert_eq!(read(&corrupt, Sections::AllButTrace).unwrap(), rest);
    }

    #[test]
    fn chunked_artifacts_hydrate_at_their_written_footprint() {
        // Exactly-sized streams, as derivation builds them: however the
        // sections are chunked, the hydrated copy holds no more heap
        // than the stream that was written.
        let (_, packed, _, _) = sample_bundle();
        let mut unlaned = PatternStream::with_capacity(6, packed.len(), false);
        let mut laned = PatternStream::with_capacity(4, packed.len(), true);
        for (i, cond) in packed.iter().enumerate() {
            unlaned.push(i % 64, cond.taken());
            laned.push_with_lane(i % 16, cond.taken(), (i % 5) as u32);
        }
        let streams = [(b"unlaned".to_vec(), unlaned), (b"laned".to_vec(), laned)];
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        for chunk_bytes in [DEFAULT_CHUNK_BYTES, 64, 1] {
            let bytes = write_artifacts_chunked(7, None, Some(&packed), None, &refs, chunk_bytes);
            let bundle = read_artifacts(&bytes).unwrap();
            for ((key, written), (_, read)) in streams.iter().zip(&bundle.streams) {
                assert_eq!(read, written);
                assert_eq!(read.bytes(), written.bytes(), "{key:?} at chunk_bytes {chunk_bytes}");
            }
            let read_packed = bundle.packed.expect("packed section");
            assert_eq!(read_packed.capacity(), packed.len(), "chunk_bytes {chunk_bytes}");
        }
    }

    #[test]
    fn chunked_artifacts_reject_truncation_at_every_byte_boundary() {
        // A 64-byte budget forces multi-chunk sections, so the cut loop
        // exercises chunk boundaries and mid-chunk cuts alike.
        let bytes = write_sample(0xabcd, 64);
        for cut in 0..bytes.len() {
            assert!(
                read_artifacts(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
        assert!(read_artifacts(&bytes).is_ok());
    }

    #[test]
    fn chunked_artifacts_detect_any_single_bit_flip_in_payloads() {
        let bytes = write_sample(0x1234, 64);
        // Bytes below 18 are the fixed header, whose flips are covered by
        // the version and open-sweep tests (a fingerprint flip legitimately
        // decodes — staleness is the store's comparison, not the
        // container's).
        for pos in 18..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(
                read_artifacts(&corrupt).is_err(),
                "bit flip at byte {pos} must not decode cleanly"
            );
        }
    }

    #[test]
    fn chunked_artifacts_reject_trailing_bytes() {
        let mut bytes = write_sample(7, 64);
        bytes.push(0);
        assert!(matches!(
            read_artifacts(&bytes).unwrap_err(),
            ReadTraceError::TrailingBytes { count: 1 }
        ));
    }

    #[test]
    fn artifacts_reject_checksum_flip_with_checksum_error() {
        // The file ends with the last chunk payload of the last section
        // (the multi-byte text); flipping its final byte fails that
        // chunk's checksum and nothing else.
        let mut corrupt = write_sample(7, 64);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x80;
        assert_eq!(
            read_artifacts(&corrupt).unwrap_err(),
            ReadTraceError::SectionChecksum { kind: section::TEXT }
        );
    }

    #[test]
    fn artifacts_reject_retired_versions_in_both_readers() {
        let dir = scratch_dir("versions");
        let path = dir.join("artifact.tlabp");
        let bytes = write_sample(3, 64);
        // Version 1 was the bare-trace format and version 2 the
        // whole-section container: a file of either is a versioned miss.
        for version in [1u16, 2] {
            let mut old = bytes.clone();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            let expected = ReadTraceError::UnsupportedVersion { found: version };
            assert_eq!(read_artifacts(&old).unwrap_err(), expected);
            assert_eq!(open_bytes(&path, &old).unwrap_err(), expected);
        }
        let mut capture = bytes.clone();
        capture[..4].copy_from_slice(crate::import::ETRACE_MAGIC);
        let expected = ReadTraceError::BadMagic { found: *crate::import::ETRACE_MAGIC };
        assert_eq!(read_artifacts(&capture).unwrap_err(), expected);
        assert_eq!(open_bytes(&path, &capture).unwrap_err(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_reject_bad_section_structure() {
        let (_, _, interned, _) = sample_bundle();
        let bytes =
            write_artifacts_chunked(9, None, None, Some(&interned), &[], DEFAULT_CHUNK_BYTES);
        // Rebuild the one-chunk interned section around `events`;
        // `push_chunked_section` stamps fresh chunk and head checksums, so
        // a bad id can only be caught by structural validation.
        let with_events = |events: &[InternedCond]| {
            let mut buf = bytes[..18].to_vec();
            let meta = meta::interned(events.len() as u64, interned.pcs());
            let chunk = (events.len() as u64, encode_interned_chunk(events));
            push_chunked_section(&mut buf, section::INTERNED, &meta, &[chunk]);
            buf
        };
        assert_eq!(with_events(interned.events()), bytes, "the rebuild matches the writer");
        // Point the first event's id past the pc table.
        let mut events = interned.events().to_vec();
        events[0] = InternedCond::from_bits(u32::MAX);
        assert_eq!(
            read_artifacts(&with_events(&events)).unwrap_err(),
            ReadTraceError::BadSection { kind: section::INTERNED }
        );
        // A text section must decode as UTF-8 (a lone continuation byte
        // does not).
        let mut text = bytes[..18].to_vec();
        push_chunked_section(&mut text, section::TEXT, &meta::count(1), &[(1, vec![0x80])]);
        assert_eq!(
            read_artifacts(&text).unwrap_err(),
            ReadTraceError::BadSection { kind: section::TEXT }
        );
    }

    #[test]
    fn chunked_artifact_seekable_reads_match_whole_buffer() {
        let dir = std::env::temp_dir().join(format!("tlabp-io-chunked-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.tlabp");

        // A stream long enough to span several aligned chunks.
        let mut long = PatternStream::new(8, true);
        for i in 0..3 * STREAM_CHUNK_ALIGN + 123 {
            long.push_with_lane(i % 256, i % 3 == 0, (i % 7) as u32);
        }
        let (trace, packed, interned, mut streams) = sample_bundle();
        streams.push((b"long".to_vec(), long));
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        let bytes = write_artifacts_chunked(
            0xbeef,
            Some(&trace),
            Some(&packed),
            Some(&interned),
            &refs,
            STREAM_CHUNK_ALIGN * 4,
        );
        std::fs::write(&path, &bytes).unwrap();

        let mut artifact = ChunkedArtifact::open(&path).unwrap();
        assert_eq!(artifact.fingerprint(), 0xbeef);
        let infos = artifact.stream_sections();
        assert_eq!(infos.len(), streams.len());
        for (key, stream) in &streams {
            let info = artifact.find_stream(key).expect("stream section present");
            assert_eq!(info.history_bits, stream.history_bits());
            assert_eq!(info.laned, stream.is_laned());
            assert_eq!(info.events, stream.len() as u64);
            let mut events = Vec::new();
            let mut lanes = Vec::new();
            for chunk in 0..info.chunk_items.len() {
                let (e, l) = artifact.read_stream_chunk(info.section, chunk).unwrap();
                assert_eq!(e.len() as u64, info.chunk_items[chunk]);
                events.extend_from_slice(&e);
                lanes.extend_from_slice(&l);
            }
            assert_eq!(events, stream.events());
            assert_eq!(lanes, stream.lanes());
        }
        let long_info = artifact.find_stream(b"long").unwrap();
        assert!(long_info.chunk_items.len() > 1, "long stream must span multiple chunks");
        assert!(long_info.chunk_items[..long_info.chunk_items.len() - 1]
            .iter()
            .all(|&n| (n as usize).is_multiple_of(STREAM_CHUNK_ALIGN)));

        // A flipped payload byte surfaces on the chunk read, not open().
        let mut corrupt_bytes = bytes.clone();
        let last = corrupt_bytes.len() - 1;
        corrupt_bytes[last] ^= 0x40;
        let corrupt_path = dir.join("corrupt.tlabp");
        std::fs::write(&corrupt_path, &corrupt_bytes).unwrap();
        let mut corrupt = ChunkedArtifact::open(&corrupt_path).unwrap();
        let info = corrupt.find_stream(b"long").unwrap();
        let last_chunk = info.chunk_items.len() - 1;
        assert!(matches!(
            corrupt.read_stream_chunk(info.section, last_chunk).unwrap_err(),
            ReadTraceError::SectionChecksum { kind: section::STREAM }
        ));

        // Truncating the file mid-payload surfaces as Truncated on read.
        let cut_path = dir.join("cut.tlabp");
        std::fs::write(&cut_path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(
            ChunkedArtifact::open(&cut_path).unwrap_err(),
            ReadTraceError::Truncated { .. }
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_artifact_open_rejects_truncation_at_every_byte_boundary() {
        let dir = scratch_dir("open-cut");
        let path = dir.join("cut.tlabp");
        let bytes = write_sample(0xabcd, 64);
        for cut in 0..bytes.len() {
            assert!(
                open_bytes(&path, &bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not open",
                bytes.len()
            );
        }
        assert!(open_bytes(&path, &bytes).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_artifact_open_rejects_every_head_flip() {
        // Multi-chunk sections (a 64-byte budget), so the sweep crosses
        // every field of many chunk tables.
        let dir = scratch_dir("open-flip");
        let path = dir.join("flip.tlabp");
        let bytes = write_sample(0x1234, 64);
        let good = open_bytes(&path, &bytes).unwrap();
        // The (section, chunk) whose payload holds each byte; header and
        // head bytes belong to none.
        let mut owner = vec![None; bytes.len()];
        for (s, entry) in good.sections.iter().enumerate() {
            for (c, chunk) in entry.chunks.iter().enumerate() {
                let start = chunk.offset as usize;
                owner[start..start + chunk.encoded as usize].fill(Some((s, c)));
            }
        }
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            let opened = open_bytes(&path, &corrupt);
            match owner[pos] {
                // The fingerprint word is the caller's to compare.
                None if (6..14).contains(&pos) => {
                    assert_ne!(opened.unwrap().fingerprint(), 0x1234);
                }
                None => assert!(opened.is_err(), "head flip at byte {pos} must not open"),
                // Payloads stay on disk until read: a flip opens, and a
                // stream chunk's flip surfaces when that chunk is read.
                Some((s, c)) => {
                    let mut artifact = opened.unwrap();
                    if good.sections[s].kind == section::STREAM {
                        assert_eq!(
                            artifact.read_stream_chunk(s, c).unwrap_err(),
                            ReadTraceError::SectionChecksum { kind: section::STREAM },
                            "payload flip at byte {pos}"
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inflated_head_lengths_are_typed_errors_in_both_readers() {
        let dir = scratch_dir("inflate");
        let path = dir.join("inflated.tlabp");
        let bytes = write_sample(5, 64);
        // The first section's head follows the 18-byte header: kind (1),
        // meta_len (4), meta, chunk count (4), chunk table, head checksum.
        let meta_len = u32::from_le_bytes(bytes[19..23].try_into().unwrap()) as usize;
        let count_at = 23 + meta_len;
        let nchunks = u32::from_le_bytes(bytes[count_at..count_at + 4].try_into().unwrap());
        let table_at = count_at + 4;
        let head_end = table_at + nchunks as usize * 24;

        let mut meta = bytes.clone();
        meta[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut count = bytes.clone();
        count[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // The first chunk's encoded length, with the head checksum
        // re-stamped so only the length check can catch it.
        let mut encoded = bytes.clone();
        encoded[table_at..table_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = checksum(&encoded[18..head_end]);
        encoded[head_end..head_end + 8].copy_from_slice(&sum.to_le_bytes());
        // The smallest such file: a header declaring one section, then a
        // stream head with no metadata and `u32::MAX` chunks — 27 bytes
        // that declare a 103 GB chunk table.
        let mut tiny = bytes[..14].to_vec();
        tiny.extend_from_slice(&1u32.to_le_bytes());
        tiny.push(section::STREAM);
        tiny.extend_from_slice(&0u32.to_le_bytes());
        tiny.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(tiny.len(), 27);

        let truncated = ReadTraceError::Truncated { at_event: 0 };
        for (field, corrupt) in [
            ("meta length", meta),
            ("chunk count", count),
            ("chunk length", encoded),
            ("27-byte", tiny),
        ] {
            assert_eq!(read_artifacts(&corrupt).unwrap_err(), truncated, "{field}");
            assert_eq!(open_bytes(&path, &corrupt).unwrap_err(), truncated, "{field}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut cur = Cursor { bytes: &buf, pos: 0 };
            assert_eq!(get_varint(&mut cur), Some(v), "value {v}");
            assert_eq!(cur.remaining(), 0);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Truncated and over-long encodings are rejected.
        let mut cur = Cursor { bytes: &[0x80], pos: 0 };
        assert_eq!(get_varint(&mut cur), None);
        let eleven = [0xff; 11];
        let mut cur = Cursor { bytes: &eleven, pos: 0 };
        assert_eq!(get_varint(&mut cur), None);
    }

    #[test]
    fn checksum_distinguishes_length_and_content() {
        assert_ne!(checksum(b""), checksum(&[0]));
        assert_ne!(checksum(&[0]), checksum(&[0, 0]));
        assert_ne!(checksum(b"abcdefgh"), checksum(b"abcdefgi"));
        assert_eq!(checksum(b"abcdefgh"), checksum(b"abcdefgh"));
    }

    #[test]
    fn file_lock_is_exclusive_and_breaks_stale_locks() {
        let dir = std::env::temp_dir().join(format!("tlabp-io-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lock_path = dir.join("x.tlabm.lock");
        let wait = std::time::Duration::from_millis(50);
        let stale = std::time::Duration::from_secs(3600);
        let held = FileLock::acquire_within(&lock_path, wait, stale).expect("first acquire wins");
        assert!(
            FileLock::acquire_within(&lock_path, wait, stale).is_none(),
            "second acquire times out while the lock is held"
        );
        drop(held);
        assert!(!lock_path.exists(), "drop removes the lock file");
        // A zero stale budget treats any existing lock as abandoned.
        let _orphan = std::fs::File::create(&lock_path).unwrap();
        let reacquired = FileLock::acquire_within(&lock_path, wait, std::time::Duration::ZERO);
        assert!(reacquired.is_some(), "stale lock is broken and re-acquired");
        drop(reacquired);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_file_atomic_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("tlabp-io-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("artifact.tlabm");
        write_file_atomic(&path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        write_file_atomic(&path, b"rewritten").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"rewritten");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files survive: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
