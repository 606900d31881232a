//! The line-delimited wire protocol of the sweep service.
//!
//! Every message is one **frame**, one line:
//!
//! ```text
//! TLBS <version> <kind> <len> <payload> <checksum>\n
//! ```
//!
//! * `TLBS` — frame magic (the service sibling of the artifact
//!   container's `TLBP`).
//! * `<version>` — decimal [`PROTOCOL_VERSION`]; frames from another
//!   version are rejected, never guessed at.
//! * `<kind>` — [`FrameKind`]: `plan`, `result`, `done` or `error`.
//! * `<len>` — decimal byte length of `<payload>`. The payload is
//!   compact JSON — newline-free by construction but full of spaces
//!   inside string values, so the length (not whitespace splitting)
//!   delimits it.
//! * `<checksum>` — 16 lower-hex digits of
//!   [`tlabp_trace::io::checksum`] over the payload bytes, the same
//!   fx-fold the artifact container uses per chunk. A flipped bit
//!   anywhere in the payload fails decode.
//!
//! Payloads by kind:
//!
//! * `plan` — a serialized [`Plan`](tlabp_sim::plan::Plan)
//!   (`Plan::to_json_string`). Client → server.
//! * `result` — `{"index":N,"outcome":...}`: one job's outcome, streamed
//!   as soon as the engine yields it. Server → client, strictly in plan
//!   order.
//! * `done` — `{"jobs":N,"memo":bool}`: the response is complete; `memo`
//!   reports whether it was served from the memo cache (zero simulation
//!   work). Server → client.
//! * `error` — `{"message":"..."}`: the request failed before or during
//!   streaming. Server → client, terminal for that request.

use std::fmt;

use tlabp_sim::json::{Json, WireError};
use tlabp_sim::JobOutcome;
use tlabp_trace::io::checksum;

/// Version of the frame format; bumped on any incompatible change.
pub const PROTOCOL_VERSION: u16 = 1;

/// Frame magic, first token of every frame.
pub const FRAME_MAGIC: &str = "TLBS";

/// The message kinds of the protocol (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: a serialized plan to execute.
    Plan,
    /// Server → client: one streamed job outcome.
    Result,
    /// Server → client: the response is complete.
    Done,
    /// Server → client: the request failed.
    Error,
}

impl FrameKind {
    /// The kind's wire token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            FrameKind::Plan => "plan",
            FrameKind::Result => "result",
            FrameKind::Done => "done",
            FrameKind::Error => "error",
        }
    }

    fn from_token(token: &str) -> Option<FrameKind> {
        match token {
            "plan" => Some(FrameKind::Plan),
            "result" => Some(FrameKind::Result),
            "done" => Some(FrameKind::Done),
            "error" => Some(FrameKind::Error),
            _ => None,
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Why a frame failed to decode. Mirrors the artifact container's error
/// taxonomy: every structural violation has its own variant so tests
/// (and logs) can tell truncation from corruption from version skew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// The version token is not this build's [`PROTOCOL_VERSION`].
    BadVersion {
        /// What the frame claimed (unparsable text comes through
        /// verbatim).
        found: String,
    },
    /// The kind token is not one of the four known kinds.
    BadKind {
        /// The unrecognized token.
        found: String,
    },
    /// The length token is not a decimal integer.
    BadLength,
    /// The line ends before `<len>` payload bytes plus the checksum.
    Truncated,
    /// The trailing checksum does not match the payload bytes.
    BadChecksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "frame does not start with {FRAME_MAGIC}"),
            FrameError::BadVersion { found } => write!(
                f,
                "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
            ),
            FrameError::BadKind { found } => write!(f, "unknown frame kind {found:?}"),
            FrameError::BadLength => write!(f, "frame length is not a decimal integer"),
            FrameError::Truncated => write!(f, "frame is shorter than its declared length"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame (without the trailing newline — writers add it when
/// putting the frame on the wire).
#[must_use]
pub fn encode_frame(kind: FrameKind, payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "payloads are newline-free JSON");
    format!(
        "{FRAME_MAGIC} {PROTOCOL_VERSION} {kind} {len} {payload} {sum:016x}",
        len = payload.len(),
        sum = checksum(payload.as_bytes()),
    )
}

/// Decodes one frame line (trailing `\n`/`\r\n` tolerated) into its kind
/// and payload.
///
/// # Errors
///
/// Returns the specific [`FrameError`] for a bad magic, an unsupported
/// version, an unknown kind, a malformed length, a truncated line, or a
/// checksum mismatch.
pub fn decode_frame(line: &str) -> Result<(FrameKind, &str), FrameError> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let line = line.strip_suffix('\r').unwrap_or(line);

    let rest = line.strip_prefix(FRAME_MAGIC).ok_or(FrameError::BadMagic)?;
    let rest = rest.strip_prefix(' ').ok_or(FrameError::BadMagic)?;

    let (version_token, rest) = rest.split_once(' ').ok_or(FrameError::Truncated)?;
    if version_token.parse::<u16>().ok() != Some(PROTOCOL_VERSION) {
        return Err(FrameError::BadVersion { found: version_token.to_owned() });
    }

    let (kind_token, rest) = rest.split_once(' ').ok_or(FrameError::Truncated)?;
    let kind = FrameKind::from_token(kind_token)
        .ok_or_else(|| FrameError::BadKind { found: kind_token.to_owned() })?;

    let (len_token, rest) = rest.split_once(' ').ok_or(FrameError::Truncated)?;
    let len = len_token.parse::<usize>().map_err(|_| FrameError::BadLength)?;

    // The payload may contain spaces, so slice it by byte length; a
    // single space separates it from the checksum. The declared length
    // comes from the peer, so it is compared, never added to.
    if rest.len() <= len {
        return Err(FrameError::Truncated);
    }
    let (payload, tail) = rest.split_at_checked(len).ok_or(FrameError::Truncated)?;
    let sum_token = tail.strip_prefix(' ').ok_or(FrameError::Truncated)?;
    if sum_token.len() != 16 {
        return Err(FrameError::Truncated);
    }
    let declared = u64::from_str_radix(sum_token, 16).map_err(|_| FrameError::BadChecksum)?;
    if declared != checksum(payload.as_bytes()) {
        return Err(FrameError::BadChecksum);
    }
    Ok((kind, payload))
}

/// Why reassembling frames from a byte stream failed. Both variants are
/// connection-fatal: the stream's framing can no longer be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// A line exceeded the reassembler's hard frame-length cap before
    /// (or when) its newline arrived.
    FrameTooLong {
        /// Bytes buffered or received for the offending line so far.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// A completed line was not valid UTF-8 (frames are text by
    /// definition).
    NotUtf8,
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::FrameTooLong { len, max } => {
                write!(f, "frame of {len}+ bytes exceeds the {max}-byte cap")
            }
            AssembleError::NotUtf8 => f.write_str("frame is not valid UTF-8"),
        }
    }
}

impl std::error::Error for AssembleError {}

/// Reassembles newline-delimited frame lines from arbitrarily
/// fragmented reads — the receive half of a nonblocking connection.
///
/// [`FrameAssembler::push`] accepts whatever bytes a read returned (a
/// frame may arrive one byte at a time, or many frames in one read) and
/// yields every line completed so far, without its newline, ready for
/// [`decode_frame`]. A partial line is buffered across pushes; the
/// buffered prefix is capped at a hard maximum so a client that never
/// sends a newline cannot grow the buffer without bound.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    max: usize,
}

impl FrameAssembler {
    /// A reassembler capped at `max_frame_len` bytes per line.
    #[must_use]
    pub fn new(max_frame_len: usize) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), max: max_frame_len }
    }

    /// Appends `bytes` and returns every line they complete, in order.
    ///
    /// Empty lines are returned too (callers skip them, matching the
    /// blocking reader's behavior).
    ///
    /// # Errors
    ///
    /// [`AssembleError::FrameTooLong`] once a line (complete or still
    /// partial) exceeds the cap, [`AssembleError::NotUtf8`] when a
    /// completed line is not UTF-8. After an error the assembler's state
    /// is unspecified; the connection must be dropped.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<String>, AssembleError> {
        let mut lines = Vec::new();
        let mut rest = bytes;
        // Newlines can only be in the incoming chunk: everything already
        // buffered was scanned by an earlier push.
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            self.buf.extend_from_slice(&rest[..pos]);
            rest = &rest[pos + 1..];
            let line_bytes = std::mem::take(&mut self.buf);
            if line_bytes.len() > self.max {
                return Err(AssembleError::FrameTooLong { len: line_bytes.len(), max: self.max });
            }
            lines.push(String::from_utf8(line_bytes).map_err(|_| AssembleError::NotUtf8)?);
        }
        self.buf.extend_from_slice(rest);
        if self.buf.len() > self.max {
            return Err(AssembleError::FrameTooLong { len: self.buf.len(), max: self.max });
        }
        Ok(lines)
    }
}

/// Builds a `result` frame payload for one streamed outcome.
#[must_use]
pub fn result_payload(index: usize, outcome: &JobOutcome) -> String {
    Json::object(vec![("index", Json::UInt(index as u64)), ("outcome", outcome.to_json())]).render()
}

/// Parses a `result` frame payload.
///
/// # Errors
///
/// Fails on malformed JSON or missing/mistyped fields.
pub fn parse_result_payload(payload: &str) -> Result<(usize, JobOutcome), WireError> {
    let json = Json::parse(payload)?;
    let index = json
        .field("index")?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| WireError::new("index must be an unsigned integer"))?;
    let outcome = JobOutcome::from_json(json.field("outcome")?)?;
    Ok((index, outcome))
}

/// Builds a `done` frame payload.
#[must_use]
pub fn done_payload(jobs: usize, memo: bool) -> String {
    Json::object(vec![("jobs", Json::UInt(jobs as u64)), ("memo", Json::Bool(memo))]).render()
}

/// What a `done` frame reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    /// Number of result frames that preceded this frame.
    pub jobs: usize,
    /// Whether the response was served from the memo cache (zero
    /// simulation work on the server).
    pub memo: bool,
}

/// Parses a `done` frame payload.
///
/// # Errors
///
/// Fails on malformed JSON or missing/mistyped fields.
pub fn parse_done_payload(payload: &str) -> Result<Done, WireError> {
    let json = Json::parse(payload)?;
    let jobs = json
        .field("jobs")?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| WireError::new("jobs must be an unsigned integer"))?;
    let memo =
        json.field("memo")?.as_bool().ok_or_else(|| WireError::new("memo must be a boolean"))?;
    Ok(Done { jobs, memo })
}

/// Builds an `error` frame payload.
#[must_use]
pub fn error_payload(message: &str) -> String {
    Json::object(vec![("message", Json::Str(message.to_owned()))]).render()
}

/// Parses an `error` frame payload; falls back to the raw payload when
/// it is not well-formed JSON (the message still reaches the user).
#[must_use]
pub fn parse_error_payload(payload: &str) -> String {
    Json::parse(payload)
        .ok()
        .and_then(|json| json.get("message").and_then(|m| m.as_str().map(str::to_owned)))
        .unwrap_or_else(|| payload.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for (kind, payload) in [
            (FrameKind::Plan, r#"{"version":1,"jobs":[]}"#),
            (FrameKind::Result, r#"{"index":0,"outcome":{"skipped":"has spaces in it"}}"#),
            (FrameKind::Done, r#"{"jobs":12,"memo":true}"#),
            (FrameKind::Error, r#"{"message":"no such artifact"}"#),
            (FrameKind::Plan, ""),
        ] {
            let line = encode_frame(kind, payload);
            let (back_kind, back_payload) = decode_frame(&line).expect("encoded frame decodes");
            assert_eq!(back_kind, kind);
            assert_eq!(back_payload, payload);
            // Writers append a newline; decoders strip it.
            let with_newline = format!("{line}\n");
            let (k2, p2) = decode_frame(&with_newline).expect("newline tolerated");
            assert_eq!((k2, p2), (kind, payload));
        }
    }

    #[test]
    fn decode_rejects_structural_violations() {
        let good = encode_frame(FrameKind::Done, r#"{"jobs":1,"memo":false}"#);
        assert_eq!(decode_frame("HTTP 1 done 0  0000000000000000"), Err(FrameError::BadMagic));
        assert_eq!(
            decode_frame(&good.replacen("TLBS 1 ", "TLBS 2 ", 1)),
            Err(FrameError::BadVersion { found: "2".to_owned() })
        );
        assert_eq!(
            decode_frame(&good.replacen(" done ", " pong ", 1)),
            Err(FrameError::BadKind { found: "pong".to_owned() })
        );
        assert_eq!(decode_frame(&good.replacen(" 23 ", " xx ", 1)), Err(FrameError::BadLength));
        assert_eq!(decode_frame(&good[..good.len() - 20]), Err(FrameError::Truncated));
        let mut corrupted = good.clone();
        corrupted.replace_range(
            corrupted.find("jobs").unwrap()..corrupted.find("jobs").unwrap() + 4,
            "Jobs",
        );
        assert_eq!(decode_frame(&corrupted), Err(FrameError::BadChecksum));
    }

    #[test]
    fn hostile_declared_lengths_are_rejected() {
        let payload = r#"{"jobs":1,"memo":false}"#;
        let good = encode_frame(FrameKind::Done, payload);
        let declared = |len: usize| good.replacen(" 23 ", &format!(" {len} "), 1);
        assert_eq!(decode_frame(&declared(payload.len())), Ok((FrameKind::Done, payload)));
        for len in [usize::MAX, usize::MAX - 1, payload.len() + 1] {
            assert_eq!(decode_frame(&declared(len)), Err(FrameError::Truncated), "{len}");
        }
    }

    #[test]
    fn every_truncation_of_a_frame_is_rejected() {
        let line = encode_frame(FrameKind::Result, r#"{"index":3,"outcome":{"skipped":"x y"}}"#);
        for cut in 0..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            assert!(decode_frame(&line[..cut]).is_err(), "prefix of length {cut} must not decode");
        }
    }

    #[test]
    fn assembler_reassembles_across_any_fragmentation() {
        let frames = [
            encode_frame(FrameKind::Plan, r#"{"version":1,"jobs":[]}"#),
            encode_frame(FrameKind::Result, r#"{"index":0,"outcome":{"skipped":"a b"}}"#),
            encode_frame(FrameKind::Done, r#"{"jobs":1,"memo":false}"#),
        ];
        let stream: Vec<u8> =
            frames.iter().flat_map(|f| f.bytes().chain(std::iter::once(b'\n'))).collect();
        // Split at every byte boundary: both chunks, any order of sizes.
        for cut in 0..=stream.len() {
            let mut asm = FrameAssembler::new(1 << 16);
            let mut lines = asm.push(&stream[..cut]).expect("first chunk");
            lines.extend(asm.push(&stream[cut..]).expect("second chunk"));
            assert_eq!(lines, frames, "split at byte {cut} must reassemble identically");
            assert!(asm.buf.is_empty(), "nothing stays buffered after the last newline");
        }
        // Byte-at-a-time delivery — the worst nonblocking read pattern.
        let mut asm = FrameAssembler::new(1 << 16);
        let mut lines = Vec::new();
        for &b in &stream {
            lines.extend(asm.push(&[b]).expect("single byte"));
        }
        assert_eq!(lines, frames);
    }

    #[test]
    fn assembler_caps_frame_length() {
        let mut asm = FrameAssembler::new(8);
        assert_eq!(asm.push(b"12345678\n").expect("at cap"), vec!["12345678".to_owned()]);
        let mut asm = FrameAssembler::new(8);
        assert_eq!(
            asm.push(b"123456789\n"),
            Err(AssembleError::FrameTooLong { len: 9, max: 8 }),
            "a complete over-cap line is rejected"
        );
        let mut asm = FrameAssembler::new(8);
        assert!(asm.push(b"1234").is_ok());
        assert!(asm.push(b"5678").is_ok(), "at the cap without a newline is still fine");
        assert_eq!(
            asm.push(b"9"),
            Err(AssembleError::FrameTooLong { len: 9, max: 8 }),
            "a partial line is rejected as soon as it exceeds the cap"
        );
    }

    #[test]
    fn assembler_rejects_non_utf8_lines() {
        let mut asm = FrameAssembler::new(64);
        assert_eq!(asm.push(b"\xff\xfe\n"), Err(AssembleError::NotUtf8));
    }

    #[test]
    fn payload_helpers_round_trip() {
        let outcome = JobOutcome::Skipped { reason: "needs a training trace".to_owned() };
        let (index, back) = parse_result_payload(&result_payload(7, &outcome)).unwrap();
        assert_eq!(index, 7);
        assert_eq!(back, outcome);

        let done = parse_done_payload(&done_payload(42, true)).unwrap();
        assert_eq!(done, Done { jobs: 42, memo: true });

        assert_eq!(parse_error_payload(&error_payload("boom")), "boom");
        assert_eq!(parse_error_payload("not json at all"), "not json at all");
    }
}
