//! Bounded-memory streaming of persisted pattern streams.
//!
//! The engine's replay kernels walk a fully hydrated
//! [`tlabp_trace::PatternStream`]. A caller that would rather not hold a
//! whole stream in memory can read a v3 chunked artifact
//! ([`tlabp_trace::io::ChunkedArtifact`]) one chunk at a time instead: a
//! [`StreamCursor`] owns a dedicated decode thread that reads,
//! checksum-verifies and varint-decodes chunk *N + k* while the replay
//! kernel ([`crate::runner::simulate_replay_transposed_streamed`])
//! consumes chunk *N*, with a bounded ring between them so resident
//! bytes stay within the window the caller gives.
//!
//! Resident bytes are accounted through a [`StreamWindow`] gauge the
//! caller owns: every decoded [`StreamChunk`] holds a lease that is
//! released when the chunk is dropped, so the caller can read the
//! current and peak residency of its own walks.
//!
//! Streaming replay is bit-identical to in-memory replay: replay is a
//! left fold over the event sequence (each bank carries its own state
//! across blocks and banks never interact), so any order-preserving
//! chunking produces the same counts. The differential suite in
//! `tests/streaming.rs` pins this per scheme × automaton × kernel tier.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

use tlabp_trace::io::{ChunkedArtifact, ReadTraceError, StreamSectionInfo};

/// Gauge of bytes resident in streaming replay windows.
///
/// The caller owns it and hands it to every [`StreamCursor::open`] whose
/// chunks it should count; cursors sharing one gauge add up. `current`
/// rises when a [`StreamChunk`] is decoded and falls when it is dropped;
/// `peak` is the high-water mark since construction.
#[derive(Debug, Default)]
pub struct StreamWindow {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl StreamWindow {
    /// A zeroed gauge.
    #[must_use]
    pub fn new() -> StreamWindow {
        StreamWindow::default()
    }

    fn add(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently resident across every open streaming window.
    #[must_use]
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of [`StreamWindow::current`].
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Releases a chunk's resident bytes back to the gauge on drop.
#[derive(Debug)]
struct WindowLease {
    window: Arc<StreamWindow>,
    bytes: usize,
}

impl Drop for WindowLease {
    fn drop(&mut self) {
        self.window.sub(self.bytes);
    }
}

/// One decoded chunk of a persisted pattern stream.
///
/// Holds a [`StreamWindow`] lease for its resident bytes; dropping the
/// chunk releases them.
#[derive(Debug)]
pub struct StreamChunk {
    events: Vec<u32>,
    lanes: Vec<u32>,
    #[allow(dead_code)] // held for its Drop impl
    lease: WindowLease,
}

impl StreamChunk {
    /// The chunk's packed `(pattern, outcome)` events, in stream order.
    #[must_use]
    pub fn events(&self) -> &[u32] {
        &self.events
    }

    /// The chunk's per-event lane indices (empty for unlaned streams).
    #[must_use]
    pub fn lanes(&self) -> &[u32] {
        &self.lanes
    }
}

type ChunkResult = Result<StreamChunk, ReadTraceError>;

/// A pattern-stream section being streamed chunk-by-chunk from a v3
/// artifact, with a bounded decode-ahead ring.
///
/// The decode thread is dedicated (not a `SweepPool` worker): replay
/// batches already occupy every pool worker, so borrowing one for the
/// producer could deadlock the consumer behind its own decode.
#[derive(Debug)]
pub struct StreamCursor {
    info: StreamSectionInfo,
    fingerprint: u64,
    ring: Option<Receiver<ChunkResult>>,
    producer: Option<std::thread::JoinHandle<()>>,
    delivered: usize,
}

impl StreamCursor {
    /// Opens the pattern-stream section persisted under `key` inside
    /// the v3 artifact at `path` and starts the decode thread.
    ///
    /// Returns `None` when the artifact cannot be opened, holds no such
    /// section, or the section's chunk table is inconsistent — the
    /// caller falls back to in-memory replay. Errors on chunk *bodies*
    /// (checksum mismatches, truncation) surface later, through
    /// [`StreamCursor::next_chunk`].
    ///
    /// `stream_bytes` bounds the resident window: the ring holds at
    /// most `stream_bytes / chunk_bytes - 2` decoded chunks (at least
    /// one), so with the producer's chunk and the consumer's chunk the
    /// residency target is met whenever the window spans ≥ 3 chunks.
    #[must_use]
    pub fn open(
        path: &Path,
        key: &[u8],
        stream_bytes: usize,
        window: &Arc<StreamWindow>,
    ) -> Option<StreamCursor> {
        let mut artifact = ChunkedArtifact::open(path).ok()?;
        let fingerprint = artifact.fingerprint();
        let info = artifact.find_stream(key)?;
        let total: u64 = info.chunk_items.iter().sum();
        if total != info.events || usize::try_from(info.events).is_err() {
            return None;
        }
        let per_event = if info.laned { 8 } else { 4 };
        let chunk_resident =
            usize::try_from(info.chunk_items.iter().copied().max().unwrap_or(0)).ok()? * per_event;
        let depth = match chunk_resident {
            0 => 1,
            per => (stream_bytes / per).saturating_sub(2).max(1),
        };
        let (tx, ring) = sync_channel::<ChunkResult>(depth);
        let section = info.section;
        let chunks = info.chunk_items.len();
        let window = Arc::clone(window);
        let producer = std::thread::spawn(move || {
            for chunk in 0..chunks {
                let item = artifact.read_stream_chunk(section, chunk).map(|(events, lanes)| {
                    let bytes = (events.len() + lanes.len()) * 4;
                    window.add(bytes);
                    StreamChunk {
                        events,
                        lanes,
                        lease: WindowLease { window: Arc::clone(&window), bytes },
                    }
                });
                let fatal = item.is_err();
                if tx.send(item).is_err() || fatal {
                    return;
                }
            }
        });
        Some(StreamCursor {
            info,
            fingerprint,
            ring: Some(ring),
            producer: Some(producer),
            delivered: 0,
        })
    }

    /// Workload fingerprint stamped into the artifact the cursor reads.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// First-level history width the stream was derived at.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.info.history_bits
    }

    /// Whether the stream carries per-address lane indices.
    #[must_use]
    pub fn laned(&self) -> bool {
        self.info.laned
    }

    /// Total events across all chunks.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.info.events
    }

    /// Number of chunks the section was persisted as.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.info.chunk_items.len()
    }

    /// The next chunk in stream order, blocking on the decode thread if
    /// it hasn't caught up. `None` once every chunk has been delivered;
    /// an `Err` is terminal (the decode thread has stopped).
    pub fn next_chunk(&mut self) -> Option<ChunkResult> {
        if self.delivered == self.info.chunk_items.len() {
            return None;
        }
        let ring = self.ring.as_ref()?;
        let item = match ring.recv() {
            Ok(item) => item,
            // The producer bailed after a fatal error we already
            // delivered; report the stream short rather than hanging.
            Err(_) => Err(ReadTraceError::Truncated { at_event: 0 }),
        };
        self.delivered += 1;
        Some(item)
    }
}

impl Drop for StreamCursor {
    fn drop(&mut self) {
        // Disconnect the ring first so a producer blocked on `send`
        // fails fast instead of deadlocking the join.
        drop(self.ring.take());
        if let Some(producer) = self.producer.take() {
            let _ = producer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_gauge_tracks_current_and_peak() {
        let window = StreamWindow::new();
        window.add(100);
        window.add(50);
        assert_eq!(window.current(), 150);
        assert_eq!(window.peak(), 150);
        window.sub(100);
        assert_eq!(window.current(), 50);
        assert_eq!(window.peak(), 150);
        window.add(125);
        assert_eq!(window.peak(), 175);
    }

    #[test]
    fn chunk_lease_releases_bytes_on_drop() {
        let window = Arc::new(StreamWindow::new());
        window.add(64);
        let chunk = StreamChunk {
            events: vec![0; 16],
            lanes: Vec::new(),
            lease: WindowLease { window: Arc::clone(&window), bytes: 64 },
        };
        assert_eq!(window.current(), 64);
        drop(chunk);
        assert_eq!(window.current(), 0);
        assert_eq!(window.peak(), 64);
    }

    #[test]
    fn cursor_streams_a_persisted_section_in_order() {
        use tlabp_trace::io::write_artifacts_chunked;
        use tlabp_trace::PatternStream;

        let dir = std::env::temp_dir().join(format!("tlabp-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cursor.tlabp");

        let mut stream = PatternStream::new(6, true);
        for i in 0..40_000u32 {
            stream.push_with_lane((i & 0x3f) as usize, i % 3 == 0, i % 5);
        }
        let key = b"stream-test-key".to_vec();
        // A tiny chunk budget forces multiple chunks even for this
        // small fixture.
        let bytes = write_artifacts_chunked(7, None, None, None, &[(key.clone(), &stream)], 1);
        std::fs::write(&path, &bytes).expect("write artifact");

        let window = Arc::new(StreamWindow::new());
        assert!(StreamCursor::open(&path, b"missing", 1 << 20, &window).is_none());
        let mut cursor = StreamCursor::open(&path, &key, 1 << 20, &window).expect("cursor opens");
        assert_eq!(cursor.history_bits(), 6);
        assert!(cursor.laned());
        assert_eq!(cursor.events(), stream.len() as u64);
        assert!(cursor.chunks() > 1, "fixture should span chunks");

        let mut events = Vec::new();
        let mut lanes = Vec::new();
        while let Some(chunk) = cursor.next_chunk() {
            let chunk = chunk.expect("chunk decodes");
            assert!(window.current() >= chunk.events().len() * 8);
            events.extend_from_slice(chunk.events());
            lanes.extend_from_slice(chunk.lanes());
        }
        assert_eq!(events, stream.events());
        assert_eq!(lanes, stream.lanes());
        drop(cursor);
        assert_eq!(window.current(), 0, "all leases released");
        assert!(window.peak() > 0);

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn cursor_surfaces_chunk_corruption_as_an_error() {
        use tlabp_trace::io::write_artifacts_chunked;
        use tlabp_trace::PatternStream;

        let dir = std::env::temp_dir().join(format!("tlabp-stream-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("corrupt.tlabp");

        let mut stream = PatternStream::new(4, false);
        for i in 0..30_000u32 {
            stream.push((i & 0xf) as usize, i % 7 < 3);
        }
        let key = b"k".to_vec();
        let mut bytes = write_artifacts_chunked(1, None, None, None, &[(key.clone(), &stream)], 1);
        // Flip a bit in the final payload byte: the section head (and
        // so `open`) stays valid, but the last chunk's checksum breaks.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write artifact");

        let window = Arc::new(StreamWindow::new());
        let mut cursor = StreamCursor::open(&path, &key, 1 << 20, &window).expect("head is intact");
        let mut saw_error = false;
        while let Some(chunk) = cursor.next_chunk() {
            match chunk {
                Ok(_) => assert!(!saw_error, "no chunks after a terminal error"),
                Err(error) => {
                    assert!(
                        matches!(error, ReadTraceError::SectionChecksum { .. }),
                        "unexpected error: {error:?}"
                    );
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error, "corruption must surface");
        drop(cursor);
        assert_eq!(window.current(), 0);

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
