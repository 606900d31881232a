//! Event-driven connection core: every client served from a fixed set
//! of threads.
//!
//! A thread per connection would cost one OS thread per client — fine
//! for a handful of interactive sessions, hostile to hundreds of sweep
//! clients. The daemon instead serves every connection from a readiness
//! loop:
//!
//! * **One I/O thread** rebuilds one `pollfd` array every turn from its
//!   own state — the self-pipe waker, the listener unless accepts are
//!   backed off, and every client socket with the interest its state
//!   implies — and blocks in `poll(2)` over it, every fd nonblocking.
//!   No registration outlives a turn, so there is no interest state to
//!   keep in sync. A wait costs O(connections), but the loop pumps and
//!   flushes every connection after every wait anyway, so an O(ready)
//!   wait such as `epoll`'s would save nothing. The `poll` call in the
//!   `sys` module is the crate's only unsafe code.
//! * **A reset connection closes at once.** An entry that reports an
//!   error, a hangup or an invalid fd but no input is dropped before
//!   any I/O: no interest mask silences those reports, so a kept
//!   connection (say a half-closed client that reset with frames
//!   unread) would spin the loop until its plan ended. An entry that
//!   reports input is read first, and a reset fails that read. Hosts
//!   differ on whether a half-close reports a hangup beside its input
//!   (Linux reports input alone), so a half-closed client reads to EOF
//!   and is served to the end either way.
//! * **Per-connection state machines** (`Conn`) reassemble frames
//!   from arbitrarily fragmented reads
//!   ([`FrameAssembler`], hard-capped at
//!   `MAX_FRAME_BYTES` per frame) and stage responses through a
//!   bounded output buffer: response bytes stop being generated past
//!   `OUT_HIGH` until the socket drains, so a slow reader holds
//!   buffers, not threads.
//! * **An executor pool**, a [`SweepPool`] of its own (sized off the
//!   global one, and never the global one: an executor waits on tasks
//!   the global pool's workers run), runs each admitted plan as one
//!   task through a [`Session`](tlabp_sim::Session) stream and hands
//!   finished frames back over a bounded channel, nudging the I/O
//!   thread through the waker after every frame and once more however
//!   the task ends. A plan that panics thus disconnects its channel and
//!   wakes the I/O thread, which answers "execution aborted on the
//!   server"; the pool's worker survives it. The channel bound is
//!   end-to-end backpressure: a client that stops reading eventually
//!   blocks only its own plan's producer.
//! * **Admission control**: at most [`INFLIGHT`] plans per connection
//!   execute concurrently; further pipelined plans wait in FIFO order
//!   and are (re)checked against the memo tier at admission, so a
//!   duplicate computed meanwhile is served for free. Responses always
//!   leave in request order.
//!
//! The accept loop survives resource exhaustion: a failing `accept`
//! (EMFILE and friends) suspends the listener with exponential backoff
//! (`next_backoff`) instead of spinning hot, counts the error, and
//! resumes serving established connections meanwhile.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tlabp_sim::plan::Plan;
use tlabp_sim::SweepPool;

use crate::memo::MemoEntry;
use crate::proto::FrameAssembler;
use crate::proto::{
    decode_frame, done_payload, encode_frame, error_payload, result_payload, FrameKind,
};
use crate::server::{validate_plan, Shared, INFLIGHT};

/// Hard cap on one frame line; a client that streams bytes without a
/// newline is cut off here rather than growing the reassembly buffer
/// without bound.
pub(crate) const MAX_FRAME_BYTES: usize = 8 << 20;
/// Stop generating response bytes for a connection whose unsent output
/// exceeds this; generation resumes as the socket drains.
const OUT_HIGH: usize = 256 << 10;
/// Bound of the per-plan frame channel between an executor and the I/O
/// thread — the backpressure window of one in-flight response.
const RESPONSE_WINDOW_FRAMES: usize = 64;
/// Stop reading from a connection with this many responses pending
/// (admitted or queued); reads resume as responses complete.
const MAX_PIPELINE: usize = 1024;
/// Read syscall chunk size.
const READ_CHUNK: usize = 64 << 10;
/// First delay after a failed `accept`.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Ceiling of the accept backoff schedule.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// How often the daemon considers printing its one-line stats summary.
const STATS_PERIOD: Duration = Duration::from_secs(60);

/// Fixed slots of the poll set; connections follow in `conns` order.
const WAKER: usize = 0;
const LISTENER: usize = 1;
const FIRST_CONN: usize = 2;

/// The accept backoff schedule: double per consecutive failure,
/// saturating at [`ACCEPT_BACKOFF_MAX`].
fn next_backoff(current: Duration) -> Duration {
    current.saturating_mul(2).min(ACCEPT_BACKOFF_MAX)
}

// ---------------------------------------------------------------------
// The raw readiness syscall. std exposes no readiness API and external
// crates are off the table, so `poll` is declared against the libc std
// already links. This module is the crate's entire unsafe surface;
// everything above it is safe Rust over `RawFd`s owned by std types.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::io;
    use std::os::unix::io::RawFd;

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;
    pub(super) const POLLERR: c_short = 0x008;
    pub(super) const POLLHUP: c_short = 0x010;
    pub(super) const POLLNVAL: c_short = 0x020;

    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    impl PollFd {
        /// An entry waiting for `events` on `fd`; a negative `fd` is
        /// skipped by the kernel and never reports.
        pub(super) fn new(fd: RawFd, events: c_short) -> PollFd {
            PollFd { fd, events, revents: 0 }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks in `poll(2)`; `timeout_ms < 0` blocks indefinitely.
    /// Returns the number of entries with nonzero `revents` (0 on
    /// timeout or EINTR).
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd values for the duration of the call, and
        // `nfds` is its exact length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

/// The I/O thread's end of the self-pipe: a nonblocking socketpair
/// polled in slot [`WAKER`].
#[derive(Debug)]
struct Waker {
    rx: UnixStream,
    tx: Arc<UnixStream>,
}

impl Waker {
    fn new() -> std::io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { rx, tx: Arc::new(tx) })
    }

    fn handle(&self) -> WakeHandle {
        WakeHandle { tx: Arc::clone(&self.tx) }
    }

    fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Swallows all pending wake bytes (many wakes coalesce into one
    /// loop iteration).
    fn drain(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Executor-side handle: nudges the I/O thread out of its wait.
#[derive(Debug, Clone)]
struct WakeHandle {
    tx: Arc<UnixStream>,
}

impl WakeHandle {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors are
        // deliberately ignored.
        let _ = (&*self.tx).write(&[1]);
    }
}

/// Wakes the I/O thread when dropped. An executor task holds one while
/// it runs a plan, so the I/O thread looks at the plan's channel however
/// the task ends: after `Done`, after the client hung up, or after a
/// panic that dropped the channel's sender first.
struct WakeOnDrop(WakeHandle);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

/// One admitted plan handed to the executor pool.
struct ExecJob {
    key: String,
    plan: Plan,
    reply: SyncSender<OutEvent>,
}

/// What an executor streams back to the I/O thread.
enum OutEvent {
    /// One pre-encoded `result` frame payload, in plan order.
    Frame(String),
    /// The response is complete.
    Done { jobs: usize, memo: bool },
}

/// Runs one admitted plan on an executor, streaming its frames back and
/// waking the I/O thread after each: the channel is bounded, so a
/// response longer than its window only drains as the I/O thread reads.
fn execute(shared: &Shared, job: ExecJob, waker: &WakeHandle) {
    // A send failure means the connection is gone; abandoning the
    // response mid-plan is safe (the stream drops the remaining jobs).
    let send_frame = |payload: String| {
        let sent = job.reply.send(OutEvent::Frame(payload)).is_ok();
        waker.wake();
        sent
    };
    // Recheck the memo tier: an identical plan may have completed while
    // this one waited in the executor queue.
    if let Some(entry) = shared.memo_get(&job.key) {
        shared.stats.memo_hit();
        if entry.iter().all(|frame| send_frame(frame.clone())) {
            let _ = job.reply.send(OutEvent::Done { jobs: entry.len(), memo: true });
        }
        return;
    }
    let session = shared.session();
    let mut payloads = Vec::with_capacity(job.plan.len());
    let complete = session.submit(&job.plan).drain_while(|item| {
        let payload = result_payload(item.index, &item.outcome);
        payloads.push(payload.clone());
        send_frame(payload)
    });
    if complete {
        let total = payloads.len();
        shared.memo_store(&job.key, &job.plan, payloads);
        let _ = job.reply.send(OutEvent::Done { jobs: total, memo: false });
    }
}

/// One response owed to a client, in request order.
enum Resp {
    /// Parsed and validated, waiting for an admission slot.
    Queued { key: String, plan: Box<Plan> },
    /// Executing; frames arrive over the bounded channel.
    Live { rx: Receiver<OutEvent> },
    /// A memo hit replaying pre-encoded frames.
    Memo { entry: MemoEntry, next: usize },
    /// An `error` frame; `fatal` closes the connection after it flushes.
    Fail { message: String, fatal: bool },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    peer: String,
    assembler: FrameAssembler,
    /// Staged output bytes; `out[out_pos..]` is unsent.
    out: Vec<u8>,
    out_pos: usize,
    /// Responses owed, FIFO.
    responses: VecDeque<Resp>,
    /// How many of `responses` are currently `Live`.
    live: usize,
    read_closed: bool,
    /// A fatal error frame has been staged; close once flushed.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, peer: String) -> Conn {
        Conn {
            stream,
            peer,
            assembler: FrameAssembler::new(MAX_FRAME_BYTES),
            out: Vec::new(),
            out_pos: 0,
            responses: VecDeque::new(),
            live: 0,
            read_closed: false,
            closing: false,
        }
    }

    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Reads stop after EOF or a fatal frame, and while [`MAX_PIPELINE`]
    /// responses are pending.
    fn wants_read(&self) -> bool {
        !self.read_closed && !self.closing && self.responses.len() < MAX_PIPELINE
    }

    /// This turn's poll entry: read interest per [`Conn::wants_read`],
    /// write interest while output is unsent.
    fn poll_fd(&self) -> sys::PollFd {
        let read = if self.wants_read() { sys::POLLIN } else { 0 };
        let write = if self.unsent() > 0 { sys::POLLOUT } else { 0 };
        sys::PollFd::new(self.stream.as_raw_fd(), read | write)
    }
}

fn append_frame(out: &mut Vec<u8>, kind: FrameKind, payload: &str) {
    out.extend_from_slice(encode_frame(kind, payload).as_bytes());
    out.push(b'\n');
}

/// Drains the socket until `WouldBlock`/EOF, reassembling and handling
/// every completed frame. Returns `false` when the connection died.
fn handle_readable(conn: &mut Conn, shared: &Shared, start: &dyn Fn(ExecJob)) -> bool {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        if conn.read_closed || conn.responses.len() >= MAX_PIPELINE {
            return true;
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                return true;
            }
            Ok(n) => match conn.assembler.push(&buf[..n]) {
                Ok(lines) => {
                    for line in lines {
                        if line.is_empty() {
                            continue;
                        }
                        handle_frame(conn, &line, shared, start);
                        if conn.read_closed {
                            return true;
                        }
                    }
                }
                Err(err) => {
                    // Framing is no longer trustworthy: answer with one
                    // error frame, then close after it flushes.
                    eprintln!("tlabp-serve: connection {}: {err}", conn.peer);
                    conn.responses.push_back(Resp::Fail { message: err.to_string(), fatal: true });
                    conn.read_closed = true;
                    return true;
                }
            },
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Handles one complete frame line from a client.
fn handle_frame(conn: &mut Conn, line: &str, shared: &Shared, start: &dyn Fn(ExecJob)) {
    match decode_frame(line) {
        Ok((FrameKind::Plan, payload)) => submit_plan(conn, payload, shared, start),
        Ok((kind, _)) => {
            conn.responses.push_back(Resp::Fail {
                message: format!("expected a plan frame, got {kind}"),
                fatal: false,
            });
        }
        Err(err) => {
            eprintln!("tlabp-serve: connection {}: {err}", conn.peer);
            conn.responses.push_back(Resp::Fail { message: err.to_string(), fatal: true });
            conn.read_closed = true;
        }
    }
}

/// Queues one plan request: memo fast path, then parse/validate, then
/// admission.
fn submit_plan(conn: &mut Conn, payload: &str, shared: &Shared, start: &dyn Fn(ExecJob)) {
    shared.stats.plan();
    // Fast path: conforming clients send the canonical plan JSON, which
    // is exactly the memo key — a hit costs one map probe and zero
    // parsing.
    if let Some(entry) = shared.memo_get(payload) {
        shared.stats.memo_hit();
        conn.responses.push_back(Resp::Memo { entry, next: 0 });
        return;
    }
    let plan = match Plan::from_json_str(payload) {
        Ok(plan) => plan,
        Err(err) => {
            conn.responses.push_back(Resp::Fail { message: err.to_string(), fatal: false });
            return;
        }
    };
    if let Err(message) = validate_plan(&plan) {
        conn.responses.push_back(Resp::Fail { message, fatal: false });
        return;
    }
    let key = plan.to_json_string();
    if key != payload {
        // Non-canonical encoding of a known plan: still a hit.
        if let Some(entry) = shared.memo_get(&key) {
            shared.stats.memo_hit();
            conn.responses.push_back(Resp::Memo { entry, next: 0 });
            return;
        }
    }
    conn.responses.push_back(Resp::Queued { key, plan: Box::new(plan) });
    admit(conn, shared, start);
}

/// Converts queued plans to live executions, FIFO, up to the
/// per-connection in-flight cap, handing each to `start`. Plans memoized
/// since they queued are converted to free memo replays instead (and
/// don't consume a slot).
fn admit(conn: &mut Conn, shared: &Shared, start: &dyn Fn(ExecJob)) {
    for resp in conn.responses.iter_mut() {
        if conn.live >= INFLIGHT {
            return;
        }
        if let Resp::Queued { key, plan } = resp {
            if let Some(entry) = shared.memo_get(key) {
                shared.stats.memo_hit();
                *resp = Resp::Memo { entry, next: 0 };
                continue;
            }
            let (tx, rx) = mpsc::sync_channel(RESPONSE_WINDOW_FRAMES);
            start(ExecJob {
                key: std::mem::take(key),
                plan: *std::mem::replace(plan, Box::new(Plan::new())),
                reply: tx,
            });
            *resp = Resp::Live { rx };
            conn.live += 1;
        }
    }
}

/// Moves completed response data into the output buffer (bounded by
/// [`OUT_HIGH`]) and re-admits queued plans as slots free up. Responses
/// leave strictly in request order.
fn pump(conn: &mut Conn, shared: &Shared, start: &dyn Fn(ExecJob)) {
    loop {
        let before = (conn.out.len(), conn.responses.len(), conn.live);
        fill_out(conn);
        admit(conn, shared, start);
        if (conn.out.len(), conn.responses.len(), conn.live) == before {
            return;
        }
    }
}

fn fill_out(conn: &mut Conn) {
    let Conn { out, out_pos, responses, live, closing, .. } = conn;
    while !*closing && out.len() - *out_pos < OUT_HIGH {
        let Some(front) = responses.front_mut() else { break };
        let pop = match front {
            Resp::Queued { .. } => break,
            Resp::Memo { entry, next } => {
                if *next < entry.len() {
                    append_frame(out, FrameKind::Result, &entry[*next]);
                    *next += 1;
                    false
                } else {
                    append_frame(out, FrameKind::Done, &done_payload(entry.len(), true));
                    true
                }
            }
            Resp::Live { rx } => match rx.try_recv() {
                Ok(OutEvent::Frame(payload)) => {
                    append_frame(out, FrameKind::Result, &payload);
                    false
                }
                Ok(OutEvent::Done { jobs, memo }) => {
                    append_frame(out, FrameKind::Done, &done_payload(jobs, memo));
                    *live -= 1;
                    true
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    // The plan panicked on its executor (it never
                    // disconnects before `Done` otherwise): report and
                    // close.
                    append_frame(
                        out,
                        FrameKind::Error,
                        &error_payload("execution aborted on the server"),
                    );
                    *live -= 1;
                    *closing = true;
                    true
                }
            },
            Resp::Fail { message, fatal } => {
                append_frame(out, FrameKind::Error, &error_payload(message));
                if *fatal {
                    *closing = true;
                }
                true
            }
        };
        if pop {
            responses.pop_front();
        }
    }
}

/// Writes as much staged output as the socket accepts. Returns `false`
/// when the connection died.
fn write_out(conn: &mut Conn) -> bool {
    loop {
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            return true;
        }
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                // Reclaim the sent prefix so the buffer stays bounded by
                // unsent bytes, not lifetime traffic.
                if conn.out_pos > 0 {
                    conn.out.drain(..conn.out_pos);
                    conn.out_pos = 0;
                }
                return true;
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

fn should_close(conn: &Conn) -> bool {
    let flushed = conn.unsent() == 0;
    flushed && (conn.closing || (conn.read_closed && conn.responses.is_empty()))
}

/// Runs the event-driven accept-and-serve loop forever. The fixed
/// thread budget is `1` (this I/O thread) `+ exec_threads` (the executor
/// pool), independent of the number of connections.
pub(crate) fn run(listener: &TcpListener, shared: &Arc<Shared>, exec_threads: usize) -> ! {
    listener.set_nonblocking(true).expect("nonblocking listener");
    let mut waker = Waker::new().expect("waker socketpair");

    // Never the global pool: an executor blocks on tasks that the
    // global pool's workers run.
    let executors = SweepPool::new(exec_threads);
    let wake = waker.handle();
    let start = |job: ExecJob| {
        let shared = Arc::clone(shared);
        let wake = WakeOnDrop(wake.clone());
        executors.spawn(move || execute(&shared, job, &wake.0));
    };

    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut backoff = ACCEPT_BACKOFF_MIN;
    let mut accept_resume: Option<Instant> = None;
    let mut last_stats = Instant::now();
    let mut last_stats_line = String::new();

    loop {
        // Resume a backed-off listener once its deadline passes.
        if accept_resume.is_some_and(|at| Instant::now() >= at) {
            accept_resume = None;
        }
        fds.clear();
        fds.push(sys::PollFd::new(waker.fd(), sys::POLLIN));
        let listening = if accept_resume.is_none() { listener.as_raw_fd() } else { -1 };
        fds.push(sys::PollFd::new(listening, sys::POLLIN));
        fds.extend(conns.iter().map(Conn::poll_fd));
        let timeout_ms = accept_resume.map_or(-1, |at| {
            let left = at.saturating_duration_since(Instant::now());
            i32::try_from(left.as_millis()).unwrap_or(i32::MAX)
        });
        if let Err(err) = sys::poll_fds(&mut fds, timeout_ms) {
            eprintln!("tlabp-serve: poll failed: {err}");
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }
        if fds[WAKER].revents != 0 {
            waker.drain();
        }

        if fds[LISTENER].revents != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        shared.stats.accept();
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream, peer.to_string()));
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(err) => {
                        // EMFILE and friends: back off instead of
                        // spinning hot, keep serving existing clients.
                        shared.stats.accept_error();
                        eprintln!(
                            "tlabp-serve: accept failed: {err}; pausing accepts for {backoff:?}"
                        );
                        accept_resume = Some(Instant::now() + backoff);
                        backoff = next_backoff(backoff);
                        break;
                    }
                }
            }
        }

        // Serve every connection: completed frames may belong to any of
        // them (the waker doesn't say which), and flushing below
        // OUT_HIGH may unblock more generation. Connections accepted
        // this turn have no entry yet. Dropping a connection closes its
        // socket and unblocks any executor mid-plan.
        let mut revents = fds[FIRST_CONN..].iter().map(|fd| fd.revents);
        conns.retain_mut(|conn| {
            let revents = revents.next().unwrap_or(0);
            if revents & sys::POLLIN != 0 {
                if !handle_readable(conn, shared, &start) {
                    return false;
                }
            } else if revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0 {
                return false;
            }
            pump(conn, shared, &start);
            if !write_out(conn) {
                return false;
            }
            pump(conn, shared, &start);
            write_out(conn) && !should_close(conn)
        });

        if last_stats.elapsed() >= STATS_PERIOD {
            last_stats = Instant::now();
            let line = shared.stats_line(conns.len());
            if line != last_stats_line {
                eprintln!("tlabp-serve: {line}");
                last_stats_line = line;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-flight cap, on any host: of `INFLIGHT + 1` queued plans,
    /// admission starts the first `INFLIGHT` in request order, and the
    /// last only once a live plan has finished.
    #[test]
    fn admission_starts_at_most_inflight_plans_in_fifo_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut conn = Conn::new(stream, "test".to_owned());
        let shared = Shared::unmemoized();
        let (job_tx, job_rx) = mpsc::channel();
        let start = |job: ExecJob| job_tx.send(job).expect("the test holds the receiver");
        for n in 0..=INFLIGHT {
            let plan = Box::new(Plan::new());
            conn.responses.push_back(Resp::Queued { key: n.to_string(), plan });
        }
        pump(&mut conn, &shared, &start);
        let started: Vec<ExecJob> = job_rx.try_iter().collect();
        let keys: Vec<String> = started.iter().map(|job| job.key.clone()).collect();
        assert_eq!(keys, (0..INFLIGHT).map(|n| n.to_string()).collect::<Vec<_>>());
        assert_eq!(conn.live, INFLIGHT);

        started[0].reply.send(OutEvent::Done { jobs: 0, memo: false }).expect("response open");
        pump(&mut conn, &shared, &start);
        let next: Vec<String> = job_rx.try_iter().map(|job| job.key).collect();
        assert_eq!(next, [INFLIGHT.to_string()], "a finished plan frees one slot");
        assert_eq!(conn.live, INFLIGHT);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut delay = ACCEPT_BACKOFF_MIN;
        let mut schedule = Vec::new();
        for _ in 0..10 {
            schedule.push(delay.as_millis());
            delay = next_backoff(delay);
        }
        assert_eq!(schedule[..8], [10, 20, 40, 80, 160, 320, 640, 1000]);
        assert_eq!(delay, ACCEPT_BACKOFF_MAX, "the schedule saturates at the max");
    }

    /// Polls `fds` with `timeout` and returns each entry's `revents`.
    fn poll(fds: &mut [sys::PollFd], timeout: Duration) -> Vec<i16> {
        let timeout_ms = i32::try_from(timeout.as_millis()).expect("short timeout");
        sys::poll_fds(fds, timeout_ms).expect("poll");
        fds.iter().map(|fd| fd.revents).collect()
    }

    #[test]
    fn poll_reports_listener_connection_and_reset_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let mut fds = [sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN)];
        assert_eq!(poll(&mut fds, Duration::from_millis(10)), [0], "no client yet");

        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let revents = poll(&mut fds, Duration::from_secs(5));
        assert!(revents[0] & sys::POLLIN != 0, "a pending accept reads as listener input");

        // A connected socket with write interest is writable at once.
        let (server, _) = listener.accept().expect("accept");
        let mut fds = [sys::PollFd::new(server.as_raw_fd(), sys::POLLOUT)];
        let revents = poll(&mut fds, Duration::from_secs(5));
        assert!(revents[0] & sys::POLLOUT != 0, "an idle connected socket is writable");

        // A peer that closes with bytes unread resets the connection,
        // which reports even to an entry with no interest at all.
        (&server).write_all(b"unread").expect("write");
        client.peek(&mut [0u8; 1]).expect("the bytes reach the peer");
        drop(client);
        let mut fds = [sys::PollFd::new(server.as_raw_fd(), 0)];
        let revents = poll(&mut fds, Duration::from_secs(5));
        assert!(revents[0] & (sys::POLLERR | sys::POLLHUP) != 0, "{:#x}", revents[0]);

        // A negative fd is skipped: the listener slot of a backed-off
        // accept loop never reports.
        let mut fds = [sys::PollFd::new(-1, sys::POLLIN)];
        assert_eq!(poll(&mut fds, Duration::from_millis(10)), [0]);
    }

    #[test]
    fn waker_unblocks_a_waiting_poll() {
        let mut waker = Waker::new().expect("waker");
        let handle = waker.handle();
        let waking = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            handle.wake();
        });
        let start = Instant::now();
        let mut fds = [sys::PollFd::new(waker.fd(), sys::POLLIN)];
        let revents = poll(&mut fds, Duration::from_secs(10));
        assert!(revents[0] & sys::POLLIN != 0, "the wake byte reads as waker input");
        assert!(start.elapsed() < Duration::from_secs(5), "woken, not timed out");
        waker.drain();
        // Coalesced wakes drain to quiescence: the next wait times out.
        assert_eq!(poll(&mut fds, Duration::from_millis(10)), [0], "a drained waker is quiet");
        waking.join().expect("waker thread");
    }
}
