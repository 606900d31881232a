//! The daemon workloads: closed-loop raw-socket clients against an
//! in-process `SweepServer` configured like `experiments serve` (default
//! config, ephemeral port, disk-backed store, memo tiers on).
//!
//! - `serve-memo`: one client. Before measuring it sends a pool of fresh
//!   plans once, which fills the memo; every measured plan repeats one of
//!   the pool and should be answered from the memo.
//! - `serve-fresh`: two clients. Every measured plan is one the daemon
//!   has not seen, so it misses the memo, simulates and is written to
//!   both memo tiers.
//!
//! A fresh plan is a seeded draw of 1–16 distinct jobs from a fixed job
//! universe. Each workload exercises one path, so its latency median is
//! that path's, not a point between two modes that moves with the mix.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tlabp_core::automaton::Automaton;
use tlabp_core::config::SchemeConfig;
use tlabp_service::proto::{
    decode_frame, encode_frame, parse_done_payload, parse_result_payload, result_payload,
    FrameKind, FRAME_MAGIC, PROTOCOL_VERSION,
};
use tlabp_service::{ServeConfig, SweepServer};
use tlabp_sim::plan::{Job, Plan};
use tlabp_sim::{prefetch_on, ExecOptions, ResultSet, Session, SweepPool, TraceStore};
use tlabp_workloads::Benchmark;

use crate::spans::{Tracer, OP, PROBE, SETUP};
use crate::stats::Outcomes;
use crate::{Ctx, Measured, Rng, SETUP_REPEATS};

const MAX_PLAN_JOBS: u64 = 16;
/// Plans the `serve-memo` client sends once before measuring and then
/// repeats: every size from 1 to `MAX_PLAN_JOBS` jobs twice, so the
/// seed picks the jobs but not the amount of work.
const REPEAT_POOL: u64 = 2 * MAX_PLAN_JOBS;
/// Longest a client waits for a response before counting it failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Fresh plans the traced run re-executes in process to split a miss's
/// round trip into simulation and daemon overhead.
const MISS_OVERHEAD_SAMPLES: usize = 32;
/// Length of the slices the measuring window is cut into for
/// `serve-memo`'s `work_per_s`, in seconds.
const SLICE_S: f64 = 1.0;

/// What the measured plans are.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// Repeats of plans the daemon has answered before.
    Repeats,
    /// Plans the daemon has not seen.
    Fresh,
}

impl Traffic {
    /// Concurrent clients. A memo hit is a few tens of microseconds of
    /// socket wake-ups, so a second client would only add a third
    /// runnable thread (beside the server's I/O thread) on a two-core
    /// host and measure the scheduler; a miss keeps the pool's workers
    /// busy, which takes two.
    fn clients(self) -> usize {
        match self {
            Traffic::Repeats => 1,
            Traffic::Fresh => 2,
        }
    }
}

pub fn serve_memo(ctx: &Ctx<'_>) -> Result<Measured, String> {
    serve(ctx, Traffic::Repeats)
}

pub fn serve_fresh(ctx: &Ctx<'_>) -> Result<Measured, String> {
    serve(ctx, Traffic::Fresh)
}

/// The job universe fresh plans draw from, one plan per scheme: per
/// benchmark, GAg, PAg and PAp each at one history width under every
/// Figure 5 automaton, GSg at one width, and a BTB under every
/// automaton. Widths spread over 4–14 across benchmarks and schemes but
/// do not depend on the seed, so every seed draws from the same amount
/// of work. One width per scheme and benchmark keeps the pattern
/// streams any subset can need to a handful per trace; prefetching each
/// scheme's plan derives all of them during set-up.
fn universe() -> Vec<Plan> {
    let mut schemes = vec![Plan::new(); 5];
    for (b, benchmark) in Benchmark::ALL.iter().enumerate() {
        let width = |scheme: usize| 4 + ((3 * b + 4 * scheme) % 11) as u32;
        for (s, (plan, scheme)) in schemes
            .iter_mut()
            .zip([SchemeConfig::gag, SchemeConfig::pag, SchemeConfig::pap])
            .enumerate()
        {
            for automaton in Automaton::FIGURE5 {
                plan.push(Job::scheme(scheme(width(s)).with_automaton(automaton), benchmark));
            }
        }
        schemes[3].push(Job::scheme(SchemeConfig::gsg(width(3)), benchmark));
        for automaton in Automaton::FIGURE5 {
            schemes[4].push(Job::scheme(SchemeConfig::btb(automaton), benchmark));
        }
    }
    schemes
}

/// One plan a client sends, with the response it must get back.
struct Request {
    frame: Vec<u8>,
    /// The result frames, byte for byte, as built from the in-process
    /// run of the universe.
    expected: Vec<u8>,
    jobs: usize,
    plan: Plan,
}

/// A client's source of fresh plans.
struct Planner<'a> {
    client: usize,
    clients: usize,
    rng: Rng,
    seen: HashSet<Vec<usize>>,
    universe: &'a [Job],
    oracle: &'a ResultSet,
}

impl<'a> Planner<'a> {
    fn new(
        (client, clients): (usize, usize),
        seed: u64,
        universe: &'a [Job],
        oracle: &'a ResultSet,
    ) -> Self {
        let rng = Rng::new(seed ^ (0x5eed_c11e_0000 + client as u64));
        Planner { client, clients, rng, seen: HashSet::new(), universe, oracle }
    }

    /// A seeded plan size: 1–16 jobs.
    fn random_len(&mut self) -> usize {
        self.rng.range(1, MAX_PLAN_JOBS) as usize
    }

    /// Draws `len` distinct universe jobs whose first job index is the
    /// client's residue, so two clients' fresh plans never coincide,
    /// redrawn until unseen by this client.
    fn draw(&mut self, len: usize) -> Vec<usize> {
        loop {
            let mut indices: Vec<usize> = Vec::with_capacity(len);
            while indices.len() < len {
                let index = self.rng.below(self.universe.len() as u64) as usize;
                let fits = if indices.is_empty() {
                    index % self.clients == self.client
                } else {
                    !indices.contains(&index)
                };
                if fits {
                    indices.push(index);
                }
            }
            if self.seen.insert(indices.clone()) {
                return indices;
            }
        }
    }

    /// A fresh plan of `len` jobs with the frame to send and the
    /// response to expect.
    fn fresh(&mut self, len: usize, tracer: &Tracer) -> Request {
        let indices = self.draw(len);
        let plan: Plan = indices.iter().map(|&i| self.universe[i].clone()).collect();
        let frame = tracer.span("service.proto.encode", || {
            let mut frame = encode_frame(FrameKind::Plan, &plan.to_json_string()).into_bytes();
            frame.push(b'\n');
            frame
        });
        let expected = tracer.span("bench.inputs", || {
            let mut expected = Vec::new();
            for (position, &index) in indices.iter().enumerate() {
                let payload = result_payload(position, self.oracle.outcome(index));
                expected.extend_from_slice(encode_frame(FrameKind::Result, &payload).as_bytes());
                expected.push(b'\n');
            }
            expected
        });
        Request { frame, expected, jobs: indices.len(), plan }
    }
}

/// The line prefixes of the frames that end a response.
struct Terminals {
    done: String,
    error: String,
}

impl Terminals {
    fn new() -> Terminals {
        let prefix = |kind: FrameKind| format!("{FRAME_MAGIC} {PROTOCOL_VERSION} {kind} ");
        Terminals { done: prefix(FrameKind::Done), error: prefix(FrameKind::Error) }
    }

    fn ends(&self, line: &[u8]) -> bool {
        line.starts_with(self.done.as_bytes()) || line.starts_with(self.error.as_bytes())
    }
}

/// One client connection.
struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    terminals: Terminals,
}

impl Connection {
    fn open(addr: &str) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection { stream, reader, terminals: Terminals::new() })
    }

    /// Writes one plan frame and reads frames up to the one that ends
    /// the response.
    fn exchange(&mut self, frame: &[u8], tracer: &Tracer) -> std::io::Result<Vec<u8>> {
        tracer.span("service.send", || self.stream.write_all(frame))?;
        let (reader, terminals) = (&mut self.reader, &self.terminals);
        let mut response = Vec::new();
        let mut read_frame = |response: &mut Vec<u8>| -> std::io::Result<bool> {
            let start = response.len();
            if reader.read_until(b'\n', response)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            Ok(terminals.ends(&response[start..]))
        };
        if !tracer.span("service.first_frame", || read_frame(&mut response))? {
            tracer.span("service.stream", || -> std::io::Result<()> {
                while !read_frame(&mut response)? {}
                Ok(())
            })?;
        }
        Ok(response)
    }

    /// How a response compares with what the request must get back.
    fn check(&self, response: &[u8], request: &Request) -> Checked {
        let last =
            response[..response.len() - 1].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let (results, end) = response.split_at(last);
        let done = std::str::from_utf8(end)
            .ok()
            .and_then(|text| decode_frame(text).ok())
            .filter(|(kind, _)| *kind == FrameKind::Done)
            .and_then(|(_, payload)| parse_done_payload(payload).ok());
        Checked {
            matches: results == request.expected && done.is_some_and(|d| d.jobs == request.jobs),
            memo: done.is_some_and(|d| d.memo),
            error_frame: end.starts_with(self.terminals.error.as_bytes()),
        }
    }
}

struct Checked {
    matches: bool,
    memo: bool,
    error_frame: bool,
}

/// Decodes a response the way a structured client would; returns the
/// result payload bytes.
fn decode_response(response: &[u8]) -> usize {
    let text = String::from_utf8_lossy(response);
    let mut bytes = 0;
    for line in text.lines() {
        if let Ok((FrameKind::Result, payload)) = decode_frame(line) {
            if parse_result_payload(payload).is_ok() {
                bytes += line.len() + 1;
            }
        }
    }
    bytes
}

/// What one client saw.
struct ClientLog {
    ops: Outcomes,
    /// Plans and round-trip seconds of the client's first correct fresh
    /// plans.
    miss_samples: Vec<(Plan, f64)>,
    memo_hits: u64,
    error_frames: u64,
    /// Correct responses per slice of the measuring window.
    completed: Slices,
}

/// Correct responses counted per slice of the measuring window.
#[derive(Clone)]
struct Slices {
    start: Instant,
    width: f64,
    counts: Vec<u64>,
}

impl Slices {
    fn new(start: Instant, seconds: f64) -> Slices {
        let slices = ((seconds / SLICE_S).floor() as usize).max(1);
        Slices { start, width: seconds / slices as f64, counts: vec![0; slices] }
    }

    /// Counts a response that arrived at `at`; one after the window is
    /// not counted.
    fn count(&mut self, at: Instant) {
        let index = (at.duration_since(self.start).as_secs_f64() / self.width) as usize;
        if let Some(count) = self.counts.get_mut(index) {
            *count += 1;
        }
    }

    fn merge(&mut self, other: &Slices) {
        for (count, other) in self.counts.iter_mut().zip(&other.counts) {
            *count += other;
        }
    }

    /// Responses per second in each slice.
    fn rates(&self) -> Vec<f64> {
        self.counts.iter().map(|&count| count as f64 / self.width).collect()
    }
}

/// One client's closed loop until the deadline: repeats drawn from
/// `pool`, or fresh plans from `planner` when the pool is empty.
fn client_loop(
    addr: &str,
    mut planner: Planner<'_>,
    pool: &[Request],
    slices: Slices,
    deadline: Instant,
    tracer: &Tracer,
) -> ClientLog {
    let mut log = ClientLog {
        ops: Outcomes::default(),
        miss_samples: Vec::new(),
        memo_hits: 0,
        error_frames: 0,
        completed: slices,
    };
    let Ok(mut connection) = Connection::open(addr) else {
        log.ops.record(None);
        return log;
    };
    let mut sequence = 0u64;
    let mut fresh;
    while Instant::now() < deadline {
        let request_id = ((planner.client as u64) << 32) | sequence;
        sequence += 1;
        let request = if pool.is_empty() {
            let len = planner.random_len();
            fresh = tracer.root(PROBE, request_id, || planner.fresh(len, tracer));
            &fresh
        } else {
            &pool[planner.rng.below(pool.len() as u64) as usize]
        };
        let begin = Instant::now();
        let outcome = tracer.root(OP, request_id, || connection.exchange(&request.frame, tracer));
        let latency = begin.elapsed().as_secs_f64();
        let Ok(response) = outcome else {
            log.ops.record(None);
            // The connection's framing is lost; start a new one.
            match Connection::open(addr) {
                Ok(reopened) => connection = reopened,
                Err(_) => break,
            }
            continue;
        };
        let checked = connection.check(&response, request);
        log.ops.record(checked.matches.then_some(latency));
        if checked.matches {
            log.completed.count(Instant::now());
        }
        log.error_frames += u64::from(checked.error_frame);
        log.memo_hits += u64::from(checked.memo);
        if pool.is_empty() && checked.matches && log.miss_samples.len() < MISS_OVERHEAD_SAMPLES {
            log.miss_samples.push((request.plan.clone(), latency));
        }
        if tracer.enabled() {
            tracer.count("service.proto.plan_bytes", request.frame.len() as f64);
            let bytes = tracer.root(PROBE, request_id, || {
                tracer.span("service.proto.decode", || decode_response(&response))
            });
            tracer.count("service.proto.result_bytes", bytes as f64);
        }
    }
    log
}

/// Sends each plan of a `serve-memo` client's pool once, so the memo
/// holds it; returns how many responses were wrong.
fn fill_memo(addr: &str, pool: &[Request]) -> Result<usize, String> {
    let mut connection =
        Connection::open(addr).map_err(|e| format!("cannot connect to the server: {e}"))?;
    let mut wrong = 0;
    for request in pool {
        let response = connection
            .exchange(&request.frame, &Tracer::new(false))
            .map_err(|e| format!("filling the memo failed: {e}"))?;
        wrong += usize::from(!connection.check(&response, request).matches);
    }
    Ok(wrong)
}

fn serve(ctx: &Ctx<'_>, traffic: Traffic) -> Result<Measured, String> {
    let tracer = ctx.tracer;
    let pool = SweepPool::global();
    let schemes = universe();
    let universe: Vec<Job> = schemes.iter().flat_map(|plan| plan.jobs().to_vec()).collect();

    // The daemon's cache directory is filled once; each set-up is then
    // a daemon start on it: a new store that hydrates every form the
    // universe needs.
    let dir = ctx.dir.join("serve-cache");
    let cold = TraceStore::with_cache_dir(&dir);
    for plan in &schemes {
        prefetch_on(pool, plan, &cold);
    }
    drop(cold);
    let mut measured = Measured::default();
    let mut store = TraceStore::new();
    for round in 0..SETUP_REPEATS {
        store = TraceStore::with_cache_dir(&dir);
        let start = Instant::now();
        tracer.root(SETUP, round, || {
            for plan in &schemes {
                tracer.span("sim.suite.prefetch", || prefetch_on(pool, plan, &store));
            }
        });
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }
    let universe_plan: Plan = universe.iter().cloned().collect();
    let oracle = Session::new(store.clone()).run(&universe_plan);

    let config = ServeConfig { addr: "127.0.0.1:0".to_owned(), ..ServeConfig::default() };
    let server = SweepServer::bind(&config, store.clone(), ExecOptions::default())
        .map_err(|e| format!("cannot bind the sweep server: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("no server address: {e}"))?.to_string();
    // `SweepServer::run` never returns: the server thread ends with the
    // process, after every client has read its last response.
    std::thread::spawn(move || server.run());

    let clients = traffic.clients();
    let mut planners: Vec<Planner<'_>> = (0..clients)
        .map(|client| Planner::new((client, clients), ctx.seed, &universe, &oracle))
        .collect();
    let pools: Vec<Vec<Request>> = match traffic {
        Traffic::Fresh => (0..clients).map(|_| Vec::new()).collect(),
        Traffic::Repeats => planners
            .iter_mut()
            .map(|planner| {
                tracer.root(PROBE, planner.client as u64, || {
                    (0..REPEAT_POOL)
                        .map(|i| planner.fresh((1 + i % MAX_PLAN_JOBS) as usize, tracer))
                        .collect()
                })
            })
            .collect(),
    };
    for pool in &pools {
        for _ in 0..fill_memo(&addr, pool)? {
            measured.failures.push("a plan sent to fill the memo got a wrong response".into());
            measured.ops.record(None);
        }
    }

    let deadline = ctx.start_measuring();
    let slices = Slices::new(Instant::now(), ctx.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = planners
            .into_iter()
            .zip(&pools)
            .map(|(planner, pool)| {
                let addr = &addr;
                let slices = slices.clone();
                scope.spawn(move || client_loop(addr, planner, pool, slices, deadline, tracer))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    measured.end_measuring();

    let mut memo_hits = 0;
    let mut completed = slices;
    let mut miss_samples = Vec::new();
    for log in logs {
        memo_hits += log.memo_hits;
        completed.merge(&log.completed);
        tracer.count("service.error_frames", log.error_frames as f64);
        miss_samples.extend(log.miss_samples);
        measured.ops.merge(log.ops);
    }
    measured.work = completed.counts.iter().sum::<u64>() as f64;
    measured.work_s = ctx.seconds;
    // A second of memo hits holds thousands of responses, so the median
    // second is not moved by a stall of the host that would pull down
    // the window's mean. A second of misses holds a few dozen, too
    // coarse a count to rank.
    if traffic == Traffic::Repeats {
        measured.slice_rates = completed.rates();
    }
    tracer.count("service.memo_hits", memo_hits as f64);

    if tracer.enabled() {
        let responses = measured.ops.attempted().max(1) as f64;
        measured.layers.push(("service.memo_hit_ratio", memo_hits as f64 / responses));
        if traffic == Traffic::Fresh {
            let session = Session::new(store.clone());
            let round_trip: f64 = miss_samples.iter().map(|(_, s)| s).sum();
            let before = tracer.total("sim.engine.session");
            for (request, (plan, _)) in miss_samples.iter().enumerate() {
                tracer.root(PROBE, request as u64, || {
                    tracer.span("sim.engine.session", || session.run(plan))
                });
            }
            let in_process = tracer.total("sim.engine.session") - before;
            measured.layers.push(("service.miss_overhead", (round_trip - in_process) / round_trip));
        }
    }
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_count_responses_inside_the_window_only() {
        let start = Instant::now();
        let mut a = Slices::new(start, 3.0);
        let mut b = a.clone();
        a.count(start + Duration::from_millis(100));
        a.count(start + Duration::from_millis(2_500));
        b.count(start + Duration::from_millis(2_900));
        b.count(start + Duration::from_millis(3_100));
        a.merge(&b);
        assert_eq!(a.counts, [1, 0, 2]);
        assert_eq!(a.rates(), [1.0, 0.0, 2.0]);
        assert_eq!(Slices::new(start, 0.5).counts.len(), 1, "a short window is one slice");
    }
}
