//! Acceptance tests for the sweep-as-a-service daemon.
//!
//! In-process servers (bound to ephemeral ports) back every scenario:
//! concurrent clients each receive streamed result sets bit-identical to
//! an in-process `Session::run` of the same plan; repeated submissions are
//! answered from the memo cache with zero simulation work (proven by a
//! counting predictor builder), including across a daemon restart via
//! the persistent memo tier; admission control holds pipelined plans to
//! the per-connection in-flight cap in FIFO order; results arrive
//! incrementally in plan order; malformed plans, including schemes with
//! an impossible table geometry, earn error frames and leave the daemon
//! serving; a plan whose predictor panics earns an error frame and
//! costs no executor; a client that half-closes its connection still
//! gets every response, then EOF; a 64-client mixed cold/memo/malformed
//! soak stays bit-identical throughout; and 256 idle connections cost no
//! additional threads.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use tlabp::core::config::SchemeConfig;
use tlabp::core::registry;
use tlabp::service::{Client, MemoDirMode, ServeConfig, SweepServer, INFLIGHT};
use tlabp::sim::plan::{Job, Plan};
use tlabp::sim::{ExecOptions, ResultSet, Session, SweepPool, TraceStore};
use tlabp::trace::BranchRecord;
use tlabp::workloads::Benchmark;

/// `plan` on the global pool against `store`.
fn run(plan: &Plan, store: &TraceStore) -> ResultSet {
    Session::new(store.clone()).run(plan)
}

/// Held by the soak test, which spawns 64 client threads, and by the
/// thread-count test, so the process-wide thread count the latter reads
/// never includes the former's clients.
static MANY_THREADS: Mutex<()> = Mutex::new(());

fn li() -> &'static Benchmark {
    Benchmark::by_name("li").expect("li exists")
}

/// A test server config: ephemeral port, persistence off, defaults
/// otherwise.
fn server_config(memo_bytes: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        memo_bytes,
        memo_dir: MemoDirMode::Off,
        memo_disk_bytes: None,
    }
}

/// Binds a fresh daemon and serves it from a background thread; returns
/// the address to dial.
fn spawn_server(config: ServeConfig) -> String {
    let server = SweepServer::bind(&config, TraceStore::new(), ExecOptions::default())
        .expect("ephemeral port binds");
    let addr = server.local_addr().expect("bound address").to_string();
    std::thread::spawn(move || server.run());
    addr
}

fn connect(addr: &str) -> Client {
    Client::connect_with_retry(addr, Duration::from_secs(10)).expect("daemon reachable")
}

/// A batch of distinct plans pipelined on one connection comes back in
/// submission order, every response bit-identical to an in-process
/// execution. The batch is larger than the in-flight cap, so the tail
/// of it exercises the FIFO queue.
#[test]
fn pipelined_submissions_return_responses_in_submission_order() {
    let plans: Vec<Plan> = (6..=11)
        .map(|bits| std::iter::once(Job::scheme(SchemeConfig::pag(bits), li())).collect())
        .collect();
    let store = TraceStore::new();
    let expected: Vec<String> =
        plans.iter().map(|plan| run(plan, &store).to_json_string()).collect();

    assert!(plans.len() > INFLIGHT, "the batch overflows the in-flight cap");
    let addr = spawn_server(server_config(64 << 20));
    let mut client = connect(&addr);
    let responses = client.execute_pipelined(&plans).expect("pipelined batch completes");
    assert_eq!(responses.len(), plans.len());
    for (index, ((results, done), want)) in responses.iter().zip(&expected).enumerate() {
        assert!(!done.memo, "first sight of plan {index} must simulate");
        assert_eq!(
            &results.to_json_string(),
            want,
            "pipelined response {index} diverged from in-process execution"
        );
    }
}

/// Two clients submit concurrently; each streamed response reconstructs
/// a `ResultSet` bit-identical (canonical JSON byte equality, not just
/// `==`) to executing the same plan in-process. A third submission of
/// the same plan is served from the memo cache, again byte-identical.
#[test]
fn concurrent_clients_match_in_process_execution_bit_for_bit() {
    let plan_a: Plan = [
        Job::scheme(SchemeConfig::pag(8), li()),
        Job::scheme(SchemeConfig::gag(8), li()),
        Job::scheme(SchemeConfig::btfn(), li()),
    ]
    .into_iter()
    .collect();
    let plan_b: Plan =
        [Job::scheme(SchemeConfig::gag(10), li()), Job::scheme(SchemeConfig::always_taken(), li())]
            .into_iter()
            .collect();

    let store = TraceStore::new();
    let expected_a = run(&plan_a, &store).to_json_string();
    let expected_b = run(&plan_b, &store).to_json_string();

    let addr = spawn_server(server_config(64 << 20));
    let threads =
        [(plan_a.clone(), expected_a.clone()), (plan_b, expected_b)].map(|(plan, expected)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (results, done) = connect(&addr).execute(&plan).expect("streamed response");
                assert_eq!(done.jobs, plan.len());
                assert!(!done.memo, "first submission of each plan simulates");
                assert_eq!(
                    results.to_json_string(),
                    expected,
                    "streamed results must be bit-identical to in-process execution"
                );
            })
        });
    for thread in threads {
        thread.join().expect("client thread");
    }

    // Same plan again: the daemon replays its memoized frames.
    let (results, done) = connect(&addr).execute(&plan_a).expect("memoized response");
    assert!(done.memo, "repeat submission must hit the memo cache");
    assert_eq!(results.to_json_string(), expected_a, "memoized response must be byte-identical");
}

/// Zero simulation work on a memo hit: a counting registry builder shows
/// the predictor is never even constructed for the repeated plan.
#[test]
fn memoized_responses_do_no_simulation_work() {
    let addr = spawn_server(server_config(64 << 20));
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&builds);
    registry::register("service-test-counting", move || {
        counter.fetch_add(1, Ordering::SeqCst);
        Box::new(tlabp::core::schemes::Btfn::new())
    });
    let plan: Plan =
        [Job::custom("service-test-counting", li()).with_fusion(false)].into_iter().collect();

    let mut client = connect(&addr);
    let (first, done) = client.execute(&plan).expect("first response");
    assert!(!done.memo);
    let builds_after_first = builds.load(Ordering::SeqCst);
    assert!(builds_after_first >= 1, "the first submission simulates for real");

    let (second, done) = client.execute(&plan).expect("second response");
    assert!(done.memo, "identical plan must memo-hit");
    assert_eq!(
        builds.load(Ordering::SeqCst),
        builds_after_first,
        "a memoized response must perform zero simulation work"
    );
    assert_eq!(second, first);

    // A memo budget of zero bytes disables replay: every submission
    // simulates.
    let addr_uncached = spawn_server(server_config(0));
    let mut client = connect(&addr_uncached);
    let before = builds.load(Ordering::SeqCst);
    let (_, done) = client.execute(&plan).expect("uncached response");
    assert!(!done.memo);
    let (_, done) = client.execute(&plan).expect("second uncached response");
    assert!(!done.memo, "a zero-byte memo budget disables memoization");
    assert!(builds.load(Ordering::SeqCst) >= before + 2);
}

/// A daemon restarted over the same memo directory serves a
/// previously-seen plan from the persistent tier: byte-identical
/// response, `done.memo == true`, and zero simulation work — proven by
/// a counting builder that is never invoked by the second server.
#[test]
fn restarted_daemon_replays_persisted_memo_with_zero_simulation_work() {
    let dir = std::env::temp_dir().join(format!("tlabp-service-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&builds);
    registry::register("service-restart-counting", move || {
        counter.fetch_add(1, Ordering::SeqCst);
        Box::new(tlabp::core::schemes::Btfn::new())
    });
    let plan: Plan =
        [Job::custom("service-restart-counting", li()).with_fusion(false)].into_iter().collect();

    let mut config = server_config(1 << 20);
    config.memo_dir = MemoDirMode::Dir(dir.clone());
    let addr_a = spawn_server(config.clone());
    let (first, done) = connect(&addr_a).execute(&plan).expect("cold response");
    assert!(!done.memo);
    let builds_after = builds.load(Ordering::SeqCst);
    assert!(builds_after >= 1, "the cold submission simulates");
    let artifacts =
        std::fs::read_dir(&dir).map(|entries| entries.filter_map(Result::ok).count()).unwrap_or(0);
    assert!(artifacts >= 1, "the response must be persisted as a memo artifact");

    // A brand-new server over the same directory — fresh in-memory LRU,
    // fresh TraceStore — hydrates the artifact and answers from it.
    let addr_b = spawn_server(config);
    let (second, done) = connect(&addr_b).execute(&plan).expect("hydrated response");
    assert!(done.memo, "the restarted daemon must answer from the persistent memo tier");
    assert_eq!(
        builds.load(Ordering::SeqCst),
        builds_after,
        "zero simulation work across the restart"
    );
    assert_eq!(
        second.to_json_string(),
        first.to_json_string(),
        "the replayed response must be byte-identical across the restart"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: with [`INFLIGHT`] gated plans pipelined ahead of
/// it on one connection, a further plan is not even *started* (its
/// builder never runs) until a gated plan completes, and every response
/// comes back in request order. On a host with fewer than `INFLIGHT + 1`
/// executor threads the executor pool holds the last plan back too;
/// the event core's unit tests check the cap alone.
#[test]
fn admission_holds_pipelined_plans_to_the_in_flight_cap_in_fifo_order() {
    use std::io::{BufRead, BufReader, Write};
    use tlabp::service::proto::{decode_frame, encode_frame, FrameKind};

    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&release);
    registry::register("service-admission-gated", move || {
        while !gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Box::new(tlabp::core::schemes::Btfn::new())
    });
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&builds);
    registry::register("service-admission-counting", move || {
        counter.fetch_add(1, Ordering::SeqCst);
        Box::new(tlabp::core::schemes::Btfn::new())
    });

    // Memoization off so every plan really executes.
    let addr = spawn_server(server_config(0));

    let gated: Plan =
        [Job::custom("service-admission-gated", li()).with_fusion(false)].into_iter().collect();
    let counting: Plan =
        [Job::custom("service-admission-counting", li()).with_fusion(false)].into_iter().collect();

    let mut stream = std::net::TcpStream::connect(&addr).expect("daemon reachable");
    for plan in std::iter::repeat_n(&gated, INFLIGHT).chain([&counting]) {
        stream
            .write_all(encode_frame(FrameKind::Plan, &plan.to_json_string()).as_bytes())
            .expect("write plan frame");
        stream.write_all(b"\n").expect("write newline");
    }
    stream.flush().expect("flush");

    // While the gated plans fill every in-flight slot, the last plan
    // must not have been admitted: its builder has run zero times.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        builds.load(Ordering::SeqCst),
        0,
        "the plan past the in-flight cap must wait for a gated plan to finish"
    );
    release.store(true, Ordering::SeqCst);

    let reader = BufReader::new(stream);
    let mut kinds = Vec::new();
    for line in reader.lines() {
        let line = line.expect("response line");
        if line.is_empty() {
            continue;
        }
        let (kind, _) = decode_frame(&line).expect("response frame decodes");
        kinds.push(kind);
        if kinds.iter().filter(|&&kind| kind == FrameKind::Done).count() == INFLIGHT + 1 {
            break;
        }
    }
    assert_eq!(
        kinds,
        [FrameKind::Result, FrameKind::Done].repeat(INFLIGHT + 1),
        "responses leave strictly in request order"
    );
    assert_eq!(builds.load(Ordering::SeqCst), 1, "the last plan ran once, after the gate opened");
}

/// Streaming is incremental and in plan order: with job 1's builder
/// gated shut, the client still reads job 0's result frame; only after
/// the gate opens does job 1 arrive.
#[test]
fn results_stream_incrementally_in_plan_order() {
    let addr = spawn_server(server_config(64 << 20));
    registry::register("service-test-fast", || Box::new(tlabp::core::schemes::Btfn::new()));
    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&release);
    registry::register("service-test-slow", move || {
        while !gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Box::new(tlabp::core::schemes::Btfn::new())
    });
    let plan: Plan = [
        Job::custom("service-test-fast", li()).with_fusion(false),
        Job::custom("service-test-slow", li()).with_fusion(false),
    ]
    .into_iter()
    .collect();

    let mut client = connect(&addr);
    let mut stream = client.submit(&plan).expect("plan submits");
    let first = stream
        .next_outcome()
        .expect("first frame decodes")
        .expect("job 0 streams while job 1 is still gated");
    assert_eq!(first.0, 0);
    assert!(!release.load(Ordering::SeqCst), "job 0 arrived before the gate opened");
    release.store(true, Ordering::SeqCst);
    let second =
        stream.next_outcome().expect("second frame decodes").expect("job 1 streams after release");
    assert_eq!(second.0, 1);
    let done = stream.finish().expect("done frame");
    assert_eq!(done.jobs, 2);
}

/// Sends `line` to the daemon at `addr` on a fresh connection and
/// returns the message of the error frame it must answer with.
fn error_answer(addr: &str, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    use tlabp::service::proto::{decode_frame, parse_error_payload, FrameKind};

    let mut stream = std::net::TcpStream::connect(addr).expect("daemon reachable");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write");
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer).expect("an answer within the time limit");
    let (kind, payload) = decode_frame(&answer).expect("server answers with a frame");
    assert_eq!(kind, FrameKind::Error, "{answer}");
    parse_error_payload(payload)
}

/// Malformed submissions are answered with error frames, not dropped
/// connections or dead servers: an unknown custom predictor, a
/// version-skewed plan, a plan nested 200,000 arrays deep and a frame
/// declaring a `usize::MAX`-byte payload each produce a readable error,
/// and the server keeps serving afterwards.
#[test]
fn server_reports_errors_and_survives_them() {
    use tlabp::service::proto::{encode_frame, FrameKind};

    let addr = spawn_server(server_config(64 << 20));

    let unknown: Plan = [Job::custom("service-test-unregistered", li())].into_iter().collect();
    let err = connect(&addr).execute(&unknown).expect_err("unknown predictor must error");
    assert!(
        err.to_string().contains("service-test-unregistered"),
        "error names the missing predictor: {err}"
    );

    let skewed = unknown.to_json_string().replacen("\"version\":1", "\"version\":7", 1);
    let message = error_answer(&addr, &encode_frame(FrameKind::Plan, &skewed));
    assert!(message.contains("version"), "error names the version mismatch: {message}");

    let deep = "[".repeat(200_000) + &"]".repeat(200_000);
    let message = error_answer(&addr, &encode_frame(FrameKind::Plan, &deep));
    assert!(message.contains("nesting deeper than"), "error names the nesting: {message}");

    let endless = format!("TLBS 1 plan {} {{}} 0000000000000000", usize::MAX);
    let message = error_answer(&addr, &endless);
    assert!(message.contains("shorter than its declared length"), "{message}");

    // The daemon still serves correct plans after all that.
    let plan: Plan = [Job::scheme(SchemeConfig::btfn(), li())].into_iter().collect();
    let expected = run(&plan, &TraceStore::new()).to_json_string();
    let (results, _) = connect(&addr).execute(&plan).expect("daemon survived the bad clients");
    assert_eq!(results.to_json_string(), expected);
}

/// The bytes a fresh daemon sends for `plan`: one result frame per job
/// of its in-process results, then a `done` frame.
fn expected_response(plan: &Plan, store: &TraceStore) -> String {
    use tlabp::service::proto::{done_payload, encode_frame, result_payload, FrameKind};

    let results = run(plan, store);
    let mut response = String::new();
    for index in 0..results.len() {
        response +=
            &encode_frame(FrameKind::Result, &result_payload(index, results.outcome(index)));
        response.push('\n');
    }
    response += &encode_frame(FrameKind::Done, &done_payload(plan.len(), false));
    response.push('\n');
    response
}

/// A client that shuts its write side after two plan frames still gets
/// both responses in full, in order and byte-identical to in-process
/// runs, and then EOF: a half-close reads as end of input, never as a
/// hangup that would close the connection before its answers leave.
#[test]
fn a_half_closed_client_gets_every_response_then_eof() {
    use std::io::{Read, Write};
    use tlabp::service::proto::{encode_frame, FrameKind};

    let plans: [Plan; 2] = [
        [Job::scheme(SchemeConfig::pag(6), li())].into_iter().collect(),
        [Job::scheme(SchemeConfig::gag(6), li()), Job::scheme(SchemeConfig::btfn(), li())]
            .into_iter()
            .collect(),
    ];
    let store = TraceStore::new();
    let expected: String = plans.iter().map(|plan| expected_response(plan, &store)).collect();

    let addr = spawn_server(server_config(64 << 20));
    let mut stream = std::net::TcpStream::connect(&addr).expect("daemon reachable");
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");
    for plan in &plans {
        let frame = encode_frame(FrameKind::Plan, &plan.to_json_string());
        stream.write_all(frame.as_bytes()).expect("write plan frame");
        stream.write_all(b"\n").expect("write newline");
    }
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("both responses, then EOF");
    assert_eq!(answer, expected, "a half-closed client must get both responses byte-identically");
}

/// Runs `body` on its own thread and returns its value, failing the test
/// (instead of hanging it) when no value arrives within `limit`.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    let value = rx.recv_timeout(limit).expect("the daemon answered within the time limit");
    worker.join().expect("the answering thread finished");
    value
}

/// A plan whose scheme names tables that cannot be built (a 40-bit
/// history register) is refused at decode time with an error frame; it
/// never reaches the shared worker pool. Sent twice, since two such
/// plans used to leave a 2-worker pool with no live worker. A good plan
/// on the same daemon then still gets a byte-identical answer.
#[test]
fn impossible_scheme_geometry_earns_an_error_frame_and_spares_the_pool() {
    use tlabp::service::proto::{encode_frame, FrameKind};

    let addr = spawn_server(server_config(64 << 20));
    let good: Plan = [Job::scheme(SchemeConfig::gag(12), li())].into_iter().collect();
    let expected = run(&good, &TraceStore::new()).to_json_string();
    let bad = good.to_json_string().replace("12-sr", "40-sr").replace("2^12", "2^40");
    assert!(bad.contains("GAg(HR(1,,40-sr),1xPHT(2^40,A2))"), "fixture: {bad}");

    for attempt in 0..2 {
        let message = error_answer(&addr, &encode_frame(FrameKind::Plan, &bad));
        assert!(message.contains("history length 40"), "attempt {attempt}: {message}");
    }

    let (results, _) = within(Duration::from_secs(60), move || {
        connect(&addr).execute(&good).expect("daemon survived the impossible plans")
    });
    assert_eq!(results.to_json_string(), expected);
}

/// A predictor whose every prediction panics.
struct Panicking;

impl tlabp::core::BranchPredictor for Panicking {
    fn predict(&mut self, _: &BranchRecord) -> bool {
        panic!("this predictor panics on every prediction")
    }

    fn update(&mut self, _: &BranchRecord) {}

    fn name(&self) -> String {
        "panicking".to_owned()
    }
}

/// A plan whose predictor panics costs only its own response: each of
/// more such plans than the daemon has executors, sent on its own
/// connection, earns an error frame, and a good plan sent afterwards to
/// the same daemon is still answered byte-identically.
#[test]
fn a_panicking_plan_costs_only_its_own_response() {
    registry::register("service-test-panicking", || Box::new(Panicking));
    let addr = spawn_server(server_config(64 << 20));
    let bad: Plan = [Job::custom("service-test-panicking", li())].into_iter().collect();
    for attempt in 0..=SweepPool::global().threads().max(2) {
        let (addr, bad) = (addr.clone(), bad.clone());
        let message = within(Duration::from_secs(60), move || {
            connect(&addr).execute(&bad).expect_err("a panicking plan earns an error").to_string()
        });
        assert!(
            message.contains("execution aborted on the server"),
            "attempt {attempt}: {message}"
        );
    }

    let good: Plan = [Job::scheme(SchemeConfig::btfn(), li())].into_iter().collect();
    let expected = run(&good, &TraceStore::new()).to_json_string();
    let (results, _) = within(Duration::from_secs(60), move || {
        connect(&addr).execute(&good).expect("daemon survived the panicking plans")
    });
    assert_eq!(results.to_json_string(), expected);
}

/// Concurrency soak: 64 clients hammer one daemon with a mix of cold
/// plans, repeated (memo-hitting) plans, and malformed garbage. Every
/// well-formed response must stay bit-identical to in-process
/// execution; every malformed client gets an error frame.
#[test]
fn soak_mixed_cold_memo_and_malformed_clients_stay_bit_identical() {
    let _threads = MANY_THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    let addr = spawn_server(server_config(64 << 20));
    let variants: Vec<Plan> =
        [SchemeConfig::pag(6), SchemeConfig::pag(7), SchemeConfig::gag(6), SchemeConfig::btfn()]
            .into_iter()
            .map(|config| [Job::scheme(config, li())].into_iter().collect())
            .collect();
    let store = TraceStore::new();
    let expected: Arc<Vec<String>> =
        Arc::new(variants.iter().map(|plan| run(plan, &store).to_json_string()).collect());
    let variants = Arc::new(variants);

    let mut clients = Vec::new();
    for n in 0..64usize {
        let addr = addr.clone();
        if n % 8 == 7 {
            // Malformed client: a corrupt frame earns an error frame
            // (and a closed connection), never a dead server.
            clients.push(std::thread::spawn(move || {
                use std::io::{BufRead, BufReader, Write};
                let mut stream = std::net::TcpStream::connect(&addr).expect("daemon reachable");
                stream
                    .write_all(b"TLBS 1 plan 4 hash deadbeefdeadbeef\n")
                    .expect("write corrupt frame");
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).expect("read error frame");
                let (kind, _) = tlabp::service::proto::decode_frame(&line)
                    .expect("the reply to garbage is still a well-formed frame");
                assert_eq!(kind, tlabp::service::proto::FrameKind::Error);
            }));
        } else {
            let variants = Arc::clone(&variants);
            let expected = Arc::clone(&expected);
            clients.push(std::thread::spawn(move || {
                let i = n % variants.len();
                // Two rounds: the first may be cold or a memo hit (some
                // sibling already computed it), the second is a likely
                // hit — all must be byte-identical.
                for _ in 0..2 {
                    let (results, _) =
                        connect(&addr).execute(&variants[i]).expect("streamed response");
                    assert_eq!(
                        results.to_json_string(),
                        expected[i],
                        "client {n} received non-identical bytes"
                    );
                }
            }));
        }
    }
    for client in clients {
        client.join().expect("soak client");
    }
}

/// The event core's defining property: 256 idle connections cost no
/// additional threads (a thread per connection would spawn 256). Gated
/// to Linux for `/proc/self/status`.
#[cfg(target_os = "linux")]
#[test]
fn event_backend_serves_hundreds_of_connections_on_fixed_threads() {
    fn thread_count() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .expect("/proc/self/status readable")
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .expect("Threads: line present")
            .trim()
            .parse()
            .expect("thread count parses")
    }

    let _threads = MANY_THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    let addr = spawn_server(server_config(64 << 20));
    let plan: Plan = [Job::scheme(SchemeConfig::btfn(), li())].into_iter().collect();
    // Warm everything thread-shaped first: the event loop, the executor
    // pool, the sweep pool, the trace.
    connect(&addr).execute(&plan).expect("warm response");
    let before = thread_count();

    let idle: Vec<std::net::TcpStream> =
        (0..256).map(|_| std::net::TcpStream::connect(&addr).expect("connects")).collect();
    // The daemon still answers while the idle crowd sits connected.
    let (_, done) = connect(&addr).execute(&plan).expect("served among idle connections");
    assert!(done.memo, "the warmed plan replays from the memo cache");
    let after = thread_count();
    assert!(
        after.saturating_sub(before) < 64,
        "256 idle connections must not spawn threads ({before} -> {after})"
    );
    drop(idle);
}
