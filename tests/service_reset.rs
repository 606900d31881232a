//! A client that half-closes and then resets costs the daemon no CPU.
//!
//! Once a client shuts its write side, the daemon stops reading from it.
//! If the client then closes with result frames unread, the socket
//! resets, and every wait reports an error and a hangup that no interest
//! mask silences; a daemon that kept the connection while its plan was
//! still running would spin its I/O thread until the plan's next frame.
//! The test reads the process's CPU time from `/proc/self/stat`, so it is
//! the only test of this binary: every tick it counts is this daemon's.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tlabp::core::config::SchemeConfig;
use tlabp::core::registry;
use tlabp::service::proto::{encode_frame, FrameKind};
use tlabp::service::{Client, MemoDirMode, ServeConfig, SweepServer};
use tlabp::sim::plan::{Job, Plan};
use tlabp::sim::{ExecOptions, Session, TraceStore};
use tlabp::workloads::Benchmark;

/// Clock ticks of CPU (user + system) the whole process has used. Linux
/// reports them in `USER_HZ`, 100 per second.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // Fields after the parenthesised command name, which may hold
    // spaces: state is the first, utime and stime the 12th and 13th.
    let fields: Vec<&str> =
        stat.rsplit_once(')').expect("command name").1.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn a_reset_after_a_half_close_leaves_the_io_thread_idle() {
    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&release);
    registry::register("service-reset-gated", move || {
        while !gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Box::new(tlabp::core::schemes::Btfn::new())
    });
    let li = Benchmark::by_name("li").expect("li exists");
    let plan: Plan = [
        Job::scheme(SchemeConfig::btfn(), li),
        Job::custom("service-reset-gated", li).with_fusion(false),
    ]
    .into_iter()
    .collect();

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        memo_bytes: 64 << 20,
        memo_dir: MemoDirMode::Off,
        memo_disk_bytes: None,
    };
    let server = SweepServer::bind(&config, TraceStore::new(), ExecOptions::default())
        .expect("ephemeral port binds");
    let addr = server.local_addr().expect("bound address").to_string();
    std::thread::spawn(move || server.run());

    // Half-close after the plan, wait for job 0's frame while job 1 is
    // gated shut, and close with that frame unread: the socket resets.
    let mut stream = std::net::TcpStream::connect(&addr).expect("daemon reachable");
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");
    stream
        .write_all(encode_frame(FrameKind::Plan, &plan.to_json_string()).as_bytes())
        .expect("write");
    stream.write_all(b"\n").expect("write newline");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    stream.peek(&mut [0u8; 1]).expect("job 0's frame arrives while job 1 is gated");
    drop(stream);

    std::thread::sleep(Duration::from_millis(100));
    let (before, clock) = (cpu_ticks(), std::time::Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let ticks = cpu_ticks() - before;
    let available = clock.elapsed().as_secs_f64() * 100.0;
    assert!(
        (ticks as f64) < available / 4.0,
        "the daemon burned {ticks} of {available:.0} clock ticks after a client reset"
    );

    // The daemon still answers a new client byte-identically.
    release.store(true, Ordering::SeqCst);
    let expected = Session::new(TraceStore::new()).run(&plan).to_json_string();
    let mut client =
        Client::connect_with_retry(&addr, Duration::from_secs(10)).expect("daemon reachable");
    let (results, _) = client.execute(&plan).expect("answered after the reset");
    assert_eq!(results.to_json_string(), expected);
}
