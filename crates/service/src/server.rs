//! The sweep daemon: accepts serialized plans over TCP, streams results.
//!
//! One [`SweepServer`] owns the warm state every connection shares — a
//! single [`TraceStore`] (traces generate once, ever), the global
//! [`SweepPool`] (simulation work from all clients
//! interleaves on one fixed set of worker threads, which is what makes
//! admission fair: a second client's jobs enqueue behind — not after —
//! the first client's, each plan draining in windows of twice the pool
//! width rather than whole), and the two memo tiers (byte-capped LRU in
//! memory, checksummed artifacts on disk) that replay
//! previously-computed responses byte-for-byte with zero simulation
//! work.
//!
//! Connections are served by the event-driven readiness core
//! ([`crate::event`]): N clients cost a fixed number of threads. It
//! waits on `epoll` on Linux and on `poll(2)` on other unix hosts; on a
//! host without either, [`SweepServer::bind`] fails with
//! [`std::io::ErrorKind::Unsupported`].
//!
//! Every `TLABP_SERVE_*` knob follows one hygiene rule: a garbage value
//! warns on stderr and falls back to the default — a daemon must come up
//! predictably, not die at a typo (the same policy as `TLABP_SIMD`).

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tlabp_core::registry;
use tlabp_sim::plan::{Plan, PredictorSpec};
use tlabp_sim::{ExecOptions, Session, SweepPool, TraceStore};

use crate::memo::{MemoCache, MemoDisk, MemoEntry};

/// Environment variable naming the daemon's listen address.
pub const SERVE_ADDR_ENV: &str = "TLABP_SERVE_ADDR";
/// Default listen address when [`SERVE_ADDR_ENV`] is unset.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7391";
/// Environment variable capping the in-memory memo tier in **bytes** of
/// pre-encoded response frames (plus keys); 0 disables memoization.
pub const SERVE_MEMO_BYTES_ENV: &str = "TLABP_SERVE_MEMO_BYTES";
/// Default in-memory memo budget: 64 MiB of pre-encoded frames.
pub const DEFAULT_MEMO_BYTES: usize = 64 << 20;
/// Environment variable capping concurrently executing plans per
/// connection; pipelined plans beyond the cap queue FIFO.
pub const SERVE_INFLIGHT_ENV: &str = "TLABP_SERVE_INFLIGHT";
/// Default per-connection in-flight plan cap.
pub const DEFAULT_INFLIGHT: usize = 4;
/// Environment variable naming the persistent memo tier's directory.
/// Unset: a `memo/` directory next to the trace artifacts (when the
/// store has a disk tier). Empty: persistence off.
pub const SERVE_MEMO_DIR_ENV: &str = "TLABP_SERVE_MEMO_DIR";
/// Environment variable capping the persistent memo tier in **bytes**
/// of `.tlabm` artifacts on disk. Over-budget artifacts age out oldest
/// first, after every persist and once at startup. Unset: unbounded.
/// `0`: persistence off (equivalent to an empty [`SERVE_MEMO_DIR_ENV`]).
pub const SERVE_MEMO_DISK_BYTES_ENV: &str = "TLABP_SERVE_MEMO_DISK_BYTES";
/// Where the persistent memo tier lives.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum MemoDirMode {
    /// `memo/` next to the trace artifacts when the store has a disk
    /// tier; no persistence for a purely in-memory store.
    #[default]
    Auto,
    /// Persistence disabled ([`SERVE_MEMO_DIR_ENV`] set but empty).
    Off,
    /// An explicit directory.
    Dir(PathBuf),
}

impl MemoDirMode {
    fn from_raw(raw: &str) -> MemoDirMode {
        if raw.is_empty() {
            MemoDirMode::Off
        } else {
            MemoDirMode::Dir(PathBuf::from(raw))
        }
    }
}

/// Daemon configuration, normally read from the environment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`). Use port 0 for an ephemeral port.
    pub addr: String,
    /// In-memory memo budget in bytes of pre-encoded response frames;
    /// 0 disables memoization (both tiers).
    pub memo_bytes: usize,
    /// Concurrently executing plans per connection (≥ 1).
    pub inflight: usize,
    /// Persistent memo tier location.
    pub memo_dir: MemoDirMode,
    /// Persistent memo tier byte budget; `None` = unbounded, `Some(0)`
    /// = persistence off.
    pub memo_disk_bytes: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_SERVE_ADDR.to_owned(),
            memo_bytes: DEFAULT_MEMO_BYTES,
            inflight: DEFAULT_INFLIGHT,
            memo_dir: MemoDirMode::Auto,
            memo_disk_bytes: None,
        }
    }
}

impl ServeConfig {
    /// Reads every `TLABP_SERVE_*` knob. Unset values take the
    /// defaults; garbage values warn on stderr and take the defaults
    /// (never a crash, never a silent reinterpretation).
    #[must_use]
    pub fn from_env() -> Self {
        let mut config = ServeConfig::default();
        if let Ok(addr) = std::env::var(SERVE_ADDR_ENV) {
            if !addr.is_empty() {
                config.addr = addr;
            }
        }
        if let Some(raw) = read_env(SERVE_MEMO_BYTES_ENV) {
            if let Some(bytes) = parse_usize_env(SERVE_MEMO_BYTES_ENV, &raw) {
                config.memo_bytes = bytes;
            }
        }
        if let Some(raw) = read_env(SERVE_INFLIGHT_ENV) {
            if let Some(inflight) = parse_inflight_env(&raw) {
                config.inflight = inflight;
            }
        }
        if let Ok(raw) = std::env::var(SERVE_MEMO_DIR_ENV) {
            config.memo_dir = MemoDirMode::from_raw(&raw);
        }
        if let Some(raw) = read_env(SERVE_MEMO_DISK_BYTES_ENV) {
            config.memo_disk_bytes = parse_usize_env(SERVE_MEMO_DISK_BYTES_ENV, &raw);
        }
        config
    }
}

fn read_env(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|raw| !raw.is_empty())
}

/// Lenient usize knob: garbage warns and yields `None` (= keep the
/// default).
fn parse_usize_env(name: &str, raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(value) => Some(value),
        Err(_) => {
            eprintln!(
                "warning: ignoring {name}={raw:?} (expected a non-negative integer); \
                 using the default"
            );
            None
        }
    }
}

/// [`SERVE_INFLIGHT_ENV`]: must be ≥ 1 — zero would admit nothing.
fn parse_inflight_env(raw: &str) -> Option<usize> {
    match parse_usize_env(SERVE_INFLIGHT_ENV, raw) {
        Some(0) => {
            eprintln!(
                "warning: ignoring {SERVE_INFLIGHT_ENV}=0 (at least one plan must be \
                 admitted); using {DEFAULT_INFLIGHT}"
            );
            Some(DEFAULT_INFLIGHT)
        }
        other => other,
    }
}

/// Daemon counters, printed in the periodic stats line and cheap enough
/// to bump from any thread.
#[derive(Debug, Default)]
pub(crate) struct ServeStats {
    accepted: AtomicU64,
    accept_errors: AtomicU64,
    plans: AtomicU64,
    memo_hits: AtomicU64,
}

impl ServeStats {
    pub(crate) fn accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn plan(&self) {
        self.plans.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn memo_hit(&self) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared by every connection of one server.
pub(crate) struct Shared {
    store: TraceStore,
    options: ExecOptions,
    memo: Mutex<MemoCache>,
    disk: Option<MemoDisk>,
    pub(crate) stats: ServeStats,
}

impl Shared {
    /// A fresh session on the global pool with this server's options.
    /// Its admission window is the session's own, twice the pool width.
    pub(crate) fn session(&self) -> Session<'static> {
        Session::on(SweepPool::global(), self.store.clone()).with_options(self.options)
    }

    /// Probes the in-memory memo tier.
    pub(crate) fn memo_get(&self, key: &str) -> Option<MemoEntry> {
        self.memo.lock().expect("memo cache lock").get(key)
    }

    /// Records a completed response in the LRU and (when configured)
    /// the persistent tier.
    pub(crate) fn memo_store(&self, key: &str, plan: &Plan, payloads: Vec<String>) {
        let entry: MemoEntry = Arc::new(payloads);
        self.memo.lock().expect("memo cache lock").insert(key, Arc::clone(&entry));
        // `disk` is `None` when memoization is disabled (`memo_bytes`
        // of 0), so persistence follows the same switch.
        if let Some(disk) = &self.disk {
            disk.persist(&self.store, plan, key, &entry);
        }
    }

    /// The periodic stats line (printed only when it changed).
    pub(crate) fn stats_line(&self, conns: usize, backend: &str) -> String {
        let (memo_entries, memo_bytes) = {
            let cache = self.memo.lock().expect("memo cache lock");
            (cache.len(), cache.bytes())
        };
        format!(
            "stats backend={backend} conns={conns} accepted={} accept_errors={} plans={} \
             memo_hits={} memo_entries={memo_entries} memo_bytes={memo_bytes}",
            self.stats.accepted.load(Ordering::Relaxed),
            self.stats.accept_errors.load(Ordering::Relaxed),
            self.stats.plans.load(Ordering::Relaxed),
            self.stats.memo_hits.load(Ordering::Relaxed),
        )
    }
}

/// Rejects plans naming unregistered custom predictors: lowering panics
/// on unknown registry entries (a programming error in-process, but a
/// daemon must survive any client-supplied plan).
pub(crate) fn validate_plan(plan: &Plan) -> Result<(), String> {
    for job in plan.jobs() {
        if let PredictorSpec::Custom(name) = &job.spec {
            if registry::builder(name).is_none() {
                return Err(format!("no predictor registered under {name:?}"));
            }
        }
    }
    Ok(())
}

/// The sweep-as-a-service daemon. See the module docs for the sharing
/// and fairness model.
pub struct SweepServer {
    listener: TcpListener,
    inflight: usize,
    shared: Arc<Shared>,
}

impl SweepServer {
    /// Binds the daemon to `config.addr` with a warm store and the
    /// given execution options, and hydrates the in-memory memo tier
    /// from the persistent one.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound, and with
    /// [`std::io::ErrorKind::Unsupported`] on a host that is not unix
    /// (the event core needs `epoll` or `poll`).
    pub fn bind(
        config: &ServeConfig,
        store: TraceStore,
        options: ExecOptions,
    ) -> std::io::Result<SweepServer> {
        if !cfg!(unix) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the sweep daemon needs a unix host (epoll or poll)",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let budget = config.memo_disk_bytes;
        let disk = match &config.memo_dir {
            _ if config.memo_bytes == 0 => None,
            _ if budget == Some(0) => None,
            MemoDirMode::Off => None,
            MemoDirMode::Dir(dir) => Some(MemoDisk::new(dir.clone(), budget)),
            MemoDirMode::Auto => {
                store.cache_dir().map(|dir| MemoDisk::new(dir.join("memo"), budget))
            }
        };
        let mut cache = MemoCache::new(config.memo_bytes);
        if let Some(disk) = &disk {
            // Startup enforcement: a budget shrunk between runs takes
            // effect before hydration reads the survivors.
            disk.enforce_budget();
            let mut hydrated = 0usize;
            for (key, entry) in disk.hydrate(&store) {
                cache.insert(&key, entry);
                hydrated += 1;
            }
            if hydrated > 0 {
                eprintln!(
                    "tlabp-serve: hydrated {hydrated} memoized response(s) ({} bytes) from {}",
                    cache.bytes(),
                    disk.dir().display()
                );
            }
        }
        Ok(SweepServer {
            listener,
            inflight: config.inflight.max(1),
            shared: Arc::new(Shared {
                store,
                options,
                memo: Mutex::new(cache),
                disk,
                stats: ServeStats::default(),
            }),
        })
    }

    /// The bound address — useful after binding port 0.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the local address cannot be queried.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the event core. Simulation work always funnels
    /// through the one global [`SweepPool`], so concurrent clients share
    /// the worker threads fairly instead of multiplying them, and the
    /// connection threads are fixed too.
    #[cfg(unix)]
    pub fn run(&self) -> ! {
        crate::event::run(
            &self.listener,
            &self.shared,
            &crate::event::EventConfig {
                inflight: self.inflight,
                exec_threads: SweepPool::global().threads().max(2),
            },
        )
    }

    /// Unreachable: [`SweepServer::bind`] refuses non-unix hosts.
    #[cfg(not(unix))]
    pub fn run(&self) -> ! {
        unreachable!("SweepServer::bind refuses non-unix hosts")
    }
}

/// Binds per `config`, prints the bound address to stderr, and serves
/// forever (the `Ok` arm is never reached). This is the entry point the
/// `experiments serve` command uses.
///
/// # Errors
///
/// Fails as [`SweepServer::bind`] does.
pub fn serve(config: &ServeConfig, store: TraceStore, options: ExecOptions) -> std::io::Result<()> {
    let server = SweepServer::bind(config, store, options)?;
    eprintln!("tlabp-serve: listening on {}", server.local_addr()?);
    server.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_knobs_warn_and_fall_back_on_garbage() {
        assert_eq!(parse_usize_env(SERVE_MEMO_BYTES_ENV, "1048576"), Some(1 << 20));
        assert_eq!(parse_usize_env(SERVE_MEMO_BYTES_ENV, " 42 "), Some(42));
        assert_eq!(parse_usize_env(SERVE_MEMO_BYTES_ENV, "64MiB"), None, "units are garbage");
        assert_eq!(parse_usize_env(SERVE_MEMO_BYTES_ENV, "-1"), None);

        assert_eq!(parse_inflight_env("2"), Some(2));
        assert_eq!(parse_inflight_env("0"), Some(DEFAULT_INFLIGHT), "zero admits nothing");
        assert_eq!(parse_inflight_env("∞"), None);
    }

    #[test]
    fn memo_dir_mode_distinguishes_off_from_a_directory() {
        assert_eq!(MemoDirMode::from_raw(""), MemoDirMode::Off);
        assert_eq!(MemoDirMode::from_raw("/tmp/x"), MemoDirMode::Dir(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn unregistered_custom_predictors_are_rejected_before_lowering() {
        use tlabp_workloads::Benchmark;
        let li = Benchmark::by_name("li").expect("li exists");
        let bad: Plan = [tlabp_sim::plan::Job::custom("no-such-predictor-registered", li)]
            .into_iter()
            .collect();
        let message = validate_plan(&bad).expect_err("unknown custom name must be rejected");
        assert!(message.contains("no-such-predictor-registered"), "message names the predictor");
        let good: Plan =
            [tlabp_sim::plan::Job::scheme(tlabp_core::config::SchemeConfig::btfn(), li)]
                .into_iter()
                .collect();
        assert_eq!(validate_plan(&good), Ok(()));
    }
}
