//! The sweep daemon: accepts serialized plans over TCP, streams results.
//!
//! One [`SweepServer`] owns the warm state every connection shares — a
//! single [`TraceStore`] (each trace form derives once, ever), the global
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
//! [`ServeConfig`] comes from the `TLABP_SERVE_*` knobs, read by
//! [`tlabp_core::env`]: a garbage value warns and falls back to the
//! default, so a daemon comes up predictably rather than dying at a
//! typo. Each connection executes at most [`INFLIGHT`] plans at a time.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tlabp_core::env::{MemoDirMode, ServeConfig};
use tlabp_core::registry;
use tlabp_sim::plan::{Plan, PredictorSpec};
use tlabp_sim::{ExecOptions, Session, SweepPool, TraceStore};

use crate::memo::{MemoCache, MemoDisk, MemoEntry};

/// Plans one connection executes at a time; further pipelined plans
/// wait in FIFO order.
pub const INFLIGHT: usize = 4;

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

/// Rejects plans naming unregistered custom predictors, so a client
/// that names one gets an error frame for the whole plan instead of a
/// stream of skipped jobs.
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
            MemoDirMode::Unset => {
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
        crate::event::run(&self.listener, &self.shared, SweepPool::global().threads().max(2))
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
impl Shared {
    /// A memory-only server state with memoization off, for the event
    /// core's unit tests.
    pub(crate) fn unmemoized() -> Shared {
        Shared {
            store: TraceStore::new(),
            options: ExecOptions::default(),
            memo: Mutex::new(MemoCache::new(0)),
            disk: None,
            stats: ServeStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
