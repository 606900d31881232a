//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, start and end (ns since the tracer started),
//! the span that caused it and a request id shared by every span of one
//! operation. Spans nest per thread: a span opened while another is open
//! on the same thread is its child. A span is folded into per-layer
//! totals as it closes, so the breakdown costs the same however many
//! operations a run makes; the first [`MAX_LOGGED_SPANS`] are also kept
//! in memory for the span file written when the run ends. With tracing
//! off, [`Tracer::span`] only calls its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Root span names: what a run spends its time on at the top level.
pub const SETUP: &str = "setup";
pub const OP: &str = "op";
/// Work outside set-up and the timed operations: preparing a request,
/// decoding a response, or work the traced run adds only to attribute
/// time to layers (a kernel call repeated on its own, a serial replica
/// of a parallel pass).
pub const PROBE: &str = "probe";

/// Spans kept for the span file; later ones are only counted. Enough
/// for every operation of a run whose operations take a millisecond or
/// more; a run of memo hits keeps its first few thousand operations.
pub const MAX_LOGGED_SPANS: usize = 1 << 16;

/// The share of an operation's wall time its layer spans must cover
/// for the operation to count as attributed.
const WELL_COVERED: f64 = 0.9;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span still open on this thread.
struct Open {
    id: u64,
    request: u64,
    /// Summed wall time of its children so far.
    children_ns: u64,
}

thread_local! {
    /// The spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Everything the closed spans add up to.
#[derive(Default)]
struct Record {
    /// Per span name: summed wall seconds and summed self seconds.
    by_name: BTreeMap<&'static str, (f64, f64)>,
    root_s: f64,
    ops: usize,
    op_s: f64,
    op_covered_s: f64,
    ops_covered: usize,
    logged: Vec<Span>,
    dropped: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    record: Mutex<Record>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            record: Mutex::default(),
            counters: Mutex::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a top-level span for request `request`.
    pub fn root<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, None, request, f)
    }

    /// Runs `f` inside a child of this thread's innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let outer = OPEN.with_borrow(|open| open.last().map(|o| (o.id, o.request)));
        let (parent, request) = match outer {
            Some((id, request)) => (Some(id), request),
            None => (None, 0),
        };
        self.open(name, parent, request, f)
    }

    fn open<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with_borrow_mut(|open| open.push(Open { id, request, children_ns: 0 }));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let value = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let children_ns = OPEN.with_borrow_mut(|open| {
            let closed = open.pop().expect("the span opened above is innermost");
            if parent.is_some() {
                if let Some(outer) = open.last_mut() {
                    outer.children_ns += end_ns - start_ns;
                }
            }
            closed.children_ns
        });
        let span = Span { id, parent, request, name, start_ns, end_ns };
        self.record.lock().expect("span record lock").add(span, children_ns);
        value
    }

    /// Adds `amount` to the named counter (work done at a layer
    /// boundary: events, bytes, predictions).
    pub fn count(&self, name: &'static str, amount: f64) {
        if self.enabled {
            *self.counters.lock().expect("counter lock").entry(name).or_default() += amount;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.lock().expect("counter lock").get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        let record = self.record.lock().expect("span record lock");
        record.by_name.get(name).map_or(0.0, |&(wall, _)| wall)
    }

    /// The layer breakdown of everything recorded so far.
    pub fn breakdown(&self) -> Breakdown {
        let record = self.record.lock().expect("span record lock");
        let ops = record.ops.max(1) as f64;
        Breakdown {
            self_s: record.by_name.iter().map(|(&name, &(_, own))| (name, own)).collect(),
            root_s: record.root_s,
            op_coverage: if record.op_s > 0.0 { record.op_covered_s / record.op_s } else { 0.0 },
            ops_covered: record.ops_covered as f64 / ops,
        }
    }

    /// The logged spans as JSON (the `spans-<workload>.json` file), with
    /// the number of later spans that were only counted.
    pub fn spans_json(&self) -> Json {
        let record = self.record.lock().expect("span record lock");
        let field = |n: u64| Json::Num(n as f64);
        let spans = record
            .logged
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", field(s.id)),
                    ("parent", s.parent.map_or(Json::Null, field)),
                    ("request", field(s.request)),
                    ("name", Json::str(s.name)),
                    ("start_ns", field(s.start_ns)),
                    ("end_ns", field(s.end_ns)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("not_logged", field(record.dropped))])
    }
}

impl Record {
    fn add(&mut self, span: Span, children_ns: u64) {
        let wall = (span.end_ns - span.start_ns) as f64 * 1e-9;
        let children = children_ns as f64 * 1e-9;
        // Children run on the span's own thread, one after another, so
        // their summed time lies inside the parent's interval.
        let totals = self.by_name.entry(span.name).or_default();
        totals.0 += wall;
        totals.1 += (wall - children).max(0.0);
        if span.parent.is_none() {
            self.root_s += wall;
            if span.name == OP {
                self.ops += 1;
                self.op_s += wall;
                self.op_covered_s += children.min(wall);
                if children >= WELL_COVERED * wall {
                    self.ops_covered += 1;
                }
            }
        }
        if self.logged.len() < MAX_LOGGED_SPANS {
            self.logged.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Where a traced run's time went.
#[derive(Default)]
pub struct Breakdown {
    /// Self time per span name (root spans' self time is time no layer
    /// span covered).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed wall time of the root spans: the traced run's total.
    pub root_s: f64,
    /// The share of all operations' wall time their layer spans cover.
    pub op_coverage: f64,
    /// The share of operations whose layer spans cover at least
    /// [`WELL_COVERED`] of their own wall time.
    pub ops_covered: f64,
}

impl Breakdown {
    /// A layer's self time as a percentage of the traced run's total.
    pub fn pct(&self, name: &str) -> f64 {
        if self.root_s > 0.0 {
            100.0 * self.self_s.get(name).copied().unwrap_or(0.0) / self.root_s
        } else {
            0.0
        }
    }

    /// Time no layer span covered, as a percentage of the total.
    pub fn uncovered_pct(&self) -> f64 {
        [SETUP, OP, PROBE].iter().map(|root| self.pct(root)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logged(tracer: &Tracer) -> Vec<Span> {
        tracer.record.lock().unwrap().logged.clone()
    }

    #[test]
    fn self_time_subtracts_children_and_requests_propagate() {
        let tracer = Tracer::new(true);
        tracer.root(OP, 7, || {
            tracer.span("outer", || {
                tracer.span("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
            });
        });
        let spans = logged(&tracer);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == 7));
        let op = spans.iter().find(|s| s.name == OP).unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, Some(op.id));
        assert_eq!(inner.parent, Some(outer.id));
        let breakdown = tracer.breakdown();
        assert!(breakdown.self_s["inner"] >= 0.02);
        assert!(breakdown.self_s["outer"] < breakdown.self_s["inner"]);
        assert!(tracer.total("outer") >= tracer.total("inner"));
        assert!(breakdown.op_coverage > 0.9);
        assert_eq!(breakdown.ops_covered, 1.0);
        let total: f64 = ["inner", "outer", OP].iter().map(|n| breakdown.pct(n)).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn spans_beyond_the_log_still_count() {
        let tracer = Tracer::new(true);
        let extra = 5;
        for request in 0..(MAX_LOGGED_SPANS / 2 + extra) as u64 {
            tracer.root(OP, request, || tracer.span("layer", || ()));
        }
        assert_eq!(logged(&tracer).len(), MAX_LOGGED_SPANS);
        let json = tracer.spans_json();
        assert_eq!(json.get("not_logged").and_then(Json::as_f64), Some(2.0 * extra as f64));
        assert_eq!(tracer.record.lock().unwrap().ops, MAX_LOGGED_SPANS / 2 + extra);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.root(OP, 1, || tracer.span("x", || 5)), 5);
        tracer.count("events", 3.0);
        assert!(logged(&tracer).is_empty());
        assert_eq!(tracer.total("x"), 0.0);
        assert_eq!(tracer.counter("events"), 0.0);
    }
}
