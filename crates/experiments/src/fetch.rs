//! Target address caching (Section 3.2) integrated with the direction
//! predictor: the fetch-engine view of branch prediction.
//!
//! "After the direction of a branch is predicted, there is still the
//! possibility of a pipeline bubble due to the time it takes to generate
//! the target address. To eliminate this bubble, we cache the target
//! addresses of branches." This artifact runs PAg(12) as the direction
//! predictor with a 4-way 512-entry target cache over *every* branch
//! class (conditional, unconditional, call, return) and reports how often
//! the fetch engine proceeds down the correct path with the target in
//! hand. The fetch model itself lives in the execution engine's
//! instrumented pass
//! ([`MetricSet::fetch`]); this driver only declares the plan and formats
//! the counters.
//!
//! [`MetricSet::fetch`]: tlabp_sim::plan::MetricSet

use tlabp_core::config::SchemeConfig;
use tlabp_sim::plan::{Job, MetricSet, Plan, TargetCacheSpec};
use tlabp_sim::report::Table;
use tlabp_workloads::Benchmark;

use crate::Ctx;

/// The plan behind [`fetch`]: PAg(12) on every benchmark with the
/// paper-default target cache in the fetch path.
pub fn fetch_plan() -> Plan {
    let metrics = MetricSet { miss_breakdown: false, fetch: Some(TargetCacheSpec::PAPER_DEFAULT) };
    Benchmark::ALL
        .iter()
        .map(|benchmark| Job::scheme(SchemeConfig::pag(12), benchmark).with_metrics(metrics))
        .collect()
}

/// Per-benchmark fetch-path statistics.
pub fn fetch(ctx: &Ctx) {
    let mut table = Table::new(vec![
        "benchmark".into(),
        "branches (all classes)".into(),
        "correct path %".into(),
        "no-bubble taken fetch %".into(),
        "wrong-path squashes %".into(),
        "return-target misses %".into(),
    ]);

    let results = ctx.run(&fetch_plan());

    for (job, outcome) in &results {
        let stats = outcome.metrics().and_then(|m| m.fetch).expect("fetch stats requested");
        let pct = |n: u64| format!("{:.2}", 100.0 * n as f64 / stats.branches.max(1) as f64);
        table.push_row(vec![
            job.trace.benchmark.name().into(),
            stats.branches.to_string(),
            pct(stats.correct_path),
            pct(stats.no_bubble_taken),
            pct(stats.squashes),
            pct(stats.return_target_misses),
        ]);
    }
    ctx.emit("fetch", "Section 3.2: fetch-path outcomes with target address caching", &table);
}
