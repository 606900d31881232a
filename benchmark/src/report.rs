//! The numbers a run reports: the end-to-end and per-layer metrics of
//! `BENCHMARK.json`, and the detail record (host, samples, latency tail)
//! that goes beside them.

use crate::json::Json;
use crate::spans::Tracer;
use crate::{stats, Measured, Workload};

/// One metric of the result line.
fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The end-to-end metrics, with their units.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_ms_p50", "ms"), ("work_per_s", "1/s"), ("peak_heap_mb", "MiB")];

/// The end-to-end metrics of a run.
///
/// # Errors
///
/// Fails when the run completed no set-up or no operation.
pub fn end_to_end(measured: &Measured) -> Result<Json, String> {
    if measured.setup_s.is_empty() || measured.ops.latencies.is_empty() {
        return Err("the workload completed no set-up or no operation".to_owned());
    }
    let values = [
        stats::median(&measured.setup_s),
        1e3 * stats::median(&measured.ops.latencies),
        if measured.slice_rates.is_empty() {
            measured.work / measured.work_s
        } else {
            stats::median(&measured.slice_rates)
        },
        measured.peak_heap_mb,
    ];
    Ok(Json::obj(
        END_TO_END.iter().zip(values).map(|(&(name, unit), value)| (name, metric(value, unit))),
    ))
}

/// Layer spans; each is reported as `<span>_pct`, its self time as a
/// share of the traced run's wall time.
pub const LAYER_SPANS: [&str; 27] = [
    "workloads.trace",
    "trace.pack",
    "trace.intern",
    "sim.runner.derive",
    "trace.io.encode",
    "trace.io.write",
    "trace.io.read",
    "trace.io.decode",
    "sim.suite.prefetch",
    "sim.engine.submit",
    "sim.engine.replay",
    "sim.engine.fused",
    "sim.engine.full_trace",
    "sim.engine.instrumented",
    "sim.engine.dyn",
    "sim.engine.session",
    "sim.runner.replay_kernel",
    "sim.stream.replay",
    "trace.import.encode",
    "trace.import.decode",
    "trace.import.artifact",
    "service.proto.encode",
    "service.send",
    "service.first_frame",
    "service.stream",
    "service.proto.decode",
    "bench.inputs",
];

/// Work counted at layer boundaries.
pub const LAYER_COUNTERS: [(&str, &str); 12] = [
    ("workloads.events", "count"),
    ("sim.runner.derive_events", "count"),
    ("trace.io.encode_bytes", "bytes"),
    ("trace.io.decode_bytes", "bytes"),
    ("trace.import.capture_bytes", "bytes"),
    ("sim.engine.preds", "count"),
    ("sim.runner.replay_kernel_preds", "count"),
    ("sim.stream.chunks", "count"),
    ("service.proto.plan_bytes", "bytes"),
    ("service.proto.result_bytes", "bytes"),
    ("service.error_frames", "count"),
    ("service.memo_hits", "count"),
];

/// Values a workload computes from its own measurements.
pub const LAYER_VALUES: [(&str, &str); 10] = [
    ("sim.suite.parallel_efficiency", "ratio"),
    ("sim.suite.bytes.packed", "bytes"),
    ("sim.suite.bytes.interned", "bytes"),
    ("sim.suite.bytes.streams", "bytes"),
    ("sim.suite.bytes.disk", "bytes"),
    ("sim.engine.replay_overhead", "ratio"),
    ("sim.stream.window_peak_bytes", "bytes"),
    ("sim.stream.wait", "ratio"),
    ("service.memo_hit_ratio", "ratio"),
    ("service.miss_overhead", "ratio"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        LAYER_SPANS.iter().map(|span| (format!("{span}_pct"), "%")).collect();
    for name in ["bench.uncovered_pct", "bench.op_coverage_pct", "bench.ops_covered_pct"] {
        names.push((name.to_owned(), "%"));
    }
    names.extend(LAYER_COUNTERS.iter().chain(&LAYER_VALUES).map(|&(n, u)| (n.to_owned(), u)));
    names
}

/// The per-layer metrics of a traced run.
pub fn per_layer(measured: &Measured, tracer: &Tracer) -> Json {
    let breakdown = tracer.breakdown();
    let value = |name: &str| -> f64 {
        if let Some(span) = name.strip_suffix("_pct").filter(|span| LAYER_SPANS.contains(span)) {
            return breakdown.pct(span);
        }
        match name {
            "bench.uncovered_pct" => breakdown.uncovered_pct(),
            "bench.op_coverage_pct" => 100.0 * breakdown.op_coverage,
            "bench.ops_covered_pct" => 100.0 * breakdown.ops_covered,
            _ if LAYER_COUNTERS.iter().any(|(n, _)| *n == name) => tracer.counter(name),
            _ => measured.layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v),
        }
    };
    Json::Obj(
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let json = metric(value(&name), unit);
                (name, json)
            })
            .collect(),
    )
}

/// Median and tail of a latency sample set, in ms, with its size. The
/// tail is the highest percentile with at least ten samples beyond it,
/// or absent when there are too few samples for one.
fn latency_summary(seconds: &[f64]) -> Json {
    let ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
    let tail = stats::tail(&ms).map_or(Json::Null, |(p, value)| {
        Json::obj([("percentile", Json::Num(100.0 * p)), ("ms", Json::Num(value))])
    });
    Json::obj([
        ("samples", Json::Num(ms.len() as f64)),
        ("p50_ms", if ms.is_empty() { Json::Null } else { Json::Num(stats::median(&ms)) }),
        ("tail", tail),
    ])
}

/// Facts about the host and configuration a result depends on, with a
/// warning for each `TLABP_*` variable found in the environment (the
/// library reads several of them; workloads pass explicit directories
/// and configs, but kernel tier, pool width and split policy still
/// follow the environment).
fn host() -> Json {
    let mut env: Vec<(String, Json)> = std::env::vars()
        .filter(|(name, _)| name.starts_with("TLABP_"))
        .map(|(name, value)| {
            eprintln!("warning: {name}={value:?} is set and may change what is measured");
            (name, Json::Str(value))
        })
        .collect();
    env.sort_by(|a, b| a.0.cmp(&b.0));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = tlabp_core::SimdMode::from_env();
    Json::obj([
        ("host_cores", Json::Num(cores as f64)),
        ("pool_threads", Json::Num(tlabp_sim::SweepPool::global().threads() as f64)),
        ("simd_requested", Json::str(simd.name())),
        ("simd_selected", Json::str(simd.resolved_name())),
        ("env", Json::Obj(env)),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB, where the
/// platform reports it.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kib| kib / 1024.0)
}

/// The detail record of a run: what produced it and the samples behind
/// the metrics.
pub fn detail(workload: &Workload, measured: &Measured, seed: u64, seconds: f64) -> Json {
    Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("host", host()),
        ("operations", Json::Num(measured.ops.attempted() as f64)),
        ("failed", Json::Num(measured.ops.failed as f64)),
        ("error_rate", Json::Num(measured.ops.error_rate())),
        ("work", Json::Num(measured.work)),
        ("work_unit", Json::str(workload.work_unit)),
        ("work_seconds", Json::Num(measured.work_s)),
        ("setup_s", Json::Arr(measured.setup_s.iter().map(|&s| Json::Num(s)).collect())),
        ("latency", latency_summary(&measured.ops.latencies)),
        ("vm_hwm_mb", vm_hwm_mb().map_or(Json::Null, Json::Num)),
    ])
}

/// Prints a metrics object, one `name value unit` line each.
pub fn print_metrics(metrics: &Json) {
    for (name, value) in metrics.as_obj().unwrap_or_default() {
        let number = value.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = value.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<36} {number:>18.6} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    /// `BENCHMARK.json` describes exactly what this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("a list").to_vec();
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_owned);

        let workloads: Vec<_> =
            list("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        let expected: Vec<_> =
            WORKLOADS.iter().map(|w| (Some(w.name.to_owned()), Some(w.why.to_owned()))).collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<_> =
            list("end_to_end").iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (Some((*n).to_owned()), Some((*u).to_owned())))
            .collect();
        assert_eq!(e2e, expected);
        for metric in list("end_to_end") {
            let bound = metric.get("bound").and_then(Json::as_f64).expect("a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
        }

        let per_layer: Vec<_> =
            list("per_layer").iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
        let expected: Vec<_> =
            per_layer_names().into_iter().map(|(n, u)| (Some(n), Some(u.to_owned()))).collect();
        assert_eq!(per_layer, expected);

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS),
            "run_seconds is the default measuring time"
        );
    }
}
