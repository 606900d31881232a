//! Throughput harness: reference baseline vs the engine's fast paths.
//!
//! Not a paper artifact. Seven sections, each runnable alone via
//! `--section <name>` (mirroring the ARTIFACTS registry dispatch):
//!
//! **single** — the full-suite PAg(12) evaluation (the workhorse
//! configuration of Figures 5–11) measured two ways:
//!
//! * **reference** — each job forced onto the reference path (one boxed
//!   `dyn BranchPredictor` per benchmark, the event-dispatching
//!   simulation loop over the full trace), executed on a one-worker pool
//!   so cells run strictly one after another: the pre-sweep code path;
//! * **engine** — the same plan lowered normally on the global worker
//!   pool.
//!
//! **multi** — the full catalog sweep (every Table 3 configuration on
//! every benchmark), the shape every real experiment driver has,
//! measured two ways:
//!
//! * **per-cell** — fusion disabled ([`Job::fuse`] off), so every job
//!   runs its own pass over the packed stream: the pre-fusion engine;
//! * **fused** — replay disabled ([`Job::replay`] off) but fusion on, so
//!   the plan's jobs group by trace into batched passes over the
//!   pc-interned stream ([`tlabp_sim::runner::simulate_fused`]): the
//!   PR 3 engine.
//!
//! **replay** — the automaton-ablation sweep (every Figure 5 automaton
//! on PAg(12) plus the PSg(12) preset second level, all sharing the
//! paper-default `BHT(512,4,12)` first level, on every benchmark),
//! measured three ways:
//!
//! * **fused** — replay disabled: every job re-walks the shared BHT
//!   inside its fused batch (the PR 3 path, this section's baseline);
//! * **replay scalar** — the transposed replay lowering forced onto the
//!   scalar per-member kernel body
//!   ([`tlabp_core::SimdMode::Scalar`]): one stream walk for the
//!   whole batch, no bit-slicing — the PR 4-equivalent path;
//! * **replay** — the default lowering: the same single stream walk
//!   through the bit-sliced word kernel
//!   ([`tlabp_sim::runner::simulate_replay_transposed`]), body chosen
//!   by `TLABP_SIMD` (default: the word body).
//!
//! **cold_start** — trace *ingestion* rather than simulation: VM
//! generation plus form derivation for the ablation plan, measured lazy
//! and serial (no cache), through the engine's parallel prefetch
//! barrier, and as a warm disk-cache load
//! ([`tlabp_sim::TraceStore::with_cache_dir`]). Lands in
//! `results/BENCH_cold_start.csv`.
//!
//! **scaling** — one big replay batch (128 same-width members: eight
//! 16-member banks) swept over worker count 1..=host cores, with the
//! engine's intra-batch split (`TLABP_SPLIT`, default auto) fanning the
//! batch's banks across the pool. Every cell's results are asserted
//! bit-identical to the warm reference — worker count and split are
//! throughput knobs, never results knobs. Lands in
//! `results/BENCH_scaling.csv`; the peak aggregate rate folds into
//! `BENCH_sweep.json`.
//!
//! **service** — the sweep daemon under 64 concurrent clients, the
//! event-driven connection core ([`tlabp_service::event`]) against the
//! thread-per-connection baseline, in two regimes:
//!
//! * **cold** — memoization disabled, one cheap job per plan: every
//!   submission simulates, so the cell is simulation-bound and the
//!   backends should tie;
//! * **memo** — a catalog-wide 27-job plan submitted repeatedly after
//!   one warm execution: every timed submission is a memo hit, so the
//!   cell isolates the connection-handling asymmetry (the event core
//!   answers hits from the raw payload without parsing the plan and
//!   writes response frames in readiness-sized batches; the threaded
//!   loop parses and re-renders every plan and flushes every frame).
//!
//! Every timed response is `read_exact` into a buffer and byte-compared
//! against frames encoded from an in-process `execute` of the same plan
//! — throughput numbers only count if the daemon's answers are
//! bit-identical. Lands in `results/BENCH_service.csv`; the memo-hit
//! event-vs-threaded speedup folds into `BENCH_sweep.json`.
//!
//! **stream** — chunked streaming replay
//! ([`tlabp_sim::StreamCursor`]) against the fully hydrated walk, on a
//! pattern stream tiled to more than 4x the streaming window so the
//! bounded-memory claim is actually exercised: the stream is persisted
//! as a many-chunk v3 artifact, replayed once hydrated and once through
//! the cursor (results asserted bit-identical), and the cursor's peak
//! resident bytes — tracked by the store's [`tlabp_sim::StreamWindow`]
//! gauge — are reported next to the window cap they must stay under.
//! Lands in `results/BENCH_stream.csv`; the streamed-vs-hydrated
//! throughput ratio and the peak/cap pair fold into `BENCH_sweep.json`.
//!
//! Every bench artifact (the CSVs and `BENCH_sweep.json`) records the
//! measuring host's facts — core count, pool width, requested and
//! selected kernel body — so a committed number carries the hardware
//! context that bounds it.
//!
//! All other runs start from warmed trace caches (including materialized
//! pattern streams), so the numbers compare simulation throughput, not
//! VM trace generation or stream derivation. Within each section the
//! throughput numerator is identical across modes (trace events for the
//! single-scheme pair, measured predictions for the other two), so each
//! reported speedup equals the wall-clock ratio. Results print as
//! tables; a full (unfiltered) run lands in `results/BENCH_sweep.json`.
//! Every run ends with the per-form cache-bytes report, warning when the
//! total exceeds the `TLABP_CACHE_BYTES` soft cap (default 1 GiB).
//!
//! Timing iterations default to 3 (best-of); the `TLABP_BENCH_ITERS`
//! environment variable overrides (CI smoke runs set 1).

use std::time::Instant;

use tlabp_core::automaton::Automaton;
use tlabp_core::config::SchemeConfig;
use tlabp_core::SimdMode;
use tlabp_sim::engine::{execute, execute_on, execute_with, prefetch_on, ExecOptions};
use tlabp_sim::plan::{Job, Plan};
use tlabp_sim::report::Table;
use tlabp_sim::runner::SimConfig;
use tlabp_sim::{SweepPool, TraceStore};
use tlabp_workloads::{Benchmark, DataSet};

use crate::tables::all_table3_configs;
use crate::Ctx;

/// Fastest of `n` timed runs, in seconds.
fn best_of(n: u32, mut body: impl FnMut()) -> f64 {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Timing iterations: `TLABP_BENCH_ITERS` when it holds a positive
/// integer, else 3.
fn bench_iterations() -> u32 {
    std::env::var("TLABP_BENCH_ITERS")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// Soft cap for the trace-cache footprint report: `TLABP_CACHE_BYTES`
/// when it holds a positive integer (bytes), else 1 GiB.
fn cache_bytes_cap() -> usize {
    std::env::var("TLABP_CACHE_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1 << 30)
}

/// A bench section: runs its measurement and returns the JSON fragment
/// (a `"name": {...}` member) it contributes to `BENCH_sweep.json`.
type Section = fn(&Ctx, u32, usize) -> String;

/// The registered bench sections, in run order.
const SECTIONS: [(&str, Section); 7] = [
    ("single", single_section),
    ("multi", multi_section),
    ("replay", replay_section),
    ("cold_start", cold_start_section),
    ("scaling", scaling_section),
    ("service", service_section),
    ("stream", stream_section),
];

/// The measuring host's core count.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The host facts every bench artifact records: core count, pool width,
/// and the requested vs selected replay kernel body.
fn host_meta(threads: usize) -> Vec<(&'static str, String)> {
    let mode = SimdMode::from_env();
    vec![
        ("host_cores", host_cores().to_string()),
        ("pool_threads", threads.to_string()),
        ("simd_requested", mode.name().to_owned()),
        ("simd_selected", mode.resolved_name().to_owned()),
    ]
}

/// `cargo run -p tlabp-experiments --release -- bench [--section NAME]`
pub fn bench(ctx: &Ctx) {
    let iterations = bench_iterations();
    let threads = SweepPool::global().threads();

    match ctx.section() {
        Some(name) => match SECTIONS.iter().find(|(section, _)| *section == name) {
            Some((_, run)) => {
                run(ctx, iterations, threads);
                println!("[section {name:?} only: not rewriting BENCH_sweep.json]\n");
            }
            None => {
                eprintln!("unknown bench section {name:?}");
                eprintln!("sections: {}", SECTIONS.map(|(section, _)| section).join(", "));
                std::process::exit(2);
            }
        },
        None => {
            let fragments: Vec<String> =
                SECTIONS.iter().map(|(_, run)| run(ctx, iterations, threads)).collect();
            let mode = SimdMode::from_env();
            let json = format!(
                "{{\n  \"iterations\": {iterations},\n  \
                 \"sweep_threads\": {threads},\n  \
                 \"host_cores\": {cores},\n  \
                 \"simd_requested\": \"{requested}\",\n  \
                 \"simd_selected\": \"{selected}\",\n{}\n}}\n",
                fragments.join(",\n"),
                cores = host_cores(),
                requested = mode.name(),
                selected = mode.resolved_name(),
            );
            ctx.emit_raw("BENCH_sweep.json", &json);
        }
    }

    report_cache_bytes(ctx);
}

/// Single scheme: full-suite PAg(12), reference vs engine.
fn single_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    let config = SchemeConfig::pag(12);

    // Warm every cache both modes touch.
    let mut total_events = 0u64;
    let mut total_conditionals = 0u64;
    for benchmark in &Benchmark::ALL {
        total_events += ctx.store().get(benchmark, DataSet::Testing).len() as u64;
        total_conditionals += ctx.store().get_packed(benchmark, DataSet::Testing).len() as u64;
    }

    let fast_plan: Plan =
        Benchmark::ALL.iter().map(|benchmark| Job::scheme(config, benchmark)).collect();
    let reference_plan: Plan = Benchmark::ALL
        .iter()
        .map(|benchmark| Job::scheme(config, benchmark).with_reference_path(true))
        .collect();

    let sequential_pool = SweepPool::new(1);
    let sequential_secs = best_of(iterations, || {
        let results = execute_on(&sequential_pool, &reference_plan, ctx.store());
        assert!(results.iter().all(|(_, o)| o.accuracy().is_some()));
    });
    let sweep_secs = best_of(iterations, || {
        let results = execute(&fast_plan, ctx.store());
        assert_eq!(results.len(), Benchmark::ALL.len());
    });

    let seq_eps = total_events as f64 / sequential_secs;
    let sweep_eps = total_events as f64 / sweep_secs;
    let sweep_speedup = sequential_secs / sweep_secs;

    let mut table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "events/sec".into(),
        "speedup".into(),
    ]);
    table.push_row(vec![
        "sequential dyn".into(),
        format!("{sequential_secs:.3}"),
        format!("{seq_eps:.0}"),
        "1.00".into(),
    ]);
    table.push_row(vec![
        format!("sweep ({threads} threads)"),
        format!("{sweep_secs:.3}"),
        format!("{sweep_eps:.0}"),
        format!("{sweep_speedup:.2}"),
    ]);
    ctx.emit("BENCH_sweep_table", "Sweep throughput: full-suite PAg(12)", &table);

    format!(
        "  \"single_scheme\": {{\n    \
           \"benchmark\": \"full-suite PAg(12), no context switches\",\n    \
           \"total_trace_events\": {total_events},\n    \
           \"total_conditional_branches\": {total_conditionals},\n    \
           \"sequential\": {{ \"seconds\": {sequential_secs:.6}, \"events_per_sec\": {seq_eps:.1} }},\n    \
           \"sweep\": {{ \"seconds\": {sweep_secs:.6}, \"events_per_sec\": {sweep_eps:.1} }},\n    \
           \"speedup\": {sweep_speedup:.3}\n  }}"
    )
}

/// Multi scheme: full catalog sweep, per-cell vs fused.
fn multi_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    let configs = all_table3_configs();
    // Replay off in both modes: this section isolates what fusion buys
    // over per-cell passes (the PR 3 comparison); the replay section
    // below measures what replay buys over fusion.
    let fused_plan: Plan = Plan::suites(&configs, &SimConfig::no_context_switch())
        .into_iter()
        .map(|job| job.with_replay(false))
        .collect();
    let cell_plan: Plan =
        fused_plan.jobs().iter().map(|job| job.clone().with_fusion(false)).collect();

    // One throwaway execution warms the training traces and interned
    // streams and supplies the shared numerator: the predictions every
    // measured job makes (identical across modes by construction —
    // fusion never changes results, asserted by the differential suite).
    let warm = execute(&fused_plan, ctx.store());
    let multi_predictions: u64 =
        warm.iter().filter_map(|(_, o)| o.metrics()).map(|m| m.sim.predictions).sum();

    let cell_secs = best_of(iterations, || {
        let results = execute(&cell_plan, ctx.store());
        assert_eq!(results.len(), cell_plan.len());
    });
    let fused_secs = best_of(iterations, || {
        let results = execute(&fused_plan, ctx.store());
        assert_eq!(results.len(), fused_plan.len());
    });

    let cell_eps = multi_predictions as f64 / cell_secs;
    let fused_eps = multi_predictions as f64 / fused_secs;
    let fused_speedup = cell_secs / fused_secs;

    let mut fused_table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "predictions/sec".into(),
        "speedup".into(),
    ]);
    fused_table.push_row(vec![
        format!("per-cell ({threads} threads)"),
        format!("{cell_secs:.3}"),
        format!("{cell_eps:.0}"),
        "1.00".into(),
    ]);
    fused_table.push_row(vec![
        format!("fused ({threads} threads)"),
        format!("{fused_secs:.3}"),
        format!("{fused_eps:.0}"),
        format!("{fused_speedup:.2}"),
    ]);
    ctx.emit(
        "BENCH_fused_table",
        &format!(
            "Fused trace passes: {} Table 3 configs x {} benchmarks",
            configs.len(),
            Benchmark::ALL.len()
        ),
        &fused_table,
    );

    format!(
        "  \"multi_scheme\": {{\n    \
           \"benchmark\": \"all Table 3 configs x all benchmarks, no context switches\",\n    \
           \"configs\": {n_configs},\n    \
           \"jobs\": {n_jobs},\n    \
           \"measured_predictions\": {multi_predictions},\n    \
           \"cell\": {{ \"seconds\": {cell_secs:.6}, \"events_per_sec\": {cell_eps:.1} }},\n    \
           \"fused\": {{ \"seconds\": {fused_secs:.6}, \"events_per_sec\": {fused_eps:.1} }},\n    \
           \"speedup\": {fused_speedup:.3}\n  }}",
        n_configs = configs.len(),
        n_jobs = fused_plan.len(),
    )
}

/// Replay: the automaton-ablation sweep, fused vs pattern-stream replay.
fn replay_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    // Every second-level variant of the paper-default first level: all
    // six automata (the five of Figure 5 plus the untrained preset bit)
    // on PAg(12). All six share BHT(512,4,12), so fused execution
    // already rides one driver walk per benchmark — the strongest
    // available baseline — and replay shares one materialized stream per
    // benchmark. The trained PSg variant is deliberately absent: both
    // modes would rebuild (re-train) it inside the timed region, adding
    // a constant that measures training, not the sweep.
    let configs: Vec<SchemeConfig> = Automaton::ALL
        .iter()
        .map(|&automaton| SchemeConfig::pag(12).with_automaton(automaton))
        .collect();
    let replay_plan = Plan::suites(&configs, &SimConfig::no_context_switch());
    let fused_plan: Plan =
        replay_plan.jobs().iter().map(|job| job.clone().with_replay(false)).collect();

    // Warm run on the replay lowering: generates traces and derives and
    // caches every pattern stream — so the timed runs below measure
    // replay, not derivation — and supplies the shared numerator (replay
    // is bit-identical to fusion, asserted by the differential suite).
    let warm = execute(&replay_plan, ctx.store());
    let replay_predictions: u64 =
        warm.iter().filter_map(|(_, o)| o.metrics()).map(|m| m.sim.predictions).sum();

    let fused_secs = best_of(iterations, || {
        let results = execute(&fused_plan, ctx.store());
        assert_eq!(results.len(), fused_plan.len());
    });
    let scalar_secs = best_of(iterations, || {
        let results = execute_with(
            SweepPool::global(),
            &replay_plan,
            ctx.store(),
            ExecOptions { simd: SimdMode::Scalar, ..ExecOptions::default() },
        );
        assert_eq!(results.len(), replay_plan.len());
    });
    let replay_secs = best_of(iterations, || {
        let results = execute(&replay_plan, ctx.store());
        assert_eq!(results.len(), replay_plan.len());
    });

    let fused_eps = replay_predictions as f64 / fused_secs;
    let scalar_eps = replay_predictions as f64 / scalar_secs;
    let replay_eps = replay_predictions as f64 / replay_secs;
    let scalar_speedup = fused_secs / scalar_secs;
    let replay_speedup = fused_secs / replay_secs;
    let simd_speedup = scalar_secs / replay_secs;

    let mut table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "predictions/sec".into(),
        "speedup".into(),
    ]);
    table.push_row(vec![
        format!("fused ({threads} threads)"),
        format!("{fused_secs:.3}"),
        format!("{fused_eps:.0}"),
        "1.00".into(),
    ]);
    table.push_row(vec![
        format!("replay scalar ({threads} threads)"),
        format!("{scalar_secs:.3}"),
        format!("{scalar_eps:.0}"),
        format!("{scalar_speedup:.2}"),
    ]);
    table.push_row(vec![
        format!("replay simd ({threads} threads)"),
        format!("{replay_secs:.3}"),
        format!("{replay_eps:.0}"),
        format!("{replay_speedup:.2}"),
    ]);
    ctx.emit_with_meta(
        "BENCH_replay_table",
        &format!(
            "Pattern-stream replay: {} automaton ablations x {} benchmarks (simd vs scalar: {simd_speedup:.2}x)",
            configs.len(),
            Benchmark::ALL.len()
        ),
        &host_meta(threads),
        &table,
    );

    format!(
        "  \"replay\": {{\n    \
           \"benchmark\": \"automaton ablations on BHT(512,4,12) x all benchmarks, no context switches\",\n    \
           \"configs\": {n_configs},\n    \
           \"jobs\": {n_jobs},\n    \
           \"measured_predictions\": {replay_predictions},\n    \
           \"fused\": {{ \"seconds\": {fused_secs:.6}, \"events_per_sec\": {fused_eps:.1} }},\n    \
           \"replay_scalar\": {{ \"seconds\": {scalar_secs:.6}, \"events_per_sec\": {scalar_eps:.1} }},\n    \
           \"replay\": {{ \"seconds\": {replay_secs:.6}, \"events_per_sec\": {replay_eps:.1} }},\n    \
           \"simd_speedup\": {simd_speedup:.3},\n    \
           \"speedup\": {replay_speedup:.3}\n  }}",
        n_configs = configs.len(),
        n_jobs = replay_plan.len(),
    )
}

/// Cold start: trace ingestion (VM generation + form derivation) for the
/// automaton-ablation plan, measured three ways — lazy serial with no
/// cache at all, the engine's parallel prefetch barrier, and a warm
/// disk-cache load. Unlike the other sections, the interesting state here
/// is an *empty* store, so every timed iteration builds a fresh one.
fn cold_start_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    let configs: Vec<SchemeConfig> = Automaton::ALL
        .iter()
        .map(|&automaton| SchemeConfig::pag(12).with_automaton(automaton))
        .collect();
    let plan = Plan::suites(&configs, &SimConfig::no_context_switch());

    // (a) Cold, serial: one worker generates and derives every form in
    // sequence — what every lazy first touch cost before the prefetch
    // barrier existed.
    let serial_pool = SweepPool::new(1);
    let cold_serial_secs = best_of(iterations, || {
        let cold = TraceStore::new();
        prefetch_on(&serial_pool, &plan, &cold);
        assert_eq!(cold.len(), Benchmark::ALL.len());
    });

    // (b) Cold, parallel: the same work fanned across the global pool by
    // the prefetch barrier, still without any disk cache.
    let prefetch_secs = best_of(iterations, || {
        let cold = TraceStore::new();
        prefetch_on(SweepPool::global(), &plan, &cold);
        assert_eq!(cold.len(), Benchmark::ALL.len());
    });

    // (c) Warm disk: populate an artifact directory once (untimed), then
    // time fresh stores hydrating from it — no VM, no derivation.
    let dir = std::env::temp_dir().join(format!("tlabp-bench-cold-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    prefetch_on(SweepPool::global(), &plan, &TraceStore::with_cache_dir(&dir));
    let warm_disk_secs = best_of(iterations, || {
        let warm = TraceStore::with_cache_dir(&dir);
        prefetch_on(SweepPool::global(), &plan, &warm);
        assert_eq!(warm.len(), Benchmark::ALL.len());
    });
    let disk_bytes = TraceStore::with_cache_dir(&dir).cache_bytes().disk;
    let _ = std::fs::remove_dir_all(&dir);

    let prefetch_speedup = cold_serial_secs / prefetch_secs;
    let warm_speedup = cold_serial_secs / warm_disk_secs;
    // The measured cores, recorded with the numbers: prefetch-vs-serial
    // speedup is bounded by this, so the figure is meaningless without it.
    let host_cores = host_cores();

    let mut table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "speedup".into(),
    ]);
    table.push_row(vec![
        "cold VM, serial (1 thread)".into(),
        format!("{cold_serial_secs:.3}"),
        "1.00".into(),
    ]);
    table.push_row(vec![
        format!("cold VM, prefetch ({threads} threads)"),
        format!("{prefetch_secs:.3}"),
        format!("{prefetch_speedup:.2}"),
    ]);
    table.push_row(vec![
        "warm disk cache".into(),
        format!("{warm_disk_secs:.3}"),
        format!("{warm_speedup:.2}"),
    ]);
    ctx.emit_with_meta(
        "BENCH_cold_start",
        &format!(
            "Cold-start ingestion: {} benchmarks, {} disk-artifact bytes, {host_cores}-core host",
            Benchmark::ALL.len(),
            disk_bytes
        ),
        &host_meta(threads),
        &table,
    );

    format!(
        "  \"cold_start\": {{\n    \
           \"benchmark\": \"trace generation + derivation for the automaton-ablation plan\",\n    \
           \"host_cores\": {host_cores},\n    \
           \"disk_artifact_bytes\": {disk_bytes},\n    \
           \"cold_serial\": {{ \"seconds\": {cold_serial_secs:.6} }},\n    \
           \"prefetch\": {{ \"seconds\": {prefetch_secs:.6}, \"speedup\": {prefetch_speedup:.3} }},\n    \
           \"warm_disk\": {{ \"seconds\": {warm_disk_secs:.6}, \"speedup\": {warm_speedup:.3} }}\n  }}"
    )
}

/// Scaling: one big replay batch swept over worker counts.
///
/// The batch is 128 same-width members — the six automata cycled over
/// duplicate PAg(12) jobs on the longest benchmark trace. Duplicates
/// are legal in a plan and member outcomes are independent of batch
/// composition, so the padding changes throughput, never results; 128
/// members of one width make eight 16-member banks, which gives the
/// intra-batch split eight atoms to fan across the pool. Every cell's
/// outcomes are asserted bit-identical to the warm reference.
fn scaling_section(ctx: &Ctx, iterations: u32, _threads: usize) -> String {
    // The longest trace: stream-walk time dominates there, which is the
    // configuration worth scaling.
    let benchmark = Benchmark::ALL
        .iter()
        .max_by_key(|benchmark| ctx.store().get_packed(benchmark, DataSet::Testing).len())
        .expect("the benchmark catalog is non-empty");
    let plan: Plan = (0..128)
        .map(|index| {
            let automaton = Automaton::ALL[index % Automaton::ALL.len()];
            Job::scheme(SchemeConfig::pag(12).with_automaton(automaton), benchmark)
        })
        .collect();

    // Warm run: derives and caches the pattern stream, and supplies the
    // reference outcomes plus the shared numerator.
    let reference = execute(&plan, ctx.store());
    let scaling_predictions: u64 =
        reference.iter().filter_map(|(_, o)| o.metrics()).map(|m| m.sim.predictions).sum();

    let cores = host_cores();
    let mut table = Table::new(vec![
        "workers".into(),
        format!("seconds (best of {iterations})"),
        "predictions/sec".into(),
        "speedup vs 1 worker".into(),
    ]);
    let mut rows = Vec::new();
    let mut peak: Option<(usize, f64)> = None;
    let mut single_worker_secs = None;
    for workers in 1..=cores {
        let pool = SweepPool::new(workers);
        let secs = best_of(iterations, || {
            let results = execute_with(&pool, &plan, ctx.store(), ExecOptions::default());
            assert_eq!(results.len(), plan.len());
        });
        // Bit-identity across every worker count — outside the timed
        // region.
        let check = execute_with(&pool, &plan, ctx.store(), ExecOptions::default());
        for index in 0..plan.len() {
            assert_eq!(
                check.outcome(index),
                reference.outcome(index),
                "job {index} diverged at {workers} workers"
            );
        }
        let eps = scaling_predictions as f64 / secs;
        let single = *single_worker_secs.get_or_insert(secs);
        if peak.is_none_or(|(_, best)| eps > best) {
            peak = Some((workers, eps));
        }
        table.push_row(vec![
            workers.to_string(),
            format!("{secs:.3}"),
            format!("{eps:.0}"),
            format!("{:.2}", single / secs),
        ]);
        rows.push(format!(
            "      {{ \"workers\": {workers}, \"seconds\": {secs:.6}, \"events_per_sec\": {eps:.1} }}"
        ));
    }
    let (peak_workers, peak_eps) = peak.expect("at least one scaling cell ran");

    ctx.emit_with_meta(
        "BENCH_scaling",
        &format!(
            "Replay scaling: one 128-member batch on {}, workers 1..={cores} \
             (peak {peak_eps:.0} preds/s at {peak_workers} worker(s))",
            benchmark.name(),
        ),
        &host_meta(cores),
        &table,
    );

    format!(
        "  \"scaling\": {{\n    \
           \"benchmark\": \"128-member PAg(12) automaton batch on {name}, no context switches\",\n    \
           \"jobs\": {jobs},\n    \
           \"host_cores\": {cores},\n    \
           \"measured_predictions\": {scaling_predictions},\n    \
           \"peak\": {{ \"workers\": {peak_workers}, \"events_per_sec\": {peak_eps:.1} }},\n    \
           \"rows\": [\n{rows}\n    ]\n  }}",
        name = benchmark.name(),
        jobs = plan.len(),
        rows = rows.join(",\n"),
    )
}

/// Concurrent clients the service load generator drives per cell.
const SERVICE_CLIENTS: usize = 64;
/// Timed rounds each client submits in the memo-hit cells.
const SERVICE_MEMO_ROUNDS: usize = 16;

/// The exact response byte stream the daemon must produce for `plan`:
/// one result frame per job in plan order, then the terminal done frame,
/// each newline-terminated.
fn service_expected_bytes(plan: &Plan, results: &tlabp_sim::ResultSet, memo: bool) -> Vec<u8> {
    use tlabp_service::proto::{done_payload, encode_frame, result_payload, FrameKind};
    let mut bytes = Vec::new();
    for index in 0..plan.len() {
        let payload = result_payload(index, results.outcome(index));
        bytes.extend_from_slice(encode_frame(FrameKind::Result, &payload).as_bytes());
        bytes.push(b'\n');
    }
    bytes.extend_from_slice(
        encode_frame(FrameKind::Done, &done_payload(plan.len(), memo)).as_bytes(),
    );
    bytes.push(b'\n');
    bytes
}

/// One timed service cell's aggregate numbers.
struct ServiceCell {
    seconds: f64,
    plans_per_s: f64,
    frames_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drives `clients` concurrent raw-socket clients against the daemon at
/// `addr`: each submits `rounds` copies of the pre-encoded plan frame
/// and `read_exact`s the full response, byte-compared against the
/// expected in-process encoding. Returns the aggregate rates and the
/// per-plan latency percentiles across all clients.
fn service_drive(
    addr: &str,
    clients: usize,
    rounds: usize,
    plan_frame: &std::sync::Arc<Vec<u8>>,
    expected: &std::sync::Arc<Vec<u8>>,
    frames_per_plan: usize,
) -> ServiceCell {
    use std::io::{Read, Write};

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let addr = addr.to_owned();
            let plan_frame = std::sync::Arc::clone(plan_frame);
            let expected = std::sync::Arc::clone(expected);
            std::thread::spawn(move || {
                let mut stream =
                    std::net::TcpStream::connect(&addr).expect("bench client connects");
                stream.set_nodelay(true).expect("set_nodelay");
                let mut response = vec![0u8; expected.len()];
                let mut latencies = Vec::with_capacity(rounds);
                for round in 0..rounds {
                    let sent = Instant::now();
                    stream.write_all(&plan_frame).expect("plan frame writes");
                    stream.read_exact(&mut response).expect("full response reads");
                    latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                    assert!(
                        response == *expected.as_slice(),
                        "client {client} round {round}: daemon response bytes diverged \
                         from the in-process execution"
                    );
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|handle| handle.join().expect("bench client thread"))
        .collect();
    let seconds = start.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
    let plans = (clients * rounds) as f64;
    ServiceCell {
        seconds,
        plans_per_s: plans / seconds,
        frames_per_s: plans * frames_per_plan as f64 / seconds,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// The **service** section: event core vs threaded baseline under
/// concurrent load. Iteration count is ignored — each cell already
/// aggregates over `clients x rounds` submissions.
fn service_section(ctx: &Ctx, _iterations: u32, threads: usize) -> String {
    use std::sync::Arc;
    use std::time::Duration;
    use tlabp_service::proto::{encode_frame, FrameKind};
    use tlabp_service::{
        Client, MemoDirMode, ServeBackend, ServeConfig, SweepServer, DEFAULT_INFLIGHT,
        DEFAULT_MEMO_BYTES,
    };

    // Memo-hit plan: three schemes across the whole catalog — 27 jobs of
    // canonical JSON per submission and 28 response frames, the shape
    // that exposes the backends' per-plan overhead asymmetry.
    let memo_plan: Plan = [SchemeConfig::pag(12), SchemeConfig::gag(10), SchemeConfig::gsg(6)]
        .iter()
        .flat_map(|&config| {
            Benchmark::ALL.iter().map(move |benchmark| Job::scheme(config, benchmark))
        })
        .collect();

    // Cold plan: one cheap job on the shortest trace. With memoization
    // off every submission simulates, so this cell is simulation-bound.
    let short = Benchmark::ALL
        .iter()
        .min_by_key(|benchmark| ctx.store().get_packed(benchmark, DataSet::Testing).len())
        .expect("catalog is non-empty");
    let cold_plan: Plan = std::iter::once(Job::scheme(SchemeConfig::btfn(), short)).collect();

    // In-process reference executions: the byte streams every timed
    // response is compared against.
    let memo_results = ctx.run(&memo_plan);
    let cold_results = ctx.run(&cold_plan);
    let frame_bytes = |plan: &Plan| {
        let mut bytes = encode_frame(FrameKind::Plan, &plan.to_json_string()).into_bytes();
        bytes.push(b'\n');
        Arc::new(bytes)
    };
    let memo_frame = frame_bytes(&memo_plan);
    let cold_frame = frame_bytes(&cold_plan);
    let memo_expected = Arc::new(service_expected_bytes(&memo_plan, &memo_results, true));
    let cold_expected = Arc::new(service_expected_bytes(&cold_plan, &cold_results, false));

    let spawn_server = |backend: ServeBackend, memo_bytes: usize| -> String {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            memo_bytes,
            window: None,
            inflight: DEFAULT_INFLIGHT,
            memo_dir: MemoDirMode::Off,
            memo_disk_bytes: None,
            backend,
        };
        let server = SweepServer::bind(&config, ctx.store().clone(), ExecOptions::default())
            .expect("bench daemon binds");
        let addr = server.local_addr().expect("bound address").to_string();
        std::thread::spawn(move || server.run());
        addr
    };

    let mut table = Table::new(vec![
        "backend".into(),
        "mode".into(),
        "clients".into(),
        "plans".into(),
        "plans/s".into(),
        "frames/s".into(),
        "p50 ms".into(),
        "p99 ms".into(),
    ]);
    let mut rows = Vec::new();
    let mut threaded_memo_rate = 0.0f64;
    let mut event_memo_rate = 0.0f64;
    for backend in [ServeBackend::Threaded, ServeBackend::Auto] {
        let label = match backend {
            ServeBackend::Threaded => "threaded",
            _ => "event",
        };

        // Cold cell: memoization off, one submission per client.
        let addr = spawn_server(backend, 0);
        let cold = service_drive(
            &addr,
            SERVICE_CLIENTS,
            1,
            &cold_frame,
            &cold_expected,
            cold_plan.len() + 1,
        );

        // Memo cell: one untimed warm execution through the structured
        // client (verifying the decoded results too), then every timed
        // submission is a memo hit.
        let addr = spawn_server(backend, DEFAULT_MEMO_BYTES);
        let mut client = Client::connect_with_retry(&addr, Duration::from_secs(10))
            .expect("bench daemon reachable");
        let (warm, done) = client.execute(&memo_plan).expect("warm submission");
        assert!(!done.memo, "the first submission must simulate");
        assert_eq!(
            warm.to_json_string(),
            memo_results.to_json_string(),
            "daemon results must be bit-identical to the in-process execution"
        );
        drop(client);
        let memo = service_drive(
            &addr,
            SERVICE_CLIENTS,
            SERVICE_MEMO_ROUNDS,
            &memo_frame,
            &memo_expected,
            memo_plan.len() + 1,
        );
        match backend {
            ServeBackend::Threaded => threaded_memo_rate = memo.plans_per_s,
            _ => event_memo_rate = memo.plans_per_s,
        }

        for (mode, rounds, cell) in [("cold", 1, &cold), ("memo", SERVICE_MEMO_ROUNDS, &memo)] {
            let plans = SERVICE_CLIENTS * rounds;
            table.push_row(vec![
                label.into(),
                mode.into(),
                SERVICE_CLIENTS.to_string(),
                plans.to_string(),
                format!("{:.1}", cell.plans_per_s),
                format!("{:.1}", cell.frames_per_s),
                format!("{:.3}", cell.p50_ms),
                format!("{:.3}", cell.p99_ms),
            ]);
            rows.push(format!(
                "      {{ \"backend\": \"{label}\", \"mode\": \"{mode}\", \
                 \"plans\": {plans}, \"seconds\": {:.6}, \"plans_per_s\": {:.1}, \
                 \"frames_per_s\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }}",
                cell.seconds, cell.plans_per_s, cell.frames_per_s, cell.p50_ms, cell.p99_ms
            ));
        }
    }

    let memo_speedup = event_memo_rate / threaded_memo_rate;
    ctx.emit_with_meta(
        "BENCH_service",
        &format!(
            "Sweep service: {SERVICE_CLIENTS} concurrent clients, event core vs threaded \
             baseline (memo-hit speedup {memo_speedup:.2}x), every response byte-verified"
        ),
        &host_meta(threads),
        &table,
    );

    format!(
        "  \"service\": {{\n    \
           \"benchmark\": \"{SERVICE_CLIENTS} concurrent clients, cold vs memo-hit plans, \
           event core vs threaded baseline, responses byte-verified\",\n    \
           \"clients\": {SERVICE_CLIENTS},\n    \
           \"memo_plan_jobs\": {jobs},\n    \
           \"memo_speedup\": {memo_speedup:.3},\n    \
           \"rows\": [\n{rows}\n    ]\n  }}",
        jobs = memo_plan.len(),
        rows = rows.join(",\n"),
    )
}

/// Events the streaming section replays: 64 replay blocks (2^20), tiled
/// from a real benchmark stream. At four resident bytes per unlaned
/// event (eight laned) this is far above the window cap derived below.
const STREAM_BENCH_EVENTS: usize = 64 << 14;

/// Encoded chunk budget for the streaming section's artifact: small
/// enough that the section spans dozens of chunks even after the
/// varint+delta encoding, so the bounded ring actually cycles.
const STREAM_BENCH_CHUNK_BYTES: usize = 128 << 10;

/// Batch width of the streaming section: the scaling section's eight
/// banks. A wide batch makes replay compute per decoded byte realistic
/// — the regime streaming is for — instead of measuring the decode
/// thread against a nearly-free walk.
const STREAM_BENCH_MEMBERS: usize = 128;

/// The **stream** section: bounded-memory streaming replay vs the fully
/// hydrated walk, bit-identity asserted, peak residency reported.
fn stream_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    use std::sync::Arc;
    use tlabp_core::any::AnyPredictor;
    use tlabp_sim::{
        replay_stream_key, simulate_replay_transposed, simulate_replay_transposed_streamed,
        StreamCursor, StreamWindow,
    };
    use tlabp_trace::io::{write_artifacts_chunked, ChunkedArtifact};
    use tlabp_trace::PatternStream;

    let mode = SimdMode::from_env();
    let config = SchemeConfig::pag(12);
    let key = replay_stream_key(config).expect("PAg(12) replays");

    // Tile the longest benchmark's real first-level stream up to the
    // section's event budget: real branch patterns, controlled size.
    // Tiling cannot break stream invariants (`from_raw_parts` recheck),
    // and both measured modes walk the identical tiled sequence.
    let benchmark = Benchmark::ALL
        .iter()
        .max_by_key(|benchmark| ctx.store().get_packed(benchmark, DataSet::Testing).len())
        .expect("the benchmark catalog is non-empty");
    let base = ctx.store().get_pattern_stream(benchmark, DataSet::Testing, key);
    let reps = STREAM_BENCH_EVENTS.div_ceil(base.len().max(1)).max(1);
    let stream = PatternStream::from_raw_parts(
        base.history_bits(),
        base.events().repeat(reps),
        base.lanes().repeat(reps),
        base.is_laned(),
    )
    .expect("tiling a valid stream yields a valid stream");
    let resident_bytes = stream.bytes();

    // Persist the stream as a many-chunk v3 artifact in a throwaway dir.
    let dir = std::env::temp_dir().join(format!("tlabp-bench-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join("stream-bench.tlabp");
    let key_bytes = key.to_bytes();
    std::fs::write(
        &path,
        write_artifacts_chunked(
            0,
            None,
            None,
            None,
            &[(key_bytes.clone(), &stream)],
            STREAM_BENCH_CHUNK_BYTES,
        ),
    )
    .expect("bench artifact writes");

    // The window cap: a quarter of the hydrated stream, floored at four
    // of the artifact's largest chunks so the ring always has room for
    // its minimum occupancy (producer + consumer + depth >= 1).
    let info = ChunkedArtifact::open(&path)
        .expect("just-written artifact opens")
        .find_stream(&key_bytes)
        .expect("just-written section is present");
    let per_event = if info.laned { 8 } else { 4 };
    let chunk_resident = info.chunk_items.iter().copied().max().unwrap_or(0) as usize * per_event;
    let cap_bytes = (resident_bytes / 4).max(4 * chunk_resident);
    let over_cap = resident_bytes as f64 / cap_bytes as f64;
    let chunks = info.chunk_items.len();

    let predictors: Vec<AnyPredictor> = (0..STREAM_BENCH_MEMBERS)
        .map(|index| {
            let automaton = Automaton::ALL[index % Automaton::ALL.len()];
            config.with_automaton(automaton).build_any().expect("untrained PAg builds")
        })
        .collect();
    let reference =
        simulate_replay_transposed(&predictors, &stream, mode).expect("PAg replays in memory");
    let predictions = (stream.len() * predictors.len()) as u64;

    let hydrated_secs = best_of(iterations, || {
        let sims =
            simulate_replay_transposed(&predictors, &stream, mode).expect("PAg replays in memory");
        assert_eq!(sims.len(), predictors.len());
    });

    let window = Arc::new(StreamWindow::new());
    window.reset_peak();
    let streamed_secs = best_of(iterations, || {
        let mut cursor = StreamCursor::open(&path, &key_bytes, cap_bytes, &window)
            .expect("bench artifact streams");
        let sims = simulate_replay_transposed_streamed(&predictors, &mut cursor, mode)
            .expect("PAg replays streamed")
            .expect("bench artifact is intact");
        assert_eq!(sims, reference, "streamed replay diverged from the hydrated walk");
    });
    let peak_bytes = window.peak();
    assert!(
        peak_bytes <= cap_bytes,
        "streaming window peaked at {peak_bytes} bytes, above the {cap_bytes}-byte cap"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let hydrated_eps = predictions as f64 / hydrated_secs;
    let streamed_eps = predictions as f64 / streamed_secs;
    let ratio = hydrated_secs / streamed_secs;

    let mut table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "predictions/sec".into(),
        "resident bytes".into(),
        "vs hydrated".into(),
    ]);
    table.push_row(vec![
        "hydrated".into(),
        format!("{hydrated_secs:.3}"),
        format!("{hydrated_eps:.0}"),
        resident_bytes.to_string(),
        "1.00".into(),
    ]);
    table.push_row(vec![
        format!("streamed ({chunks} chunks)"),
        format!("{streamed_secs:.3}"),
        format!("{streamed_eps:.0}"),
        format!("{peak_bytes} (cap {cap_bytes})"),
        format!("{ratio:.2}"),
    ]);
    ctx.emit_with_meta(
        "BENCH_stream",
        &format!(
            "Streaming replay: {} tiled events x {} automata, {over_cap:.1}x the window cap, \
             bit-identical",
            stream.len(),
            predictors.len()
        ),
        &host_meta(threads),
        &table,
    );

    format!(
        "  \"stream\": {{\n    \
           \"benchmark\": \"PAg(12) automaton batch on {name} tiled x{reps}, streamed vs hydrated\",\n    \
           \"events\": {events},\n    \
           \"chunks\": {chunks},\n    \
           \"measured_predictions\": {predictions},\n    \
           \"stream_bytes\": {resident_bytes},\n    \
           \"window_cap_bytes\": {cap_bytes},\n    \
           \"window_peak_bytes\": {peak_bytes},\n    \
           \"stream_over_cap\": {over_cap:.2},\n    \
           \"hydrated\": {{ \"seconds\": {hydrated_secs:.6}, \"events_per_sec\": {hydrated_eps:.1} }},\n    \
           \"streamed\": {{ \"seconds\": {streamed_secs:.6}, \"events_per_sec\": {streamed_eps:.1} }},\n    \
           \"throughput_ratio\": {ratio:.3}\n  }}",
        name = benchmark.name(),
        events = stream.len(),
    )
}

/// Per-form cache footprint of everything the run materialized, with the
/// `TLABP_CACHE_BYTES` soft-cap warning. The soft cap covers every row —
/// hydrated forms, v3 disk artifacts and the live streaming window.
fn report_cache_bytes(ctx: &Ctx) {
    let bytes = ctx.store().cache_bytes();
    let mib = |n: usize| format!("{:.2}", n as f64 / (1024.0 * 1024.0));
    let mut table = Table::new(vec!["cached form".into(), "bytes".into(), "MiB".into()]);
    table.push_row(vec!["packed".into(), bytes.packed.to_string(), mib(bytes.packed)]);
    table.push_row(vec!["interned".into(), bytes.interned.to_string(), mib(bytes.interned)]);
    table.push_row(vec!["pattern streams".into(), bytes.streams.to_string(), mib(bytes.streams)]);
    table.push_row(vec!["disk artifacts".into(), bytes.disk.to_string(), mib(bytes.disk)]);
    table.push_row(vec![
        "streaming window".into(),
        bytes.stream_window.to_string(),
        mib(bytes.stream_window),
    ]);
    table.push_row(vec!["total".into(), bytes.total().to_string(), mib(bytes.total())]);
    ctx.emit("BENCH_cache_bytes", "Trace cache footprint by form", &table);
    let cap = cache_bytes_cap();
    if bytes.total() > cap {
        eprintln!(
            "warning: trace cache holds {} bytes, above the TLABP_CACHE_BYTES soft cap of {cap}",
            bytes.total()
        );
    }
}
