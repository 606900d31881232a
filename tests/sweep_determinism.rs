//! Satellite: sweep results are independent of the worker pool size.
//!
//! The sweep engine executes cells work-stealing style, so the order in
//! which cells *finish* depends on thread scheduling. The reassembly
//! step must erase that: a sweep run on one worker and the same sweep
//! run on many workers have to produce identical `Vec<SuiteResult>`s,
//! in the submitted configuration order.

use tlabp::core::automaton::Automaton;
use tlabp::core::config::SchemeConfig;
use tlabp::sim::runner::SimConfig;
use tlabp::sim::sweep::run_sweep_on;
use tlabp::sim::{SweepPool, TraceStore};

fn sweep_configs() -> Vec<SchemeConfig> {
    vec![
        SchemeConfig::pag(8),
        SchemeConfig::gag(10),
        SchemeConfig::pag(8).with_context_switch(true),
        SchemeConfig::profiling(),
        SchemeConfig::btb(Automaton::A2),
    ]
}

#[test]
fn sweep_results_are_identical_across_pool_sizes() {
    let configs = sweep_configs();
    let sim = SimConfig::no_context_switch();
    // Separate stores: each run generates (or reuses) its own traces, so
    // agreement also covers trace-generation determinism.
    let serial_pool = SweepPool::new(1);
    let serial = run_sweep_on(&serial_pool, &configs, &TraceStore::new(), &sim);
    let parallel_pool = SweepPool::new(8);
    let parallel = run_sweep_on(&parallel_pool, &configs, &TraceStore::new(), &sim);

    assert_eq!(serial.len(), configs.len());
    assert_eq!(serial, parallel, "pool size changed the sweep output");
    // Order matches the submitted configuration order.
    for (config, result) in configs.iter().zip(&serial) {
        assert_eq!(result.scheme, config.to_string());
    }
}

#[test]
fn repeated_sweeps_on_one_store_are_stable() {
    let configs = vec![SchemeConfig::pag(8), SchemeConfig::gag(10)];
    let sim = SimConfig::no_context_switch();
    let store = TraceStore::new();
    let pool = SweepPool::new(4);
    let first = run_sweep_on(&pool, &configs, &store, &sim);
    let second = run_sweep_on(&pool, &configs, &store, &sim);
    assert_eq!(first, second);
}

/// The same independence holds for a heterogeneous plan: replay-lowered
/// scheme jobs (sharing materialized pattern streams), replay-disabled
/// jobs (fused trace passes), context-switch jobs, registry-built custom
/// jobs, fusion-disabled jobs, reference-path jobs and instrumented
/// metric jobs mixed in one batch must come back bit-identical whether
/// one worker or eight executed them.
#[test]
fn engine_results_are_identical_across_pool_sizes() {
    use tlabp::core::registry;
    use tlabp::core::BhtConfig;
    use tlabp::sim::engine::execute_on;
    use tlabp::sim::plan::{Job, MetricSet, Plan, TargetCacheSpec};
    use tlabp::workloads::Benchmark;

    registry::register("determinism-dyn-pag8", || {
        Box::new(SchemeConfig::pag(8).build_any().expect("builds"))
    });
    let plan: Plan = Benchmark::ALL
        .iter()
        .flat_map(|benchmark| {
            [
                // Replay-lowered: the three scheme jobs share the
                // benchmark's pattern streams; the custom escape hatch
                // fuses over the interned stream instead.
                Job::scheme(SchemeConfig::pag(8), benchmark),
                Job::scheme(SchemeConfig::pag(12).with_bht(BhtConfig::Ideal), benchmark),
                Job::scheme(SchemeConfig::pap(6), benchmark),
                Job::custom("determinism-dyn-pag8", benchmark),
                // Replay opt-out: same scheme job on the fused path.
                Job::scheme(SchemeConfig::pag(8), benchmark).with_replay(false),
                // The other lowerings: a switched walk, a fusion-off
                // job walking alone, the reference path, and
                // instrumented metrics.
                Job::scheme(SchemeConfig::gag(10).with_context_switch(true), benchmark),
                Job::scheme(SchemeConfig::pap(6), benchmark).with_fusion(false),
                Job::scheme(SchemeConfig::gag(10), benchmark).with_reference_path(true),
                Job::scheme(SchemeConfig::pag(12), benchmark)
                    .with_metrics(MetricSet { miss_breakdown: true, fetch: None }),
                Job::scheme(SchemeConfig::pag(12), benchmark).with_metrics(MetricSet {
                    miss_breakdown: false,
                    fetch: Some(TargetCacheSpec::PAPER_DEFAULT),
                }),
            ]
        })
        .collect();

    let serial_pool = SweepPool::new(1);
    let serial = execute_on(&serial_pool, &plan, &TraceStore::new());
    let parallel_pool = SweepPool::new(8);
    let parallel = execute_on(&parallel_pool, &plan, &TraceStore::new());
    assert_eq!(serial.len(), plan.len());
    assert_eq!(serial, parallel, "pool size changed the engine output");
}

/// The prefetch barrier is a scheduling change only. Executing a plan
/// against *cold* stores — every trace generated, derived (and possibly
/// disk-hydrated) during the run itself — must produce bit-identical
/// `ResultSet`s whether the prefetch pass runs on one worker or fans
/// ingestion across eight. Stores come from `TraceStore::from_env()`, so
/// the default run proves it memory-only and the CI warm-cache step
/// (`TLABP_TRACE_DIR` set) proves it through the disk tier.
#[test]
fn cold_store_prefetch_is_identical_across_pool_sizes() {
    use tlabp::core::BhtConfig;
    use tlabp::sim::engine::execute_on;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::workloads::Benchmark;

    // Replay-lowered, fused and context-switch jobs in one plan, so every
    // ingestion product (trace, packed, interned, pattern streams, switch
    // schedules) is in play on the cold path.
    let plan: Plan = [Benchmark::by_name("li").unwrap(), Benchmark::by_name("eqntott").unwrap()]
        .iter()
        .flat_map(|&benchmark| {
            [
                Job::scheme(SchemeConfig::pag(8), benchmark),
                Job::scheme(SchemeConfig::pag(8).with_bht(BhtConfig::Ideal), benchmark),
                Job::scheme(SchemeConfig::gag(10), benchmark).with_replay(false),
                Job::scheme(SchemeConfig::pag(8).with_context_switch(true), benchmark),
            ]
        })
        .collect();

    let serial_pool = SweepPool::new(1);
    let serial = execute_on(&serial_pool, &plan, &TraceStore::from_env());
    let parallel_pool = SweepPool::new(8);
    let parallel = execute_on(&parallel_pool, &plan, &TraceStore::from_env());
    assert_eq!(serial.len(), plan.len());
    assert_eq!(serial, parallel, "the prefetch pool width changed the engine output");
}

/// Forcing either `TLABP_SIMD` kernel body through `ExecOptions::simd`
/// is a throughput knob only — both bodies must produce bit-identical
/// `ResultSet`s, across pool sizes, on a plan
/// mixing replay-lowered width/automaton variants with non-replay jobs.
#[test]
fn forced_simd_paths_are_bit_identical_across_pool_sizes() {
    use tlabp::core::SimdMode;
    use tlabp::sim::engine::{execute_with, ExecOptions};
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::workloads::Benchmark;

    let plan: Plan = [Benchmark::by_name("li").unwrap(), Benchmark::by_name("eqntott").unwrap()]
        .iter()
        .flat_map(|&benchmark| {
            [
                Job::scheme(SchemeConfig::gag(8), benchmark),
                Job::scheme(SchemeConfig::gag(12), benchmark),
                Job::scheme(SchemeConfig::pag(8), benchmark),
                Job::scheme(SchemeConfig::pag(12), benchmark),
                Job::scheme(SchemeConfig::pap(8), benchmark),
                Job::scheme(SchemeConfig::pag(12), benchmark).with_replay(false),
                Job::scheme(SchemeConfig::btfn(), benchmark),
            ]
        })
        .collect();

    let store = TraceStore::new();
    let baseline_pool = SweepPool::new(1);
    let baseline =
        execute_with(&baseline_pool, &plan, &store, ExecOptions { simd: SimdMode::Scalar });
    assert_eq!(baseline.len(), plan.len());
    for simd in [SimdMode::Auto, SimdMode::Scalar] {
        for workers in [1, 8] {
            let pool = SweepPool::new(workers);
            let run = execute_with(&pool, &plan, &store, ExecOptions { simd });
            assert_eq!(baseline, run, "{simd:?} on {workers} workers diverged from scalar");
        }
    }
}

/// Crossing a forced kernel with a pool size, and with it the
/// intra-batch split, must still be a scheduling/throughput change only.
/// A wide replay batch (many members per stream) is split into
/// bank-granular sub-batches scattered across workers; the merged
/// `ResultSet` has to stay bit-identical to the scalar, single-worker
/// (never split) run for every (kernel, pool) combination.
#[test]
fn forced_kernel_pool_and_split_cross_is_bit_identical() {
    use tlabp::core::SimdMode;
    use tlabp::sim::engine::{execute_with, ExecOptions};
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::workloads::Benchmark;

    let benchmark = Benchmark::by_name("li").unwrap();
    // 48 same-shape jobs cycling the automata: one wide replay batch of
    // three 16-member banks. li has 724,820 conditionals, so the batch
    // holds over eight split units of work and splits on two or more
    // workers, every split point on a bank boundary.
    let plan: Plan = (0..48)
        .map(|i| {
            Job::scheme(
                SchemeConfig::pag(10).with_automaton(Automaton::ALL[i % Automaton::ALL.len()]),
                benchmark,
            )
        })
        .collect();

    let store = TraceStore::new();
    let baseline_pool = SweepPool::new(1);
    let baseline =
        execute_with(&baseline_pool, &plan, &store, ExecOptions { simd: SimdMode::Scalar });
    assert_eq!(baseline.len(), plan.len());
    for simd in [SimdMode::Auto, SimdMode::Scalar] {
        for workers in [1, 2, 4] {
            let pool = SweepPool::new(workers);
            let run = execute_with(&pool, &plan, &store, ExecOptions { simd });
            assert_eq!(baseline, run, "{simd:?} x {workers} workers diverged from scalar/unsplit");
        }
    }
}
