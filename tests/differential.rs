//! Differential tests pinning the fast simulation paths to the
//! reference path.
//!
//! The sweep engine runs cells through a monomorphized
//! [`AnyPredictor`] over the packed conditional-branch stream, with
//! context switches taken from the trace's precomputed switch schedule
//! — and fuses packed-path jobs that share a trace into batched passes
//! over the pc-interned stream. None of these transformations may change
//! a single prediction: for every scheme in the catalog, the boxed
//! `dyn BranchPredictor` over the full trace, the `AnyPredictor` over
//! the full trace, the `AnyPredictor` over the packed stream, and the
//! fused batch over the interned stream must produce identical
//! [`SimResult`]s.

use tlabp::core::automaton::Automaton;
use tlabp::core::config::SchemeConfig;
use tlabp::core::BhtConfig;
use tlabp::sim::runner::{
    simulate, simulate_fused, simulate_packed, ContextSwitchConfig, SimConfig, SwitchSchedule,
};
use tlabp::sim::SimResult;
use tlabp::trace::synth::{BiasedCoins, CorrelatedBranches, Correlation, LoopNest, MarkovBranches};
use tlabp::trace::{InternedConds, Trace};
use tlabp::workloads::{Benchmark, DataSet};

/// Every scheme kind the simulator supports, across automata, history
/// lengths and BHT geometries (a superset of the paper's Table 3 axes).
fn catalog() -> Vec<SchemeConfig> {
    let mut configs = vec![
        SchemeConfig::gag(6),
        SchemeConfig::gag(12).with_automaton(Automaton::LastTime),
        SchemeConfig::gag(18).with_automaton(Automaton::A4),
        SchemeConfig::pag(8),
        SchemeConfig::pag(12).with_automaton(Automaton::A3),
        SchemeConfig::pag(10).with_bht(BhtConfig::Cache { entries: 256, ways: 1 }),
        SchemeConfig::pag(12).with_bht(BhtConfig::Ideal),
        SchemeConfig::pap(6),
        SchemeConfig::pap(8).with_bht(BhtConfig::Ideal),
        SchemeConfig::gsg(12),
        SchemeConfig::psg(12),
        SchemeConfig::btb(Automaton::A2),
        SchemeConfig::btb(Automaton::LastTime),
        SchemeConfig::always_taken(),
        SchemeConfig::btfn(),
        SchemeConfig::profiling(),
    ];
    // The same axes with the context-switch flag set.
    for config in configs.clone() {
        configs.push(config.with_context_switch(true));
    }
    configs
}

fn traces() -> Vec<(&'static str, Trace)> {
    vec![
        ("loop_nest", LoopNest::new(&[40, 11, 3]).generate()),
        ("biased_coins", BiasedCoins::uniform(24, 0.7, 400, 7).generate()),
        ("correlated", CorrelatedBranches::new(Correlation::Xor, 2000, 0.5, 11).generate()),
        ("markov", MarkovBranches::new(16, 0.85, 3000, 23).generate()),
        ("li_testing", Benchmark::by_name("li").expect("li exists").trace(DataSet::Testing)),
    ]
}

/// The switch models a `c`-flagged scheme runs under: the paper's, plus
/// two dense ones (with and without trap switches) so that the short
/// synthetic traces, which have no traps, switch too.
fn switch_models() -> [SimConfig; 3] {
    let dense = |on_traps| SimConfig {
        context_switch: Some(ContextSwitchConfig { interval_instructions: 1_000, on_traps }),
    };
    [SimConfig::paper_context_switch(), dense(true), dense(false)]
}

/// `config`'s monomorphized predictor, trained on `training` when the
/// scheme needs it.
fn build_any(config: &SchemeConfig, training: &Trace) -> tlabp::core::AnyPredictor {
    if config.needs_training() {
        config.build_any_trained(training)
    } else {
        config.build_any().expect("builds")
    }
}

/// `config` on `trace` under `sim` through every loop: the boxed
/// reference, `AnyPredictor` over the full trace, the packed loop and a
/// one-member fused batch, both fed the trace's switch schedule.
fn run_all_paths(
    config: &SchemeConfig,
    trace: &Trace,
    training: &Trace,
    sim: &SimConfig,
) -> [(&'static str, SimResult); 4] {
    let mut boxed = if config.needs_training() {
        config.build_trained(training)
    } else {
        config.build().expect("builds")
    };
    let schedule = SwitchSchedule::new(trace, sim);
    let packed = trace.pack_conditionals();
    let interned = InternedConds::from_packed(&packed);
    let mut fused = [build_any(config, training)];
    [
        ("dyn", simulate(&mut *boxed, trace, sim)),
        ("AnyPredictor", simulate(&mut build_any(config, training), trace, sim)),
        ("packed", simulate_packed(&mut build_any(config, training), &packed, &schedule)),
        ("fused", simulate_fused(&mut fused, &interned, &schedule).remove(0)),
    ]
}

/// The monomorphized, packed and fused paths are bit-identical to the
/// boxed reference for every catalog scheme on every trace, with and
/// without context-switch simulation — the `c`-flagged schemes under
/// every switch model.
#[test]
fn every_catalog_scheme_is_path_invariant() {
    let training = BiasedCoins::uniform(24, 0.7, 400, 8).generate();
    for (trace_name, trace) in traces() {
        for dense in &switch_models()[1..] {
            assert!(
                !SwitchSchedule::new(&trace, dense).is_empty(),
                "{trace_name} never switches under {dense:?}"
            );
        }
        for config in catalog() {
            let sims = if config.context_switch() {
                switch_models().to_vec()
            } else {
                vec![SimConfig::no_context_switch()]
            };
            for sim in sims {
                let [(_, reference), others @ ..] = run_all_paths(&config, &trace, &training, &sim);
                for (path, result) in others {
                    assert_eq!(
                        reference, result,
                        "dyn vs {path} diverged for {config} on {trace_name} under {sim:?}"
                    );
                }
            }
        }
    }
}

/// The paper's flush-PHT ablation predictor (a `Dyn` PAg(12) that also
/// reinitializes its pattern table on every switch) shares one driver
/// table with plain PAg(12) in a fused batch: the driver flushes at each
/// switch point and each member applies its own switch policy, so both
/// still match the reference loop.
#[test]
fn fused_flush_pht_ablation_shares_a_driver_with_pag() {
    use tlabp::core::predictor::BranchPredictor;
    use tlabp::core::schemes::Pag;
    use tlabp::core::AnyPredictor;

    let flush_pht = || {
        let mut pag = Pag::new(12, BhtConfig::PAPER_DEFAULT, Automaton::A2);
        pag.set_flush_pht_on_context_switch(true);
        pag
    };
    let gcc = Benchmark::by_name("gcc").expect("gcc exists").trace(DataSet::Testing);
    let mut flushing_costs = false;
    for (trace_name, trace) in traces().into_iter().chain([("gcc_testing", gcc)]) {
        let interned = InternedConds::from_trace(&trace);
        for sim in switch_models() {
            let schedule = SwitchSchedule::new(&trace, &sim);
            let mut batch = [
                AnyPredictor::Dyn(Box::new(flush_pht())),
                SchemeConfig::pag(12).build_any().expect("builds"),
            ];
            assert_eq!(batch[0].shared_bht(), batch[1].shared_bht(), "one driver table");
            let fused = simulate_fused(&mut batch, &interned, &schedule);
            let flush_reference = simulate(&mut flush_pht(), &trace, &sim);
            let keep_reference =
                simulate(&mut *SchemeConfig::pag(12).build().expect("builds"), &trace, &sim);
            assert_eq!(fused[0], flush_reference, "flush-PHT on {trace_name} under {sim:?}");
            assert_eq!(fused[1], keep_reference, "PAg(12) on {trace_name} under {sim:?}");
            flushing_costs |= flush_reference.correct < keep_reference.correct;
        }
    }
    assert!(flushing_costs, "flushing the PHT never changed a prediction");
}

/// Instrumented jobs that simulate context switches report the switched
/// accuracy: the miss-breakdown and fetch loops model no switches, so
/// their own counters must not stand in for the job's.
#[test]
fn instrumented_context_switch_jobs_match_the_reference_path() {
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, MetricSet, Plan, TargetCacheSpec};
    use tlabp::sim::TraceStore;

    let gcc = Benchmark::by_name("gcc").expect("gcc exists");
    let config = SchemeConfig::pag(12).with_context_switch(true);
    let metric_sets = [
        MetricSet { miss_breakdown: true, fetch: None },
        MetricSet { miss_breakdown: false, fetch: Some(TargetCacheSpec::PAPER_DEFAULT) },
        MetricSet { miss_breakdown: true, fetch: Some(TargetCacheSpec::PAPER_DEFAULT) },
    ];
    let mut jobs: Vec<Job> =
        metric_sets.iter().map(|&metrics| Job::scheme(config, gcc).with_metrics(metrics)).collect();
    jobs.push(Job::scheme(config, gcc).with_reference_path(true));
    let plan: Plan = jobs.into_iter().collect();
    let results = execute(&plan, &TraceStore::from_env());
    let reference = &results.outcome(metric_sets.len()).metrics().expect("measured").sim;
    assert!(reference.context_switches > 0, "gcc switches");
    for (index, metrics) in metric_sets.iter().enumerate() {
        let measured = results.outcome(index).metrics().expect("measured");
        assert_eq!(&measured.sim, reference, "{metrics:?} vs reference");
        assert_eq!(measured.miss_breakdown.is_some(), metrics.miss_breakdown);
        assert_eq!(measured.fetch.is_some(), metrics.fetch.is_some());
    }
}

/// The execution engine's three lowerings agree job-for-job: a scheme
/// job on the fast path, the same scheme forced onto the reference path,
/// and the same predictor entering as a registry-built custom job (the
/// `AnyPredictor::Dyn` escape hatch) all produce identical accuracy
/// counters.
#[test]
fn engine_paths_agree_for_every_lowering() {
    use tlabp::core::registry;
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let li = Benchmark::by_name("li").expect("li exists");
    let configs = [SchemeConfig::pag(8), SchemeConfig::gag(10).with_automaton(Automaton::A3)];
    for config in configs {
        let name = format!("differential-dyn-{config}");
        registry::register(&name, move || Box::new(config.build_any().expect("builds")));
        let plan: Plan = [
            Job::scheme(config, li),
            Job::scheme(config, li).with_reference_path(true),
            Job::custom(name.clone(), li),
        ]
        .into_iter()
        .collect();
        let results = execute(&plan, &TraceStore::from_env());
        let sims: Vec<&SimResult> =
            results.iter().map(|(_, outcome)| &outcome.metrics().expect("measured").sim).collect();
        assert_eq!(sims[0], sims[1], "fast vs reference diverged for {config}");
        assert_eq!(sims[0], sims[2], "fast vs dyn diverged for {config}");
    }
}

/// Fusion is invisible: for every catalog scheme — including the
/// context-switch variants, which fuse into their own batch walking the
/// trace's switch schedule — a fused plan, the same plan with fusion
/// disabled, and the same plan forced onto the reference path produce
/// identical outcomes job for job: measured counters and skip reasons
/// alike.
#[test]
fn fused_per_cell_and_reference_plans_agree_job_for_job() {
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let li = Benchmark::by_name("li").expect("li exists");
    let eqntott = Benchmark::by_name("eqntott").expect("eqntott exists");
    let mut jobs: Vec<Job> = catalog().into_iter().map(|config| Job::scheme(config, li)).collect();
    // eqntott has no training set: profiled schemes must skip (with the
    // same reason) on every path, alongside fusible neighbors.
    jobs.extend(
        [SchemeConfig::profiling(), SchemeConfig::gsg(12), SchemeConfig::pag(8)]
            .map(|config| Job::scheme(config, eqntott)),
    );

    let store = TraceStore::from_env();
    let fused: Plan = jobs.iter().cloned().collect();
    let per_cell: Plan = jobs.iter().map(|job| job.clone().with_fusion(false)).collect();
    let reference: Plan = jobs.iter().map(|job| job.clone().with_reference_path(true)).collect();

    let fused_out = execute(&fused, &store);
    let cell_out = execute(&per_cell, &store);
    let reference_out = execute(&reference, &store);
    for (index, job) in jobs.iter().enumerate() {
        let label = job.label();
        let benchmark = job.trace.benchmark.name();
        assert_eq!(
            fused_out.outcome(index),
            cell_out.outcome(index),
            "fused vs per-cell diverged for {label} on {benchmark}"
        );
        assert_eq!(
            fused_out.outcome(index),
            reference_out.outcome(index),
            "fused vs reference diverged for {label} on {benchmark}"
        );
    }
}

/// A fused batch's composition never affects its members: every catalog
/// scheme measured alone in its own single-job fused plan matches the
/// outcome it gets inside the all-schemes fused plan (where it shares
/// batches with the other predictors of its switch configuration).
#[test]
fn fused_outcomes_are_independent_of_batch_composition() {
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let li = Benchmark::by_name("li").expect("li exists");
    // The whole catalog: the no-switch half lowers to replay and fused
    // batches, the `c`-flagged half to fused batches of its own.
    let configs = catalog();
    let store = TraceStore::from_env();
    let multi: Plan = configs.iter().map(|&config| Job::scheme(config, li)).collect();
    let multi_out = execute(&multi, &store);
    for (index, &config) in configs.iter().enumerate() {
        let single: Plan = [Job::scheme(config, li)].into_iter().collect();
        let single_out = execute(&single, &store);
        assert_eq!(
            multi_out.outcome(index),
            single_out.outcome(0),
            "{config} outcome depends on its batch"
        );
    }
}

/// Every replay-eligible scheme structure crossed with every automaton
/// (Last-Time and the four-state counters via `with_automaton`, the
/// PresetBit 2-state packing via the trained GSg/PSg schemes): replaying
/// the materialized pattern stream through the bit-packed PHT is
/// bit-identical to the packed fast path and to the boxed reference on
/// every trace.
#[test]
fn replay_is_bit_identical_for_every_scheme_and_automaton() {
    use tlabp::core::SimdMode;
    use tlabp::sim::runner::{
        derive_pattern_stream, replay_stream_key, simulate_replay, simulate_replay_transposed,
    };
    use tlabp::trace::InternedConds;

    let structures = [
        SchemeConfig::gag(8),
        SchemeConfig::pag(8),
        SchemeConfig::pag(10).with_bht(BhtConfig::Cache { entries: 256, ways: 1 }),
        SchemeConfig::pag(12).with_bht(BhtConfig::Ideal),
        SchemeConfig::pap(6),
    ];
    let mut configs: Vec<SchemeConfig> = structures
        .iter()
        .flat_map(|&config| {
            Automaton::FIGURE5.iter().map(move |&automaton| config.with_automaton(automaton))
        })
        .collect();
    configs.extend([SchemeConfig::gsg(12), SchemeConfig::psg(12)]);

    let training = BiasedCoins::uniform(24, 0.7, 400, 8).generate();
    let sim = SimConfig::no_context_switch();
    for (trace_name, trace) in traces() {
        let interned = InternedConds::from_trace(&trace);
        for &config in &configs {
            let key = replay_stream_key(config).expect("catalog scheme has a stream key");
            let stream = derive_pattern_stream(&interned, key);
            let predictor = if config.needs_training() {
                config.build_any_trained(&training)
            } else {
                config.build_any().expect("builds")
            };
            let replayed =
                simulate_replay(&predictor, &stream).expect("catalog scheme has a replay PHT");

            // Every body of the transposed SWAR kernel reproduces the
            // sequential replay bit for bit — scheme × automaton × trace.
            for mode in
                [SimdMode::Swar, SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2, SimdMode::Avx512]
            {
                let member = if config.needs_training() {
                    config.build_any_trained(&training)
                } else {
                    config.build_any().expect("builds")
                };
                let transposed = simulate_replay_transposed(&[member], &stream, mode)
                    .expect("catalog scheme has a replay PHT");
                assert_eq!(
                    transposed[0], replayed,
                    "transposed {mode:?} vs replay diverged for {config} on {trace_name}"
                );
            }

            let mut packed = if config.needs_training() {
                config.build_any_trained(&training)
            } else {
                config.build_any().expect("builds")
            };
            let packed_result = simulate_packed(
                &mut packed,
                &trace.pack_conditionals(),
                &SwitchSchedule::default(),
            );
            assert_eq!(
                replayed, packed_result,
                "replay vs packed diverged for {config} on {trace_name}"
            );

            let mut boxed = if config.needs_training() {
                config.build_trained(&training)
            } else {
                config.build().expect("builds")
            };
            let dyn_result = simulate(&mut *boxed, &trace, &sim);
            assert_eq!(
                replayed, dyn_result,
                "replay vs reference diverged for {config} on {trace_name}"
            );
        }
    }
}

/// The engine's replay lowering is invisible: the default plan (replay
/// on), the same plan with replay disabled (fused execution), and the
/// same plan forced onto the reference path produce identical outcomes
/// job for job — including the profiled schemes that skip benchmarks
/// without training sets.
#[test]
fn replay_fused_and_reference_plans_agree_job_for_job() {
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let li = Benchmark::by_name("li").expect("li exists");
    let eqntott = Benchmark::by_name("eqntott").expect("eqntott exists");
    let mut jobs: Vec<Job> = catalog().into_iter().map(|config| Job::scheme(config, li)).collect();
    jobs.extend(
        [SchemeConfig::psg(12), SchemeConfig::gsg(12), SchemeConfig::pag(8)]
            .map(|config| Job::scheme(config, eqntott)),
    );

    let store = TraceStore::from_env();
    let replay: Plan = jobs.iter().cloned().collect();
    let fused: Plan = jobs.iter().map(|job| job.clone().with_replay(false)).collect();
    let reference: Plan = jobs.iter().map(|job| job.clone().with_reference_path(true)).collect();

    let replay_out = execute(&replay, &store);
    let fused_out = execute(&fused, &store);
    let reference_out = execute(&reference, &store);
    for (index, job) in jobs.iter().enumerate() {
        let label = job.label();
        let benchmark = job.trace.benchmark.name();
        assert_eq!(
            replay_out.outcome(index),
            fused_out.outcome(index),
            "replay vs fused diverged for {label} on {benchmark}"
        );
        assert_eq!(
            replay_out.outcome(index),
            reference_out.outcome(index),
            "replay vs reference diverged for {label} on {benchmark}"
        );
    }
}

/// The bit-packed PHT's lookup table agrees with `Automaton::update` and
/// `Automaton::predict` on all 256 (state, taken) inputs, for every
/// automaton — including the 2-state Last-Time and PresetBit packings,
/// whose stored state is the masked low bit of the index.
#[test]
fn packed_lut_matches_automaton_on_all_256_inputs() {
    use tlabp::core::automaton::State;

    for automaton in Automaton::ALL {
        let lut = automaton.packed_lut();
        let mask = automaton.state_count() - 1;
        for (index, &entry) in lut.iter().enumerate() {
            let taken = index & 1 != 0;
            let state = State::new(((index >> 1) as u8) & mask);
            assert_eq!(
                entry & 0b11,
                automaton.update(state, taken).value(),
                "{automaton} next state diverged at index {index}"
            );
            assert_eq!(
                entry & 0b100 != 0,
                automaton.predict(state),
                "{automaton} prediction diverged at index {index}"
            );
        }
    }
}

/// Every body of the transposed SWAR kernel — portable u64, forced
/// SSE2/AVX2, and the scalar transposed loop — agrees with
/// `Automaton::update` / `Automaton::predict` on all 256 (state, taken)
/// transition inputs, for every automaton: a one-member bank stepped
/// through each input singly must land in the reference next state and
/// count the reference correctness, under every `TLABP_SIMD` mode.
#[test]
fn transposed_kernels_match_automaton_on_all_256_inputs() {
    use tlabp::core::automaton::State;
    use tlabp::core::pht::{PackedPht, TransposedPhtBank};
    use tlabp::core::SimdMode;

    for automaton in Automaton::ALL {
        let mask = automaton.state_count() - 1;
        for index in 0..256usize {
            let taken = index & 1 != 0;
            let state = State::new(((index >> 1) as u8) & mask);
            for mode in [
                SimdMode::Auto,
                SimdMode::Swar,
                SimdMode::Scalar,
                SimdMode::Sse2,
                SimdMode::Avx2,
                SimdMode::Avx512,
            ] {
                let mut table = PackedPht::new(1, automaton);
                table.set_state(0, state);
                table.set_state(1, state);
                let mut bank = TransposedPhtBank::new(&[table]);
                bank.replay(&[u32::from(taken)], mode);
                assert_eq!(
                    bank.state(0, 0),
                    automaton.update(state, taken),
                    "{automaton} next state diverged at index {index} under {mode:?}"
                );
                assert_eq!(
                    bank.counts()[0],
                    u64::from(automaton.predict(state) == taken),
                    "{automaton} correctness diverged at index {index} under {mode:?}"
                );
            }
        }
    }
}

/// The full grid plan — every (scheme, width, automaton) cell of the
/// Fig. 8 design-space artifact, where the engine's fold grouping packs
/// entire width × automaton columns into single transposed batches over
/// one shared stream — is lowering-invariant: the SWAR kernel, the
/// scalar kernel, the auto-detected kernel and fused execution with
/// replay disabled all agree job for job.
#[test]
fn grid_plan_is_invariant_across_replay_kernels_and_fusion() {
    use tlabp::core::SimdMode;
    use tlabp::sim::engine::{execute, execute_with, ExecOptions};
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::{SweepPool, TraceStore};

    let benchmarks =
        [Benchmark::by_name("li").expect("li exists"), Benchmark::by_name("eqntott").unwrap()];
    let schemes: [fn(u32) -> SchemeConfig; 3] =
        [SchemeConfig::gag, SchemeConfig::pag, SchemeConfig::pap];
    let mut jobs: Vec<Job> = Vec::new();
    for benchmark in benchmarks {
        for scheme in schemes {
            for width in [4u32, 6, 8, 10, 12] {
                for &automaton in &Automaton::FIGURE5 {
                    jobs.push(Job::scheme(scheme(width).with_automaton(automaton), benchmark));
                }
            }
        }
    }
    let plan: Plan = jobs.iter().cloned().collect();
    let fused: Plan = jobs.iter().map(|job| job.clone().with_replay(false)).collect();

    let store = TraceStore::from_env();
    let auto = execute(&plan, &store);
    let fused_out = execute(&fused, &store);
    let kernel = |simd| {
        execute_with(
            SweepPool::global(),
            &plan,
            &store,
            ExecOptions { simd, ..ExecOptions::default() },
        )
    };
    let swar = kernel(SimdMode::Swar);
    let scalar = kernel(SimdMode::Scalar);
    for (index, job) in jobs.iter().enumerate() {
        let label = job.label();
        let benchmark = job.trace.benchmark.name();
        assert_eq!(
            swar.outcome(index),
            scalar.outcome(index),
            "swar vs scalar diverged for {label} on {benchmark}"
        );
        assert_eq!(
            swar.outcome(index),
            auto.outcome(index),
            "swar vs auto diverged for {label} on {benchmark}"
        );
        assert_eq!(
            swar.outcome(index),
            fused_out.outcome(index),
            "swar vs fused diverged for {label} on {benchmark}"
        );
    }
}

/// Intra-batch splitting is invisible for every scheme structure and
/// automaton: a plan whose width × automaton columns fold into wide
/// replay batches produces bit-identical outcomes whether each batch
/// runs whole on one worker or is scattered word-by-word across the
/// pool — under the auto split heuristic and under forced part counts
/// far above and below the atom supply.
#[test]
fn split_replay_matches_unsplit_for_every_scheme_and_automaton() {
    use tlabp::core::SimdMode;
    use tlabp::sim::engine::{execute_with, ExecOptions, SplitPolicy};
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::{SweepPool, TraceStore};

    let benchmark = Benchmark::by_name("li").expect("li exists");
    let schemes: [fn(u32) -> SchemeConfig; 3] =
        [SchemeConfig::gag, SchemeConfig::pag, SchemeConfig::pap];
    let mut jobs: Vec<Job> = Vec::new();
    for scheme in schemes {
        for width in [6u32, 8] {
            for automaton in Automaton::ALL {
                jobs.push(Job::scheme(scheme(width).with_automaton(automaton), benchmark));
            }
        }
    }
    let plan: Plan = jobs.iter().cloned().collect();

    let store = TraceStore::new();
    let pool = SweepPool::new(2);
    let run = |split| {
        execute_with(
            &pool,
            &plan,
            &store,
            ExecOptions { simd: SimdMode::Auto, split, ..ExecOptions::default() },
        )
    };
    let unsplit = run(SplitPolicy::Off);
    for split in [SplitPolicy::Auto, SplitPolicy::Parts(2), SplitPolicy::Parts(64)] {
        let split_out = run(split);
        for (index, job) in jobs.iter().enumerate() {
            assert_eq!(
                unsplit.outcome(index),
                split_out.outcome(index),
                "{split:?} diverged from unsplit for {}",
                job.label()
            );
        }
    }
}

/// The packed stream itself is lossless for prediction: pc, direction
/// and backwardness survive the 8-byte encoding.
#[test]
fn packed_records_preserve_prediction_inputs() {
    for (trace_name, trace) in traces() {
        let packed = trace.pack_conditionals();
        let originals: Vec<_> = trace.conditional_branches().collect();
        assert_eq!(packed.len(), originals.len(), "{trace_name}");
        for (cond, original) in packed.iter().zip(originals) {
            let rebuilt = cond.to_record();
            assert_eq!(rebuilt.pc, original.pc, "{trace_name}");
            assert_eq!(rebuilt.taken, original.taken, "{trace_name}");
            assert_eq!(rebuilt.is_backward(), original.is_backward(), "{trace_name}");
        }
    }
}
