//! Differential tests pinning the fast simulation paths to the
//! reference path.
//!
//! The sweep engine runs every job that does not replay a pattern
//! stream as a monomorphized [`AnyPredictor`] walking the pc-interned
//! conditional stream, alone or batched with the jobs that share its
//! trace, with context switches taken from the trace's precomputed
//! switch schedule. None of these transformations may change a single
//! prediction: for every scheme in the catalog, the `AnyPredictor` over
//! the full trace (the reference loop), the same predictor boxed as a
//! `dyn BranchPredictor`, and the walk over the interned stream must
//! produce identical [`SimResult`]s.

use tlabp::core::automaton::Automaton;
use tlabp::core::config::SchemeConfig;
use tlabp::core::{BhtConfig, BranchPredictor};
use tlabp::sim::plan::Plan;
use tlabp::sim::runner::{
    simulate, simulate_fused, ContextSwitchConfig, SimConfig, SwitchSchedule,
};
use tlabp::sim::{ResultSet, Session, SimResult, TraceStore};
use tlabp::trace::synth::{BiasedCoins, CorrelatedBranches, Correlation, LoopNest, MarkovBranches};
use tlabp::trace::{InternedConds, Trace};
use tlabp::workloads::{Benchmark, DataSet};

/// `plan` on the global pool against `store`.
fn run(plan: &Plan, store: &TraceStore) -> ResultSet {
    Session::new(store.clone()).run(plan)
}

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

/// `config` on `trace` under `sim` through every loop: `AnyPredictor`
/// over the full trace (the reference), the same predictor boxed as a
/// `dyn BranchPredictor`, and a one-member interned walk fed the trace's
/// switch schedule.
fn run_all_paths(
    config: &SchemeConfig,
    trace: &Trace,
    training: &Trace,
    sim: &SimConfig,
) -> [(&'static str, SimResult); 3] {
    let mut boxed: Box<dyn BranchPredictor> = Box::new(build_any(config, training));
    let schedule = SwitchSchedule::new(trace, sim);
    let interned = InternedConds::from_trace(trace);
    let mut fused = [build_any(config, training)];
    [
        ("AnyPredictor", simulate(&mut build_any(config, training), trace, sim)),
        ("dyn", simulate(&mut *boxed, trace, sim)),
        ("fused", simulate_fused(&mut fused, &interned, &schedule).remove(0)),
    ]
}

/// The boxed path and the interned walk are bit-identical to the
/// reference loop for every catalog scheme on every trace, with and
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
                        "reference vs {path} diverged for {config} on {trace_name} under {sim:?}"
                    );
                }
            }
        }
    }
}

/// The paper's flush-PHT ablation predictor (a `Dyn` PAg(12) that also
/// reinitializes its pattern table on every switch) walks in one batch
/// with two plain PAg(12)s, the duplicate that fig9 and fig10 both plan
/// on every trace. Each member walks its own tables and applies its own
/// switch policy, so every member still matches the reference loop.
#[test]
fn fused_flush_pht_ablation_batches_with_pag() {
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
                SchemeConfig::pag(12).build_any().expect("builds"),
            ];
            let fused = simulate_fused(&mut batch, &interned, &schedule);
            let flush_reference = simulate(&mut flush_pht(), &trace, &sim);
            let keep_reference =
                simulate(&mut SchemeConfig::pag(12).build_any().expect("builds"), &trace, &sim);
            assert_eq!(fused[0], flush_reference, "flush-PHT on {trace_name} under {sim:?}");
            for (member, result) in fused.iter().enumerate().skip(1) {
                assert_eq!(
                    result, &keep_reference,
                    "PAg(12) member {member} on {trace_name} under {sim:?}"
                );
            }
            flushing_costs |= flush_reference.correct < keep_reference.correct;
        }
    }
    assert!(flushing_costs, "flushing the PHT never changed a prediction");
}

/// Instrumented jobs that simulate context switches report the switched
/// accuracy, and their one instrumented pass fires the switches too: a
/// miss breakdown classifies exactly the job's own mispredictions.
#[test]
fn instrumented_context_switch_jobs_match_the_reference_path() {
    use tlabp::sim::plan::{Job, MetricSet, TargetCacheSpec};

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
    let results = run(&plan, &TraceStore::from_env());
    let reference = &results.outcome(metric_sets.len()).metrics().expect("measured").sim;
    assert!(reference.context_switches > 0, "gcc switches");
    for (index, metrics) in metric_sets.iter().enumerate() {
        let measured = results.outcome(index).metrics().expect("measured");
        assert_eq!(&measured.sim, reference, "{metrics:?} vs reference");
        assert_eq!(measured.miss_breakdown.is_some(), metrics.miss_breakdown);
        assert_eq!(measured.fetch.is_some(), metrics.fetch.is_some());
        if let Some(breakdown) = measured.miss_breakdown {
            assert_eq!(
                breakdown.total(),
                reference.predictions - reference.correct,
                "{metrics:?}: the breakdown classifies the job's own mispredictions"
            );
        }
    }
}

/// A fetch-metric job reports the reference path's accuracy counters,
/// and fetch stats equal to a local loop that applies `simulate`'s
/// interval and trap rules to the predictor, calls `predict` + `update`
/// on each conditional and `TargetCache::fetch`/`resolve` on every
/// branch. This holds for every catalog scheme without context switches
/// on li, and for every `c`-flagged one on gcc, whose traps switch
/// often; a switch flushes the predictor's first level and never the
/// target cache. Training schemes train on the benchmark's training
/// set.
#[test]
fn fetch_jobs_match_a_predict_update_fetch_loop_for_every_scheme() {
    use tlabp::core::target_cache::{FetchOutcome, TargetCache};
    use tlabp::sim::metrics::FetchStats;
    use tlabp::sim::plan::{Job, MetricSet, TargetCacheSpec};
    use tlabp::trace::{BranchClass, TraceEvent};

    let spec = TargetCacheSpec::PAPER_DEFAULT;
    let fetch = MetricSet { miss_breakdown: false, fetch: Some(spec) };
    let store = TraceStore::from_env();
    for (name, switched) in [("li", false), ("gcc", true)] {
        let benchmark = Benchmark::by_name(name).expect("benchmark exists");
        let sim = if switched {
            SimConfig::paper_context_switch()
        } else {
            SimConfig::no_context_switch()
        };
        let configs: Vec<SchemeConfig> =
            catalog().into_iter().filter(|config| config.context_switch() == switched).collect();
        let plan: Plan = configs
            .iter()
            .flat_map(|&config| {
                [
                    Job::scheme(config, benchmark).with_metrics(fetch),
                    Job::scheme(config, benchmark).with_reference_path(true),
                ]
            })
            .collect();
        let results = run(&plan, &store);
        let trace = store.get(benchmark, DataSet::Testing);
        let training = store.get(benchmark, DataSet::Training);
        for (index, config) in configs.iter().enumerate() {
            let measured = results.outcome(2 * index).metrics().expect("measured");
            let reference = &results.outcome(2 * index + 1).metrics().expect("measured").sim;
            assert_eq!(&measured.sim, reference, "{config} on {name}: fetch job vs reference path");
            assert_eq!(reference.context_switches > 0, switched, "{config} on {name}");

            let mut predictor = build_any(config, &training);
            let mut cache = TargetCache::new(spec.entries, spec.ways);
            let mut want = FetchStats::default();
            let mut next_interval_switch = sim.context_switch.map(|cs| cs.interval_instructions);
            for event in trace.iter() {
                if let (Some(cs), Some(due)) = (sim.context_switch, next_interval_switch) {
                    if event.instret() >= due {
                        predictor.context_switch();
                        next_interval_switch = Some(event.instret() + cs.interval_instructions);
                    }
                }
                let branch = match event {
                    TraceEvent::Branch(branch) => branch,
                    TraceEvent::Trap(trap) => {
                        if let Some(cs) = sim.context_switch.filter(|cs| cs.on_traps) {
                            predictor.context_switch();
                            next_interval_switch = Some(trap.instret + cs.interval_instructions);
                        }
                        continue;
                    }
                };
                let predicted_taken = if branch.class.is_conditional() {
                    let predicted = predictor.predict(branch);
                    predictor.update(branch);
                    predicted
                } else {
                    true
                };
                let outcome = cache.fetch(branch, predicted_taken);
                cache.resolve(branch);
                want.branches += 1;
                want.correct_path += u64::from(outcome.is_correct_path());
                match outcome {
                    FetchOutcome::HitCorrectTarget => want.no_bubble_taken += 1,
                    FetchOutcome::HitWrongPath => {
                        want.squashes += 1;
                        want.return_target_misses += u64::from(branch.class == BranchClass::Return);
                    }
                    FetchOutcome::HitFallThrough { correct } | FetchOutcome::Miss { correct } => {
                        want.squashes += u64::from(!correct);
                    }
                }
            }
            assert_eq!(measured.fetch, Some(want), "{config} on {name}: fetch stats");
        }
    }
}

/// Profiling reads only each conditional branch's pc and direction, so
/// a trained scheme built from a training trace's interned stream is the
/// one built from the full trace: on every benchmark with a training
/// set, GSg(12), GSg(18), PSg(12) and Profiling get the same preset
/// tables (or profile) and make the same prediction at every
/// conditional branch of the testing trace.
#[test]
fn interned_and_trace_trainers_agree_on_every_training_trace() {
    use tlabp::core::schemes::{train_global, train_per_address, Profiling};

    let configs = [
        SchemeConfig::gsg(12),
        SchemeConfig::gsg(18),
        SchemeConfig::psg(12),
        SchemeConfig::profiling(),
    ];
    let store = TraceStore::from_env();
    let trained: Vec<&'static Benchmark> =
        Benchmark::ALL.iter().filter(|b| b.has_training_set()).collect();
    assert_eq!(trained.len(), 5);
    for benchmark in trained {
        let name = benchmark.name();
        let training = store.get(benchmark, DataSet::Training);
        let interned = store.get_interned(benchmark, DataSet::Training);
        for k in [12, 18] {
            assert_eq!(
                train_global(training.conditional_outcomes(), k),
                train_global(interned.outcomes(), k),
                "GSg({k}) preset on {name}"
            );
        }
        assert_eq!(
            train_per_address(training.conditional_outcomes(), 12),
            train_per_address(interned.outcomes(), 12),
            "PSg(12) preset on {name}"
        );
        assert_eq!(
            Profiling::train(training.conditional_outcomes()),
            Profiling::train(interned.outcomes()),
            "profile of {name}"
        );
        let testing = store.get(benchmark, DataSet::Testing);
        for config in &configs {
            let mut from_trace = config.build_any_trained(&training);
            let mut from_interned = config.build_any_trained_interned(&interned);
            for (at, branch) in testing.conditional_branches().enumerate() {
                let want = from_trace.predict(branch);
                assert_eq!(from_interned.predict(branch), want, "{config} on {name}, branch {at}");
                from_trace.update(branch);
                from_interned.update(branch);
            }
        }
    }
}

/// Every miss-breakdown bucket of the analysis artifact's jobs, PAg(12)
/// on each testing trace, matches an independent pc-keyed loop: a
/// paper-default BHT, one A2 pattern table and a last-writer table that
/// records the pc of the branch that last updated each pattern entry.
/// The loop classifies each misprediction in the engine's order: BHT
/// miss, weak state (1 or 2), interference, noise.
#[test]
fn miss_breakdown_buckets_match_a_pc_keyed_loop_on_every_testing_trace() {
    use tlabp::core::pht::PatternHistoryTable;
    use tlabp::sim::metrics::MissBreakdown;
    use tlabp::sim::plan::{Job, MetricSet};

    let metrics = MetricSet { miss_breakdown: true, fetch: None };
    let plan: Plan = Benchmark::ALL
        .iter()
        .map(|benchmark| Job::scheme(SchemeConfig::pag(12), benchmark).with_metrics(metrics))
        .collect();
    let store = TraceStore::from_env();
    let results = run(&plan, &store);
    for (index, benchmark) in Benchmark::ALL.iter().enumerate() {
        let trace = store.get(benchmark, DataSet::Testing);
        let mut bht = BhtConfig::PAPER_DEFAULT.build(12);
        let mut pht = PatternHistoryTable::new(12, Automaton::A2);
        let mut last_writer: Vec<Option<u64>> = vec![None; pht.len()];
        let mut want = MissBreakdown::default();
        for branch in trace.conditional_branches() {
            let hit = bht.access(branch.pc);
            let pattern = bht.pattern(branch.pc).expect("an accessed entry is resident");
            if pht.predict(pattern) != branch.taken {
                if !hit {
                    want.bht_miss += 1;
                } else if matches!(pht.state(pattern).value(), 1 | 2) {
                    want.weak_pattern += 1;
                } else if last_writer[pattern].is_some_and(|pc| pc != branch.pc) {
                    want.interference += 1;
                } else {
                    want.noise += 1;
                }
            }
            last_writer[pattern] = Some(branch.pc);
            pht.update(pattern, branch.taken);
            bht.record_outcome(branch.pc, branch.taken);
        }
        let measured = results.outcome(index).metrics().expect("measured");
        let name = benchmark.name();
        assert_eq!(measured.miss_breakdown, Some(want), "{name}: breakdown vs pc-keyed loop");
        assert_eq!(want.total(), measured.sim.predictions - measured.sim.correct, "{name}");
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
    use tlabp::sim::plan::Job;

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
        let results = run(&plan, &TraceStore::from_env());
        let sims: Vec<&SimResult> =
            results.iter().map(|(_, outcome)| &outcome.metrics().expect("measured").sim).collect();
        assert_eq!(sims[0], sims[1], "fast vs reference diverged for {config}");
        assert_eq!(sims[0], sims[2], "fast vs dyn diverged for {config}");
    }
}

/// Fusion is invisible: for every catalog scheme — including the
/// context-switch variants, which share a walk of their own over the
/// trace's switch schedule — a fused plan, the same plan with fusion
/// disabled (each job walking in a batch of one), and the same plan
/// forced onto the reference path produce identical outcomes job for
/// job: measured counters and skip reasons alike.
#[test]
fn fused_per_cell_and_reference_plans_agree_job_for_job() {
    use tlabp::sim::plan::Job;

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

    let fused_out = run(&fused, &store);
    let cell_out = run(&per_cell, &store);
    let reference_out = run(&reference, &store);
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
    use tlabp::sim::plan::Job;

    let li = Benchmark::by_name("li").expect("li exists");
    // The whole catalog: the no-switch half lowers to replay and fused
    // batches, the `c`-flagged half to fused batches of its own.
    let configs = catalog();
    let store = TraceStore::from_env();
    let multi: Plan = configs.iter().map(|&config| Job::scheme(config, li)).collect();
    let multi_out = run(&multi, &store);
    for (index, &config) in configs.iter().enumerate() {
        let single: Plan = [Job::scheme(config, li)].into_iter().collect();
        let single_out = run(&single, &store);
        assert_eq!(
            multi_out.outcome(index),
            single_out.outcome(0),
            "{config} outcome depends on its batch"
        );
    }
}

/// `config`'s reference result on `trace`: its predictor (trained on
/// `training` when needed) through `simulate`, no context switches.
fn reference(config: SchemeConfig, trace: &Trace, training: &Trace) -> SimResult {
    simulate(&mut build_any(&config, training), trace, &SimConfig::no_context_switch())
}

/// Every replay-eligible scheme structure crossed with every automaton
/// (Last-Time and the four-state counters via `with_automaton`, the
/// PresetBit 2-state packing via the trained GSg/PSg schemes): replaying
/// the materialized pattern stream through a transposed bank, under
/// both kernel bodies, is bit-identical to the reference `simulate` on
/// every trace.
#[test]
fn replay_is_bit_identical_for_every_scheme_and_automaton() {
    use tlabp::core::SimdMode;
    use tlabp::sim::runner::{
        derive_pattern_stream, replay_stream_key, simulate_replay_transposed,
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
    for (trace_name, trace) in traces() {
        let interned = InternedConds::from_trace(&trace);
        for &config in &configs {
            let key = replay_stream_key(config).expect("catalog scheme has a stream key");
            let stream = derive_pattern_stream(&interned, key);
            let expected = reference(config, &trace, &training);
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let member = [build_any(&config, &training)];
                let transposed = simulate_replay_transposed(&member, &stream, mode)
                    .expect("catalog scheme has a replay PHT");
                assert_eq!(
                    transposed[0], expected,
                    "transposed {mode:?} vs reference diverged for {config} on {trace_name}"
                );
            }
        }
    }
}

/// Batches wider than one bank: same-width groups of 17, 40 and 135
/// members, at mixed widths, with per-lane PAp groups and trained
/// GSg/PSg members, replay in one call that cuts each group into
/// 16-member banks. Every member must still equal its own reference
/// `simulate`, under both kernel bodies.
#[test]
fn wide_replay_batches_match_per_member_reference() {
    use tlabp::core::SimdMode;
    use tlabp::sim::runner::{derive_pattern_stream, simulate_replay_transposed, StreamKey};
    use tlabp::trace::InternedConds;

    /// `count` members cycling every automaton through `scheme`.
    fn cycle(count: usize, scheme: impl Fn(Automaton) -> SchemeConfig) -> Vec<SchemeConfig> {
        (0..count).map(|i| scheme(Automaton::ALL[i % Automaton::ALL.len()])).collect()
    }
    let global: Vec<SchemeConfig> = [
        // 17 at width 12: a full bank plus one, two of them trained.
        cycle(15, |a| SchemeConfig::gag(12).with_automaton(a)),
        vec![SchemeConfig::gsg(12); 2],
        cycle(40, |a| SchemeConfig::gag(8).with_automaton(a)),
        cycle(135, |a| SchemeConfig::gag(10).with_automaton(a)),
    ]
    .concat();
    let bht: Vec<SchemeConfig> = [
        cycle(15, |a| SchemeConfig::pag(12).with_automaton(a)),
        vec![SchemeConfig::psg(12); 2],
        // Per-lane members: 40 PAp at width 8 make three laned banks.
        cycle(40, |a| SchemeConfig::pap(8).with_automaton(a)),
        cycle(135, |a| SchemeConfig::pag(10).with_automaton(a)),
    ]
    .concat();
    let cases = [
        (global, StreamKey::Global { history_bits: 12 }),
        (
            bht,
            StreamKey::Bht(tlabp::core::bht::BhtSignature {
                config: BhtConfig::PAPER_DEFAULT,
                history_bits: 12,
            }),
        ),
    ];

    let training = BiasedCoins::uniform(24, 0.7, 400, 8).generate();
    let traces = [
        ("markov", MarkovBranches::new(24, 0.8, 4000, 7).generate()),
        ("correlated", CorrelatedBranches::new(Correlation::Xor, 2000, 0.5, 11).generate()),
    ];
    for (trace_name, trace) in &traces {
        let interned = InternedConds::from_trace(trace);
        for (configs, key) in &cases {
            let stream = derive_pattern_stream(&interned, *key);
            let mut expected: Vec<(SchemeConfig, SimResult)> = Vec::new();
            for &config in configs {
                if !expected.iter().any(|(c, _)| *c == config) {
                    expected.push((config, reference(config, trace, &training)));
                }
            }
            let predictors: Vec<_> = configs.iter().map(|c| build_any(c, &training)).collect();
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let results =
                    simulate_replay_transposed(&predictors, &stream, mode).expect("replayable");
                assert_eq!(results.len(), configs.len());
                for (member, (config, result)) in configs.iter().zip(&results).enumerate() {
                    let (_, want) =
                        expected.iter().find(|(c, _)| c == config).expect("reference computed");
                    assert_eq!(
                        result, want,
                        "member {member} ({config}) diverged under {mode:?} on {trace_name}"
                    );
                }
            }
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
    use tlabp::sim::plan::Job;

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

    let replay_out = run(&replay, &store);
    let fused_out = run(&fused, &store);
    let reference_out = run(&reference, &store);
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

/// The replay kernel's lookup table agrees with `Automaton::update` and
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

/// Both bodies of the transposed kernel — the bit-sliced word body and
/// the scalar transposed loop — agree with `Automaton::update` /
/// `Automaton::predict` on all 256 (state, taken) transition inputs,
/// for every automaton: a one-member bank stepped through each input
/// singly must land in the reference next state and count the reference
/// correctness, under every `TLABP_SIMD` mode, and agree with a shadow
/// `PatternHistoryTable` stepped through `predict_update`.
#[test]
fn transposed_kernels_match_automaton_on_all_256_inputs() {
    use tlabp::core::automaton::State;
    use tlabp::core::pht::{PatternHistoryTable, TransposedPhtBank};
    use tlabp::core::SimdMode;

    for automaton in Automaton::ALL {
        let mask = automaton.state_count() - 1;
        for index in 0..256usize {
            let taken = index & 1 != 0;
            let state = State::new(((index >> 1) as u8) & mask);
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let mut table = PatternHistoryTable::new(1, automaton);
                table.set_state(0, state);
                table.set_state(1, state);
                let mut bank = TransposedPhtBank::new(&[&table]);
                bank.replay(&[u32::from(taken)], &[], mode);
                let predicted = table.predict_update(0, taken);
                assert_eq!(
                    bank.state(0, 0),
                    automaton.update(state, taken),
                    "{automaton} next state diverged at index {index} under {mode:?}"
                );
                assert_eq!(bank.state(0, 0), table.state(0), "{automaton} index {index} shadow");
                assert_eq!(
                    bank.counts()[0],
                    u64::from(automaton.predict(state) == taken),
                    "{automaton} correctness diverged at index {index} under {mode:?}"
                );
                assert_eq!(predicted, automaton.predict(state), "{automaton} index {index}");
            }
        }
    }
}

/// The full grid plan — every (scheme, width, automaton) cell of the
/// Fig. 8 design-space artifact, where the engine's fold grouping packs
/// entire width × automaton columns into single transposed batches over
/// one shared stream — is lowering-invariant: the word kernel, the
/// scalar kernel and fused execution with replay disabled all agree job
/// for job.
#[test]
fn grid_plan_is_invariant_across_replay_kernels_and_fusion() {
    use tlabp::core::SimdMode;
    use tlabp::sim::plan::Job;
    use tlabp::sim::ExecOptions;

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
    let fused_out = run(&fused, &store);
    let kernel = |simd| Session::new(store.clone()).with_options(ExecOptions { simd }).run(&plan);
    let auto = kernel(SimdMode::Auto);
    let scalar = kernel(SimdMode::Scalar);
    for (index, job) in jobs.iter().enumerate() {
        let label = job.label();
        let benchmark = job.trace.benchmark.name();
        assert_eq!(
            auto.outcome(index),
            scalar.outcome(index),
            "auto vs scalar diverged for {label} on {benchmark}"
        );
        assert_eq!(
            auto.outcome(index),
            fused_out.outcome(index),
            "auto vs fused diverged for {label} on {benchmark}"
        );
    }
}

/// Intra-batch splitting is invisible for every scheme structure and
/// automaton: a plan whose width × automaton columns fold into wide
/// replay batches produces bit-identical outcomes whether each batch
/// runs whole on a one-worker pool or is scattered bank-by-bank across
/// two or four workers. On li both of this plan's replay batches split
/// on two workers; the engine's unit test
/// `forced_split_replay_matches_unsplit` asserts that on the same plan.
#[test]
fn split_replay_matches_unsplit_for_every_scheme_and_automaton() {
    use tlabp::sim::plan::Job;
    use tlabp::sim::SweepPool;

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
    let run_on = |workers| Session::on(&SweepPool::new(workers), store.clone()).run(&plan);
    let unsplit = run_on(1);
    for workers in [2, 4] {
        let split_out = run_on(workers);
        for (index, job) in jobs.iter().enumerate() {
            assert_eq!(
                unsplit.outcome(index),
                split_out.outcome(index),
                "{workers} workers diverged from unsplit for {}",
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
