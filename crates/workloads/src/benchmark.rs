//! The benchmark registry: Table 1 metadata and trace generation.

use std::fmt;

use tlabp_isa::program::Program;
use tlabp_isa::vm::Vm;
use tlabp_isa::SEMANTICS_DIGEST;
use tlabp_trace::Trace;

use crate::{doduc, eqntott, espresso, fpppp, gcc, li, matrix300, spice2g6, tomcatv};

/// Which input a benchmark runs with (the paper's Table 2).
///
/// A benchmark's program text is *identical* for both data sets — only
/// embedded immediates (seeds, sizes, mode flags) differ — so static
/// branch addresses line up between training and testing runs, which is
/// what the profiling-based schemes (GSg, PSg, Profiling) depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSet {
    /// The profiling input (e.g. `cps` for espresso, tower of hanoi for
    /// li, `cexp.i` for gcc).
    Training,
    /// The measurement input (e.g. `bca`, eight queens, `dbxout.i`).
    Testing,
}

/// Benchmark category, used for the paper's Int/FP geometric means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkKind {
    /// SPECint'89-like.
    Integer,
    /// SPECfp'89-like.
    FloatingPoint,
}

impl fmt::Display for BenchmarkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BenchmarkKind::Integer => "integer",
            BenchmarkKind::FloatingPoint => "floating-point",
        })
    }
}

/// One of the nine SPEC'89-like workloads.
///
/// # Example
///
/// ```
/// use tlabp_workloads::{Benchmark, BenchmarkKind};
///
/// let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
/// assert_eq!(names.len(), 9);
/// assert_eq!(Benchmark::by_name("gcc").unwrap().kind(), BenchmarkKind::Integer);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Benchmark {
    name: &'static str,
    kind: BenchmarkKind,
    paper_static_branches: usize,
    has_training_set: bool,
}

impl Benchmark {
    /// Data-memory words every benchmark VM runs with.
    pub const VM_MEMORY_WORDS: usize = 1 << 20;
    /// Instruction budget every benchmark VM runs with.
    pub const VM_MAX_INSTRUCTIONS: u64 = 80_000_000;

    /// All nine benchmarks, integer first (as the paper's tables list
    /// them).
    pub const ALL: [Benchmark; 9] = [
        Benchmark {
            name: "eqntott",
            kind: BenchmarkKind::Integer,
            paper_static_branches: 277,
            has_training_set: false,
        },
        Benchmark {
            name: "espresso",
            kind: BenchmarkKind::Integer,
            paper_static_branches: 556,
            has_training_set: true,
        },
        Benchmark {
            name: "gcc",
            kind: BenchmarkKind::Integer,
            paper_static_branches: 6922,
            has_training_set: true,
        },
        Benchmark {
            name: "li",
            kind: BenchmarkKind::Integer,
            paper_static_branches: 489,
            has_training_set: true,
        },
        Benchmark {
            name: "doduc",
            kind: BenchmarkKind::FloatingPoint,
            paper_static_branches: 1149,
            has_training_set: true,
        },
        Benchmark {
            name: "fpppp",
            kind: BenchmarkKind::FloatingPoint,
            paper_static_branches: 653,
            has_training_set: false,
        },
        Benchmark {
            name: "matrix300",
            kind: BenchmarkKind::FloatingPoint,
            paper_static_branches: 213,
            has_training_set: false,
        },
        Benchmark {
            name: "spice2g6",
            kind: BenchmarkKind::FloatingPoint,
            paper_static_branches: 606,
            has_training_set: true,
        },
        Benchmark {
            name: "tomcatv",
            kind: BenchmarkKind::FloatingPoint,
            paper_static_branches: 370,
            has_training_set: false,
        },
    ];

    /// Looks a benchmark up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<&'static Benchmark> {
        Benchmark::ALL.iter().find(|b| b.name == name)
    }

    /// The benchmarks of one category.
    pub fn of_kind(kind: BenchmarkKind) -> impl Iterator<Item = &'static Benchmark> {
        Benchmark::ALL.iter().filter(move |b| b.kind == kind)
    }

    /// The benchmark's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Integer or floating point.
    #[must_use]
    pub fn kind(&self) -> BenchmarkKind {
        self.kind
    }

    /// The static conditional-branch count the paper's Table 1 reports for
    /// the original benchmark (a scale reference for our stand-in).
    #[must_use]
    pub fn paper_static_branches(&self) -> usize {
        self.paper_static_branches
    }

    /// Whether Table 2 lists a training data set ("NA" entries return
    /// `false`); benchmarks without one are excluded from the
    /// profiled-scheme averages, as in the paper's Figure 11.
    #[must_use]
    pub fn has_training_set(&self) -> bool {
        self.has_training_set
    }

    /// Builds the benchmark's program for `data_set`.
    ///
    /// The instruction sequence (and hence every static branch address) is
    /// identical across data sets; only immediates differ.
    #[must_use]
    pub fn program(&self, data_set: DataSet) -> Program {
        match self.name {
            "eqntott" => eqntott::program(data_set),
            "espresso" => espresso::program(data_set),
            "gcc" => gcc::program(data_set),
            "li" => li::program(data_set),
            "doduc" => doduc::program(data_set),
            "fpppp" => fpppp::program(data_set),
            "matrix300" => matrix300::program(data_set),
            "spice2g6" => spice2g6::program(data_set),
            "tomcatv" => tomcatv::program(data_set),
            other => unreachable!("unknown benchmark {other}"),
        }
    }

    /// Runs the benchmark on the VM and returns its trace.
    ///
    /// # Panics
    ///
    /// Panics if the generated program faults — that would be a bug in the
    /// workload generator, not a user error.
    #[must_use]
    pub fn trace(&self, data_set: DataSet) -> Trace {
        let program = self.program(data_set);
        let mut vm = Vm::with_limits(program, Self::VM_MEMORY_WORDS, Self::VM_MAX_INSTRUCTIONS);
        vm.run().unwrap_or_else(|e| panic!("workload {} faulted: {e}", self.name));
        vm.into_trace()
    }

    /// A fingerprint of everything that determines this benchmark's trace
    /// for `data_set`: the ISA's semantics ([`SEMANTICS_DIGEST`], a digest
    /// of the instruction and VM sources), the VM limits, and the
    /// generated instruction sequence. Disk-cached trace artifacts and
    /// memoized daemon responses are keyed by it, so editing a workload
    /// generator, the VM budget or the VM itself invalidates the stale
    /// cache entries automatically instead of silently replaying an
    /// outdated trace.
    ///
    /// The hash folds each instruction's fixed-width [`Inst::encode`]
    /// words, so its cost is generating the program. `tlabp-sim`'s
    /// `TraceStore::fingerprint` computes it once per store slot.
    ///
    /// [`Inst::encode`]: tlabp_isa::Inst::encode
    #[must_use]
    pub fn fingerprint(&self, data_set: DataSet) -> u64 {
        fold_fingerprint(SEMANTICS_DIGEST, &self.program(data_set))
    }
}

/// The fold behind [`Benchmark::fingerprint`], over an explicit
/// semantics digest.
fn fold_fingerprint(semantics: u64, program: &Program) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let fold = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    let mut hash = fold(0, semantics);
    hash = fold(hash, Benchmark::VM_MEMORY_WORDS as u64);
    hash = fold(hash, Benchmark::VM_MAX_INSTRUCTIONS);
    for inst in program.instructions() {
        let [head, wide] = inst.encode();
        hash = fold(fold(hash, head), wide);
    }
    fold(hash, program.len() as u64)
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlabp_trace::stats::TraceSummary;

    #[test]
    fn registry_has_four_integer_five_fp() {
        assert_eq!(Benchmark::of_kind(BenchmarkKind::Integer).count(), 4);
        assert_eq!(Benchmark::of_kind(BenchmarkKind::FloatingPoint).count(), 5);
    }

    #[test]
    fn by_name_round_trips() {
        for b in &Benchmark::ALL {
            assert_eq!(Benchmark::by_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::by_name("nasa7"), None, "nasa7 is excluded, as in the paper");
    }

    #[test]
    fn table2_na_entries() {
        let no_training: Vec<&str> =
            Benchmark::ALL.iter().filter(|b| !b.has_training_set()).map(|b| b.name()).collect();
        assert_eq!(no_training, vec!["eqntott", "fpppp", "matrix300", "tomcatv"]);
    }

    /// Every benchmark must keep the same code layout across data sets so
    /// that profiling-based schemes see the same branch addresses.
    #[test]
    fn program_layout_identical_across_data_sets() {
        for b in &Benchmark::ALL {
            let train = b.program(DataSet::Training);
            let test = b.program(DataSet::Testing);
            assert_eq!(
                train.len(),
                test.len(),
                "{}: instruction counts differ between data sets",
                b.name()
            );
            for (i, (a, c)) in train.instructions().iter().zip(test.instructions()).enumerate() {
                assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(c),
                    "{}: instruction {i} changes shape across data sets",
                    b.name()
                );
            }
        }
    }

    /// Smoke-run every benchmark and sanity-check its trace against the
    /// paper's characterization (Section 4.1).
    #[test]
    fn all_benchmarks_run_and_look_reasonable() {
        let mut taken_rates = Vec::new();
        for b in &Benchmark::ALL {
            let trace = b.trace(DataSet::Testing);
            let summary = TraceSummary::from_trace(&trace);
            taken_rates.push(summary.taken_rate);
            assert!(
                summary.dynamic_conditional_branches >= 40_000,
                "{}: only {} dynamic conditional branches",
                b.name(),
                summary.dynamic_conditional_branches
            );
            // Static branch counts within a factor ~3 of Table 1.
            let target = b.paper_static_branches() as f64;
            let actual = summary.static_conditional_branches as f64;
            assert!(
                actual > target / 3.0 && actual < target * 3.0,
                "{}: {actual} static branches vs Table 1's {target}",
                b.name()
            );
            // No benchmark should be overwhelmingly not-taken.
            assert!(
                summary.taken_rate > 0.3,
                "{}: taken rate {} suspiciously low",
                b.name(),
                summary.taken_rate
            );
        }
        // "There are more taken branches than not taken branches according
        // to our simulation results" — holds in aggregate.
        let mean = taken_rates.iter().sum::<f64>() / taken_rates.len() as f64;
        assert!(mean > 0.5, "suite mean taken rate {mean} should exceed 0.5");
    }

    /// Fingerprints must separate programs (across benchmarks *and*
    /// across data sets, whose immediates differ) while staying stable
    /// for repeated builds of the same program.
    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for b in &Benchmark::ALL {
            for ds in [DataSet::Training, DataSet::Testing] {
                let fp = b.fingerprint(ds);
                assert_eq!(fp, b.fingerprint(ds), "{}: fingerprint not deterministic", b.name());
                assert!(seen.insert(fp), "{}/{ds:?}: fingerprint collides", b.name());
            }
        }
    }

    /// An edit to the VM or the instruction semantics changes the
    /// digest, and with it every fingerprint: the program alone must not
    /// decide the artifact name.
    #[test]
    fn fingerprint_folds_the_semantics_digest() {
        let li = Benchmark::by_name("li").unwrap();
        let program = li.program(DataSet::Testing);
        assert_eq!(li.fingerprint(DataSet::Testing), fold_fingerprint(SEMANTICS_DIGEST, &program));
        for flip in [1, 1 << 31, 1 << 63] {
            assert_ne!(
                fold_fingerprint(SEMANTICS_DIGEST ^ flip, &program),
                fold_fingerprint(SEMANTICS_DIGEST, &program),
                "digest bit {flip:#x} is not folded"
            );
        }
    }

    #[test]
    fn training_and_testing_traces_differ() {
        for b in Benchmark::ALL.iter().filter(|b| b.has_training_set()) {
            let train = b.trace(DataSet::Training);
            let test = b.trace(DataSet::Testing);
            assert_ne!(
                train.len(),
                test.len(),
                "{}: training and testing runs should not be identical",
                b.name()
            );
        }
    }
}
