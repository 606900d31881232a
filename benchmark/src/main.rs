//! The repository benchmark. See `README.md` for the workloads, the
//! metrics and how to compare two commits.

mod capture;
mod compare;
mod heap;
mod json;
mod paper;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use spans::Tracer;
use stats::Outcomes;

#[global_allocator]
static ALLOCATOR: heap::CountingAlloc = heap::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: u64 = 5;

/// Measured seconds per workload run when `--seconds` is not given
/// (`BENCHMARK.json`'s `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Failed checks printed before the rest are only counted.
const MAX_FAILURES_SHOWN: usize = 8;

const USAGE: &str = "\
usage: tlabp-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--out <dir>]
       tlabp-benchmark run --seed <n> --out <dir> [--seconds <s>] [--trace]
       tlabp-benchmark compare <parent run files...> -- <change run files...>
Run from the repository root: scratch files go to .bench_work/ and are removed on exit.";

/// A workload: its name, why it exists, what one unit of its work is,
/// and the function that runs it.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub work_unit: &'static str,
    run: fn(&Ctx<'_>) -> Result<Measured, String>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-warm",
        why: "regenerating the paper: the 1143 planned jobs of every paper artifact through \
              every engine path on a warm in-memory store",
        work_unit: "predictions",
        run: paper::paper_warm,
    },
    Workload {
        name: "cold-start",
        why: "the first run after a clean checkout: trace ingest into an empty disk cache, \
              then restarts that hydrate every form from it",
        work_unit: "artifact bytes",
        run: paper::cold_start,
    },
    Workload {
        name: "serve-memo",
        why: "the daemon under one closed-loop socket client repeating plans it has seen: \
              every answer comes from the memo through the event core and protocol",
        work_unit: "plans",
        run: serve::serve_memo,
    },
    Workload {
        name: "serve-fresh",
        why: "the daemon under two closed-loop socket clients sending plans it has not seen: \
              every plan is simulated, then written to both memo tiers",
        work_unit: "plans",
        run: serve::serve_fresh,
    },
    Workload {
        name: "import-replay",
        why: "external captures: TLBE import, artifact write and read, derivation and \
              streamed replay in a bounded window; no engine or daemon",
        work_unit: "capture events",
        run: capture::import_replay,
    },
];

/// What a workload function gets: its inputs' seed, how long to
/// measure, the tracer and a scratch directory inside the checkout.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
    pub dir: &'a Path,
}

impl Ctx<'_> {
    /// Starts the measured phase: the heap peak restarts from what is
    /// live now (set-up is timed, but its memory is not the operations'),
    /// and the returned instant is when the phase ends.
    pub fn start_measuring(&self) -> Instant {
        heap::reset_peak();
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, in seconds.
    pub ops: Outcomes,
    /// Live-heap peak of the measured phase, in MiB.
    pub peak_heap_mb: f64,
    /// Work units the successful operations completed, and the seconds
    /// they took.
    pub work: f64,
    pub work_s: f64,
    /// Work per second in each slice of the measuring window, where a
    /// workload counts its rate that way; `work_per_s` is then their
    /// median instead of `work ÷ work_s`.
    pub slice_rates: Vec<f64>,
    /// Why operations failed, for the log.
    pub failures: Vec<String>,
    /// Workload-specific per-layer values (ratios, byte counts).
    pub layers: Vec<(&'static str, f64)>,
}

impl Measured {
    /// Ends the measured phase: records its heap peak before anything
    /// the traced run adds afterwards (probes) can raise it.
    pub fn end_measuring(&mut self) {
        self.peak_heap_mb = heap::peak_mb();
    }
}

/// 64-bit FNV-1a over bytes (or, folding one word per step, over wider
/// words): the digest the benchmark pins results with.
pub fn fnv1a<T: Into<u64>>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, item| {
        (hash ^ item.into()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: the benchmark's own generator, so the inputs a seed
/// makes do not change when the library's generator does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => run_workload(&args),
        None => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::FAILURE
    })
}

/// `--name value` options; a bare `--name` maps to `""`.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let name = arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        if !known.contains(&name) {
            return Err(format!("unknown option --{name}\n{USAGE}"));
        }
        let value = iter.next_if(|next| !next.starts_with("--")).cloned().unwrap_or_default();
        flags.push((name.to_owned(), value));
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

fn number<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    flag(flags, name)
        .map(|raw| raw.parse::<T>().map_err(|_| format!("--{name} {raw:?} is not a valid number")))
        .transpose()
}

fn seconds_flag(flags: &[(String, String)]) -> Result<f64, String> {
    let seconds = number::<f64>(flags, "seconds")?.unwrap_or(DEFAULT_SECONDS);
    if seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside (0, 600]"))
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared with concurrent runs: removed only once
        // empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload in this process and prints its result as the last
/// line of standard output.
fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let name =
        flag(&flags, "workload").ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (workloads: {})", names.join(", "))
    })?;
    let seed = number::<u64>(&flags, "seed")?.ok_or("--seed is required")?;
    let seconds = seconds_flag(&flags)?;
    let traced = match flag(&flags, "trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };

    let scratch =
        ScratchDir(Path::new(".bench_work").join(format!("{name}-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    let tracer = Tracer::new(traced);
    let measured = (workload.run)(&Ctx { seed, seconds, tracer: &tracer, dir: &scratch.0 })?;
    drop(scratch);

    for failure in measured.failures.iter().take(MAX_FAILURES_SHOWN) {
        eprintln!("check failed: {failure}");
    }
    if measured.failures.len() > MAX_FAILURES_SHOWN {
        eprintln!("... and {} more failed checks", measured.failures.len() - MAX_FAILURES_SHOWN);
    }
    let e2e = report::end_to_end(&measured)?;
    let mut detail = report::detail(workload, &measured, seed, seconds);
    println!("{name}: {}", workload.why);
    report::print_metrics(&e2e);
    let metrics = if traced {
        // The traced run's own end-to-end numbers stay in the detail
        // record: their difference from an untraced run is the tracing
        // overhead.
        if let Json::Obj(fields) = &mut detail {
            fields.push(("traced_end_to_end".to_owned(), e2e));
        }
        let per_layer = report::per_layer(&measured, &tracer);
        report::print_metrics(&per_layer);
        if let Some(out) = flag(&flags, "out") {
            let path = Path::new(out).join(format!("spans-{name}.json"));
            std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;
            std::fs::write(&path, tracer.spans_json().render() + "\n")
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        per_layer
    } else {
        e2e
    };
    println!("detail {}", detail.render());

    let correct = measured.ops.failed == 0 && measured.ops.attempted() > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(measured.ops.attempted() as f64)),
        ("failed", Json::Num(measured.ops.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `run`: every workload in a child process of its own (so the memory
/// peak is per workload), untraced and, with `--trace`, again traced;
/// writes `<out>/run-<seed>.json` and exits non-zero if any check
/// failed.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["seed", "seconds", "trace", "out"])?;
    let seed = number::<u64>(&flags, "seed")?.ok_or("--seed is required")?;
    let seconds = seconds_flag(&flags)?;
    let out = PathBuf::from(flag(&flags, "out").ok_or("--out is required")?);
    let modes: &[&str] = if flag(&flags, "trace").is_some() { &["0", "1"] } else { &["0"] };
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;

    let mut all_correct = true;
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for workload in &WORKLOADS {
        let mut entry: Vec<(String, Json)> = Vec::new();
        for &mode in modes {
            let output = Command::new(&exe)
                .args(["--workload", workload.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", mode])
                .arg("--out")
                .arg(&out)
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start the {} run: {e}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in lines.iter().filter(|line| !line.starts_with("detail ")) {
                println!("{line}");
            }
            let result = Json::parse(last).map_err(|e| {
                format!("the {} run printed no result ({e}); {}", workload.name, output.status)
            })?;
            all_correct &= output.status.success();
            let detail = lines
                .iter()
                .find_map(|line| line.strip_prefix("detail "))
                .and_then(|text| Json::parse(text).ok())
                .unwrap_or(Json::Null);
            let key = if mode == "1" { "traced" } else { "untraced" };
            entry.push((key.to_owned(), result));
            entry.push((format!("{key}_detail"), detail));
        }
        workloads.push((workload.name.to_owned(), Json::Obj(entry)));
    }
    let document = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out.join(format!("run-{seed}.json"));
    std::fs::write(&path, document.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[wrote {}]", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
