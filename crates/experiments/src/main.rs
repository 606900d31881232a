//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <artifact> [--out DIR]
//! experiments plan <artifact> [--out DIR]     # serialize the artifact's Plan
//! experiments exec <plan.json> [--out DIR]    # execute a serialized Plan in-process
//! experiments serve                           # run the sweep daemon (TLABP_SERVE_ADDR)
//! experiments client <plan.json> [--out DIR]  # submit a Plan to a running daemon
//! experiments import [capture.tlbe] [--out DIR]  # ingest an external trace capture
//! ```
//!
//! Run `experiments --help` for the artifact list — it is generated from
//! the single [`ARTIFACTS`] registry, which is the only place an
//! artifact's name, description, runner and (where it has one)
//! serializable plan are declared. `all` iterates the same registry
//! (skipping `calibrate`, the one artifact marked as not part of the
//! paper reproduction).
//!
//! Each artifact prints an ASCII table and writes `results/<name>.csv`.
//! `plan`/`exec`/`client` instead exchange the engine's canonical JSON
//! wire forms, so a result produced by the daemon can be diffed
//! bit-for-bit against an in-process execution of the same plan.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

mod ablations;
mod analysis;
mod fetch;
mod figures;
mod tables;

/// Shared experiment context: the trace cache and the output directory.
pub struct Ctx {
    store: tlabp_sim::TraceStore,
    out_dir: PathBuf,
}

impl Ctx {
    fn new(out_dir: PathBuf) -> Self {
        // Drivers persist trace artifacts across processes by default
        // (TLABP_TRACE_DIR overrides the directory; set it empty to
        // disable): the first run after a clean checkout pays for VM
        // generation and derivation once, every later driver hydrates
        // from disk.
        Ctx { store: tlabp_sim::TraceStore::persistent(), out_dir }
    }

    /// The shared trace cache.
    pub fn store(&self) -> &tlabp_sim::TraceStore {
        &self.store
    }

    /// Executes a plan on the session-oriented streaming core — the one
    /// execution path every driver shares (and the same path the sweep
    /// daemon runs per connection).
    pub fn run(&self, plan: &tlabp_sim::Plan) -> tlabp_sim::ResultSet {
        tlabp_sim::Session::new(self.store.clone()).run(plan)
    }

    /// Prints the table under a heading and writes `<name>.csv`.
    pub fn emit(&self, name: &str, title: &str, table: &tlabp_sim::report::Table) {
        println!("== {title} ==");
        println!("{}", table.to_ascii());
        if let Err(e) = fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{name}.csv"));
        match fs::write(&path, table.to_csv()) {
            Ok(()) => println!("[wrote {}]\n", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// One registered artifact: its CLI name, a one-line description for the
/// usage text, the runner, the serializable plan behind the runner (for
/// the artifacts whose work is one engine plan), and whether `all`
/// includes it.
struct Artifact {
    name: &'static str,
    description: &'static str,
    run: fn(&Ctx),
    /// The plan the runner executes, for `experiments plan <name>`.
    /// `None` for artifacts that do no simulation (tables 1-3, fig4,
    /// costs) or that build registry state per variant inline
    /// (ablations).
    plan: Option<fn() -> tlabp_sim::Plan>,
    /// `false` for helper artifacts outside the paper reproduction
    /// (calibration); `all` skips those.
    in_all: bool,
}

const fn artifact(name: &'static str, description: &'static str, run: fn(&Ctx)) -> Artifact {
    Artifact { name, description, run, plan: None, in_all: true }
}

const fn planned(
    name: &'static str,
    description: &'static str,
    run: fn(&Ctx),
    plan: fn() -> tlabp_sim::Plan,
) -> Artifact {
    Artifact { name, description, run, plan: Some(plan), in_all: true }
}

const fn helper(name: &'static str, description: &'static str, run: fn(&Ctx)) -> Artifact {
    Artifact { name, description, run, plan: None, in_all: false }
}

/// The single registry every dispatch path reads: lookup by name, the
/// `all` iteration, `plan` lookup and the usage text all come from this
/// table.
const ARTIFACTS: [Artifact; 18] = [
    artifact("table1", "static conditional branches per benchmark (Table 1)", tables::table1),
    artifact("table2", "training/testing data sets (Table 2)", tables::table2),
    artifact("table3", "simulated predictor configurations (Table 3)", tables::table3),
    artifact("fig4", "distribution of dynamic branch classes (Figure 4)", figures::fig4),
    planned(
        "fig5",
        "PAg with automata LT/A1/A2/A3/A4 (Figure 5)",
        figures::fig5,
        figures::fig5_plan,
    ),
    planned(
        "fig6",
        "GAg vs PAg vs PAp at equal history length (Figure 6)",
        figures::fig6,
        figures::fig6_plan,
    ),
    planned("fig7", "GAg history-length sweep (Figure 7)", figures::fig7, figures::fig7_plan),
    planned(
        "fig8",
        "the ~97% configurations and their hardware costs (Figure 8)",
        figures::fig8,
        figures::fig8_plan,
    ),
    planned("fig9", "context-switch effect (Figure 9)", figures::fig9, figures::fig9_plan),
    planned(
        "fig10",
        "BHT implementation effect on PAg (Figure 10)",
        figures::fig10,
        figures::fig10_plan,
    ),
    planned(
        "fig11",
        "comparison of all prediction schemes (Figure 11)",
        figures::fig11,
        figures::fig11_plan,
    ),
    artifact("costs", "cost-model curves (Equations 4-6)", tables::costs),
    artifact(
        "ablations",
        "design-choice ablations (speculative history, PHT flush)",
        ablations::ablations,
    ),
    planned(
        "extensions",
        "gshare vs GAg (beyond the paper)",
        figures::extensions,
        figures::extensions_plan,
    ),
    planned(
        "analysis",
        "misprediction characterization (\"examining that 3 percent\")",
        analysis::analysis,
        analysis::analysis_plan,
    ),
    planned(
        "fetch",
        "Section 3.2 fetch-path outcomes with target caching",
        fetch::fetch,
        fetch::fetch_plan,
    ),
    planned(
        "grid",
        "automaton x history-width x scheme accuracy grid (beyond the paper)",
        tables::grid,
        tables::grid_plan,
    ),
    helper("calibrate", "quick accuracy readout for reference schemes", figures::calibrate),
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') && positional.len() < 2 => {
                positional.push(name.to_owned());
            }
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(command) = positional.first().cloned() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let operand = positional.get(1).cloned();

    match command.as_str() {
        "plan" => return cmd_plan(operand.as_deref(), &out_dir),
        "exec" => return cmd_exec(operand.as_deref(), &out_dir),
        "serve" => return cmd_serve(),
        "client" => return cmd_client(operand.as_deref(), &out_dir),
        "import" => return cmd_import(operand.as_deref(), &out_dir),
        _ => {}
    }
    if let Some(extra) = operand {
        eprintln!("unexpected argument {extra:?}");
        return ExitCode::FAILURE;
    }

    let ctx = Ctx::new(out_dir);
    if command == "all" {
        for entry in ARTIFACTS.iter().filter(|a| a.in_all) {
            println!(">>> {}", entry.name);
            (entry.run)(&ctx);
        }
        return ExitCode::SUCCESS;
    }
    match ARTIFACTS.iter().find(|a| a.name == command) {
        Some(entry) => {
            (entry.run)(&ctx);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown artifact {command:?}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

/// `experiments plan <artifact>`: serialize the artifact's plan to
/// `<out>/<artifact>.plan.json` in the canonical wire form.
fn cmd_plan(name: Option<&str>, out_dir: &Path) -> ExitCode {
    let Some(name) = name else {
        eprintln!("usage: experiments plan <artifact> [--out DIR]");
        return ExitCode::FAILURE;
    };
    let Some(entry) = ARTIFACTS.iter().find(|a| a.name == name) else {
        eprintln!("unknown artifact {name:?}");
        return ExitCode::FAILURE;
    };
    let Some(make_plan) = entry.plan else {
        eprintln!("artifact {name:?} has no serializable plan (it does no engine work)");
        return ExitCode::FAILURE;
    };
    let plan = make_plan();
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let path = out_dir.join(format!("{name}.plan.json"));
    let mut text = plan.to_json_string();
    text.push('\n');
    match fs::write(&path, text) {
        Ok(()) => {
            println!(
                "[wrote {} ({} jobs, hash {})]",
                path.display(),
                plan.len(),
                plan.wire_hash_hex()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Reads and decodes a serialized plan file.
fn load_plan(path: &str) -> Result<tlabp_sim::Plan, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    tlabp_sim::Plan::from_json_str(text.trim_end())
        .map_err(|e| format!("cannot decode {path}: {e}"))
}

/// Output path for the results of the plan file at `input`:
/// `<out>/<stem>.results.json` where `<stem>` drops a trailing
/// `.plan.json` (or any single extension).
fn results_path(input: &str, out_dir: &Path) -> PathBuf {
    let file_name = Path::new(input).file_name().and_then(|n| n.to_str()).unwrap_or(input);
    let stem = file_name
        .strip_suffix(".plan.json")
        .or_else(|| file_name.rsplit_once('.').map(|(stem, _)| stem))
        .unwrap_or(file_name);
    out_dir.join(format!("{stem}.results.json"))
}

fn write_results(path: &Path, results: &tlabp_sim::ResultSet) -> ExitCode {
    if let Some(parent) = path.parent() {
        if let Err(e) = fs::create_dir_all(parent) {
            eprintln!("cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    let mut text = results.to_json_string();
    text.push('\n');
    match fs::write(path, text) {
        Ok(()) => {
            println!("[wrote {}]", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// `experiments exec <plan.json>`: execute a serialized plan in-process
/// on the session core and write the canonical result JSON. The
/// reference half of the service smoke test: `client` output must be
/// byte-identical to this.
fn cmd_exec(input: Option<&str>, out_dir: &Path) -> ExitCode {
    let Some(input) = input else {
        eprintln!("usage: experiments exec <plan.json> [--out DIR]");
        return ExitCode::FAILURE;
    };
    figures::register_custom_predictors();
    let plan = match load_plan(input) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx::new(out_dir.to_path_buf());
    let results = ctx.run(&plan);
    write_results(&results_path(input, out_dir), &results)
}

/// `experiments serve`: run the sweep daemon per `TLABP_SERVE_ADDR` /
/// `TLABP_SERVE_INFLIGHT` / `TLABP_SERVE_MEMO_BYTES` /
/// `TLABP_SERVE_MEMO_DIR` / `TLABP_SERVE_MEMO_DISK_BYTES`, sharing one
/// warm trace store and the global worker pool across every connection.
/// The daemon needs a unix host.
fn cmd_serve() -> ExitCode {
    figures::register_custom_predictors();
    let config = tlabp_service::ServeConfig::from_env();
    let store = tlabp_sim::TraceStore::persistent();
    match tlabp_service::serve(&config, store, tlabp_sim::ExecOptions::default()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot serve on {}: {e}", config.addr);
            ExitCode::FAILURE
        }
    }
}

/// `experiments client <plan.json>`: submit a serialized plan to the
/// daemon at `TLABP_SERVE_ADDR` and write the streamed results as the
/// same canonical JSON `exec` writes.
fn cmd_client(input: Option<&str>, out_dir: &Path) -> ExitCode {
    let Some(input) = input else {
        eprintln!("usage: experiments client <plan.json> [--out DIR]");
        return ExitCode::FAILURE;
    };
    let plan = match load_plan(input) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = env::var(tlabp_service::SERVE_ADDR_ENV)
        .unwrap_or_else(|_| tlabp_service::DEFAULT_SERVE_ADDR.to_owned());
    let mut client = match tlabp_service::Client::connect_with_retry(&addr, Duration::from_secs(10))
    {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.execute(&plan) {
        Ok((results, done)) => {
            println!(
                "[{} jobs streamed from {addr}{}]",
                done.jobs,
                if done.memo { ", memoized" } else { "" }
            );
            write_results(&results_path(input, out_dir), &results)
        }
        Err(e) => {
            eprintln!("sweep service error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `experiments import [capture.tlbe]`: decode an external TLBE
/// execution-trace capture and persist it as a v3 chunked artifact named
/// by the capture's content fingerprint — into the persistent trace
/// cache (`TLABP_TRACE_DIR`) when one is configured, else `--out`.
/// Without an operand a small built-in loop-nest capture is encoded and
/// imported instead, so the pipeline can be exercised end-to-end with no
/// external tracer.
///
/// The import is deterministic (re-importing the same capture yields the
/// identical artifact bytes — re-verified on every run), which is what
/// makes imported workloads cacheable in the disk tier and memoizable
/// through the sweep service. The summary replays the imported trace
/// through PAg(8) as a smoke check that the decoded branch stream is
/// simulate-ready.
fn cmd_import(input: Option<&str>, out_dir: &Path) -> ExitCode {
    use tlabp_trace::import::{import_artifacts, write_etrace};
    use tlabp_trace::io::{read_artifacts, write_file_atomic, DEFAULT_CHUNK_BYTES};

    let (bytes, label) = match input {
        Some(path) => match fs::read(path) {
            Ok(bytes) => (bytes, path.to_owned()),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let demo = tlabp_trace::synth::LoopNest::new(&[41, 23, 7]).generate();
            (write_etrace(&demo), "built-in demo capture".to_owned())
        }
    };

    let (fingerprint, artifact) = match import_artifacts(&bytes, DEFAULT_CHUNK_BYTES) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("cannot import {label}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let again =
        import_artifacts(&bytes, DEFAULT_CHUNK_BYTES).expect("a decodable capture stays decodable");
    assert_eq!(again.1, artifact, "import must be deterministic for the same capture bytes");

    let store = tlabp_sim::TraceStore::persistent();
    let dir = store.cache_dir().map_or_else(|| out_dir.to_path_buf(), Path::to_path_buf);
    let path = dir.join(format!("import-{fingerprint:016x}.tlabp"));
    if let Err(e) = write_file_atomic(&path, &artifact) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    let bundle = read_artifacts(&artifact).expect("a just-encoded artifact decodes");
    let trace = bundle.trace.as_ref().expect("import always serializes the trace");
    let interned = bundle.interned.as_ref().expect("import always serializes the interned form");
    println!(
        "[imported {label}: {} capture bytes -> {} artifact bytes]",
        bytes.len(),
        artifact.len()
    );
    println!(
        "[{} trace events, {} conditional branches, {} static branch sites]",
        trace.len(),
        interned.len(),
        interned.distinct_pcs()
    );
    println!("[wrote {} (fingerprint {fingerprint:016x})]", path.display());

    // Replay smoke check: derive a first-level stream from the imported
    // interned form and run one small scheme over it.
    let config = tlabp_core::config::SchemeConfig::pag(8);
    let key = tlabp_sim::replay_stream_key(config).expect("PAg(8) replays");
    let stream = tlabp_sim::derive_pattern_stream(interned, key);
    let predictors = vec![config.build_any().expect("untrained PAg builds")];
    let sims = tlabp_sim::simulate_replay_transposed(
        &predictors,
        &stream,
        tlabp_core::SimdMode::from_env(),
    )
    .expect("PAg replays");
    let sim = &sims[0];
    if sim.predictions > 0 {
        println!(
            "[replay smoke check: PAg(8) predicted {}/{} ({:.2}%)]",
            sim.correct,
            sim.predictions,
            sim.correct as f64 / sim.predictions as f64 * 100.0
        );
    } else {
        println!("[replay smoke check: capture has no conditional branches to predict]");
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    println!("usage: experiments <artifact> [--out DIR]");
    println!("       experiments plan <artifact> [--out DIR]");
    println!("       experiments exec <plan.json> [--out DIR]");
    println!("       experiments serve");
    println!("       experiments client <plan.json> [--out DIR]");
    println!("       experiments import [capture.tlbe] [--out DIR]");
    println!("artifacts:");
    let width = ARTIFACTS.iter().map(|a| a.name.len()).max().unwrap_or(0);
    for entry in &ARTIFACTS {
        let suffix = if entry.in_all { "" } else { " [not in `all`]" };
        println!("  {:width$}  {}{suffix}", entry.name, entry.description);
    }
    println!("  {:width$}  every artifact above marked as part of the reproduction", "all");
    println!(
        "\nThe daemon commands honor TLABP_SERVE_ADDR (default {});",
        tlabp_service::DEFAULT_SERVE_ADDR
    );
    println!(
        "`serve` (unix hosts only) additionally honors TLABP_SERVE_INFLIGHT,\n\
         TLABP_SERVE_MEMO_BYTES, TLABP_SERVE_MEMO_DIR and TLABP_SERVE_MEMO_DISK_BYTES."
    );
    println!(
        "`import` decodes a TLBE execution-trace capture (or a built-in demo when no\n\
         file is given) into a v3 chunked artifact named by its content fingerprint,\n\
         honoring TLABP_TRACE_DIR."
    );
}
