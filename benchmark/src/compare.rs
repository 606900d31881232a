//! `compare <parent runs...> -- <change runs...>`: the decision rule for
//! a change that claims a gain, per (workload, metric), with the bounds
//! `BENCHMARK.json` fixes.
//!
//! - **gain**: the change wins at least nine tenths of the pairs (the
//!   i-th parent run against the i-th change run; ties count for
//!   neither) and the medians differ by more than the parent runs'
//!   interquartile range;
//! - **regression**: the change's median is worse than the parent's by
//!   more than the bound;
//! - **unresolved**: either side's spread (IQR ÷ median) is wider than
//!   the bound, unless every change run reads better than every parent
//!   run;
//! - **unchanged**: anything else.
//!
//! A gain does not count when the change fails more operations than the
//! parent.

use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{median, quartiles, spread};

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared_metrics(text: &str) -> Result<Vec<Declared>, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("an end_to_end metric lacks {key:?}"));
            Ok(Declared {
                name: field("name")?.as_str().ok_or("name must be a string")?.to_owned(),
                unit: field("unit")?.as_str().ok_or("unit must be a string")?.to_owned(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound must be a number")?,
            })
        })
        .collect()
}

/// Per workload, per run: the untraced result object.
fn load_runs(paths: &[String]) -> Result<Vec<Json>, String> {
    paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn workload_names(runs: &[Json]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in runs {
        for (name, _) in run.get("workloads").and_then(Json::as_obj).unwrap_or_default() {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names
}

fn result<'a>(run: &'a Json, workload: &str) -> Option<&'a Json> {
    run.get("workloads")?.get(workload)?.get("untraced")
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            result(run, workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

fn failures(runs: &[Json], workload: &str) -> f64 {
    runs.iter().filter_map(|run| result(run, workload)?.get("failed")?.as_f64()).sum()
}

/// The verdict for one (workload, metric) and the pairs the change won.
fn verdict(
    parent: &[f64],
    change: &[f64],
    metric: &Declared,
    more_failures: bool,
) -> (&'static str, usize) {
    let better = |a: f64, b: f64| if metric.lower_is_better { a < b } else { a > b };
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better(c, p)).count();
    let pairs = parent.len().min(change.len());
    let (med_p, med_c) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    let worse_by = if metric.lower_is_better { med_c - med_p } else { med_p - med_c } / med_p.abs();
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if worse_by > metric.bound {
        "regression"
    } else if !more_failures
        && 10 * wins >= 9 * pairs
        && better(med_c, med_p)
        && (med_c - med_p).abs() > q3 - q1
    {
        "gain"
    } else if spread(parent).max(spread(change)) > metric.bound && !all_better {
        "unresolved"
    } else {
        "unchanged"
    };
    (verdict, wins)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: compare <parent runs...> -- <change runs...>")?;
    let (parent, change) = (load_runs(&args[..split])?, load_runs(&args[split + 1..])?);
    if parent.len() < 2 || change.len() < 2 {
        return Err("compare needs at least two runs on each side".to_owned());
    }
    let metrics =
        declared_metrics(&std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read BENCHMARK.json (run from the repository root): {e}")
        })?)?;
    let mut regressed = false;
    println!(
        "{:<14} {:<14} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
    );
    for workload in workload_names(&parent) {
        let more_failures = failures(&change, &workload) > failures(&parent, &workload);
        if more_failures {
            println!("{workload:<14} the change fails more operations than the parent");
            regressed = true;
        }
        for metric in &metrics {
            let (p, c) = (
                values(&parent, &workload, &metric.name),
                values(&change, &workload, &metric.name),
            );
            if p.len() < 2 || c.len() < 2 {
                println!("{workload:<14} {:<14} missing from some runs", metric.name);
                continue;
            }
            let (verdict, wins) = verdict(&p, &c, metric, more_failures);
            regressed |= verdict == "regression";
            let number =
                |v: f64| if v.abs() >= 1e4 { format!("{v:.0}") } else { format!("{v:.4}") };
            let show = |v: &[f64]| {
                let [q1, _, q3] = quartiles(v);
                let (m, q1, q3) = (number(median(v)), number(q1), number(q3));
                format!("{m} [{q1}, {q3}] {}", metric.unit)
            };
            println!(
                "{workload:<14} {:<14} {:>38} {:>38} {:>+7.2}% {:>3}/{:<2}  {verdict}",
                metric.name,
                show(&p),
                show(&c),
                100.0 * (median(&c) - median(&p)) / median(&p),
                wins,
                p.len().min(c.len()),
            );
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared { name: "t".into(), unit: "s".into(), lower_is_better: true, bound }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&parent, &faster, &lower(0.1), false), ("gain", 10));
        assert_eq!(verdict(&parent, &slower, &lower(0.1), false).0, "regression");
        assert_eq!(verdict(&parent, &parent, &lower(0.1), false).0, "unchanged");
        assert_eq!(
            verdict(&parent, &faster, &lower(0.1), true).0,
            "unchanged",
            "more failures void a gain"
        );
        let noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 10.0, 7.0, 13.0, 9.0, 11.0];
        assert_eq!(verdict(&noisy, &noisy, &lower(0.1), false).0, "unresolved");
    }
}
