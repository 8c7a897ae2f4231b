//! `perf compare A.json B.json`: is run set B worse than run set A?
//!
//! One row per (end-to-end metric, workload) with both medians and
//! quartiles, the relative difference, and a verdict against the bound
//! `BENCHMARK.json` fixes for the metric:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — it is not, but either set's own spread (the distance
//!   between its quartiles over its median) is wider than the bound, so
//!   "no change" cannot be told from noise;
//! * `within` — otherwise.
//!
//! Welch's t-test (the paper's §IV-C method, from `neptune-stats`) is
//! printed beside each row for information. Exit status 1 on any `worse`.

use neptune_core::json::{self, JsonValue};
use neptune_stats::{welch_t_test, Tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A metric's declared direction and regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Declared {
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics of a `BENCHMARK.json` document.
pub fn declared_end_to_end(doc: &JsonValue) -> Result<BTreeMap<String, Declared>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name =
                m.get("name").and_then(|v| v.as_str()).ok_or("end_to_end entry without a name")?;
            let better = m
                .get("better")
                .and_then(|v| v.as_str())
                .ok_or("end_to_end entry without better")?;
            let bound =
                m.get("bound").and_then(|v| v.as_f64()).ok_or("end_to_end entry without bound")?;
            Ok((name.to_string(), Declared { higher_is_better: better == "higher", bound }))
        })
        .collect()
}

/// `BENCHMARK.json`, from the given path, the working directory, or the
/// repository root above this package.
pub fn load_benchmark(path: Option<&Path>) -> Result<JsonValue, String> {
    let candidates: Vec<PathBuf> = match path {
        Some(p) => vec![p.to_path_buf()],
        None => vec![
            PathBuf::from("BENCHMARK.json"),
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ],
    };
    for candidate in &candidates {
        if let Ok(text) = std::fs::read_to_string(candidate) {
            return json::parse(&text).map_err(|e| format!("{}: {e}", candidate.display()));
        }
    }
    Err(format!("BENCHMARK.json not found (tried {candidates:?})"))
}

/// `(workload, metric) → values`, from a file `perf run --out` wrote.
fn load_set(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc.get("runs").and_then(|v| v.as_array()).ok_or(format!("{path}: no runs"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or(format!("{path}: run without workload"))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.as_object())
            .ok_or(format!("{path}: run without metrics"))?;
        for (name, entry) in metrics {
            if let Some(v) = entry.get("value").and_then(|v| v.as_f64()) {
                values.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(values)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's method);
/// a single value is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let at = |k: usize| {
        // Exclusive method: cut point k of 4 sits at k(n+1)/4, between the
        // neighbours j and j+1 — with j clamped into the data, so the
        // outer quartiles of a tiny sample extrapolate, as Python's do.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Share by which `candidate` is worse than `baseline` (negative when it
/// is better).
fn worsening(baseline: f64, candidate: f64, higher_is_better: bool) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    let change = (candidate - baseline) / baseline.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// The verdict on one (metric, workload) pair.
pub fn verdict(a: &[f64], b: &[f64], declared: Declared) -> &'static str {
    let (a1, a2, a3) = quartiles(a);
    let (b1, b2, b3) = quartiles(b);
    let spread = |q1: f64, q2: f64, q3: f64| if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
    if worsening(a2, b2, declared.higher_is_better) > declared.bound {
        "worse"
    } else if spread(a1, a2, a3) > declared.bound || spread(b1, b2, b3) > declared.bound {
        "unresolved"
    } else {
        "within"
    }
}

/// Entry point of `perf compare`.
pub fn main(files: &[String], benchmark: Option<&Path>) -> Result<ExitCode, String> {
    let [a_path, b_path] = files else {
        return Err("usage: perf compare A.json B.json [--benchmark BENCHMARK.json]".into());
    };
    let declared = declared_end_to_end(&load_benchmark(benchmark)?)?;
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    println!(
        "{:<18} {:<20} {:>12} {:>23} {:>12} {:>23} {:>8} {:>6} {:>8}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "worse by",
        "bound",
        "Welch p"
    );
    let mut any_worse = false;
    for ((workload, metric), a_values) in &a {
        let (Some(b_values), Some(&declared)) =
            (b.get(&(workload.clone(), metric.clone())), declared.get(metric))
        else {
            continue;
        };
        let (a1, a2, a3) = quartiles(a_values);
        let (b1, b2, b3) = quartiles(b_values);
        let p = if a_values.len() >= 2 && b_values.len() >= 2 {
            format!("{:.3}", welch_t_test(a_values, b_values, Tail::TwoSided).p_value)
        } else {
            "-".to_string()
        };
        let verdict = verdict(a_values, b_values, declared);
        any_worse |= verdict == "worse";
        println!(
            "{workload:<18} {metric:<20} {a2:>12.4} {:>23} {b2:>12.4} {:>23} {:>+7.1}% {:>5.0}% {p:>8}  {verdict}",
            format!("[{a1:.4}, {a3:.4}]"),
            format!("[{b1:.4}, {b3:.4}]"),
            worsening(a2, b2, declared.higher_is_better) * 100.0,
            declared.bound * 100.0,
        );
    }
    Ok(if any_worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = Declared { higher_is_better: false, bound: 0.10 };
        let higher = Declared { higher_is_better: true, bound: 0.10 };
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict(&steady, &[104.0, 105.0, 103.0, 104.5], lower), "within");
        assert_eq!(verdict(&steady, &[115.0, 116.0, 114.0, 115.5], lower), "worse");
        assert_eq!(verdict(&steady, &[115.0, 116.0, 114.0, 115.5], higher), "within");
        assert_eq!(verdict(&steady, &[85.0, 86.0, 84.0, 85.5], higher), "worse");
        assert_eq!(verdict(&steady, &[80.0, 120.0, 95.0, 105.0], lower), "unresolved");
    }
}
