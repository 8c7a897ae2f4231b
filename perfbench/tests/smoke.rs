//! Every workload, both modes, with one-second phases: the names that come
//! out are exactly the ones `BENCHMARK.json` declares, every value is a
//! finite number, and nothing was lost, duplicated, reordered or computed
//! wrong. One test, one workload at a time: the paced phases offer about
//! half of what two cores sustain, so two of them side by side would fail
//! for lack of CPU, not for lack of correctness.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use neptune_core::json::{self, JsonValue};
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &JsonValue, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|e| e.get("name").and_then(|n| n.as_str()).expect("entry has a name").to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_keeps_to_its_contract() {
    let doc = benchmark();
    let keys: BTreeSet<&str> =
        doc.as_object().expect("object").keys().map(String::as_str).collect();
    let expected = ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"];
    assert_eq!(keys, BTreeSet::from(expected));
    let (workloads, e2e, layers) =
        (names(&doc, "workloads"), names(&doc, "end_to_end"), names(&doc, "per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()) && e2e.contains(&"setup_s".to_string()));
    assert!((1..=128).contains(&layers.len()));
    let all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used twice");
    assert!(all.iter().all(|n| valid_name(n)));
    for metric in doc.get("end_to_end").and_then(|v| v.as_array()).expect("list") {
        let bound = metric.get("bound").and_then(|b| b.as_f64()).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let seconds = doc.get("run_seconds").and_then(|v| v.as_u64()).expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

/// Run one workload in the driver's form and return its result line.
fn run(workload: &str, trace: bool) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "2", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}\n{stderr}",
        output.status.code()
    );
    let last = stdout.lines().last().unwrap_or_else(|| panic!("{workload}: no output\n{stderr}"));
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_fails_nothing() {
    let doc = benchmark();
    for workload in names(&doc, "workloads") {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(&workload, trace);
            let keys: BTreeSet<&str> =
                result.as_object().expect("object").keys().map(String::as_str).collect();
            assert_eq!(keys, BTreeSet::from(["attempted", "correct", "failed", "metrics"]));
            assert_eq!(result.get("correct").and_then(|v| v.as_bool()), Some(true), "{workload}");
            assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0), "{workload}");
            assert!(result.get("attempted").and_then(|v| v.as_u64()).expect("attempted") >= 1);

            let metrics = result.get("metrics").and_then(|m| m.as_object()).expect("metrics");
            let emitted: BTreeSet<String> = metrics.keys().cloned().collect();
            let declared: BTreeSet<String> = names(&doc, list).into_iter().collect();
            assert_eq!(emitted, declared, "{workload} trace={trace}");
            for (name, entry) in metrics {
                assert!(valid_name(name), "{name}");
                let value = entry.get("value").and_then(|v| v.as_f64()).expect("value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
                }
                let unit = entry.get("unit").and_then(|u| u.as_str()).expect("unit");
                let declared_unit = doc
                    .get(list)
                    .and_then(|l| l.as_array())
                    .and_then(|l| {
                        l.iter().find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                    })
                    .and_then(|e| e.get("unit"))
                    .and_then(|u| u.as_str());
                assert_eq!(Some(unit), declared_unit, "{name}");
            }
            if trace {
                let trace_file =
                    format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
                let trace_doc =
                    json::parse(&std::fs::read_to_string(&trace_file).expect("trace written"))
                        .expect("trace is JSON");
                let events =
                    trace_doc.get("traceEvents").and_then(|v| v.as_array()).expect("events");
                assert!(events
                    .iter()
                    .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(&workload)));
            }
        }
    }
}
