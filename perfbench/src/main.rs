//! `perf` — the repository's one benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1 [--smoke]   one workload, in this process
//! perf run   [--workload W]… [--seed N] [--seconds S] [--runs R] [--out F]   every workload, a child each
//! perf trace [--workload W]… [--seed N] [--seconds S] [--out F]  the per-layer metrics
//! perf compare A.json B.json [--benchmark BENCHMARK.json]
//! perf node --coordinator ADDR --name NAME --job JOB             (spawned by cluster_cut)
//! ```

mod alloc_count;
mod cluster;
mod compare;
mod harness;
mod hist;
mod metrics;
mod ops;
mod probes;
mod procfs;
mod spans;
mod workloads;

use cluster::CutExtras;
use harness::{Paced, Saturated};
use neptune_core::json::{self, JsonValue};
use spans::SpanLog;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::{Kind, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// Where traces and run sets land: `perfbench/out/`, git-ignored.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Flags of every subcommand, parsed once.
#[derive(Default)]
struct Flags {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    benchmark: Option<PathBuf>,
    coordinator: String,
    name: String,
    job: String,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags { seed: 1, seconds: 16.0, runs: 1, ..Flags::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => f.workloads.push(value("a workload name")?),
            "--seed" => f.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                f.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => f.trace = value("0 or 1")? == "1",
            "--runs" => f.runs = value("a number")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => f.out = Some(PathBuf::from(value("a path")?)),
            "--benchmark" => f.benchmark = Some(PathBuf::from(value("a path")?)),
            "--coordinator" => f.coordinator = value("an address")?,
            "--name" => f.name = value("a node name")?,
            "--job" => f.job = value("a job name")?,
            "--smoke" => f.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
    }
    if !(f.seconds >= 1.0 && f.seconds <= 120.0) {
        return Err("--seconds must be between 1 and 120".into());
    }
    for name in &f.workloads {
        workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    }
    Ok(f)
}

/// What one workload run reports.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

fn guard(line: String) {
    eprintln!("  guard: {line}");
}

fn guard_saturated(workload: &Workload, saturated: &Saturated) {
    let tm = &saturated.end.threads;
    guard(format!(
        "threads observed: {} worker, {} io (pinned {} per resource, {} io)",
        tm.worker_threads,
        tm.io_threads,
        workloads::WORKER_THREADS,
        workload.io_threads
    ));
    guard(format!(
        "saturate steady window: {:.2} s, {} packets, drain {:.1} ms",
        saturated.window_s, saturated.window_packets, saturated.end.drain_ms
    ));
}

fn guard_paced(workload: &Workload, paced: &Paced) {
    guard(format!(
        "paced at {} pps: gen.late_p99 {:.3} ms{}, delivered/offered at phase end {:.4}{}, stragglers {}",
        workload.paced_rate_pps,
        paced.gen_late_p99_ms,
        if paced.gen_late_p99_ms > harness::GEN_LATE_LIMIT_MS { " (generator LATE)" } else { "" },
        paced.delivered_at_end,
        if paced.delivered_at_end < harness::DELIVERED_LIMIT { " (backlog GROWING: latency invalid)" } else { "" },
        paced.stragglers,
    ));
    guard(format!(
        "latency samples: {} in {} one-second windows, fewest per window {}; mean resident set {:.1} MiB",
        paced.latency.samples, paced.latency.windows, paced.latency.min_window_samples, paced.rss_mb
    ));
}

fn write_trace(workload: &Workload, spans: &SpanLog, engine_traces: &[String]) {
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", workload.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.to_chrome_trace(engine_traces)));
    match written {
        Ok(()) => eprintln!("  trace: {}", path.display()),
        Err(e) => eprintln!("  trace: could not write {}: {e}", path.display()),
    }
}

/// The paced phase of any workload: over the bench-hosted cut edge for
/// `cluster_cut`, through one `LocalRuntime` job otherwise.
fn paced_phase(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    telemetry: bool,
) -> (Paced, Option<CutExtras>) {
    if workload.kind == Kind::ClusterCut {
        let (paced, extras) = cluster::paced_cut_edge(workload, seed, seconds, telemetry);
        (paced, Some(extras))
    } else {
        (harness::paced(workload, seed, seconds, telemetry), None)
    }
}

/// The saturating phase of a traced run, likewise.
fn saturate_phase(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    telemetry: bool,
) -> (Saturated, Option<CutExtras>) {
    if workload.kind == Kind::ClusterCut {
        let (saturated, extras) = cluster::saturate_cut_edge(workload, seed, seconds, telemetry);
        (saturated, Some(extras))
    } else {
        (harness::saturate(workload, seed, seconds, false, telemetry), None)
    }
}

/// The saturating phase of `cluster_cut`, the real thing: a coordinator
/// here and two node processes, a few times over, the steady windows
/// pooled. `(throughput_pps, cpu_us_per_packet, offered, failed)`.
fn saturate_real_cluster(workload: &Workload, phase_s: f64, smoke: bool) -> (f64, f64, u64, u64) {
    let count = (cluster::UIDS_PER_MEASURED_S as f64 * phase_s) as u64;
    let runs = if smoke { 1 } else { cluster::SATURATING_RUNS };
    let mut pooled = cluster::SteadyWindow::default();
    let mut failed = 0;
    for i in 0..runs {
        let run = cluster::run_real_cluster(workload, &format!("perf-cut-{i}"), count);
        guard(format!(
            "cluster run {i}: {count} uids, steady window {:.2} s / {} uids = {:.0} pps, \
             coordinator elapsed {:.2} s, {} frames in, {} duplicate frames",
            run.window.seconds,
            run.window.packets,
            run.window.throughput_pps(),
            run.summary.elapsed.as_secs_f64(),
            run.summary.frames_in,
            run.summary.dup_frames
        ));
        pooled.add(&run.window);
        failed += run.failed;
    }
    (pooled.throughput_pps(), pooled.cpu_us_per_packet(), count * runs, failed)
}

/// `--trace 0`: the end-to-end metrics, with telemetry, tracing and
/// allocation counting off.
fn end_to_end(workload: &Workload, flags: &Flags, spans: &SpanLog, root: usize) -> Outcome {
    let (seed, phase_s) = (flags.seed, flags.seconds / 2.0);
    let cluster = workload.kind == Kind::ClusterCut;
    let cycles = match (flags.smoke, cluster) {
        (true, _) => 1,
        (false, true) => 3,
        (false, false) => 9,
    };
    let setup_s = harness::setup_s(cycles, spans, root, || {
        if cluster {
            cluster::run_real_cluster(workload, "perf-setup", workload.setup_packets).wall_s
        } else {
            harness::setup_cycle(workload, seed)
        }
    });
    // Paced first, so that its resident set is not inflated by what the
    // allocator keeps after the saturating phase's backlog.
    let (paced, _) =
        spans.scope("paced", Some(root), || paced_phase(workload, seed, phase_s, false));
    let (throughput_pps, cpu_us_per_packet, offered, failed) =
        spans.scope("saturate", Some(root), || {
            if cluster {
                saturate_real_cluster(workload, phase_s, flags.smoke)
            } else {
                let s = harness::saturate(workload, seed, phase_s, false, false);
                guard_saturated(workload, &s);
                (s.throughput_pps, s.cpu_us_per_packet, s.end.offered, s.failed)
            }
        });
    guard_paced(workload, &paced);
    let values =
        [throughput_pps, paced.latency.p50_ms, paced.latency.p99_ms, cpu_us_per_packet, setup_s];
    Outcome {
        metrics: metrics::END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect(),
        attempted: offered + paced.end.offered,
        failed: failed + paced.failed,
    }
}

/// `--trace 1`: the per-layer metrics and the Chrome trace.
fn traced(workload: &Workload, flags: &Flags, spans: &SpanLog, root: usize) -> Outcome {
    let (seed, phase_s) = (flags.seed, flags.seconds / 4.0);
    let probe_budget = Duration::from_millis(if flags.smoke { 10 } else { 120 });
    // Paced first, as in the end-to-end run: `os.rss_paced_mb` is the
    // resident set before any saturating backlog.
    let (paced, cut_paced) =
        spans.scope("paced", Some(root), || paced_phase(workload, seed, phase_s, true));
    let (untraced, _) =
        spans.scope("warmup", Some(root), || saturate_phase(workload, seed, phase_s, false));
    alloc_count::set_enabled(true);
    let (saturated, cut_saturated) =
        spans.scope("saturate", Some(root), || saturate_phase(workload, seed, phase_s, true));
    alloc_count::set_enabled(false);
    // One IO thread deadlocks the TCP workloads and cannot host the cut
    // edge's blocking ingress: the baseline is for in-process jobs.
    let single_thread_pps = match workload.kind {
        Kind::RelayInproc | Kind::WindowCheckpoint => {
            let s = spans.scope("single_thread", Some(root), || {
                harness::saturate(workload, seed, phase_s / 2.0, true, false)
            });
            s.throughput_pps
        }
        _ => 0.0,
    };
    let probes = probes::run(workload, seed, probe_budget, spans, root);
    let values = metrics::per_layer(
        workload,
        &metrics::Traced {
            untraced: &untraced,
            saturated: &saturated,
            paced: &paced,
            single_thread_pps,
            cut: cut_saturated.as_ref().zip(cut_paced.as_ref()),
            probes: &probes,
        },
    );
    spans.end(root);
    let engine_traces: Vec<String> = [
        saturated.end.chrome_trace.clone(),
        paced.end.chrome_trace.clone(),
        cut_paced.as_ref().and_then(|c| c.down_chrome_trace.clone()),
    ]
    .into_iter()
    .flatten()
    .collect();
    write_trace(workload, spans, &engine_traces);
    guard_saturated(workload, &saturated);
    guard_paced(workload, &paced);
    Outcome {
        metrics: values.iter().zip(metrics::PER_LAYER).map(|(&(n, v), (_, u))| (n, v, u)).collect(),
        attempted: untraced.end.offered + saturated.end.offered + paced.end.offered,
        failed: untraced.failed + saturated.failed + paced.failed,
    }
}

/// One workload in this process.
fn run_workload(workload: &Workload, flags: &Flags) -> Outcome {
    if let Some(load) = procfs::loadavg_1m().filter(|&load| load > 0.7) {
        guard(format!("the box is busy before the run starts: 1-minute load average {load:.2}"));
    }
    let spans = SpanLog::new();
    let root = spans.begin(workload.name, None);
    if flags.trace {
        traced(workload, flags, &spans, root)
    } else {
        end_to_end(workload, flags, &spans, root)
    }
}

fn outcome_json(outcome: &Outcome) -> String {
    let metrics: std::collections::BTreeMap<String, JsonValue> = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let entry = json::object([
                ("value", JsonValue::Number(value)),
                ("unit", JsonValue::String(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    json::object([
        ("correct", JsonValue::Bool(outcome.failed == 0)),
        ("attempted", JsonValue::Number(outcome.attempted as f64)),
        ("failed", JsonValue::Number(outcome.failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .to_json()
}

/// The driver's form: one workload here, the result as the last line of
/// stdout, exit 1 if anything came out wrong.
fn driver(flags: &Flags) -> Result<ExitCode, String> {
    let [name] = flags.workloads.as_slice() else {
        return Err("give exactly one --workload (or use `perf run`)".into());
    };
    let workload = workloads::find(name).expect("validated by parse_flags");
    eprintln!(
        "perf: {} seed {} seconds {} trace {}{}",
        workload.name,
        flags.seed,
        flags.seconds,
        u8::from(flags.trace),
        if flags.smoke { " (smoke)" } else { "" }
    );
    let outcome = run_workload(workload, flags);
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<44} {value:>16.4} {unit}");
    }
    eprintln!(
        "  failure_ratio {} / {} = {:e}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome_json(&outcome));
    Ok(if outcome.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `perf run` / `perf trace`: every chosen workload in a child process of
/// its own, so peak RSS, CPU accounting, the allocation counters and the
/// process-global sink ledgers never mix across workloads.
fn run_set(flags: &Flags, trace: bool) -> Result<ExitCode, String> {
    let chosen: Vec<&Workload> = if flags.workloads.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        flags.workloads.iter().filter_map(|n| workloads::find(n)).collect()
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for run in 0..flags.runs {
        for workload in &chosen {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if flags.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
            let Some(result) = result else {
                return Err(format!(
                    "{} printed no result (exit {:?})",
                    workload.name,
                    output.status.code()
                ));
            };
            all_correct &= output.status.success()
                && result.get("correct").and_then(|v| v.as_bool()) == Some(true);
            runs.push(json::object([
                ("workload", JsonValue::String(workload.name.to_string())),
                ("run", JsonValue::Number(run as f64)),
                ("seed", JsonValue::Number(flags.seed as f64)),
                ("result", result),
            ]));
        }
    }
    let set = json::object([
        ("kind", JsonValue::String(if trace { "trace" } else { "run" }.to_string())),
        ("seconds", JsonValue::Number(flags.seconds)),
        (
            "nproc",
            JsonValue::Number(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", JsonValue::String(procfs::cpu_model())),
        ("kernel", JsonValue::String(procfs::kernel_release())),
        ("runs", JsonValue::Array(runs)),
    ])
    .to_json();
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(if trace { "last-trace.json" } else { "last-run.json" }));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, set).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perf: wrote {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    // A panic on any thread must end the run with a non-zero exit, not
    // leave the main thread waiting on a counter that will never move.
    neptune_core::failfast();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "node")) => (c, &args[1..]),
        _ => ("driver", &args[..]),
    };
    let result = parse_flags(rest).and_then(|flags| match command {
        "run" => run_set(&flags, false),
        "trace" => run_set(&flags, true),
        "compare" => compare::main(&flags.positional, flags.benchmark.as_deref()),
        "node" => cluster::node_main(&flags.coordinator, &flags.name, &flags.job)
            .map(|()| ExitCode::SUCCESS),
        _ => driver(&flags),
    });
    result.unwrap_or_else(|message| {
        eprintln!("perf: {message}");
        ExitCode::from(2)
    })
}
