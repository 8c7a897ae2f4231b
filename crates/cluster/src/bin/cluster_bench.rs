//! Node-scaling sweep: run the demo pipeline across 1..=N real `neptuned`
//! processes and write `BENCH_cluster.json`.
//!
//! For each node count the bench spawns that many `neptuned` sibling
//! binaries, drives the coordinator in-process, and records wall-clock,
//! sink accounting, and the cross-process frame/trace counters. One
//! node = everything co-located (no cut edges, the in-process baseline);
//! three nodes = one stage per node, both pipeline hops on real TCP.
//!
//! ```text
//! cluster_bench [--max-nodes 3] [--count 50000] [--out BENCH_cluster.json]
//! ```

use neptune_cluster::coordinator::{demo_descriptor, run_cluster_on, CoordinatorOptions};
use std::io::Write as _;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn neptuned_path() -> std::path::PathBuf {
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop();
    p.push("neptuned");
    p
}

struct Run {
    nodes: usize,
    elapsed_ms: u128,
    uids_per_sec: f64,
    sink_unique: u64,
    sink_duplicates: u64,
    frames_in: u64,
    traced_in: u64,
    dup_frames: u64,
}

fn run_once(nodes: usize, count: u64) -> Result<Run, String> {
    // An OS-picked port, held from here until the coordinator owns it.
    let control = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let listen = control.local_addr().map_err(|e| format!("bound address: {e}"))?.to_string();
    let daemon = neptuned_path();
    let mut children: Vec<Child> = Vec::new();
    for i in 0..nodes {
        let child = Command::new(&daemon)
            .args(["--coordinator", &listen, "--name", &format!("bench-n{i}")])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", daemon.display()))?;
        children.push(child);
    }
    let job = format!("bench-{nodes}");
    let descriptor = demo_descriptor(&job, count, 16);
    let mut opts = CoordinatorOptions::new(listen, nodes);
    opts.deadline = Duration::from_secs(120);
    let result = run_cluster_on(control, None, &opts, &descriptor, count);
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let summary = result.map_err(|e| format!("{nodes} nodes: {e}"))?;
    if summary.sink_unique < count {
        return Err(format!(
            "{nodes} nodes: LOSS — sink saw {}/{count} unique uids",
            summary.sink_unique
        ));
    }
    let elapsed_ms = summary.elapsed.as_millis();
    Ok(Run {
        nodes,
        elapsed_ms,
        uids_per_sec: count as f64 / summary.elapsed.as_secs_f64().max(1e-9),
        sink_unique: summary.sink_unique,
        sink_duplicates: summary.sink_duplicates,
        frames_in: summary.frames_in,
        traced_in: summary.traced_in,
        dup_frames: summary.dup_frames,
    })
}

fn main() {
    // A panic on any worker/sink thread must fail the whole bench run —
    // otherwise CI records a green bench with garbage numbers. Same hook
    // as `neptune_bench::failfast()` (re-exported from core; this binary
    // cannot depend on neptune-bench without a cycle through the
    // simulator).
    neptune_core::failfast();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_nodes = 3usize;
    let mut count = 50_000u64;
    let mut out = "BENCH_cluster.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--max-nodes", Some(v)) => max_nodes = v.parse().expect("--max-nodes"),
            ("--count", Some(v)) => count = v.parse().expect("--count"),
            ("--out", Some(v)) => out = v.clone(),
            (other, _) => {
                eprintln!("cluster_bench: unknown or valueless flag {other}");
                std::process::exit(2);
            }
        }
    }
    let mut runs = Vec::new();
    for nodes in 1..=max_nodes {
        eprintln!("cluster_bench: {nodes} node(s), {count} uids …");
        match run_once(nodes, count) {
            Ok(run) => {
                eprintln!(
                    "cluster_bench: {nodes} node(s): {} ms, {:.0} uids/s, {} dup deliveries",
                    run.elapsed_ms, run.uids_per_sec, run.sink_duplicates
                );
                runs.push(run);
            }
            Err(e) => {
                eprintln!("cluster_bench: FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"nodes\": {}, \"elapsed_ms\": {}, \"uids_per_sec\": {:.1}, \
                 \"sink_unique\": {}, \"sink_duplicates\": {}, \"frames_in\": {}, \
                 \"traced_in\": {}, \"dup_frames\": {}}}",
                r.nodes,
                r.elapsed_ms,
                r.uids_per_sec,
                r.sink_unique,
                r.sink_duplicates,
                r.frames_in,
                r.traced_in,
                r.dup_frames
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"bench\": \"cluster_node_scaling\",\n  \"pipeline\": \
         \"uid_source -> window_mean -> uid_sink\",\n  \"uids\": {count},\n  \"runs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let mut f = std::fs::File::create(&out).expect("create output");
    f.write_all(body.as_bytes()).expect("write output");
    eprintln!("cluster_bench: wrote {out}");
}
