//! End-to-end multi-process distribution tests (PR 8 tentpole
//! acceptance): a windowed job runs across three real `neptuned`
//! processes with exactly-once delivery observed at the sink, the
//! coordinator serves the merged cluster export over HTTP, and a seeded
//! chaos run kills a node mid-job and still loses nothing.
//!
//! The daemons are the actual release binaries (`CARGO_BIN_EXE_neptuned`),
//! not in-process fakes — every hop crosses real process boundaries over
//! real sockets, with the hello handshake, sequenced replay, and trace-id
//! propagation all live.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use neptune_cluster::coordinator::{demo_descriptor, run_cluster_on, CoordinatorOptions};

/// A listener on an OS-picked loopback port, and its address. The listener
/// is kept and handed to the coordinator: a port learned by binding and
/// dropping is anybody's again before the coordinator binds it — the
/// other test of this file, picking its own in parallel, included.
fn bound() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    (listener, addr)
}

fn spawn_daemons(coordinator: &str, n: usize, tag: &str) -> Vec<Child> {
    (0..n)
        .map(|i| {
            Command::new(env!("CARGO_BIN_EXE_neptuned"))
                .args(["--coordinator", coordinator, "--name", &format!("{tag}-n{i}")])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn neptuned")
        })
        .collect()
}

fn reap(children: Vec<Child>) {
    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
}

fn http_get(addr: &str, path: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_millis(500))).ok()?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").ok()?;
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    let body = out.split("\r\n\r\n").nth(1)?;
    Some(body.to_string())
}

#[test]
fn three_node_cluster_delivers_every_uid_and_serves_the_merged_export() {
    const COUNT: u64 = 20_000;
    let (control, listen) = bound();
    let (http_listener, http) = bound();
    let children = spawn_daemons(&listen, 3, "e2e");
    let descriptor = demo_descriptor("e2e-job", COUNT, 16);
    let mut opts = CoordinatorOptions::new(listen, 3);
    opts.deadline = Duration::from_secs(90);

    // Drive the coordinator on a thread so this one can scrape mid-run.
    let driver = std::thread::spawn(move || {
        run_cluster_on(control, Some(http_listener), &opts, &descriptor, COUNT)
    });

    // Scrape the live endpoints while the job runs: /nodes must list all
    // three daemons with pids, /metrics must carry the merged counters.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut nodes_json = String::new();
    let mut metrics = String::new();
    while Instant::now() < deadline {
        if let Some(n) = http_get(&http, "/nodes") {
            if n.matches("\"pid\"").count() == 3 {
                nodes_json = n;
                metrics = http_get(&http, "/metrics").unwrap_or_default();
                if metrics.contains("neptune_cluster_sink_unique_total") {
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let summary = driver.join().expect("driver thread").expect("cluster run");
    reap(children);

    assert_eq!(summary.sink_unique, COUNT, "every uid delivered");
    assert_eq!(summary.deaths, 0);
    assert!(summary.frames_in > 0, "cut edges actually crossed process boundaries");
    assert!(summary.traced_in > 0, "trace ids observed crossing process boundaries");
    assert!(nodes_json.matches("\"pid\"").count() == 3, "/nodes lists 3 daemons: {nodes_json}");
    assert!(nodes_json.contains("\"alive\":true"));
    assert!(
        metrics.contains("neptune_cluster_nodes{state=\"alive\"} 3"),
        "merged gauge present: {metrics}"
    );
    assert!(metrics.contains("neptune_cluster_expected_unique{job=\"e2e-job\"} 20000"));
}

#[test]
fn chaos_kill_mid_run_reassigns_and_loses_no_uids() {
    // Enough uids that the kill below lands mid-stream at any plausible
    // speed (a second of work for an optimized build, several for an
    // unoptimized one), few enough that the upstream replay buffers
    // (64 MB) still hold every unacked frame when it does.
    const COUNT: u64 = 1_000_000;
    let (control, listen) = bound();
    let (http_listener, http) = bound();
    let children = spawn_daemons(&listen, 3, "chaos");
    let descriptor = demo_descriptor("chaos-job", COUNT, 16);
    let mut opts = CoordinatorOptions::new(listen, 3);
    opts.heartbeat_timeout = Duration::from_millis(800);
    opts.deadline = Duration::from_secs(90);

    let driver = std::thread::spawn(move || {
        run_cluster_on(control, Some(http_listener), &opts, &descriptor, COUNT)
    });

    // Find the daemon hosting the windowed stage via the live /nodes
    // export, give the pipeline a moment to be genuinely mid-run, then
    // kill that process hard. Seeded: the ring places win on node 1
    // deterministically, but reading the export keeps the test honest.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut victim: Option<u32> = None;
    while victim.is_none() && Instant::now() < deadline {
        if let Some(nodes) = http_get(&http, "/nodes") {
            // Parse the pid out of the row whose operators include "win".
            for row in nodes.split('{') {
                if row.contains("\"win\"") {
                    if let Some(pid) = row
                        .split("\"pid\":")
                        .nth(1)
                        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                        .and_then(|s| s.parse::<u32>().ok())
                    {
                        victim = Some(pid);
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let victim = victim.expect("/nodes never exposed the win host's pid");
    std::thread::sleep(Duration::from_millis(200)); // genuinely mid-run
    let killed = Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("spawn kill")
        .success();
    assert!(killed, "kill -9 {victim} failed");

    let summary = driver.join().expect("driver thread").expect("cluster run survives the kill");
    reap(children);

    assert_eq!(summary.deaths, 1, "the kill was detected");
    assert!(summary.reassignments >= 1, "the dead node's operators moved");
    assert_eq!(
        summary.sink_unique, COUNT,
        "zero loss across the kill: replay + source restart + sink dedup"
    );
    assert!(summary.generation >= 1, "reassignment bumped the placement generation");
}
