//! `cluster_cut`: the only workload whose packets cross a cut edge.
//!
//! Two harnesses, because the cluster's builtin operators can be neither
//! paced nor stamped:
//!
//! * [`run_real_cluster`] — `neptune_cluster::coordinator::run_cluster` in
//!   this process plus two `perf node` children that each call
//!   `neptune_cluster::node::run_node`, on the `uid_source → window_mean →
//!   uid_sink` demo job. Count-based. Throughput and CPU are taken over a
//!   steady window of the sink ledger's own timeline, which each child
//!   samples through the public `ops::sink_snapshot` and prints when it
//!   exits — the coordinator's fixed drain/settle tail is not in them.
//! * [`CutEdge`] — the same pipeline shape cut at the same place, hosted
//!   by two `DataPlane`s and two `LocalRuntime`s in this process, with the
//!   bench's paced, stamped source and checking sink in place of the
//!   builtins. Packets still cross `__egress` → loopback TCP (sequenced,
//!   replayed, quiescently acked) → `__ingress`. This is where latency and
//!   the traced per-layer counters of the cut edge come from. A node
//!   releases its withheld acks on a 50 ms tick that finds it quiescent;
//!   under steady load that is almost never, so this harness releases them
//!   once, when the stream has ended. (Releasing at the odd idle tick, as
//!   a half-loaded node does, made the replay buffer — and with it the
//!   resident set — bimodal from run to run.)

use crate::harness::{self, JobEnd, Paced, Saturated, STRAGGLER_GRACE, WARMUP_S};
use crate::ops::{BenchSource, Pace, RelaySink, SinkShared, SourceShared};
use crate::procfs;
use crate::workloads::Workload;
use neptune_cluster::coordinator::{
    demo_descriptor, run_cluster, ClusterSummary, CoordinatorOptions,
};
use neptune_cluster::dataplane::{AckMode, DataPlane, DataPlaneStats};
use neptune_cluster::node::{run_node, NodeOptions};
use neptune_cluster::ops as cluster_ops;
use neptune_core::descriptor::OperatorRegistry;
use neptune_core::graph::OperatorSpec;
use neptune_core::json::{self, JsonValue};
use neptune_core::now_micros;
use neptune_core::prelude::*;
use neptune_link::LinkStatsSnapshot;
use std::io::Write as _;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Node processes of the real cluster.
pub const NODES: usize = 2;
/// Runs of the real cluster that make up one saturating phase, their
/// steady windows pooled. How fast one run goes is settled when its node
/// processes start (two modes some 13 % apart, from run to run of one
/// commit): three draws steady the figure, one longer run would not.
pub const SATURATING_RUNS: u64 = 3;
/// Uids of one count-based run per measured second: about three seconds of
/// work at the seed's throughput for an eight-second phase. Frozen, like
/// the paced rates.
pub const UIDS_PER_MEASURED_S: u64 = 270_000;
/// Sliding-window length of the demo job's `window_mean` stage.
const WINDOW: u64 = 16;
/// How often a process samples its own CPU time (and the sink ledger).
const SAMPLE_EVERY: Duration = Duration::from_millis(5);
/// The steady window of a count-based run: from this share of the count
/// delivered …
const STEADY_FROM: f64 = 0.2;
/// … to this one.
const STEADY_TO: f64 = 0.9;

// ---------------------------------------------------------------------
// The real cluster
// ---------------------------------------------------------------------

/// `(µs since the epoch, CPU seconds, sink ledger's unique count)`.
type Sample = (u64, f64, u64);

fn sample(job: &str) -> Sample {
    let unique = cluster_ops::sink_snapshot(job).map_or(0, |s| s.unique);
    (now_micros(), procfs::self_cpu_s(), unique)
}

/// Sample this process every [`SAMPLE_EVERY`] until `stop` is set.
fn sampler(job: String, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<Vec<Sample>> {
    std::thread::spawn(move || {
        let mut samples = vec![sample(&job)];
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(SAMPLE_EVERY);
            samples.push(sample(&job));
        }
        samples
    })
}

/// Body of the `perf node` child: one `neptuned`-equivalent process.
/// Prints its samples on stdout when the coordinator shuts it down.
pub fn node_main(coordinator: &str, name: &str, job: &str) -> Result<(), String> {
    let stop = Arc::new(AtomicBool::new(false));
    let sampling = sampler(job.to_string(), stop.clone());
    let hosted = run_node(NodeOptions::new(coordinator, name));
    stop.store(true, Ordering::Relaxed);
    let samples = sampling.join().map_err(|_| "sampler thread panicked".to_string())?;
    let mut out = std::io::stdout().lock();
    for (t, cpu, unique) in samples {
        writeln!(out, "T {t} {cpu} {unique}").map_err(|e| e.to_string())?;
    }
    hosted.map(|_| ()).map_err(|e| format!("node {name}: {e}"))
}

fn free_port() -> u16 {
    // Bind-drop: racy in principle, fine for a bench on loopback.
    std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free loopback port")
        .port()
}

/// The demo job with every node runtime pinned to one worker thread.
fn descriptor(job: &str, count: u64) -> String {
    let mut doc =
        json::parse(&demo_descriptor(job, count, WINDOW)).expect("demo descriptor parses");
    if let JsonValue::Object(map) = &mut doc {
        map.insert("config".into(), json::object([("worker_threads", JsonValue::Number(1.0))]));
    }
    doc.to_json()
}

/// The steady window of a count-based run on the sink ledger's timeline,
/// or several of them pooled.
#[derive(Default, Clone, Copy)]
pub struct SteadyWindow {
    /// Length, seconds.
    pub seconds: f64,
    /// Uids delivered in it.
    pub packets: u64,
    /// CPU seconds this process and both nodes spent in it.
    pub cpu_s: f64,
}

impl SteadyWindow {
    /// Pool another run's window into this one.
    pub fn add(&mut self, other: &SteadyWindow) {
        self.seconds += other.seconds;
        self.packets += other.packets;
        self.cpu_s += other.cpu_s;
    }

    /// Uids per second.
    pub fn throughput_pps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.packets as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// CPU µs per uid.
    pub fn cpu_us_per_packet(&self) -> f64 {
        self.cpu_s * 1e6 / self.packets.max(1) as f64
    }
}

/// What one run of the real cluster yields.
pub struct ClusterRun {
    /// The coordinator's summary.
    pub summary: ClusterSummary,
    /// Spawn → `run_cluster` returned and every node exited, seconds.
    pub wall_s: f64,
    /// The steady window of the sink's timeline.
    pub window: SteadyWindow,
    /// `count − unique + duplicates`.
    pub failed: u64,
}

fn parse_node_output(stdout: &[u8]) -> Vec<Sample> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter_map(|line| match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["T", t, cpu, unique] => {
                Some((t.parse().ok()?, cpu.parse().ok()?, unique.parse().ok()?))
            }
            _ => None,
        })
        .collect()
}

/// CPU seconds of a sampled process at `t_us` (the last sample at or
/// before it; the first one when `t_us` precedes them all).
fn cpu_at(samples: &[Sample], t_us: u64) -> f64 {
    let i = samples.partition_point(|s| s.0 <= t_us);
    samples[i.saturating_sub(1).min(samples.len() - 1)].1
}

/// Spawn [`NODES`] `perf node` children, drive `count` uids through the
/// demo job with the coordinator in this process, reap the children.
pub fn run_real_cluster(workload: &Workload, job: &str, count: u64) -> ClusterRun {
    let started = Instant::now();
    let listen = format!("127.0.0.1:{}", free_port());
    let exe = std::env::current_exe().expect("own executable path");
    let children: Vec<Child> = (0..NODES)
        .map(|i| {
            Command::new(&exe)
                .args([
                    "node",
                    "--coordinator",
                    &listen,
                    "--name",
                    &format!("perf-n{i}"),
                    "--job",
                    job,
                ])
                // Pinned like the worker count in the descriptor: the
                // two-core box hosts two nodes.
                .env("NEPTUNE_IO_THREADS", workload.io_threads.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn a perf node child")
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let own_sampling = sampler(job.to_string(), stop.clone());
    let mut opts = CoordinatorOptions::new(listen, NODES);
    opts.deadline = Duration::from_secs(120);
    let result = run_cluster(&opts, &descriptor(job, count), count);
    stop.store(true, Ordering::Relaxed);
    let own = own_sampling.join().expect("sampler thread");

    // `run_cluster` sent Shutdown; each child prints its samples and exits.
    let outputs: Vec<Vec<Sample>> = children
        .into_iter()
        .map(|child| {
            let out = child.wait_with_output().expect("reap a perf node child");
            parse_node_output(&out.stdout)
        })
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    let summary = result.expect("the cluster job completes");

    // The node whose ledger moved hosts the sink; its timeline sets the
    // steady window.
    let sink_samples =
        outputs.iter().max_by_key(|s| s.last().map_or(0, |l| l.2)).expect("two node timelines");
    let crossing = |share: f64| {
        let target = (count as f64 * share) as u64;
        sink_samples.iter().find(|s| s.2 >= target).copied()
    };
    let window = match (crossing(STEADY_FROM), crossing(STEADY_TO)) {
        (Some(a), Some(b)) if b.0 > a.0 => SteadyWindow {
            seconds: (b.0 - a.0) as f64 / 1e6,
            packets: b.2 - a.2,
            cpu_s: outputs
                .iter()
                .map(Vec::as_slice)
                .chain([own.as_slice()])
                .filter(|s| !s.is_empty())
                .map(|s| cpu_at(s, b.0) - cpu_at(s, a.0))
                .sum(),
        },
        _ => SteadyWindow::default(),
    };
    let failed = count.saturating_sub(summary.sink_unique) + summary.sink_duplicates;
    ClusterRun { summary, wall_s, window, failed }
}

// ---------------------------------------------------------------------
// The bench-hosted cut edge
// ---------------------------------------------------------------------

/// The edge id of the one cut.
const EDGE: u64 = 0;

/// Both halves of the pipeline, running.
pub struct CutEdge {
    up: JobHandle,
    down: JobHandle,
    up_plane: Arc<DataPlane>,
    down_plane: Arc<DataPlane>,
    source: Arc<SourceShared>,
    sink: Arc<SinkShared>,
}

/// What the cut edge adds to the upstream job's [`JobEnd`].
pub struct CutExtras {
    /// Downstream (`__ingress → sink`) job's telemetry snapshot.
    pub down_telemetry: Option<TelemetrySnapshot>,
    /// Downstream job's sampled spans.
    pub down_chrome_trace: Option<String>,
    /// Egress link counters with the peer's dedup drops folded in.
    pub egress_links: Vec<LinkStatsSnapshot>,
    /// Downstream plane counters (frames in, duplicates).
    pub down_plane: DataPlaneStats,
}

fn boundary_op(registry: &OperatorRegistry, factory: &str, params: JsonValue) -> OperatorSpec {
    let name = format!("{factory}_{EDGE}");
    let factory = registry
        .processor_factory(factory, &params)
        .or_else(|| registry.source_factory(factory, &params))
        .expect("boundary and builtin operators are registered");
    OperatorSpec { name, parallelism: 1, factory }
}

impl CutEdge {
    /// Bind two data planes, submit both halves, start the ack tick.
    pub fn start(
        workload: &Workload,
        seed: u64,
        pace: Pace,
        paced_t0_us: Option<u64>,
        telemetry: bool,
    ) -> CutEdge {
        let workload = *workload;
        let config = || workload.config(false, telemetry);
        let up_plane = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).expect("bind up plane");
        let down_plane =
            DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).expect("bind down plane");
        let source = Arc::new(SourceShared::default());
        let sink = Arc::new(SinkShared::default());

        let mut down_registry = OperatorRegistry::new();
        down_plane.register_boundary_ops(&mut down_registry);
        let ingress = boundary_op(
            &down_registry,
            "__ingress",
            json::object([("edge", JsonValue::Number(EDGE as f64))]),
        );
        let ingress_name = ingress.name.clone();
        let sink_shared = sink.clone();
        let down_graph = GraphBuilder::new("cut-down")
            .operator_spec(ingress)
            .processor("sink", move || {
                RelaySink::new(workload.packet_bytes, seed, paced_t0_us, sink_shared.clone())
            })
            .link(ingress_name, "sink", PartitioningScheme::Shuffle)
            .build()
            .expect("downstream half is a valid graph");
        let down = LocalRuntime::new(config()).submit(down_graph).expect("downstream deploys");

        let mut up_registry = cluster_ops::builtin_registry();
        up_plane.register_boundary_ops(&mut up_registry);
        let egress = boundary_op(
            &up_registry,
            "__egress",
            json::object([
                ("edge", JsonValue::Number(EDGE as f64)),
                ("epoch", JsonValue::Number(0.0)),
                ("addr", JsonValue::String(down_plane.local_addr().to_string())),
            ]),
        );
        let egress_name = egress.name.clone();
        let win = OperatorSpec {
            name: "win".into(),
            ..boundary_op(
                &up_registry,
                "window_mean",
                json::object([("window", JsonValue::Number(WINDOW as f64))]),
            )
        };
        let source_shared = source.clone();
        let up_graph = GraphBuilder::new("cut-up")
            .source("src", move || {
                BenchSource::new(workload.packet_gen(seed), pace, source_shared.clone())
            })
            .operator_spec(win)
            .operator_spec(egress)
            .link("src", "win", PartitioningScheme::Shuffle)
            .link("win", egress_name, PartitioningScheme::Shuffle)
            .build()
            .expect("upstream half is a valid graph");
        let up = LocalRuntime::new(config()).submit(up_graph).expect("upstream deploys");

        CutEdge { up, down, up_plane, down_plane, source, sink }
    }

    /// Packets the sink has received.
    pub fn delivered(&self) -> u64 {
        self.sink.received.load(Ordering::Relaxed)
    }

    /// Stop the source (if it still runs), drain both halves in pipeline
    /// order, stop everything. The [`JobEnd`] is the upstream job's, with
    /// the downstream sink's report.
    pub fn finish(self) -> (JobEnd, CutExtras) {
        self.source.stop.store(true, Ordering::Relaxed);
        let t = Instant::now();
        self.up.await_sources(Duration::from_secs(30));
        assert!(self.up.settle(Duration::from_secs(30)), "upstream half did not settle");
        let offered = self.source.emitted.load(Ordering::Relaxed);
        // Everything offered must come out of the ingress before it may
        // exhaust: the egress flusher and TCP are still moving the tail.
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.delivered() < offered && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.down_plane.drain_ingress();
        self.down.await_sources(Duration::from_secs(10));
        self.down.settle(Duration::from_secs(10));
        let drain_ms = t.elapsed().as_secs_f64() * 1000.0;
        // Quiescent at last: what a node's 50 ms tick would do now.
        self.down_plane.release_acks();
        let down_plane = self.down_plane.stats();
        let mut egress_links = self.up_plane.link_stats();
        for link in &mut egress_links {
            // The one link's duplicates are what the peer plane dropped.
            link.dedup_drops = down_plane.dup_frames;
        }
        let down_telemetry = self.down.telemetry();
        let down_chrome_trace = self.down.chrome_trace();
        let up_telemetry = self.up.telemetry();
        let up_chrome_trace = self.up.chrome_trace();
        let up_links = self.up.link_stats();
        let threads = self.up.thread_model();
        let up_metrics = self.up.stop();
        self.down.stop();
        self.up_plane.shutdown();
        self.down_plane.shutdown();
        let sink = self.sink.report.lock().expect("report lock").take().expect("sink closed");
        let gen_late = self.source.late.lock().expect("late lock").take();
        let up = JobEnd {
            metrics: up_metrics,
            telemetry: up_telemetry,
            chrome_trace: up_chrome_trace,
            links: up_links,
            checkpoints: None,
            threads,
            drain_ms,
            sink,
            offered,
            keyed_instances: Vec::new(),
            gen_late,
        };
        (up, CutExtras { down_telemetry, down_chrome_trace, egress_links, down_plane })
    }
}

/// The paced phase across the bench-hosted cut edge.
pub fn paced_cut_edge(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    telemetry: bool,
) -> (Paced, CutExtras) {
    let (pace, total, t0_us) = harness::paced_schedule(workload, seconds);
    let edge = CutEdge::start(workload, seed, pace, Some(t0_us), telemetry);
    let rss = procfs::RssSampler::start();
    assert!(
        edge.up.await_sources(Duration::from_secs_f64(seconds + 30.0)),
        "the paced source did not finish its schedule"
    );
    let rss_mb = rss.finish();
    let delivered_at_end = edge.delivered() as f64 / total as f64;
    let grace_end = Instant::now() + STRAGGLER_GRACE;
    while edge.delivered() < total && Instant::now() < grace_end {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stragglers = total.saturating_sub(edge.delivered());
    let (end, extras) = edge.finish();
    (Paced::assemble(workload, seed, end, delivered_at_end, stragglers, rss_mb), extras)
}

/// The saturating phase across the bench-hosted cut edge (traced runs:
/// the real cluster's node telemetry is not reachable from outside).
pub fn saturate_cut_edge(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    telemetry: bool,
) -> (Saturated, CutExtras) {
    let edge = CutEdge::start(workload, seed, Pace::Saturate, None, telemetry);
    let warm = WARMUP_S.min(seconds / 3.0);
    std::thread::sleep(Duration::from_secs_f64(warm));
    let start = harness::mark(&edge.up, edge.delivered());
    std::thread::sleep(Duration::from_secs_f64(seconds - warm));
    let end = harness::mark(&edge.up, edge.delivered());
    let (job_end, extras) = edge.finish();
    let failed = harness::count_failures(workload, seed, job_end.offered, &job_end.sink);
    (Saturated::between(&start, &end, 0.0, job_end, failed), extras)
}
