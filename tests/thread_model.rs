//! Two-tier thread model integration tests (§IV-C).
//!
//! The refactor's end-to-end claims:
//! * **shutdown hygiene** — a job using every background facility
//!   (sources, processors, HA, telemetry) leaves no thread behind after
//!   `stop()`, and the IO tier drains its queue before exiting;
//! * **exact flush firing** — the per-endpoint flush deadline registers
//!   directly with the timer wheel, so observed buffering delay tracks
//!   the configured `flush_interval` to within 10%, not within the 50%
//!   a half-interval scan tick would allow;
//! * **O(1) idle cost** — thread count does not scale with source
//!   parallelism: 64 idle sources run on the same fixed IO tier as 1;
//! * **io_threads = 1 correctness** — a single IO thread still serves
//!   every pump, flusher, monitor, and sampler without starvation.
//!
//! Thread accounting reads `/proc/self/task/*/comm`. Every job thread is
//! prefixed by the graph name (`{graph}-res{i}-worker-{j}` workers,
//! `{graph}-io-{i}` IO tier), so short unique graph names keep the
//! prefix intact despite the kernel's 15-char comm truncation, and
//! concurrently running tests (with different graph names) cannot
//! pollute the counts.

use neptune::core::config::TransportMode;
use neptune::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Thread names of every task in this process, as the kernel reports
/// them (truncated to 15 chars).
fn thread_comms() -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
        for e in entries.flatten() {
            if let Ok(s) = std::fs::read_to_string(e.path().join("comm")) {
                out.push(s.trim().to_string());
            }
        }
    }
    out
}

fn count_prefixed(prefix: &str) -> usize {
    thread_comms().iter().filter(|c| c.starts_with(prefix)).count()
}

/// `/proc/<tid>/comm` is written by each spawned thread itself, so a
/// sample taken right after spawn can miss threads that exist but have
/// not yet renamed themselves. Poll until the count holds still.
fn settled_count_prefixed(prefix: &str) -> usize {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut last = count_prefixed(prefix);
    let mut stable = 0;
    while std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        let now = count_prefixed(prefix);
        if now == last && now > 0 {
            stable += 1;
            if stable >= 3 {
                break;
            }
        } else {
            stable = 0;
            last = now;
        }
    }
    last
}

struct Burst {
    remaining: u64,
}
impl StreamSource for Burst {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.remaining == 0 {
            return SourceStatus::Exhausted;
        }
        self.remaining -= 1;
        let mut p = StreamPacket::new();
        p.push_field("n", FieldValue::U64(self.remaining));
        ctx.emit(&p).unwrap();
        SourceStatus::Emitted(1)
    }
}

/// Never exhausts and, after `first` opening packets, never emits:
/// exercises the idle-park path until the job is stopped.
struct Quiet {
    stopped: Arc<AtomicBool>,
    first: u64,
}
impl StreamSource for Quiet {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.stopped.load(Ordering::Acquire) {
            SourceStatus::Exhausted
        } else if self.first > 0 {
            self.first -= 1;
            let mut p = StreamPacket::new();
            p.push_field("n", FieldValue::U64(self.first));
            ctx.emit(&p).unwrap();
            SourceStatus::Emitted(1)
        } else {
            SourceStatus::Idle
        }
    }
}

struct Forward;
impl StreamProcessor for Forward {
    fn process(&mut self, p: &StreamPacket, ctx: &mut OperatorContext) {
        let _ = ctx.emit(p);
    }
}

struct Count(Arc<AtomicU64>);
impl StreamProcessor for Count {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// A job with every background facility active (source pumps, flush
/// tasks, the telemetry sampler) must join every thread it spawned, and
/// the IO tier must drain before exit.
#[test]
fn shutdown_leaves_no_job_threads_and_drains_io_tier() {
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let graph = GraphBuilder::new("tmj")
        .source_n("src", 2, || Burst { remaining: 500 })
        .processor_n("relay", 2, || Forward)
        .processor("sink", move || Count(s2.clone()))
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        telemetry: TelemetryConfig::enabled(),
        io_threads: Some(2),
        ..Default::default()
    };
    let rt = LocalRuntime::new(config);
    let job = rt.submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(20)), "sources stalled");
    assert!(count_prefixed("tmj-") > 0, "job threads must be running and name-prefixed while live");
    let metrics = job.stop();
    assert_eq!(seen.load(Ordering::Relaxed), 2 * 500, "packets lost");
    assert_eq!(metrics.thread_model.live_io_tasks, 0, "IO tasks leaked past stop()");
    assert_eq!(metrics.thread_model.queued_io_tasks, 0, "IO queue not drained at stop()");
    let leaked: Vec<String> =
        thread_comms().into_iter().filter(|c| c.starts_with("tmj-")).collect();
    assert!(leaked.is_empty(), "threads leaked after stop(): {leaked:?}");
}

/// One-packet-at-a-time traffic against a huge buffer: only the flush
/// timer moves data, so sink-observed latency is the flush firing time.
/// With deadlines registered directly on the timer wheel the median
/// firing error must stay under 10% of the configured interval — the
/// old half-interval scan tick sat at 50%.
#[test]
fn flush_fires_within_ten_percent_of_interval() {
    const INTERVAL: Duration = Duration::from_millis(20);
    const SAMPLES: usize = 5;
    let latencies = Arc::new(parking_lot::Mutex::new(Vec::<i64>::new()));

    struct Paced {
        left: usize,
        last: Option<std::time::Instant>,
    }
    impl StreamSource for Paced {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            // Emit (or exhaust) only after the previous packet has
            // certainly flushed: each packet starts its own flush clock,
            // and exhaustion's force-flush can't clip the last deadline.
            if let Some(t) = self.last {
                if t.elapsed() < Duration::from_millis(60) {
                    return SourceStatus::Idle;
                }
            }
            if self.left == 0 {
                return SourceStatus::Exhausted;
            }
            self.left -= 1;
            self.last = Some(std::time::Instant::now());
            let mut p = StreamPacket::new();
            p.push_field("ts", FieldValue::Timestamp(neptune::core::now_micros()));
            ctx.emit(&p).unwrap();
            SourceStatus::Emitted(1)
        }
    }

    struct LatSink(Arc<parking_lot::Mutex<Vec<i64>>>);
    impl StreamProcessor for LatSink {
        fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
            if let Some(FieldValue::Timestamp(ts)) = p.get("ts") {
                self.0.lock().push(neptune::core::now_micros() as i64 - *ts as i64);
            }
        }
    }

    let l2 = latencies.clone();
    let graph = GraphBuilder::new("tmf")
        .source("src", || Paced { left: SAMPLES, last: None })
        .processor("sink", move || LatSink(l2.clone()))
        .link("src", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        buffer_bytes: 1 << 20, // never flushes by size
        flush_interval: INTERVAL,
        ..Default::default()
    };
    let rt = LocalRuntime::new(config);
    let job = rt.submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(20)), "source stalled");
    job.stop();

    let mut lat = latencies.lock().clone();
    assert_eq!(lat.len(), SAMPLES, "missing samples");
    lat.sort_unstable();
    let median_us = lat[SAMPLES / 2];
    let error_us = (median_us - INTERVAL.as_micros() as i64).abs();
    let bound_us = INTERVAL.as_micros() as i64 / 10;
    assert!(
        error_us < bound_us,
        "median flush firing error {error_us}µs exceeds 10% of {INTERVAL:?} \
         (bound {bound_us}µs; samples {lat:?})"
    );
}

/// The whole point of the IO tier: thread count is a function of
/// `io_threads`, not of source parallelism. 64 always-idle sources must
/// run on exactly as many job threads as 1.
#[test]
fn idle_thread_count_does_not_scale_with_sources() {
    fn spawn_idle_job(
        name: &'static str,
        sources: usize,
        rt: &LocalRuntime,
        stopped: &Arc<AtomicBool>,
    ) -> JobHandle {
        let s = stopped.clone();
        let graph = GraphBuilder::new(name)
            .source_n("src", sources, move || Quiet { stopped: s.clone(), first: 0 })
            .processor("sink", || Count(Arc::new(AtomicU64::new(0))))
            .link("src", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        rt.submit(graph).unwrap()
    }

    let config =
        RuntimeConfig { io_threads: Some(2), worker_threads: Some(2), ..Default::default() };
    let rt = LocalRuntime::new(config);

    let stop1 = Arc::new(AtomicBool::new(false));
    let job1 = spawn_idle_job("idj1-", 1, &rt, &stop1);
    let threads_for_1 = settled_count_prefixed("idj1-");
    stop1.store(true, Ordering::Release);
    job1.stop();

    let stop64 = Arc::new(AtomicBool::new(false));
    let job64 = spawn_idle_job("idj64-", 64, &rt, &stop64);
    let threads_for_64 = settled_count_prefixed("idj64-");
    let tm = job64.thread_model();
    // Idle cost, as a count: once its backoff has decayed to the 20 ms cap
    // (≈ 25 ms after the last emit) an idle source is one timer fire and
    // one stint per 20 ms — never a sleep loop on a thread.
    std::thread::sleep(Duration::from_millis(100));
    let (idle_from, before) = (std::time::Instant::now(), job64.thread_model());
    std::thread::sleep(Duration::from_millis(200));
    let (after, window) = (job64.thread_model(), idle_from.elapsed());
    let spent = (after.io_polls - before.io_polls) + (after.timer_fires - before.timer_fires);
    let owed = 2 * 64 * (window.as_millis() as u64 / 20 + 1);
    assert!(
        spent <= 2 * owed,
        "64 idle sources cost {spent} stints + timer fires in {window:?}; one of each per \
         source per 20 ms is {owed}"
    );
    stop64.store(true, Ordering::Release);
    job64.stop();

    assert!(threads_for_1 > 0 && threads_for_64 > 0, "jobs spawned no threads");
    assert_eq!(
        threads_for_64, threads_for_1,
        "thread count scaled with source parallelism (1 source: {threads_for_1}, \
         64 sources: {threads_for_64})"
    );
    assert_eq!(tm.io_threads, 2, "IO tier must honour io_threads");
    assert!(
        tm.live_io_tasks >= 64,
        "every idle source must be a live IO task, got {}",
        tm.live_io_tasks
    );
}

/// TCP keeps the two-tier promise on the network path: a cross-resource
/// TCP job runs **zero** per-connection IO threads — no
/// `neptune-io-tx-*` / `neptune-io-rx-*` / `neptune-io-accept-*` thread
/// exists; all socket traffic runs as IO-pool tasks plus one reactor
/// thread.
#[test]
fn reactor_tcp_spawns_no_per_connection_threads() {
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let stopped = Arc::new(AtomicBool::new(false));
    let s = stopped.clone();
    let graph = GraphBuilder::new("tmr")
        .source_n("src", 2, move || Quiet { stopped: s.clone(), first: 1 })
        .processor_n("relay", 2, || Forward)
        .processor("sink", move || Count(s2.clone()))
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        resources: 2,
        transport: TransportMode::Tcp,
        io_threads: Some(2),
        worker_threads: Some(2),
        ..Default::default()
    };
    let rt = LocalRuntime::new(config);
    let job = rt.submit(graph).unwrap();

    // Cross-resource TCP links are connected at submit time; none of
    // them may own a thread.
    let per_conn =
        thread_comms().into_iter().filter(|c| c.starts_with("neptune-io-")).collect::<Vec<_>>();
    assert!(per_conn.is_empty(), "TCP links spawned per-connection threads: {per_conn:?}");
    assert_eq!(settled_count_prefixed("tmr-reactor"), 1, "exactly one reactor thread");

    // Senders connected at submit; give the acceptor tasks a moment to
    // drain their readiness events before reading the gauges.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut tm = job.thread_model();
    while (tm.net_connections == 0 || tm.net_interests == 0) && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
        tm = job.thread_model();
    }
    assert!(tm.net_connections > 0, "TCP links must register as open connections");
    assert!(tm.net_interests > 0, "sockets must be registered with the reactor");

    // One packet per source across both TCP hops: the readiness events
    // asserted below are then owed by the data path, not left to
    // connection set-up racing `stop()`.
    while seen.load(Ordering::Relaxed) < 2 {
        assert!(std::time::Instant::now() < deadline, "packets stalled on the TCP hops");
        std::thread::sleep(Duration::from_millis(5));
    }

    stopped.store(true, Ordering::Release);
    let metrics = job.stop();
    assert!(
        metrics.thread_model.net_readiness_events > 0,
        "readiness events must have flowed through the reactor"
    );
    let leaked: Vec<String> = thread_comms()
        .into_iter()
        .filter(|c| c.starts_with("tmr-") || c.starts_with("neptune-io-"))
        .collect();
    assert!(leaked.is_empty(), "threads leaked after stop(): {leaked:?}");
}

/// The cluster's cut edge keeps the promise in both directions: with a
/// live `__egress` → TCP → `__ingress` edge between two data planes,
/// each plane's sockets — the egress sender *and* the ingress listener
/// and its connection — are tasks on the plane's two-thread IO pool.
#[test]
fn a_live_cut_edge_runs_on_the_data_planes_io_pools() {
    use neptune::cluster::dataplane::{AckMode, DataPlane};
    use neptune::core::descriptor::OperatorRegistry;
    use neptune::core::graph::OperatorSpec;
    use neptune::core::json::{self, JsonValue};

    const PACKETS: u64 = 500;
    let up_plane = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).expect("bind up plane");
    let down_plane = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).expect("bind down plane");
    let boundary = |plane: &Arc<DataPlane>, factory: &str| {
        let mut registry = OperatorRegistry::new();
        plane.register_boundary_ops(&mut registry);
        let params = json::object([
            ("edge", JsonValue::Number(0.0)),
            ("epoch", JsonValue::Number(0.0)),
            ("addr", JsonValue::String(down_plane.local_addr().to_string())),
        ]);
        let factory_fn = registry
            .processor_factory(factory, &params)
            .or_else(|| registry.source_factory(factory, &params))
            .expect("boundary operators are registered");
        OperatorSpec { name: factory.to_string(), parallelism: 1, factory: factory_fn }
    };

    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let down = GraphBuilder::new("tmc-down")
        .operator_spec(boundary(&down_plane, "__ingress"))
        .processor("sink", move || Count(s2.clone()))
        .link("__ingress", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let down = LocalRuntime::new(RuntimeConfig::default()).submit(down).unwrap();
    let up = GraphBuilder::new("tmc-up")
        .source("src", || Burst { remaining: PACKETS })
        .operator_spec(boundary(&up_plane, "__egress"))
        .link("src", "__egress", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let up = LocalRuntime::new(RuntimeConfig::default()).submit(up).unwrap();

    // Every packet across: the edge is connected and carrying.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while seen.load(Ordering::Relaxed) < PACKETS {
        assert!(std::time::Instant::now() < deadline, "cut edge stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let comms = thread_comms();
    let per_conn: Vec<&String> = comms.iter().filter(|c| c.starts_with("neptune-io-")).collect();
    assert!(per_conn.is_empty(), "cut edge spawned per-connection threads: {per_conn:?}");
    // `neptuned-dp-io-{i}`, truncated by the kernel to 15 characters.
    let pool_threads = comms.iter().filter(|c| c.starts_with("neptuned-dp-io-")).count();
    assert_eq!(pool_threads, 4, "two planes, two IO threads each, whatever they carry");

    up.stop();
    down_plane.drain_ingress();
    assert!(down.await_sources(Duration::from_secs(30)), "ingress did not drain");
    down.stop();
    assert_eq!(seen.load(Ordering::Relaxed), PACKETS);
    up_plane.shutdown();
    down_plane.shutdown();
}

/// A single IO thread must still serve all pumps, flush tasks, and the
/// sampler: full relay completes exactly-once.
#[test]
fn single_io_thread_serves_full_job() {
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let graph = GraphBuilder::new("tm1")
        .source_n("src", 4, || Burst { remaining: 250 })
        .processor_n("relay", 2, || Forward)
        .processor("sink", move || Count(s2.clone()))
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        io_threads: Some(1),
        telemetry: TelemetryConfig::enabled(),
        ..Default::default()
    };
    let rt = LocalRuntime::new(config);
    let job = rt.submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(30)), "sources stalled on 1 IO thread");
    let metrics = job.stop();
    assert_eq!(seen.load(Ordering::Relaxed), 4 * 250, "exactly-once violated");
    assert_eq!(metrics.thread_model.io_threads, 1);
    assert!(metrics.thread_model.io_parks > 0, "tasks never parked");
    assert!(metrics.thread_model.io_wakes > 0, "tasks never woke");
}

/// Nothing wakes `settle()` per emitted packet any more — only a
/// finishing pump does, and a bounded re-check covers the rest. Once a
/// finite stream has been consumed, `settle()` must still return at once,
/// on one IO thread and on two.
#[test]
fn settle_is_prompt_without_a_per_emit_wake() {
    const PACKETS: u64 = 100_000;
    for io_threads in [1, 2] {
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let graph = GraphBuilder::new(format!("tms{io_threads}"))
            .source("src", || Burst { remaining: PACKETS })
            .processor("relay", || Forward)
            .processor("sink", move || Count(s2.clone()))
            .link("src", "relay", PartitioningScheme::Shuffle)
            .link("relay", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig { io_threads: Some(io_threads), ..Default::default() };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        assert!(job.await_sources(Duration::from_secs(30)), "source stalled");
        // The stream's tail may still sit in a buffer; `settle` flushes it.
        // Time only the call that finds the job already drained.
        assert!(job.settle(Duration::from_secs(30)), "job did not drain");
        assert_eq!(seen.load(Ordering::Relaxed), PACKETS, "packets lost");
        let t = std::time::Instant::now();
        assert!(job.settle(Duration::from_secs(5)), "a drained job must settle");
        assert!(
            t.elapsed() < Duration::from_millis(50),
            "settle() of a drained job took {:?} at io_threads = {io_threads}",
            t.elapsed()
        );
        job.stop();
    }
}

/// A source that never idles keeps its pump `Ready` for ever; `stop()`
/// must still cut it at the next packet and drain what is queued, on one
/// IO thread (the pump shares it with the flush tasks) and on two.
#[test]
fn stop_of_a_saturating_job_returns_promptly() {
    struct Saturate;
    impl StreamSource for Saturate {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            let mut p = StreamPacket::new();
            p.push_field("payload", FieldValue::Bytes(vec![7u8; 1024]));
            ctx.emit(&p).unwrap();
            SourceStatus::Emitted(1)
        }
    }
    for io_threads in [1, 2] {
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let graph = GraphBuilder::new(format!("tmq{io_threads}"))
            .source("src", || Saturate)
            .processor("relay", || Forward)
            .processor("sink", move || Count(s2.clone()))
            .link("src", "relay", PartitioningScheme::Shuffle)
            .link("relay", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig { io_threads: Some(io_threads), ..Default::default() };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let t = std::time::Instant::now();
        let metrics = job.stop();
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "stop() took {:?} at io_threads = {io_threads}",
            t.elapsed()
        );
        let emitted = metrics.operator("src").packets_out;
        assert!(emitted > 0, "the source never ran");
        assert_eq!(seen.load(Ordering::Relaxed), emitted, "stop() lost queued packets");
    }
}
