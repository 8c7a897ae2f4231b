//! **Ingestion gateway** — connection scaling on the readiness-driven
//! IO tier (§IV-C acceptance for the epoll reactor).
//!
//! Simulated devices open real TCP connections to one gateway receiver
//! and stream stamped frames into its inbound queue; a sink thread
//! drains the queue and measures ingest latency (sender stamp → sink
//! pop). The interesting curve is *connections vs gateway threads vs
//! sink p99*: every connection is an IO task multiplexed onto
//! `io_threads` event-driven threads plus one reactor thread, so the
//! gateway's thread count is O(io_threads) no matter how many devices
//! connect — and every descriptor a connection held is released when it
//! closes, so the process ends the sweep with the descriptors it began
//! with.
//!
//! Scales are clamped to the process fd budget (`/proc/self/limits`):
//! each device costs two descriptors (client + accepted end) in this
//! single-process harness. Results land in `BENCH_ingestion.json` for
//! CI artifacts; `--quick` caps the sweep at 512 connections for the
//! smoke job.

use neptune_bench::Table;
use neptune_compress::SelectiveCompressor;
use neptune_core::json::{object, JsonValue};
use neptune_core::now_micros;
use neptune_granules::{IoPool, Reactor};
use neptune_net::frame::{encode_frame_into, FrameHeader};
use neptune_net::tcp::TcpReceiver;
use neptune_net::watermark::WatermarkConfig;
use neptune_net::NetDriver;
use neptune_stats::descriptive::percentile_of_sorted;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// IO threads serving the gateway — the whole point is that this number,
/// not the connection count, bounds the thread bill.
const IO_THREADS: usize = 2;
/// Client threads simulating the device fleet (each owns a slice of the
/// connections and round-robins frames across them).
const DEVICE_THREADS: usize = 8;
/// Reading payload per frame, roughly one sensor sample batch.
const PAYLOAD_BYTES: usize = 64;

/// Soft `RLIMIT_NOFILE` from `/proc/self/limits` (fallback 1024).
fn fd_soft_limit() -> u64 {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(1024)
}

/// Descriptors this process holds open.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(0)
}

/// Threads of this process, total and gateway-owned (the `gw-`
/// pool/reactor threads).
fn thread_counts() -> (usize, usize) {
    let mut total = 0;
    let mut gateway = 0;
    if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
        for e in entries.flatten() {
            total += 1;
            if let Ok(c) = std::fs::read_to_string(e.path().join("comm")) {
                if c.trim().starts_with("gw-") {
                    gateway += 1;
                }
            }
        }
    }
    (total, gateway)
}

struct ScaleOutcome {
    json: JsonValue,
    gateway_threads: usize,
    p99_us: f64,
}

/// Run one scale point: `conns` devices each sending `frames_per_conn`
/// stamped frames at the gateway, which drains them on a sink thread.
fn run_scale(conns: usize, frames_per_conn: usize) -> ScaleOutcome {
    let watermark = WatermarkConfig::new(64 << 20, 1 << 20);
    // The rig outlives the endpoints; the pool must drop before the
    // reactor so retiring tasks can still deregister their sockets.
    let reactor = Reactor::new("gw").expect("reactor thread");
    let io_pool = IoPool::new("gw", IO_THREADS);
    let driver = NetDriver::new(io_pool.spawner(), reactor.handle());
    let rx = TcpReceiver::bind_reactor("127.0.0.1:0", watermark, &driver).expect("bind gateway");
    let addr = rx.local_addr();

    // Sink: drain the inbound queue, measuring sender-stamp → pop.
    let expected = (conns * frames_per_conn) as u64;
    let received = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let queue = rx.queue().clone();
    let sink = {
        let received = received.clone();
        let latencies = latencies.clone();
        std::thread::spawn(move || {
            while received.load(Ordering::Relaxed) < expected {
                let Some(frame) = queue.pop_timeout(Duration::from_millis(50)) else {
                    if queue.is_closed() {
                        break;
                    }
                    continue;
                };
                if frame.sent_at_micros > 0 {
                    let lat = now_micros().saturating_sub(frame.sent_at_micros);
                    latencies.lock().unwrap().push(lat as f64);
                }
                received.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    // Device fleet: connect everything first (so the thread audit sees
    // the full fleet open), then stream on a shared go signal.
    let connected = Arc::new(AtomicU64::new(0));
    let go = Arc::new(AtomicBool::new(false));
    let compressor = SelectiveCompressor::disabled();
    let mut devices = Vec::with_capacity(DEVICE_THREADS);
    let mut first_id = 0usize;
    for t in 0..DEVICE_THREADS {
        let connected = connected.clone();
        let go = go.clone();
        // Spread any remainder across the first threads.
        let share = conns / DEVICE_THREADS + usize::from(t < conns % DEVICE_THREADS);
        let base_id = first_id;
        first_id += share;
        devices.push(std::thread::spawn(move || {
            let mut socks = Vec::with_capacity(share);
            for _ in 0..share {
                let s = TcpStream::connect(addr).expect("device connect");
                s.set_nodelay(true).expect("nodelay");
                socks.push(s);
                connected.fetch_add(1, Ordering::Relaxed);
            }
            while !go.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut body = Vec::with_capacity(4 + PAYLOAD_BYTES);
            let mut wire = Vec::new();
            for round in 0..frames_per_conn {
                for (i, s) in socks.iter_mut().enumerate() {
                    body.clear();
                    body.extend_from_slice(&(PAYLOAD_BYTES as u32).to_le_bytes());
                    body.resize(4 + PAYLOAD_BYTES, 0xA5);
                    let header = FrameHeader {
                        link_id: (base_id + i) as u64,
                        base_seq: round as u64,
                        count: 1,
                        sent_at_micros: now_micros(),
                        ..FrameHeader::default()
                    };
                    wire.clear();
                    encode_frame_into(&mut wire, &header, &body, &compressor);
                    s.write_all(&wire).expect("device write");
                }
            }
            // Keep sockets open until the harness finishes measuring.
            socks
        }));
    }

    // Audit threads with the whole fleet connected but idle.
    let connect_deadline = Instant::now() + Duration::from_secs(60);
    while connected.load(Ordering::Relaxed) < conns as u64 {
        assert!(Instant::now() < connect_deadline, "fleet connect timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Accepted ends register asynchronously; wait until the gateway
    // sees them all before the audit.
    let accept_deadline = Instant::now() + Duration::from_secs(60);
    while rx.connections() < conns {
        assert!(Instant::now() < accept_deadline, "gateway accept timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (process_threads, gateway_threads) = thread_counts();

    let t0 = Instant::now();
    go.store(true, Ordering::Release);
    let drain_deadline = Instant::now() + Duration::from_secs(300);
    while received.load(Ordering::Relaxed) < expected {
        assert!(
            Instant::now() < drain_deadline,
            "sink drained only {}/{expected} frames",
            received.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let backlog_peak = rx.accept_backlog_peak();
    let decode_errors = rx.decode_errors();
    let reactor_stats = reactor.stats();

    // Teardown: fleet first, then receiver, pool, reactor.
    let sockets: Vec<_> = devices.into_iter().map(|d| d.join().expect("device thread")).collect();
    drop(sockets);
    rx.shutdown();
    sink.join().expect("sink thread");
    drop(io_pool);
    drop(reactor);

    let mut lat = latencies.lock().unwrap().clone();
    lat.sort_by(|a, b| a.total_cmp(b));
    let p50 = percentile_of_sorted(&lat, 50.0);
    let p99 = percentile_of_sorted(&lat, 99.0);
    let throughput = expected as f64 / elapsed;
    assert_eq!(decode_errors, 0, "gateway must decode every device frame");

    println!(
        "conns={conns:5}  gateway_threads={gateway_threads:4}  \
         p50={p50:8.0}µs  p99={p99:8.0}µs  {throughput:9.0} frames/s"
    );
    let json = object([
        ("connections", JsonValue::Number(conns as f64)),
        ("frames", JsonValue::Number(expected as f64)),
        ("gateway_threads", JsonValue::Number(gateway_threads as f64)),
        ("process_threads", JsonValue::Number(process_threads as f64)),
        ("io_threads", JsonValue::Number(IO_THREADS as f64)),
        ("p50_us", JsonValue::Number(p50)),
        ("p99_us", JsonValue::Number(p99)),
        ("throughput_fps", JsonValue::Number(throughput)),
        ("accept_backlog_peak", JsonValue::Number(backlog_peak as f64)),
        ("reactor_interests", JsonValue::Number(reactor_stats.registered as f64)),
        ("reactor_events", JsonValue::Number(reactor_stats.events_dispatched as f64)),
        ("reactor_rearms", JsonValue::Number(reactor_stats.rearms as f64)),
    ]);
    ScaleOutcome { json, gateway_threads, p99_us: p99 }
}

fn main() {
    // A device/sink-thread assertion must fail the whole run, not leave
    // main spinning toward a 300 s drain deadline with exit 0.
    neptune_bench::failfast();
    let quick = std::env::args().any(|a| a == "--quick");
    let frames_per_conn = if quick { 20 } else { 25 };
    let sweep: &[usize] = if quick { &[64, 256, 512] } else { &[64, 256, 1024, 4096] };

    // Every device costs two fds here (client end + accepted end); keep
    // a third of the budget free for pool/reactor/listener plumbing.
    let fd_limit = fd_soft_limit();
    let max_conns = ((fd_limit.saturating_sub(128)) / 3).max(16) as usize;
    // `clamped` must catch the partial case too: a limit that merely
    // shrinks the top scale (without collapsing two scales into one)
    // still bends the curve and must be flagged in the artifact.
    let clamped = sweep.iter().any(|&c| c > max_conns);
    let mut scales: Vec<usize> = sweep.iter().map(|&c| c.min(max_conns)).collect();
    scales.dedup();
    if clamped {
        eprintln!(
            "ingestion_gateway: WARNING: fd soft limit {fd_limit} clamps the sweep \
             to {max_conns} connections (raise with `ulimit -n` for the full curve)"
        );
    }

    println!("# ingestion_gateway — connections vs gateway threads vs sink p99\n");
    let fds_before = open_fds();
    let outcomes: Vec<ScaleOutcome> =
        scales.iter().map(|&c| run_scale(c, frames_per_conn)).collect();
    let fds_after = open_fds();

    let mut table = Table::new(&["connections", "gateway threads", "p99 (µs)"]);
    for (outcome, conns) in outcomes.iter().zip(scales.iter()) {
        table.row(vec![
            format!("{conns}"),
            format!("{}", outcome.gateway_threads),
            format!("{:.0}", outcome.p99_us),
        ]);
    }
    table.print();

    // Acceptance: the gateway's thread count must not grow with the
    // device count — O(io_threads), flat across the whole sweep.
    let first = outcomes.first().expect("at least one scale").gateway_threads;
    for (outcome, conns) in outcomes.iter().zip(scales.iter()) {
        assert_eq!(
            outcome.gateway_threads, first,
            "gateway threads must stay flat ({first} at {} conns, {} at {conns})",
            scales[0], outcome.gateway_threads
        );
    }
    // And every connection gives its descriptors back: thousands were
    // opened, a leak of one each could not hide in this margin.
    assert!(
        fds_after <= fds_before + 8,
        "descriptors leaked across the sweep: {fds_before} before, {fds_after} after"
    );
    println!(
        "\ngateway holds {first} threads from {} to {} connections; \
         {fds_before} descriptors open before the sweep, {fds_after} after",
        scales[0],
        scales[scales.len() - 1],
    );

    let doc = object([
        ("bench", JsonValue::String("ingestion_gateway".into())),
        ("quick", JsonValue::Bool(quick)),
        ("fd_soft_limit", JsonValue::Number(fd_limit as f64)),
        ("clamped", JsonValue::Bool(clamped)),
        ("max_connections", JsonValue::Number(max_conns as f64)),
        ("io_threads", JsonValue::Number(IO_THREADS as f64)),
        ("frames_per_connection", JsonValue::Number(frames_per_conn as f64)),
        ("fds_before", JsonValue::Number(fds_before as f64)),
        ("fds_after", JsonValue::Number(fds_after as f64)),
        ("reactor_scales", JsonValue::Array(outcomes.into_iter().map(|o| o.json).collect())),
    ]);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingestion.json");
    std::fs::write(&out, doc.to_json()).expect("write BENCH_ingestion.json");
    println!("wrote {}", out.display());
}
