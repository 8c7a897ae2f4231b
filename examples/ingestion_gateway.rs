//! Ingestion gateway — a simulated device fleet fans into **one job**
//! over the readiness-driven IO tier.
//!
//! Hundreds of devices open real TCP connections to a reactor-backed
//! gateway receiver. Every connection is an IO task multiplexed onto a
//! two-thread event-driven pool (plus one epoll reactor thread), so the
//! gateway's thread bill stays O(io_threads) no matter how large the
//! fleet grows — the §IV-C two-tier model applied to the network edge.
//! A bridge source pumps the decoded frames into a NEPTUNE job that
//! aggregates readings per device.
//!
//! Run with:
//! ```text
//! cargo run --release --example ingestion_gateway
//! ```

use neptune::compress::SelectiveCompressor;
use neptune::granules::{IoPool, Reactor};
use neptune::net::frame::{encode_frame_into, Frame, FrameHeader};
use neptune::net::tcp::TcpReceiver;
use neptune::net::watermark::{WatermarkConfig, WatermarkQueue};
use neptune::net::NetDriver;
use neptune::prelude::*;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Target fleet size, clamped at startup to the process fd budget:
/// each device costs a client and an accepted descriptor in this
/// single-process demo.
const DEVICES: usize = 512;
/// Readings each device streams before hanging up.
const READINGS_PER_DEVICE: usize = 20;
/// Threads simulating the fleet — deliberately far fewer than devices.
const FLEET_THREADS: usize = 4;
/// Event-driven IO threads serving every gateway connection.
const IO_THREADS: usize = 2;

/// Bridges the gateway's inbound frame queue into the job as a stream
/// source: one packet per device reading, exhausted once the whole
/// fleet's traffic has been pumped.
struct GatewayBridge {
    queue: Arc<WatermarkQueue<Frame>>,
    frames_seen: u64,
    expected_frames: u64,
}

impl StreamSource for GatewayBridge {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.frames_seen >= self.expected_frames {
            return SourceStatus::Exhausted;
        }
        let Some(frame) = self.queue.pop() else {
            return SourceStatus::Idle;
        };
        self.frames_seen += 1;
        let mut emitted = 0;
        for msg in frame.messages.iter() {
            let reading = u64::from_le_bytes(msg[..8].try_into().expect("8-byte reading"));
            let mut p = StreamPacket::new();
            p.push_field("device", FieldValue::U64(frame.link_id))
                .push_field("reading", FieldValue::U64(reading));
            if ctx.emit(&p).is_err() {
                return SourceStatus::Exhausted;
            }
            emitted += 1;
        }
        SourceStatus::Emitted(emitted)
    }
}

/// Per-device aggregation: count and sum of readings.
struct Aggregate {
    per_device: Arc<Mutex<HashMap<u64, (u64, u64)>>>,
    total: Arc<AtomicU64>,
}

impl StreamProcessor for Aggregate {
    fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
        let device = p.get("device").and_then(|f| f.as_u64()).expect("device field");
        let reading = p.get("reading").and_then(|f| f.as_u64()).expect("reading field");
        let mut map = self.per_device.lock().unwrap();
        let entry = map.entry(device).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += reading;
        self.total.fetch_add(1, Ordering::Relaxed);
    }
}

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

/// Threads whose name starts with `prefix` (gateway thread audit).
fn threads_prefixed(prefix: &str) -> usize {
    let mut n = 0;
    if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
        for e in entries.flatten() {
            if let Ok(c) = std::fs::read_to_string(e.path().join("comm")) {
                if c.trim().starts_with(prefix) {
                    n += 1;
                }
            }
        }
    }
    n
}

fn main() {
    // Two fds per device plus headroom for the pool/reactor/listener.
    let fd_limit = fd_soft_limit();
    let devices = DEVICES.min(((fd_limit.saturating_sub(64)) / 3) as usize).max(8);
    if devices < DEVICES {
        println!("fd soft limit {fd_limit} clamps the fleet to {devices} devices");
    }

    // The gateway rig: epoll reactor + event-driven pool + nonblocking
    // receiver. Declared reactor-first so the pool drops before it at
    // the end (retiring tasks deregister against a live reactor).
    let reactor = Reactor::new("gateway").expect("reactor thread");
    let io_pool = IoPool::new("gateway", IO_THREADS);
    let driver = NetDriver::new(io_pool.spawner(), reactor.handle());
    let rx =
        TcpReceiver::bind_reactor("127.0.0.1:0", WatermarkConfig::new(32 << 20, 1 << 20), &driver)
            .expect("bind gateway");
    let addr = rx.local_addr();
    println!("gateway listening on {addr} ({IO_THREADS} IO threads + 1 reactor thread)");

    // The job: bridge source → per-device aggregation sink.
    let per_device = Arc::new(Mutex::new(HashMap::new()));
    let total = Arc::new(AtomicU64::new(0));
    let (map2, total2) = (per_device.clone(), total.clone());
    let queue = rx.queue().clone();
    let graph = GraphBuilder::new("ingestion")
        .source("gateway", move || GatewayBridge {
            queue: queue.clone(),
            frames_seen: 0,
            expected_frames: (devices * READINGS_PER_DEVICE) as u64,
        })
        .processor("aggregate", move || Aggregate {
            per_device: map2.clone(),
            total: total2.clone(),
        })
        .link("gateway", "aggregate", PartitioningScheme::Shuffle)
        .build()
        .expect("valid graph");
    let job = LocalRuntime::new(RuntimeConfig::default()).submit(graph).expect("deploys");

    // The fleet: each thread drives a slice of the devices, one TCP
    // connection per device, streaming stamped readings round-robin.
    let compressor = SelectiveCompressor::disabled();
    let mut fleet = Vec::with_capacity(FLEET_THREADS);
    let mut first_device = 0usize;
    for t in 0..FLEET_THREADS {
        let share = devices / FLEET_THREADS + usize::from(t < devices % FLEET_THREADS);
        let base = first_device;
        first_device += share;
        fleet.push(std::thread::spawn(move || {
            let mut socks: Vec<TcpStream> = (0..share)
                .map(|_| {
                    let s = TcpStream::connect(addr).expect("device connect");
                    s.set_nodelay(true).expect("nodelay");
                    s
                })
                .collect();
            for round in 0..READINGS_PER_DEVICE {
                for (i, s) in socks.iter_mut().enumerate() {
                    let device = (base + i) as u64;
                    // One 8-byte reading, length-prefixed, per frame.
                    let reading = device * 1000 + round as u64;
                    let mut body = Vec::with_capacity(12);
                    body.extend_from_slice(&8u32.to_le_bytes());
                    body.extend_from_slice(&reading.to_le_bytes());
                    let header = FrameHeader {
                        link_id: device,
                        base_seq: round as u64,
                        count: 1,
                        sent_at_micros: neptune::core::now_micros(),
                        ..FrameHeader::default()
                    };
                    let mut wire = Vec::new();
                    encode_frame_into(&mut wire, &header, &body, &compressor);
                    s.write_all(&wire).expect("device write");
                }
            }
        }));
    }
    for f in fleet {
        f.join().expect("fleet thread");
    }
    println!("fleet done: {devices} devices sent {READINGS_PER_DEVICE} readings each");

    // While the gateway still holds the fleet's connections, audit the
    // thread bill: the whole edge runs on IO_THREADS + 1 threads.
    let gateway_threads = threads_prefixed("gateway-");
    assert_eq!(
        gateway_threads,
        IO_THREADS + 1,
        "gateway must run on io_threads + reactor, not per-connection threads"
    );

    assert!(job.await_sources(Duration::from_secs(60)), "bridge source must exhaust");
    assert!(job.settle(Duration::from_secs(30)), "job must settle");
    let stats = reactor.stats();
    job.stop();
    rx.shutdown();
    drop(io_pool);
    drop(reactor);

    let map = per_device.lock().unwrap();
    let expected = (devices * READINGS_PER_DEVICE) as u64;
    assert_eq!(total.load(Ordering::Relaxed), expected, "every reading must arrive");
    assert_eq!(map.len(), devices, "every device must be represented");
    assert!(map.values().all(|&(count, _)| count == READINGS_PER_DEVICE as u64));
    let grand_total: u64 = map.values().map(|&(_, sum)| sum).sum();
    println!(
        "aggregated {expected} readings from {} devices (sum {grand_total}) \
         on {gateway_threads} gateway threads \
         ({} readiness events, {} re-arms)",
        map.len(),
        stats.events_dispatched,
        stats.rearms
    );
    println!("ingestion_gateway OK — connection count never touched the thread bill");
}
