//! Nothing waits on an IO thread — the yardstick, as a test.
//!
//! A two-hop job over loopback TCP whose sink stands still until every
//! buffer between it and the source is full: the sink's inbound queue
//! gates, its connection task stops reading, the kernel buffers of the
//! second hop fill (about 4 MB on Linux loopback, whatever the frame
//! size), the relay's 128-frame sender queue fills, the relay's worker
//! waits, the relay's inbound queue gates, and so on back to the source's
//! own sender queue. What the source's pump and the channels' flush tasks
//! do *then* decides whether the job can finish on a small IO pool: the
//! sender tasks that would drain those queues run on the same threads. A
//! pump that waits for room in its sender queue, or a flush task queued on
//! the channel lock behind a worker that does, holds a thread the sender
//! task needs — with one IO thread that is a certain deadlock, with two a
//! likely one. A pump that stages its batch and parks, and a worker that
//! waits with the channel lock released, are woken by the sender's space
//! listener, and the job completes.
//!
//! Two hundred runs, half on one IO thread and half on two; each must
//! reach that state, then deliver every packet, in order.

use neptune_core::config::TransportMode;
use neptune_core::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RUNS_PER_POOL_SIZE: usize = 100;
/// 11 MB in all: more than two hops of kernel buffers and sender queues.
const PACKETS: u64 = 11_000;
const PAYLOAD_BYTES: usize = 1_000;

struct Flood {
    next: u64,
    payload: Vec<u8>,
}

impl StreamSource for Flood {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.next == PACKETS {
            return SourceStatus::Exhausted;
        }
        let mut p = ctx.checkout_packet();
        p.push_field("n", FieldValue::U64(self.next));
        p.push_field("pad", FieldValue::Bytes(self.payload.clone()));
        let sent = ctx.emit(&p);
        ctx.checkin_packet(p);
        self.next += 1;
        match sent {
            Ok(()) => SourceStatus::Emitted(1),
            Err(_) => SourceStatus::Exhausted,
        }
    }
}

struct Forward;

impl StreamProcessor for Forward {
    fn process(&mut self, p: &StreamPacket, ctx: &mut OperatorContext) {
        let _ = ctx.emit(p);
    }
}

/// Holds its first packet until `go`, then counts packets and checks they
/// arrive in the order they were emitted.
struct StalledSink {
    go: Arc<AtomicBool>,
    seen: Arc<AtomicU64>,
    out_of_order: Arc<AtomicU64>,
}

impl StreamProcessor for StalledSink {
    fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
        // A worker thread of its own: it may wait.
        while !self.go.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(200));
        }
        let n = p.get("n").and_then(|v| v.as_u64()).expect("sequence field");
        if self.seen.fetch_add(1, Ordering::Relaxed) != n {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// True once both hops' sender queues have been full: the relay's behind
/// the stalled sink, and the source's own behind the relay.
fn saturated(job: &JobHandle) -> bool {
    job.link_stats().iter().all(|link| link.sender_full > 0)
}

fn run_once(io_threads: usize, run: usize) {
    let go = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicU64::new(0));
    let out_of_order = Arc::new(AtomicU64::new(0));
    let (g, s, o) = (go.clone(), seen.clone(), out_of_order.clone());
    let graph = GraphBuilder::new(format!("sat-{io_threads}-{run}"))
        .source("src", || Flood { next: 0, payload: vec![0xA5; PAYLOAD_BYTES] })
        .processor("relay", || Forward)
        .processor("sink", move || StalledSink {
            go: g.clone(),
            seen: s.clone(),
            out_of_order: o.clone(),
        })
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .expect("valid graph");
    let config = RuntimeConfig {
        transport: TransportMode::Tcp,
        // One operator per resource: both hops cross sockets.
        resources: 3,
        worker_threads: Some(1),
        io_threads: Some(io_threads),
        // Four packets to a frame — so a buffer can hold a packet while
        // its channel's producer waits for the link — and a 128-frame
        // sender queue is half a megabyte.
        buffer_bytes: 4 << 10,
        watermark_high: 64 << 10,
        watermark_low: 16 << 10,
        ..RuntimeConfig::default()
    };
    let job = LocalRuntime::new(config).submit(graph).expect("job deploys");
    let what = format!("run {run} at io_threads = {io_threads}");

    // Saturate: nothing moves at the sink until backpressure has reached
    // the source's sender queue (or, which fails the run below, the source
    // got everything out without it).
    let deadline = Instant::now() + Duration::from_secs(20);
    while !saturated(&job) && job.active_sources() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let saturated = saturated(&job);
    let gates_closed = job.total_gate_closures();
    go.store(true, Ordering::Release);

    assert!(job.await_sources(Duration::from_secs(20)), "{what}: the source stalled");
    assert!(job.settle(Duration::from_secs(20)), "{what}: the job did not drain");
    let metrics = job.stop();
    assert!(saturated, "{what}: a sender queue never filled");
    assert!(gates_closed >= 2, "{what}: both inbound gates must have closed");
    assert_eq!(seen.load(Ordering::Relaxed), PACKETS, "{what}: packets lost");
    assert_eq!(out_of_order.load(Ordering::Relaxed), 0, "{what}: packets reordered");
    assert_eq!(metrics.total_seq_violations(), 0, "{what}");
}

#[test]
fn a_saturated_two_hop_tcp_job_completes_on_one_io_thread() {
    for run in 0..RUNS_PER_POOL_SIZE {
        run_once(1, run);
    }
}

#[test]
fn a_saturated_two_hop_tcp_job_completes_on_two_io_threads() {
    for run in 0..RUNS_PER_POOL_SIZE {
        run_once(2, run);
    }
}
