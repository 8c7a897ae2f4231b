//! End-to-end relay integration: the Fig. 1 topology exercised across
//! transports, resource counts, parallelism, and scheduling modes, with
//! the paper's correctness contract asserted throughout: *"Our proposed
//! solution should not result in dropped or corrupted stream packets.
//! Furthermore, packets must be processed in-order and exactly-once."*

use neptune::core::config::TransportMode;
use neptune::granules::sync::Mutex;
use neptune::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct SeqSource {
    remaining: u64,
    next: u64,
    payload: usize,
}

impl StreamSource for SeqSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.remaining == 0 {
            return SourceStatus::Exhausted;
        }
        let mut p = StreamPacket::new();
        p.push_field("seq", FieldValue::U64(self.next))
            .push_field("ts", FieldValue::Timestamp(now_micros()))
            .push_field("pad", FieldValue::Bytes(vec![0xAB; self.payload]));
        match ctx.emit(&p) {
            Ok(()) => {
                self.next += 1;
                self.remaining -= 1;
                SourceStatus::Emitted(1)
            }
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

#[derive(Default)]
struct Audit {
    seen: AtomicU64,
    sum: AtomicU64,
    corrupt: AtomicU64,
    max_latency_us: AtomicU64,
}

struct AuditSink {
    audit: Arc<Audit>,
    payload: usize,
}
impl StreamProcessor for AuditSink {
    fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
        self.audit.seen.fetch_add(1, Ordering::Relaxed);
        match p.get("seq").and_then(|v| v.as_u64()) {
            Some(seq) => {
                self.audit.sum.fetch_add(seq, Ordering::Relaxed);
            }
            None => {
                self.audit.corrupt.fetch_add(1, Ordering::Relaxed);
            }
        }
        match p.get("pad").and_then(|v| v.as_bytes()) {
            Some(pad) if pad.len() == self.payload && pad.iter().all(|&b| b == 0xAB) => {}
            _ => {
                self.audit.corrupt.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(ts) = p.get("ts").and_then(|v| v.as_timestamp()) {
            let lat = now_micros().saturating_sub(ts);
            self.audit.max_latency_us.fetch_max(lat, Ordering::Relaxed);
        }
    }
}

fn run_relay(
    config: RuntimeConfig,
    n: u64,
    payload: usize,
    relay_par: usize,
) -> (Arc<Audit>, neptune::core::JobMetrics) {
    let audit = Arc::new(Audit::default());
    let sink_audit = audit.clone();
    let graph = GraphBuilder::new("e2e-relay")
        .source("sender", move || SeqSource { remaining: n, next: 0, payload })
        .processor_n("relay", relay_par, || Forward)
        .processor("receiver", move || AuditSink { audit: sink_audit.clone(), payload })
        .link("sender", "relay", PartitioningScheme::Shuffle)
        .link("relay", "receiver", PartitioningScheme::Shuffle)
        .build()
        .expect("valid graph");
    let job = LocalRuntime::new(config).submit(graph).expect("deploys");
    assert!(job.await_sources(Duration::from_secs(120)), "source timed out");
    let metrics = job.stop();
    (audit, metrics)
}

fn assert_exact(audit: &Audit, metrics: &neptune::core::JobMetrics, n: u64) {
    assert_eq!(audit.seen.load(Ordering::Relaxed), n, "exactly-once count");
    assert_eq!(
        audit.sum.load(Ordering::Relaxed),
        n * (n - 1) / 2,
        "payload integrity (sum of sequence numbers)"
    );
    assert_eq!(audit.corrupt.load(Ordering::Relaxed), 0, "no corrupted packets");
    assert_eq!(metrics.total_seq_violations(), 0, "in-order, exactly-once framing");
}

#[test]
fn in_process_single_resource() {
    let (audit, metrics) = run_relay(RuntimeConfig::default(), 20_000, 50, 1);
    assert_exact(&audit, &metrics, 20_000);
}

#[test]
fn in_process_multi_resource_parallel_relay() {
    let config = RuntimeConfig { resources: 3, buffer_bytes: 8 * 1024, ..Default::default() };
    let (audit, metrics) = run_relay(config, 30_000, 100, 4);
    assert_exact(&audit, &metrics, 30_000);
}

#[test]
fn tcp_transport_full_path() {
    let config = RuntimeConfig {
        resources: 2,
        transport: TransportMode::Tcp,
        buffer_bytes: 16 * 1024,
        ..Default::default()
    };
    let (audit, metrics) = run_relay(config, 20_000, 200, 1);
    assert_exact(&audit, &metrics, 20_000);
    // The relay crossed real sockets: wire bytes were accounted.
    assert!(metrics.operator("sender").bytes_out > 20_000 * 200);
}

#[test]
fn tcp_transport_parallel_stages() {
    let config = RuntimeConfig {
        resources: 3,
        transport: TransportMode::Tcp,
        buffer_bytes: 4 * 1024,
        ..Default::default()
    };
    let (audit, metrics) = run_relay(config, 15_000, 64, 3);
    assert_exact(&audit, &metrics, 15_000);
}

#[test]
fn per_message_mode_still_exact() {
    // The Table-I ablation configuration must preserve correctness.
    let config = RuntimeConfig { batched_scheduling: false, ..Default::default() };
    let (audit, metrics) = run_relay(config, 3_000, 50, 1);
    assert_exact(&audit, &metrics, 3_000);
    assert_eq!(metrics.operator("relay").frames_in, 3_000, "one frame per packet");
}

#[test]
fn payload_sizes_sweep() {
    // The Fig. 2 size range: everything from 50 B to 10 KB must flow.
    for payload in [50usize, 400, 10 * 1024] {
        let n = if payload >= 10 * 1024 { 2_000 } else { 10_000 };
        let config = RuntimeConfig { buffer_bytes: 64 * 1024, ..Default::default() };
        let (audit, metrics) = run_relay(config, n, payload, 1);
        assert_exact(&audit, &metrics, n);
    }
}

#[test]
fn tcp_high_volume_teardown_loses_nothing() {
    // Regression test: job teardown used to close queues while frames were
    // still in flight inside TCP sender queues / kernel sockets, dropping
    // the tail of high-volume streams. settle() must wait for
    // frames_out == frames_in across the job.
    let config = RuntimeConfig {
        resources: 2,
        transport: TransportMode::Tcp,
        buffer_bytes: 64 * 1024,
        ..Default::default()
    };
    let (audit, metrics) = run_relay(config, 60_000, 256, 1);
    assert_exact(&audit, &metrics, 60_000);
}

#[test]
fn flush_timer_bounds_latency_of_trickle() {
    // A slow source with huge buffers that never fill: its batch leaves as
    // its sleep inside `next()` ends the pump's stint, or at the latest on
    // the flush timer, so observed end-to-end latency must stay near the
    // timer bound, not the buffer-fill time (which would be ~forever).
    struct Trickle {
        left: u32,
    }
    impl StreamSource for Trickle {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            if self.left == 0 {
                return SourceStatus::Exhausted;
            }
            self.left -= 1;
            let mut p = StreamPacket::new();
            p.push_field("ts", FieldValue::Timestamp(now_micros()));
            ctx.emit(&p).unwrap();
            std::thread::sleep(Duration::from_millis(3));
            SourceStatus::Emitted(1)
        }
    }
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let sink = latencies.clone();
    struct LatSink(Arc<Mutex<Vec<u64>>>);
    impl StreamProcessor for LatSink {
        fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
            if let Some(ts) = p.get("ts").and_then(|v| v.as_timestamp()) {
                self.0.lock().push(now_micros().saturating_sub(ts));
            }
        }
    }
    let graph = GraphBuilder::new("trickle")
        .source("src", || Trickle { left: 50 })
        .processor("sink", move || LatSink(sink.clone()))
        .link("src", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        buffer_bytes: 16 << 20,
        flush_interval: Duration::from_millis(10),
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(60)));
    job.stop();
    let lats = latencies.lock();
    assert_eq!(lats.len(), 50);
    // Soft upper bound: flush timer (10ms) + scheduling slack. The paper
    // promises a "soft upper bound on expected end-to-end latency".
    let p95 = {
        let mut v = lats.clone();
        v.sort_unstable();
        v[(v.len() * 95 / 100).min(v.len() - 1)]
    };
    assert!(p95 < 200_000, "p95 latency {}us exceeds the flush-timer regime", p95);
}
