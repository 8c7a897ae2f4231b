//! Backpressure integration tests — §III-B4 end to end.
//!
//! The paper's claims under test:
//! * the source's emission rate is governed by the slowest downstream
//!   stage (Fig. 4),
//! * no packets are dropped (*"Some frameworks employ a fail-fast
//!   technique where the senders drop messages ... which causes loss of
//!   messages"* — NEPTUNE must not),
//! * queue levels stay bounded by the watermarks,
//! * the system recovers when the slow stage speeds back up.

use neptune::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Firehose {
    emitted: Arc<AtomicU64>,
    limit: u64,
}
impl StreamSource for Firehose {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.emitted.load(Ordering::Relaxed) >= self.limit {
            return SourceStatus::Exhausted;
        }
        let mut p = StreamPacket::new();
        p.push_field("n", FieldValue::U64(self.emitted.load(Ordering::Relaxed)));
        match ctx.emit(&p) {
            Ok(()) => {
                self.emitted.fetch_add(1, Ordering::Relaxed);
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

struct PacedSink {
    processed: Arc<AtomicU64>,
    delay_us: Arc<AtomicU64>,
}
impl StreamProcessor for PacedSink {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        let us = self.delay_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
        self.processed.fetch_add(1, Ordering::Relaxed);
    }
}

fn tight_config() -> RuntimeConfig {
    RuntimeConfig {
        buffer_bytes: 2048,
        flush_interval: Duration::from_millis(2),
        // The high watermark must sit well below the mid-run gap bound
        // asserted by `slow_sink_throttles_source_without_loss` (2_500
        // packets at ~13 wire bytes each), otherwise the gate only engages
        // in the same region the gap assertion forbids and the two checks
        // race each other.
        watermark_high: 8 * 1024,
        watermark_low: 2 * 1024,
        ..Default::default()
    }
}

#[test]
fn slow_sink_throttles_source_without_loss() {
    let emitted = Arc::new(AtomicU64::new(0));
    let processed = Arc::new(AtomicU64::new(0));
    let delay = Arc::new(AtomicU64::new(200)); // 200 us per packet
    let (e2, p2, d2) = (emitted.clone(), processed.clone(), delay.clone());

    let n = 3_000u64;
    let graph = GraphBuilder::new("bp-throttle")
        .source("src", move || Firehose { emitted: e2.clone(), limit: n })
        .processor("relay", || Forward)
        .processor("sink", move || PacedSink { processed: p2.clone(), delay_us: d2.clone() })
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let job = LocalRuntime::new(tight_config()).submit(graph).unwrap();

    // Mid-run: the source must not be arbitrarily far ahead of the sink —
    // in-flight data is bounded by buffers + watermarks (in packets:
    // a few thousand at these sizes), not by the total stream length.
    std::thread::sleep(Duration::from_millis(300));
    let e = emitted.load(Ordering::Relaxed);
    let p = processed.load(Ordering::Relaxed);
    if e < n {
        // Still running: the gap must be bounded.
        let gap = e - p;
        assert!(gap < 2_500, "source ran {gap} packets ahead despite watermarks");
    }
    assert!(job.await_sources(Duration::from_secs(120)));
    let gate_closures = job.total_gate_closures();
    let metrics = job.stop();
    assert_eq!(processed.load(Ordering::Relaxed), n, "backpressure must not drop");
    assert_eq!(metrics.total_seq_violations(), 0);
    assert!(gate_closures > 0, "the watermark gate must actually have engaged during the run");
}

#[test]
fn source_rate_tracks_sink_rate_inversely() {
    // Fig. 4's staircase, compressed: two phases (fast, slow); the source
    // rate in the slow phase must be a fraction of the fast phase.
    let emitted = Arc::new(AtomicU64::new(0));
    let processed = Arc::new(AtomicU64::new(0));
    let delay = Arc::new(AtomicU64::new(0));
    let (e2, p2, d2) = (emitted.clone(), processed.clone(), delay.clone());

    let graph = GraphBuilder::new("bp-staircase")
        .source("src", move || Firehose { emitted: e2.clone(), limit: u64::MAX })
        .processor("relay", || Forward)
        .processor("sink", move || PacedSink { processed: p2.clone(), delay_us: d2.clone() })
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let job = LocalRuntime::new(tight_config()).submit(graph).unwrap();

    let measure = |window_ms: u64| {
        let e0 = emitted.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(window_ms));
        let e1 = emitted.load(Ordering::Relaxed);
        (e1 - e0) as f64 / (window_ms as f64 / 1000.0)
    };

    delay.store(0, Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(100)); // settle
    let fast = measure(400);
    delay.store(1_000, Ordering::Relaxed); // 1 ms per packet -> ~1k/s
    std::thread::sleep(Duration::from_millis(100));
    let slow = measure(400);
    delay.store(0, Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(100));
    let recovered = measure(400);
    job.stop();

    assert!(slow < fast / 4.0, "slow-phase source rate {slow:.0} not throttled vs fast {fast:.0}");
    assert!(recovered > slow * 4.0, "source did not recover: {recovered:.0} after slow {slow:.0}");
}

#[test]
fn watermark_queue_levels_stay_bounded() {
    // Indirect but strong: with a sink 100x slower than the source, run
    // for a while and verify completion with zero loss — if queues were
    // unbounded the settle phase would never converge within the window,
    // and if flow control dropped packets the count would be short.
    let emitted = Arc::new(AtomicU64::new(0));
    let processed = Arc::new(AtomicU64::new(0));
    let delay = Arc::new(AtomicU64::new(50));
    let (e2, p2, d2) = (emitted.clone(), processed.clone(), delay.clone());
    let n = 5_000u64;
    let graph = GraphBuilder::new("bp-bounded")
        .source("src", move || Firehose { emitted: e2.clone(), limit: n })
        .processor("sink", move || PacedSink { processed: p2.clone(), delay_us: d2.clone() })
        .link("src", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let job = LocalRuntime::new(tight_config()).submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(120)));
    let metrics = job.stop();
    assert_eq!(processed.load(Ordering::Relaxed), n);
    assert_eq!(metrics.operator("sink").packets_in, n);
    assert_eq!(metrics.total_seq_violations(), 0);
}

#[test]
fn backpressure_propagates_through_multiple_stages() {
    // Fig. 3: the slow stage is C, two hops from the source; pressure must
    // cross the intermediate stage B.
    let emitted = Arc::new(AtomicU64::new(0));
    let processed = Arc::new(AtomicU64::new(0));
    let delay = Arc::new(AtomicU64::new(500));
    let (e2, p2, d2) = (emitted.clone(), processed.clone(), delay.clone());
    let graph = GraphBuilder::new("bp-chain")
        .source("a", move || Firehose { emitted: e2.clone(), limit: u64::MAX })
        .processor("b", || Forward)
        .processor("c", move || PacedSink { processed: p2.clone(), delay_us: d2.clone() })
        .link("a", "b", PartitioningScheme::Shuffle)
        .link("b", "c", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let job = LocalRuntime::new(tight_config()).submit(graph).unwrap();
    // Let the pipeline fill to its watermark-bounded capacity.
    std::thread::sleep(Duration::from_millis(700));
    let gap1 = emitted.load(Ordering::Relaxed) - processed.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(700));
    let gap2 = emitted.load(Ordering::Relaxed) - processed.load(Ordering::Relaxed);
    let p = processed.load(Ordering::Relaxed);
    job.stop();
    // Once the watermark capacity is full, the source can only run at the
    // sink's pace: the emitted-minus-processed gap must stop growing. An
    // unthrottled source would add hundreds of thousands of packets in
    // 700 ms.
    assert!(gap2 < gap1 + 2_000, "pressure failed to propagate: gap grew {gap1} -> {gap2}");
    // And the absolute gap stays within the configured in-flight budget
    // (watermarks + buffers across two hops), far below free-run volume.
    assert!(gap2 < 20_000, "gap {gap2} exceeds any bounded-queue explanation");
    assert!(p > 0, "sink made no progress");
}
