//! Failure-containment acceptance tests (ISSUE 5).
//!
//! Three claims under test, each seeded via `NEPTUNE_CHAOS_SEED` so the
//! CI chaos job can replay them under several seeds:
//!
//! 1. **Poison quarantine** — an operator that panics deterministically on
//!    one packet loses *only the frame carrying that packet*: every other
//!    packet is delivered, the poison frame lands in the dead-letter queue
//!    with its panic message, and the job completes.
//! 2. **Circuit breaking** — a *persistently* panicking operator trips its
//!    breaker; subsequent frames are drained-and-dropped instead of
//!    wedging the upstream gate, so the source still finishes.
//! 3. **SLO-driven shedding** — under overload, a source held back for
//!    `max_stall` sheds: its emit latency stays bounded while `shed_total`
//!    grows, every packet it did not shed arrives, and nothing past the
//!    source drops one; the same overload without a `max_stall` delivers
//!    losslessly.

use neptune::granules::sync::Mutex;
use neptune::prelude::*;
use neptune::telemetry::EventKind;
use proptest::chaos_seed;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Firehose {
    emitted: Arc<AtomicU64>,
    limit: u64,
    /// Per-emit wall time in micros, for the shed SLO assertion.
    emit_micros: Arc<Mutex<Vec<u64>>>,
}

impl StreamSource for Firehose {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        let n = self.emitted.load(Ordering::Relaxed);
        if n >= self.limit {
            return SourceStatus::Exhausted;
        }
        let mut p = StreamPacket::new();
        p.push_field("n", FieldValue::U64(n));
        let started = Instant::now();
        match ctx.emit(&p) {
            Ok(()) => {
                self.emit_micros.lock().push(started.elapsed().as_micros() as u64);
                self.emitted.fetch_add(1, Ordering::Relaxed);
                SourceStatus::Emitted(1)
            }
            Err(_) => SourceStatus::Exhausted,
        }
    }
}

/// Sink that panics every time it sees the poison value, and records the
/// *distinct* values it completed (retries re-run messages, so a plain
/// counter would double-count).
struct PoisonSink {
    seen: Arc<Mutex<Vec<bool>>>,
    poison: Option<u64>,
    delay: Duration,
}

impl StreamProcessor for PoisonSink {
    fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
        let n = match p.get("n") {
            Some(FieldValue::U64(n)) => *n,
            _ => panic!("malformed packet"),
        };
        if Some(n) == self.poison {
            panic!("poison packet n={n}");
        }
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.seen.lock()[n as usize] = true;
    }
}

/// Sink that panics on *every* packet: the persistently sick operator.
struct AlwaysPanics;

impl StreamProcessor for AlwaysPanics {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        panic!("operator is wedged");
    }
}

fn containment_config() -> RuntimeConfig {
    RuntimeConfig {
        buffer_bytes: 256,
        flush_interval: Duration::from_millis(1),
        containment: ContainmentConfig::enabled(),
        ..Default::default()
    }
}

fn build_job<P, F>(
    name: &str,
    total: u64,
    config: RuntimeConfig,
    emitted: Arc<AtomicU64>,
    emit_micros: Arc<Mutex<Vec<u64>>>,
    sink: F,
) -> JobHandle
where
    P: StreamProcessor + 'static,
    F: Fn() -> P + Send + Sync + 'static,
{
    let graph = GraphBuilder::new(name)
        .source("src", move || Firehose {
            emitted: emitted.clone(),
            limit: total,
            emit_micros: emit_micros.clone(),
        })
        .processor("sink", sink)
        .link("src", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    LocalRuntime::new(config).submit(graph).unwrap()
}

#[test]
fn poison_packet_quarantines_only_its_frame() {
    let seed = chaos_seed();
    let total = 400u64;
    // The poison position moves with the seed; every position must contain.
    let poison = seed.wrapping_mul(0x9E37_79B9) % total;

    let emitted = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(vec![false; total as usize]));
    let seen2 = seen.clone();
    let mut config = containment_config();
    config.containment.max_retries = 2;
    config.containment.breaker_threshold = 100; // keep the breaker out of this test
    let job = build_job(
        "poison-quarantine",
        total,
        config,
        emitted.clone(),
        Arc::new(Mutex::new(Vec::new())),
        move || PoisonSink { seen: seen2.clone(), poison: Some(poison), delay: Duration::ZERO },
    );

    assert!(job.await_sources(Duration::from_secs(60)), "source must finish");
    assert!(job.settle(Duration::from_secs(60)), "sink must drain");

    let letters = job.dead_letters();
    assert_eq!(letters.len(), 1, "exactly one poison frame must be quarantined");
    let letter = &letters[0];
    assert_eq!(letter.operator, "sink");
    assert!(letter.panic_msg.contains(&format!("poison packet n={poison}")));
    assert_eq!(letter.attempts, 3, "1 initial + 2 retries");
    assert!(letter.original_len > 0);
    assert!(!letter.bytes.is_empty(), "payload bytes must be captured");
    // The poison value sits inside the quarantined frame's message range.
    let range = letter.base_seq..letter.base_seq + letter.messages as u64;
    assert!(range.contains(&poison), "poison {poison} outside quarantined range {range:?}");

    // Zero loss elsewhere: every value outside the quarantined frame was
    // processed. (Values inside the frame but before the poison message
    // may also have been processed during the attempts — at-least-once
    // within the retry window.)
    let seen = seen.lock();
    for n in 0..total {
        if !range.contains(&n) {
            assert!(seen[n as usize], "packet {n} lost outside the quarantined frame");
        }
    }
    assert!(!seen[poison as usize], "the poison packet itself must never complete");

    let metrics = job.stop();
    let c = metrics.containment;
    assert_eq!(c.quarantined, 1);
    assert_eq!(c.panics, 3);
    assert_eq!(c.retries, 2);
    assert_eq!(c.breaker_trips, 0);
    assert_eq!(c.dead_letters, 1);
    assert_eq!(c.shed_total, 0, "no shedding in a lossless-policy run");
    assert_eq!(c.worker_panics, 0, "supervision must catch below the pool");
}

#[test]
fn persistent_failure_trips_breaker_without_stalling_source() {
    let total = 600u64;
    let emitted = Arc::new(AtomicU64::new(0));
    let mut config = containment_config();
    config.containment.max_retries = 0;
    config.containment.breaker_threshold = 3;
    // Long cooldown: the breaker must stay open for the rest of the run.
    config.containment.breaker_cooldown = Duration::from_secs(30);
    let job = build_job(
        "breaker-trip",
        total,
        config,
        emitted.clone(),
        Arc::new(Mutex::new(Vec::new())),
        || AlwaysPanics,
    );

    // The whole point: a persistently failing sink must not wedge the
    // upstream gate — the source still finishes in bounded time.
    assert!(job.await_sources(Duration::from_secs(60)), "source stalled behind a sick sink");
    assert!(job.settle(Duration::from_secs(60)));
    assert_eq!(emitted.load(Ordering::Relaxed), total);

    let letters = job.dead_letters();
    assert_eq!(letters.len(), 3, "threshold quarantines, then the breaker rejects");
    let metrics = job.stop();
    let c = metrics.containment;
    assert_eq!(c.quarantined, 3);
    assert_eq!(c.breaker_trips, 1);
    assert!(c.breaker_dropped > 0, "open breaker must drain-and-drop");
    assert_eq!(c.retries, 0);
}

/// ISSUE 10 satellite: checkpoint barrier frames are control plane, not
/// data — even when *every* data frame around them is quarantined, no
/// barrier may land in the dead-letter queue or count as a shed drop,
/// and alignment must keep completing rounds through the carnage.
#[test]
fn barriers_never_enter_the_dead_letter_queue() {
    let total = 400u64;
    let emitted = Arc::new(AtomicU64::new(0));
    let mut config = containment_config();
    config.containment.max_retries = 0;
    config.containment.breaker_threshold = 1_000_000; // quarantine every frame
    config.checkpoint = CheckpointConfig::every(Duration::from_millis(2));
    let job = build_job(
        "barrier-dlq-exemption",
        total,
        config,
        emitted.clone(),
        Arc::new(Mutex::new(Vec::new())),
        || AlwaysPanics,
    );
    assert!(job.await_sources(Duration::from_secs(60)));
    assert!(job.settle(Duration::from_secs(60)));
    assert_eq!(emitted.load(Ordering::Relaxed), total);

    let letters = job.dead_letters();
    assert!(!letters.is_empty(), "every data frame should have been quarantined");
    for letter in &letters {
        assert!(
            letter.messages > 0,
            "a zero-message (control) frame reached the dead-letter queue"
        );
    }
    let stats = job.checkpoint_stats().expect("checkpointing enabled");
    assert!(
        stats.completed + stats.in_flight + stats.abandoned > 0,
        "barrier rounds must have been requested"
    );
    let metrics = job.stop();
    assert_eq!(metrics.containment.shed_total, 0, "barriers must never count as shed drops");
}

#[test]
fn drop_oldest_bounds_source_latency_under_overload() {
    let total = 1_500u64;
    let emitted = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(vec![false; total as usize]));
    let seen2 = seen.clone();
    let emit_micros = Arc::new(Mutex::new(Vec::new()));
    let mut config = containment_config();
    // Small watermarks so the slow sink gates quickly, and a short stall
    // budget so the source sheds within the test's patience.
    config.watermark_high = 4 * 1024;
    config.watermark_low = 1024;
    config.containment.max_stall = Some(Duration::from_millis(10));
    let job = build_job(
        "shed-at-source",
        total,
        config,
        emitted.clone(),
        emit_micros.clone(),
        move || PoisonSink {
            seen: seen2.clone(),
            poison: None,
            delay: Duration::from_micros(400), // ~2x the source's pace
        },
    );

    assert!(job.await_sources(Duration::from_secs(60)), "shedding source must not stall");
    assert!(job.settle(Duration::from_secs(60)));
    let metrics = job.stop();
    let shed = metrics.containment.shed_total;
    assert!(shed > 0, "overload must actually shed");

    // The SLO: no single emit may block longer than the shed stall budget
    // plus generous scheduling slack — far below the unbounded waits a
    // lossless gate would impose on a persistently slower consumer.
    let mut lat = emit_micros.lock().clone();
    assert!(!lat.is_empty());
    lat.sort_unstable();
    let p99 = lat[(lat.len() - 1) * 99 / 100];
    assert!(p99 < 250_000, "p99 emit latency {p99}us breaches the shed SLO (max_stall=10ms)");
    // Shedding sacrifices packets at the source and only there: the sink
    // saw strictly fewer than were emitted, and every one the source did
    // not shed.
    let delivered = seen.lock().iter().filter(|s| **s).count() as u64;
    assert!(delivered < total, "overload with a stall budget must lose something");
    assert!(delivered > 0);
    assert_eq!(delivered, total - shed, "a packet the source did not shed went missing");
}

/// Only the source sheds: a relay between it and a slow sink is held back
/// like any processor, and delivers every packet it received.
#[test]
fn a_relay_behind_a_shedding_source_delivers_everything_it_received() {
    struct Relay;
    impl StreamProcessor for Relay {
        fn process(&mut self, p: &StreamPacket, ctx: &mut OperatorContext) {
            ctx.emit(p).expect("downstream open");
        }
    }
    let total = 1_500u64;
    let emitted = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(vec![false; total as usize]));
    let seen2 = seen.clone();
    let mut config = containment_config();
    config.watermark_high = 4 * 1024;
    config.watermark_low = 1024;
    config.containment.max_stall = Some(Duration::from_millis(10));
    let graph = GraphBuilder::new("shed-behind-relay")
        .source("src", move || Firehose {
            emitted: emitted.clone(),
            limit: total,
            emit_micros: Arc::new(Mutex::new(Vec::new())),
        })
        .processor("relay", || Relay)
        .processor("sink", move || PoisonSink {
            seen: seen2.clone(),
            poison: None,
            delay: Duration::from_micros(400),
        })
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(60)), "shedding source must not stall");
    assert!(job.settle(Duration::from_secs(60)));
    // One event per episode, each counting what it dropped.
    let episodes: Vec<u64> = job
        .flight_recorder()
        .iter()
        .filter(|e| e.kind == EventKind::Shed)
        .map(|e| e.detail)
        .collect();
    let metrics = job.stop();
    let shed = metrics.containment.shed_total;
    assert!(shed > 0, "the slow sink must push back until the source sheds");
    assert!(!episodes.is_empty(), "no shedding episode was timelined");
    assert!(episodes.iter().all(|&n| n > 0), "an episode that dropped nothing: {episodes:?}");
    assert!(episodes.iter().sum::<u64>() <= shed, "episodes {episodes:?} exceed {shed}");
    let (src, relay, sink) =
        (metrics.operator("src"), metrics.operator("relay"), metrics.operator("sink"));
    assert_eq!(src.packets_out + shed, total, "the source emitted or shed each packet");
    assert_eq!(relay.packets_in, src.packets_out, "the source→relay hop dropped packets");
    assert_eq!(relay.packets_out, relay.packets_in);
    assert_eq!(sink.packets_in, relay.packets_out, "the relay→sink hop dropped packets");
    let delivered = seen.lock().iter().filter(|s| **s).count() as u64;
    assert_eq!(delivered, total - shed);
    assert_eq!(metrics.total_seq_violations(), 0);
}

#[test]
fn lossless_policy_delivers_everything_under_same_overload() {
    let total = 1_500u64;
    let emitted = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(vec![false; total as usize]));
    let seen2 = seen.clone();
    let mut config = containment_config();
    config.watermark_high = 4 * 1024;
    config.watermark_low = 1024;
    // No `max_stall` (the default): same overload, zero loss (§III-B4).
    let job = build_job(
        "shed-none-lossless",
        total,
        config,
        emitted.clone(),
        Arc::new(Mutex::new(Vec::new())),
        move || PoisonSink { seen: seen2.clone(), poison: None, delay: Duration::from_micros(400) },
    );

    assert!(job.await_sources(Duration::from_secs(120)));
    assert!(job.settle(Duration::from_secs(120)));
    let metrics = job.stop();
    assert_eq!(metrics.containment.shed_total, 0);
    let delivered = seen.lock().iter().filter(|s| **s).count() as u64;
    assert_eq!(delivered, total, "lossless backpressure must deliver every packet");
    assert_eq!(metrics.total_seq_violations(), 0);
}

/// Containment off is the default: nothing supervises the operator, so its
/// panic unwinds into the worker tier — which retires the task and counts
/// it. The job must still stop; it used to wait for ever on a task that
/// would never run again.
#[test]
fn stop_returns_after_a_processor_panic_with_containment_off() {
    let emitted = Arc::new(AtomicU64::new(0));
    // One packet, so one frame: the books `stop()` settles against balance
    // without the frames a dead operator will never take.
    let job = build_job(
        "panic-bare",
        1,
        RuntimeConfig::default(),
        emitted.clone(),
        Arc::new(Mutex::new(Vec::new())),
        || AlwaysPanics,
    );
    assert!(job.await_sources(Duration::from_secs(10)), "source stalled");
    let deadline = Instant::now() + Duration::from_secs(10);
    while job.metrics().containment.worker_panics == 0 {
        assert!(Instant::now() < deadline, "the panic never reached the worker tier");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (done, stopped) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        let _ = done.send(job.stop());
    });
    let metrics = stopped
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("stop() still out after {:?}", started.elapsed()));
    assert_eq!(metrics.containment.worker_panics, 1);
    assert_eq!(metrics.containment.io_task_panics, 0, "the IO tier saw none of it");
    assert_eq!(metrics.containment.panics, 0, "nothing supervised it");
    assert_eq!(metrics.operator("sink").frames_in, 1);
}
