//! One buffering rule: packets are batched once, where they are born.
//!
//! A source's output buffer fills while its source keeps the pump busy —
//! every call answered at once — and flushes at its byte capacity. When
//! the source stops keeping the pump busy (it answers `Idle` or `Pending`,
//! or sleeps inside `next()`), what it buffered leaves: that is the rule a
//! processor already follows, whose input arrives batched, so its output
//! leaves when that input runs out. The flush timer (§III-B1) is the
//! backstop for what neither rule covers, such as a channel whose pump is
//! parked on another, refusing, link. Latency therefore does not grow with
//! graph depth, and a processor sends no more frames per endpoint than it
//! receives.
//!
//! Whoever fills a buffer flushes it: a source's pump serves its channels'
//! flush timers however it parks, and no task exists per channel. The
//! tests below that say so run on one IO thread and on two.

use neptune::prelude::*;

#[path = "support/parked_pump.rs"]
mod parked_pump;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The IO-tier widths the flushing tests run at.
const IO_THREADS: [usize; 2] = [1, 2];

/// A flush interval far beyond any wait below: no flush timer may be what
/// delivers a batch.
const NEVER: Duration = Duration::from_secs(60);

/// Emits `remaining` timestamped packets, one per `pace`, without holding
/// its IO thread in between: it answers `Idle` until the next is due.
struct Trickle {
    remaining: u64,
    pace: Duration,
    next_due: Option<Instant>,
}

impl Trickle {
    fn new(remaining: u64, pace: Duration) -> Self {
        Trickle { remaining, pace, next_due: None }
    }
}

impl StreamSource for Trickle {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.remaining == 0 {
            return SourceStatus::Exhausted;
        }
        if self.next_due.is_some_and(|due| Instant::now() < due) {
            return SourceStatus::Idle;
        }
        self.next_due = Some(Instant::now() + self.pace);
        self.remaining -= 1;
        let mut p = StreamPacket::new();
        p.push_field("ts", FieldValue::Timestamp(now_micros()))
            .push_field("n", FieldValue::U64(self.remaining));
        ctx.emit(&p).unwrap();
        SourceStatus::Emitted(1)
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

/// Wait until `seen` reaches `n`: every relay's output has then left, so
/// the counts read after `stop()` are the running job's, not teardown's.
fn await_count(seen: &AtomicU64, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.load(Ordering::Relaxed) < n {
        assert!(
            Instant::now() < deadline,
            "{} of {n} packets arrived",
            seen.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Three processor hops behind a trickling source: no hop waits out a
/// flush timer — the source's batch leaves when it answers `Idle`, each
/// relay's when its input runs out. With a timer per hop the sink's median
/// would be about half an interval plus three whole ones (3.5x).
#[test]
fn latency_does_not_grow_with_depth() {
    const INTERVAL: Duration = Duration::from_millis(50);
    const PACKETS: u64 = 100;
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let graph = GraphBuilder::new("depth")
        .source("src", || Trickle::new(PACKETS, Duration::from_millis(2)))
        .processor("f1", || Forward)
        .processor("f2", || Forward)
        .processor("f3", || Forward)
        .processor("sink", move || Count(s2.clone()))
        .link("src", "f1", PartitioningScheme::Shuffle)
        .link("f1", "f2", PartitioningScheme::Shuffle)
        .link("f2", "f3", PartitioningScheme::Shuffle)
        .link("f3", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        buffer_bytes: 1 << 20, // never fills: no batch leaves for its size
        flush_interval: INTERVAL,
        telemetry: TelemetryConfig::enabled(),
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    await_count(&seen, PACKETS);
    let snap = job.telemetry().expect("telemetry enabled");
    job.stop();

    let e2e = &snap.operators["sink"].e2e;
    assert_eq!(e2e.count(), PACKETS);
    let bound_us = 3 * INTERVAL.as_micros() as u64 / 2;
    assert!(
        e2e.p50() < bound_us,
        "sink p50 {}µs behind three relays is not under 1.5 flush intervals ({bound_us}µs)",
        e2e.p50()
    );
}

/// At a trickle a relay's drains are what decide its frames: one frame in,
/// at most one frame out per endpoint it routes to.
#[test]
fn a_relay_sends_at_most_one_frame_per_endpoint_per_frame_received() {
    const PACKETS: u64 = 200;
    let seen = Arc::new(AtomicU64::new(0));
    let (s1, s2) = (seen.clone(), seen.clone());
    let graph = GraphBuilder::new("amortize")
        .source("src", || Trickle::new(PACKETS, Duration::from_micros(500)))
        .processor("one", || Forward)
        .processor("two", || Forward)
        .processor("sink_one", move || Count(s1.clone()))
        .processor_n("sink_two", 2, move || Count(s2.clone()))
        .link("src", "one", PartitioningScheme::Shuffle)
        .link("src", "two", PartitioningScheme::Shuffle)
        .link("one", "sink_one", PartitioningScheme::Shuffle)
        .link("two", "sink_two", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        buffer_bytes: 1 << 20,
        flush_interval: Duration::from_millis(5),
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    await_count(&seen, 2 * PACKETS);
    let metrics = job.stop();

    let (one, two) = (metrics.operator("one"), metrics.operator("two"));
    assert!(
        one.frames_in > 1 && two.frames_in > 1,
        "the source flushed as it idled: {one:?} {two:?}"
    );
    assert!(
        one.frames_out <= one.frames_in,
        "one-to-one relay: {} frames out for {} in",
        one.frames_out,
        one.frames_in
    );
    assert!(
        two.frames_out <= 2 * two.frames_in,
        "relay behind a 2-way shuffle: {} frames out for {} in",
        two.frames_out,
        two.frames_in
    );
}

/// Arrival times at a sink, as the worker that runs it sees them.
#[derive(Clone, Default)]
struct Arrivals(Arc<Mutex<Vec<Instant>>>);

impl Arrivals {
    fn first(&self) -> Option<Instant> {
        self.0.lock().unwrap().first().copied()
    }

    fn count(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    /// The first arrival, waiting up to five seconds for it.
    fn await_first(&self) -> Instant {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(t) = self.first() {
                return t;
            }
            assert!(Instant::now() < deadline, "nothing arrived");
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl StreamProcessor for Arrivals {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        self.0.lock().unwrap().push(Instant::now());
    }
}

/// Spins on its worker until `go` is raised, then counts: a sink whose
/// gate closes and stays closed while the test holds it.
#[derive(Clone, Default)]
struct Held {
    go: Arc<AtomicBool>,
    seen: Arc<AtomicU64>,
}

impl StreamProcessor for Held {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        while !self.go.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.seen.fetch_add(1, Ordering::Relaxed);
    }
}

fn packet(n: u64) -> StreamPacket {
    let mut p = StreamPacket::new();
    p.push_field("n", FieldValue::U64(n));
    p
}

/// A source that emits once, at its `emit_on`-th call, records when, and
/// answers `then` ever after — and `Idle` before.
struct EmitsOnce {
    calls: u64,
    emit_on: u64,
    then: SourceStatus,
    emitted_at: Arc<OnceLock<Instant>>,
}

impl StreamSource for EmitsOnce {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        self.calls += 1;
        if self.calls == self.emit_on {
            let _ = self.emitted_at.set(Instant::now());
            ctx.emit(&packet(0)).unwrap();
        }
        if self.calls < self.emit_on {
            return SourceStatus::Idle;
        }
        if self.then == SourceStatus::Pending {
            // Nobody will ever fire this: the pump parks for good, so the
            // packet leaves before it parks or not at all.
            let _ = ctx.waker();
        }
        self.then
    }
}

/// Run the one packet of an [`EmitsOnce`] source to a sink and return
/// how long it took from the emit to the sink: the best of three jobs, so
/// that a busy host's scheduling delay is not taken for the pump's.
fn one_packet_latency(emit_on: u64, then: SourceStatus, io_threads: usize) -> Duration {
    best_of_three(io_threads, move |emitted_at| EmitsOnce { calls: 0, emit_on, then, emitted_at })
}

/// The best of three [`first_packet_job`]s.
fn best_of_three<S: StreamSource + 'static>(
    io_threads: usize,
    source: impl Fn(Arc<OnceLock<Instant>>) -> S + Clone + Send + Sync + 'static,
) -> Duration {
    (0..3).map(|_| first_packet_job(io_threads, source.clone())).min().unwrap()
}

/// One job of a source that records when it emitted its first packet: how
/// long that packet took to reach the sink. Its flush timer never fires.
fn first_packet_job<S: StreamSource + 'static>(
    io_threads: usize,
    source: impl Fn(Arc<OnceLock<Instant>>) -> S + Send + Sync + 'static,
) -> Duration {
    let emitted_at: Arc<OnceLock<Instant>> = Arc::default();
    let arrivals = Arrivals::default();
    let (sink, at) = (arrivals.clone(), emitted_at.clone());
    let graph = GraphBuilder::new("one-packet")
        .source("src", move || source(at.clone()))
        .processor("sink", move || sink.clone())
        .link("src", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        buffer_bytes: 1 << 20, // never fills: no batch leaves for its size
        flush_interval: NEVER,
        io_threads: Some(io_threads),
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    let arrived = arrivals.await_first();
    job.stop();
    arrived - *emitted_at.get().expect("arrived, so emitted")
}

/// A source whose feeder never fires its waker answers `Pending` as it
/// emits: its source stopped keeping the pump busy, so the packet leaves
/// before the pump parks, whatever the flush interval. The source has
/// idled up to its 20 ms back-off cap first.
#[test]
fn a_pending_sources_one_buffered_packet_leaves_before_its_pump_parks() {
    for io_threads in IO_THREADS {
        // 200 µs doubling to the 20 ms cap takes eight idle answers.
        let waited = one_packet_latency(12, SourceStatus::Pending, io_threads);
        assert!(
            waited < Duration::from_millis(2),
            "io_threads {io_threads}: {waited:?} for a packet whose source went quiet"
        );
    }
}

/// An idle source backs off up to 20 ms between polls. The emitting call
/// answers `Idle` too, with the back-off at its cap: the packet leaves
/// before that back-off, not after it or a flush interval.
#[test]
fn an_idle_source_at_its_backoff_cap_flushes_as_it_answers_idle() {
    for io_threads in IO_THREADS {
        let waited = one_packet_latency(12, SourceStatus::Idle, io_threads);
        assert!(
            waited < Duration::from_millis(2),
            "io_threads {io_threads}: {waited:?} for a packet whose source went idle"
        );
    }
}

/// A source that sleeps inside `next()` does not keep its pump busy: the
/// stint's time budget ends its stint, and what it emitted leaves then —
/// one stint of latency, not a flush interval.
#[test]
fn a_source_that_sleeps_in_next_costs_at_most_one_stint() {
    /// Emits a packet per call and sleeps 2 ms after each.
    struct Sleepy(Arc<OnceLock<Instant>>);
    impl StreamSource for Sleepy {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            let _ = self.0.set(Instant::now());
            ctx.emit(&packet(0)).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            SourceStatus::Emitted(1)
        }
    }
    for io_threads in IO_THREADS {
        let waited = best_of_three(io_threads, Sleepy);
        assert!(
            waited < Duration::from_millis(10),
            "io_threads {io_threads}: {waited:?} for a source that sleeps 2 ms a call"
        );
    }
}

/// A source that answers every call at once keeps its pump busy, and its
/// frames fill to the buffer's byte capacity: every data frame but the
/// last is full. A pump that flushed every stint would send frames of one
/// stint's 64 packets, about half of that. A stint the host preempts for
/// over a millisecond ends on its time budget and flushes early, so this
/// takes the best of five jobs: with two busy processes beside it on two
/// cores, about one job in four sees such a preemption.
#[test]
fn a_saturating_sources_frames_fill_to_its_buffer_bytes() {
    const BUFFER: usize = 64 << 10;
    const PACKETS: u64 = 2_000;
    /// Emits `PACKETS` packets of about 500 bytes, each as soon as asked.
    struct Flood(u64);
    impl StreamSource for Flood {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            if self.0 == PACKETS {
                return SourceStatus::Exhausted;
            }
            let mut p = packet(self.0);
            p.push_field("pad", FieldValue::Bytes(vec![7; 500]));
            ctx.emit(&p).unwrap();
            self.0 += 1;
            SourceStatus::Emitted(1)
        }
    }
    /// Records the byte size of every frame it receives.
    #[derive(Clone, Default)]
    struct FrameSizes(Arc<Mutex<Vec<usize>>>, Arc<AtomicU64>);
    impl StreamProcessor for FrameSizes {
        fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {}
        fn process_encoded(
            &mut self,
            batch: &neptune::net::frame::FrameMessages,
            _ctx: &mut OperatorContext,
        ) -> bool {
            self.0.lock().unwrap().push(batch.batch().len());
            self.1.fetch_add(batch.len() as u64, Ordering::Relaxed);
            true
        }
    }
    for io_threads in IO_THREADS {
        let mut short = Vec::new();
        for _ in 0..5 {
            let sizes = FrameSizes::default();
            let sink = sizes.clone();
            let graph = GraphBuilder::new("flood")
                .source("src", || Flood(0))
                .processor("sink", move || sink.clone())
                .link("src", "sink", PartitioningScheme::Shuffle)
                .build()
                .unwrap();
            let config = RuntimeConfig {
                buffer_bytes: BUFFER,
                flush_interval: NEVER,
                io_threads: Some(io_threads),
                ..Default::default()
            };
            let job = LocalRuntime::new(config).submit(graph).unwrap();
            await_count(&sizes.1, PACKETS);
            job.stop();
            let sizes = sizes.0.lock().unwrap().clone();
            assert!(sizes.len() > 10, "io_threads {io_threads}: {} frames", sizes.len());
            let (_, full) = sizes.split_last().expect("frames arrived");
            short = full.iter().copied().filter(|&len| len < 60 << 10).collect();
            if short.is_empty() {
                break;
            }
        }
        assert!(short.is_empty(), "io_threads {io_threads}: frames short of 60 KiB: {short:?}");
    }
}

/// A pump parked on one gated fan-out link still serves its other
/// channels' flush deadlines: the free link's batch leaves on its own
/// deadline, not before and not long after (see `support/parked_pump.rs`).
#[test]
fn with_one_fan_out_channel_gated_the_others_batch_leaves_on_its_deadline() {
    const INTERVAL: Duration = Duration::from_millis(20);
    for io_threads in IO_THREADS {
        // The best of three jobs, as in `one_packet_latency`.
        let waits = parked_pump::parked_flush_waits(INTERVAL, Some(io_threads), 3);
        let waited = waits.into_iter().min().unwrap();
        assert!(waited >= INTERVAL, "io_threads {io_threads}: flushed early, {waited:?}");
        assert!(
            waited < INTERVAL + Duration::from_millis(5),
            "io_threads {io_threads}: {waited:?} for a {INTERVAL:?} flush interval"
        );
    }
}

/// Output a processor emits in `open()` leaves without any input to run
/// out of.
#[test]
fn output_a_processor_emits_in_open_arrives_with_no_input() {
    struct Greets;
    impl StreamProcessor for Greets {
        fn open(&mut self, ctx: &mut OperatorContext) {
            ctx.emit(&packet(7)).unwrap();
        }
        fn process(&mut self, p: &StreamPacket, ctx: &mut OperatorContext) {
            let _ = ctx.emit(p);
        }
    }
    struct Silent;
    impl StreamSource for Silent {
        fn next(&mut self, _ctx: &mut OperatorContext) -> SourceStatus {
            SourceStatus::Idle
        }
    }
    for io_threads in IO_THREADS {
        let arrivals = Arrivals::default();
        let sink = arrivals.clone();
        let graph = GraphBuilder::new("greeting")
            .source("src", || Silent)
            .processor("greets", || Greets)
            .processor("sink", move || sink.clone())
            .link("src", "greets", PartitioningScheme::Shuffle)
            .link("greets", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig {
            buffer_bytes: 1 << 20,
            flush_interval: NEVER,
            io_threads: Some(io_threads),
            ..Default::default()
        };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        arrivals.await_first();
        job.stop();
        assert_eq!(arrivals.count(), 1, "io_threads {io_threads}");
    }
}

/// A source that emits everything in `close()`, into a link whose sink
/// holds it: what the link refuses is staged, and the finished pump hands
/// it over itself once the gate reopens — nobody calls `settle()`.
#[test]
fn a_finished_pumps_staged_batch_is_handed_over_when_the_gate_reopens() {
    const PACKETS: u64 = 500;
    struct EmitsAtClose;
    impl StreamSource for EmitsAtClose {
        fn next(&mut self, _ctx: &mut OperatorContext) -> SourceStatus {
            SourceStatus::Exhausted
        }
        fn close(&mut self, ctx: &mut OperatorContext) {
            for n in 0..PACKETS {
                ctx.emit(&packet(n)).unwrap();
            }
        }
    }
    for io_threads in IO_THREADS {
        let held = Held::default();
        let (h, probe) = (held.clone(), held.clone());
        let graph = GraphBuilder::new("finished")
            .source("src", || EmitsAtClose)
            .processor("held", move || h.clone())
            .link("src", "held", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig {
            buffer_bytes: 1, // a frame per packet: a few close the gate
            watermark_high: 4096,
            watermark_low: 1024,
            io_threads: Some(io_threads),
            ..Default::default()
        };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        assert!(job.await_sources(Duration::from_secs(5)), "io_threads {io_threads}");
        assert!(job.total_gate_closures() > 0, "io_threads {io_threads}: the gate never closed");
        let parked = job.thread_model().live_io_tasks;
        probe.go.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(10);
        while held.seen.load(Ordering::Relaxed) < PACKETS && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = held.seen.load(Ordering::Relaxed);
        // The pump completes once the link has taken its last batch.
        while job.thread_model().live_io_tasks > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let after = job.thread_model().live_io_tasks;
        job.stop();
        assert_eq!(parked, 1, "io_threads {io_threads}: the finished pump waits for its link");
        assert_eq!(seen, PACKETS, "io_threads {io_threads}: handed over without settle()");
        assert_eq!(after, 0, "io_threads {io_threads}: the pump completes once it has");
    }
}

/// A job's IO tier holds its pumps, its periodic tasks and its socket
/// tasks, and nothing per channel: here two pumps and the telemetry
/// sampler, across six channel endpoints.
#[test]
fn a_jobs_live_io_tasks_are_its_pumps_and_periodic_tasks() {
    struct Silent;
    impl StreamSource for Silent {
        fn next(&mut self, _ctx: &mut OperatorContext) -> SourceStatus {
            SourceStatus::Idle
        }
    }
    for io_threads in IO_THREADS {
        let graph = GraphBuilder::new("tasks")
            .source_n("src", 2, || Silent)
            .processor_n("relay", 2, || Forward)
            .processor("sink", || Forward)
            .link("src", "relay", PartitioningScheme::Shuffle)
            .link("relay", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig {
            telemetry: TelemetryConfig::enabled(),
            io_threads: Some(io_threads),
            ..Default::default()
        };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        let live = job.thread_model().live_io_tasks;
        job.stop();
        assert_eq!(live, 2 + 1, "io_threads {io_threads}: two pumps and the sampler");
    }
}
