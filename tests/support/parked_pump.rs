//! A pump parked on one gated link while another of its channels holds
//! data: the case where a source's batch still waits out its flush timer.
//! Shared by `tests/buffering.rs` and `tests/thread_model.rs`, which mount
//! it with `#[path]`.
//!
//! Every packet goes to two links. The `held` one frames each packet and
//! its sink holds them until its gate closes, so the pump parks on it; the
//! `free` one buffers, and its batch must leave on its own deadline. The
//! pump flushes the free batch early only if a stint ran past its time
//! budget while the gate was still open — a host that preempted the IO
//! thread for over a millisecond. That job's first free batch then holds
//! less than the source emitted before the gate stopped it; it did not
//! park the pump holding data, so it is run again rather than measured.

use neptune::net::frame::FrameMessages;
use neptune::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const PACKETS: u64 = 2_000;

/// How long the free link's batch took from its first packet's emit to its
/// sink, in `n` jobs whose pump parked holding it. `io_threads` `None` is
/// the runtime's default width.
pub fn parked_flush_waits(
    interval: Duration,
    io_threads: Option<usize>,
    n: usize,
) -> Vec<Duration> {
    let mut waits = Vec::new();
    for _ in 0..10 * n {
        waits.extend(parked_flush_job(interval, io_threads));
        if waits.len() == n {
            return waits;
        }
    }
    panic!("io_threads {io_threads:?}: {} of {n} jobs parked the pump holding data", waits.len());
}

/// Emits `PACKETS` packets of about 1 KiB as fast as asked, counting them
/// and recording its first emit. At that size a handful of frames close
/// the held sink's gate, so the pump parks within a few emits.
struct Numbered {
    emitted: Arc<AtomicU64>,
    started: Arc<OnceLock<Instant>>,
}

impl StreamSource for Numbered {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        let n = self.emitted.load(Ordering::Relaxed);
        if n == PACKETS {
            return SourceStatus::Exhausted;
        }
        let _ = self.started.set(Instant::now());
        let mut p = StreamPacket::new();
        p.push_field("n", FieldValue::U64(n)).push_field("pad", FieldValue::Bytes(vec![7; 1000]));
        ctx.emit(&p).unwrap();
        self.emitted.store(n + 1, Ordering::Relaxed);
        SourceStatus::Emitted(1)
    }
}

/// Holds its worker, asleep, until `go` is raised, then counts: a sink
/// whose gate closes and stays closed while the test holds it.
#[derive(Clone, Default)]
struct Held {
    go: Arc<AtomicBool>,
    seen: Arc<AtomicU64>,
}

impl StreamProcessor for Held {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        while !self.go.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(100));
        }
        self.seen.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts packets, and records when its first frame arrived and how many
/// packets it carried.
#[derive(Clone, Default)]
struct Frames {
    first: Arc<OnceLock<(Instant, u64)>>,
    seen: Arc<AtomicU64>,
}

impl StreamProcessor for Frames {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {}

    fn process_encoded(&mut self, batch: &FrameMessages, _ctx: &mut OperatorContext) -> bool {
        let _ = self.first.set((Instant::now(), batch.len() as u64));
        self.seen.fetch_add(batch.len() as u64, Ordering::Relaxed);
        true
    }
}

/// Wait up to five seconds for `cell` to be set.
fn await_set<T: Copy>(cell: &OnceLock<T>, what: &str) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(v) = cell.get() {
            return *v;
        }
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One job: the free batch's wait, or `None` if the pump flushed it before
/// it parked.
fn parked_flush_job(interval: Duration, io_threads: Option<usize>) -> Option<Duration> {
    let (emitted, started) = (Arc::new(AtomicU64::new(0)), Arc::new(OnceLock::new()));
    let (held, free) = (Held::default(), Frames::default());
    let (e, s, h, f) = (emitted.clone(), started.clone(), held.clone(), free.clone());
    let graph = GraphBuilder::new("fan-out")
        .source("src", move || Numbered { emitted: e.clone(), started: s.clone() })
        .processor("held", move || h.clone())
        .processor("free", move || f.clone())
        .link_with(
            "src",
            "held",
            PartitioningScheme::Shuffle,
            LinkOptions::default().buffer_bytes(1),
        )
        .link_with(
            "src",
            "free",
            PartitioningScheme::Shuffle,
            LinkOptions::default().buffer_bytes(1 << 20).flush_interval(interval),
        )
        .build()
        .unwrap();
    let config = RuntimeConfig {
        watermark_high: 4096,
        watermark_low: 1024,
        io_threads,
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    let (arrived, first_frame) = await_set(&free.first, "the free link's first batch");
    let started = *started.get().expect("arrived, so started");
    // By the free batch's deadline the held link has stopped the source.
    std::thread::sleep((started + interval).saturating_duration_since(Instant::now()));
    let parked = job.total_gate_closures() > 0 && job.active_sources() == 1;
    let emitted = emitted.load(Ordering::Relaxed);
    held.go.store(true, Ordering::Release);
    assert!(job.await_sources(Duration::from_secs(30)), "io_threads {io_threads:?}");
    job.stop();
    assert!(parked, "io_threads {io_threads:?}: the held sink's gate never stopped the source");
    assert_eq!(held.seen.load(Ordering::Relaxed), PACKETS, "io_threads {io_threads:?}");
    assert_eq!(free.seen.load(Ordering::Relaxed), PACKETS, "io_threads {io_threads:?}");
    // Everything emitted before the gate stopped the source, in one batch —
    // or the pump flushed part of it as a stint ran over.
    (first_frame == emitted).then(|| arrived - started)
}
