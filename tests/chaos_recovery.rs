//! Fault-tolerance acceptance tests: a seeded [`FaultPlan`] kills and
//! restores a link mid-stream and the job must complete with **zero
//! message loss** — at-least-once delivery on the wire, deduplicated by
//! sequence number at the sink — while the recovery telemetry shows the
//! failure actually happened (retransmits > 0, reconnects > 0).
//!
//! Links are assembled through the shared [`LinkBuilder`] and sinks
//! classify frames through [`ReliableIngress`] — the same stack every
//! production path uses, so these scenarios exercise the real machinery.
//!
//! Everything is scripted by *position* (frame counts) and seeded, so the
//! CI chaos job replays these scenarios bit-identically under several
//! seeds (`NEPTUNE_CHAOS_SEED`).

use bytes::Bytes;
use neptune::compress::SelectiveCompressor;
use neptune::core::checkpoint::{CheckpointSnapshot, InstanceState};
use neptune::core::state::StateReader;
use neptune::core::{TumblingWindow, WindowAggregate};
use neptune::link::{
    AckMode, ChaosLink, FaultEvent, FaultPlan, FrameLink, IngressVerdict, LinkBuilder, QueueLink,
    ReconnectPolicy, RecoveryStats, ReliableIngress, TcpFrameLink,
};
use neptune::net::frame::{ControlKind, Frame};
use neptune::net::tcp::{TcpReceiver, TcpSender};
use neptune::net::test_support::NetRig;
use neptune::net::transport::TransportError;
use neptune::net::watermark::{WatermarkConfig, WatermarkQueue};
use neptune::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Seed for the scripted faults; the CI chaos job varies it.
fn chaos_seed() -> u64 {
    std::env::var("NEPTUNE_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

fn batch_of(msgs: &[&[u8]]) -> (Bytes, u32) {
    let mut out = Vec::new();
    for m in msgs {
        out.extend_from_slice(&(m.len() as u32).to_le_bytes());
        out.extend_from_slice(m);
    }
    (Bytes::from(out), msgs.len() as u32)
}

#[test]
fn seeded_link_cut_mid_stream_loses_nothing() {
    let seed = chaos_seed();
    const LINK: u64 = 1;
    const TOTAL: u64 = 200;

    // Script the cut from the seed: somewhere in the first half of the
    // stream, down for a few delivery attempts. Different seeds move the
    // cut; every seed must recover.
    let plan = FaultPlan::new(seed);
    let at_frame = plan.jitter(1, 10, 90);
    let down_for = plan.jitter(2, 2, 6);
    let plan = plan.with_event(FaultEvent::CutLink { link_id: LINK, at_frame, down_for });

    let sink_queue: Arc<WatermarkQueue<Frame>> =
        Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
    let chaos = Arc::new(ChaosLink::new(Arc::new(QueueLink::new(sink_queue.clone())), &plan, LINK));
    let stats = Arc::new(RecoveryStats::new());
    let link = LinkBuilder::new(LINK)
        .transport(chaos)
        .reliable(ReconnectPolicy::fast(seed), 1 << 20, stats.clone())
        .build();

    // Stream TOTAL one-message batches through the failing link; the sink
    // drains concurrently with the sends, dedups by message sequence
    // through the shared ingress, and acks cumulatively (trimming the
    // sender's replay buffer).
    let ingress = ReliableIngress::new(AckMode::Immediate);
    let mut delivered: Vec<u64> = Vec::new();
    let drain = |delivered: &mut Vec<u64>| {
        while let Some(f) = sink_queue.pop() {
            if let IngressVerdict::Deliver { skip: 0 } =
                ingress.admit(f.link_id, f.base_seq, f.len() as u32)
            {
                delivered.push(f.base_seq);
            }
            if let Some((_, watermark)) = ingress.stage_ack(f.link_id) {
                link.ack(watermark);
            }
        }
    };
    for i in 0..TOTAL {
        let payload = i.to_le_bytes();
        let (encoded, count) = batch_of(&[&payload]);
        link.send_batch(i, encoded, count, 0, 0)
            .expect("link must recover within its retry budget");
        // The sink drains (and acks) every few sends, so several frames
        // are in flight when the cut lands — the replay then re-sends
        // delivered-but-unacked frames and the dedup filter must absorb
        // the duplicates.
        if i % 7 == 6 {
            drain(&mut delivered);
        }
    }
    drain(&mut delivered);

    // Zero loss, in order, exactly once past the dedup filter.
    assert_eq!(delivered, (0..TOTAL).collect::<Vec<_>>(), "seed {seed}: lost or reordered");

    let snap = stats.snapshot();
    assert!(snap.retransmits > 0, "seed {seed}: the cut must force replay");
    assert!(snap.reconnects >= 1, "seed {seed}: the link must have reconnected");
    assert_eq!(snap.link_failures, 0, "seed {seed}: retry budget must not exhaust");
    // Replay happened, so the wire carried duplicates the sink dropped.
    assert!(ingress.duplicates_dropped() > 0, "seed {seed}: replay implies duplicates at the sink");
    // Everything delivered was eventually acked and trimmed.
    let sup = link.reliability().expect("reliable link");
    assert!(sup.replay().is_empty(), "seed {seed}: acks must trim the replay buffer");
}

/// The same seeded link-cut scenario, but over real sockets: an
/// epoll-backed [`TcpReceiver`] serves the sink, the reliability layer
/// (re)connects nonblocking [`TcpSender`]s through the shared reactor, and
/// the cut severs every established connection server-side mid-stream.
/// Unlike the in-process link, socket
/// death surfaces *asynchronously* — sends keep succeeding into the
/// doomed sender's queue until the reactor reports the socket closed —
/// so frames can be lost by the wire after `send_batch` returned `Ok`.
/// The replay buffer must bring them back, and the sink's dedup filter
/// must squeeze the wire's at-least-once delivery to exactly-once.
#[test]
fn reactor_link_cut_replays_exactly_once_over_tcp() {
    let seed = chaos_seed();
    const LINK: u64 = 7;
    const TOTAL: u64 = 300;
    let plan = FaultPlan::new(seed);
    let cut_at = plan.jitter(21, 40, 220);

    let rig = NetRig::new("chaos-net");
    let driver = rig.driver();

    let rx =
        TcpReceiver::bind_reactor("127.0.0.1:0", WatermarkConfig::new(1 << 20, 1 << 10), &driver)
            .expect("bind");
    let addr = rx.local_addr();

    // Wire acks land on the sender's IO task; the freshest cumulative
    // value is mirrored into a shared cell that the test thread feeds
    // back into the link, trimming its replay buffer.
    let acked = Arc::new(AtomicU64::new(0));
    let stats = Arc::new(RecoveryStats::new());
    let connect_driver = driver.clone();
    let connect_acked = acked.clone();
    let link = LinkBuilder::new(LINK)
        .reliable_with(
            Box::new(move || {
                let acked = connect_acked.clone();
                let tx = TcpSender::connect_reactor_with_acks(
                    addr,
                    64,
                    &connect_driver,
                    move |_, cum| {
                        acked.fetch_max(cum, Ordering::Relaxed);
                    },
                )
                .map_err(|e| TransportError::Io(e.to_string()))?;
                Ok(Arc::new(TcpFrameLink::new(tx, SelectiveCompressor::disabled()))
                    as Arc<dyn FrameLink>)
            }),
            ReconnectPolicy::fast(seed),
            1 << 20,
            stats.clone(),
        )
        .build();

    let ingress = ReliableIngress::new(AckMode::Immediate);
    let queue = rx.queue().clone();
    let mut delivered: Vec<u64> = Vec::new();
    let drain = |delivered: &mut Vec<u64>| {
        while let Some(f) = queue.pop() {
            if let IngressVerdict::Deliver { skip: 0 } =
                ingress.admit(f.link_id, f.base_seq, f.len() as u32)
            {
                delivered.push(f.base_seq);
            }
        }
        link.ack(acked.load(Ordering::Relaxed));
    };

    for i in 0..TOTAL {
        if i == cut_at {
            // Sever every established connection server-side. The sender
            // only learns when the reactor reports the socket closed. A
            // cut that finds nothing accepted yet cuts nothing — a fast
            // build's first hundred sends can outrun the acceptor task —
            // so wait for a connection to sever.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while rx.chaos_drop_connections() == 0 {
                assert!(std::time::Instant::now() < deadline, "seed {seed}: nothing to cut");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let payload = i.to_le_bytes();
        let (encoded, count) = batch_of(&[&payload]);
        link.send_batch(i, encoded, count, 0, 0)
            .expect("link must recover within its retry budget");
        // The last drain before the cut is skipped: a drain acks, and a
        // cut landing on an empty replay buffer owes no retransmit — the
        // `retransmits > 0` below needs a frame unacked when it fires.
        let before_cut = i < cut_at && cut_at - i <= 7;
        if i % 7 == 6 && !before_cut {
            drain(&mut delivered);
        }
    }

    // Frames enqueued between the cut and its detection were lost by the
    // wire even though `send_batch` returned `Ok`. Keep probing — a
    // failed heartbeat triggers the same reconnect + replay as a failed
    // send — until every message has come out the other side.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while delivered.len() < TOTAL as usize {
        assert!(
            std::time::Instant::now() < deadline,
            "seed {seed}: only {}/{TOTAL} delivered after the cut at frame {cut_at}",
            delivered.len()
        );
        let _ = link.heartbeat();
        drain(&mut delivered);
        std::thread::sleep(Duration::from_millis(2));
    }

    // Zero loss, in order, exactly once past the dedup filter.
    assert_eq!(delivered, (0..TOTAL).collect::<Vec<_>>(), "seed {seed}: lost or reordered");
    let snap = stats.snapshot();
    assert!(snap.retransmits > 0, "seed {seed}: the cut must force replay");
    assert!(snap.reconnects >= 1, "seed {seed}: the link must have reconnected");
    assert_eq!(snap.link_failures, 0, "seed {seed}: retry budget must not exhaust");

    // Acks for the replayed tail eventually trim the replay buffer.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !link.reliability().expect("reliable link").replay().is_empty() {
        assert!(std::time::Instant::now() < deadline, "seed {seed}: replay buffer never trimmed");
        link.ack(acked.load(Ordering::Relaxed));
        std::thread::sleep(Duration::from_millis(2));
    }

    // Teardown in dependency order: endpoints first (their IO tasks
    // retire while pool + reactor still serve), then the rig.
    drop(link);
    rx.shutdown();
    drop(rig);
}

/// ISSUE 7 acceptance: the flight recorder must timeline a seeded outage
/// *causally* — the link cut, the reconnect, and the replay — in that
/// order, as the link supervisor lived it.
#[test]
fn flight_recorder_timelines_cut_reconnect_replay() {
    use neptune::telemetry::{EventKind, FlightRecorder};

    let seed = chaos_seed();
    const LINK: u64 = 3;
    let recorder = Arc::new(FlightRecorder::new(256));

    let plan = FaultPlan::new(seed);
    let at_frame = plan.jitter(31, 5, 40);
    let down_for = plan.jitter(32, 2, 4);
    let plan = plan.with_event(FaultEvent::CutLink { link_id: LINK, at_frame, down_for });
    let sink: Arc<WatermarkQueue<Frame>> =
        Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
    let chaos = Arc::new(ChaosLink::new(Arc::new(QueueLink::new(sink.clone())), &plan, LINK));
    let link_stats = Arc::new(RecoveryStats::new());
    let link = LinkBuilder::new(LINK)
        .transport(chaos)
        .reliable(ReconnectPolicy::fast(seed), 1 << 20, link_stats)
        .build();
    link.reliability().expect("reliable link").attach_recorder(recorder.clone());

    for i in 0..(at_frame + down_for + 10) {
        let payload = i.to_le_bytes();
        let (encoded, count) = batch_of(&[&payload]);
        link.send_batch(i, encoded, count, 0, 0)
            .expect("link must recover within its retry budget");
    }

    let kinds: Vec<EventKind> = recorder.snapshot().iter().map(|e| e.kind).collect();
    assert!(
        recorder.contains_sequence(&[
            EventKind::LinkCut,
            EventKind::Reconnected,
            EventKind::Replay,
        ]),
        "seed {seed}: causal order missing from recorder timeline {kinds:?}"
    );
    // The JSON dump of the same timeline is non-empty and well-formed.
    let json = recorder.to_json();
    let doc = neptune::core::json::parse(&json).expect("recorder JSON parses");
    assert!(!doc.get("events").unwrap().as_array().unwrap().is_empty());
}

// ---- Stateful recovery (ISSUE 10): windowed aggregation under seeded
// faults, checkpointed mid-window, must reproduce the uncut run's
// aggregates bit for bit. ----

/// Window geometry shared by the stateful scenarios: event time advances
/// 250µs per packet, so a 5ms tumbling window holds exactly 20 packets.
const WIDTH_US: u64 = 5_000;
const TS_STEP_US: u64 = 250;
const FRAMES_PER_WINDOW: u64 = WIDTH_US / TS_STEP_US;

fn event_time(i: u64) -> u64 {
    i * TS_STEP_US
}

/// Deterministic observation for packet `i` — fractional, sign-crossing
/// values so sum/min/max exercise real float accumulation.
fn observation(i: u64) -> f64 {
    ((i * 31) % 101) as f64 * 0.25 - 12.0
}

/// Bit-exact aggregate comparison: `byte-identical final aggregates` is
/// the acceptance bar, so floats compare by bit pattern, not epsilon.
fn aggs_identical(a: &[WindowAggregate], b: &[WindowAggregate]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.start_us == y.start_us
                && x.end_us == y.end_us
                && x.count == y.count
                && x.sum.to_bits() == y.sum.to_bits()
                && x.min.to_bits() == y.min.to_bits()
                && x.max.to_bits() == y.max.to_bits()
        })
}

/// The headline acceptance scenario: a windowed aggregation fed through a
/// link that suffers a seeded cut, with aligned checkpoints forced
/// mid-window, must produce final aggregates **byte-identical** to an
/// uncut run — and restoring the newest cut into a fresh aggregator,
/// then replaying the entire stream from zero (the most pessimistic
/// at-least-once upstream), must converge on the same aggregates with
/// every pre-cut frame classified as a duplicate.
#[test]
fn checkpointed_window_under_link_cut_matches_uncut_aggregates() {
    let seed = chaos_seed();
    const LINK: u64 = 11;
    const TOTAL: u64 = 240; // 12 windows of 20 frames
    const BARRIER_EVERY: u64 = 16; // never a multiple of the window: cuts land mid-fill

    // The uncut baseline, straight into the aggregator.
    let mut baseline = TumblingWindow::new(WIDTH_US);
    let mut baseline_closed = Vec::new();
    for i in 0..TOTAL {
        baseline_closed.extend(baseline.observe(event_time(i), observation(i)));
    }
    let baseline_flush = baseline.flush().expect("stream ends mid-window");

    // Seeded cut somewhere mid-stream, as in the stateless scenario.
    let plan = FaultPlan::new(seed);
    let at_frame = plan.jitter(41, 20, 180);
    let down_for = plan.jitter(42, 2, 6);
    let plan = plan.with_event(FaultEvent::CutLink { link_id: LINK, at_frame, down_for });

    let sink_queue: Arc<WatermarkQueue<Frame>> =
        Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
    let chaos = Arc::new(ChaosLink::new(Arc::new(QueueLink::new(sink_queue.clone())), &plan, LINK));
    let stats = Arc::new(RecoveryStats::new());
    let link = LinkBuilder::new(LINK)
        .transport(chaos)
        .reliable(ReconnectPolicy::fast(seed), 1 << 20, stats.clone())
        .build();

    // Sink: dedup through the shared ingress, aggregate delivered frames,
    // and on every barrier capture (window state + dedup cursors) as one
    // consistent cut — exactly what the runtime's alignment layer does.
    let store = MemorySnapshotStore::new(32);
    let ingress = ReliableIngress::new(AckMode::Immediate);
    let mut window = TumblingWindow::new(WIDTH_US);
    let mut closed: Vec<WindowAggregate> = Vec::new();
    let drain = |window: &mut TumblingWindow, closed: &mut Vec<WindowAggregate>| {
        while let Some(f) = sink_queue.pop() {
            if f.control == Some(ControlKind::Barrier) {
                let snap = CheckpointSnapshot {
                    checkpoint_id: f.base_seq,
                    states: vec![InstanceState::capture("win", 0, window)],
                    cursors: ingress.cursors(),
                };
                store.put(&snap).expect("memory store never fails");
                continue;
            }
            if let IngressVerdict::Deliver { skip: 0 } =
                ingress.admit(f.link_id, f.base_seq, f.len() as u32)
            {
                closed.extend(window.observe(event_time(f.base_seq), observation(f.base_seq)));
            }
            if let Some((_, watermark)) = ingress.stage_ack(f.link_id) {
                link.ack(watermark);
            }
        }
    };
    for i in 0..TOTAL {
        let payload = i.to_le_bytes();
        let (encoded, count) = batch_of(&[&payload]);
        link.send_batch(i, encoded, count, 0, 0)
            .expect("link must recover within its retry budget");
        // A barrier behind every 16-frame stride (skipping the final one
        // so the last cut is genuinely mid-stream). A barrier issued
        // while the link is down is simply lost — that round is
        // abandoned, never replayed — so sends must tolerate Err.
        if i % BARRIER_EVERY == BARRIER_EVERY - 1 && i + BARRIER_EVERY < TOTAL {
            let _ = link.barrier(i / BARRIER_EVERY + 1);
        }
        if i % 5 == 4 {
            drain(&mut window, &mut closed);
        }
    }
    drain(&mut window, &mut closed);

    // The cut run's aggregates are byte-identical to the uncut run's.
    let cut_flush = window.flush().expect("stream ends mid-window");
    assert!(
        aggs_identical(&closed, &baseline_closed),
        "seed {seed}: closed windows diverge from the uncut run"
    );
    assert!(
        aggs_identical(&[cut_flush], std::slice::from_ref(&baseline_flush)),
        "seed {seed}: the final open window diverges from the uncut run"
    );
    let snap = stats.snapshot();
    assert!(snap.retransmits > 0, "seed {seed}: the cut must force replay");
    assert!(snap.reconnects >= 1, "seed {seed}: the link must have reconnected");
    assert!(ingress.duplicates_dropped() > 0, "seed {seed}: replay implies duplicates");

    // Checkpoints were taken, and at least one sliced a window mid-fill.
    let ids = store.list().expect("memory store never fails");
    assert!(!ids.is_empty(), "seed {seed}: no checkpoint survived the outage");
    let mid_window = ids.iter().any(|&id| {
        let snap = store.get(id).unwrap().expect("listed id present");
        let mut probe = TumblingWindow::new(1);
        snap.state_for("win", 0).expect("window contributed").restore_into(&mut probe).unwrap();
        probe.flush().is_some_and(|agg| agg.count % FRAMES_PER_WINDOW != 0)
    });
    assert!(mid_window, "seed {seed}: every checkpoint landed exactly on a window boundary");

    // Exactly-once stateful recovery: restore the newest cut into a fresh
    // aggregator + dedup filter, then replay the whole stream from zero.
    // The restored cursors absorb everything the restored state already
    // contains; the tail completes the uncut aggregates bit for bit.
    let snap = store.latest().unwrap().expect("at least one checkpoint stored");
    let cursor = snap
        .cursors
        .iter()
        .find_map(|&(l, c)| (l == LINK).then_some(c))
        .expect("cursor for the data link");
    assert!((1..TOTAL).contains(&cursor), "seed {seed}: cut must be mid-stream, got {cursor}");
    let mut restored = TumblingWindow::new(1);
    snap.state_for("win", 0).unwrap().restore_into(&mut restored).unwrap();
    let ingress2 = ReliableIngress::new(AckMode::Immediate);
    ingress2.restore_cursors(&snap.cursors);

    let replay_queue: Arc<WatermarkQueue<Frame>> =
        Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
    let replay_link = LinkBuilder::new(LINK).in_process(replay_queue.clone()).build();
    let mut resumed: Vec<WindowAggregate> = Vec::new();
    for i in 0..TOTAL {
        let payload = i.to_le_bytes();
        let (encoded, count) = batch_of(&[&payload]);
        replay_link.send_batch(i, encoded, count, 0, 0).expect("plain in-process link");
        while let Some(f) = replay_queue.pop() {
            if let IngressVerdict::Deliver { skip: 0 } =
                ingress2.admit(f.link_id, f.base_seq, f.len() as u32)
            {
                resumed.extend(restored.observe(event_time(f.base_seq), observation(f.base_seq)));
            }
        }
    }
    assert_eq!(
        ingress2.duplicates_dropped(),
        cursor,
        "seed {seed}: exactly the pre-cut frames are duplicates, nothing else"
    );
    // Windows closing after the cut come out bit-identical to the uncut
    // run: the restored window's open window is the one holding frame
    // `cursor - 1`, and every closed aggregate from there on matches.
    let first = ((cursor - 1) / FRAMES_PER_WINDOW) as usize;
    assert!(
        aggs_identical(&resumed, &baseline_closed[first..]),
        "seed {seed}: post-restore aggregates diverge from the uncut run"
    );
    let resumed_flush = restored.flush().expect("stream ends mid-window");
    assert!(
        aggs_identical(&[resumed_flush], &[baseline_flush]),
        "seed {seed}: post-restore final window diverges from the uncut run"
    );
}

/// A replayable source whose read cursor is its checkpointable state:
/// restore rewinds it to the cut and it re-emits from there. The
/// periodic `Idle` breath paces emission so checkpoint rounds land while
/// the stream is genuinely mid-flight.
struct CursorSource {
    next: u64,
    total: u64,
    since_breath: u32,
}

impl OperatorState for CursorSource {
    fn state_kind(&self) -> &'static str {
        "cursor-source"
    }

    fn snapshot_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.next.to_le_bytes());
    }

    fn restore_state(&mut self, version: u32, bytes: &[u8]) -> Result<(), StateError> {
        if version != 1 {
            return Err(StateError::VersionMismatch { supported: 1, found: version });
        }
        let mut r = StateReader::new(bytes);
        self.next = r.u64()?;
        r.finish()?;
        Ok(())
    }
}

impl StreamSource for CursorSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.next >= self.total {
            return SourceStatus::Exhausted;
        }
        if self.since_breath >= 64 {
            self.since_breath = 0;
            return SourceStatus::Idle;
        }
        self.since_breath += 1;
        let mut p = StreamPacket::new();
        p.push_field("i", FieldValue::U64(self.next));
        self.next += 1;
        ctx.emit(&p).unwrap();
        SourceStatus::Emitted(1)
    }

    fn state(&mut self) -> Option<&mut dyn OperatorState> {
        Some(self)
    }
}

/// A windowed-aggregation sink exposing its window as checkpoint state;
/// closed aggregates (and the final flush at close) land in a shared
/// list for the test to compare.
struct WindowSink {
    window: TumblingWindow,
    closed: Arc<Mutex<Vec<WindowAggregate>>>,
}

impl StreamProcessor for WindowSink {
    fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
        let i = p.get("i").unwrap().as_u64().unwrap();
        if let Some(agg) = self.window.observe(event_time(i), observation(i)) {
            self.closed.lock().unwrap().push(agg);
        }
    }

    fn close(&mut self, _ctx: &mut OperatorContext) {
        if let Some(agg) = self.window.flush() {
            self.closed.lock().unwrap().push(agg);
        }
    }

    fn state(&mut self) -> Option<&mut dyn OperatorState> {
        Some(&mut self.window)
    }
}

/// Kill-and-resume through the real runtime: a checkpointed windowed job
/// is stopped mid-stream; a second job over the same file-backed store
/// restores the newest cut — the source rewinds its cursor, the sink
/// rewinds its half-filled window — and the resumed run's aggregates
/// are byte-identical to an uncut run of the whole stream.
#[test]
fn stateful_job_killed_mid_stream_resumes_from_file_checkpoint() {
    let seed = chaos_seed();
    const TOTAL: u64 = 20_000;

    // The uncut baseline.
    let mut baseline = TumblingWindow::new(WIDTH_US);
    let mut baseline_closed = Vec::new();
    for i in 0..TOTAL {
        baseline_closed.extend(baseline.observe(event_time(i), observation(i)));
    }
    let baseline_flush = baseline.flush().expect("stream ends mid-window");

    let dir =
        std::env::temp_dir().join(format!("neptune-chaos-ckpt-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || RuntimeConfig {
        checkpoint: CheckpointConfig {
            interval: Duration::from_millis(2),
            ..CheckpointConfig::file_backed(&dir)
        },
        ..Default::default()
    };
    let graph = |name: &str, closed: &Arc<Mutex<Vec<WindowAggregate>>>| {
        let closed = closed.clone();
        GraphBuilder::new(name)
            .source("src", move || CursorSource { next: 0, total: TOTAL, since_breath: 0 })
            .processor("win", move || WindowSink {
                window: TumblingWindow::new(WIDTH_US),
                closed: closed.clone(),
            })
            .link("src", "win", PartitioningScheme::Shuffle)
            .build()
            .unwrap()
    };

    // Run 1: start the full stream, kill the job once two cuts completed.
    // The paced source needs far longer to finish than the coordinator
    // needs two rounds, so the kill lands mid-stream.
    let run1_closed = Arc::new(Mutex::new(Vec::new()));
    let job = LocalRuntime::new(config()).submit(graph("ckpt-kill", &run1_closed)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let stats = job.checkpoint_stats().expect("checkpointing enabled");
        if stats.completed >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "seed {seed}: no checkpoint completed before the kill"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(job.latest_checkpoint().is_some(), "completed rounds are readable");
    job.stop();

    // The newest cut on disk names the source's resume position; its
    // window blob holds exactly the packets before that position.
    let snap = FileSnapshotStore::new(&dir, 3)
        .latest()
        .expect("store readable")
        .expect("completed checkpoints on disk");
    let blob = &snap.state_for("src", 0).expect("source contributed state").blob;
    let resume_at = u64::from_le_bytes(blob[..8].try_into().unwrap());
    assert!(resume_at >= 1, "seed {seed}: the cut captured an empty stream");
    assert!(resume_at < TOTAL, "seed {seed}: the kill must land mid-stream, got {resume_at}");

    // Run 2: same graph, same store directory. The runtime restores the
    // newest cut before open(): the source resumes at `resume_at`, the
    // sink's window resumes half-filled, and the stream runs to the end.
    let run2_closed = Arc::new(Mutex::new(Vec::new()));
    let job2 = LocalRuntime::new(config()).submit(graph("ckpt-resume", &run2_closed)).unwrap();
    assert!(job2.await_sources(Duration::from_secs(120)), "seed {seed}: resumed source stalled");
    assert!(job2.settle(Duration::from_secs(60)), "seed {seed}: resumed job never settled");
    job2.stop(); // close() flushes the final open window into the list

    // The resumed run closes exactly the windows from the cut onward —
    // the one holding packet `resume_at - 1` and everything after —
    // byte-identical to the uncut baseline, final flush included.
    let got = run2_closed.lock().unwrap();
    let first = ((resume_at - 1) / FRAMES_PER_WINDOW) as usize;
    let mut want: Vec<WindowAggregate> = baseline_closed[first..].to_vec();
    want.push(baseline_flush);
    assert!(
        aggs_identical(&got, &want),
        "seed {seed}: resumed aggregates diverge from the uncut run \
         (resumed {} windows from position {resume_at}, expected {})",
        got.len(),
        want.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
