//! Deployment: placement, resources, queues, channels, processor tasks,
//! and the IO tier (pumps, barrier timer, sampler).

use super::pumps::{
    BarrierTimerTask, PumpGauge, SamplerTask, SourceBarrier, SourcePump, SourceShed,
};
use super::scrape::{ScrapeRoutes, ScrapeTask};
use super::{JobHandle, JobShared, SubmitError};
use crate::channel::{ChannelEndpoint, ChannelId};
use crate::checkpoint::{
    CheckpointCoordinator, CheckpointSnapshot, FileSnapshotStore, InstanceState,
    MemorySnapshotStore, SnapshotStore, FINAL_BARRIER,
};
use crate::codec::PacketCodec;
use crate::config::{PlacementStrategy, RuntimeConfig, SnapshotStoreKind, TransportMode};
use crate::dead_letter::{DeadLetter, DeadLetterQueue};
use crate::graph::{Factory, Graph, OperatorKind};
use crate::metrics::{MetricsRegistry, OperatorCounters};
use crate::operator::{OperatorContext, OutgoingLink, StreamProcessor, Waker};
use crate::packet::StreamPacket;
use crate::telemetry::TelemetryHub;
use neptune_granules::sync::Mutex;
use neptune_granules::{
    ComputationalTask, IoPool, IoTaskHandle, NetWaker, OperatorSupervisor, Reactor, Resource,
    ScheduleSpec, SupervisedOutcome, SupervisorPolicy, TaskContext, TaskOutcome,
};
use neptune_link::{Link, LinkBuilder, ReconnectPolicy};
use neptune_net::buffer::OutputBuffer;
use neptune_net::frame::{ControlKind, Frame, FrameMessages};
use neptune_net::pool::BytesPool;
use neptune_net::tcp::{TcpReceiver, TcpSender};
use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};
use neptune_net::NetDriver;
use neptune_telemetry::{
    EventKind, FlightRecorder, OperatorTelemetry, SampleRing, Span, SpanRing, STAGE_EXECUTION,
    STAGE_SCHEDULE, STAGE_SINK, STAGE_TRANSPORT,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// IO threads when [`RuntimeConfig::io_threads`] is `None`: a quarter of
/// the host cores, clamped to [1, 4]. The tier is event-driven, so even 1
/// thread keeps hundreds of idle sources live; more helps only when many
/// pumps are simultaneously runnable.
fn auto_io_threads() -> usize {
    std::thread::available_parallelism().map(|n| (n.get() / 4).clamp(1, 4)).unwrap_or(2)
}

/// Per-instance failure-containment state: the supervisor (panic catch,
/// retry, breaker), the deterministic retry backoff, and the job's shared
/// dead-letter queue. Absent when containment is disabled — the hot path
/// then pays nothing for supervision.
pub(super) struct Supervision {
    /// Shared by every instance of the operator, so the breaker and the
    /// containment counters are per-operator as the paper's operator
    /// granularity suggests.
    supervisor: Arc<OperatorSupervisor>,
    backoff: ReconnectPolicy,
    dead_letters: Arc<DeadLetterQueue>,
}

/// Bytes of the failing frame captured per dead letter (truncated beyond
/// this, so a poison batch cannot balloon the quarantine).
const DEAD_LETTER_CAPTURE_BYTES: usize = 64 << 10;
/// Entries retained in the per-job dead-letter queue; the oldest entry is
/// evicted when a new poison batch arrives at capacity.
const DEAD_LETTER_CAPACITY: usize = 64;
/// Consecutive successful probes that close a half-open breaker.
const BREAKER_PROBES: u32 = 2;
/// Seed for the deterministic retry-backoff jitter.
const RETRY_BACKOFF_SEED: u64 = 7;
/// Spans retained across the trace ring's shards (oldest overwrite).
const TRACE_CAPACITY: usize = 4096;
/// Structured runtime events retained in the job's flight recorder
/// (oldest overwrite).
const RECORDER_CAPACITY: usize = 512;
/// Bound on the in-memory telemetry time series (oldest samples drop first).
const SERIES_CAPACITY: usize = 1024;
/// Depth of the bounded queue between worker threads and each TCP
/// sender's IO task.
const IO_QUEUE_DEPTH: usize = 128;

/// Barrier-alignment state of one processor instance (ISSUE 10): the
/// receive side of the Chandy–Lamport-style aligned snapshot. A barrier
/// for round N arriving on channel C marks C *aligned*; data arriving on
/// an aligned channel is stashed (it belongs to the post-N epoch) until
/// every input channel has delivered its round-N barrier. At full
/// alignment the operator's state is a consistent cut: everything before
/// the barriers is in it, nothing after.
pub(super) struct Alignment {
    coordinator: Arc<CheckpointCoordinator>,
    /// Raw ids of every inbound channel feeding this instance's queue.
    inputs: Vec<u64>,
    /// Channels sealed by [`FINAL_BARRIER`] — permanently aligned.
    finished: HashSet<u64>,
    /// Round currently aligning; `None` when idle.
    current: Option<u64>,
    /// Channels whose barrier for the current round has arrived.
    aligned: HashSet<u64>,
    /// Data frames stashed from aligned channels while the round waits
    /// for its remaining inputs, in arrival order.
    held: Vec<Frame>,
    /// Newest round completed here; barriers at or below are duplicates.
    completed_through: u64,
    /// FINAL barrier forwarded downstream exactly once.
    final_forwarded: bool,
    /// Snapshot to restore into the processor at initialize; taken once.
    restored: Option<Arc<CheckpointSnapshot>>,
}

/// What checkpoint admission decided about one popped frame.
enum Admit {
    /// A data frame, clear to process now.
    Process(Frame),
    /// A barrier (consumed) or a frame stashed until alignment completes.
    Consumed,
    /// A round completed: process the released stash, in arrival order.
    Release(Vec<Frame>),
}

impl Alignment {
    fn admit(
        &mut self,
        frame: Frame,
        processor: &mut dyn StreamProcessor,
        ctx: &mut OperatorContext,
        expected_seq: &HashMap<u64, u64>,
    ) -> Admit {
        if frame.control == Some(ControlKind::Barrier) {
            let id = frame.base_seq;
            if id == FINAL_BARRIER {
                self.finished.insert(frame.link_id);
                self.aligned.remove(&frame.link_id);
                if self.finished.len() == self.inputs.len() && !self.final_forwarded {
                    self.final_forwarded = true;
                    ctx.barrier(FINAL_BARRIER);
                }
                return self.try_complete(processor, ctx, expected_seq);
            }
            if id <= self.completed_through {
                return Admit::Consumed; // duplicate of a finished round
            }
            match self.current {
                None => {
                    self.current = Some(id);
                    self.aligned.clear();
                }
                Some(cur) if id < cur => return Admit::Consumed,
                Some(cur) if id > cur => {
                    // A newer round overtook one still aligning — the old
                    // round can never complete here. Release its stash (in
                    // order) and restart alignment on the new round; the
                    // coordinator abandons the stale round when the newer
                    // cut completes.
                    let released = std::mem::take(&mut self.held);
                    self.current = Some(id);
                    self.aligned.clear();
                    self.aligned.insert(frame.link_id);
                    return match self.try_complete(processor, ctx, expected_seq) {
                        Admit::Release(more) => {
                            let mut all = released;
                            all.extend(more);
                            Admit::Release(all)
                        }
                        _ => Admit::Release(released),
                    };
                }
                Some(_) => {}
            }
            self.aligned.insert(frame.link_id);
            return self.try_complete(processor, ctx, expected_seq);
        }
        if self.current.is_some() && self.aligned.contains(&frame.link_id) {
            self.held.push(frame);
            return Admit::Consumed;
        }
        Admit::Process(frame)
    }

    /// Complete the in-flight round if every input is aligned or sealed:
    /// snapshot the operator state *before* replaying the stash (the
    /// stash is post-barrier data), forward the barrier downstream behind
    /// the flushed pre-barrier output, report the cut, release the stash.
    fn try_complete(
        &mut self,
        processor: &mut dyn StreamProcessor,
        ctx: &mut OperatorContext,
        expected_seq: &HashMap<u64, u64>,
    ) -> Admit {
        let Some(id) = self.current else { return Admit::Consumed };
        let covered =
            self.inputs.iter().all(|c| self.aligned.contains(c) || self.finished.contains(c));
        if !covered {
            return Admit::Consumed;
        }
        let mut states = Vec::new();
        if let Some(state) = processor.state() {
            states.push(InstanceState::capture(ctx.operator(), ctx.instance() as u32, state));
        }
        let cursors: Vec<(u64, u64)> = expected_seq.iter().map(|(&l, &c)| (l, c)).collect();
        ctx.barrier(id);
        self.coordinator.report(id, crate::now_micros(), states, cursors);
        self.completed_through = id;
        self.current = None;
        self.aligned.clear();
        Admit::Release(std::mem::take(&mut self.held))
    }
}

/// The granules task wrapping one processor instance.
pub(super) struct ProcessorTask {
    processor: Box<dyn crate::operator::StreamProcessor>,
    ctx: OperatorContext,
    queue: Arc<WatermarkQueue<Frame>>,
    codec: PacketCodec,
    /// Workhorse packet reused for every decode (object reuse, §III-B3).
    workhorse: StreamPacket,
    /// Frames popped off the queue and not yet admitted, oldest first:
    /// what the task holds while an outgoing link refuses its output.
    inbox: VecDeque<Frame>,
    /// Frames a completed alignment round released, processed before
    /// anything still in the inbox.
    released: VecDeque<Frame>,
    batch_max: usize,
    /// Earliest flush deadline of this task's buffers, as of its last look
    /// during a drain; `None` once a drain has flushed them all.
    next_due: Option<Instant>,
    counters: Arc<OperatorCounters>,
    /// Expected next sequence number per channel (exactly-once check).
    expected_seq: HashMap<u64, u64>,
    /// Job-wide batch-buffer pool; processed frames return their storage
    /// here so upstream output buffers and TCP readers can reuse it
    /// (object reuse, §III-B3).
    pool: Arc<BytesPool>,
    /// Latency recorder shared by all instances of this operator; `None`
    /// keeps the hot path free of clock reads when telemetry is off.
    telemetry: Option<Arc<OperatorTelemetry>>,
    /// Failure containment (supervision + quarantine); `None` when off.
    supervision: Option<Supervision>,
    /// Span ring + this operator's trace track when causal tracing is on
    /// (ISSUE 7); `None` keeps the hot path free of trace branches.
    spans: Option<(Arc<SpanRing>, u16)>,
    /// True when this instance has no outgoing links: its execution span
    /// is the trace's terminal `sink` stage.
    is_sink: bool,
    /// Flight recorder for quarantine/panic events.
    recorder: Arc<FlightRecorder>,
    /// Dump the recorder to stderr only on the *first* quarantine this
    /// instance sees; later ones just record events.
    recorder_dumped: bool,
    /// Barrier alignment + restore plumbing (ISSUE 10); `None` when
    /// checkpointing is disabled — the drain loop is then a straight
    /// pass-through, bit-identical to a pre-checkpoint build.
    alignment: Option<Alignment>,
    /// Where this task leaves, as it terminates, the endpoints whose
    /// staged work a link still refuses: the job's, for `settle()`.
    handed_over: Arc<Mutex<Vec<ChannelEndpoint>>>,
}

impl ProcessorTask {
    /// Process inbound frames until the queue is empty, then flush every
    /// outgoing buffer: input arrives batched, so output leaves when the
    /// input runs out, not a flush interval later — or, in a drain longer
    /// than that, once it has waited a flush interval. Before each frame the
    /// task hands over what earlier ones left staged in its channels, and
    /// asks the processor whether it [`admits`](StreamProcessor::admits)
    /// one; while a link still refuses, or the processor does, the frames
    /// it has popped stay in the inbox, in order, and the execution ends —
    /// the task parks until that link's space listener, the processor's
    /// waker, or another inbound frame runs it again.
    fn drain_queue(&mut self) -> TaskOutcome {
        // Per-message ablation (Table I): one frame per scheduled
        // execution — the drain loop is what batched scheduling adds.
        let drain_fully = self.batch_max > 1;
        let mut admitted = 0usize;
        loop {
            if !self.ctx.hand_over_staged() || !self.processor.admits(&mut self.ctx) {
                return TaskOutcome::Continue;
            }
            if let Some(frame) = self.released.pop_front() {
                self.process_frame(frame);
                continue;
            }
            if self.inbox.is_empty() && self.queue.pop_batch(self.batch_max, &mut self.inbox) == 0 {
                // The input ran out, so the output leaves — in either
                // mode. A batch a link refuses here is staged, and its
                // space listener forces this task to hand it over.
                let _ = self.ctx.force_flush_all();
                self.next_due = None;
                return TaskOutcome::Continue;
            }
            if !drain_fully && admitted == 1 {
                // Ask for a fresh execution: frames whose signals were
                // coalesced into this one are still waiting.
                return TaskOutcome::Reschedule;
            }
            let frame = self.inbox.pop_front().expect("the inbox was refilled");
            admitted += 1;
            match self.admit(frame) {
                Admit::Process(frame) => self.process_frame(frame),
                Admit::Consumed => {}
                Admit::Release(held) => self.released.extend(held),
            }
            // A drain that outlasts a flush interval does not hold its
            // output longer: what has waited that long leaves now.
            let now = Instant::now();
            if self.next_due.is_none_or(|due| now >= due) {
                self.next_due = self.ctx.flush_due(now);
            }
        }
    }

    /// Route one popped frame through checkpoint admission: barriers are
    /// consumed (never counted as data frames, so the settle invariant is
    /// untouched), data on already-aligned channels is stashed until the
    /// round completes, everything else processes immediately. With
    /// checkpointing off this is a straight pass-through.
    fn admit(&mut self, frame: Frame) -> Admit {
        // Control frames are never data. Whatever the checkpoint config,
        // they must not reach the sequence check, the supervisor, or the
        // dead-letter queue — a cluster peer with checkpointing enabled
        // may still emit barriers at a node that has it disabled.
        if let Some(kind) = frame.control {
            if self.alignment.is_none() || kind != ControlKind::Barrier {
                return Admit::Consumed;
            }
        }
        match &mut self.alignment {
            None => Admit::Process(frame),
            Some(align) => {
                align.admit(frame, self.processor.as_mut(), &mut self.ctx, &self.expected_seq)
            }
        }
    }

    /// Process one admitted data frame: sequence check, telemetry, decode,
    /// execute (supervised or bare), recycle.
    fn process_frame(&mut self, frame: Frame) {
        let expected = self.expected_seq.entry(frame.link_id).or_insert(0);
        if frame.base_seq != *expected {
            self.counters.seq_violations.fetch_add(1, Ordering::Relaxed);
        }
        *expected = frame.base_seq + frame.messages.len() as u64;
        self.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        // Stage telemetry: schedule delay is how long the frame sat
        // on the inbound queue; transport is dispatch→arrival,
        // recovered by subtracting the queue wait from the
        // sender-stamped total in-flight time.
        // A traced frame pays the clock read even with telemetry
        // off — that cost is confined to the 1-in-N sampled path.
        let traced = frame.trace.filter(|_| self.spans.is_some());
        let now =
            if self.telemetry.is_some() || traced.is_some() { crate::now_micros() } else { 0 };
        if let Some(t) = &self.telemetry {
            let schedule_us = match frame.received_at {
                Some(received) => {
                    let us = received.elapsed().as_micros() as u64;
                    t.schedule_delay.record(us);
                    us
                }
                None => 0,
            };
            if frame.sent_at_micros > 0 {
                let in_flight = now.saturating_sub(frame.sent_at_micros);
                t.transport.record(in_flight.saturating_sub(schedule_us));
            }
        }
        if let Some(id) = traced {
            let (ring, track) = self.spans.as_ref().expect("traced implies ring");
            // Schedule span: how long the frame sat on the inbound
            // queue; transport span: sender dispatch → arrival here.
            if let Some(received) = frame.received_at {
                let wait = received.elapsed().as_micros() as u64;
                let arrival = now.saturating_sub(wait);
                ring.record(Span {
                    trace_id: id,
                    start_micros: arrival,
                    dur_micros: wait,
                    stage: STAGE_SCHEDULE,
                    track: *track,
                });
                if frame.sent_at_micros > 0 {
                    ring.record(Span {
                        trace_id: id,
                        start_micros: frame.sent_at_micros,
                        dur_micros: arrival.saturating_sub(frame.sent_at_micros),
                        stage: STAGE_TRANSPORT,
                        track: *track,
                    });
                }
            }
            // Causal propagation: the next flush on each outgoing
            // endpoint carries this id downstream.
            for link in self.ctx.endpoints() {
                link.tag_trace(id);
            }
        }
        let span_start = traced.map(|_| Instant::now());
        // The frame is the unit of accounting in both arms: packets are
        // counted locally while it decodes and published once below.
        let counted = match &self.supervision {
            None => Some(run_frame(
                self.processor.as_mut(),
                &mut self.ctx,
                &mut self.codec,
                &mut self.workhorse,
                self.telemetry.as_deref(),
                &frame.messages,
                now,
            )),
            Some(sup) => {
                // The frame is the poison unit: the whole message
                // loop runs under the supervisor so a panic anywhere
                // in decode or process is caught here. A retry
                // re-runs the full frame — messages processed before
                // the panic are re-emitted (at-least-once within the
                // retry window); counters are applied only on
                // success so retries do not inflate them.
                let processor = &mut self.processor;
                let ctx = &mut self.ctx;
                let workhorse = &mut self.workhorse;
                let codec = &mut self.codec;
                let telemetry = self.telemetry.as_deref();
                let messages = &frame.messages;
                let outcome = sup.supervisor.run_batch(
                    || {
                        run_frame(
                            processor.as_mut(),
                            ctx,
                            codec,
                            workhorse,
                            telemetry,
                            messages,
                            now,
                        )
                    },
                    |attempt| sup.backoff.delay_for(attempt),
                );
                let counted = match outcome {
                    SupervisedOutcome::Completed(counted) => Some(counted),
                    // Breaker open: drain-and-drop keeps the queue
                    // moving so the upstream gate reopens.
                    SupervisedOutcome::Rejected => None,
                    SupervisedOutcome::Quarantined { panic_msg, attempts, .. } => {
                        let rec = &self.recorder;
                        rec.record(EventKind::Panic, frame.link_id, attempts as u64);
                        rec.record(EventKind::DeadLetter, frame.link_id, frame.base_seq);
                        if !self.recorder_dumped {
                            self.recorder_dumped = true;
                            eprintln!(
                                "neptune[{}:{}]: frame quarantined; flight recorder:\n{}",
                                self.ctx.operator(),
                                self.ctx.instance(),
                                rec.to_json()
                            );
                        }
                        let mut bytes = Vec::new();
                        let mut original_len = 0usize;
                        for message in &frame.messages {
                            original_len += message.len();
                            if bytes.len() < DEAD_LETTER_CAPTURE_BYTES {
                                let take =
                                    (DEAD_LETTER_CAPTURE_BYTES - bytes.len()).min(message.len());
                                bytes.extend_from_slice(&message[..take]);
                            }
                        }
                        sup.dead_letters.push(DeadLetter {
                            operator: self.ctx.operator().to_string(),
                            instance: self.ctx.instance(),
                            link_id: frame.link_id,
                            base_seq: frame.base_seq,
                            messages: frame.messages.len() as u32,
                            panic_msg,
                            attempts,
                            bytes,
                            original_len,
                        });
                        None
                    }
                };
                // The per-operator supervisor (shared by all
                // instances) is the source of truth for containment
                // counters; mirror its monotonic totals into the
                // operator counters after every supervised frame.
                let stats = sup.supervisor.stats();
                self.counters.panics.store(stats.panics, Ordering::Relaxed);
                self.counters.retries.store(stats.retries, Ordering::Relaxed);
                self.counters.quarantined.store(stats.quarantined, Ordering::Relaxed);
                self.counters.breaker_trips.store(stats.breaker_trips, Ordering::Relaxed);
                self.counters.breaker_dropped.store(stats.breaker_rejected, Ordering::Relaxed);
                counted
            }
        };
        if let Some((decoded, undecodable)) = counted {
            self.counters.packets_in.fetch_add(decoded, Ordering::Relaxed);
            if undecodable > 0 {
                self.counters.seq_violations.fetch_add(undecodable, Ordering::Relaxed);
            }
        }
        if let Some((t0, id)) = span_start.zip(traced) {
            let (ring, track) = self.spans.as_ref().expect("traced implies ring");
            ring.record(Span {
                trace_id: id,
                start_micros: now,
                dur_micros: t0.elapsed().as_micros() as u64,
                stage: if self.is_sink { STAGE_SINK } else { STAGE_EXECUTION },
                track: *track,
            });
        }
        // Batch storage goes back to the pool once every message in
        // it has been decoded; the recycle is a no-op while other
        // frames still share the buffer.
        self.pool.recycle(frame.messages.into_batch());
    }
}

/// Run one admitted frame through the processor — the loop the bare and
/// the supervised arm of [`ProcessorTask::process_frame`] share. Returns
/// `(packets decoded, messages that failed to decode)`; the caller
/// publishes both once per frame. An operator that forwards encoded
/// batches claims the frame whole: nothing is decoded, so there is no
/// per-packet e2e sample either — only the frame-level stages.
fn run_frame(
    processor: &mut dyn StreamProcessor,
    ctx: &mut OperatorContext,
    codec: &mut PacketCodec,
    workhorse: &mut StreamPacket,
    telemetry: Option<&OperatorTelemetry>,
    messages: &FrameMessages,
    now: u64,
) -> (u64, u64) {
    if processor.process_encoded(messages, ctx) {
        return (messages.len() as u64, 0);
    }
    let (mut decoded, mut undecodable) = (0u64, 0u64);
    for message in messages {
        match codec.decode_into(message, workhorse) {
            Ok(()) => {
                decoded += 1;
                if let Some(t) = telemetry {
                    if let Some(ts) = workhorse.source_timestamp() {
                        t.e2e.record(now.saturating_sub(ts));
                    }
                }
                processor.process(workhorse, ctx);
            }
            Err(_) => undecodable += 1,
        }
    }
    (decoded, undecodable)
}

impl ComputationalTask for ProcessorTask {
    fn initialize(&mut self, _gctx: &TaskContext) {
        self.processor.open(&mut self.ctx);
        // Stateful recovery: overwrite open()'s defaults with the blob
        // captured at the last completed cut, so the instance resumes
        // exactly where the checkpoint left it.
        if let Some(align) = &mut self.alignment {
            if let Some(snap) = align.restored.take() {
                if let Some(state) = self.processor.state() {
                    if let Some(saved) =
                        snap.state_for(self.ctx.operator(), self.ctx.instance() as u32)
                    {
                        let _ = saved.restore_into(state);
                    }
                }
            }
        }
    }

    fn execute(&mut self, _gctx: &TaskContext) -> TaskOutcome {
        self.counters.executions.fetch_add(1, Ordering::Relaxed);
        match self.telemetry.clone() {
            None => self.drain_queue(),
            Some(t) => {
                let started = Instant::now();
                let outcome = self.drain_queue();
                t.execution.record(started.elapsed().as_micros() as u64);
                outcome
            }
        }
    }

    fn terminate(&mut self, _gctx: &TaskContext) {
        self.processor.close(&mut self.ctx);
        // close() may have emitted; flush it. This task runs no more, so
        // an endpoint whose link refuses part of that goes to the job,
        // whose `settle()` offers it from then on.
        let _ = self.ctx.force_flush_all();
        self.handed_over.lock().extend(self.ctx.take_staged_endpoints());
    }
}

pub(super) fn deploy(graph: Graph, config: RuntimeConfig) -> Result<JobHandle, SubmitError> {
    let registry = MetricsRegistry::new();
    let telemetry_hub = config.telemetry.enabled.then(|| Arc::new(TelemetryHub::new()));
    // ---- Observability plane (ISSUE 7): causal span ring, `None`-gated
    // so an untraced job pays nothing, and the flight recorder, which
    // records edges only and is always there. ----
    let spans = (config.telemetry.trace_sample_every > 0)
        .then(|| Arc::new(SpanRing::new(TRACE_CAPACITY, config.telemetry.trace_sample_every)));
    let recorder = Arc::new(FlightRecorder::new(RECORDER_CAPACITY));
    let stop_flag = Arc::new(AtomicBool::new(false));
    // One batch-buffer pool per job: output buffers check storage out,
    // transports hand it to receiving tasks by refcount, and processed
    // frames recycle it (§III-B3 object reuse, now across threads).
    let pool = Arc::new(BytesPool::default());

    // ---- Failure containment: dead-letter queue, and the count of what
    // the sources shed (only they do, and only with a `max_stall`). ----
    let shed_total = Arc::new(AtomicU64::new(0));
    let dead_letters =
        config.containment.enabled.then(|| Arc::new(DeadLetterQueue::new(DEAD_LETTER_CAPACITY)));

    // ---- Checkpointing (ISSUE 10): snapshot store, coordinator, and the
    // restore source for stateful recovery. Everything hangs off the
    // default-off flag, so a disabled job deploys bit-identically. ----
    let checkpoint = if config.checkpoint.enabled {
        let store: Box<dyn SnapshotStore> = match &config.checkpoint.store {
            SnapshotStoreKind::Memory => {
                Box::new(MemorySnapshotStore::new(config.checkpoint.retain))
            }
            SnapshotStoreKind::File(dir) => {
                Box::new(FileSnapshotStore::new(dir.clone(), config.checkpoint.retain))
            }
        };
        let restored = store
            .latest()
            .map_err(|e| SubmitError::Io(format!("checkpoint restore: {e}")))?
            .map(Arc::new);
        let participants: usize = graph.operators().iter().map(|o| o.parallelism).sum();
        let coordinator = Arc::new(CheckpointCoordinator::new(store, participants));
        Some((coordinator, restored, Arc::new(AtomicU64::new(0))))
    } else {
        None
    };

    // ---- Placement: strategy-driven assignment of instances. ----
    let n_resources = config.resources;
    // Expand the strategy into a placement cycle: round-robin is the
    // uniform cycle; capacity-weighted repeats each resource index in
    // proportion to its weight, interleaved so heavy resources do not
    // receive long runs of consecutive instances.
    let cycle: Vec<usize> = match &config.placement {
        PlacementStrategy::RoundRobin => (0..n_resources).collect(),
        PlacementStrategy::CapacityWeighted(weights) => {
            let max_w = *weights.iter().max().expect("validated nonempty");
            let mut cycle = Vec::new();
            for round in 0..max_w {
                for (ri, &w) in weights.iter().enumerate() {
                    if round < w {
                        cycle.push(ri);
                    }
                }
            }
            cycle
        }
    };
    let mut placement: HashMap<(usize, usize), usize> = HashMap::new();
    let mut placement_table: Vec<(String, usize, usize)> = Vec::new();
    {
        let mut rr = 0usize;
        for (oi, op) in graph.operators().iter().enumerate() {
            for inst in 0..op.parallelism {
                let resource = cycle[rr % cycle.len()];
                placement.insert((oi, inst), resource);
                placement_table.push((op.name.clone(), inst, resource));
                rr += 1;
            }
        }
    }

    // ---- Resources: at least one worker per processor instance placed
    // on each. Progress does not need it — a processor whose output a
    // link refuses parks instead of holding its worker — but the benchmark
    // pins `worker_threads` to 1 and relies on this floor for its
    // parallelism, so lowering it is the benchmark's decision. ----
    let mut processor_instances_per_resource = vec![0usize; n_resources];
    for (oi, op) in graph.operators().iter().enumerate() {
        if op.kind() == OperatorKind::Processor {
            for inst in 0..op.parallelism {
                processor_instances_per_resource[placement[&(oi, inst)]] += 1;
            }
        }
    }
    let auto_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let resources: Vec<Resource> = (0..n_resources)
        .map(|ri| {
            let base = config.worker_threads.unwrap_or(auto_workers);
            let workers = base.max(processor_instances_per_resource[ri]).max(1);
            Resource::builder(format!("{}-res{ri}", graph.name())).workers(workers).build()
        })
        .collect();

    // ---- The IO tier: one event-driven pool for every background duty,
    // created before any socket so TCP tasks can land on it. ----
    let io_pool = IoPool::new(graph.name(), config.io_threads.unwrap_or_else(auto_io_threads));
    io_pool.attach_recorder(recorder.clone());

    // ---- The network reactor: every TCP acceptor/connection/sender runs
    // as an IO-pool task woken by epoll readiness — no per-connection
    // threads. ----
    let net_driver = (config.transport == TransportMode::Tcp)
        .then(|| Reactor::new(graph.name()).map_err(|e| SubmitError::Io(e.to_string())))
        .transpose()?
        .map(|r| (NetDriver::new(io_pool.spawner(), r.handle()), r));
    if let Some((_, r)) = &net_driver {
        r.handle().attach_recorder(recorder.clone());
        if let Some(sp) = &spans {
            r.handle().attach_span_ring(sp.clone());
        }
    }

    // ---- Inbound queues (one per processor instance). ----
    let watermark = WatermarkConfig::new(config.watermark_high, config.watermark_low);
    let mut queues_by_instance: HashMap<(usize, usize), Arc<WatermarkQueue<Frame>>> =
        HashMap::new();
    let mut receivers: Vec<TcpReceiver> = Vec::new();
    let mut receiver_addr: HashMap<(usize, usize), std::net::SocketAddr> = HashMap::new();
    let mut receiver_index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut all_queues: Vec<Arc<WatermarkQueue<Frame>>> = Vec::new();

    for (oi, op) in graph.operators().iter().enumerate() {
        if op.kind() != OperatorKind::Processor {
            continue;
        }
        for inst in 0..op.parallelism {
            let my_res = placement[&(oi, inst)];
            // Does any inbound channel cross resources under TCP mode?
            let needs_tcp = config.transport == TransportMode::Tcp
                && graph.in_links(&op.name).iter().any(|&li| {
                    let from = &graph.links()[li].from;
                    let (foi, fop) = graph
                        .operators()
                        .iter()
                        .enumerate()
                        .find(|(_, o)| &o.name == from)
                        .expect("validated");
                    (0..fop.parallelism).any(|si| placement[&(foi, si)] != my_res)
                });
            let queue = if needs_tcp {
                let (driver, _) = net_driver.as_ref().expect("TCP transport has a reactor");
                let rx = TcpReceiver::bind_reactor_pooled(
                    "127.0.0.1:0",
                    watermark,
                    pool.clone(),
                    driver,
                )
                .map_err(|e| SubmitError::Io(e.to_string()))?;
                let q = rx.queue();
                receiver_addr.insert((oi, inst), rx.local_addr());
                receiver_index.insert((oi, inst), receivers.len());
                receivers.push(rx);
                q
            } else {
                Arc::new(WatermarkQueue::new(watermark))
            };
            all_queues.push(queue.clone());
            queues_by_instance.insert((oi, inst), queue);
        }
    }
    // Gate open/close events, tagged by queue index — the same
    // index the queue gauges export.
    for (i, q) in all_queues.iter().enumerate() {
        q.attach_recorder(recorder.clone(), i as u64);
    }

    // ---- Channel endpoints per link x (src_inst, dst_inst). ----
    let op_index: HashMap<&str, usize> =
        graph.operators().iter().enumerate().map(|(i, o)| (o.name.as_str(), i)).collect();
    let mut outgoing: HashMap<(usize, usize), Vec<OutgoingLink>> = HashMap::new();
    let mut all_links: Vec<Arc<Link>> = Vec::new();
    let mut has_data: Vec<Arc<AtomicBool>> = Vec::new();
    // Deliver hooks installed after tasks exist: channel -> (oi, inst).
    let mut inproc_links: Vec<(Arc<Link>, (usize, usize))> = Vec::new();

    for (li, link) in graph.links().iter().enumerate() {
        let src_oi = op_index[link.from.as_str()];
        let dst_oi = op_index[link.to.as_str()];
        let src_par = graph.operators()[src_oi].parallelism;
        let dst_par = graph.operators()[dst_oi].parallelism;
        let src_counters = registry.for_operator(&link.from);
        let buffer_bytes = config.effective_buffer_bytes(link.options.buffer_bytes);
        let flush_interval = link.options.flush_interval.unwrap_or(config.flush_interval);
        let compression = link.options.compression.unwrap_or(config.compression);

        for src_inst in 0..src_par {
            let src_res = placement[&(src_oi, src_inst)];
            let mut endpoints = Vec::with_capacity(dst_par);
            for dst_inst in 0..dst_par {
                let dst_res = placement[&(dst_oi, dst_inst)];
                let channel = ChannelId::new(li as u16, src_inst as u16, dst_inst as u16);
                let use_tcp = config.transport == TransportMode::Tcp && src_res != dst_res;
                let builder = LinkBuilder::new(channel.raw());
                let built = if use_tcp {
                    let addr = receiver_addr[&(dst_oi, dst_inst)];
                    let (driver, _) = net_driver.as_ref().expect("TCP transport has a reactor");
                    let sender = TcpSender::connect_reactor(addr, IO_QUEUE_DEPTH, driver)
                        .map_err(|e| SubmitError::Io(e.to_string()))?;
                    builder.tcp(sender, compression.to_compressor()).build()
                } else {
                    let q = queues_by_instance[&(dst_oi, dst_inst)].clone();
                    let l = builder.in_process(q).build();
                    inproc_links.push((l.clone(), (dst_oi, dst_inst)));
                    l
                };
                let ep = ChannelEndpoint::new(
                    OutputBuffer::with_pool(buffer_bytes, Some(flush_interval), pool.clone()),
                    built,
                    src_counters.clone(),
                    // Buffer-wait latency is attributed to the *sending*
                    // operator: its output buffer is where packets wait.
                    telemetry_hub.as_ref().map(|h| h.for_operator(&link.from)),
                );
                if let Some(sp) = &spans {
                    // Source-fed endpoints *originate* trace ids (1-in-N of
                    // their packets); downstream endpoints only propagate
                    // ids tagged by their processor.
                    let originate = graph.operators()[src_oi].kind() == OperatorKind::Source;
                    ep.set_tracing(sp.clone(), sp.register_track(&link.from), originate);
                }
                all_links.push(ep.link().clone());
                has_data.push(ep.has_data());
                endpoints.push(ep);
            }
            outgoing.entry((src_oi, src_inst)).or_default().push(OutgoingLink::new(
                link.to.clone(),
                &link.partitioning,
                endpoints,
            ));
        }
    }

    // ---- Deploy processor tasks. ----
    let batch_max = config.effective_batch_max();
    let handed_over = Arc::new(Mutex::new(Vec::new()));
    let mut task_handles: HashMap<(usize, usize), neptune_granules::TaskHandle> = HashMap::new();
    let mut handles_by_operator: HashMap<String, Vec<neptune_granules::TaskHandle>> =
        HashMap::new();
    for (oi, op) in graph.operators().iter().enumerate() {
        let Factory::Processor(factory) = &op.factory else {
            continue;
        };
        let counters = registry.for_operator(&op.name);
        // One supervisor per operator: all instances share its circuit
        // breaker, so a persistently poisonous operator trips once for the
        // whole operator, not once per instance.
        let supervisor = dead_letters.as_ref().map(|_| {
            let s = Arc::new(OperatorSupervisor::new(SupervisorPolicy {
                max_retries: config.containment.max_retries,
                breaker_threshold: config.containment.breaker_threshold,
                cooldown: config.containment.breaker_cooldown,
                required_probes: BREAKER_PROBES,
            }));
            // Breaker transitions, tagged by operator index.
            s.breaker().attach_recorder(recorder.clone(), oi as u64);
            s
        });
        for inst in 0..op.parallelism {
            let links = outgoing.remove(&(oi, inst)).unwrap_or_default();
            let mut ctx = OperatorContext::for_channels(
                op.name.clone(),
                inst,
                op.parallelism,
                links,
                counters.clone(),
            );
            // The processor's waker forces its task, once deployed. A link
            // that had no room for its output fires it when it has; the
            // task first runs after deploy, so no refusal precedes that.
            let slot: Arc<OnceLock<neptune_granules::TaskHandle>> = Arc::new(OnceLock::new());
            let waker_slot = slot.clone();
            let waker: Waker = Arc::new(move || {
                if let Some(handle) = waker_slot.get() {
                    handle.force();
                }
            });
            for ep in ctx.endpoints() {
                ep.link().add_space_listener(waker.clone());
            }
            ctx.set_task_waker(waker);
            let supervision =
                supervisor.as_ref().zip(dead_letters.as_ref()).map(|(s, dlq)| Supervision {
                    supervisor: s.clone(),
                    // Decorrelate retry jitter across instances while
                    // keeping it a pure function of the seed.
                    backoff: ReconnectPolicy::fast(
                        RETRY_BACKOFF_SEED ^ ((oi as u64) << 32 | inst as u64),
                    ),
                    dead_letters: dlq.clone(),
                });
            let is_sink = ctx.endpoints().next().is_none();
            let task = ProcessorTask {
                processor: factory(),
                ctx,
                queue: queues_by_instance[&(oi, inst)].clone(),
                codec: PacketCodec::new(),
                workhorse: StreamPacket::new(),
                inbox: VecDeque::with_capacity(batch_max),
                released: VecDeque::new(),
                batch_max,
                next_due: None,
                counters: counters.clone(),
                expected_seq: HashMap::new(),
                pool: pool.clone(),
                telemetry: telemetry_hub.as_ref().map(|h| h.for_operator(&op.name)),
                supervision,
                spans: spans.as_ref().map(|sp| (sp.clone(), sp.register_track(&op.name))),
                is_sink,
                recorder: recorder.clone(),
                recorder_dumped: false,
                alignment: checkpoint.as_ref().map(|(coord, restored, _)| {
                    // Every inbound channel feeding this instance's queue:
                    // all source instances of every in-link, keyed by the
                    // same raw channel id the frames carry.
                    let inputs: Vec<u64> = graph
                        .in_links(&op.name)
                        .iter()
                        .flat_map(|&li| {
                            let from = &graph.links()[li].from;
                            let src_par = graph.operators()[op_index[from.as_str()]].parallelism;
                            (0..src_par).map(move |si| {
                                ChannelId::new(li as u16, si as u16, inst as u16).raw()
                            })
                        })
                        .collect();
                    Alignment {
                        coordinator: coord.clone(),
                        inputs,
                        finished: HashSet::new(),
                        current: None,
                        aligned: HashSet::new(),
                        held: Vec::new(),
                        completed_through: 0,
                        final_forwarded: false,
                        restored: restored.clone(),
                    }
                }),
                handed_over: handed_over.clone(),
            };
            let resource = &resources[placement[&(oi, inst)]];
            // Batched scheduling lets a slot drain bursts on one worker
            // stint; the per-message ablation forces a fresh scheduler
            // crossing (pool handoff) per execution, like the paper's
            // individual-message mode.
            let spec = if config.batched_scheduling {
                ScheduleSpec::data_driven()
            } else {
                ScheduleSpec::data_driven().with_max_consecutive_runs(1)
            };
            let handle =
                resource.deploy(task, spec).map_err(|e| SubmitError::Config(e.to_string()))?;
            let _ = slot.set(handle.clone());
            task_handles.insert((oi, inst), handle.clone());
            handles_by_operator.entry(op.name.clone()).or_default().push(handle);
        }
    }

    // ---- Wire delivery notifications to task signals. ----
    for (l, dst) in inproc_links {
        let handle = task_handles[&dst].clone();
        l.on_deliver(move || handle.signal());
    }
    for ((oi, inst), ri) in &receiver_index {
        let handle = task_handles[&(*oi, *inst)].clone();
        receivers[*ri].on_deliver(move || handle.signal());
    }
    // Every processor opens now, not on its first frame: this first
    // execution's drain finds no input and flushes what `open()` emitted,
    // which must not wait for input that may never come.
    for handle in task_handles.values() {
        handle.force();
    }

    // ---- Source pumps: cooperatively scheduled IO tasks. ----
    let pump_gauge = Arc::new(PumpGauge::new());
    let mut pump_handles: Vec<IoTaskHandle> = Vec::new();
    for (oi, op) in graph.operators().iter().enumerate() {
        let Factory::Source(factory) = &op.factory else {
            continue;
        };
        let counters = registry.for_operator(&op.name);
        for inst in 0..op.parallelism {
            let links = outgoing.remove(&(oi, inst)).unwrap_or_default();
            let mut ctx = OperatorContext::for_channels(
                op.name.clone(),
                inst,
                op.parallelism,
                links,
                counters.clone(),
            );
            // The pump's handle exists only once the pump — which owns the
            // context — is spawned; the waker reaches it through a slot
            // filled right after.
            let slot: Arc<OnceLock<IoTaskHandle>> = Arc::new(OnceLock::new());
            let waker: Waker = {
                let slot = slot.clone();
                Arc::new(move || {
                    if let Some(handle) = slot.get() {
                        handle.wake();
                    }
                })
            };
            // Every outgoing link is a gate this pump must respect, whatever
            // its flavour: one that had no room wakes it when it has.
            for ep in ctx.endpoints() {
                ep.link().add_space_listener(waker.clone());
            }
            ctx.set_task_waker(waker);
            pump_gauge.inc();
            let pump = SourcePump {
                source: factory(),
                ctx,
                stop: stop_flag.clone(),
                gauge: pump_gauge.clone(),
                idle_backoff: super::pumps::MIN_IDLE_BACKOFF,
                next_due: None,
                opened: false,
                closed: false,
                spans: spans.as_ref().map(|sp| (sp.clone(), sp.register_track(&op.name))),
                stints: 0,
                checkpoint: checkpoint.as_ref().map(|(coord, restored, requested)| SourceBarrier {
                    coordinator: coord.clone(),
                    requested: requested.clone(),
                    emitted: 0,
                    restored: restored.clone(),
                }),
                shed: config.containment.max_stall.map(|max_stall| SourceShed {
                    max_stall,
                    throttled_since: None,
                    total: shed_total.clone(),
                    recorder: recorder.clone(),
                }),
            };
            // Spawn parked, fill the waker's slot, then kick the first run:
            // a listener that fires before the slot is filled wakes nobody,
            // but that first run asks every link anyway.
            let handle = io_pool.spawn_parked(pump);
            let _ = slot.set(handle.clone());
            handle.wake();
            pump_handles.push(handle);
        }
    }

    // ---- Barrier timer: opens a checkpoint round every interval and
    // wakes every pump so parked sources serve the round promptly. ----
    if let Some((coord, _, requested)) = &checkpoint {
        io_pool.spawn_periodic(
            config.checkpoint.interval,
            BarrierTimerTask {
                coordinator: coord.clone(),
                requested: requested.clone(),
                pumps: pump_handles.clone(),
            },
        );
    }

    // Topological order of processor handles for close-time draining.
    let processor_handles: Vec<(String, Vec<neptune_granules::TaskHandle>)> = graph
        .topological_order()
        .into_iter()
        .filter_map(|name| handles_by_operator.remove(name).map(|hs| (name.to_string(), hs)))
        .collect();

    // ---- The job's read-side state: everything a metrics read folds,
    // shared by the handle, the sampler and the scrape routes. ----
    let series = telemetry_hub.as_ref().map(|_| Arc::new(SampleRing::new(SERIES_CAPACITY)));
    let shared = Arc::new(JobShared {
        graph_name: graph.name().to_string(),
        registry,
        pool,
        queues: all_queues,
        links: all_links,
        receivers: Mutex::new(receivers),
        telemetry_hub,
        series,
        dead_letters,
        spans,
        recorder,
        shed_total,
        checkpoints: checkpoint.map(|(c, _, _)| c),
        io: io_pool.spawner(),
        workers: resources.iter().map(|r| r.worker_gauges()).collect(),
        reactor: net_driver.as_ref().map(|(_, r)| r.handle()),
    });

    // ---- Telemetry sampler: periodic timer task (§IV, Fig. 4). ----
    if let Some(ring) = &shared.series {
        io_pool.spawn_periodic(
            config.telemetry.sample_interval,
            SamplerTask { ring: ring.clone(), job: shared.clone() },
        );
    }

    // ---- Live scrape endpoint: /metrics · /traces · /events served by
    // one IO-tier task (ISSUE 7). Bound eagerly so a bad address fails
    // the submit, not the first scrape. ----
    let scrape_addr = match &config.telemetry.scrape_addr {
        None => None,
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr.as_str())
                .map_err(|e| SubmitError::Io(format!("scrape bind {addr}: {e}")))?;
            listener.set_nonblocking(true).map_err(|e| SubmitError::Io(e.to_string()))?;
            let bound = listener.local_addr().map_err(|e| SubmitError::Io(e.to_string()))?;
            let routes = ScrapeRoutes::over(&shared);
            match &net_driver {
                Some((_, r)) => {
                    use std::os::fd::AsRawFd;
                    let waker = NetWaker::new();
                    let source = r
                        .handle()
                        .register(listener.as_raw_fd(), waker.clone())
                        .map_err(|e| SubmitError::Io(e.to_string()))?;
                    let handle =
                        io_pool.spawn_parked(ScrapeTask::new(listener, routes, Some(source)));
                    waker.set(handle.clone());
                    handle.wake();
                }
                None => {
                    io_pool.spawn(ScrapeTask::new(listener, routes, None));
                }
            }
            Some(bound)
        }
    };

    Ok(JobHandle {
        stop_flag,
        pump_gauge,
        pump_handles,
        io_pool: Some(io_pool),
        reactor: net_driver.map(|(_, r)| r),
        resources,
        processor_handles,
        has_data,
        handed_over,
        placement: placement_table,
        scrape_addr,
        shared,
    })
}
