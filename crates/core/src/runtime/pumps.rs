//! IO-tier tasks of the runtime: source pumps, the barrier timer, and the
//! telemetry sampler — [`IoTask`] state machines on the job's shared
//! [`neptune_granules::IoPool`].
//!
//! A pump fills its source's output buffers, and batches only while its
//! source keeps it busy. A stint that ends on its emit budget — every call
//! answered at once — leaves the buffers filling toward their byte
//! capacity. A stint that ends any other way flushes them all before the
//! pump yields or parks: the source answered `Idle` or `Pending`, or its
//! calls used up the stint's time budget because it sleeps or blocks in
//! `next()`. That is a processor's rule — output leaves when the input
//! runs out — applied to a source. The flush timer is the backstop for the
//! rest: a source that keeps its pump busy without filling a buffer, and a
//! pump parked on one refusing link while its other channels hold data. A
//! pump flushes a buffer whose deadline has passed as it runs, and never
//! sleeps past the earliest deadline of its channels.
//!
//! None of these tasks waits on its thread. A task with nothing to do
//! parks, and whoever feeds it holds its waker:
//!
//! * a pump whose source has nothing to emit parks with exponential
//!   back-off ([`IoStatus::ParkUntil`]) — or, if the source took the
//!   pump's waker and answered [`SourceStatus::Pending`], until the
//!   source's feeder fires it;
//! * a pump one of whose outgoing links cannot take a batch — a closed
//!   watermark gate in process, a full sender queue over TCP; the pump
//!   asks [`Link::admits`](neptune_link::Link::admits) either way —
//!   parks until that link's space listener wakes it — or, if the job
//!   sets `ContainmentConfig::max_stall`, until that long after the
//!   refusals began. A pump still refused then sheds: it runs its source
//!   again, and its context drops each packet unencoded until every link
//!   admits (one [`EventKind::Shed`] per episode). Nothing past the pump
//!   ever drops a packet;
//! * either way, while a channel holds buffered packets, not past that
//!   channel's flush deadline;
//! * the barrier timer and the sampler are periodic timer registrations.
//!
//! That includes finishing: a pump that is done flushes and seals its
//! channels, and stays parked on its links' space listeners until they
//! have taken what they refused then. Its channels are its own till the
//! end: `settle()` only watches them.
//!
//! Idle cost is therefore O(io_threads), not O(sources). Busy cost is per
//! packet only for the packet itself: inside its emit loop a pump reads
//! two flags, the clock (once, for its stint budget and its next flush
//! deadline), each outgoing link's lock-free admission mirror and whether
//! it may shed, and calls the source; it signals nobody and takes no lock
//! — its endpoints are its own. The one condvar ([`PumpGauge`]) fires when
//! a pump finishes, and it is the job's caller who waits there.

use super::JobShared;
use crate::checkpoint::{CheckpointCoordinator, CheckpointSnapshot, InstanceState, FINAL_BARRIER};
use crate::operator::{OperatorContext, SourceStatus, StreamSource};
use crate::telemetry::TelemetrySample;
use neptune_granules::io::{IoContext, IoStatus, IoTask};
use neptune_granules::sync::{Condvar, Mutex};
use neptune_granules::IoTaskHandle;
use neptune_telemetry::{
    wall_micros, EventKind, FlightRecorder, SampleRing, Span, SpanRing, STAGE_SOURCE,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First idle park of a source pump; doubles on consecutive idles.
pub(crate) const MIN_IDLE_BACKOFF: Duration = Duration::from_micros(200);
/// Idle backoff cap: an idle source costs one timer fire per 20ms, total.
pub(crate) const MAX_IDLE_BACKOFF: Duration = Duration::from_millis(20);
/// Packets a pump may emit in one stint before yielding the IO thread.
pub(crate) const EMIT_BUDGET: usize = 64;
/// Wall-clock cap on one pump stint. Sources are supposed to return
/// promptly from `next()`, but one that blocks inside it (paced test
/// sources, slow devices) must not hold an IO thread — and with it every
/// other pump's flush deadlines — for a whole emit budget. A stint that
/// ends on this cap flushes its source's buffers.
pub(crate) const STINT_BUDGET: Duration = Duration::from_millis(1);

/// Counts live source pumps and is the job's one lifecycle signal: `dec`
/// notifies, `await_sources` sleeps on zero and `settle` paces its
/// re-checks on the same condvar. Nothing signals per packet — a job whose
/// sources are still emitting cannot settle, and an unheard notify is a
/// futex syscall all the same.
#[derive(Default)]
pub(crate) struct PumpGauge {
    count: Mutex<usize>,
    cv: Condvar,
}

impl PumpGauge {
    pub(crate) fn new() -> Self {
        PumpGauge::default()
    }

    pub(crate) fn inc(&self) {
        *self.count.lock() += 1;
    }

    pub(crate) fn dec(&self) {
        let mut c = self.count.lock();
        *c = c.saturating_sub(1);
        self.cv.notify_all();
    }

    pub(crate) fn active(&self) -> usize {
        *self.count.lock()
    }

    /// Block until every pump finished (true) or `deadline` passed (false).
    pub(crate) fn wait_zero(&self, deadline: Instant) -> bool {
        let mut c = self.count.lock();
        while *c > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.cv.wait_for(&mut c, deadline - now);
        }
        true
    }

    /// Sleep until a pump finishes, at most `timeout`.
    pub(crate) fn wait_change(&self, timeout: Duration) {
        let mut c = self.count.lock();
        self.cv.wait_for(&mut c, timeout);
    }
}

/// Checkpoint plumbing of one source pump (ISSUE 10): the pump watches
/// the job-wide requested-round counter and, on a new round, snapshots
/// its source state, pushes a barrier behind the flushed data on every
/// outgoing channel, and reports to the coordinator.
pub(crate) struct SourceBarrier {
    pub(crate) coordinator: Arc<CheckpointCoordinator>,
    /// Latest round requested by the barrier timer (job-wide).
    pub(crate) requested: Arc<AtomicU64>,
    /// Latest round this pump has emitted barriers for.
    pub(crate) emitted: u64,
    /// Snapshot to restore into the source at open; taken once.
    pub(crate) restored: Option<Arc<CheckpointSnapshot>>,
}

/// Source-side load shedding of one pump (`ContainmentConfig::max_stall`).
pub(crate) struct SourceShed {
    /// How long backpressure may hold the pump back before it sheds.
    pub(crate) max_stall: Duration,
    /// When the links' refusals began; `None` while they admit.
    pub(crate) throttled_since: Option<Instant>,
    /// The job's count of shed packets.
    pub(crate) total: Arc<AtomicU64>,
    /// Where each episode is timelined.
    pub(crate) recorder: Arc<FlightRecorder>,
}

/// One source instance as a cooperatively scheduled IO task.
pub(crate) struct SourcePump {
    pub(crate) source: Box<dyn StreamSource>,
    pub(crate) ctx: OperatorContext,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) gauge: Arc<PumpGauge>,
    pub(crate) idle_backoff: Duration,
    /// Earliest flush deadline among the pump's channels, as of its last
    /// pass over them (once per stint, and when it passes).
    pub(crate) next_due: Option<Instant>,
    pub(crate) opened: bool,
    pub(crate) closed: bool,
    /// Span ring + this source's track when tracing is on (ISSUE 7).
    /// Pump stints are sampled deterministically by stint count; their
    /// spans carry trace id 0 (a stint spans many packets).
    pub(crate) spans: Option<(Arc<SpanRing>, u16)>,
    /// Stints run so far, the sampling domain for source spans.
    pub(crate) stints: u64,
    /// Aligned-snapshot plumbing (ISSUE 10); `None` when checkpointing is
    /// disabled — the pump then runs bit-identically to a pre-checkpoint
    /// build.
    pub(crate) checkpoint: Option<SourceBarrier>,
    /// `None` unless the job sheds: the pump then only parks.
    pub(crate) shed: Option<SourceShed>,
}

impl SourcePump {
    /// Close-once path shared by exhaustion, stop, and pool shutdown.
    /// Nothing here waits: what a link cannot take now stays staged in its
    /// channel, in order, and the pump parks on that link's space listener
    /// until it has handed it over.
    fn finish(&mut self) -> IoStatus {
        if !self.closed {
            self.closed = true;
            // What the source emits as it closes goes out, or is staged.
            self.end_shedding();
            // Contribute to any round requested before the source ended,
            // then seal every outgoing channel with FINAL_BARRIER so
            // downstream alignment treats them as permanently aligned.
            self.emit_barriers();
            if self.opened {
                self.source.close(&mut self.ctx);
                let _ = self.ctx.force_flush_all();
            }
            if self.checkpoint.is_some() {
                self.ctx.barrier(FINAL_BARRIER);
            }
            self.gauge.dec();
        }
        if self.ctx.hand_over_staged() {
            IoStatus::Complete
        } else {
            IoStatus::Park
        }
    }

    /// Park until `until`, if given, or a wake — and, while a channel holds
    /// buffered packets, not past its flush deadline. The stint's one pass
    /// over the pump's channels: flush what is due, note what is next.
    fn park(&mut self, until: Option<Instant>) -> IoStatus {
        self.next_due = self.ctx.flush_due(Instant::now());
        match until.into_iter().chain(self.next_due).min() {
            Some(at) => IoStatus::ParkUntil(at),
            None => IoStatus::Park,
        }
    }

    /// The links refused at `now`. Park until one makes room — and, with
    /// a stall budget, not past its end; `None` once the budget is spent:
    /// the context sheds, and the pump runs the source on.
    fn held_back(&mut self, now: Instant) -> Option<IoStatus> {
        let Some(shed) = &mut self.shed else { return Some(self.park(None)) };
        let until = *shed.throttled_since.get_or_insert(now) + shed.max_stall;
        if now < until {
            return Some(self.park(Some(until)));
        }
        self.ctx.shed();
        None
    }

    /// End the shedding episode, if one ran: the links admit again, or
    /// the source is closing.
    #[inline]
    fn end_shedding(&mut self) {
        let Some(shed) = &mut self.shed else { return };
        if shed.throttled_since.take().is_none() {
            return;
        }
        if let Some(dropped) = self.ctx.stop_shedding().filter(|&n| n > 0) {
            shed.total.fetch_add(dropped, Ordering::Relaxed);
            shed.recorder.record(EventKind::Shed, self.ctx.instance() as u64, dropped);
        }
    }

    /// If the barrier timer requested a round this pump has not served
    /// yet, snapshot the source's state, flush, emit the barrier on every
    /// outgoing channel, and report to the coordinator. Rounds missed
    /// while parked collapse into the newest one — the coordinator
    /// abandons the stale rounds when the newer cut completes.
    fn emit_barriers(&mut self) {
        let Some(cp) = &mut self.checkpoint else { return };
        let requested = cp.requested.load(Ordering::Acquire);
        if requested <= cp.emitted {
            return;
        }
        cp.emitted = requested;
        let mut states = Vec::new();
        if let Some(state) = self.source.state() {
            states.push(InstanceState::capture(
                self.ctx.operator(),
                self.ctx.instance() as u32,
                state,
            ));
        }
        self.ctx.barrier(requested);
        cp.coordinator.report(requested, crate::now_micros(), states, Vec::new());
    }
}

impl IoTask for SourcePump {
    fn run(&mut self, io: &IoContext) -> IoStatus {
        // Sampled stints get a source-stage span; unsampled ones pay a
        // mask test and an increment, nothing else (no clock reads when
        // tracing is off — the invariant the overhead bench asserts).
        match &self.spans {
            None => self.run_inner(io),
            Some((ring, track)) if ring.sampled(self.stints) => {
                let (ring, track) = (ring.clone(), *track);
                self.stints = self.stints.wrapping_add(1);
                let start = wall_micros();
                let t0 = Instant::now();
                let status = self.run_inner(io);
                ring.record(Span {
                    trace_id: 0,
                    start_micros: start,
                    dur_micros: t0.elapsed().as_micros() as u64,
                    stage: STAGE_SOURCE,
                    track,
                });
                status
            }
            Some(_) => {
                self.stints = self.stints.wrapping_add(1);
                self.run_inner(io)
            }
        }
    }

    fn on_shutdown(&mut self) {
        self.finish();
    }
}

impl SourcePump {
    fn run_inner(&mut self, io: &IoContext) -> IoStatus {
        if self.closed {
            return self.finish();
        }
        if !self.opened {
            self.opened = true;
            self.source.open(&mut self.ctx);
            // Stateful recovery: overwrite open()'s defaults with the
            // restored blob, so the source resumes from the cut.
            if let Some(cp) = &mut self.checkpoint {
                if let Some(snap) = cp.restored.take() {
                    if let Some(state) = self.source.state() {
                        if let Some(saved) =
                            snap.state_for(self.ctx.operator(), self.ctx.instance() as u32)
                        {
                            let _ = saved.restore_into(state);
                        }
                    }
                }
            }
        }
        // Serve a requested checkpoint round before emitting more data:
        // the barrier must sit exactly at the round's cut point.
        self.emit_barriers();
        let stint_start = Instant::now();
        for _ in 0..EMIT_BUDGET {
            if self.stop.load(Ordering::Acquire) || io.shutting_down() {
                return self.finish();
            }
            let now = Instant::now();
            if self.next_due.is_some_and(|due| now >= due) {
                self.next_due = self.ctx.flush_due(now);
            }
            // Admission: a link that cannot take a batch now — a closed
            // watermark gate, a full sender queue — means downstream is
            // saturated, and so does a batch an earlier emit left staged
            // that its link still refuses. Park instead of emitting into
            // that; the link's space listener wakes us.
            if !self.ctx.hand_over_staged() || self.ctx.endpoints().any(|ep| !ep.link().admits()) {
                if let Some(parked) = self.held_back(now) {
                    return parked;
                }
            } else {
                self.end_shedding();
            }
            if now.duration_since(stint_start) >= STINT_BUDGET {
                // The source sleeps or blocks inside `next()` (or the host
                // preempted this thread): it does not keep the pump busy,
                // so its batches leave now. After admission: a pump a link
                // holds back parks above, and its other channels keep
                // their deadlines.
                let _ = self.ctx.force_flush_all();
                break;
            }
            match self.source.next(&mut self.ctx) {
                SourceStatus::Emitted(_) => self.idle_backoff = MIN_IDLE_BACKOFF,
                // Whoever feeds the source holds our waker: nothing to
                // poll until it fires. The source ran out, so its output
                // leaves.
                SourceStatus::Pending if self.ctx.waker_taken() => {
                    self.idle_backoff = MIN_IDLE_BACKOFF;
                    let _ = self.ctx.force_flush_all();
                    return self.park(None);
                }
                // A `Pending` nobody can end is an `Idle`.
                SourceStatus::Idle | SourceStatus::Pending => {
                    let backoff = self.idle_backoff;
                    self.idle_backoff = (self.idle_backoff * 2).min(MAX_IDLE_BACKOFF);
                    let _ = self.ctx.force_flush_all();
                    return self.park(Some(Instant::now() + backoff));
                }
                SourceStatus::Exhausted => return self.finish(),
            }
        }
        // Emit budget spent, every call answered at once: the source keeps
        // the pump busy, so its buffers keep filling. Yield, so pumps share
        // IO threads fairly even when every source is saturated. With
        // nothing else queued the pool runs this pump again at once, on
        // this thread.
        self.next_due = self.ctx.flush_due(Instant::now());
        IoStatus::Ready
    }
}

/// Telemetry sampler as a periodic IO task recording into a shared
/// [`SampleRing`] — sampling costs a timer registration, not a thread.
pub(crate) struct SamplerTask {
    pub(crate) ring: Arc<SampleRing<TelemetrySample>>,
    pub(crate) job: Arc<JobShared>,
}

impl IoTask for SamplerTask {
    fn run(&mut self, io: &IoContext) -> IoStatus {
        if io.shutting_down() {
            return IoStatus::Complete;
        }
        self.ring.record(self.job.sample());
        IoStatus::Park
    }
}

/// Barrier injector as a periodic IO task (ISSUE 10): every checkpoint
/// interval it opens a new round with the coordinator, bumps the shared
/// requested-round counter, and wakes every source pump so parked sources
/// serve the round promptly instead of at their next natural wake.
///
/// Round ids start at 1 — 0 is the "nothing requested yet" state of the
/// shared counter, and [`FINAL_BARRIER`] (`u64::MAX`) is reserved for the
/// channel-sealing barrier emitted when a source finishes.
pub(crate) struct BarrierTimerTask {
    pub(crate) coordinator: Arc<CheckpointCoordinator>,
    pub(crate) requested: Arc<AtomicU64>,
    pub(crate) pumps: Vec<IoTaskHandle>,
}

impl IoTask for BarrierTimerTask {
    fn run(&mut self, io: &IoContext) -> IoStatus {
        if io.shutting_down() {
            return IoStatus::Complete;
        }
        let id = self.requested.fetch_add(1, Ordering::AcqRel) + 1;
        self.coordinator.begin(id, crate::now_micros());
        for pump in &self.pumps {
            pump.wake();
        }
        IoStatus::Park
    }
}
