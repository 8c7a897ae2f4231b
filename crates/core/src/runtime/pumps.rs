//! IO-tier tasks of the runtime: source pumps, per-endpoint flush tasks,
//! the barrier timer, and the telemetry sampler — [`IoTask`] state machines
//! on the job's shared [`neptune_granules::IoPool`].
//!
//! None of them waits on its thread. A task with nothing to do parks, and
//! whoever feeds it holds its waker:
//!
//! * a pump whose source has nothing to emit parks with exponential
//!   back-off ([`IoStatus::ParkUntil`]) — or, if the source took the
//!   pump's waker and answered [`SourceStatus::Pending`], indefinitely,
//!   until the source's feeder fires it;
//! * a pump one of whose outgoing links cannot take a batch — a closed
//!   watermark gate in process, a full sender queue over TCP; the pump
//!   asks [`Link::admits`] either way — parks indefinitely and is woken
//!   by that link's space listener;
//! * a flush task parks on the endpoint's **exact** flush deadline via the
//!   timer wheel (no scan tick, no half-interval firing error), or, when
//!   the link refused the batch and the endpoint staged it, on the same
//!   space listener;
//! * the barrier timer and the sampler are periodic timer registrations.
//!
//! That includes finishing: a pump that is done flushes and seals its
//! channels with the `_nowait` forms, and what a link cannot take then is
//! handed over by the flush task when there is room, or by `settle()` from
//! its caller's thread — with one IO thread, the sender task that makes
//! the room needs the very thread a waiting pump would be holding.
//!
//! Idle cost is therefore O(io_threads), not O(sources). Busy cost is per
//! packet only for the packet itself: inside its emit loop a pump reads
//! two flags, the clock and each outgoing link's lock-free admission
//! mirror, and calls the source; it signals nobody and takes no lock but
//! its own endpoint's. The one condvar ([`PumpGauge`]) fires when a pump
//! finishes, and it is the job's caller who waits there.

use super::JobShared;
use crate::channel::ChannelEndpoint;
use crate::checkpoint::{CheckpointCoordinator, CheckpointSnapshot, InstanceState, FINAL_BARRIER};
use crate::operator::{OperatorContext, SourceStatus, StreamSource};
use crate::telemetry::TelemetrySample;
use neptune_granules::io::{IoContext, IoStatus, IoTask};
use neptune_granules::IoTaskHandle;
use neptune_link::Link;
use neptune_telemetry::{wall_micros, SampleRing, Span, SpanRing, STAGE_SOURCE};
use parking_lot::{Condvar, Mutex};
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
/// flush deadline — for a whole emit budget.
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

/// One source instance as a cooperatively scheduled IO task.
pub(crate) struct SourcePump {
    pub(crate) source: Box<dyn StreamSource>,
    pub(crate) ctx: OperatorContext,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) gauge: Arc<PumpGauge>,
    /// Every outgoing link; while any cannot take a batch the pump parks,
    /// and that link's space listener wakes it (IO-tier admission control).
    pub(crate) gates: Vec<Arc<Link>>,
    pub(crate) idle_backoff: Duration,
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
}

impl SourcePump {
    /// Close-once path shared by exhaustion, stop, and pool shutdown.
    /// Nothing here waits: what a link cannot take now stays staged in its
    /// channel, in order, for the flush task or `settle()` to hand over.
    fn finish(&mut self) -> IoStatus {
        if !self.closed {
            self.closed = true;
            // Contribute to any round requested before the source ended,
            // then seal every outgoing channel with FINAL_BARRIER so
            // downstream alignment treats them as permanently aligned.
            self.emit_barriers();
            if self.opened {
                self.source.close(&mut self.ctx);
                let _ = self.ctx.force_flush_all();
            }
            if self.checkpoint.is_some() {
                for ep in self.ctx.endpoints() {
                    let _ = ep.barrier_nowait(FINAL_BARRIER);
                }
            }
            self.gauge.dec();
        }
        IoStatus::Complete
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
        for ep in self.ctx.endpoints() {
            let _ = ep.barrier_nowait(requested);
        }
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
            return IoStatus::Complete;
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
            if stint_start.elapsed() >= STINT_BUDGET {
                break;
            }
            // Admission: a link that cannot take a batch now — a closed
            // watermark gate, a full sender queue — means downstream is
            // saturated, and so does a batch an earlier emit left staged
            // that its link still refuses. Park instead of emitting into
            // that; the link's space listener wakes us. (A *shedding*
            // queue always admits: its policy only runs if producers keep
            // pushing.)
            if !self.ctx.hand_over_staged() || self.gates.iter().any(|link| !link.admits()) {
                return IoStatus::Park;
            }
            match self.source.next(&mut self.ctx) {
                SourceStatus::Emitted(_) => self.idle_backoff = MIN_IDLE_BACKOFF,
                // Whoever feeds the source holds our waker: nothing to
                // poll until it fires.
                SourceStatus::Pending if self.ctx.waker_taken() => {
                    self.idle_backoff = MIN_IDLE_BACKOFF;
                    return IoStatus::Park;
                }
                // A `Pending` nobody can end is an `Idle`.
                SourceStatus::Idle | SourceStatus::Pending => {
                    let backoff = self.idle_backoff;
                    self.idle_backoff = (self.idle_backoff * 2).min(MAX_IDLE_BACKOFF);
                    return IoStatus::ParkUntil(Instant::now() + backoff);
                }
                SourceStatus::Exhausted => return self.finish(),
            }
        }
        // Budget exhausted: yield, so pumps share IO threads fairly even
        // when every source is saturated. With nothing else queued the
        // pool runs this pump again at once, on this thread.
        IoStatus::Ready
    }
}

/// Flush-deadline watcher for one channel endpoint.
///
/// The endpoint's push path wakes this task when its buffer goes empty →
/// non-empty (the moment the flush clock starts); the task then parks on
/// the exact deadline via the timer wheel. When the link cannot take the
/// batch the endpoint stages it and the task parks without a deadline: the
/// link's space listener, which the wiring points at this task, wakes it to
/// hand the staged batch over. Idle endpoints cost nothing.
pub(crate) struct FlushTask {
    pub(crate) endpoint: Arc<ChannelEndpoint>,
    pub(crate) stop: Arc<AtomicBool>,
}

impl FlushTask {
    /// Spawn the flush task of `endpoint` parked, and hand its waker to
    /// the two things that feed it: the endpoint (a flush deadline started
    /// ticking) and the endpoint's link (it has room again for the batch
    /// it refused). Kicked once if data already arrived — a processor's
    /// `open()` may have emitted.
    pub(crate) fn spawn(
        pool: &neptune_granules::IoPool,
        endpoint: &Arc<ChannelEndpoint>,
        stop: &Arc<AtomicBool>,
    ) -> IoTaskHandle {
        let handle =
            pool.spawn_parked(FlushTask { endpoint: endpoint.clone(), stop: stop.clone() });
        let waker = handle.clone();
        endpoint.set_flush_waker(move || {
            waker.wake();
        });
        let waker = handle.clone();
        endpoint.link().add_space_listener(Arc::new(move || {
            waker.wake();
        }));
        if !endpoint.is_empty() {
            handle.wake();
        }
        handle
    }
}

impl IoTask for FlushTask {
    fn run(&mut self, io: &IoContext) -> IoStatus {
        if self.stop.load(Ordering::Acquire) || io.shutting_down() {
            let _ = self.endpoint.flush_nowait();
            return IoStatus::Complete;
        }
        let _ = self.endpoint.flush_if_due(Instant::now());
        match self.endpoint.flush_deadline() {
            Some(deadline) => IoStatus::ParkUntil(deadline),
            None => IoStatus::Park,
        }
    }

    fn on_shutdown(&mut self) {
        let _ = self.endpoint.flush_nowait();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelId;
    use crate::metrics::OperatorCounters;
    use neptune_granules::test_support::wait_for;
    use neptune_granules::IoPool;
    use neptune_link::LinkBuilder;
    use neptune_net::buffer::OutputBuffer;
    use neptune_net::frame::Frame;
    use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};

    fn endpoint(
        link: u16,
        buffer: OutputBuffer,
        watermark: WatermarkConfig,
    ) -> (Arc<ChannelEndpoint>, Arc<WatermarkQueue<Frame>>) {
        let queue = Arc::new(WatermarkQueue::new(watermark));
        let channel = ChannelId::new(link, 0, 0);
        let ep = Arc::new(ChannelEndpoint::new(
            channel,
            buffer,
            LinkBuilder::new(channel.raw()).in_process(queue.clone()).build(),
            Arc::new(OperatorCounters::default()),
            None,
        ));
        (ep, queue)
    }

    /// The flush task of a channel whose link is full, and whose producer
    /// is waiting for that link, must give its IO thread back: with one
    /// thread in the pool, another channel's flush deadline is served by
    /// it — on time.
    #[test]
    fn a_flush_task_behind_a_full_link_parks_and_other_deadlines_fire_on_time() {
        const INTERVAL: Duration = Duration::from_millis(100);
        let mut pool = IoPool::new("flush-park", 1);
        let stop = Arc::new(AtomicBool::new(false));
        // `full`: every frame closes the destination's gate, so the second
        // batch finds the link full. `timed`: roomy, flushes by timer only.
        let (full, full_q) =
            endpoint(0, OutputBuffer::new(8, Some(INTERVAL)), WatermarkConfig::new(8, 4));
        let (timed, timed_q) = endpoint(
            1,
            OutputBuffer::new(1 << 20, Some(INTERVAL)),
            WatermarkConfig::new(1 << 20, 1),
        );
        let full_task = FlushTask::spawn(&pool, &full, &stop);
        FlushTask::spawn(&pool, &timed, &stop);

        full.push(&[b'a'; 16]).unwrap(); // taken; the link is full from here
        let producer = {
            let full = full.clone();
            std::thread::spawn(move || {
                full.push(&[b'b'; 16])?; // staged; waits for the link
                full.push(&[b'c'; 2]) // buffered; the timer's to flush
            })
        };
        assert!(wait_for(Duration::from_secs(5), || full_q.gate_events() == 1));
        // Make the flush task look at the blocked channel, as a deadline
        // or an empty → non-empty edge would: it must come back and park.
        let polls = pool.stats().polls;
        full_task.wake();
        assert!(wait_for(Duration::from_secs(5), || {
            let s = pool.stats();
            s.polls > polls && s.queued_tasks == 0
        }));
        assert_eq!(full_q.len(), 1, "nothing got past the full link");

        // The pool's one thread is free: the other channel's deadline is
        // served within a tenth of its interval.
        let pushed = Instant::now();
        timed.push(b"on time").unwrap();
        let frame = timed_q.pop_timeout(Duration::from_secs(5)).expect("the timer flush");
        let waited = pushed.elapsed();
        assert_eq!(frame.messages.len(), 1);
        assert!(waited >= INTERVAL, "flushed early: {waited:?}");
        assert!(waited < INTERVAL + INTERVAL / 10, "deadline served late: {waited:?}");
        assert!(!producer.is_finished(), "the producer still waits");

        // Room again: the link's space listener wakes the flush task (and
        // the producer's wait ends); the staged batch goes first.
        assert_eq!(full_q.pop().unwrap().base_seq, 0);
        assert!(wait_for(Duration::from_secs(5), || full_q.len() == 1));
        assert_eq!(full_q.pop().unwrap().base_seq, 1);
        producer.join().unwrap().unwrap();
        let tail = full_q.pop_timeout(Duration::from_secs(5)).expect("the buffered tail, by timer");
        assert_eq!((tail.base_seq, tail.messages.len()), (2, 1));
        pool.shutdown();
    }
}
