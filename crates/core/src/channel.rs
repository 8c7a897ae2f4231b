//! Channels: the runtime fabric of a link.
//!
//! A *link* connects two operators; with parallelism it fans out into
//! `src_instances x dst_instances` **channels**. Each channel owns:
//!
//! * an [`OutputBuffer`] on the sending side (application-level buffering,
//!   §III-B1), governed by its link's retunable flush policy,
//! * a built [`Link`] stack — transport flavour (in-process or TCP),
//!   optional trace tagging, optional reliability — that pushes back under
//!   backpressure (§III-B4),
//! * contiguous per-channel sequence numbers that let the receiver verify
//!   in-order, exactly-once delivery (§I-B's correctness requirement).
//!
//! The channel's lock is held across the flush and the hand-over *or
//! staging* of a batch, on purpose: batches of one channel must reach the
//! transport in flush order, or sequence validation downstream would flag
//! reordering. It is never held across a wait. A hand-over asks the link
//! ([`Link::try_deliver`]); what the link cannot take now — one flushed
//! batch, a barrier behind it — is **staged** here, in order, and goes
//! first the next time anyone comes by: the producer's next push, the
//! endpoint's flush task when the link's space listener wakes it, a
//! teardown flush. Who waits for that depends on who is asking:
//!
//! * a caller that owns its thread — a worker-tier processor emitting
//!   (§III-B4's blocking write), teardown, a test — uses [`push`],
//!   [`force_flush`], [`barrier`]: they stage like everyone else, release
//!   the lock, and wait for the link's space signal before trying again;
//! * a task on the IO tier — a source pump, the flush task — uses the
//!   `_nowait` forms and [`flush_if_due`]: they stage and return, and the
//!   task parks on the link's space listener.
//!
//! Staging is bounded by the producer, not here: a worker waits until the
//! endpoint is clear again before it returns, and a pump that is told its
//! push left work staged does not call its source again until
//! [`retry_staged`] has cleared it — so at most one batch (the flush
//! task's, or the producer's own), plus what a single `next()` call
//! flushed past it, is ever staged.
//!
//! [`push`]: ChannelEndpoint::push
//! [`force_flush`]: ChannelEndpoint::force_flush
//! [`barrier`]: ChannelEndpoint::barrier
//! [`flush_if_due`]: ChannelEndpoint::flush_if_due
//! [`retry_staged`]: ChannelEndpoint::retry_staged

use crate::metrics::OperatorCounters;
use neptune_link::{Link, OutboundFrame, TraceTagger};
use neptune_net::buffer::{FlushedBatch, OutputBuffer, PushOutcome};
use neptune_net::transport::TransportError;
use neptune_telemetry::{OperatorTelemetry, SpanRing};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifies one channel: `(link index, source instance, destination
/// instance)` packed into a u64 for the wire header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(u64);

impl ChannelId {
    /// Pack a channel id.
    pub fn new(link: u16, src_instance: u16, dst_instance: u16) -> Self {
        ChannelId(((link as u64) << 32) | ((src_instance as u64) << 16) | dst_instance as u64)
    }

    /// Unpack from the wire representation.
    pub fn from_raw(raw: u64) -> Self {
        ChannelId(raw)
    }

    /// Wire representation.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Link index within the graph.
    pub fn link(&self) -> u16 {
        (self.0 >> 32) as u16
    }

    /// Sending instance index.
    pub fn src_instance(&self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// Receiving instance index.
    pub fn dst_instance(&self) -> u16 {
        self.0 as u16
    }
}

/// Errors surfaced to emitting operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// The downstream endpoint has been closed (job stopping).
    Closed,
    /// The packet could not be serialized.
    Codec(String),
    /// Transport-level failure.
    Transport(String),
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::Closed => write!(f, "downstream closed"),
            EmitError::Codec(m) => write!(f, "codec error: {m}"),
            EmitError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for EmitError {}

/// Something the link could not take when it was flushed.
enum Staged {
    /// A prepared data frame: counted and tagged once, offered until taken.
    Frame(OutboundFrame),
    /// A checkpoint barrier, behind the data it was flushed after.
    Barrier(u64),
}

/// What the channel lock guards: the buffer packets collect in, and what
/// has left it but not yet reached the link, oldest first.
struct Outbox {
    buffer: OutputBuffer,
    staged: VecDeque<Staged>,
}

/// The sending half of one channel: an [`OutputBuffer`] feeding a built
/// [`Link`] stack.
pub struct ChannelEndpoint {
    channel: ChannelId,
    outbox: Mutex<Outbox>,
    /// Mirror of "the endpoint holds something — a buffered message or
    /// staged work", maintained under the lock. Lets the flush task skip an
    /// idle endpoint with a single atomic load instead of taking its mutex.
    has_data: AtomicBool,
    /// Set once the downstream link fails terminally (dispatch error or an
    /// explicit [`fail_link`](Self::fail_link)). Emitters fast-fail with
    /// [`EmitError::Closed`] instead of buffering into a black hole.
    failed: AtomicBool,
    /// The link stack batches are dispatched into: tagging, optional
    /// reliability, transport.
    link: Arc<Link>,
    /// Counters of the *sending* operator.
    counters: Arc<OperatorCounters>,
    /// Stage recorder of the *sending* operator (ISSUE 2). `None` keeps
    /// the dispatch path free of clock reads entirely.
    telemetry: Option<Arc<OperatorTelemetry>>,
    /// Installed by the runtime's IO tier: invoked when a push starts the
    /// flush-deadline clock (the buffer went empty → non-empty), so the
    /// endpoint's flush task can park on the *exact* deadline via the
    /// timer wheel instead of a scan tick. Called with the buffer lock
    /// held — the waker must only wake an IO task, never take buffer or
    /// queue locks.
    flush_waker: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl ChannelEndpoint {
    /// Assemble a channel endpoint over a built link. `telemetry`, when
    /// given, receives the buffer-wait stage of every flushed batch and
    /// turns on sent-at stamping for transport-latency measurement
    /// downstream.
    pub fn new(
        channel: ChannelId,
        buffer: OutputBuffer,
        link: Arc<Link>,
        counters: Arc<OperatorCounters>,
        telemetry: Option<Arc<OperatorTelemetry>>,
    ) -> Self {
        ChannelEndpoint {
            channel,
            outbox: Mutex::new(Outbox { buffer, staged: VecDeque::new() }),
            has_data: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            link,
            counters,
            telemetry,
            flush_waker: RwLock::new(None),
        }
    }

    /// Install causal tracing (ISSUE 7): the sampled-discipline tagger of
    /// the link stack. `track` is this operator's span track; `originate`
    /// makes the endpoint mint trace ids for sampled sequence numbers
    /// (source-operator endpoints only).
    pub fn set_tracing(&self, ring: Arc<SpanRing>, track: u16, originate: bool) {
        self.link.set_tagger(TraceTagger::sampled(ring, track, originate));
    }

    /// Propagate an inbound packet's trace id onto the batch currently
    /// building in this endpoint's buffer. No-op when tracing is off.
    pub fn tag_trace(&self, trace_id: u64) {
        self.link.tag_inbound(trace_id);
    }

    /// The channel this endpoint serves.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// The link stack this endpoint dispatches into (stats export, QoS).
    pub fn link(&self) -> &Arc<Link> {
        &self.link
    }

    /// Install the IO-tier waker poked whenever this endpoint's buffer
    /// goes from empty to non-empty (the moment a flush deadline starts
    /// ticking).
    pub fn set_flush_waker(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.flush_waker.write() = Some(Arc::new(f));
    }

    /// When the flush task should look at this endpoint again on its own:
    /// the deadline by which the buffered data must flush. `None` when the
    /// buffer is empty, the link has no flush timer, or staged work is
    /// waiting for the link — then the link's space listener says when,
    /// not the clock.
    pub fn flush_deadline(&self) -> Option<Instant> {
        let out = self.outbox.lock();
        if out.staged.is_empty() {
            out.buffer.flush_deadline()
        } else {
            None
        }
    }

    /// Buffer one serialized packet; hands a batch over if the push filled
    /// the buffer. Waits under downstream backpressure — for callers that
    /// own their thread.
    pub fn push(&self, message: &[u8]) -> Result<(), EmitError> {
        let staged = self.push_with(|buf| buf.push(message))?;
        self.settle_staged(staged)
    }

    /// Buffer one packet that already carries its 4-byte length prefix —
    /// the serialize-once fan-out path ([`crate::operator::OperatorContext`]
    /// encodes `[len | bytes]` once and appends the same slice to every
    /// destination endpoint). Waits under downstream backpressure — for
    /// callers that own their thread.
    pub fn push_preencoded(&self, prefixed: &[u8]) -> Result<(), EmitError> {
        let staged = self.push_with(|buf| buf.push_prefixed(prefixed))?;
        self.settle_staged(staged)
    }

    /// [`push_preencoded`](Self::push_preencoded) for a task on the IO
    /// tier: a batch the link cannot take now is staged, and the call
    /// returns — `Ok(true)` when it leaves work staged, which is the
    /// producer's cue to stop producing until [`retry_staged`] clears it.
    ///
    /// [`retry_staged`]: Self::retry_staged
    pub fn push_preencoded_nowait(&self, prefixed: &[u8]) -> Result<bool, EmitError> {
        self.push_with(|buf| buf.push_prefixed(prefixed))
    }

    /// One push under the lock: staged work first, then the message, then
    /// the batch if that filled the buffer. `Ok(true)` when work is left
    /// staged.
    fn push_with(
        &self,
        push: impl FnOnce(&mut OutputBuffer) -> PushOutcome,
    ) -> Result<bool, EmitError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(EmitError::Closed);
        }
        let mut out = self.outbox.lock();
        if !out.staged.is_empty() {
            self.drain_staged(&mut out)?;
        }
        match push(&mut out.buffer) {
            PushOutcome::Buffered => {
                // The lock is held and the buffer knows the empty →
                // non-empty edge: only that push touches the flag and the
                // flush task, every other push just appends.
                if out.buffer.buffered_count() == 1 {
                    self.has_data.store(true, Ordering::Release);
                    if let Some(waker) = self.flush_waker.read().as_ref() {
                        waker();
                    }
                }
            }
            PushOutcome::Flush(batch) => {
                self.dispatch(&mut out, batch)?;
                self.sync_has_data(&out);
            }
        }
        Ok(!out.staged.is_empty())
    }

    /// Timer path, never waits: hand staged work over, then flush if the
    /// oldest buffered message is older than the link's flush interval and
    /// nothing is staged ahead of it. Cheap when idle: an empty endpoint is
    /// skipped on an atomic load, without touching the mutex.
    pub fn flush_if_due(&self, now: Instant) -> Result<(), EmitError> {
        if !self.has_data.load(Ordering::Acquire) {
            return Ok(());
        }
        let due = |out: &mut Outbox| {
            if out.staged.is_empty() {
                out.buffer.take_if_due(now)
            } else {
                None
            }
        };
        self.flush_with(due, None).map(|_| ())
    }

    /// Unconditional flush (teardown / explicit). Waits until the link has
    /// taken everything — for callers that own their thread.
    pub fn force_flush(&self) -> Result<(), EmitError> {
        let staged = self.flush_with(|out| out.buffer.force_flush(), None)?;
        self.settle_staged(staged)
    }

    /// [`force_flush`](Self::force_flush) for a task on the IO tier: what
    /// the link cannot take now is staged, and the call returns —
    /// `Ok(true)` when it leaves work staged.
    pub fn flush_nowait(&self) -> Result<bool, EmitError> {
        self.flush_with(|out| out.buffer.force_flush(), None)
    }

    /// Offer staged work to the link again, flushing nothing new; never
    /// waits. `Ok(true)` when the link still refuses some of it — its
    /// space listener says when to come back.
    pub fn retry_staged(&self) -> Result<bool, EmitError> {
        self.flush_with(|_| None, None)
    }

    /// One flush under the lock: staged work first, then the batch `take`
    /// picks, if any, then `barrier` behind it. `Ok(true)` when work is
    /// left staged.
    fn flush_with(
        &self,
        take: impl FnOnce(&mut Outbox) -> Option<FlushedBatch>,
        barrier: Option<u64>,
    ) -> Result<bool, EmitError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(EmitError::Closed);
        }
        let mut out = self.outbox.lock();
        self.drain_staged(&mut out)?;
        if let Some(batch) = take(&mut out) {
            self.dispatch(&mut out, batch)?;
        }
        if let Some(id) = barrier {
            out.staged.push_back(Staged::Barrier(id));
            self.drain_staged(&mut out)?;
        }
        self.sync_has_data(&out);
        Ok(!out.staged.is_empty())
    }

    /// Emit an aligned-snapshot barrier (ISSUE 10) behind everything
    /// buffered so far: flush pending data, then send the barrier control
    /// frame down the link stack — or stage it behind a batch the link has
    /// not taken yet; a barrier never overtakes data of its channel.
    /// Barriers are control traffic — they bypass the output buffer, take
    /// no sequence number, and do not count toward `frames_out` (the settle
    /// invariant balances data frames only). Waits until the link has taken
    /// it — for callers that own their thread.
    pub fn barrier(&self, checkpoint_id: u64) -> Result<(), EmitError> {
        let staged = self.flush_with(|out| out.buffer.force_flush(), Some(checkpoint_id))?;
        self.settle_staged(staged)
    }

    /// [`barrier`](Self::barrier) for a task on the IO tier: staged behind
    /// whatever the link cannot take now, and the call returns — `Ok(true)`
    /// when it leaves work staged.
    pub fn barrier_nowait(&self, checkpoint_id: u64) -> Result<bool, EmitError> {
        self.flush_with(|out| out.buffer.force_flush(), Some(checkpoint_id))
    }

    /// Items the link has not taken yet (tests: the staging bound).
    #[cfg(test)]
    pub(crate) fn staged_len(&self) -> usize {
        self.outbox.lock().staged.len()
    }

    /// True when nothing is buffered and nothing is staged.
    pub fn is_empty(&self) -> bool {
        let out = self.outbox.lock();
        out.buffer.buffered_count() == 0 && out.staged.is_empty()
    }

    /// True once the downstream link failed (hand-over error or explicit
    /// [`fail_link`](Self::fail_link)).
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Declare this channel's downstream link dead (the link supervisor
    /// exhausted its retries, or a fault was injected).
    ///
    /// Beyond marking the endpoint so emitters fast-fail, this closes an
    /// in-process destination queue: the backpressure gate only reopens
    /// on *consumption*, so a producer waiting behind a closed
    /// high-watermark gate would otherwise wait forever on a link that
    /// will never drain. `WatermarkQueue::close` wakes every waiting
    /// producer and fires the space listeners parked tasks sleep on; what
    /// they then find is [`EmitError::Closed`].
    pub fn fail_link(&self) {
        self.failed.store(true, Ordering::Release);
        {
            // Nobody waits under this lock, so taking it here is safe; what
            // was staged for the dead link goes with it.
            let mut out = self.outbox.lock();
            out.staged.clear();
            self.sync_has_data(&out);
        }
        self.link.close();
    }

    /// The waiting half of the hand-over, for callers that own their
    /// thread: offer what is staged, and while the link refuses, wait for
    /// its space signal — with the lock released, so the flush task and
    /// teardown are never queued behind a blocked producer.
    fn settle_staged(&self, mut staged: bool) -> Result<(), EmitError> {
        while staged {
            self.link.wait_space();
            staged = self.retry_staged()?;
        }
        Ok(())
    }

    /// Offer staged work to the link, oldest first, until it is gone or
    /// the link refuses. Called with the lock held; never waits.
    fn drain_staged(&self, out: &mut Outbox) -> Result<(), EmitError> {
        while let Some(head) = out.staged.front() {
            let taken = match head {
                Staged::Frame(frame) => self.link.try_deliver(frame).map(Some),
                Staged::Barrier(id) => self.link.try_barrier(*id).map(|()| None),
            };
            match taken {
                Ok(wire) => {
                    if let (Some(Staged::Frame(frame)), Some(wire)) = (out.staged.pop_front(), wire)
                    {
                        self.handed_over(&mut out.buffer, frame, wire);
                    }
                }
                Err(TransportError::Backpressure) => break,
                Err(e) => return Err(self.fail(out, e)),
            }
        }
        Ok(())
    }

    /// Prepare a flushed batch and queue it behind what the link has not
    /// taken yet — usually nothing, and it goes at once. Called with the
    /// lock held so batches leave in flush order (per-channel ordering
    /// invariant); never waits.
    fn dispatch(&self, out: &mut Outbox, batch: FlushedBatch) -> Result<(), EmitError> {
        let wait = batch.queueing_delay.as_micros() as u64;
        // Telemetry point (ISSUE 2): the buffer already measured how long
        // its oldest message waited; one wall-clock read per *batch* stamps
        // the frame so the receiver can split off transport time. Disabled
        // telemetry performs no clock reads here — the link's tagger stamps
        // lazily for traced batches.
        let sent_at = match &self.telemetry {
            Some(t) => {
                t.buffer_wait.record(wait);
                crate::now_micros()
            }
            None => 0,
        };
        let frame = self.link.prepare(batch.base_seq, batch.encoded, batch.count, sent_at, wait);
        out.staged.push_back(Staged::Frame(frame));
        self.drain_staged(out)
    }

    /// Account for one frame the link took.
    fn handed_over(&self, buf: &mut OutputBuffer, frame: OutboundFrame, wire: usize) {
        // In-process flavours hand the same bytes to the receiver, which
        // recycles them once consumed — this call is then a refcount-gated
        // no-op. Wire flavours copy onto the wire, so the storage goes
        // straight back to the buffer (sole handle → reclaimed).
        buf.recycle(frame.encoded);
        self.link.stats().record_packets(frame.header.count as u64);
        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_out.fetch_add(wire as u64, Ordering::Relaxed);
    }

    /// A channel whose link errored is done: the transports behind every
    /// flavour fail terminally, so later emits would only wait or error
    /// again. Latch the failure so they fast-fail, and let go of what was
    /// staged for it.
    fn fail(&self, out: &mut Outbox, error: TransportError) -> EmitError {
        self.failed.store(true, Ordering::Release);
        out.staged.clear();
        match error {
            TransportError::Closed => EmitError::Closed,
            other => EmitError::Transport(other.to_string()),
        }
    }

    fn sync_has_data(&self, out: &Outbox) {
        let holds = out.buffer.buffered_count() > 0 || !out.staged.is_empty();
        self.has_data.store(holds, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_compress::SelectiveCompressor;
    use neptune_link::LinkBuilder;
    use neptune_net::frame::Frame;
    use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};

    fn inproc_link(channel: ChannelId, queue: &Arc<WatermarkQueue<Frame>>) -> Arc<Link> {
        LinkBuilder::new(channel.raw()).in_process(queue.clone()).build()
    }

    fn make_inproc_endpoint(
        capacity: usize,
    ) -> (Arc<ChannelEndpoint>, Arc<WatermarkQueue<neptune_net::frame::Frame>>) {
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let channel = ChannelId::new(0, 0, 0);
        let endpoint = Arc::new(ChannelEndpoint::new(
            channel,
            OutputBuffer::new(capacity, Some(std::time::Duration::from_millis(5))),
            inproc_link(channel, &queue),
            Arc::new(OperatorCounters::default()),
            None,
        ));
        (endpoint, queue)
    }

    #[test]
    fn channel_id_packs_and_unpacks() {
        let id = ChannelId::new(7, 3, 12);
        assert_eq!(id.link(), 7);
        assert_eq!(id.src_instance(), 3);
        assert_eq!(id.dst_instance(), 12);
        assert_eq!(ChannelId::from_raw(id.raw()), id);
        // Distinct coordinates yield distinct ids.
        assert_ne!(ChannelId::new(7, 3, 12), ChannelId::new(7, 12, 3));
        assert_ne!(ChannelId::new(1, 0, 0), ChannelId::new(0, 1, 0));
    }

    #[test]
    fn push_buffers_until_capacity_then_delivers() {
        let (ep, q) = make_inproc_endpoint(64);
        for _ in 0..3 {
            ep.push(&[0u8; 10]).unwrap(); // 14 bytes each with prefix
        }
        assert!(q.is_empty(), "below capacity: nothing delivered");
        ep.push(&[0u8; 30]).unwrap(); // 76 bytes total >= 64
        let frame = q.pop().expect("batch delivered");
        assert_eq!(frame.messages.len(), 4);
        assert_eq!(frame.base_seq, 0);
    }

    #[test]
    fn sequence_numbers_continue_across_batches() {
        let (ep, q) = make_inproc_endpoint(16);
        for _ in 0..6 {
            ep.push(&[0u8; 16]).unwrap(); // every push flushes (20 >= 16)
        }
        let mut expected = 0u64;
        while let Some(f) = q.pop() {
            assert_eq!(f.base_seq, expected);
            expected += f.messages.len() as u64;
        }
        assert_eq!(expected, 6);
    }

    #[test]
    fn flush_if_due_and_force_flush() {
        let (ep, q) = make_inproc_endpoint(1 << 20);
        ep.push(b"slow").unwrap();
        ep.flush_if_due(Instant::now()).unwrap();
        assert!(q.is_empty(), "not due yet");
        std::thread::sleep(std::time::Duration::from_millis(8));
        ep.flush_if_due(Instant::now()).unwrap();
        assert_eq!(q.pop().unwrap().messages.len(), 1);

        ep.push(b"x").unwrap();
        assert!(!ep.is_empty());
        ep.force_flush().unwrap();
        assert!(ep.is_empty());
        assert_eq!(q.pop().unwrap().messages.len(), 1);
    }

    #[test]
    fn counters_track_frames_and_bytes() {
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let counters = Arc::new(OperatorCounters::default());
        let channel = ChannelId::new(0, 0, 0);
        let ep = ChannelEndpoint::new(
            channel,
            OutputBuffer::new(8, None),
            inproc_link(channel, &queue),
            counters.clone(),
            None,
        );
        ep.push(&[0u8; 8]).unwrap();
        ep.push(&[0u8; 8]).unwrap();
        assert_eq!(counters.frames_out.load(Ordering::Relaxed), 2);
        assert!(counters.bytes_out.load(Ordering::Relaxed) > 16);
        // The link's own stats bundle tracks the same dispatches.
        let snap = ep.link().stats_snapshot();
        assert_eq!(snap.flushes, 2);
        assert_eq!(snap.packets, 2);
        assert_eq!(snap.wire_bytes, counters.bytes_out.load(Ordering::Relaxed));
    }

    #[test]
    fn closed_downstream_surfaces_emit_error() {
        let (ep, q) = make_inproc_endpoint(8);
        q.close();
        assert_eq!(ep.push(&[0u8; 16]).unwrap_err(), EmitError::Closed);
    }

    #[test]
    fn fail_link_releases_producers_blocked_on_the_gate() {
        // Tiny watermark: the first delivered batch closes the gate, so
        // the second push parks inside the destination queue's
        // `push_blocking`. The gate only reopens on consumption — if the
        // link dies instead, `fail_link` must wake the parked producer
        // with `Closed` rather than leaving it deadlocked (ISSUE 3
        // satellite: link failure while the high-watermark gate is shut).
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(8, 4)));
        let channel = ChannelId::new(0, 0, 0);
        let ep = Arc::new(ChannelEndpoint::new(
            channel,
            OutputBuffer::new(8, None),
            inproc_link(channel, &queue),
            Arc::new(OperatorCounters::default()),
            None,
        ));
        ep.push(&[0u8; 16]).unwrap(); // flushes immediately, closes the gate
        let gated = {
            let ep = ep.clone();
            std::thread::spawn(move || ep.push(&[0u8; 16]))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!gated.is_finished(), "second producer must be gated, not dropped");
        ep.fail_link();
        assert_eq!(gated.join().unwrap().unwrap_err(), EmitError::Closed);
        assert!(ep.is_failed());
        assert_eq!(
            ep.push(&[0u8; 16]).unwrap_err(),
            EmitError::Closed,
            "endpoint fast-fails after link failure"
        );
        assert_eq!(ep.flush_if_due(Instant::now()), Ok(()), "idle endpoint stays cheap");
    }

    /// An endpoint whose every push flushes a frame, over a queue whose
    /// gate every frame closes: the link refuses whatever comes next until
    /// the frame before it has been popped.
    fn make_choked_endpoint() -> (Arc<ChannelEndpoint>, Arc<WatermarkQueue<Frame>>) {
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(8, 4)));
        let channel = ChannelId::new(0, 0, 0);
        let endpoint = Arc::new(ChannelEndpoint::new(
            channel,
            OutputBuffer::new(8, Some(std::time::Duration::from_millis(5))),
            inproc_link(channel, &queue),
            Arc::new(OperatorCounters::default()),
            None,
        ));
        (endpoint, queue)
    }

    fn prefixed(byte: u8) -> Vec<u8> {
        let mut m = 16u32.to_le_bytes().to_vec();
        m.extend_from_slice(&[byte; 16]);
        m
    }

    #[test]
    fn a_refused_batch_is_staged_and_a_barrier_never_overtakes_it() {
        let (ep, q) = make_choked_endpoint();
        let frames_out = || ep.counters.frames_out.load(Ordering::Relaxed);
        let space = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let s = space.clone();
        ep.link().add_space_listener(Arc::new(move || {
            s.fetch_add(1, Ordering::Relaxed);
        }));

        ep.push_preencoded_nowait(&prefixed(b'a')).unwrap();
        assert_eq!((q.len(), frames_out()), (1, 1), "the first frame is taken and closes the gate");
        assert!(!ep.link().admits());
        // Refused: staged, not counted, not lost — and the call came back.
        ep.push_preencoded_nowait(&prefixed(b'b')).unwrap();
        ep.barrier_nowait(7).unwrap();
        ep.push_preencoded_nowait(&prefixed(b'c')).unwrap();
        assert_eq!((q.len(), frames_out()), (1, 1));
        assert!(!ep.is_empty(), "staged work keeps the endpoint busy for settle()");
        assert_eq!(ep.flush_deadline(), None, "the space listener, not the clock, ends this wait");
        ep.flush_if_due(Instant::now()).unwrap();
        assert_eq!(q.len(), 1, "offering again to a closed gate changes nothing");

        // Each pop reopens the gate for exactly one more frame; whoever
        // comes by next hands the oldest staged item over.
        let mut got = Vec::new();
        for round in 1..=4u64 {
            let frame = q.pop().expect("one frame per round");
            assert_eq!(space.load(Ordering::Relaxed), round, "the reopened gate signals space");
            got.push((frame.control, frame.base_seq, frame.messages.len()));
            ep.flush_if_due(Instant::now()).unwrap();
        }
        assert_eq!(
            got,
            vec![
                (None, 0, 1),
                (None, 1, 1),
                (Some(neptune_net::frame::ControlKind::Barrier), 7, 0),
                (None, 2, 1),
            ],
            "flush order, barrier in its place, sequence numbers contiguous"
        );
        assert_eq!(frames_out(), 3, "a frame counts once, when the link takes it");
        assert!(ep.is_empty() && q.is_empty());
        assert!(!ep.has_data.load(Ordering::Acquire));
    }

    #[test]
    fn a_waiting_producer_does_not_hold_the_channel_lock() {
        let (ep, q) = make_choked_endpoint();
        ep.push(&[b'a'; 16]).unwrap(); // taken; closes the gate
        let producer = {
            let ep = ep.clone();
            std::thread::spawn(move || ep.push(&[b'b'; 16]))
        };
        // The gate-event counter ticks when the producer starts waiting
        // for space — by then its batch is staged and the lock released.
        assert!(neptune_net::test_support::wait_for(std::time::Duration::from_secs(5), || {
            q.gate_events() == 1
        }));
        // What a flush task does on its IO thread: were the lock held by
        // the waiting producer, these would never come back.
        let (tx, rx) = std::sync::mpsc::channel();
        let flusher = {
            let ep = ep.clone();
            std::thread::spawn(move || {
                let due = ep.flush_if_due(Instant::now());
                let deadline = ep.flush_deadline();
                let _ = tx.send((due, deadline));
            })
        };
        let (due, deadline) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the flush path must not queue behind a waiting producer");
        assert_eq!((due, deadline), (Ok(()), None));
        flusher.join().unwrap();
        assert!(!producer.is_finished(), "the producer still waits for the link");
        assert_eq!(q.pop().unwrap().base_seq, 0);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop().unwrap().base_seq, 1, "the staged batch went, in order");
        assert!(ep.is_empty());
    }

    #[test]
    fn push_preencoded_matches_push() {
        let (ep, q) = make_inproc_endpoint(1 << 20);
        ep.push(b"plain").unwrap();
        let mut prefixed = 5u32.to_le_bytes().to_vec();
        prefixed.extend_from_slice(b"plain");
        ep.push_preencoded(&prefixed).unwrap();
        ep.force_flush().unwrap();
        let f = q.pop().unwrap();
        assert_eq!(f.messages, vec![b"plain".to_vec(), b"plain".to_vec()]);
        assert_eq!(f.base_seq, 0);
    }

    #[test]
    fn idle_endpoint_skips_flush_without_locking() {
        // White-box: an endpoint that never buffered anything keeps its
        // non-empty flag clear, and flush_if_due is a no-op returning Ok.
        let (ep, q) = make_inproc_endpoint(1 << 20);
        assert!(!ep.has_data.load(Ordering::Acquire));
        ep.flush_if_due(Instant::now()).unwrap();
        assert!(q.is_empty());
        ep.push(b"x").unwrap();
        assert!(ep.has_data.load(Ordering::Acquire), "push must raise the flag");
        ep.force_flush().unwrap();
        assert!(!ep.has_data.load(Ordering::Acquire), "flush must clear the flag");
    }

    #[test]
    fn has_data_mirrors_the_buffer_and_the_waker_fires_once_per_edge() {
        use std::sync::atomic::AtomicU64;
        let (ep, q) = make_inproc_endpoint(64);
        let wakes = Arc::new(AtomicU64::new(0));
        let w = wakes.clone();
        ep.set_flush_waker(move || {
            w.fetch_add(1, Ordering::Relaxed);
        });
        // The flag is true exactly while the buffer holds a message.
        let check = |edges: u64, what: &str| {
            let buffered = ep.outbox.lock().buffer.buffered_count();
            assert_eq!(ep.has_data.load(Ordering::Acquire), buffered > 0, "{what}");
            assert_eq!(wakes.load(Ordering::Relaxed), edges, "waker count {what}");
        };
        check(0, "fresh");
        ep.push(&[0u8; 10]).unwrap();
        check(1, "first push is the edge");
        ep.push(&[0u8; 10]).unwrap();
        ep.push_preencoded(&[2, 0, 0, 0, 9, 9]).unwrap();
        check(1, "later pushes only append");
        ep.push(&[0u8; 40]).unwrap(); // 14 + 14 + 6 + 44 >= 64: capacity flush
        check(1, "capacity flush empties");
        assert_eq!(q.pop().unwrap().messages.len(), 4);
        ep.push(&[0u8; 100]).unwrap(); // flushes by itself: never buffered
        check(1, "a push that flushes alone is no edge");
        ep.push(b"timer").unwrap();
        check(2, "second edge");
        std::thread::sleep(std::time::Duration::from_millis(8));
        ep.flush_if_due(Instant::now()).unwrap();
        check(2, "timer flush empties");
        ep.push(b"forced").unwrap();
        check(3, "third edge");
        ep.force_flush().unwrap();
        check(3, "force_flush empties");
        ep.push(b"before the barrier").unwrap();
        check(4, "fourth edge");
        ep.barrier(1).unwrap();
        check(4, "barrier flushes what it sits behind");
    }

    #[test]
    fn telemetry_records_buffer_wait_and_stamps_frames() {
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let telemetry = Arc::new(OperatorTelemetry::new());
        let channel = ChannelId::new(0, 0, 0);
        let ep = ChannelEndpoint::new(
            channel,
            OutputBuffer::new(1 << 20, Some(std::time::Duration::from_millis(5))),
            inproc_link(channel, &queue),
            Arc::new(OperatorCounters::default()),
            Some(telemetry.clone()),
        );
        ep.push(b"measured").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        ep.force_flush().unwrap();
        let snap = telemetry.buffer_wait.snapshot();
        assert_eq!(snap.count(), 1, "one flushed batch, one buffer-wait sample");
        assert!(snap.max() >= 8_000, "waited ~10ms, recorded {}µs", snap.max());
        let f = queue.pop().unwrap();
        assert!(f.sent_at_micros > 0, "telemetry-enabled dispatch must stamp sent-at");
        assert!(f.received_at.is_some());
    }

    #[test]
    fn tracing_originates_sampled_ids_and_propagates_tags() {
        use neptune_telemetry::{SpanRing, STAGE_BUFFER_WAIT};
        // Originating endpoint, sampling 1-in-4 by sequence number.
        let (ep, q) = make_inproc_endpoint(16);
        let ring = Arc::new(SpanRing::new(256, 4));
        let track = ring.register_track("src");
        ep.set_tracing(ring.clone(), track, true);
        for _ in 0..4 {
            ep.push(&[0u8; 16]).unwrap(); // every push flushes one frame
        }
        let traces: Vec<Option<u64>> = std::iter::from_fn(|| q.pop()).map(|f| f.trace).collect();
        assert_eq!(traces.len(), 4);
        assert!(traces[0].is_some(), "seq 0 is sampled at 1-in-4");
        assert!(traces[1].is_none() && traces[2].is_none() && traces[3].is_none());
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 1, "one buffer-wait span for the traced batch");
        assert_eq!(spans[0].stage, STAGE_BUFFER_WAIT);
        assert_eq!(Some(spans[0].trace_id), traces[0]);

        // Downstream endpoint: propagates a tagged id, never mints.
        let (ep2, q2) = make_inproc_endpoint(1 << 20);
        ep2.set_tracing(ring.clone(), ring.register_track("relay"), false);
        ep2.push(b"untagged").unwrap();
        ep2.force_flush().unwrap();
        assert_eq!(q2.pop().unwrap().trace, None, "no tag, no origination");
        ep2.push(b"tagged").unwrap();
        ep2.tag_trace(0xBEEF);
        ep2.force_flush().unwrap();
        assert_eq!(q2.pop().unwrap().trace, Some(0xBEEF));
    }

    #[test]
    fn tcp_sink_roundtrips() {
        let rig = neptune_net::test_support::NetRig::new("chan-tcp");
        let driver = rig.driver();
        let rx = neptune_net::tcp::TcpReceiver::bind_reactor(
            "127.0.0.1:0",
            WatermarkConfig::new(1 << 20, 1 << 10),
            &driver,
        )
        .unwrap();
        let tx = neptune_net::tcp::TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap();
        let channel = ChannelId::new(2, 1, 0);
        let link = LinkBuilder::new(channel.raw()).tcp(tx, SelectiveCompressor::disabled()).build();
        let ep = ChannelEndpoint::new(
            channel,
            OutputBuffer::new(8, None),
            link,
            Arc::new(OperatorCounters::default()),
            None,
        );
        ep.push(&[7u8; 32]).unwrap();
        let f = rx.queue().pop_timeout(std::time::Duration::from_secs(5)).expect("frame");
        let id = ChannelId::from_raw(f.link_id);
        assert_eq!(id.link(), 2);
        assert_eq!(id.src_instance(), 1);
        assert_eq!(f.messages, vec![vec![7u8; 32]]);
        rx.shutdown();
    }
}
