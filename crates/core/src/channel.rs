//! Channels: the runtime fabric of a link.
//!
//! A *link* connects two operators; with parallelism it fans out into
//! `src_instances x dst_instances` **channels**. Each channel owns:
//!
//! * an [`OutputBuffer`] on the sending side (application-level buffering,
//!   §III-B1), which holds the channel's flush rule — byte capacity and
//!   flush interval — and is flushed by the task that fills it,
//! * a built [`Link`] stack — transport flavour (in-process or TCP),
//!   optional trace tagging, optional reliability — that pushes back under
//!   backpressure (§III-B4),
//! * contiguous per-channel sequence numbers that let the receiver verify
//!   in-order, exactly-once delivery (§I-B's correctness requirement).
//!
//! Each endpoint has **one owner**: the task that fills it — a source's
//! pump or a processor's task — flushes it and hands its batches over, so
//! batches of one channel reach the transport in flush order (sequence
//! validation downstream flags any reordering) without a lock. Nothing
//! here waits. A hand-over asks the link ([`Link::deliver`]); what the
//! link cannot take now — one flushed batch, a barrier behind it — is
//! **staged** here, in order, and goes first the next time the owner comes
//! by: its next push, flush or [`retry_staged`] (after the link's space
//! listener woke it). Each hand-over answers `Ok(true)` when it leaves work
//! staged: the owner's cue to stop producing and park until that listener
//! wakes it. An owner that ends with work staged — a processor whose
//! `close()` output a link refused — hands the endpoint to its job, and
//! `settle()` offers it from there. Everyone else reads one flag, raised
//! while the endpoint holds anything ([`has_data`]).
//!
//! Staging is bounded by the producer, not here: a source pump does not
//! call its source again, and a processor task does not take its next
//! inbound frame, until [`retry_staged`] has cleared the endpoint — so at
//! most one batch, plus what a single `next()` call or inbound frame
//! flushed past it, is ever staged.
//!
//! [`retry_staged`]: ChannelEndpoint::retry_staged
//! [`has_data`]: ChannelEndpoint::has_data

use crate::metrics::OperatorCounters;
use neptune_link::{Link, OutboundFrame, TraceTagger};
use neptune_net::buffer::{FlushedBatch, OutputBuffer, PushOutcome};
use neptune_net::transport::TransportError;
use neptune_telemetry::{OperatorTelemetry, SpanRing};
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

/// The sending half of one channel: an [`OutputBuffer`] feeding a built
/// [`Link`] stack, owned by the task that fills it.
pub struct ChannelEndpoint {
    buffer: OutputBuffer,
    /// What has left the buffer but not yet reached the link, oldest first.
    staged: VecDeque<Staged>,
    /// Raised while the endpoint holds something — a buffered message or
    /// staged work — and stored only on the empty ↔ non-empty edges. A
    /// flush skips an idle endpoint on it, and the job settles on it
    /// without touching the endpoint.
    has_data: Arc<AtomicBool>,
    /// Set once the downstream link fails terminally: emitters fast-fail
    /// with [`EmitError::Closed`] instead of buffering into a black hole.
    failed: bool,
    /// The link stack batches are dispatched into: tagging, optional
    /// reliability, transport.
    link: Arc<Link>,
    /// Counters of the *sending* operator.
    counters: Arc<OperatorCounters>,
    /// Stage recorder of the *sending* operator (ISSUE 2). `None` keeps
    /// the dispatch path free of clock reads entirely.
    telemetry: Option<Arc<OperatorTelemetry>>,
}

impl ChannelEndpoint {
    /// Assemble a channel endpoint over a built link. `telemetry`, when
    /// given, receives the buffer-wait stage of every flushed batch and
    /// turns on sent-at stamping for transport-latency measurement
    /// downstream.
    pub fn new(
        buffer: OutputBuffer,
        link: Arc<Link>,
        counters: Arc<OperatorCounters>,
        telemetry: Option<Arc<OperatorTelemetry>>,
    ) -> Self {
        ChannelEndpoint {
            buffer,
            staged: VecDeque::new(),
            has_data: Arc::new(AtomicBool::new(false)),
            failed: false,
            link,
            counters,
            telemetry,
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

    /// The link stack this endpoint dispatches into (stats export, QoS).
    pub fn link(&self) -> &Arc<Link> {
        &self.link
    }

    /// The flag this endpoint raises while it holds a buffered message or
    /// staged work: what the job reads to settle, from any thread.
    pub fn has_data(&self) -> Arc<AtomicBool> {
        self.has_data.clone()
    }

    /// Buffer one packet that already carries its 4-byte length prefix —
    /// the serialize-once fan-out path ([`crate::operator::OperatorContext`]
    /// encodes `[len | bytes]` once and appends the same slice to every
    /// destination endpoint) — and hand a batch over if that filled the
    /// buffer. Staged work goes first. `Ok(true)` when work is left
    /// staged.
    pub fn push(&mut self, prefixed: &[u8]) -> Result<bool, EmitError> {
        if self.failed {
            return Err(EmitError::Closed);
        }
        if !self.staged.is_empty() {
            self.drain_staged()?;
        }
        match self.buffer.push_prefixed(prefixed) {
            PushOutcome::Buffered => {
                // The buffer knows the empty → non-empty edge: only that
                // push touches the flag, every other push just appends.
                if self.buffer.buffered_count() == 1 {
                    self.has_data.store(true, Ordering::Release);
                }
            }
            PushOutcome::Flush(batch) => {
                self.dispatch(batch)?;
                self.sync_has_data();
            }
        }
        Ok(!self.staged.is_empty())
    }

    /// Timer path: hand staged work over, then flush if the oldest buffered
    /// message has waited out the flush interval as of `now` and nothing is
    /// staged ahead of it. `Ok(true)` when work is left staged. `next_due`
    /// is lowered to the flush deadline still ahead, if any — none while
    /// work is staged: the link's space listener ends that wait, not the
    /// clock. An idle endpoint costs one atomic load.
    pub fn flush_if_due(
        &mut self,
        now: Instant,
        next_due: &mut Option<Instant>,
    ) -> Result<bool, EmitError> {
        if !self.has_data.load(Ordering::Acquire) {
            return Ok(false);
        }
        self.flush_with(
            |ep| {
                if !ep.staged.is_empty() {
                    return None;
                }
                let due = ep.buffer.take_if_due(now);
                if due.is_none() {
                    *next_due = next_due.iter().copied().chain(ep.buffer.flush_deadline()).min();
                }
                due
            },
            None,
        )
    }

    /// Unconditional flush (a processor whose input ran out, teardown).
    /// `Ok(true)` when work is left staged. An idle endpoint costs one
    /// atomic load, like [`flush_if_due`](Self::flush_if_due).
    pub fn force_flush(&mut self) -> Result<bool, EmitError> {
        if !self.has_data.load(Ordering::Acquire) {
            return Ok(false);
        }
        self.flush_with(|ep| ep.buffer.force_flush(), None)
    }

    /// Offer staged work to the link again, flushing nothing new.
    /// `Ok(true)` when the link still refuses some of it — its space
    /// listener says when to come back.
    pub fn retry_staged(&mut self) -> Result<bool, EmitError> {
        self.flush_with(|_| None, None)
    }

    /// One flush: staged work first, then the batch `take` picks, if any,
    /// then `barrier` behind it. `Ok(true)` when work is left staged.
    fn flush_with(
        &mut self,
        take: impl FnOnce(&mut Self) -> Option<FlushedBatch>,
        barrier: Option<u64>,
    ) -> Result<bool, EmitError> {
        if self.failed {
            return Err(EmitError::Closed);
        }
        self.drain_staged()?;
        if let Some(batch) = take(self) {
            self.dispatch(batch)?;
        }
        if let Some(id) = barrier {
            self.staged.push_back(Staged::Barrier(id));
            self.drain_staged()?;
        }
        self.sync_has_data();
        Ok(!self.staged.is_empty())
    }

    /// Emit an aligned-snapshot barrier (ISSUE 10) behind everything
    /// buffered so far: flush pending data, then send the barrier control
    /// frame down the link stack — or stage it behind a batch the link has
    /// not taken yet; a barrier never overtakes data of its channel.
    /// Barriers are control traffic — they bypass the output buffer, take
    /// no sequence number, and do not count toward `frames_out` (the settle
    /// invariant balances data frames only). `Ok(true)` when work is left
    /// staged.
    pub fn barrier(&mut self, checkpoint_id: u64) -> Result<bool, EmitError> {
        self.flush_with(|ep| ep.buffer.force_flush(), Some(checkpoint_id))
    }

    /// Items the link has not taken yet (tests: the staging bound).
    #[cfg(test)]
    pub(crate) fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is buffered and nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.buffer.buffered_count() == 0 && self.staged.is_empty()
    }

    /// Offer staged work to the link, oldest first, until it is gone or
    /// the link refuses.
    fn drain_staged(&mut self) -> Result<(), EmitError> {
        while let Some(head) = self.staged.front() {
            let taken = match head {
                Staged::Frame(frame) => self.link.deliver(frame).map(Some),
                Staged::Barrier(id) => self.link.barrier(*id).map(|()| None),
            };
            match taken {
                Ok(wire) => {
                    if let (Some(Staged::Frame(frame)), Some(wire)) =
                        (self.staged.pop_front(), wire)
                    {
                        self.handed_over(frame, wire);
                    }
                }
                Err(TransportError::Backpressure) => break,
                Err(e) => return Err(self.fail(e)),
            }
        }
        Ok(())
    }

    /// Prepare a flushed batch and queue it behind what the link has not
    /// taken yet — usually nothing, and it goes at once — so batches leave
    /// in flush order (per-channel ordering invariant).
    fn dispatch(&mut self, batch: FlushedBatch) -> Result<(), EmitError> {
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
        self.staged.push_back(Staged::Frame(frame));
        self.drain_staged()
    }

    /// Account for one frame the link took.
    fn handed_over(&mut self, frame: OutboundFrame, wire: usize) {
        // In-process flavours hand the same bytes to the receiver, which
        // recycles them once consumed — this call is then a refcount-gated
        // no-op. Wire flavours copy onto the wire, so the storage goes
        // straight back to the buffer (sole handle → reclaimed).
        self.buffer.recycle(frame.encoded);
        self.link.stats().record_packets(frame.header.count as u64);
        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_out.fetch_add(wire as u64, Ordering::Relaxed);
    }

    /// A channel whose link errored is done: the transports behind every
    /// flavour fail terminally, so later emits would only error again.
    /// Latch the failure so they fast-fail, and let go of what was staged
    /// for it.
    fn fail(&mut self, error: TransportError) -> EmitError {
        self.failed = true;
        self.staged.clear();
        self.sync_has_data();
        match error {
            TransportError::Closed => EmitError::Closed,
            other => EmitError::Transport(other.to_string()),
        }
    }

    fn sync_has_data(&self) {
        self.has_data.store(!self.is_empty(), Ordering::Release);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use neptune_compress::SelectiveCompressor;
    use neptune_link::LinkBuilder;
    use neptune_net::frame::Frame;
    use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};

    /// `message` with its 4-byte length prefix, as endpoints take it.
    pub(crate) fn framed(message: &[u8]) -> Vec<u8> {
        let mut m = (message.len() as u32).to_le_bytes().to_vec();
        m.extend_from_slice(message);
        m
    }

    fn inproc_link(channel: ChannelId, queue: &Arc<WatermarkQueue<Frame>>) -> Arc<Link> {
        LinkBuilder::new(channel.raw()).in_process(queue.clone()).build()
    }

    fn make_inproc_endpoint(
        capacity: usize,
    ) -> (ChannelEndpoint, Arc<WatermarkQueue<neptune_net::frame::Frame>>) {
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let channel = ChannelId::new(0, 0, 0);
        let endpoint = ChannelEndpoint::new(
            OutputBuffer::new(capacity, Some(std::time::Duration::from_millis(5))),
            inproc_link(channel, &queue),
            Arc::new(OperatorCounters::default()),
            None,
        );
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
        let (mut ep, q) = make_inproc_endpoint(64);
        for _ in 0..3 {
            ep.push(&framed(&[0u8; 10])).unwrap(); // 14 bytes each with prefix
        }
        assert!(q.is_empty(), "below capacity: nothing delivered");
        ep.push(&framed(&[0u8; 30])).unwrap(); // 76 bytes total >= 64
        let frame = q.pop().expect("batch delivered");
        assert_eq!(frame.messages.len(), 4);
        assert_eq!(frame.base_seq, 0);
    }

    #[test]
    fn sequence_numbers_continue_across_batches() {
        let (mut ep, q) = make_inproc_endpoint(16);
        for _ in 0..6 {
            ep.push(&framed(&[0u8; 16])).unwrap(); // every push flushes (20 >= 16)
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
        let (mut ep, q) = make_inproc_endpoint(1 << 20);
        let pushed = Instant::now();
        ep.push(&framed(b"slow")).unwrap();
        let mut next_due = None;
        assert_eq!(ep.flush_if_due(Instant::now(), &mut next_due), Ok(false));
        assert!(q.is_empty(), "not due yet");
        let due = next_due.expect("a buffered message has a deadline");
        assert!(due >= pushed + std::time::Duration::from_millis(5));
        let mut after = None;
        assert_eq!(ep.flush_if_due(due, &mut after), Ok(false));
        assert_eq!(q.pop().unwrap().messages.len(), 1);
        assert_eq!(after, None, "nothing left to wait for");

        ep.push(&framed(b"x")).unwrap();
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
        let mut ep = ChannelEndpoint::new(
            OutputBuffer::new(8, None),
            inproc_link(channel, &queue),
            counters.clone(),
            None,
        );
        ep.push(&framed(&[0u8; 8])).unwrap();
        ep.push(&framed(&[0u8; 8])).unwrap();
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
        let (mut ep, q) = make_inproc_endpoint(8);
        q.close();
        assert_eq!(ep.push(&framed(&[0u8; 16])).unwrap_err(), EmitError::Closed);
    }

    /// An endpoint whose every push flushes a frame, over a queue whose
    /// gate every frame closes: the link refuses whatever comes next until
    /// the frame before it has been popped.
    pub(crate) fn make_choked_endpoint() -> (ChannelEndpoint, Arc<WatermarkQueue<Frame>>) {
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(8, 4)));
        let channel = ChannelId::new(0, 0, 0);
        let endpoint = ChannelEndpoint::new(
            OutputBuffer::new(8, Some(std::time::Duration::from_millis(5))),
            inproc_link(channel, &queue),
            Arc::new(OperatorCounters::default()),
            None,
        );
        (endpoint, queue)
    }

    /// A 16-byte message of `byte`, length-prefixed.
    fn prefixed(byte: u8) -> Vec<u8> {
        framed(&[byte; 16])
    }

    #[test]
    fn a_refused_batch_is_staged_and_a_barrier_never_overtakes_it() {
        let (mut ep, q) = make_choked_endpoint();
        let counters = ep.counters.clone();
        let frames_out = || counters.frames_out.load(Ordering::Relaxed);
        let space = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let s = space.clone();
        ep.link().add_space_listener(Arc::new(move || {
            s.fetch_add(1, Ordering::Relaxed);
        }));

        ep.push(&prefixed(b'a')).unwrap();
        assert_eq!((q.len(), frames_out()), (1, 1), "the first frame is taken and closes the gate");
        assert!(!ep.link().admits());
        // Refused: staged, not counted, not lost — and the call came back.
        ep.push(&prefixed(b'b')).unwrap();
        ep.barrier(7).unwrap();
        ep.push(&prefixed(b'c')).unwrap();
        assert_eq!((q.len(), frames_out()), (1, 1));
        assert!(!ep.is_empty(), "staged work keeps the endpoint busy for settle()");
        let mut next_due = None;
        let later = Instant::now() + std::time::Duration::from_secs(1);
        assert_eq!(ep.flush_if_due(later, &mut next_due), Ok(true), "still staged");
        assert_eq!(next_due, None, "the space listener, not the clock, ends this wait");
        assert_eq!(q.len(), 1, "offering again to a closed gate changes nothing");

        // Each pop reopens the gate for exactly one more frame; whoever
        // comes by next hands the oldest staged item over.
        let mut got = Vec::new();
        for round in 1..=4u64 {
            let frame = q.pop().expect("one frame per round");
            assert_eq!(space.load(Ordering::Relaxed), round, "the reopened gate signals space");
            got.push((frame.control, frame.base_seq, frame.messages.len()));
            ep.retry_staged().unwrap();
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
    fn idle_endpoint_skips_flush_without_locking() {
        // White-box: an endpoint that never buffered anything keeps its
        // non-empty flag clear, and flush_if_due is a no-op returning Ok.
        let (mut ep, q) = make_inproc_endpoint(1 << 20);
        assert!(!ep.has_data.load(Ordering::Acquire));
        assert_eq!(ep.flush_if_due(Instant::now(), &mut None), Ok(false));
        assert_eq!(ep.force_flush(), Ok(false));
        assert!(q.is_empty());
        ep.push(&framed(b"x")).unwrap();
        assert!(ep.has_data.load(Ordering::Acquire), "push must raise the flag");
        ep.force_flush().unwrap();
        assert!(!ep.has_data.load(Ordering::Acquire), "flush must clear the flag");
    }

    #[test]
    fn has_data_mirrors_the_buffer() {
        let (mut ep, q) = make_inproc_endpoint(64);
        // The flag is true exactly while the buffer holds a message.
        let check = |ep: &ChannelEndpoint, what: &str| {
            let buffered = ep.buffer.buffered_count();
            assert_eq!(ep.has_data.load(Ordering::Acquire), buffered > 0, "{what}");
        };
        check(&ep, "fresh");
        ep.push(&framed(&[0u8; 10])).unwrap();
        check(&ep, "first push is the edge");
        ep.push(&framed(&[0u8; 10])).unwrap();
        ep.push(&[2, 0, 0, 0, 9, 9]).unwrap(); // prefixed by hand: length 2, then 9, 9
        check(&ep, "later pushes only append");
        ep.push(&framed(&[0u8; 40])).unwrap(); // 14 + 14 + 6 + 44 >= 64: capacity flush
        check(&ep, "capacity flush empties");
        assert_eq!(q.pop().unwrap().messages.len(), 4);
        ep.push(&framed(&[0u8; 100])).unwrap(); // flushes by itself: never buffered
        check(&ep, "a push that flushes alone is no edge");
        ep.push(&framed(b"timer")).unwrap();
        check(&ep, "second edge");
        let late = Instant::now() + std::time::Duration::from_millis(8);
        ep.flush_if_due(late, &mut None).unwrap();
        check(&ep, "timer flush empties");
        ep.push(&framed(b"forced")).unwrap();
        check(&ep, "third edge");
        ep.force_flush().unwrap();
        check(&ep, "force_flush empties");
        ep.push(&framed(b"before the barrier")).unwrap();
        check(&ep, "fourth edge");
        ep.barrier(1).unwrap();
        check(&ep, "barrier flushes what it sits behind");
    }

    #[test]
    fn telemetry_records_buffer_wait_and_stamps_frames() {
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let telemetry = Arc::new(OperatorTelemetry::new());
        let channel = ChannelId::new(0, 0, 0);
        let mut ep = ChannelEndpoint::new(
            OutputBuffer::new(1 << 20, Some(std::time::Duration::from_millis(5))),
            inproc_link(channel, &queue),
            Arc::new(OperatorCounters::default()),
            Some(telemetry.clone()),
        );
        ep.push(&framed(b"measured")).unwrap();
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
        let (mut ep, q) = make_inproc_endpoint(16);
        let ring = Arc::new(SpanRing::new(256, 4));
        let track = ring.register_track("src");
        ep.set_tracing(ring.clone(), track, true);
        for _ in 0..4 {
            ep.push(&framed(&[0u8; 16])).unwrap(); // every push flushes one frame
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
        let (mut ep2, q2) = make_inproc_endpoint(1 << 20);
        ep2.set_tracing(ring.clone(), ring.register_track("relay"), false);
        ep2.push(&framed(b"untagged")).unwrap();
        ep2.force_flush().unwrap();
        assert_eq!(q2.pop().unwrap().trace, None, "no tag, no origination");
        ep2.push(&framed(b"tagged")).unwrap();
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
        let mut ep = ChannelEndpoint::new(
            OutputBuffer::new(8, None),
            link,
            Arc::new(OperatorCounters::default()),
            None,
        );
        ep.push(&framed(&[7u8; 32])).unwrap();
        let f = rx.queue().pop_timeout(std::time::Duration::from_secs(5)).expect("frame");
        let id = ChannelId::from_raw(f.link_id);
        assert_eq!(id.link(), 2);
        assert_eq!(id.src_instance(), 1);
        assert_eq!(f.messages, vec![vec![7u8; 32]]);
        rx.shutdown();
    }
}
