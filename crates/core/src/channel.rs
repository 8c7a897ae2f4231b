//! Channels: the runtime fabric of a link.
//!
//! A *link* connects two operators; with parallelism it fans out into
//! `src_instances x dst_instances` **channels**. Each channel owns:
//!
//! * an [`OutputBuffer`] on the sending side (application-level buffering,
//!   §III-B1), governed by its link's retunable flush policy,
//! * a built [`Link`] stack — transport flavour (in-process or TCP),
//!   optional trace tagging, optional reliability — that blocks under
//!   backpressure (§III-B4),
//! * contiguous per-channel sequence numbers that let the receiver verify
//!   in-order, exactly-once delivery (§I-B's correctness requirement).
//!
//! The channel's buffer mutex is held across the flush-and-dispatch step
//! on purpose: batches of one channel must reach the transport in flush
//! order, or sequence validation downstream would flag reordering.

use crate::metrics::OperatorCounters;
use neptune_link::{Link, TraceTagger};
use neptune_net::buffer::{FlushedBatch, OutputBuffer, PushOutcome};
use neptune_net::transport::TransportError;
use neptune_net::watermark::WatermarkQueue;
use neptune_telemetry::{OperatorTelemetry, SpanRing};
use parking_lot::{Mutex, RwLock};
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

/// The sending half of one channel: an [`OutputBuffer`] feeding a built
/// [`Link`] stack.
pub struct ChannelEndpoint {
    channel: ChannelId,
    buffer: Mutex<OutputBuffer>,
    /// Mirror of "the buffer holds at least one message", maintained under
    /// the buffer lock. Lets the flusher thread skip idle endpoints with a
    /// single atomic load instead of taking every buffer mutex each tick.
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
            buffer: Mutex::new(buffer),
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

    /// Deadline by which the currently buffered data must flush; `None`
    /// when the buffer is empty or the link has no flush timer.
    pub fn flush_deadline(&self) -> Option<Instant> {
        self.buffer.lock().flush_deadline()
    }

    /// The destination watermark queue for an in-process link; `None` for
    /// TCP channels (their backpressure lives in the sender's IO queue).
    pub fn inproc_queue(&self) -> Option<&Arc<WatermarkQueue<neptune_net::frame::Frame>>> {
        self.link.queue()
    }

    /// Buffer one serialized packet; dispatches a batch if the push filled
    /// the buffer. Blocks under downstream backpressure.
    pub fn push(&self, message: &[u8]) -> Result<(), EmitError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(EmitError::Closed);
        }
        let mut buf = self.buffer.lock();
        let outcome = buf.push(message);
        self.after_push(&mut buf, outcome)
    }

    /// Buffer one packet that already carries its 4-byte length prefix —
    /// the serialize-once fan-out path ([`crate::operator::OperatorContext`]
    /// encodes `[len | bytes]` once and appends the same slice to every
    /// destination endpoint).
    pub fn push_preencoded(&self, prefixed: &[u8]) -> Result<(), EmitError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(EmitError::Closed);
        }
        let mut buf = self.buffer.lock();
        let outcome = buf.push_prefixed(prefixed);
        self.after_push(&mut buf, outcome)
    }

    fn after_push(&self, buf: &mut OutputBuffer, outcome: PushOutcome) -> Result<(), EmitError> {
        match outcome {
            PushOutcome::Buffered => {
                // The buffer lock is held and the buffer knows the
                // empty → non-empty edge: only that push touches the flag
                // and the flush task, every other push just appends.
                if buf.buffered_count() == 1 {
                    self.has_data.store(true, Ordering::Release);
                    if let Some(waker) = self.flush_waker.read().as_ref() {
                        waker();
                    }
                }
                Ok(())
            }
            PushOutcome::Flush(batch) => {
                self.has_data.store(false, Ordering::Release);
                self.dispatch(buf, batch)
            }
        }
    }

    /// Timer path: flush if the oldest buffered message is older than the
    /// link's flush interval. Cheap when idle: an empty endpoint is skipped
    /// on an atomic load, without touching the buffer mutex.
    pub fn flush_if_due(&self, now: Instant) -> Result<(), EmitError> {
        if !self.has_data.load(Ordering::Acquire) {
            return Ok(());
        }
        if self.failed.load(Ordering::Acquire) {
            return Err(EmitError::Closed);
        }
        let mut buf = self.buffer.lock();
        match buf.take_if_due(now) {
            Some(batch) => {
                self.has_data.store(false, Ordering::Release);
                self.dispatch(&mut buf, batch)
            }
            None => Ok(()),
        }
    }

    /// Unconditional flush (teardown / explicit).
    pub fn force_flush(&self) -> Result<(), EmitError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(EmitError::Closed);
        }
        let mut buf = self.buffer.lock();
        match buf.force_flush() {
            Some(batch) => {
                self.has_data.store(false, Ordering::Release);
                self.dispatch(&mut buf, batch)
            }
            None => Ok(()),
        }
    }

    /// Emit an aligned-snapshot barrier (ISSUE 10) behind everything
    /// buffered so far: force-flush pending data, then send the barrier
    /// control frame down the link stack. Barriers are control traffic —
    /// they bypass the output buffer, take no sequence number, and do not
    /// count toward `frames_out` (the settle invariant balances data
    /// frames only).
    pub fn barrier(&self, checkpoint_id: u64) -> Result<(), EmitError> {
        self.force_flush()?;
        self.link.barrier(checkpoint_id).map_err(|e| match e {
            TransportError::Closed => EmitError::Closed,
            other => EmitError::Transport(other.to_string()),
        })
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.lock().buffered_count() == 0
    }

    /// True once the downstream link failed (dispatch error or explicit
    /// [`fail_link`](Self::fail_link)).
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Declare this channel's downstream link dead (the link supervisor
    /// exhausted its retries, or a fault was injected).
    ///
    /// Beyond marking the endpoint so emitters fast-fail, this closes an
    /// in-process destination queue: the backpressure gate only reopens
    /// on *consumption*, so a producer parked in `push_blocking` behind a
    /// closed high-watermark gate would otherwise wait forever on a link
    /// that will never drain. `WatermarkQueue::close` wakes every gated
    /// producer with an error, which surfaces here as
    /// [`EmitError::Closed`].
    pub fn fail_link(&self) {
        self.failed.store(true, Ordering::Release);
        self.link.close();
    }

    /// Dispatch a batch to the link. Called with the buffer lock held so
    /// batches leave in flush order (per-channel ordering invariant).
    fn dispatch(&self, buf: &mut OutputBuffer, batch: FlushedBatch) -> Result<(), EmitError> {
        let out = self.dispatch_inner(buf, batch);
        if out.is_err() {
            // A channel whose link errored is done: the transports behind
            // every flavour fail terminally, so later emits would only
            // block or error again. Latch the failure so they fast-fail.
            self.failed.store(true, Ordering::Release);
        }
        out
    }

    fn dispatch_inner(&self, buf: &mut OutputBuffer, batch: FlushedBatch) -> Result<(), EmitError> {
        let count = batch.count;
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
        let wire = self
            .link
            .send_batch(batch.base_seq, batch.encoded.clone(), count, sent_at, wait)
            .map_err(|e| match e {
                TransportError::Closed => EmitError::Closed,
                other => EmitError::Transport(other.to_string()),
            })?;
        // In-process flavours hand the same bytes to the receiver, which
        // recycles them once consumed — this call is then a refcount-gated
        // no-op. Wire flavours copy onto the wire, so the storage goes
        // straight back to the buffer (sole handle → reclaimed).
        buf.recycle(batch.encoded);
        self.link.stats().record_packets(count as u64);
        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_out.fetch_add(wire as u64, Ordering::Relaxed);
        Ok(())
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
            let buffered = ep.buffer.lock().buffered_count();
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
