//! The transport layer of the link stack: how one outbound frame reaches
//! the destination, flavour by flavour.
//!
//! [`FrameLink`] is the pluggable bottom of the stack. It carries data
//! frames — sequenced (when a reliability layer assigned a frame sequence
//! number) or bare — and control frames (heartbeats, acks, barriers).
//!
//! Every flavour pushes back, which is what lets watermark gating
//! propagate upstream (NEPTUNE §III-B4: *"The stream processors are not
//! scheduled again until these write operations are successful"*), and
//! every flavour offers the two ways a producer can take that:
//!
//! * **wait** — [`FrameLink::send_frame`] / [`FrameLink::send_control`] do
//!   not return until the frame is handed over. For callers that own the
//!   thread they wait on: a worker-tier processor (a resource has at least
//!   one worker per instance, so a blocked one starves nobody), the
//!   reliability layer's reconnect loop, teardown, a test or a probe.
//! * **ask, park, retry** — [`FrameLink::try_send_frame`] /
//!   [`FrameLink::try_send_control`] answer
//!   [`TransportError::Backpressure`] instead of waiting,
//!   [`FrameLink::admits`] is the same question without a frame (one
//!   lock-free load, cheap enough to ask per packet), and
//!   [`FrameLink::add_space_listener`] is who calls back when the answer
//!   changes. For tasks on an IO pool — a source pump, a flush task: the
//!   thread they would sleep on is the one the transport needs to make
//!   room.
//!
//! Both forms feed the same queue; waiting is "try, else wait for the
//! space signal", not a second path.
//!
//! Flavours shipping here:
//!
//! * [`QueueLink`] — both operator instances live in the same process;
//!   the batch buffer is handed over as a decoded
//!   [`Frame`] with no wire encoding, no compression, and **no copy**:
//!   the refcounted `Bytes` batch the output buffer flushed is the same
//!   storage the receiving task reads messages from.
//! * [`TcpFrameLink`] — instances on different resources; the batch is
//!   encoded with [`encode_frame_into`] — straight into a wire buffer the
//!   sender has finished writing an earlier frame from — and carried by a
//!   [`TcpSender`], whose write state machine runs on the IO tier.
//! * [`crate::chaos::ChaosLink`] — interposes scripted fault injection on
//!   any of the above.

use bytes::Bytes;
use neptune_compress::SelectiveCompressor;
use neptune_net::frame::{
    encode_control_frame, encode_frame_into, wire_len, ControlKind, Frame, FrameHeader,
    FrameMessages, FRAME_HEADER_LEN,
};
use neptune_net::tcp::TcpSender;
use neptune_net::transport::TransportError;
use neptune_net::watermark::{Pushed, WatermarkQueue};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One data frame on its way out: the header the wire will carry, and the
/// batch behind it.
#[derive(Debug, Clone)]
pub struct OutboundFrame {
    /// The frame header. `seq` is assigned by the reliability layer
    /// (`None` on links without ack/replay), `trace` by the tagging layer.
    pub header: FrameHeader,
    /// Length-prefixed message concatenation.
    pub encoded: Bytes,
}

/// A transport that can carry data frames and control frames. Returns the
/// wire-equivalent byte count of what was sent so every flavour accounts
/// identically. See the [module docs](self) for who calls the waiting
/// forms and who the `try_` ones.
///
/// The provided methods describe a transport that never pushes back (a
/// test spy): it always admits, so trying is sending and nobody needs
/// waking.
pub trait FrameLink: Send + Sync {
    /// Deliver one data frame, waiting under backpressure; returns the
    /// frame's wire-equivalent length in bytes. Only for callers that own
    /// their thread.
    fn send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError>;

    /// Deliver one control frame (heartbeat probe, explicit ack, barrier),
    /// waiting under backpressure. Only for callers that own their thread.
    fn send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError>;

    /// [`send_frame`](Self::send_frame) that never waits:
    /// [`TransportError::Backpressure`] when the transport cannot take the
    /// frame now — keep it, and retry once a space listener fires.
    fn try_send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        self.send_frame(frame)
    }

    /// [`send_control`](Self::send_control) that never waits.
    fn try_send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.send_control(link_id, kind, value)
    }

    /// The admission question: could the transport take a frame now?
    /// Lock-free, one load while the answer is yes. `false` is the answer
    /// a task parks on; a listener registered *before* asking is
    /// guaranteed to fire after the answer turns `true` again.
    fn admits(&self) -> bool {
        true
    }

    /// Register a callback fired when the transport admits frames again
    /// after refusing them, or is closed for good. It may run on any
    /// thread, under no lock of the transport's; it must be cheap and must
    /// not send.
    fn add_space_listener(&self, _listener: SpaceListener) {}

    /// Wait until the transport [`admits`](Self::admits) again (or is
    /// closed): the other half of "try, else wait for the space signal",
    /// for a caller that owns its thread and keeps what it could not send.
    fn wait_space(&self) {}

    /// Times a bounded sender queue behind this transport went full (0 for
    /// flavours without one: an in-process destination counts its own gate
    /// closures).
    fn sender_full(&self) -> u64 {
        0
    }
}

/// Callback a transport fires when it has room again.
pub type SpaceListener = Arc<dyn Fn() + Send + Sync>;

type DeliverHook = Arc<dyn Fn() + Send + Sync>;

/// In-process transport: frames land decoded on the destination
/// [`WatermarkQueue`], sharing the sender's batch buffer (zero-copy).
/// Used by the runtime's co-located links, by the reliability layer
/// (carrying the frame sequence number for dedup/ack), and by the chaos
/// harness (CI-testable recovery without sockets).
pub struct QueueLink {
    queue: Arc<WatermarkQueue<Frame>>,
    on_deliver: RwLock<Option<DeliverHook>>,
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl QueueLink {
    /// Wrap a destination queue.
    pub fn new(queue: Arc<WatermarkQueue<Frame>>) -> Self {
        QueueLink {
            queue,
            on_deliver: RwLock::new(None),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Register a callback invoked after every delivered frame (wired to
    /// the destination task's data-driven signal).
    pub fn on_deliver<F: Fn() + Send + Sync + 'static>(&self, f: F) {
        *self.on_deliver.write() = Some(Arc::new(f));
    }

    /// The destination queue.
    pub fn queue(&self) -> &Arc<WatermarkQueue<Frame>> {
        &self.queue
    }

    /// Frames delivered so far (shed-dropped frames excluded).
    pub fn frames_sent(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Wire-equivalent bytes delivered so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl QueueLink {
    /// Push, waiting at a closed gate if `wait`. A shedding queue is the
    /// exception it has always been: it must see every push for its stall
    /// clock and policy to apply, and it bounds the wait itself
    /// (`max_stall`), after which it degrades instead of refusing.
    fn push(&self, frame: Frame, wait: bool) -> Result<Pushed, TransportError> {
        if wait || self.queue.sheds() {
            self.queue.push_blocking(frame)
        } else {
            self.queue.try_push(frame)
        }
        .map_err(TransportError::from_push)
    }

    fn deliver_frame(&self, frame: &OutboundFrame, wait: bool) -> Result<usize, TransportError> {
        let header = &frame.header;
        let wire_len = wire_len(frame.encoded.len());
        // Zero-copy split: the frame's messages are ranges into `encoded`.
        let messages = FrameMessages::parse_prefixed(frame.encoded.clone(), Some(header.count))
            .map_err(TransportError::Malformed)?;
        let decoded = Frame {
            link_id: header.link_id,
            base_seq: header.base_seq,
            messages,
            wire_len,
            sent_at_micros: header.sent_at_micros,
            received_at: Some(std::time::Instant::now()),
            seq: header.seq,
            control: None,
            trace: header.trace,
        };
        if !self.push(decoded, wait)?.accepted() {
            // The queue's armed ShedPolicy dropped the incoming frame to
            // bound latency; it was never enqueued, so nothing was "sent"
            // and there is no delivery to signal.
            return Ok(wire_len);
        }
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(wire_len as u64, Ordering::Relaxed);
        self.signal();
        Ok(wire_len)
    }

    fn deliver_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
        wait: bool,
    ) -> Result<(), TransportError> {
        let frame = Frame {
            link_id,
            base_seq: value,
            messages: FrameMessages::empty(),
            wire_len: FRAME_HEADER_LEN,
            sent_at_micros: 0,
            received_at: Some(std::time::Instant::now()),
            seq: None,
            control: Some(kind),
            trace: None,
        };
        self.push(frame, wait)?;
        // Control frames must wake the consumer too: a checkpoint barrier
        // delivered to an idle task would otherwise sit unprocessed until
        // the next data frame, wedging alignment on quiet channels.
        self.signal();
        Ok(())
    }

    fn signal(&self) {
        let hook = self.on_deliver.read().clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

impl FrameLink for QueueLink {
    fn send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        self.deliver_frame(frame, true)
    }

    fn try_send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        self.deliver_frame(frame, false)
    }

    fn send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.deliver_control(link_id, kind, value, true)
    }

    fn try_send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.deliver_control(link_id, kind, value, false)
    }

    /// A closed queue admits too — so that whoever parked on its gate
    /// comes back to be told `Closed` — and so does a shedding one, whose
    /// policy only runs if producers keep pushing.
    fn admits(&self) -> bool {
        !self.queue.is_gated() || self.queue.sheds() || self.queue.is_closed()
    }

    fn add_space_listener(&self, listener: SpaceListener) {
        self.queue.add_gate_listener(move || listener());
    }

    fn wait_space(&self) {
        if !self.queue.sheds() {
            self.queue.wait_open();
        }
    }
}

/// TCP transport: encodes frames onto the wire and hands them to a
/// [`TcpSender`].
pub struct TcpFrameLink {
    sender: TcpSender,
    compressor: SelectiveCompressor,
}

impl TcpFrameLink {
    /// Wrap a connected sender with the link's compression policy.
    pub fn new(sender: TcpSender, compressor: SelectiveCompressor) -> Self {
        TcpFrameLink { sender, compressor }
    }

    /// The wrapped sender.
    pub fn sender(&self) -> &TcpSender {
        &self.sender
    }

    fn encode(&self, frame: &OutboundFrame) -> Vec<u8> {
        let mut wire = self.sender.wire_buffer();
        encode_frame_into(&mut wire, &frame.header, &frame.encoded, &self.compressor);
        wire
    }
}

impl FrameLink for TcpFrameLink {
    fn send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        let wire = self.encode(frame);
        let len = wire.len();
        self.sender.send(wire)?;
        Ok(len)
    }

    fn try_send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        // Asked first, so a full queue costs no encode. A channel has one
        // sender and hands over under its own lock, so the answer holds.
        if !self.sender.has_room() {
            return Err(TransportError::Backpressure);
        }
        let wire = self.encode(frame);
        let len = wire.len();
        self.sender.try_send(wire).map_err(TransportError::from_push)?;
        Ok(len)
    }

    fn send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.sender.send(encode_control_frame(link_id, kind, value))
    }

    fn try_send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.sender
            .try_send(encode_control_frame(link_id, kind, value))
            .map_err(TransportError::from_push)
    }

    fn admits(&self) -> bool {
        self.sender.has_room()
    }

    fn add_space_listener(&self, listener: SpaceListener) {
        self.sender.add_space_listener(move || listener());
    }

    fn wait_space(&self) {
        self.sender.wait_room();
    }

    fn sender_full(&self) -> u64 {
        self.sender.full_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_net::watermark::WatermarkConfig;

    fn prefixed(msgs: &[&[u8]]) -> (Bytes, u32) {
        let mut out = Vec::new();
        for m in msgs {
            out.extend_from_slice(&(m.len() as u32).to_le_bytes());
            out.extend_from_slice(m);
        }
        (Bytes::from(out), msgs.len() as u32)
    }

    fn frame(seq: Option<u64>, base_seq: u64, encoded: Bytes, count: u32) -> OutboundFrame {
        let header = FrameHeader { link_id: 5, seq, base_seq, count, ..FrameHeader::default() };
        OutboundFrame { header, encoded }
    }

    #[test]
    fn queue_link_carries_seq_and_control() {
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let link = QueueLink::new(q.clone());
        let (encoded, count) = prefixed(&[b"a", b"b"]);
        link.send_frame(&frame(Some(17), 100, encoded, count)).unwrap();
        link.send_control(5, ControlKind::Heartbeat, 3).unwrap();
        let f = q.pop().unwrap();
        assert_eq!(f.seq, Some(17));
        assert_eq!(f.base_seq, 100);
        assert_eq!(f.len(), 2);
        let hb = q.pop().unwrap();
        assert_eq!(hb.control, Some(ControlKind::Heartbeat));
        assert_eq!(hb.base_seq, 3);
        assert!(hb.is_empty());
    }

    #[test]
    fn bare_and_sequenced_frames_account_the_same_wire_bytes() {
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let link = QueueLink::new(q.clone());
        let (encoded, count) = prefixed(&[b"x"]);
        let body = encoded.len();
        let bare = link.send_frame(&frame(None, 0, encoded.clone(), count)).unwrap();
        let sequenced = link.send_frame(&frame(Some(0), 1, encoded, count)).unwrap();
        assert_eq!(bare, wire_len(body));
        assert_eq!(sequenced, bare, "the header is one size");
        assert_eq!(q.pop().unwrap().seq, None);
        assert_eq!(q.pop().unwrap().seq, Some(0));
    }

    #[test]
    fn queue_link_counts_and_signals_deliveries() {
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let link = QueueLink::new(q.clone());
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        link.on_deliver(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let (encoded, count) = prefixed(&[b"a"]);
        link.send_frame(&frame(None, 0, encoded.clone(), count)).unwrap();
        link.send_frame(&frame(None, 1, encoded, count)).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(link.frames_sent(), 2);
        assert!(link.bytes_sent() > 0);
    }

    #[test]
    fn control_frames_signal_delivery_too() {
        // Regression: a barrier sent to an idle consumer must fire the
        // delivery hook, or the task is never scheduled to align it and
        // the queue looks busy forever (settle() then times out).
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let link = QueueLink::new(q.clone());
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        link.on_deliver(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        link.send_control(5, ControlKind::Barrier, 9).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1, "control delivery must signal the consumer");
        assert_eq!(q.pop().unwrap().control, Some(ControlKind::Barrier));
    }

    #[test]
    fn delivered_frame_shares_the_batch_buffer() {
        // The whole point of the in-process path: no copy on handover.
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let link = QueueLink::new(q.clone());
        let (encoded, count) = prefixed(&[b"shared"]);
        let batch_ptr = encoded.as_ptr() as usize;
        link.send_frame(&frame(None, 0, encoded, count)).unwrap();
        let f = q.pop().unwrap();
        let range = batch_ptr..batch_ptr + f.messages.batch().len();
        assert!(
            range.contains(&(f.messages[0].as_ptr() as usize)),
            "message must alias the sender's batch buffer"
        );
    }

    #[test]
    fn count_mismatch_rejected() {
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let link = QueueLink::new(q);
        let (encoded, _) = prefixed(&[b"x", b"y"]);
        assert!(matches!(
            link.send_frame(&frame(None, 0, encoded, 3)),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn queue_link_surfaces_close_as_error() {
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
        let link = QueueLink::new(q.clone());
        q.close();
        let (encoded, count) = prefixed(&[b"x"]);
        assert_eq!(
            link.send_frame(&frame(Some(0), 0, encoded, count)),
            Err(TransportError::Closed)
        );
        assert_eq!(link.send_control(1, ControlKind::Ack, 0), Err(TransportError::Closed));
    }

    #[test]
    fn blocks_under_backpressure_until_drained() {
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(64, 8)));
        let link = Arc::new(QueueLink::new(q.clone()));
        let (encoded, count) = prefixed(&[&[0u8; 60]]);
        link.send_frame(&frame(None, 0, encoded.clone(), count)).unwrap(); // gates the queue
        assert!(q.is_gated());
        let l2 = link.clone();
        let e2 = encoded.clone();
        let sender = std::thread::spawn(move || l2.send_frame(&frame(None, 1, e2, count)));
        assert!(neptune_net::test_support::wait_for(std::time::Duration::from_secs(5), || {
            q.gate_events() == 1
        }));
        assert_eq!(q.total_pushed(), 1, "second send must be blocked");
        q.pop().unwrap();
        sender.join().unwrap().unwrap();
        assert_eq!(q.total_pushed(), 2);
    }
}
