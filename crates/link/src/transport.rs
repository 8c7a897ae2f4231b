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
//! none of them waits: a send the transport cannot take now answers
//! [`TransportError::Backpressure`] and nothing has happened to the frame.
//! [`FrameLink::admits`] is the same question without a frame (one
//! lock-free load, cheap enough to ask per packet), and
//! [`FrameLink::add_space_listener`] is who calls back when the answer
//! changes. A producer keeps what was refused, parks its task, and offers
//! it again when woken — the producers are tasks on the very pools that
//! make room.
//!
//! The reliability layer ([`crate::SupervisedLink`]) is one more flavour,
//! stacked on another. The one caller that waits instead is `SpaceWait`,
//! the "try, else wait for the space signal" of a thread that is its own.
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
use neptune_granules::sync::{Condvar, Mutex, RwLock};
use neptune_net::frame::{
    encode_control_frame, encode_frame_into, wire_len, ControlKind, Frame, FrameHeader,
    FrameMessages, FRAME_HEADER_LEN,
};
use neptune_net::tcp::TcpSender;
use neptune_net::transport::TransportError;
use neptune_net::watermark::WatermarkQueue;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
/// identically. Nothing here waits; see the [module docs](self).
///
/// The provided methods describe a transport that never pushes back (a
/// test spy): it always admits, and nobody needs waking.
pub trait FrameLink: Send + Sync {
    /// Deliver one data frame; returns the frame's wire-equivalent length
    /// in bytes, or [`TransportError::Backpressure`] when the transport
    /// cannot take it now — keep it, and offer it again once a space
    /// listener fires.
    fn send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError>;

    /// Deliver one control frame (heartbeat probe, explicit ack, barrier),
    /// or refuse it like [`send_frame`](Self::send_frame).
    fn send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError>;

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

    /// Times a bounded sender queue behind this transport went full (0 for
    /// flavours without one: an in-process destination counts its own gate
    /// closures).
    fn sender_full(&self) -> u64 {
        0
    }
}

/// "Try, else wait for the space signal" — the one place in the stack that
/// waits, for [`Link::send_batch`](crate::Link::send_batch), whose thread is
/// its own: for the whole stack's space signal or a reliability layer's
/// redial deadline, whichever comes first. Its listener is registered on
/// the first wait, so a link nobody waits on pays nothing.
#[derive(Default)]
pub(crate) struct SpaceWait {
    registered: AtomicBool,
    /// Space signals seen so far, and the condvar they are announced on.
    signal: Arc<(Mutex<u64>, Condvar)>,
}

impl SpaceWait {
    /// Offer through `attempt` until `link` takes it or fails for good,
    /// waiting out each [`TransportError::Backpressure`] until `link`
    /// signals space or `retry_at` passes.
    pub(crate) fn until_taken<T>(
        &self,
        link: &dyn FrameLink,
        retry_at: impl Fn() -> Option<Instant>,
        mut attempt: impl FnMut() -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        loop {
            let seen = *self.signal.0.lock();
            match attempt() {
                Err(TransportError::Backpressure) => {}
                done => return done,
            }
            if !self.registered.swap(true, Ordering::AcqRel) {
                let signal = self.signal.clone();
                link.add_space_listener(Arc::new(move || {
                    *signal.0.lock() += 1;
                    signal.1.notify_all();
                }));
                continue; // a signal before the registration woke nobody
            }
            // The listener bumps the count under this lock, so a signal
            // since the attempt is not lost. Nothing else is asked under
            // it: a listener fired under a layer's own lock cannot deadlock
            // with this wait.
            let deadline = retry_at();
            let mut signals = self.signal.0.lock();
            if *signals == seen {
                match deadline {
                    Some(at) => {
                        let left = at.saturating_duration_since(Instant::now());
                        self.signal.1.wait_for(&mut signals, left);
                    }
                    None => self.signal.1.wait(&mut signals),
                }
            }
        }
    }
}

/// Callback a transport fires when it has room again.
pub type SpaceListener = Arc<dyn Fn() + Send + Sync>;

type DeliverHook = Arc<dyn Fn() + Send + Sync>;

/// In-process transport: frames land decoded on the destination
/// [`WatermarkQueue`], sharing the sender's batch buffer (zero-copy).
/// Used by the runtime's co-located links, under the reliability layer
/// (carrying the frame sequence number for dedup/ack), and by the chaos
/// harness (CI-testable recovery without sockets).
pub struct QueueLink {
    queue: Arc<WatermarkQueue<Frame>>,
    on_deliver: RwLock<Option<DeliverHook>>,
}

impl QueueLink {
    /// Wrap a destination queue.
    pub fn new(queue: Arc<WatermarkQueue<Frame>>) -> Self {
        QueueLink { queue, on_deliver: RwLock::new(None) }
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
}

impl QueueLink {
    /// Push without waiting at a closed gate.
    fn push(&self, frame: Frame) -> Result<(), TransportError> {
        self.queue.try_push(frame).map_err(TransportError::from_push)
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
        // Asked first, so a producer that comes back while the gate is
        // still shut costs one load, not a parse of its whole batch.
        if !self.admits() {
            return Err(TransportError::Backpressure);
        }
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
        self.push(decoded)?;
        self.signal();
        Ok(wire_len)
    }

    fn send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
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
        self.push(frame)?;
        // Control frames must wake the consumer too: a checkpoint barrier
        // delivered to an idle task would otherwise sit unprocessed until
        // the next data frame, wedging alignment on quiet channels.
        self.signal();
        Ok(())
    }

    /// A closed queue admits too — so that whoever parked on its gate
    /// comes back to be told `Closed`.
    fn admits(&self) -> bool {
        !self.queue.is_gated() || self.queue.is_closed()
    }

    fn add_space_listener(&self, listener: SpaceListener) {
        self.queue.add_gate_listener(move || listener());
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
        // Asked first, so a full queue costs no encode. A channel has one
        // sender and hands over under its own lock, so the answer holds.
        if !self.sender.has_room() {
            return Err(TransportError::Backpressure);
        }
        let wire = self.encode(frame);
        let len = wire.len();
        self.sender.send(wire).map_err(TransportError::from_push)?;
        Ok(len)
    }

    fn send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.sender
            .send(encode_control_frame(link_id, kind, value))
            .map_err(TransportError::from_push)
    }

    fn admits(&self) -> bool {
        self.sender.has_room()
    }

    fn add_space_listener(&self, listener: SpaceListener) {
        self.sender.add_space_listener(move || listener());
    }

    fn sender_full(&self) -> u64 {
        self.sender.full_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_net::watermark::WatermarkConfig;
    use std::sync::atomic::AtomicU64;

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
    fn queue_link_signals_every_delivery() {
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

    /// The reopening edge is the conformance suite's: `send_batch` waits
    /// through `SpaceWait` on every flavour.
    #[test]
    fn space_wait_releases_a_waiter_when_the_gated_queue_closes() {
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(64, 8)));
        let link = Arc::new(QueueLink::new(q.clone()));
        let (encoded, count) = prefixed(&[&[0u8; 60]]);
        link.send_frame(&frame(None, 0, encoded, count)).unwrap(); // gates the queue
        let waiter = {
            let link = link.clone();
            std::thread::spawn(move || {
                let (encoded, count) = prefixed(&[b"refused"]);
                let refused = frame(None, 1, encoded, count);
                SpaceWait::default().until_taken(
                    link.as_ref(),
                    || None,
                    || link.send_frame(&refused),
                )
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "a gated queue is waited out");
        q.close();
        assert_eq!(waiter.join().unwrap(), Err(TransportError::Closed));
    }
}
