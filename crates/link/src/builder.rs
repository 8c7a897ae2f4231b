//! The link facade: one composable stack behind every frame-delivery
//! path.
//!
//! ```text
//!   Link::send_batch(base_seq, encoded, count, sent_at, wait)
//!        │
//!        ├─ flush policy   (batch bytes / deadline / message count —
//!        │                  owned here, read by the output buffer)
//!        ├─ trace tagging  (sampled or every-N, trace-id minting)
//!        ├─ reliability?   (SupervisedLink: seq + replay + reconnect)
//!        └─ transport      (QueueLink | TcpFrameLink | ChaosLink | custom)
//! ```
//!
//! A [`LinkBuilder`] picks one flavour per layer; [`Link`] is the built
//! stack, with per-link [`LinkStats`] and the retunable
//! [`FlushPolicy`](neptune_net::flush::FlushPolicy) handle exposed for
//! telemetry and future QoS control.
//!
//! [`Link::send_batch`] is [`Link::prepare`] (count the flush, tag the
//! batch — once) followed by [`Link::deliver`], which waits under
//! backpressure and so belongs to callers that own their thread. A task
//! on an IO pool prepares the same way and then [`Link::try_deliver`]s:
//! on [`TransportError::Backpressure`] it keeps the prepared frame, parks,
//! and offers it again when the listener it registered with
//! [`Link::add_space_listener`] fires; [`Link::admits`] is the same
//! question without a frame. See [`FrameLink`] for the contract.

use crate::supervisor::SupervisedLink;
use crate::tag::TraceTagger;
use crate::transport::{FrameLink, OutboundFrame, QueueLink, SpaceListener, TcpFrameLink};
use crate::{backoff::ReconnectPolicy, stats::RecoveryStats};
use bytes::Bytes;
use neptune_compress::SelectiveCompressor;
use neptune_net::flush::{FlushPolicy, FlushPolicySnapshot};
use neptune_net::frame::{wire_len, ControlKind, Frame, FrameHeader};
use neptune_net::tcp::TcpSender;
use neptune_net::transport::TransportError;
use neptune_net::watermark::WatermarkQueue;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte threshold when the builder is not given an explicit policy.
const DEFAULT_BATCH_BYTES: usize = 32 << 10;

/// Live per-link counters, bumped on the send path.
#[derive(Debug, Default)]
pub struct LinkStats {
    flushes: AtomicU64,
    packets: AtomicU64,
    wire_bytes: AtomicU64,
    traced: AtomicU64,
}

impl LinkStats {
    /// Batches flushed into the link (including failed sends).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Packets recorded by the batching caller.
    pub fn packets(&self) -> u64 {
        self.packets.load(Ordering::Relaxed)
    }

    /// Wire-equivalent bytes sent.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// Batches that carried a trace id.
    pub fn traced(&self) -> u64 {
        self.traced.load(Ordering::Relaxed)
    }

    /// Record `n` packets pushed toward this link (called by the batching
    /// layer, which is the only place that sees per-packet granularity).
    pub fn record_packets(&self, n: u64) {
        self.packets.fetch_add(n, Ordering::Relaxed);
    }
}

/// Point-in-time export of one link's stats bundle: counters plus the
/// current flush-policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStatsSnapshot {
    /// The link's wire identity.
    pub link_id: u64,
    /// Batches flushed.
    pub flushes: u64,
    /// Packets batched.
    pub packets: u64,
    /// Wire-equivalent bytes sent.
    pub wire_bytes: u64,
    /// Traced batches.
    pub traced: u64,
    /// Frames retransmitted by the reliability layer (0 on bare links).
    pub replayed: u64,
    /// Cumulative acks received (0 on bare links).
    pub acks: u64,
    /// Duplicate frames dropped at the far end (filled by ingress-side
    /// exporters; egress-side snapshots report 0).
    pub dedup_drops: u64,
    /// Times the link's bounded TCP sender queue went full — backpressure
    /// episodes on this link, whether its producer blocked or parked (0 on
    /// in-process links, whose destination queue counts its gate closures,
    /// and on reliable ones, whose sender changes with every reconnect).
    pub sender_full: u64,
    /// Current flush-policy knobs.
    pub flush: FlushPolicySnapshot,
}

enum Delivery {
    /// Fire-and-forget onto the transport (bare frames, unsequenced).
    Direct(Arc<dyn FrameLink>),
    /// At-least-once through the reliability layer (sequenced frames).
    Reliable(Arc<SupervisedLink>),
}

/// One built link stack. See the [module docs](self) for the layers.
pub struct Link {
    id: u64,
    delivery: Delivery,
    policy: Arc<FlushPolicy>,
    tagger: RwLock<Option<TraceTagger>>,
    stats: LinkStats,
    /// Typed handle kept when the transport flavour is in-process, for
    /// gate wiring ([`queue`](Self::queue)) and delivery signals
    /// ([`on_deliver`](Self::on_deliver)).
    inproc: Option<Arc<QueueLink>>,
    /// Heartbeat nonce for direct links (reliable links sequence their
    /// own).
    heartbeat_nonce: AtomicU64,
}

impl Link {
    /// The link's wire identity.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The retunable flush policy this link's output buffering reads.
    pub fn policy(&self) -> &Arc<FlushPolicy> {
        &self.policy
    }

    /// Live counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// The reliability layer, when this link has one.
    pub fn reliability(&self) -> Option<&Arc<SupervisedLink>> {
        match &self.delivery {
            Delivery::Reliable(s) => Some(s),
            Delivery::Direct(_) => None,
        }
    }

    /// Install or replace the trace-tagging layer.
    pub fn set_tagger(&self, tagger: TraceTagger) {
        *self.tagger.write() = Some(tagger);
    }

    /// Propagate an inbound packet's trace id onto the next batch.
    pub fn tag_inbound(&self, trace_id: u64) {
        if let Some(t) = self.tagger.read().as_ref() {
            t.tag_inbound(trace_id);
        }
    }

    /// The destination watermark queue when the transport flavour is
    /// in-process; `None` otherwise. Backpressure is not asked here — see
    /// [`admits`](Self::admits), which every flavour answers.
    pub fn queue(&self) -> Option<&Arc<WatermarkQueue<Frame>>> {
        self.inproc.as_ref().map(|l| l.queue())
    }

    /// The admission question, whatever the flavour: could this link take
    /// a batch now? Lock-free — a producer task asks it before every
    /// packet and parks on `false`; a listener registered with
    /// [`add_space_listener`](Self::add_space_listener) wakes it. A
    /// reliable link always admits: its recovery loop waits on its
    /// caller's thread as it is, so it is driven with the waiting forms.
    pub fn admits(&self) -> bool {
        match &self.delivery {
            Delivery::Direct(t) => t.admits(),
            Delivery::Reliable(_) => true,
        }
    }

    /// Register a callback fired when the link admits batches again after
    /// refusing them, or is closed. Cheap, and it must not send.
    pub fn add_space_listener(&self, listener: SpaceListener) {
        if let Delivery::Direct(t) = &self.delivery {
            t.add_space_listener(listener);
        }
    }

    /// Wait until the link [`admits`](Self::admits) again (or is closed).
    /// For a caller that owns its thread and keeps what
    /// [`try_deliver`](Self::try_deliver) refused.
    pub fn wait_space(&self) {
        if let Delivery::Direct(t) = &self.delivery {
            t.wait_space();
        }
    }

    /// Register a callback invoked after every delivered frame (in-process
    /// flavours only; a no-op otherwise).
    pub fn on_deliver<F: Fn() + Send + Sync + 'static>(&self, f: F) {
        if let Some(l) = &self.inproc {
            l.on_deliver(f);
        }
    }

    /// Close the destination: an in-process queue is closed so producers
    /// parked behind its gate wake with `Closed` instead of deadlocking.
    /// Wire transports tear down with their sender.
    pub fn close(&self) {
        if let Some(q) = self.queue() {
            q.close();
        }
    }

    /// True once a reliable link exhausted its retry budget. Bare links
    /// never latch failure themselves (their callers do).
    pub fn is_failed(&self) -> bool {
        match &self.delivery {
            Delivery::Reliable(s) => s.is_failed(),
            Delivery::Direct(_) => false,
        }
    }

    /// Send one flushed batch down the stack: tag it, then deliver —
    /// directly (bare frame) or through the reliability layer (sequenced
    /// frame) — waiting under backpressure. Returns the wire-equivalent
    /// bytes sent. `sent_at_micros` may be 0 (unstamped); a traced batch
    /// is stamped lazily.
    pub fn send_batch(
        &self,
        base_seq: u64,
        encoded: Bytes,
        count: u32,
        sent_at_micros: u64,
        queueing_delay_micros: u64,
    ) -> Result<usize, TransportError> {
        self.deliver(&self.prepare(base_seq, encoded, count, sent_at_micros, queueing_delay_micros))
    }

    /// The once-per-batch half of a send: count the flush, run the tagging
    /// layer, and build the frame the transport will carry. What comes
    /// back can be offered to [`try_deliver`](Self::try_deliver) any
    /// number of times.
    pub fn prepare(
        &self,
        base_seq: u64,
        encoded: Bytes,
        count: u32,
        sent_at_micros: u64,
        queueing_delay_micros: u64,
    ) -> OutboundFrame {
        let frame_no = self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        let mut sent_at = sent_at_micros;
        let trace = self.tagger.read().as_ref().and_then(|t| {
            t.tag_batch(self.id, base_seq, count, frame_no, queueing_delay_micros, &mut sent_at)
        });
        if trace.is_some() {
            self.stats.traced.fetch_add(1, Ordering::Relaxed);
        }
        OutboundFrame {
            header: FrameHeader {
                link_id: self.id,
                base_seq,
                count,
                sent_at_micros: sent_at,
                trace,
                ..FrameHeader::default()
            },
            encoded,
        }
    }

    /// Hand a prepared frame to the transport, waiting under
    /// backpressure. Only for callers that own their thread.
    pub fn deliver(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        self.hand_over(frame, true)
    }

    /// [`deliver`](Self::deliver) that never waits:
    /// [`TransportError::Backpressure`] when the link cannot take the
    /// frame now, and nothing has happened to it.
    pub fn try_deliver(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        self.hand_over(frame, false)
    }

    fn hand_over(&self, frame: &OutboundFrame, wait: bool) -> Result<usize, TransportError> {
        let wire = match &self.delivery {
            Delivery::Direct(t) if wait => t.send_frame(frame)?,
            Delivery::Direct(t) => t.try_send_frame(frame)?,
            Delivery::Reliable(s) => {
                // The supervisor may deliver via replay after a cut, so
                // the first transmission's exact length is not always
                // observable; account the frame's uncompressed size.
                let h = &frame.header;
                s.send_batch_traced(
                    h.base_seq,
                    frame.encoded.clone(),
                    h.count,
                    h.sent_at_micros,
                    h.trace,
                )?;
                wire_len(frame.encoded.len())
            }
        };
        self.stats.wire_bytes.fetch_add(wire as u64, Ordering::Relaxed);
        Ok(wire)
    }

    /// Probe the link with a heartbeat control frame.
    pub fn heartbeat(&self) -> Result<(), TransportError> {
        match &self.delivery {
            Delivery::Reliable(s) => s.heartbeat(),
            Delivery::Direct(t) => {
                let nonce = self.heartbeat_nonce.fetch_add(1, Ordering::Relaxed);
                t.send_control(self.id, ControlKind::Heartbeat, nonce)
            }
        }
    }

    /// Send an aligned-checkpoint barrier control frame carrying
    /// `checkpoint_id` down this link, behind every batch already flushed.
    /// Barriers ride the control channel on both delivery flavours; the
    /// reliability layer forwards them without retaining them for replay
    /// (a post-cut checkpoint is abandoned, not replayed).
    pub fn barrier(&self, checkpoint_id: u64) -> Result<(), TransportError> {
        match &self.delivery {
            Delivery::Reliable(s) => s.barrier(checkpoint_id),
            Delivery::Direct(t) => t.send_control(self.id, ControlKind::Barrier, checkpoint_id),
        }
    }

    /// [`barrier`](Self::barrier) that never waits:
    /// [`TransportError::Backpressure`] when the link cannot take it now.
    pub fn try_barrier(&self, checkpoint_id: u64) -> Result<(), TransportError> {
        match &self.delivery {
            Delivery::Reliable(s) => s.barrier(checkpoint_id),
            Delivery::Direct(t) => t.try_send_control(self.id, ControlKind::Barrier, checkpoint_id),
        }
    }

    /// Deliver a cumulative ack to the reliability layer (no-op on bare
    /// links — nothing is retained).
    pub fn ack(&self, cum_msg_seq: u64) {
        if let Delivery::Reliable(s) = &self.delivery {
            s.ack(cum_msg_seq);
        }
    }

    /// Export the per-link stats bundle.
    pub fn stats_snapshot(&self) -> LinkStatsSnapshot {
        let (replayed, acks, sender_full) = match &self.delivery {
            Delivery::Reliable(s) => (s.frames_replayed(), s.acks_received(), 0),
            Delivery::Direct(t) => (0, 0, t.sender_full()),
        };
        LinkStatsSnapshot {
            link_id: self.id,
            flushes: self.stats.flushes(),
            packets: self.stats.packets(),
            wire_bytes: self.stats.wire_bytes(),
            traced: self.stats.traced(),
            replayed,
            acks,
            dedup_drops: 0,
            sender_full,
            flush: self.policy.snapshot(),
        }
    }
}

/// How to (re)establish a reliable link's transport.
pub type Connector = Box<dyn Fn() -> Result<Arc<dyn FrameLink>, TransportError> + Send + Sync>;

enum Flavour {
    InProcess(Arc<WatermarkQueue<Frame>>),
    Tcp { sender: TcpSender, compressor: SelectiveCompressor },
    Custom(Arc<dyn FrameLink>),
}

struct ReliabilitySpec {
    /// `None` derives a constant connector from the static flavour.
    connector: Option<Connector>,
    policy: ReconnectPolicy,
    replay_budget_bytes: usize,
    stats: Arc<RecoveryStats>,
}

/// Builds a [`Link`] by picking one flavour per layer of the stack.
pub struct LinkBuilder {
    id: u64,
    policy: Option<Arc<FlushPolicy>>,
    flavour: Option<Flavour>,
    reliability: Option<ReliabilitySpec>,
    tagger: Option<TraceTagger>,
}

impl LinkBuilder {
    /// Start a stack for the link with wire identity `id`.
    pub fn new(id: u64) -> Self {
        LinkBuilder { id, policy: None, flavour: None, reliability: None, tagger: None }
    }

    /// Use this flush policy (defaults to a 32 KiB bytes-only policy).
    pub fn flush_policy(mut self, policy: Arc<FlushPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Transport flavour: in-process queue handover (zero-copy).
    pub fn in_process(mut self, queue: Arc<WatermarkQueue<Frame>>) -> Self {
        self.flavour = Some(Flavour::InProcess(queue));
        self
    }

    /// Transport flavour: TCP, over a connected sender.
    pub fn tcp(mut self, sender: TcpSender, compressor: SelectiveCompressor) -> Self {
        self.flavour = Some(Flavour::Tcp { sender, compressor });
        self
    }

    /// Transport flavour: any [`FrameLink`] (chaos harness, tests).
    pub fn transport(mut self, transport: Arc<dyn FrameLink>) -> Self {
        self.flavour = Some(Flavour::Custom(transport));
        self
    }

    /// Add the reliability layer over the static transport flavour:
    /// frames are sequenced, retained up to `replay_budget_bytes`, and
    /// replayed over the same transport after a failure.
    pub fn reliable(
        mut self,
        policy: ReconnectPolicy,
        replay_budget_bytes: usize,
        stats: Arc<RecoveryStats>,
    ) -> Self {
        self.reliability =
            Some(ReliabilitySpec { connector: None, policy, replay_budget_bytes, stats });
        self
    }

    /// Add the reliability layer with an explicit connector — recovery
    /// re-establishes the transport through it (fresh sockets, re-read
    /// addresses), rather than reusing the static flavour.
    pub fn reliable_with(
        mut self,
        connector: Connector,
        policy: ReconnectPolicy,
        replay_budget_bytes: usize,
        stats: Arc<RecoveryStats>,
    ) -> Self {
        self.reliability = Some(ReliabilitySpec {
            connector: Some(connector),
            policy,
            replay_budget_bytes,
            stats,
        });
        self
    }

    /// Install the trace-tagging layer.
    pub fn tracing(mut self, tagger: TraceTagger) -> Self {
        self.tagger = Some(tagger);
        self
    }

    /// Assemble the stack.
    ///
    /// Panics when no transport flavour was chosen and reliability has no
    /// explicit connector — the link would have nowhere to send.
    pub fn build(self) -> Arc<Link> {
        let policy = self.policy.unwrap_or_else(|| FlushPolicy::new(DEFAULT_BATCH_BYTES, None));
        let (transport, inproc): (Option<Arc<dyn FrameLink>>, Option<Arc<QueueLink>>) =
            match self.flavour {
                Some(Flavour::InProcess(q)) => {
                    let l = Arc::new(QueueLink::new(q));
                    (Some(l.clone()), Some(l))
                }
                Some(Flavour::Tcp { sender, compressor }) => {
                    (Some(Arc::new(TcpFrameLink::new(sender, compressor))), None)
                }
                Some(Flavour::Custom(t)) => (Some(t), None),
                None => (None, None),
            };
        let delivery = match self.reliability {
            None => Delivery::Direct(transport.expect("link needs a transport flavour")),
            Some(spec) => {
                let connector = spec.connector.unwrap_or_else(|| {
                    let t = transport
                        .clone()
                        .expect("reliable link needs a transport flavour or a connector");
                    Box::new(move || Ok(t.clone()))
                });
                Delivery::Reliable(Arc::new(SupervisedLink::new(
                    self.id,
                    connector,
                    spec.policy,
                    spec.replay_budget_bytes,
                    spec.stats,
                )))
            }
        };
        Arc::new(Link {
            id: self.id,
            delivery,
            policy,
            tagger: RwLock::new(self.tagger),
            stats: LinkStats::default(),
            inproc,
            heartbeat_nonce: AtomicU64::new(0),
        })
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

    fn queue() -> Arc<WatermarkQueue<Frame>> {
        Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)))
    }

    #[test]
    fn bare_in_process_link_delivers_unsequenced_frames() {
        let q = queue();
        let link = LinkBuilder::new(42)
            .flush_policy(FlushPolicy::new(64, None))
            .in_process(q.clone())
            .build();
        let (e, c) = prefixed(&[b"a", b"b"]);
        let wire = link.send_batch(0, e.clone(), c, 0, 0).unwrap();
        assert_eq!(wire, wire_len(e.len()));
        let f = q.pop().unwrap();
        assert_eq!(f.link_id, 42);
        assert_eq!(f.seq, None);
        assert_eq!(f.len(), 2);
        let snap = link.stats_snapshot();
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.wire_bytes, wire as u64);
        assert_eq!(snap.replayed, 0);
        assert_eq!(snap.flush.batch_bytes, 64);
        assert!(link.queue().is_some());
        assert!(!link.is_failed());
    }

    #[test]
    fn reliable_link_sequences_and_acks_trim() {
        let q = queue();
        let link = LinkBuilder::new(7)
            .in_process(q.clone())
            .reliable(ReconnectPolicy::fast(1), 1 << 20, Arc::new(RecoveryStats::new()))
            .build();
        let (e, c) = prefixed(&[b"a", b"b"]);
        link.send_batch(0, e, c, 0, 0).unwrap();
        let (e, c) = prefixed(&[b"c"]);
        link.send_batch(2, e, c, 0, 0).unwrap();
        assert_eq!(q.pop().unwrap().seq, Some(0));
        assert_eq!(q.pop().unwrap().seq, Some(1));
        let sup = link.reliability().expect("reliable");
        assert_eq!(sup.replay().len(), 2);
        link.ack(3);
        assert!(sup.replay().is_empty());
        assert_eq!(link.stats_snapshot().acks, 1);
    }

    #[test]
    fn tagged_links_trace_and_count() {
        let q = queue();
        let link =
            LinkBuilder::new(3).in_process(q.clone()).tracing(TraceTagger::every_n(2)).build();
        let (e, c) = prefixed(&[b"x"]);
        for seq in 0..4u64 {
            link.send_batch(seq, e.clone(), c, 0, 0).unwrap();
        }
        let traces: Vec<Option<u64>> = std::iter::from_fn(|| q.pop()).map(|f| f.trace).collect();
        assert_eq!(traces.iter().filter(|t| t.is_some()).count(), 2, "frames 0 and 2 traced");
        assert_eq!(link.stats_snapshot().traced, 2);
    }

    #[test]
    fn close_wakes_the_destination_and_fails_sends() {
        let q = queue();
        let link = LinkBuilder::new(1).in_process(q.clone()).build();
        link.close();
        let (e, c) = prefixed(&[b"x"]);
        assert_eq!(link.send_batch(0, e, c, 0, 0), Err(TransportError::Closed));
    }

    #[test]
    fn heartbeats_flow_on_bare_links_too() {
        let q = queue();
        let link = LinkBuilder::new(9).in_process(q.clone()).build();
        link.heartbeat().unwrap();
        link.heartbeat().unwrap();
        assert_eq!(q.pop().unwrap().base_seq, 0, "nonces increase");
        assert_eq!(q.pop().unwrap().base_seq, 1);
    }

    #[test]
    fn barriers_arrive_behind_flushed_data_on_both_flavours() {
        for reliable in [false, true] {
            let q = queue();
            let mut b = LinkBuilder::new(5).in_process(q.clone());
            if reliable {
                b = b.reliable(ReconnectPolicy::fast(1), 1 << 20, Arc::new(RecoveryStats::new()));
            }
            let link = b.build();
            let (e, c) = prefixed(&[b"data"]);
            link.send_batch(0, e, c, 0, 0).unwrap();
            link.barrier(17).unwrap();
            let first = q.pop().unwrap();
            assert_eq!(first.control, None, "data flushed before the barrier arrives first");
            let barrier = q.pop().unwrap();
            assert_eq!(barrier.control, Some(ControlKind::Barrier), "reliable={reliable}");
            assert_eq!(barrier.base_seq, 17, "checkpoint id rides base_seq");
            if reliable {
                let sup = link.reliability().unwrap();
                assert_eq!(sup.replay().len(), 1, "barriers are not retained for replay");
            }
        }
    }
}
