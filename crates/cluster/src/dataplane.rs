//! The inter-node data plane: coordinator-injected boundary operators
//! that carry a job's cut edges over the real framed TCP stack.
//!
//! When the coordinator partitions a graph, every edge whose endpoints
//! land on different nodes is *cut*: the upstream node gets a
//! coordinator-injected `__egress` processor appended after the producing
//! operator, and the downstream node gets a `__ingress` source feeding
//! the consuming operator through the edge's **original** partitioning
//! scheme (operator co-location keeps all instances of the consumer on
//! one node, so fields partitioning stays a local decision).
//!
//! A packet is encoded once, by the operator that produced it, and stays
//! encoded until the operator that consumes it: the cut edge moves whole
//! batches and never opens them.
//!
//! * **egress** has no buffer and no codec of its own. The producing
//!   operator's channel to `__egress` is an ordinary in-process channel;
//!   its output buffer and flush timer are the cut edge's one buffer and
//!   one flush policy. Each batch it flushes reaches `__egress` as a
//!   [`FrameMessages`] and goes out as **one frame, by reference**
//!   ([`EgressCore::forward`]): the replay buffer keeps a refcount on the
//!   producer's batch buffer, the TCP writer copies it to the wire once
//!   (with its CRC). The link underneath is [`LinkBuilder`]-assembled — an
//!   every-N [`TraceTagger`] and a [`SupervisedLink`] reliability layer
//!   over a [`TcpSender`] connector; frames are sequenced,
//!   unacked frames sit in the replay buffer, and the connection opens
//!   with a protocol hello;
//! * **ingress** is one [`TcpReceiver::bind_manual_ack`] per node with a
//!   [`HandshakeGate`] and a [`BytesPool`] for frame bodies: a demux pump
//!   classifies each inbound frame against the shared [`ReliableIngress`]
//!   (the one dedup + cumulative-ack implementation), counts trace
//!   ids crossing the process boundary, and pushes the frame — its
//!   messages still one refcounted buffer, plus how many of them a replay
//!   already delivered — onto the edge's byte-weighted route queue, keyed
//!   by the low 32 bits of the link id. One push and one wake per frame:
//!   the route holds the waker of the `__ingress` pump it feeds
//!   ([`OperatorContext::waker`]) and fires it after each routed frame.
//!   `__ingress` pops a frame, hands the fresh messages to the consumer's
//!   channels as they are ([`OperatorContext::emit_encoded`]), flushes
//!   those channels — the frame has already waited out the producer's
//!   flush policy — and returns the buffer to the pool. With the route
//!   empty it answers [`SourceStatus::Pending`] and its pump parks: an
//!   idle cut edge polls nothing and holds no IO thread, which matters
//!   because the consumer's node may run one, shared with a source;
//! * acks are **withheld** until the node is quiescent (local queues
//!   drained, own egress replay buffers empty) in
//!   [`AckMode::Quiescent`] — the upstream replay buffer then covers
//!   everything this node has not finished forwarding, which is what
//!   makes killing a whole node survivable without sink loss.
//!
//! Link ids encode `(epoch << 32) | edge`: the coordinator bumps the
//! epoch when it *re-creates* a producer on a new node after a failure,
//! so the downstream dedup filter sees a fresh identity (a restarted
//! producer restarts its frame sequence at 0; under the old id that
//! would read as a stale duplicate). A plain [`ControlMsg::Rewire`]
//! (consumer moved; producer and its replay buffer survive) keeps the
//! link id and merely repoints the address.
//!
//! [`SupervisedLink`]: neptune_link::SupervisedLink
//! [`ControlMsg::Rewire`]: crate::proto::ControlMsg::Rewire

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use neptune_compress::SelectiveCompressor;
use neptune_core::channel::EmitError;
use neptune_core::descriptor::OperatorRegistry;
use neptune_core::json::JsonValue;
use neptune_core::now_micros;
use neptune_core::operator::{OperatorContext, SourceStatus, StreamProcessor, StreamSource, Waker};
use neptune_core::packet::StreamPacket;
use neptune_granules::{IoPool, Reactor};
pub use neptune_link::AckMode;
use neptune_link::{
    FrameLink, IngressVerdict, Link, LinkBuilder, LinkStatsSnapshot, ReconnectPolicy,
    RecoveryStats, ReliableIngress, ReplayBuffer, TcpFrameLink, TraceTagger,
};
use neptune_net::frame::{encode_hello_frame, FrameMessages, CAPS_ALL};
use neptune_net::pool::BytesPool;
use neptune_net::tcp::{HandshakeGate, TcpReceiver, TcpSender};
use neptune_net::transport::TransportError;
use neptune_net::watermark::{WatermarkConfig, WatermarkQueue, Weighted};
use neptune_net::NetDriver;
use parking_lot::Mutex;

/// Compose a link id from an edge index and its epoch.
pub fn link_id(edge: u32, epoch: u32) -> u64 {
    ((epoch as u64) << 32) | edge as u64
}

/// The edge index a link id routes to (low 32 bits).
pub fn edge_of(link_id: u64) -> u32 {
    link_id as u32
}

/// Counters the node daemon folds into its reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Data frames admitted fresh.
    pub frames_in: u64,
    /// Frames dropped as duplicates (replay artifacts).
    pub dup_frames: u64,
    /// Packets routed to ingress queues.
    pub packets_in: u64,
    /// Inbound frames that carried a trace id — causal traces
    /// observed crossing the process boundary.
    pub traced_in: u64,
    /// Frames sent by egress links.
    pub frames_out: u64,
    /// Packets forwarded out.
    pub packets_out: u64,
    /// Outbound frames stamped with a fresh trace id.
    pub traced_out: u64,
    /// Connections refused by the handshake gate.
    pub handshake_rejects: u64,
}

const INGRESS_QUEUE: WatermarkConfig = WatermarkConfig { high: 8 << 20, low: 1 << 20 };
/// Replay budget of one egress link, bytes of unacked batches.
const REPLAY_BUDGET_BYTES: usize = 64 << 20;
/// In-flight budget between an egress worker and its socket writer. The
/// sender queue counts frames, and a frame is one whole upstream output
/// buffer, so its depth is derived from a byte budget — a quarter of what
/// the replay buffer may hold — at [`NOMINAL_FRAME_BYTES`] a frame.
const SENDER_QUEUE_BYTES: usize = REPLAY_BUDGET_BYTES / 4;
/// `RuntimeConfig::buffer_bytes`' default: what a saturated upstream
/// channel flushes per frame.
const NOMINAL_FRAME_BYTES: usize = 1 << 20;
const SENDER_QUEUE_DEPTH: usize = SENDER_QUEUE_BYTES / NOMINAL_FRAME_BYTES;
// The socket writer must be able to overlap the worker that feeds it.
const _: () = assert!(SENDER_QUEUE_DEPTH >= 2);
/// How often an egress link is probed so that a dead peer is noticed, and
/// the receiver's manual-ack watermark flows back, without data traffic.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// One inbound frame on its way to an `__ingress` source: the messages as
/// they came off the wire (one refcounted buffer) and how many of them a
/// replay had already delivered.
struct RoutedFrame {
    messages: FrameMessages,
    skip: u32,
}

impl Weighted for RoutedFrame {
    fn weight(&self) -> usize {
        self.messages.batch().len()
    }
}

/// One edge's ingress: the frames the demux admitted, and how many of them
/// `__ingress` is done with.
struct IngressRoute {
    queue: WatermarkQueue<RoutedFrame>,
    /// Frames `__ingress` has popped *and* finished emitting. The route is
    /// drained when this catches up with the queue's push count — an empty
    /// queue alone would hide the frame, thousands of packets long, that
    /// `__ingress` is in the middle of handing to the consumer, and the
    /// node would release acks for packets it has not yet taken in.
    emitted: AtomicU64,
    /// The waker of the `__ingress` pump this route feeds, once that pump
    /// has found the route empty. Whoever changes what `__ingress` would
    /// see — a routed frame, a drain, a shutdown — fires it afterwards.
    waker: Mutex<Option<Waker>>,
}

impl IngressRoute {
    fn new() -> Self {
        IngressRoute {
            queue: WatermarkQueue::new(INGRESS_QUEUE),
            emitted: AtomicU64::new(0),
            waker: Mutex::new(None),
        }
    }

    /// Wake the `__ingress` pump, if one is registered.
    fn wake(&self) {
        let waker = self.waker.lock().clone();
        if let Some(waker) = waker {
            waker();
        }
    }

    /// Pairs with the `Release` increment `__ingress` makes *after* a
    /// frame's last message is in the consumer's channel: whoever sees the
    /// counts equal also sees those messages when it goes on to check that
    /// the runtime has settled.
    fn drained(&self) -> bool {
        self.emitted.load(Ordering::Acquire) == self.queue.total_pushed()
    }
}

/// One egress edge: a builder-assembled reliable link and the message
/// sequence it stamps on forwarded batches. Trace stamping lives in the
/// link's every-N [`TraceTagger`]; frame sequencing, replay and reconnects
/// in its reliability layer.
pub struct EgressCore {
    link: Arc<Link>,
    /// Message sequence of the next batch's first message. Held across
    /// the send, so batches leave in the order they were numbered.
    next_msg_seq: Mutex<u64>,
}

impl EgressCore {
    /// Ship one encoded batch as one frame. The batch buffer is shared,
    /// not copied: the replay buffer holds a refcount on it until the
    /// peer acks, and the transport reads it once to put it on the wire.
    pub fn forward(&self, batch: &FrameMessages) -> Result<(), TransportError> {
        let count = batch.len() as u32;
        if count == 0 {
            return Ok(());
        }
        let mut next = self.next_msg_seq.lock();
        let base = *next;
        *next += count as u64;
        self.link.stats().record_packets(count as u64);
        // The link stack stamps every-N trace ids (ingress on the peer
        // counts these — how trace-id propagation across process
        // boundaries is observed in cluster telemetry) and sequences the
        // frame through the replay buffer.
        self.link.send_batch(base, batch.batch().clone(), count, now_micros(), 0).map(|_| ())
    }

    /// The built link stack (reliability, stats).
    pub fn link(&self) -> &Arc<Link> {
        &self.link
    }

    /// True when every sent frame has been acked by the peer.
    pub fn replay_empty(&self) -> bool {
        self.link.reliability().map(|s| s.replay().is_empty()).unwrap_or(true)
    }
}

/// Per-node data-plane endpoint shared by the boundary operators, the
/// demux pump, and the node daemon.
pub struct DataPlane {
    // Both directions run on this one IO tier. `io_pool` must drop before
    // `reactor` so retiring tasks can still deregister their sockets;
    // fields drop in declaration order.
    io_pool: IoPool,
    reactor: Reactor,
    receiver: TcpReceiver,
    /// Frame bodies the receiver reads into; `__ingress` returns them.
    pool: Arc<BytesPool>,
    /// Shared sink-side reliability: dedup + cumulative-ack staging.
    ingress: ReliableIngress,
    routes: Mutex<HashMap<u32, Arc<IngressRoute>>>,
    /// Current downstream address per egress edge (Rewire target).
    edge_addrs: Mutex<HashMap<u32, String>>,
    egress: Mutex<HashMap<u32, Arc<EgressCore>>>,
    /// Shared with every `__ingress` instance.
    ingress_draining: Arc<AtomicBool>,
    /// Shared with every `__ingress` instance.
    shutdown: Arc<AtomicBool>,
    stats: Arc<RecoveryStats>,
    packets_in: AtomicU64,
    traced_in: AtomicU64,
    /// Frames whose delivery to a route queue failed (queue closed or
    /// gate held shut) — their acks are withheld so upstream replays.
    undelivered: AtomicU64,
}

impl DataPlane {
    /// Bind the node's data receiver on `addr` (use port 0 to let the OS
    /// pick) and start the demux pump and heartbeat threads.
    pub fn bind(addr: &str, ack_mode: AckMode) -> std::io::Result<Arc<Self>> {
        let pool = Arc::new(BytesPool::default());
        let io_pool = IoPool::new("neptuned-dp", 2);
        let reactor = Reactor::new("neptuned-dp")
            .map_err(|e| std::io::Error::other(format!("reactor: {e}")))?;
        let receiver = TcpReceiver::bind_manual_ack(
            addr,
            WatermarkConfig::new(32 << 20, 4 << 20),
            Some(HandshakeGate::default()),
            Some(pool.clone()),
            &NetDriver::new(io_pool.spawner(), reactor.handle()),
        )?;
        let plane = Arc::new(DataPlane {
            io_pool,
            reactor,
            receiver,
            pool,
            ingress: ReliableIngress::new(ack_mode),
            routes: Mutex::new(HashMap::new()),
            edge_addrs: Mutex::new(HashMap::new()),
            egress: Mutex::new(HashMap::new()),
            ingress_draining: Arc::new(AtomicBool::new(false)),
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(RecoveryStats::new()),
            packets_in: AtomicU64::new(0),
            traced_in: AtomicU64::new(0),
            undelivered: AtomicU64::new(0),
        });
        let pump = plane.clone();
        std::thread::Builder::new()
            .name("neptuned-demux".into())
            .spawn(move || pump.demux_loop())
            .expect("spawn demux pump");
        let heart = plane.clone();
        std::thread::Builder::new()
            .name("neptuned-flush".into())
            .spawn(move || heart.heartbeat_loop())
            .expect("spawn egress heartbeat");
        Ok(plane)
    }

    /// The bound data-plane address (what `Register` advertises).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.receiver.local_addr()
    }

    /// Recovery counters shared with supervised links.
    pub fn recovery_stats(&self) -> &Arc<RecoveryStats> {
        &self.stats
    }

    fn driver(&self) -> NetDriver {
        NetDriver::new(self.io_pool.spawner(), self.reactor.handle())
    }

    /// Inbound frame demux: classify each data frame against the shared
    /// dedup, count boundary-crossing traces, hand the frame whole to its
    /// edge's route queue, stage the ack.
    fn demux_loop(self: &Arc<Self>) {
        let queue = self.receiver.queue();
        while !self.shutdown.load(Ordering::Acquire) {
            let Some(frame) = queue.pop_timeout(Duration::from_millis(5)) else {
                continue;
            };
            if frame.control.is_some() {
                continue;
            }
            let count = frame.messages.len() as u32;
            let skip = match self.ingress.admit(frame.link_id, frame.base_seq, count) {
                IngressVerdict::Deliver { skip } => skip,
                IngressVerdict::Duplicate => {
                    // Re-ack: the sender may have missed the ack.
                    self.stage_ack(frame.link_id);
                    self.pool.recycle(frame.messages.into_batch());
                    continue;
                }
            };
            if frame.trace.is_some() {
                self.traced_in.fetch_add(1, Ordering::Relaxed);
            }
            let edge = edge_of(frame.link_id);
            // Blocks while the route's gate is shut — the node's ingress
            // backpressure, in bytes; this thread is the demux's own.
            // `Closed` (route gone for good) stays distinct from
            // `Backpressure` in the shared error space.
            let route = self.ingress_route(edge);
            let pushed = route
                .queue
                .push_blocking(RoutedFrame { messages: frame.messages, skip })
                .map_err(TransportError::from_push);
            match pushed {
                Ok(_) => {
                    // One wake per frame, which is thousands of packets.
                    route.wake();
                    self.packets_in.fetch_add((count - skip) as u64, Ordering::Relaxed);
                    self.stage_ack(frame.link_id);
                }
                // Withhold the ack: the upstream replay buffer still holds
                // the frame, so a reopened route (or a restarted node)
                // sees it again instead of losing it.
                Err(e) => {
                    self.undelivered.fetch_add(1, Ordering::Relaxed);
                    if e != TransportError::Closed {
                        eprintln!("neptuned: ingress delivery on edge {edge} failed: {e}");
                    } else if !self.shutdown.load(Ordering::Acquire) {
                        eprintln!("neptuned: ingress route for edge {edge} closed; frame unacked");
                    }
                }
            }
        }
    }

    fn stage_ack(&self, link: u64) {
        if let Some((link, watermark)) = self.ingress.stage_ack(link) {
            self.receiver.send_ack(link, watermark);
        }
    }

    /// Release withheld acks — call only when the local pipeline is
    /// quiescent (ingress queues empty, job settled, egress replays
    /// empty). Returns the number of links acked.
    pub fn release_acks(&self) -> usize {
        let mut sent = 0;
        for (link, watermark) in self.ingress.release_acks() {
            if self.receiver.send_ack(link, watermark) {
                sent += 1;
            }
        }
        sent
    }

    /// True when `__ingress` has emitted every routed frame and every
    /// egress replay buffer is clear — the data-plane half of the
    /// quiescence test.
    pub fn quiescent(&self) -> bool {
        self.routes.lock().values().all(|r| r.drained())
            && self.egress.lock().values().all(|e| e.replay_empty())
    }

    /// Idle heartbeats: egress holds no data of its own to flush, so all
    /// this thread does is probe each link every [`HEARTBEAT_EVERY`].
    fn heartbeat_loop(self: &Arc<Self>) {
        let mut last = Instant::now();
        while !self.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(10));
            if last.elapsed() < HEARTBEAT_EVERY {
                continue;
            }
            last = Instant::now();
            let cores: Vec<Arc<EgressCore>> = self.egress.lock().values().cloned().collect();
            for core in cores {
                let _ = core.link().heartbeat();
            }
        }
    }

    /// Point an egress edge at a (new) downstream address.
    pub fn set_edge_addr(&self, edge: u32, addr: String) {
        self.edge_addrs.lock().insert(edge, addr);
    }

    /// Handle [`ControlMsg::Rewire`]: repoint the edge and force the
    /// supervised link to reconnect by failing its current connection on
    /// the next send/heartbeat (the connector re-reads the address).
    ///
    /// [`ControlMsg::Rewire`]: crate::proto::ControlMsg::Rewire
    pub fn rewire(&self, edge: u32, addr: String) {
        self.set_edge_addr(edge, addr);
        // The reliability layer notices the stale connection on its next
        // send or heartbeat failure and reconnects through the connector,
        // which reads the address table again. Nothing to tear down here:
        // the old socket either errors (peer died) or is simply unused.
    }

    /// Mark ingress sources as draining: they exhaust once their queues
    /// empty instead of idling forever (job teardown path).
    pub fn drain_ingress(&self) {
        self.ingress_draining.store(true, Ordering::Release);
        self.wake_ingress();
    }

    /// Stop pump/heartbeat threads and close the inbound queue.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.receiver.queue().close();
        self.wake_ingress();
    }

    /// A flag every `__ingress` reads has changed: parked ones must look.
    fn wake_ingress(&self) {
        let routes: Vec<Arc<IngressRoute>> = self.routes.lock().values().cloned().collect();
        for route in routes {
            route.wake();
        }
    }

    /// Snapshot of the counters for reports.
    pub fn stats(&self) -> DataPlaneStats {
        let (mut frames_out, mut packets_out, mut traced_out) = (0, 0, 0);
        for core in self.egress.lock().values() {
            let s = core.link().stats();
            frames_out += s.flushes();
            packets_out += s.packets();
            traced_out += s.traced();
        }
        DataPlaneStats {
            frames_in: self.ingress.frames_admitted(),
            dup_frames: self.ingress.duplicates_dropped(),
            packets_in: self.packets_in.load(Ordering::Relaxed),
            traced_in: self.traced_in.load(Ordering::Relaxed),
            frames_out,
            packets_out,
            traced_out,
            handshake_rejects: self.receiver.handshake_rejects(),
        }
    }

    /// Per-egress-link stats bundles, with each link's ingress-side
    /// duplicate drops folded in from the peer classification this plane
    /// performed for that link id. (The bundle's flush knobs are the link
    /// builder's defaults: an egress link buffers nothing.)
    pub fn link_stats(&self) -> Vec<LinkStatsSnapshot> {
        self.egress
            .lock()
            .values()
            .map(|core| {
                let mut snap = core.link().stats_snapshot();
                snap.dedup_drops = self.ingress.dedup_drops(snap.link_id);
                snap
            })
            .collect()
    }

    /// Frames whose route delivery failed and whose acks were withheld.
    pub fn undelivered_frames(&self) -> u64 {
        self.undelivered.load(Ordering::Relaxed)
    }

    /// Build (or rebuild) the egress core for `edge` with a fresh epoch —
    /// called from the `__egress` factory on every (re)assignment.
    fn egress_core(
        self: &Arc<Self>,
        edge: u32,
        epoch: u32,
        addr: String,
        trace_every: u64,
    ) -> Arc<EgressCore> {
        self.set_edge_addr(edge, addr);
        let id = link_id(edge, epoch);
        let plane = self.clone();
        // The ack callback needs the replay buffer, which only exists
        // once the link is built — close over a slot filled right after.
        let replay_slot: Arc<std::sync::OnceLock<Arc<ReplayBuffer>>> =
            Arc::new(std::sync::OnceLock::new());
        let ack_slot = replay_slot.clone();
        let connector = move || {
            let addr = plane
                .edge_addrs
                .lock()
                .get(&edge)
                .cloned()
                .ok_or_else(|| TransportError::Io(format!("no address for edge {edge}")))?;
            let slot = ack_slot.clone();
            let sender = TcpSender::connect_reactor_with_acks(
                addr.as_str(),
                SENDER_QUEUE_DEPTH,
                &plane.driver(),
                move |_link, next_expected| {
                    if let Some(replay) = slot.get() {
                        replay.ack(next_expected);
                    }
                },
            )
            .map_err(|e| TransportError::Io(format!("connect {addr}: {e}")))?;
            // First frame on every data connection: the protocol hello,
            // so the peer's handshake gate admits us.
            sender
                .send(encode_hello_frame(id, CAPS_ALL))
                .map_err(|e| TransportError::Io(format!("hello to {addr}: {e:?}")))?;
            Ok(Arc::new(TcpFrameLink::new(sender, SelectiveCompressor::disabled()))
                as Arc<dyn FrameLink>)
        };
        let mut policy = ReconnectPolicy::new(id);
        policy.max_attempts = 40; // ride out coordinator reassignment windows
        policy.cap = Duration::from_millis(250);
        let link = LinkBuilder::new(id)
            .reliable_with(Box::new(connector), policy, REPLAY_BUDGET_BYTES, self.stats.clone())
            .tracing(TraceTagger::every_n(trace_every))
            .build();
        let _ = replay_slot
            .set(link.reliability().expect("cluster egress links are reliable").replay().clone());
        let core = Arc::new(EgressCore { link, next_msg_seq: Mutex::new(0) });
        self.egress.lock().insert(edge, core.clone());
        core
    }

    fn ingress_route(&self, edge: u32) -> Arc<IngressRoute> {
        self.routes.lock().entry(edge).or_insert_with(|| Arc::new(IngressRoute::new())).clone()
    }

    /// Register the `__ingress` / `__egress` boundary factories on a
    /// registry (composed with the builtin vocabulary by the node daemon).
    ///
    /// Params: `__ingress` takes `{edge}`; `__egress` takes
    /// `{edge, epoch, addr, trace_every?}`.
    pub fn register_boundary_ops(self: &Arc<Self>, registry: &mut OperatorRegistry) {
        let plane = self.clone();
        registry.register_source("__ingress", move |params: &JsonValue| {
            let edge = params.get("edge").and_then(|v| v.as_u64()).unwrap_or(0) as u32;
            IngressSource {
                route: plane.ingress_route(edge),
                pool: plane.pool.clone(),
                edge,
                draining: plane.ingress_draining.clone(),
                shutdown: plane.shutdown.clone(),
            }
        });
        let plane = self.clone();
        registry.register_processor("__egress", move |params: &JsonValue| {
            let edge = params.get("edge").and_then(|v| v.as_u64()).unwrap_or(0) as u32;
            let epoch = params.get("epoch").and_then(|v| v.as_u64()).unwrap_or(0) as u32;
            let addr = params.get("addr").and_then(|v| v.as_str()).unwrap_or_default().to_string();
            let trace_every = params.get("trace_every").and_then(|v| v.as_u64()).unwrap_or(64);
            EgressOp { core: plane.egress_core(edge, epoch, addr, trace_every) }
        });
    }
}

/// Boundary source: feeds frames demuxed off the wire into the local
/// sub-graph, message bytes untouched. It never waits for a frame: with
/// the route empty it leaves its pump's waker with the route and answers
/// [`SourceStatus::Pending`].
struct IngressSource {
    route: Arc<IngressRoute>,
    /// The receiver's frame-body pool; emitted frames go back to it.
    pool: Arc<BytesPool>,
    edge: u32,
    draining: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
}

impl IngressSource {
    /// Emit a frame's fresh suffix and flush it onward, recycle its
    /// buffer. `Err` once the local consumer is gone.
    fn emit_frame(&self, frame: RoutedFrame, ctx: &mut OperatorContext) -> Result<usize, ()> {
        let RoutedFrame { messages, skip } = frame;
        for i in skip as usize..messages.len() {
            match ctx.emit_encoded(messages.prefixed(i)) {
                Ok(()) => {}
                // Only a link that routes by packet content decodes.
                Err(EmitError::Codec(e)) => {
                    eprintln!("neptuned: undecodable packet on edge {}: {e}", self.edge);
                }
                Err(_) => return Err(()),
            }
        }
        // The frame already waited out the producer's flush policy, the
        // one policy of this edge. The consumer's channels only sort its
        // messages by instance: what was flushed together upstream is
        // delivered together here, not held for a second timer. (On the
        // pump's context this does not wait either: a batch the consumer
        // cannot take now stays staged in its channel, and the pump parks
        // on that link before it asks for the next frame.)
        ctx.force_flush_all().map_err(|_| ())?;
        let fresh = messages.len() - skip as usize;
        self.pool.recycle(messages.into_batch());
        Ok(fresh)
    }

    /// The next routed frame, or why there is none.
    fn poll(&self) -> Result<RoutedFrame, SourceStatus> {
        let queue = &self.route.queue;
        if let Some(frame) = queue.pop() {
            return Ok(frame);
        }
        // Flags first, queue second: a frame routed before `draining` was
        // raised is seen by the pop that follows the flag.
        let done = self.shutdown.load(Ordering::Acquire)
            || (self.draining.load(Ordering::Acquire) && queue.is_empty());
        Err(if done { SourceStatus::Exhausted } else { SourceStatus::Pending })
    }
}

impl StreamSource for IngressSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        let frame = match self.poll() {
            Ok(frame) => frame,
            Err(SourceStatus::Pending) => {
                // Register, then look once more: a frame, a drain or a
                // shutdown that came before the registration woke nobody.
                // Once per park, which is at most once per frame.
                *self.route.waker.lock() = Some(ctx.waker());
                match self.poll() {
                    Ok(frame) => frame,
                    Err(status) => return status,
                }
            }
            Err(status) => return status,
        };
        let emitted = self.emit_frame(frame, ctx);
        // Done with the frame either way: a consumer that is gone cannot
        // make the route look busy for ever.
        self.route.emitted.fetch_add(1, Ordering::Release);
        match emitted {
            Ok(fresh) => SourceStatus::Emitted(fresh),
            Err(()) => SourceStatus::Exhausted,
        }
    }
}

/// Boundary processor: ships the producer's batches to the downstream
/// node as they are.
struct EgressOp {
    core: Arc<EgressCore>,
}

impl StreamProcessor for EgressOp {
    fn process_encoded(&mut self, batch: &FrameMessages, _ctx: &mut OperatorContext) -> bool {
        if let Err(e) = self.core.forward(batch) {
            eprintln!("neptuned: egress send failed terminally: {e:?}");
        }
        true
    }

    fn process(&mut self, _packet: &StreamPacket, _ctx: &mut OperatorContext) {
        unreachable!("__egress claims every frame in process_encoded");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_core::codec::PacketCodec;
    use neptune_core::packet::FieldValue;
    use neptune_net::frame::{ControlKind, PROTOCOL_VERSION};
    use neptune_net::test_support::{wait_for, with_protocol_version};

    /// The batch an upstream channel would flush: one encoded `uid`
    /// packet per entry of `uids`.
    fn batch(uids: std::ops::Range<u64>) -> FrameMessages {
        let mut codec = PacketCodec::new();
        let encoded: Vec<Vec<u8>> = uids
            .map(|uid| {
                let mut p = StreamPacket::new();
                p.push_field("uid", FieldValue::U64(uid));
                codec.encode(&p).unwrap()
            })
            .collect();
        FrameMessages::from_messages(&encoded)
    }

    fn uids(frame: &RoutedFrame) -> Vec<u64> {
        let mut codec = PacketCodec::new();
        (frame.skip as usize..frame.messages.len())
            .map(|i| {
                let p = codec.decode(&frame.messages[i]).unwrap();
                p.get("uid").unwrap().as_u64().unwrap()
            })
            .collect()
    }

    /// Poll up to five seconds; the message names what never happened.
    fn wait_until(what: &str, cond: impl FnMut() -> bool) {
        assert!(wait_for(Duration::from_secs(5), cond), "timed out waiting until {what}");
    }

    #[test]
    fn link_id_packs_edge_and_epoch() {
        assert_eq!(link_id(7, 0), 7);
        assert_eq!(link_id(7, 3), (3u64 << 32) | 7);
        assert_eq!(edge_of(link_id(9, 1234)), 9);
    }

    #[test]
    fn planes_ship_batches_end_to_end_with_quiescent_acks() {
        let up = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).unwrap();
        let down = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).unwrap();
        let core = up.egress_core(3, 0, down.local_addr().to_string(), 2);
        let sent = [batch(0..4), batch(4..8), batch(8..10)];
        for b in &sent {
            core.forward(b).unwrap();
        }
        let route = down.ingress_route(3);
        let mut got = Vec::new();
        for b in &sent {
            let frame =
                route.queue.pop_timeout(Duration::from_secs(5)).expect("one frame per batch");
            assert_eq!(frame.skip, 0);
            assert_eq!(&frame.messages, b, "a batch crosses as one frame, bytes untouched");
            got.extend(uids(&frame));
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "in order, zero loss");
        // The egress side shares the producer's buffer instead of copying it.
        let replay = core.link().reliability().unwrap().replay().unacked();
        assert_eq!(replay.len(), 3);
        assert_eq!(replay[0].encoded.as_ptr(), sent[0].batch().as_ptr(), "held by refcount");
        // Quiescent mode: acks withheld, replay retains the frames.
        assert!(!core.replay_empty(), "no acks released yet");
        assert!(down.release_acks() > 0);
        wait_until("the released ack empties the replay buffer", || core.replay_empty());
        // Trace sampling crossed the boundary.
        wait_until("a traced frame is counted", || down.stats().traced_in > 0);
        let dstats = down.stats();
        let ustats = up.stats();
        assert!(ustats.traced_out >= 1, "egress samples trace ids");
        assert_eq!(dstats.traced_in, ustats.traced_out, "the trace id survives the hop");
        assert_eq!((dstats.frames_in, dstats.packets_in), (3, 10));
        assert_eq!((ustats.frames_out, ustats.packets_out), (3, 10));
        assert_eq!(dstats.handshake_rejects, 0, "hello admitted by the gate");
        let links = up.link_stats();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].link_id, link_id(3, 0));
        assert_eq!((links[0].flushes, links[0].packets), (3, 10));
        up.shutdown();
        down.shutdown();
    }

    #[test]
    fn a_peer_of_another_protocol_version_is_turned_away_and_counted() {
        use std::io::{Read, Write};
        let plane = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        let mut stranger = std::net::TcpStream::connect(plane.local_addr()).unwrap();
        let hello = with_protocol_version(
            encode_hello_frame(link_id(1, 0), CAPS_ALL),
            PROTOCOL_VERSION + 1,
        );
        stranger.write_all(&hello).unwrap();
        wait_until("the gate counts the reject", || plane.stats().handshake_rejects == 1);
        // The plane answers with its own hello, then ends the connection.
        stranger.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut answer = Vec::new();
        stranger.read_to_end(&mut answer).expect("the connection ends");
        // This build's decoder takes it, so its header names our version.
        let hello = neptune_net::frame::decode_frame(&answer).expect("the plane's hello").0;
        assert_eq!(hello.control, Some(ControlKind::Hello));
        plane.shutdown();
    }

    #[test]
    fn duplicate_frames_are_dropped_by_the_demux() {
        let down = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        let up = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        let core = up.egress_core(1, 0, down.local_addr().to_string(), 0);
        core.forward(&batch(1..2)).unwrap();
        // Replay the identical frame by hand: a fresh core on the SAME
        // link identity (epoch unchanged) restarts its frame seq and its
        // base_seq at 0, so the demux sees a duplicate.
        let core2 = up.egress_core(1, 0, down.local_addr().to_string(), 0);
        core2.forward(&batch(1..2)).unwrap();
        wait_until("the duplicate is counted", || down.stats().dup_frames == 1);
        assert_eq!(down.stats().packets_in, 1, "duplicate packet not delivered");
        // A fresh epoch is a fresh identity: same payload now admitted.
        let core3 = up.egress_core(1, 1, down.local_addr().to_string(), 0);
        core3.forward(&batch(1..2)).unwrap();
        wait_until("the epoch bump re-admits the restarted producer", || {
            down.stats().packets_in == 2
        });
        up.shutdown();
        down.shutdown();
    }

    #[test]
    fn a_replayed_frame_overlapping_the_cursor_delivers_only_its_fresh_suffix() {
        let down = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        let up = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        let mut ingress = IngressSource {
            route: down.ingress_route(4),
            pool: down.pool.clone(),
            edge: 4,
            draining: down.ingress_draining.clone(),
            shutdown: down.shutdown.clone(),
        };
        let mut ctx = OperatorContext::collector("__ingress_4");
        let emitted_uids = |ctx: &mut OperatorContext| -> Vec<u64> {
            ctx.take_collected()
                .iter()
                .map(|(_, p)| p.get("uid").unwrap().as_u64().unwrap())
                .collect()
        };

        let core = up.egress_core(4, 0, down.local_addr().to_string(), 0);
        core.forward(&batch(0..3)).unwrap();
        wait_until("the first frame is routed", || down.stats().packets_in == 3);
        assert!(!down.quiescent(), "a routed frame counts until `__ingress` has emitted it");
        assert_eq!(ingress.next(&mut ctx), SourceStatus::Emitted(3));
        assert!(down.quiescent());
        assert_eq!(emitted_uids(&mut ctx), vec![0, 1, 2]);
        // Same link identity, message sequence restarted at 0: a five-
        // message frame now overlaps the dedup cursor (3) by three.
        let replayer = up.egress_core(4, 0, down.local_addr().to_string(), 0);
        replayer.forward(&batch(0..5)).unwrap();
        wait_until("the overlapping frame is routed", || down.stats().packets_in == 5);
        assert_eq!(ingress.next(&mut ctx), SourceStatus::Emitted(2), "fresh suffix only");
        assert_eq!(emitted_uids(&mut ctx), vec![3, 4]);
        let stats = down.stats();
        assert_eq!((stats.frames_in, stats.dup_frames, stats.packets_in), (2, 0, 5));
        // Both frames' buffers went back to the receiver's pool.
        assert_eq!(down.pool.stats().returns, 2);
        up.shutdown();
        down.shutdown();
        assert_eq!(ingress.next(&mut ctx), SourceStatus::Exhausted);
    }

    /// `__ingress` behind a meter: how often its pump called it, and the
    /// longest an empty-handed call kept the IO thread.
    struct MeteredIngress {
        inner: IngressSource,
        polls: Arc<AtomicU64>,
        longest_empty_call_us: Arc<AtomicU64>,
    }

    impl StreamSource for MeteredIngress {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            self.polls.fetch_add(1, Ordering::Relaxed);
            let t = Instant::now();
            let status = self.inner.next(ctx);
            if !matches!(status, SourceStatus::Emitted(_)) {
                let us = t.elapsed().as_micros() as u64;
                self.longest_empty_call_us.fetch_max(us, Ordering::Relaxed);
            }
            status
        }
    }

    /// Shares the job's IO thread with `__ingress`: never idle, never done
    /// until told, counts how often it got the thread.
    struct Ticker {
        ticks: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
    }

    impl StreamSource for Ticker {
        fn next(&mut self, _ctx: &mut OperatorContext) -> SourceStatus {
            if self.stop.load(Ordering::Acquire) {
                return SourceStatus::Exhausted;
            }
            self.ticks.fetch_add(1, Ordering::Relaxed);
            SourceStatus::Emitted(0)
        }
    }

    struct CountSink(Arc<AtomicU64>);

    impl StreamProcessor for CountSink {
        fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A one-IO-thread job: a metered `__ingress` on `edge` of `plane`, and
    /// optionally a ticker beside it, both feeding a counting sink.
    struct IngressRig {
        job: neptune_core::runtime::JobHandle,
        polls: Arc<AtomicU64>,
        longest_empty_call_us: Arc<AtomicU64>,
        ticks: Arc<AtomicU64>,
        stop_ticker: Arc<AtomicBool>,
        delivered: Arc<AtomicU64>,
    }

    fn ingress_rig(plane: &Arc<DataPlane>, edge: u32, with_ticker: bool) -> IngressRig {
        use neptune_core::prelude::*;
        let polls = Arc::new(AtomicU64::new(0));
        let longest = Arc::new(AtomicU64::new(0));
        let ticks = Arc::new(AtomicU64::new(0));
        let stop_ticker = Arc::new(AtomicBool::new(false));
        let delivered = Arc::new(AtomicU64::new(0));
        let (pl, po, lo) = (plane.clone(), polls.clone(), longest.clone());
        let d = delivered.clone();
        let mut graph = GraphBuilder::new(format!("ingress-rig-{edge}"))
            .source("ingress", move || MeteredIngress {
                inner: IngressSource {
                    route: pl.ingress_route(edge),
                    pool: pl.pool.clone(),
                    edge,
                    draining: pl.ingress_draining.clone(),
                    shutdown: pl.shutdown.clone(),
                },
                polls: po.clone(),
                longest_empty_call_us: lo.clone(),
            })
            .processor("sink", move || CountSink(d.clone()))
            .link("ingress", "sink", PartitioningScheme::Shuffle);
        if with_ticker {
            let (t, st) = (ticks.clone(), stop_ticker.clone());
            graph = graph
                .source("ticker", move || Ticker { ticks: t.clone(), stop: st.clone() })
                .link("ticker", "sink", PartitioningScheme::Shuffle);
        }
        let config = RuntimeConfig { io_threads: Some(1), ..RuntimeConfig::default() };
        let job = LocalRuntime::new(config).submit(graph.build().unwrap()).unwrap();
        IngressRig { job, polls, longest_empty_call_us: longest, ticks, stop_ticker, delivered }
    }

    #[test]
    fn an_idle_ingress_holds_no_io_thread_and_a_routed_frame_wakes_it() {
        let down = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        let up = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        let rig = ingress_rig(&down, 6, true);
        // Let `__ingress` find its route empty, then watch 100 ms of that.
        wait_until("the ingress pump has polled", || rig.polls.load(Ordering::Relaxed) > 0);
        std::thread::sleep(Duration::from_millis(20));
        let (polls_before, ticks_before) =
            (rig.polls.load(Ordering::Relaxed), rig.ticks.load(Ordering::Relaxed));
        std::thread::sleep(Duration::from_millis(100));
        let idle_polls = rig.polls.load(Ordering::Relaxed) - polls_before;
        let ticks = rig.ticks.load(Ordering::Relaxed) - ticks_before;
        // Parked on the route's waker: not one poll, where a 2 ms wait
        // plus back-off made about ten — each holding the only IO thread.
        assert_eq!(idle_polls, 0, "an empty route must cost its pump nothing");
        assert!(ticks > 1_000, "the other source had the thread to itself: {ticks} calls");
        let longest = rig.longest_empty_call_us.load(Ordering::Relaxed);
        assert!(longest < 2_000, "an empty-handed `next()` kept the IO thread {longest} µs");

        // A frame routed while the pump is parked: no back-off stands
        // between it and the sink, only the wake.
        let core = up.egress_core(6, 0, down.local_addr().to_string(), 0);
        core.forward(&batch(0..50)).unwrap();
        wait_until("the routed frame reaches the sink", || {
            rig.delivered.load(Ordering::Relaxed) == 50
        });
        let woken_polls = rig.polls.load(Ordering::Relaxed) - polls_before;
        assert!((1..=3).contains(&woken_polls), "one wake, one frame: {woken_polls} polls");

        rig.stop_ticker.store(true, Ordering::Release);
        down.drain_ingress();
        assert!(rig.job.await_sources(Duration::from_secs(5)));
        rig.job.stop();
        up.shutdown();
        down.shutdown();
    }

    #[test]
    fn drain_and_shutdown_end_a_parked_ingress() {
        for by_shutdown in [false, true] {
            let plane = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
            let rig = ingress_rig(&plane, 8, false);
            wait_until("the ingress pump has polled", || rig.polls.load(Ordering::Relaxed) > 0);
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(rig.job.active_sources(), 1, "parked, not finished");
            if by_shutdown {
                plane.shutdown();
            } else {
                plane.drain_ingress();
            }
            assert!(
                rig.job.await_sources(Duration::from_secs(5)),
                "a parked `__ingress` must be woken to see the flag (shutdown: {by_shutdown})"
            );
            rig.job.stop();
            plane.shutdown();
        }
    }

    #[test]
    fn closed_route_withholds_acks_instead_of_losing_frames() {
        let up = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        let down = DataPlane::bind("127.0.0.1:0", AckMode::Immediate).unwrap();
        // Close the route's queue before any traffic: deliveries must
        // surface `Closed` (not a swallowed generic error) and the frame
        // stays unacked in the upstream replay buffer.
        down.ingress_route(9).queue.close();
        let core = up.egress_core(9, 0, down.local_addr().to_string(), 0);
        core.forward(&batch(7..9)).unwrap();
        wait_until("the closed route is detected", || down.undelivered_frames() == 1);
        assert_eq!(down.stats().packets_in, 0, "nothing delivered");
        std::thread::sleep(Duration::from_millis(50));
        assert!(!core.replay_empty(), "unacked frame retained for replay");
        assert_eq!(core.link().reliability().unwrap().replay().len(), 1, "the whole frame");
        up.shutdown();
        down.shutdown();
    }
}
