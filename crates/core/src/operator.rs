//! Stream operators: sources and processors (§III-A2/A3 of the paper).
//!
//! *"Stream sources are used to ingest external data streams into a stream
//! processing graph and emit stream packets to the next stage ... Domain
//! specific processing logic to process a stream packet is encapsulated
//! within a stream processor."*
//!
//! Users implement [`StreamSource`] or [`StreamProcessor`]; the runtime
//! supplies an [`OperatorContext`] carrying the instance's identity and the
//! emit API. *"Users need to provide processing logic for a single packet
//! while NEPTUNE transparently manages batched execution"* (§III-B2) — so
//! `process` sees one packet at a time even though the runtime schedules
//! whole batches.

use crate::channel::{ChannelEndpoint, EmitError};
use crate::codec::PacketCodec;
use crate::packet::StreamPacket;
use crate::partition::{Partitioner, PartitioningScheme, Route};
use neptune_net::frame::FrameMessages;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What a source's `next` call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// Emitted this many packets; call again.
    Emitted(usize),
    /// No data available right now and nobody to say when there will be:
    /// the pump polls again after a back-off (0.2 ms, doubling to 20 ms
    /// while the source stays idle).
    Idle,
    /// No data available right now, and whoever feeds this source holds
    /// its pump's waker ([`OperatorContext::waker`]) and will fire it when
    /// there is: the pump parks until then and polls nothing. From a
    /// source that never took the waker this means [`Idle`](Self::Idle).
    Pending,
    /// The source is done; its pump finishes and is not polled again.
    Exhausted,
}

/// A task's waker: call it, from any thread, to have the task run again.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// Ingests an external stream and emits packets into the graph.
///
/// Each instance is driven by a *pump*: a cooperatively scheduled task on
/// the job's IO pool, sharing a few IO threads with every other pump,
/// flush deadline and socket of the job. The pump calls `next` for a
/// bounded stint (a packet budget and a time budget), yields, and is
/// called again, until `next` returns [`SourceStatus::Exhausted`] or the
/// job stops — so `next` should return promptly and must not sleep or
/// block: every other task on that thread waits with it.
///
/// The pump batches what `next` emits only while the source keeps it busy,
/// every call answered at once; a stint that ends any other way — the
/// source answered `Idle` or `Pending`, or its calls used up the stint's
/// 1 ms time budget — flushes its buffers. A source that does sleep in
/// `next` therefore costs its packets at most one stint of latency, not a
/// flush interval.
///
/// Backpressure reaches a source by not calling it (Fig. 4 of the paper):
/// the pump asks every outgoing link whether it can take a batch before
/// each `next`, and parks until the link says so when one cannot. Emits
/// inside `next` therefore never wait; a batch flushed past a link that
/// just filled is kept by its channel and goes first afterwards. A job
/// that sets `ContainmentConfig::max_stall` stops holding a source back
/// once backpressure has lasted that long: the pump calls `next` again,
/// and what it emits is dropped, unencoded, until every link admits.
///
/// A source with nothing to emit has two answers. [`SourceStatus::Idle`]
/// makes the pump poll it again after a back-off. A source that is *fed*
/// — by a queue, a socket, another thread — should instead hand its
/// feeder the pump's waker and answer [`SourceStatus::Pending`]:
///
/// 1. take [`OperatorContext::waker`] and register it with the feeder,
/// 2. **then check for data once more** — what arrived before the
///    registration woke nobody,
/// 3. return `Pending` only if there is still none.
///
/// The feeder fires the waker after making data visible. A wake that
/// lands while `next` is still running is not lost: the pump runs again.
pub trait StreamSource: Send {
    /// Called once before the first `next`.
    fn open(&mut self, _ctx: &mut OperatorContext) {}
    /// Produce zero or more packets via [`OperatorContext::emit`].
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus;
    /// Called once after the last `next`.
    fn close(&mut self, _ctx: &mut OperatorContext) {}
    /// The source's checkpointable state, if it holds any (read cursors,
    /// replay offsets). Stateful sources return `Some`; the checkpoint
    /// subsystem snapshots it when a barrier is injected and restores it
    /// before `open` on recovery. The default `None` means stateless —
    /// checkpoints skip the source entirely.
    fn state(&mut self) -> Option<&mut dyn crate::state::OperatorState> {
        None
    }
}

/// Processes packets from incoming streams, optionally emitting packets on
/// outgoing streams.
///
/// Each instance is a task on its resource's pool, run when inbound frames
/// arrive; what it emits leaves once it has run out of inbound frames, or
/// in a longer drain once it has waited a flush interval. Backpressure reaches it the way it reaches a source:
/// emits never wait — a batch an outgoing link cannot take now is kept by
/// its channel — and the task takes no further inbound frame until every
/// link has taken what the last one produced. Until then it is parked, and
/// the link's space listener wakes it.
pub trait StreamProcessor: Send {
    /// Called once, when the job is deployed, before the first `process`;
    /// what it emits leaves at once.
    fn open(&mut self, _ctx: &mut OperatorContext) {}
    /// Handle one packet. The runtime batches invocations transparently.
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext);
    /// Offered each inbound frame's still-encoded messages before any is
    /// decoded. Return `true` to claim the whole batch — the runtime then
    /// skips the per-packet loop for this frame and counts its messages as
    /// `packets_in`. The default `false` leaves every frame to
    /// [`process`](Self::process). For operators that only move packets
    /// (a cut edge's shipper): pair it with
    /// [`OperatorContext::emit_encoded`] or hand `batch.batch()` on by
    /// refcount, and no packet is ever materialised.
    fn process_encoded(&mut self, _batch: &FrameMessages, _ctx: &mut OperatorContext) -> bool {
        false
    }
    /// Could this processor take an inbound frame now? Asked before each
    /// one. Only a processor whose output bypasses its context's links (a
    /// cut edge's shipper) needs to answer: on `false` the frame stays
    /// queued and the task parks until the [`waker`](OperatorContext::waker)
    /// fires — register it, then ask once more, as for `Pending`.
    fn admits(&mut self, _ctx: &mut OperatorContext) -> bool {
        true
    }
    /// Called once when the instance shuts down.
    fn close(&mut self, _ctx: &mut OperatorContext) {}
    /// The processor's checkpointable state, if it holds any (window
    /// aggregators, a [`crate::state::KeyedState`] map). Snapshotted at
    /// barrier alignment, restored before `open` on recovery; `None`
    /// (the default) marks the operator stateless.
    fn state(&mut self) -> Option<&mut dyn crate::state::OperatorState> {
        None
    }
}

/// One outgoing link as seen by an emitting instance.
pub struct OutgoingLink {
    /// Downstream operator name (the link selector for `emit_to`).
    pub dst_operator: String,
    /// Router across the destination's instances.
    pub partitioner: Partitioner,
    /// One endpoint per destination instance.
    pub endpoints: Vec<ChannelEndpoint>,
}

impl OutgoingLink {
    /// Build the sending side of a link for one source instance.
    pub fn new(
        dst_operator: impl Into<String>,
        scheme: &PartitioningScheme,
        endpoints: Vec<ChannelEndpoint>,
    ) -> Self {
        OutgoingLink {
            dst_operator: dst_operator.into(),
            partitioner: Partitioner::new(scheme),
            endpoints,
        }
    }
}

enum ContextSink {
    /// Real runtime: emit through channels.
    Channels {
        links: Vec<OutgoingLink>,
        codec: PacketCodec,
        scratch: Vec<u8>,
        /// Decode target of [`OperatorContext::emit_encoded`] when a
        /// link's scheme routes by packet content.
        workhorse: StreamPacket,
        counters: Arc<crate::metrics::OperatorCounters>,
    },
    /// Test harness: capture `(link, packet)` pairs in memory.
    Collector(Vec<(Option<String>, StreamPacket)>),
}

/// Append one length-prefixed message to the endpoint(s) `route` picks on
/// every link (or only the link toward `only`), raising `staged` when a
/// push left work staged in its channel. Returns how many endpoints took
/// it.
fn push_to_links(
    links: &mut [OutgoingLink],
    only: Option<&str>,
    prefixed: &[u8],
    staged: &mut bool,
    mut route: impl FnMut(&mut Partitioner, usize) -> Result<Route, EmitError>,
) -> Result<u64, EmitError> {
    let mut delivered = 0u64;
    for link in links.iter_mut() {
        if only.is_some_and(|name| link.dst_operator != name) {
            continue;
        }
        match route(&mut link.partitioner, link.endpoints.len())? {
            Route::One(i) => {
                *staged |= link.endpoints[i].push(prefixed)?;
                delivered += 1;
            }
            Route::All => {
                for ep in &mut link.endpoints {
                    *staged |= ep.push(prefixed)?;
                    delivered += 1;
                }
            }
        }
    }
    Ok(delivered)
}

/// Execution context handed to operators: identity plus the emit API.
pub struct OperatorContext {
    operator: String,
    instance: usize,
    instances: usize,
    sink: ContextSink,
    emitted: u64,
    /// Per-instance packet pool (§III-B3): operators that build new
    /// packets check them out here instead of allocating per message.
    pool: crate::pool::PacketPool,
    /// The waker of the task driving this context.
    task_waker: Option<Waker>,
    /// The operator asked for the waker: its `Pending` can be believed.
    waker_taken: bool,
    /// An emit, flush or barrier through this context left work staged in
    /// a channel: the driving task must not produce more until
    /// [`hand_over_staged`](Self::hand_over_staged) clears it.
    staged: bool,
    /// Packets dropped unencoded since the driving task set this context
    /// to shed; `None` while it emits.
    shed: Option<u64>,
}

impl OperatorContext {
    /// Runtime constructor: a context that emits over real channels.
    pub fn for_channels(
        operator: impl Into<String>,
        instance: usize,
        instances: usize,
        links: Vec<OutgoingLink>,
        counters: Arc<crate::metrics::OperatorCounters>,
    ) -> Self {
        OperatorContext {
            operator: operator.into(),
            instance,
            instances,
            sink: ContextSink::Channels {
                links,
                codec: PacketCodec::new(),
                scratch: Vec::with_capacity(512),
                workhorse: StreamPacket::new(),
                counters,
            },
            emitted: 0,
            pool: crate::pool::PacketPool::for_batch(64),
            task_waker: None,
            waker_taken: false,
            staged: false,
            shed: None,
        }
    }

    /// Test constructor: a context that records emitted packets in memory.
    /// Use [`take_collected`](Self::take_collected) to inspect them.
    pub fn collector(operator: impl Into<String>) -> Self {
        OperatorContext {
            operator: operator.into(),
            instance: 0,
            instances: 1,
            sink: ContextSink::Collector(Vec::new()),
            emitted: 0,
            pool: crate::pool::PacketPool::for_batch(8),
            task_waker: None,
            waker_taken: false,
            staged: false,
            shed: None,
        }
    }

    /// Hand this context the waker of the task driving it.
    pub(crate) fn set_task_waker(&mut self, waker: Waker) {
        self.task_waker = Some(waker);
    }

    /// The waker of the task driving this operator: fire it, from any
    /// thread, and the task runs again. A source hands it to whoever feeds
    /// it — see [`StreamSource`] for the register-then-re-check rule that
    /// goes with [`SourceStatus::Pending`]; a processor to whatever its
    /// [`admits`](StreamProcessor::admits) waits on. On a test collector it
    /// wakes nothing.
    pub fn waker(&mut self) -> Waker {
        match &self.task_waker {
            Some(waker) => {
                self.waker_taken = true;
                waker.clone()
            }
            None => Arc::new(|| {}),
        }
    }

    /// True once the operator took a live waker.
    pub(crate) fn waker_taken(&self) -> bool {
        self.waker_taken
    }

    /// For the driving task, before it produces more: offer the links
    /// whatever earlier emits left staged. `true` when every channel is
    /// clear (the common case costs one field read); on `false` a link
    /// still refuses, and its space listener says when to ask again.
    pub(crate) fn hand_over_staged(&mut self) -> bool {
        if self.staged {
            // Every endpoint is offered: one that still refuses must not
            // keep those behind it waiting for its space signal.
            let mut refused = false;
            for ep in endpoints_mut(&mut self.sink) {
                refused |= ep.retry_staged().unwrap_or(false);
            }
            self.staged = refused;
        }
        !self.staged
    }

    /// For the driving task that backpressure has held back past its
    /// stall budget: from now on every emit counts its packet and drops
    /// it, unencoded. Barriers still go out.
    pub(crate) fn shed(&mut self) {
        self.shed.get_or_insert(0);
    }

    /// End shedding: the packets dropped since [`shed`](Self::shed), or
    /// `None` if the context was not shedding.
    pub(crate) fn stop_shedding(&mut self) -> Option<u64> {
        self.shed.take()
    }

    /// Count and drop one packet, if this context is shedding.
    #[inline]
    fn shed_one(&mut self) -> bool {
        match &mut self.shed {
            Some(dropped) => {
                *dropped += 1;
                true
            }
            None => false,
        }
    }

    /// The operator's name.
    pub fn operator(&self) -> &str {
        &self.operator
    }

    /// This instance's index in `0..instances`.
    pub fn instance(&self) -> usize {
        self.instance
    }

    /// Total parallel instances of this operator.
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// Packets emitted through this context so far.
    pub fn packets_emitted(&self) -> u64 {
        self.emitted
    }

    /// Check out a cleared packet from the instance's pool — the
    /// allocation-free way for an operator to build an output packet
    /// (§III-B3). Return it with [`checkin_packet`](Self::checkin_packet)
    /// after emitting.
    pub fn checkout_packet(&mut self) -> StreamPacket {
        self.pool.checkout()
    }

    /// Return a packet to the pool for reuse (its field storage survives).
    pub fn checkin_packet(&mut self, packet: StreamPacket) {
        self.pool.checkin(packet);
    }

    /// Pool effectiveness counters for this instance.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Emit a packet over **all** outgoing links (§III-A3: an operator
    /// emits over one or more outgoing streams). A source that is
    /// shedding (`ContainmentConfig::max_stall`) drops the packet here,
    /// before encoding it, and is told `Ok`; so do `emit_to` and
    /// `emit_encoded`.
    pub fn emit(&mut self, packet: &StreamPacket) -> Result<(), EmitError> {
        self.emit_inner(packet, None)
    }

    /// Emit a packet over the link toward one named downstream operator
    /// (§III-A4: *"users can configure the link to use when emitting
    /// packets"*).
    pub fn emit_to(&mut self, dst_operator: &str, packet: &StreamPacket) -> Result<(), EmitError> {
        self.emit_inner(packet, Some(dst_operator))
    }

    fn emit_inner(&mut self, packet: &StreamPacket, only: Option<&str>) -> Result<(), EmitError> {
        if self.shed_one() {
            return Ok(());
        }
        match &mut self.sink {
            ContextSink::Collector(collected) => {
                collected.push((only.map(str::to_string), packet.clone()));
                self.emitted += 1;
                Ok(())
            }
            ContextSink::Channels { links, codec, scratch, counters, .. } => {
                if let Some(name) = only {
                    if !links.iter().any(|l| l.dst_operator == name) {
                        return Err(EmitError::Transport(format!(
                            "no outgoing link toward operator '{name}'"
                        )));
                    }
                }
                // Serialize once — including the batch length prefix — and
                // reuse the same bytes for every destination (object reuse:
                // one codec, one scratch buffer per instance; a broadcast
                // or multi-link emit never re-encodes the packet).
                scratch.clear();
                scratch.extend_from_slice(&[0u8; 4]); // length backfilled below
                codec.encode_into(packet, scratch).map_err(|e| EmitError::Codec(e.to_string()))?;
                let body_len = (scratch.len() - 4) as u32;
                scratch[..4].copy_from_slice(&body_len.to_le_bytes());
                let delivered =
                    push_to_links(links, only, scratch, &mut self.staged, |part, n| {
                        Ok(part.route(packet, n))
                    })?;
                self.emitted += delivered;
                counters.packets_out.fetch_add(delivered, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Emit one already-encoded message — `[len u32 LE | bytes]`, as
    /// [`FrameMessages::prefixed`] yields it — over **all** outgoing
    /// links, without re-encoding it. Shuffle, Global and Broadcast links
    /// route without a packet; Fields and Custom links decode the message
    /// into a context-owned workhorse, once, only to route it. Either way
    /// the original bytes are what every destination receives. Counts
    /// toward `packets_out` like [`emit`](Self::emit).
    pub fn emit_encoded(&mut self, prefixed: &[u8]) -> Result<(), EmitError> {
        if self.shed_one() {
            return Ok(());
        }
        let framed = prefixed.len() >= 4
            && u32::from_le_bytes(prefixed[..4].try_into().expect("slice len")) as usize
                == prefixed.len() - 4;
        if !framed {
            return Err(EmitError::Codec(
                "emit_encoded expects a [len u32 LE | bytes] message".into(),
            ));
        }
        match &mut self.sink {
            ContextSink::Collector(collected) => {
                let packet = PacketCodec::new()
                    .decode(&prefixed[4..])
                    .map_err(|e| EmitError::Codec(e.to_string()))?;
                collected.push((None, packet));
                self.emitted += 1;
                Ok(())
            }
            ContextSink::Channels { links, codec, workhorse, counters, .. } => {
                let mut decoded = false;
                let delivered =
                    push_to_links(links, None, prefixed, &mut self.staged, |part, n| {
                        if let Some(route) = part.route_keyless(n) {
                            return Ok(route);
                        }
                        if !decoded {
                            codec
                                .decode_into(&prefixed[4..], workhorse)
                                .map_err(|e| EmitError::Codec(e.to_string()))?;
                            decoded = true;
                        }
                        Ok(part.route(workhorse, n))
                    })?;
                self.emitted += delivered;
                counters.packets_out.fetch_add(delivered, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Collector mode: drain the captured `(link, packet)` pairs.
    ///
    /// Panics when called on a channel-backed context.
    pub fn take_collected(&mut self) -> Vec<(Option<String>, StreamPacket)> {
        match &mut self.sink {
            ContextSink::Collector(v) => std::mem::take(v),
            _ => panic!("take_collected on a channel-backed context"),
        }
    }

    /// Flush every outgoing buffer now, full or not. Never waits: a batch
    /// a link cannot take now stays with its channel and goes first
    /// afterwards. An endpoint with nothing buffered costs one atomic load.
    pub fn force_flush_all(&mut self) -> Result<(), EmitError> {
        for ep in endpoints_mut(&mut self.sink) {
            self.staged |= ep.force_flush()?;
        }
        Ok(())
    }

    /// For the task that fills this context's buffers, which serves their
    /// flush timers: flush every buffer whose oldest message has waited out
    /// its flush interval as of `now`, and return the earliest deadline
    /// still ahead. Never waits: a batch a link refuses is staged.
    pub(crate) fn flush_due(&mut self, now: Instant) -> Option<Instant> {
        let mut next_due = None;
        for ep in endpoints_mut(&mut self.sink) {
            self.staged |= ep.flush_if_due(now, &mut next_due).unwrap_or(false);
        }
        next_due
    }

    /// Seal what every outgoing channel holds with a checkpoint barrier —
    /// what source pumps and processor alignment send downstream. A
    /// barrier a link cannot take now is staged behind the batch it
    /// follows; a channel whose link failed is skipped.
    pub(crate) fn barrier(&mut self, checkpoint_id: u64) {
        for ep in endpoints_mut(&mut self.sink) {
            self.staged |= ep.barrier(checkpoint_id).unwrap_or(false);
        }
    }

    /// Every outgoing channel endpoint of this context, link by link.
    pub fn endpoints(&self) -> impl Iterator<Item = &ChannelEndpoint> {
        let links: &[OutgoingLink] = match &self.sink {
            ContextSink::Channels { links, .. } => links,
            ContextSink::Collector(_) => &[],
        };
        links.iter().flat_map(|l| &l.endpoints)
    }

    /// For the driving task, as it ends with work staged: give up its
    /// endpoints, which nobody else may touch while this context owns
    /// them. The context emits nothing after.
    pub(crate) fn take_staged_endpoints(&mut self) -> Vec<ChannelEndpoint> {
        if !std::mem::take(&mut self.staged) {
            return Vec::new();
        }
        let ContextSink::Channels { links, .. } = &mut self.sink else { return Vec::new() };
        links.drain(..).flat_map(|l| l.endpoints).collect()
    }
}

/// The endpoints behind a context's sink, borrowed from the sink alone so
/// the context's other fields stay free while they are walked.
fn endpoints_mut(sink: &mut ContextSink) -> impl Iterator<Item = &mut ChannelEndpoint> {
    let links: &mut [OutgoingLink] = match sink {
        ContextSink::Channels { links, .. } => links,
        ContextSink::Collector(_) => &mut [],
    };
    links.iter_mut().flat_map(|l| &mut l.endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelId;
    use crate::metrics::OperatorCounters;
    use crate::packet::FieldValue;
    use neptune_link::LinkBuilder;
    use neptune_net::buffer::OutputBuffer;
    use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};

    fn packet(n: u64) -> StreamPacket {
        let mut p = StreamPacket::new();
        p.push_field("n", FieldValue::U64(n));
        p
    }

    #[test]
    fn collector_context_captures_emits() {
        let mut ctx = OperatorContext::collector("test-op");
        assert_eq!(ctx.operator(), "test-op");
        assert_eq!(ctx.instance(), 0);
        assert_eq!(ctx.instances(), 1);
        ctx.emit(&packet(1)).unwrap();
        ctx.emit_to("downstream", &packet(2)).unwrap();
        let collected = ctx.take_collected();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].0, None);
        assert_eq!(collected[1].0, Some("downstream".into()));
        assert_eq!(collected[1].1.get("n").unwrap().as_u64(), Some(2));
        assert_eq!(ctx.packets_emitted(), 2);
    }

    fn channel_ctx(
        dsts: &[(&str, usize)],
    ) -> (OperatorContext, Vec<Arc<WatermarkQueue<neptune_net::frame::Frame>>>) {
        let counters = Arc::new(OperatorCounters::default());
        let mut queues = Vec::new();
        let mut links = Vec::new();
        for (li, (name, n_inst)) in dsts.iter().enumerate() {
            let mut endpoints = Vec::new();
            for di in 0..*n_inst {
                let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
                queues.push(q.clone());
                let id = ChannelId::new(li as u16, 0, di as u16);
                endpoints.push(ChannelEndpoint::new(
                    OutputBuffer::new(1, None), // flush every packet
                    LinkBuilder::new(id.raw()).in_process(q).build(),
                    counters.clone(),
                    None,
                ));
            }
            links.push(OutgoingLink::new(*name, &PartitioningScheme::Shuffle, endpoints));
        }
        (OperatorContext::for_channels("src", 0, 1, links, counters), queues)
    }

    #[test]
    fn emit_reaches_all_links() {
        let (mut ctx, queues) = channel_ctx(&[("a", 1), ("b", 1)]);
        ctx.emit(&packet(5)).unwrap();
        assert_eq!(queues[0].len(), 1);
        assert_eq!(queues[1].len(), 1);
        assert_eq!(ctx.packets_emitted(), 2);
    }

    #[test]
    fn emit_to_targets_one_link() {
        let (mut ctx, queues) = channel_ctx(&[("a", 1), ("b", 1)]);
        ctx.emit_to("b", &packet(5)).unwrap();
        assert_eq!(queues[0].len(), 0);
        assert_eq!(queues[1].len(), 1);
    }

    #[test]
    fn a_shedding_context_counts_and_drops_every_emit_but_not_barriers() {
        let (mut ctx, queues) = channel_ctx(&[("a", 1), ("b", 1)]);
        ctx.shed();
        ctx.emit(&packet(1)).unwrap();
        ctx.emit_to("b", &packet(2)).unwrap();
        ctx.emit_encoded(&prefixed(&packet(3))).unwrap();
        assert!(queues.iter().all(|q| q.is_empty()), "a shed packet was sent");
        assert_eq!(ctx.packets_emitted(), 0);
        ctx.barrier(7);
        for q in &queues {
            let barrier = q.pop().expect("the barrier went out");
            assert_eq!(barrier.control, Some(neptune_net::frame::ControlKind::Barrier));
        }
        assert_eq!(ctx.stop_shedding(), Some(3));
        ctx.emit(&packet(4)).unwrap();
        assert_eq!(ctx.packets_emitted(), 2, "emits go out again");
        assert_eq!(ctx.stop_shedding(), None);
    }

    #[test]
    fn emit_to_unknown_link_errors() {
        let (mut ctx, _queues) = channel_ctx(&[("a", 1)]);
        let err = ctx.emit_to("nope", &packet(1)).unwrap_err();
        assert!(matches!(err, EmitError::Transport(_)));
    }

    #[test]
    fn shuffle_spreads_across_instances() {
        let (mut ctx, queues) = channel_ctx(&[("a", 3)]);
        for i in 0..6 {
            ctx.emit(&packet(i)).unwrap();
        }
        assert_eq!(queues[0].len(), 2);
        assert_eq!(queues[1].len(), 2);
        assert_eq!(queues[2].len(), 2);
    }

    #[test]
    fn broadcast_fan_out_delivers_identical_bytes() {
        // Serialize-once fan-out: a broadcast packet reaches every
        // destination instance as byte-identical messages.
        let (mut ctx, queues) = one_link_ctx(&PartitioningScheme::Broadcast, 3);
        ctx.emit(&packet(123)).unwrap();
        assert_eq!(ctx.packets_emitted(), 3);
        let frames: Vec<_> = queues.iter().map(|q| q.pop().unwrap()).collect();
        for f in &frames {
            assert_eq!(f.messages.len(), 1);
            assert_eq!(f.messages[0], frames[0].messages[0]);
        }
        let mut codec = PacketCodec::new();
        let decoded = codec.decode(&frames[2].messages[0]).unwrap();
        assert_eq!(decoded.get("n").unwrap().as_u64(), Some(123));
    }

    fn prefixed(p: &StreamPacket) -> Vec<u8> {
        let body = PacketCodec::new().encode(p).unwrap();
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&body);
        out
    }

    /// One link of `instances` endpoints that flush every message, under
    /// `scheme`; returns the context and each instance's queue.
    fn one_link_ctx(
        scheme: &PartitioningScheme,
        instances: usize,
    ) -> (OperatorContext, Vec<Arc<WatermarkQueue<neptune_net::frame::Frame>>>) {
        let counters = Arc::new(OperatorCounters::default());
        let mut queues = Vec::new();
        let mut endpoints = Vec::new();
        for di in 0..instances {
            let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)));
            queues.push(q.clone());
            let id = ChannelId::new(0, 0, di as u16);
            endpoints.push(ChannelEndpoint::new(
                OutputBuffer::new(1, None),
                LinkBuilder::new(id.raw()).in_process(q).build(),
                counters.clone(),
                None,
            ));
        }
        let links = vec![OutgoingLink::new("dst", scheme, endpoints)];
        (OperatorContext::for_channels("src", 0, 1, links, counters), queues)
    }

    #[test]
    fn hand_over_staged_offers_every_endpoint() {
        // Two destinations whose gate every frame closes, fed by broadcast:
        // the second emit is refused by both and staged in both channels.
        let counters = Arc::new(OperatorCounters::default());
        let (mut queues, mut endpoints) = (Vec::new(), Vec::new());
        for di in 0..2u16 {
            let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(8, 4)));
            let id = ChannelId::new(0, 0, di);
            endpoints.push(ChannelEndpoint::new(
                OutputBuffer::new(8, None),
                LinkBuilder::new(id.raw()).in_process(q.clone()).build(),
                counters.clone(),
                None,
            ));
            queues.push(q);
        }
        let links = vec![OutgoingLink::new("dst", &PartitioningScheme::Broadcast, endpoints)];
        let mut ctx = OperatorContext::for_channels("src", 0, 1, links, counters);
        ctx.emit(&packet(1)).unwrap();
        ctx.emit(&packet(2)).unwrap();
        assert_eq!((queues[0].len(), queues[1].len()), (1, 1), "the second emit is staged");
        assert!(!ctx.hand_over_staged());

        // Only the second destination regains room. The first still
        // refuses, and must not hold back the hand-over behind it.
        queues[1].pop().unwrap();
        assert!(!ctx.hand_over_staged(), "the first channel still holds its batch");
        assert_eq!(queues[1].len(), 1, "the second channel handed its batch over");
        assert_eq!(queues[0].len(), 1);
        queues[0].pop().unwrap();
        assert!(ctx.hand_over_staged(), "both channels clear");
        assert_eq!((queues[0].len(), queues[1].len()), (1, 1));
    }

    #[test]
    fn staging_is_bounded_by_one_batch_plus_what_one_next_call_flushes() {
        // A pump's loop over a link whose gate every frame closes, against
        // a sink that takes one frame for every two rounds. The source — a
        // burst of BURST frames per call — is called only once
        // `hand_over_staged` has cleared the channel and the link admits,
        // and a deadline pass follows each round. However far the source
        // outruns the sink, never more than one burst (the batch that met
        // the closed gate and what the same call flushed past it) plus one
        // deadline batch is staged, and all of it arrives, in order.
        const BURST: u64 = 5;
        let (ep, queue) = crate::channel::tests::make_choked_endpoint();
        let link = ep.link().clone();
        let counters = Arc::new(OperatorCounters::default());
        let links = vec![OutgoingLink::new("dst", &PartitioningScheme::Shuffle, vec![ep])];
        let mut ctx = OperatorContext::for_channels("src", 0, 1, links, counters);
        let mut codec = PacketCodec::new();
        let mut take = |got: &mut Vec<u64>| match queue.pop() {
            Some(frame) => {
                for m in &frame.messages {
                    got.push(codec.decode(m).unwrap().get("n").unwrap().as_u64().unwrap());
                }
                true
            }
            None => false,
        };
        let (mut emitted, mut deepest, mut got) = (0u64, 0usize, Vec::new());
        for round in 0..400 {
            if ctx.hand_over_staged() && link.admits() {
                for _ in 0..BURST {
                    ctx.emit(&packet(emitted)).unwrap();
                    emitted += 1;
                }
            }
            ctx.flush_due(Instant::now() + std::time::Duration::from_secs(1));
            deepest = deepest.max(ctx.endpoints().map(|ep| ep.staged_len()).sum());
            if round % 2 == 1 {
                take(&mut got);
            }
        }
        while take(&mut got) || !ctx.hand_over_staged() {}
        assert!(emitted >= 10 * BURST, "the source was called over and over: {emitted}");
        assert_eq!(got, (0..emitted).collect::<Vec<_>>(), "staged batches arrive, all, in order");
        assert!(deepest >= 1, "nothing was ever seen staged");
        assert!(deepest <= 1 + BURST as usize, "staged {deepest} batches, a burst is {BURST}");
    }

    #[test]
    fn emit_encoded_delivers_the_same_bytes_to_the_same_instances_as_emit() {
        let by_custom = PartitioningScheme::Custom(Arc::new(|p: &StreamPacket, n| {
            p.get("n").and_then(|v| v.as_u64()).unwrap_or(0) as usize % n
        }));
        let schemes = [
            PartitioningScheme::Shuffle,
            PartitioningScheme::Global,
            PartitioningScheme::Broadcast,
            PartitioningScheme::by_field("n"),
            by_custom,
        ];
        for scheme in &schemes {
            let (mut by_packet, packet_queues) = one_link_ctx(scheme, 3);
            let (mut by_bytes, byte_queues) = one_link_ctx(scheme, 3);
            for n in 0..20 {
                by_packet.emit(&packet(n)).unwrap();
                by_bytes.emit_encoded(&prefixed(&packet(n))).unwrap();
            }
            assert_eq!(by_bytes.packets_emitted(), by_packet.packets_emitted(), "{scheme:?}");
            for (a, b) in packet_queues.iter().zip(&byte_queues) {
                let drain = |q: &WatermarkQueue<neptune_net::frame::Frame>| -> Vec<Vec<u8>> {
                    std::iter::from_fn(|| q.pop()).map(|f| f.messages[0].to_vec()).collect()
                };
                assert_eq!(drain(b), drain(a), "{scheme:?}: same bytes, same order, per instance");
            }
        }
    }

    #[test]
    fn emit_encoded_rejects_a_misframed_message_and_counts_packets_out() {
        let (mut ctx, queues) = channel_ctx(&[("a", 1), ("b", 1)]);
        let good = prefixed(&packet(7));
        ctx.emit_encoded(&good).unwrap();
        assert_eq!(ctx.packets_emitted(), 2, "one per link, like emit");
        assert_eq!(queues[0].pop().unwrap().messages[0], good[4..]);
        for bad in [&good[..3], &good[..good.len() - 1], &good[4..]] {
            assert!(matches!(ctx.emit_encoded(bad), Err(EmitError::Codec(_))));
        }
        assert_eq!(ctx.packets_emitted(), 2);
        // A keyed link cannot route what it cannot decode.
        let (mut keyed, _q) = one_link_ctx(&PartitioningScheme::by_field("n"), 2);
        let garbage = [3u8, 0, 0, 0, 0xFF, 0xFF, 0xFF];
        assert!(matches!(keyed.emit_encoded(&garbage), Err(EmitError::Codec(_))));
        // The collector records the decoded packet.
        let mut collector = OperatorContext::collector("c");
        collector.emit_encoded(&good).unwrap();
        assert_eq!(collector.take_collected()[0].1.get("n").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn emitted_packets_decode_back() {
        let (mut ctx, queues) = channel_ctx(&[("a", 1)]);
        ctx.emit(&packet(99)).unwrap();
        let frame = queues[0].pop().unwrap();
        let mut codec = PacketCodec::new();
        let decoded = codec.decode(&frame.messages[0]).unwrap();
        assert_eq!(decoded.get("n").unwrap().as_u64(), Some(99));
    }

    #[test]
    #[should_panic(expected = "channel-backed context")]
    fn take_collected_panics_on_channel_context() {
        let (mut ctx, _queues) = channel_ctx(&[("a", 1)]);
        ctx.take_collected();
    }

    #[test]
    fn context_pool_recycles_packets() {
        let mut ctx = OperatorContext::collector("pooled");
        let mut p = ctx.checkout_packet();
        assert_eq!(ctx.pool_stats().misses, 1);
        p.push_field("x", FieldValue::U64(1));
        ctx.emit(&p).unwrap();
        ctx.checkin_packet(p);
        let q = ctx.checkout_packet();
        assert!(q.is_empty(), "pooled packet must come back cleared");
        assert_eq!(ctx.pool_stats().hits, 1);
        ctx.checkin_packet(q);
    }

    #[test]
    fn endpoints_enumerates_all() {
        let (ctx, _queues) = channel_ctx(&[("a", 2), ("b", 3)]);
        assert_eq!(ctx.endpoints().count(), 5);
        let c = OperatorContext::collector("x");
        assert_eq!(c.endpoints().count(), 0);
    }
}
