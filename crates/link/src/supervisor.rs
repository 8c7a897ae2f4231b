//! The reconnecting link supervisor — ties sequencing, replay, backoff,
//! and events into one at-least-once sender.
//!
//! A [`SupervisedLink`] owns a connector closure (how to (re)establish
//! the underlying [`FrameLink`]) and a [`ReplayBuffer`]. Every batch gets
//! a frame sequence number and is retained until cumulatively acked; a
//! failed send triggers the recovery loop: backoff (exponential,
//! deterministic jitter), reconnect, replay everything unacked, resume.
//! Exhausting the retry budget is terminal: a `LinkFailed` event fires,
//! and every later send fails fast with `Closed` — the caller (runtime,
//! harness) decides whether to reroute or abort.

use crate::backoff::ReconnectPolicy;
use crate::replay::{PendingFrame, ReplayBuffer};
use crate::stats::RecoveryStats;
use crate::transport::{FrameLink, OutboundFrame};
use bytes::Bytes;
use neptune_net::frame::{ControlKind, FrameHeader};
use neptune_net::transport::TransportError;
use neptune_telemetry::{EventKind, FlightRecorder};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Lifecycle notifications emitted by a [`SupervisedLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// A recovery attempt is starting (0-based attempt number).
    Reconnecting {
        /// Attempt index within the current recovery.
        attempt: u32,
    },
    /// Recovery succeeded; `replayed` unacked frames were retransmitted.
    Reconnected {
        /// Frames replayed onto the fresh connection.
        replayed: u64,
    },
    /// The retry budget is exhausted; the link is terminally down.
    LinkFailed,
}

type Connector = dyn Fn() -> Result<Arc<dyn FrameLink>, TransportError> + Send + Sync;
type EventHook = Arc<dyn Fn(u64, LinkEvent) + Send + Sync>;

/// At-least-once sending endpoint for one link.
pub struct SupervisedLink {
    link_id: u64,
    connector: Box<Connector>,
    active: Mutex<Option<Arc<dyn FrameLink>>>,
    replay: Arc<ReplayBuffer>,
    policy: ReconnectPolicy,
    stats: Arc<RecoveryStats>,
    next_seq: AtomicU64,
    heartbeat_nonce: AtomicU64,
    /// Per-link retransmit count (the shared [`RecoveryStats`] aggregates
    /// across links; this one feeds the link's own stats bundle).
    replayed: AtomicU64,
    /// Per-link cumulative-ack count.
    acks: AtomicU64,
    failed: AtomicBool,
    hook: RwLock<Option<EventHook>>,
    recorder: RwLock<Option<Arc<FlightRecorder>>>,
}

impl SupervisedLink {
    /// Supervise `link_id`, (re)connecting through `connector`, retaining
    /// up to `replay_budget_bytes` of unacked frames.
    pub fn new(
        link_id: u64,
        connector: impl Fn() -> Result<Arc<dyn FrameLink>, TransportError> + Send + Sync + 'static,
        policy: ReconnectPolicy,
        replay_budget_bytes: usize,
        stats: Arc<RecoveryStats>,
    ) -> Self {
        SupervisedLink {
            link_id,
            connector: Box::new(connector),
            active: Mutex::new(None),
            replay: Arc::new(ReplayBuffer::new(replay_budget_bytes)),
            policy,
            stats,
            next_seq: AtomicU64::new(0),
            heartbeat_nonce: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            acks: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            hook: RwLock::new(None),
            recorder: RwLock::new(None),
        }
    }

    /// Attach a flight recorder: the recovery lifecycle is timelined as
    /// [`EventKind::LinkCut`] → [`EventKind::Reconnecting`] →
    /// [`EventKind::Reconnected`] → [`EventKind::Replay`] (or
    /// [`EventKind::LinkFailed`]), with the link id as subject.
    pub fn attach_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.recorder.write() = Some(recorder);
    }

    fn record_event(&self, kind: EventKind, detail: u64) {
        if let Some(r) = self.recorder.read().as_ref() {
            r.record(kind, self.link_id, detail);
        }
    }

    /// The supervised link's identity.
    pub fn link_id(&self) -> u64 {
        self.link_id
    }

    /// Register a lifecycle-event callback (`TelemetryHub` wiring point).
    pub fn on_event(&self, f: impl Fn(u64, LinkEvent) + Send + Sync + 'static) {
        *self.hook.write() = Some(Arc::new(f));
    }

    fn emit(&self, event: LinkEvent) {
        let hook = self.hook.read().clone();
        if let Some(hook) = hook {
            hook(self.link_id, event);
        }
    }

    /// Send one batch with at-least-once semantics: sequence it, retain
    /// it for replay, deliver (recovering the link if needed). Returns
    /// `Closed` only once the link is terminally failed.
    pub fn send_batch(
        &self,
        base_seq: u64,
        encoded: Bytes,
        count: u32,
        sent_at_micros: u64,
    ) -> Result<(), TransportError> {
        self.send_batch_traced(base_seq, encoded, count, sent_at_micros, None)
    }

    /// [`SupervisedLink::send_batch`] carrying a causal trace id for the
    /// sampled tracing path. The id rides the first transmission only;
    /// replayed copies are deliberately untraced (the span of interest —
    /// the original attempt — was already recorded).
    pub fn send_batch_traced(
        &self,
        base_seq: u64,
        encoded: Bytes,
        count: u32,
        sent_at_micros: u64,
        trace: Option<u64>,
    ) -> Result<(), TransportError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let evicted = self.replay.append(PendingFrame {
            frame_seq: seq,
            base_seq,
            count,
            encoded: encoded.clone(),
            sent_at_micros,
        });
        if evicted > 0 {
            self.stats.replay_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        let frame = OutboundFrame {
            header: FrameHeader {
                link_id: self.link_id,
                base_seq,
                count,
                sent_at_micros,
                seq: Some(seq),
                trace,
                ..FrameHeader::default()
            },
            encoded,
        };
        let mut active = self.active.lock();
        if active.is_none() {
            *active = (self.connector)().ok();
        }
        if let Some(sink) = active.as_ref() {
            if sink.send_frame(&frame).is_ok() {
                return Ok(());
            }
        }
        // The frame is already in the replay buffer: recovery replays it.
        *active = None;
        self.recover_locked(&mut active)
    }

    /// Probe the link with a heartbeat control frame. A failed probe
    /// triggers the same recovery loop as a failed data send — idle links
    /// detect death without waiting for traffic.
    pub fn heartbeat(&self) -> Result<(), TransportError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let nonce = self.heartbeat_nonce.fetch_add(1, Ordering::Relaxed);
        let mut active = self.active.lock();
        if active.is_none() {
            *active = (self.connector)().ok();
        }
        if let Some(sink) = active.as_ref() {
            if sink.send_control(self.link_id, ControlKind::Heartbeat, nonce).is_ok() {
                RecoveryStats::bump(&self.stats.heartbeats_sent);
                return Ok(());
            }
        }
        *active = None;
        self.recover_locked(&mut active)
    }

    /// Send an aligned-checkpoint barrier control frame carrying
    /// `checkpoint_id`. Barriers travel in-band — after every data frame
    /// already handed to the transport — but are *not* retained for
    /// replay: after a cut the checkpoint that barrier belonged to is
    /// simply abandoned (the coordinator times it out) and the next
    /// barrier starts a fresh one, so replaying a stale barrier could
    /// only corrupt alignment. A failed send triggers the usual recovery
    /// loop so the data frames ahead of the barrier still arrive.
    pub fn barrier(&self, checkpoint_id: u64) -> Result<(), TransportError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let mut active = self.active.lock();
        if active.is_none() {
            *active = (self.connector)().ok();
        }
        if let Some(sink) = active.as_ref() {
            if sink.send_control(self.link_id, ControlKind::Barrier, checkpoint_id).is_ok() {
                return Ok(());
            }
        }
        *active = None;
        self.recover_locked(&mut active)
    }

    /// Deliver a cumulative acknowledgement: trims the replay buffer.
    pub fn ack(&self, cum_msg_seq: u64) {
        RecoveryStats::bump(&self.stats.acks_received);
        self.acks.fetch_add(1, Ordering::Relaxed);
        self.replay.ack(cum_msg_seq);
    }

    /// The replay buffer (shared with ack routers).
    pub fn replay(&self) -> &Arc<ReplayBuffer> {
        &self.replay
    }

    /// True once the retry budget was exhausted.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Frames sequenced so far.
    pub fn frames_sequenced(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Frames retransmitted on this link across all recoveries.
    pub fn frames_replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Cumulative acks this link has received.
    pub fn acks_received(&self) -> u64 {
        self.acks.load(Ordering::Relaxed)
    }

    /// Backoff → reconnect → replay, up to the policy's attempt budget.
    /// Runs under the `active` lock: concurrent senders queue behind the
    /// recovery instead of racing their own.
    fn recover_locked(
        &self,
        active: &mut Option<Arc<dyn FrameLink>>,
    ) -> Result<(), TransportError> {
        self.record_event(EventKind::LinkCut, self.replay.unacked().len() as u64);
        for attempt in 0..self.policy.max_attempts {
            self.emit(LinkEvent::Reconnecting { attempt });
            self.record_event(EventKind::Reconnecting, attempt as u64);
            RecoveryStats::bump(&self.stats.reconnect_attempts);
            std::thread::sleep(self.policy.delay_for(attempt));
            let Ok(sink) = (self.connector)() else { continue };
            let pending = self.replay.unacked();
            let mut replayed = 0u64;
            let mut replayed_bytes = 0u64;
            let mut completed = true;
            for pf in &pending {
                let frame = OutboundFrame {
                    header: FrameHeader {
                        link_id: self.link_id,
                        base_seq: pf.base_seq,
                        count: pf.count,
                        sent_at_micros: pf.sent_at_micros,
                        seq: Some(pf.frame_seq),
                        ..FrameHeader::default()
                    },
                    encoded: pf.encoded.clone(),
                };
                if sink.send_frame(&frame).is_err() {
                    completed = false;
                    break;
                }
                replayed += 1;
                replayed_bytes += pf.encoded.len() as u64;
            }
            self.stats.retransmits.fetch_add(replayed, Ordering::Relaxed);
            self.stats.retransmitted_bytes.fetch_add(replayed_bytes, Ordering::Relaxed);
            self.replayed.fetch_add(replayed, Ordering::Relaxed);
            if !completed {
                continue; // partial replay: duplicates are fine, retry whole set
            }
            RecoveryStats::bump(&self.stats.reconnects);
            *active = Some(sink);
            self.record_event(EventKind::Reconnected, attempt as u64);
            self.record_event(EventKind::Replay, replayed);
            self.emit(LinkEvent::Reconnected { replayed });
            return Ok(());
        }
        self.failed.store(true, Ordering::Release);
        RecoveryStats::bump(&self.stats.link_failures);
        self.record_event(EventKind::LinkFailed, 0);
        self.emit(LinkEvent::LinkFailed);
        Err(TransportError::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosLink, FaultEvent, FaultPlan};
    use crate::dedup::{Admit, DedupFilter};
    use crate::transport::QueueLink;
    use neptune_net::frame::Frame;
    use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};

    fn batch(msgs: &[&[u8]]) -> (Bytes, u32) {
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
    fn healthy_link_sequences_and_trims_on_ack() {
        let q = queue();
        let stats = Arc::new(RecoveryStats::new());
        let q2 = q.clone();
        let link = SupervisedLink::new(
            1,
            move || Ok(Arc::new(QueueLink::new(q2.clone())) as Arc<dyn FrameLink>),
            ReconnectPolicy::fast(1),
            1 << 20,
            stats.clone(),
        );
        let (e, c) = batch(&[b"a", b"b"]);
        link.send_batch(0, e, c, 0).unwrap();
        let (e, c) = batch(&[b"c"]);
        link.send_batch(2, e, c, 0).unwrap();
        assert_eq!(q.pop().unwrap().seq, Some(0));
        assert_eq!(q.pop().unwrap().seq, Some(1));
        assert_eq!(link.replay().len(), 2);
        link.ack(2); // first frame (messages 0..2) retires
        assert_eq!(link.replay().len(), 1);
        link.ack(3);
        assert!(link.replay().is_empty());
        assert_eq!(stats.snapshot().acks_received, 2);
        assert_eq!(stats.snapshot().retransmits, 0);
    }

    #[test]
    fn cut_link_recovers_with_replay_and_dedup_sees_all_messages() {
        let q = queue();
        let stats = Arc::new(RecoveryStats::new());
        let plan = FaultPlan::new(3).with_event(FaultEvent::CutLink {
            link_id: 1,
            at_frame: 4,
            down_for: 3,
        });
        let chaos = Arc::new(ChaosLink::new(Arc::new(QueueLink::new(q.clone())), &plan, 1));
        let chaos2 = chaos.clone();
        let link = SupervisedLink::new(
            1,
            move || Ok(chaos2.clone() as Arc<dyn FrameLink>),
            ReconnectPolicy::fast(3),
            1 << 20,
            stats.clone(),
        );
        let events = Arc::new(Mutex::new(Vec::new()));
        let ev = events.clone();
        link.on_event(move |_, e| ev.lock().push(e));

        let dedup = DedupFilter::new();
        let mut delivered = Vec::new();
        for i in 0..10u64 {
            let payload = i.to_le_bytes();
            let (e, c) = batch(&[&payload]);
            link.send_batch(i, e, c, 0).unwrap();
            // Acks flow back as the consumer drains (cumulative).
            while let Some(f) = q.pop() {
                match dedup.admit(f.link_id, f.base_seq, f.len() as u32) {
                    Admit::Fresh => delivered.push(f.base_seq),
                    Admit::Duplicate | Admit::Overlap { .. } => {
                        RecoveryStats::bump(&stats.duplicates_dropped)
                    }
                }
                link.ack(dedup.ack_watermark(1).unwrap());
            }
        }
        assert_eq!(delivered, (0..10).collect::<Vec<_>>(), "zero loss, in order");
        let snap = stats.snapshot();
        assert!(snap.retransmits > 0, "the cut must force replay");
        assert!(snap.reconnects >= 1);
        assert_eq!(snap.link_failures, 0);
        let evs = events.lock();
        assert!(evs.contains(&LinkEvent::Reconnecting { attempt: 0 }));
        assert!(evs
            .iter()
            .any(|e| matches!(e, LinkEvent::Reconnected { replayed } if *replayed > 0)));
    }

    #[test]
    fn exhausted_retries_fail_terminally() {
        let stats = Arc::new(RecoveryStats::new());
        let mut policy = ReconnectPolicy::fast(9);
        policy.max_attempts = 3;
        let link = SupervisedLink::new(
            7,
            || Err(TransportError::Io("connect refused".into())),
            policy,
            1 << 16,
            stats.clone(),
        );
        let events = Arc::new(Mutex::new(Vec::new()));
        let ev = events.clone();
        link.on_event(move |id, e| ev.lock().push((id, e)));
        let (e, c) = batch(&[b"x"]);
        assert_eq!(link.send_batch(0, e.clone(), c, 0), Err(TransportError::Closed));
        assert!(link.is_failed());
        // Fast-fail thereafter: no more attempts burned.
        let before = stats.snapshot().reconnect_attempts;
        assert_eq!(link.send_batch(1, e, c, 0), Err(TransportError::Closed));
        assert_eq!(stats.snapshot().reconnect_attempts, before);
        assert_eq!(stats.snapshot().link_failures, 1);
        assert!(events.lock().contains(&(7, LinkEvent::LinkFailed)));
        assert_eq!(link.heartbeat(), Err(TransportError::Closed));
    }

    #[test]
    fn heartbeats_probe_and_recover_idle_links() {
        let q = queue();
        let stats = Arc::new(RecoveryStats::new());
        let q2 = q.clone();
        let link = SupervisedLink::new(
            2,
            move || Ok(Arc::new(QueueLink::new(q2.clone())) as Arc<dyn FrameLink>),
            ReconnectPolicy::fast(5),
            1 << 16,
            stats.clone(),
        );
        link.heartbeat().unwrap();
        link.heartbeat().unwrap();
        assert_eq!(stats.snapshot().heartbeats_sent, 2);
        let hb = q.pop().unwrap();
        assert_eq!(hb.control, Some(ControlKind::Heartbeat));
        assert_eq!(hb.base_seq, 0, "nonces increase");
        assert_eq!(q.pop().unwrap().base_seq, 1);
    }
}
