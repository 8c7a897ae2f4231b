//! The reconnecting link supervisor — ties sequencing, replay, backoff,
//! and events into one at-least-once layer of the link stack.
//!
//! A [`SupervisedLink`] is a [`FrameLink`] over another one, (re)connected
//! through a connector closure. Every frame it accepts gets a frame
//! sequence number and is retained in a [`ReplayBuffer`] — its only
//! outbound queue — until cumulatively acked, and is transmitted from a
//! cursor while the transport takes frames. Like every layer it never
//! waits: it refuses a frame (`Backpressure`; not sequenced, not retained)
//! unless it is up and has transmitted all it retained. A cut starts a
//! back-off with a deadline ([`retry_at`](SupervisedLink::retry_at)); the
//! first call after it — a send, a control frame or
//! [`retry_staged`](SupervisedLink::retry_staged) — redials, moves the
//! cursor back to the first unacked frame, and runs the same transmit
//! loop. The dial runs outside the layer's lock, so no other caller waits
//! on it: each is refused meanwhile. Space listeners fire when a transport
//! below signals room, when a recovery completes, and when a dial that
//! refused a caller ends. Exhausting the retry budget is terminal: an
//! [`EventKind::LinkFailed`] is recorded and every later call fails fast
//! with `Closed`. The recovery lifecycle is reported to the flight recorder
//! ([`attach_recorder`](SupervisedLink::attach_recorder)).
//!
//! A transport that refuses for room is not a cut: the layer refuses in
//! turn, so backpressure never costs a reconnect or a replay.

use crate::backoff::ReconnectPolicy;
use crate::replay::{PendingFrame, ReplayBuffer};
use crate::stats::RecoveryStats;
use crate::transport::{FrameLink, OutboundFrame, SpaceListener};
use neptune_granules::sync::{Mutex, RwLock};
use neptune_net::frame::{wire_len, ControlKind, FrameHeader};
use neptune_net::transport::TransportError;
use neptune_telemetry::{EventKind, FlightRecorder};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

type Connector = dyn Fn() -> Result<Arc<dyn FrameLink>, TransportError> + Send + Sync;
type Listeners = Mutex<Vec<SpaceListener>>;

fn fire(listeners: &Listeners) {
    let listeners = listeners.lock().clone();
    listeners.iter().for_each(|listener| listener());
}

#[derive(Default)]
struct State {
    /// The connection frames go out on; `None` while the link is down.
    transport: Option<Arc<dyn FrameLink>>,
    /// When a down link redials; `None` before the first dial and while
    /// one is out.
    retry_at: Option<Instant>,
    /// A dial is out. It runs outside this lock, and meanwhile every other
    /// caller is refused; if one was, the dial's end calls it back.
    dialling: bool,
    refused_mid_dial: bool,
    /// Between a cut and the end of the replay after it.
    recovering: bool,
    /// Redials, and frames replayed, in the current recovery.
    attempts: u32,
    replayed: u64,
    /// The next frame to transmit; every retained frame below it is on the
    /// current transport.
    cursor: u64,
    /// The sequence number of the next accepted frame.
    next_seq: u64,
    /// The first frame never transmitted: below it, a transmission is a
    /// replay.
    fresh_from: u64,
    /// Sender-queue full events of the transports cut so far.
    cut_sender_full: u64,
}

impl State {
    /// The transport, if the link is up and has transmitted all it retains.
    fn caught_up(&self) -> Option<&Arc<dyn FrameLink>> {
        self.transport.as_ref().filter(|_| self.cursor >= self.next_seq)
    }
}

/// At-least-once sending layer for one link.
pub struct SupervisedLink {
    link_id: u64,
    connector: Box<Connector>,
    state: Mutex<State>,
    replay: Arc<ReplayBuffer>,
    policy: ReconnectPolicy,
    stats: Arc<RecoveryStats>,
    /// Shared with the relay registered on each transport.
    listeners: Arc<Listeners>,
    /// Per-link retransmit count (the shared [`RecoveryStats`] aggregates
    /// across links; this one feeds the link's own stats bundle).
    replayed: AtomicU64,
    /// Per-link cumulative-ack count.
    acks: AtomicU64,
    failed: AtomicBool,
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
            state: Mutex::default(),
            replay: Arc::new(ReplayBuffer::new(replay_budget_bytes)),
            policy,
            stats,
            listeners: Arc::default(),
            replayed: AtomicU64::new(0),
            acks: AtomicU64::new(0),
            failed: AtomicBool::new(false),
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

    /// Offer the transport the retained frames it has not taken, redialling
    /// first if a back-off is due; never waits. `Ok(true)` while what the
    /// link retains is not all on a live transport, `Closed` once failed.
    pub fn retry_staged(&self) -> Result<bool, TransportError> {
        self.redial();
        self.locked(|st, wake| {
            self.step(st, wake)?;
            Ok(st.caught_up().is_none())
        })
    }

    /// When a link that is backing off redials; `None` while it is up,
    /// dialling or failed.
    pub fn retry_at(&self) -> Option<Instant> {
        self.state.lock().retry_at
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
        self.state.lock().next_seq
    }

    /// Frames retransmitted on this link across all recoveries.
    pub fn frames_replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Cumulative acks this link has received.
    pub fn acks_received(&self) -> u64 {
        self.acks.load(Ordering::Relaxed)
    }

    /// Run `f` under the state lock; fire the listeners after, unlocked, if
    /// it says so.
    fn locked<T>(&self, f: impl FnOnce(&mut State, &mut bool) -> T) -> T {
        let mut wake = false;
        let out = f(&mut self.state.lock(), &mut wake);
        if wake {
            fire(&self.listeners);
        }
        out
    }

    /// Redial a down link whose back-off is due. The dial runs outside the
    /// state lock — a connect may take its timeout — so it holds no other
    /// caller: each is refused meanwhile, and called back when it ends.
    fn redial(&self) {
        {
            let mut st = self.state.lock();
            let due = st.retry_at.is_none_or(|at| Instant::now() >= at);
            if st.transport.is_some() || st.dialling || !due || self.is_failed() {
                return;
            }
            if st.recovering {
                self.record_event(EventKind::Reconnecting, st.attempts as u64);
                RecoveryStats::bump(&self.stats.reconnect_attempts);
            }
            (st.dialling, st.retry_at) = (true, None);
        }
        let dialled = (self.connector)();
        self.locked(|st, wake| {
            st.dialling = false;
            *wake = std::mem::take(&mut st.refused_mid_dial);
            match dialled {
                Ok(transport) => {
                    let relay = self.listeners.clone();
                    transport.add_space_listener(Arc::new(move || fire(&relay)));
                    st.transport = Some(transport);
                    st.cursor = 0; // everything unacked goes again
                }
                // A spent budget is `Closed` at the caller's step.
                Err(_) => drop(self.cut(st, wake)),
            }
        });
    }

    /// What every call does under the lock, after [`redial`](Self::redial):
    /// transmit what is retained.
    fn step(&self, st: &mut State, wake: &mut bool) -> Result<(), TransportError> {
        if self.is_failed() {
            return Err(TransportError::Closed);
        }
        st.refused_mid_dial |= st.dialling;
        self.transmit(st, wake)
    }

    /// Transmit retained frames from the cursor while the transport takes
    /// them — first transmissions and replays alike.
    fn transmit(&self, st: &mut State, wake: &mut bool) -> Result<(), TransportError> {
        let Some(transport) = st.transport.clone() else { return Ok(()) };
        while let Some(pf) = self.replay.next_from(st.cursor) {
            let replay = pf.frame_seq < st.fresh_from;
            let frame = OutboundFrame {
                header: FrameHeader {
                    link_id: self.link_id,
                    base_seq: pf.base_seq,
                    count: pf.count,
                    sent_at_micros: pf.sent_at_micros,
                    seq: Some(pf.frame_seq),
                    // The span of interest is the first attempt's.
                    trace: pf.trace.filter(|_| !replay),
                    ..FrameHeader::default()
                },
                encoded: pf.encoded,
            };
            let sent = transport.send_frame(&frame);
            if sent == Err(TransportError::Backpressure) {
                return Ok(()); // nothing happened to it
            }
            st.fresh_from = st.fresh_from.max(pf.frame_seq + 1);
            if sent.is_err() {
                return self.cut(st, wake);
            }
            st.cursor = pf.frame_seq + 1;
            if replay {
                st.replayed += 1;
                self.replayed.fetch_add(1, Ordering::Relaxed);
                RecoveryStats::bump(&self.stats.retransmits);
                let bytes = frame.encoded.len() as u64;
                self.stats.retransmitted_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        // Nothing retained from the cursor on: below it, all went or was acked.
        st.cursor = st.next_seq;
        if std::mem::take(&mut st.recovering) {
            RecoveryStats::bump(&self.stats.reconnects);
            self.record_event(EventKind::Reconnected, st.attempts as u64);
            self.record_event(EventKind::Replay, st.replayed);
            *wake = true;
        }
        Ok(())
    }

    /// The transport failed, or a dial did: back off, or give up once the
    /// attempt budget is spent.
    fn cut(&self, st: &mut State, wake: &mut bool) -> Result<(), TransportError> {
        if let Some(transport) = st.transport.take() {
            st.cut_sender_full += transport.sender_full();
        }
        if st.recovering {
            st.attempts += 1;
        } else {
            self.record_event(EventKind::LinkCut, self.replay.len() as u64);
            (st.recovering, st.attempts, st.replayed) = (true, 0, 0);
        }
        if st.attempts < self.policy.max_attempts {
            st.retry_at = Some(Instant::now() + self.policy.delay_for(st.attempts));
            return Ok(());
        }
        st.retry_at = None;
        self.failed.store(true, Ordering::Release);
        RecoveryStats::bump(&self.stats.link_failures);
        self.record_event(EventKind::LinkFailed, 0);
        *wake = true; // whoever is parked on the link comes back to be told
        Err(TransportError::Closed)
    }
}

impl FrameLink for SupervisedLink {
    /// Accept one frame — sequence it, retain it, transmit it behind what
    /// was retained before — and account its uncompressed wire size (a
    /// replay may be what finally carries it). The frame's `seq` is
    /// ignored. `Ok` means accepted and retained, not transmitted: a cut
    /// that swallows the frame leaves it to the replay made by the first
    /// call after [`retry_at`](SupervisedLink::retry_at).
    fn send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        self.redial();
        self.locked(|st, wake| {
            self.step(st, wake)?;
            if !st.caught_up().is_some_and(|t| t.admits()) {
                return Err(TransportError::Backpressure);
            }
            let h = &frame.header;
            let evicted = self.replay.append(PendingFrame {
                frame_seq: st.next_seq,
                base_seq: h.base_seq,
                count: h.count,
                encoded: frame.encoded.clone(),
                sent_at_micros: h.sent_at_micros,
                trace: h.trace,
            });
            st.next_seq += 1;
            self.stats.replay_evictions.fetch_add(evicted, Ordering::Relaxed);
            self.transmit(st, wake)?;
            Ok(wire_len(frame.encoded.len()))
        })
    }

    /// Control frames go behind every retained frame and are not retained:
    /// after a cut a barrier's checkpoint is abandoned, not replayed, and a
    /// heartbeat has done its job by finding the cut.
    fn send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.redial();
        self.locked(|st, wake| {
            self.step(st, wake)?;
            let transport = st.caught_up().cloned().ok_or(TransportError::Backpressure)?;
            match transport.send_control(link_id, kind, value) {
                Ok(()) if kind == ControlKind::Heartbeat => {
                    RecoveryStats::bump(&self.stats.heartbeats_sent);
                    Ok(())
                }
                Ok(()) => Ok(()),
                Err(TransportError::Backpressure) => Err(TransportError::Backpressure),
                Err(_) => self.cut(st, wake),
            }
        })
    }

    /// Up, caught up, and the transport admits — or not dialled yet (the
    /// next call dials), or failed (the next call is told `Closed`). Not
    /// while a dial is out: it calls the asker back when it ends.
    fn admits(&self) -> bool {
        let mut st = self.state.lock();
        st.refused_mid_dial |= st.dialling;
        match st.caught_up() {
            Some(transport) => transport.admits(),
            None => {
                self.is_failed()
                    || !(st.dialling || st.transport.is_some() || st.retry_at.is_some())
            }
        }
    }

    fn add_space_listener(&self, listener: SpaceListener) {
        self.listeners.lock().push(listener);
    }

    /// The live transport's count plus those of the transports cut before
    /// it: a redial does not reset it.
    fn sender_full(&self) -> u64 {
        let st = self.state.lock();
        st.cut_sender_full + st.transport.as_ref().map_or(0, |t| t.sender_full())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosLink, FaultEvent, FaultPlan};
    use crate::dedup::{Admit, DedupFilter};
    use crate::transport::QueueLink;
    use bytes::Bytes;
    use neptune_net::frame::Frame;
    use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};
    use std::time::Duration;

    fn batch(base_seq: u64, msgs: &[&[u8]]) -> OutboundFrame {
        let mut out = Vec::new();
        for m in msgs {
            out.extend_from_slice(&(m.len() as u32).to_le_bytes());
            out.extend_from_slice(m);
        }
        let header = FrameHeader { base_seq, count: msgs.len() as u32, ..FrameHeader::default() };
        OutboundFrame { header, encoded: Bytes::from(out) }
    }

    fn queue() -> Arc<WatermarkQueue<Frame>> {
        Arc::new(WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10)))
    }

    /// Back-offs that are due at once: a test steps recovery by calling
    /// in, with no clock to wait out.
    fn immediate(max_attempts: u32) -> ReconnectPolicy {
        ReconnectPolicy { base: Duration::ZERO, cap: Duration::ZERO, max_attempts, jitter_seed: 3 }
    }

    fn over_queue(q: &Arc<WatermarkQueue<Frame>>, stats: &Arc<RecoveryStats>) -> SupervisedLink {
        let q = q.clone();
        SupervisedLink::new(
            1,
            move || Ok(Arc::new(QueueLink::new(q.clone())) as Arc<dyn FrameLink>),
            ReconnectPolicy::fast(1),
            1 << 20,
            stats.clone(),
        )
    }

    #[test]
    fn healthy_link_sequences_and_trims_on_ack() {
        let q = queue();
        let stats = Arc::new(RecoveryStats::new());
        let link = over_queue(&q, &stats);
        link.send_frame(&batch(0, &[b"a", b"b"])).unwrap();
        link.send_frame(&batch(2, &[b"c"])).unwrap();
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
    fn a_refused_frame_is_neither_sequenced_nor_retained() {
        let q = Arc::new(WatermarkQueue::new(WatermarkConfig::new(64, 8)));
        let stats = Arc::new(RecoveryStats::new());
        let link = over_queue(&q, &stats);
        let signals = Arc::new(AtomicU64::new(0));
        let s = signals.clone();
        link.add_space_listener(Arc::new(move || {
            s.fetch_add(1, Ordering::Relaxed);
        }));
        link.send_frame(&batch(0, &[&[0u8; 60]])).unwrap(); // gates the queue
        assert!(!link.admits());
        assert_eq!(link.send_frame(&batch(1, &[b"x"])), Err(TransportError::Backpressure));
        assert_eq!((link.frames_sequenced(), link.replay().len()), (1, 1));
        assert_eq!(q.pop().unwrap().seq, Some(0));
        assert_eq!(signals.load(Ordering::Relaxed), 1, "the transport's space is relayed");
        assert!(link.admits());
        link.send_frame(&batch(1, &[b"x"])).unwrap();
        let f = q.pop().unwrap();
        assert_eq!((f.seq, f.base_seq), (Some(1), 1), "the next number, not a gap");
        assert_eq!(stats.snapshot().reconnect_attempts, 0, "full is not cut");
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
            immediate(5),
            1 << 20,
            stats.clone(),
        );
        let recorder = Arc::new(FlightRecorder::new(64));
        link.attach_recorder(recorder.clone());

        let dedup = DedupFilter::new();
        let mut delivered = Vec::new();
        for i in 0..10u64 {
            let payload = i.to_le_bytes();
            let frame = batch(i, &[&payload]);
            // A link that is backing off refuses; each call steps it.
            let mut calls = 0;
            while link.send_frame(&frame) == Err(TransportError::Backpressure) {
                calls += 1;
                assert!(calls < 100, "frame {i} never accepted");
            }
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
        while !link.replay().is_empty() {
            link.retry_staged().unwrap();
            while let Some(f) = q.pop() {
                if dedup.admit(f.link_id, f.base_seq, f.len() as u32) == Admit::Fresh {
                    delivered.push(f.base_seq);
                }
                link.ack(dedup.ack_watermark(1).unwrap());
            }
        }
        assert_eq!(delivered, (0..10).collect::<Vec<_>>(), "zero loss, in order");
        let snap = stats.snapshot();
        assert!(snap.retransmits > 0, "the cut must force replay");
        assert!(snap.reconnects >= 1);
        assert_eq!(snap.link_failures, 0);
        assert!(recorder.contains_sequence(&[
            EventKind::LinkCut,
            EventKind::Reconnecting,
            EventKind::Reconnected,
            EventKind::Replay,
        ]));
        let events = recorder.snapshot();
        assert!(events.iter().all(|e| e.subject == 1), "the link id is the subject");
        assert!(events.iter().any(|e| e.kind == EventKind::Reconnecting && e.detail == 0));
        assert!(events.iter().any(|e| e.kind == EventKind::Replay && e.detail > 0));
        assert!(!events.iter().any(|e| e.kind == EventKind::LinkFailed));
    }

    #[test]
    fn exhausted_retries_fail_terminally() {
        let stats = Arc::new(RecoveryStats::new());
        let link = SupervisedLink::new(
            7,
            || Err(TransportError::Io("connect refused".into())),
            immediate(3),
            1 << 16,
            stats.clone(),
        );
        let recorder = Arc::new(FlightRecorder::new(64));
        link.attach_recorder(recorder.clone());
        let frame = batch(0, &[b"x"]);
        assert_eq!(link.send_frame(&frame), Err(TransportError::Backpressure), "backing off");
        assert!(!link.admits());
        let mut calls = 0;
        while link.retry_staged().is_ok() {
            calls += 1;
            assert!(calls < 10, "the budget never ran out");
        }
        assert!(link.is_failed());
        assert!(link.admits(), "a failed link lets its callers come back to be told");
        assert_eq!(link.retry_at(), None);
        // Fast-fail thereafter: no more attempts burned.
        let before = stats.snapshot().reconnect_attempts;
        assert_eq!(before, 3);
        assert_eq!(link.send_frame(&frame), Err(TransportError::Closed));
        assert_eq!(stats.snapshot().reconnect_attempts, before);
        assert_eq!(stats.snapshot().link_failures, 1);
        assert_eq!(link.frames_sequenced(), 0, "nothing was ever accepted");
        assert!(recorder.contains_sequence(&[EventKind::LinkCut, EventKind::LinkFailed]));
        assert!(recorder.snapshot().iter().all(|e| e.subject == 7));
        assert_eq!(link.send_control(7, ControlKind::Heartbeat, 0), Err(TransportError::Closed));
    }

    #[test]
    fn heartbeats_pass_through_and_are_counted() {
        let q = queue();
        let stats = Arc::new(RecoveryStats::new());
        let link = over_queue(&q, &stats);
        link.send_control(2, ControlKind::Heartbeat, 0).unwrap();
        link.send_control(2, ControlKind::Heartbeat, 1).unwrap();
        assert_eq!(stats.snapshot().heartbeats_sent, 2);
        let hb = q.pop().unwrap();
        assert_eq!(hb.control, Some(ControlKind::Heartbeat));
        assert_eq!(hb.base_seq, 0);
        assert_eq!(q.pop().unwrap().base_seq, 1);
    }

    #[test]
    fn a_dial_holds_no_other_caller() {
        use std::sync::{mpsc, Barrier};
        let q = queue();
        let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let (e, r, q2) = (entered.clone(), release.clone(), q.clone());
        let connector = move || {
            e.wait();
            r.wait(); // a peer that takes its time to answer
            Ok(Arc::new(QueueLink::new(q2.clone())) as Arc<dyn FrameLink>)
        };
        let stats = Arc::new(RecoveryStats::new());
        let link = Arc::new(SupervisedLink::new(1, connector, immediate(3), 1 << 20, stats));
        let signals = Arc::new(AtomicU64::new(0));
        let s = signals.clone();
        link.add_space_listener(Arc::new(move || {
            s.fetch_add(1, Ordering::Relaxed);
        }));
        let dialler = link.clone();
        let dialler = std::thread::spawn(move || dialler.retry_staged());
        entered.wait();
        // Asked on a third thread: a caller the dial held fails the test
        // instead of hanging it.
        let (tx, rx) = mpsc::channel();
        let asker = link.clone();
        std::thread::spawn(move || {
            let asked = Instant::now();
            let admits = asker.admits();
            let sent = asker.send_frame(&batch(0, &[b"a"]));
            let answers = (admits, sent, asker.retry_at(), asker.frames_sequenced());
            let _ = tx.send((asked.elapsed(), answers));
        });
        let answered = rx.recv_timeout(Duration::from_secs(1));
        release.wait();
        let (took, answers) = answered.expect("a caller waited on another's dial");
        assert!(took < Duration::from_millis(50), "answered in {took:?}");
        assert_eq!(answers, (false, Err(TransportError::Backpressure), None, 0));
        assert_eq!(dialler.join().unwrap(), Ok(false), "up, nothing retained");
        assert_eq!(signals.load(Ordering::Relaxed), 1, "the refused caller is called back");
        assert!(link.admits());
        link.send_frame(&batch(0, &[b"a"])).unwrap();
        assert_eq!(q.pop().unwrap().seq, Some(0));
    }

    /// A transport that refuses nothing and reports a fixed count of
    /// sender-queue full events, until it is told to fail.
    struct Counting {
        full: u64,
        down: AtomicBool,
    }

    impl FrameLink for Counting {
        fn send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
            if self.down.load(Ordering::Acquire) {
                return Err(TransportError::Io("cut".into()));
            }
            Ok(wire_len(frame.encoded.len()))
        }

        fn send_control(&self, _: u64, _: ControlKind, _: u64) -> Result<(), TransportError> {
            Ok(())
        }

        fn sender_full(&self) -> u64 {
            self.full
        }
    }

    #[test]
    fn sender_full_counts_the_live_transport_and_those_cut_before_it() {
        let dialled: Arc<Mutex<Vec<Arc<Counting>>>> = Arc::default();
        let d = dialled.clone();
        let connector = move || {
            let mut dialled = d.lock();
            // The first connection reports 3 full events, the second 4.
            let transport =
                Arc::new(Counting { full: 3 + dialled.len() as u64, down: AtomicBool::new(false) });
            dialled.push(transport.clone());
            Ok(transport as Arc<dyn FrameLink>)
        };
        let stats = Arc::new(RecoveryStats::new());
        let link = SupervisedLink::new(1, connector, immediate(3), 1 << 20, stats.clone());
        assert_eq!(link.sender_full(), 0, "nothing dialled yet");
        link.send_frame(&batch(0, &[b"a"])).unwrap();
        assert_eq!(link.sender_full(), 3);
        dialled.lock()[0].down.store(true, Ordering::Release);
        link.send_frame(&batch(1, &[b"b"])).unwrap(); // retained; the send cuts
        assert_eq!(link.sender_full(), 3, "the cut transport's count stays");
        while link.retry_staged().unwrap() {}
        assert_eq!(stats.snapshot().reconnects, 1);
        assert_eq!(link.sender_full(), 3 + 4, "the redial adds the new transport's count");
    }
}
