//! Deterministic chaos injection.
//!
//! A [`FaultPlan`] is a seeded *script* of failures — cut a link at data
//! frame N for M send attempts, kill a simulated node at step T, hold
//! back acks — that wraps the real components rather than mocking them:
//! [`ChaosLink`] interposes on any [`FrameLink`], [`AckGate`] on the ack
//! path, and `neptune-sim` consumes [`FaultPlan::dead_nodes_at`]. Faults
//! are indexed by *send-attempt count*, not wall clock, so a given seed
//! replays the exact same failure interleaving in CI every time.

use crate::backoff::xorshift;
use crate::transport::{FrameLink, OutboundFrame, SpaceListener};
use neptune_net::frame::ControlKind;
use neptune_net::transport::TransportError;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One scripted fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Fail every send on `link_id` whose data-frame attempt index falls
    /// in `[at_frame, at_frame + down_for)`. Control frames fail while
    /// the window is open. The link "restores" once retries push the
    /// attempt counter past the window.
    CutLink {
        /// Link to cut.
        link_id: u64,
        /// First failing data-frame send attempt (0-based).
        at_frame: u64,
        /// Number of failing attempts before the link heals.
        down_for: u64,
    },
    /// Remove a simulated cluster node from service at `at_step` (the
    /// sim's analytic solver treats its capacity as gone from that step).
    KillNode {
        /// Node index in the simulated cluster.
        node: usize,
        /// Step (sim iteration) the node dies at.
        at_step: u64,
    },
    /// Hold back cumulative acks on `link_id`: an [`AckGate`] built from
    /// this plan delivers each ack only after `by` newer ones arrive.
    DelayAcks {
        /// Link whose acks are delayed.
        link_id: u64,
        /// How many acks the gate holds back.
        by: u64,
    },
}

/// A seeded, scripted set of faults. The seed feeds [`FaultPlan::jitter`]
/// so harnesses can scatter event offsets deterministically per seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed identifying this plan's timeline.
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan (no faults) with a seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new() }
    }

    /// Add one scripted event (builder style).
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The scripted events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Deterministic value in `[lo, hi)` derived from the seed and a
    /// stream index — scatter event offsets without `rand`.
    pub fn jitter(&self, stream: u64, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty jitter range");
        lo + xorshift(self.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)) % (hi - lo)
    }

    /// Every cut window scripted for `link_id`, as `(start, end)` attempt
    /// indices.
    pub fn cut_windows(&self, link_id: u64) -> Vec<(u64, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CutLink { link_id: l, at_frame, down_for } if *l == link_id => {
                    Some((*at_frame, at_frame + down_for))
                }
                _ => None,
            })
            .collect()
    }

    /// Nodes dead at sim step `step`.
    pub fn dead_nodes_at(&self, step: u64) -> Vec<usize> {
        let mut dead: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::KillNode { node, at_step } if *at_step <= step => Some(*node),
                _ => None,
            })
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Ack delay scripted for `link_id` (0 = none).
    pub fn ack_delay(&self, link_id: u64) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::DelayAcks { link_id: l, by } if *l == link_id => Some(*by),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// A [`FrameLink`] that injects the plan's link cuts.
///
/// The cut is positional: the Nth *data-frame send attempt* fails if N
/// falls inside a scripted window. Because the supervisor retries the
/// same frame, retries advance the counter deterministically until the
/// window closes — a kill-then-restore cycle with no clocks involved.
pub struct ChaosLink {
    inner: Arc<dyn FrameLink>,
    windows: Vec<(u64, u64)>,
    attempts: AtomicU64,
    injected_failures: AtomicU64,
}

impl ChaosLink {
    /// Wrap `inner`, injecting the cuts `plan` scripts for `link_id`.
    pub fn new(inner: Arc<dyn FrameLink>, plan: &FaultPlan, link_id: u64) -> Self {
        ChaosLink {
            inner,
            windows: plan.cut_windows(link_id),
            attempts: AtomicU64::new(0),
            injected_failures: AtomicU64::new(0),
        }
    }

    fn in_window(&self, n: u64) -> bool {
        self.windows.iter().any(|&(start, end)| n >= start && n < end)
    }

    /// Data-frame send attempts observed so far.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Sends failed by injection so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected_failures.load(Ordering::Relaxed)
    }
}

impl ChaosLink {
    /// Count one data-frame send attempt; `Err` while a cut is scripted.
    fn attempt(&self) -> Result<(), TransportError> {
        let n = self.attempts.fetch_add(1, Ordering::Relaxed);
        if self.in_window(n) {
            self.injected_failures.fetch_add(1, Ordering::Relaxed);
            return Err(TransportError::Io(format!("chaos: link down (attempt {n})")));
        }
        Ok(())
    }

    /// Control frames share the link's fate but do not advance the
    /// deterministic data-frame counter.
    fn control_attempt(&self) -> Result<(), TransportError> {
        if self.in_window(self.attempts.load(Ordering::Relaxed)) {
            self.injected_failures.fetch_add(1, Ordering::Relaxed);
            return Err(TransportError::Io("chaos: link down (control)".into()));
        }
        Ok(())
    }
}

impl FrameLink for ChaosLink {
    fn send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        self.attempt()?;
        self.inner.send_frame(frame)
    }

    fn try_send_frame(&self, frame: &OutboundFrame) -> Result<usize, TransportError> {
        // A refusal is not an attempt: the script counts frames that went
        // for the wire, not how often a producer came back to ask.
        if !self.inner.admits() {
            return Err(TransportError::Backpressure);
        }
        self.attempt()?;
        self.inner.try_send_frame(frame)
    }

    fn send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.control_attempt()?;
        self.inner.send_control(link_id, kind, value)
    }

    fn try_send_control(
        &self,
        link_id: u64,
        kind: ControlKind,
        value: u64,
    ) -> Result<(), TransportError> {
        self.control_attempt()?;
        self.inner.try_send_control(link_id, kind, value)
    }

    fn admits(&self) -> bool {
        self.inner.admits()
    }

    fn add_space_listener(&self, listener: SpaceListener) {
        self.inner.add_space_listener(listener);
    }

    fn wait_space(&self) {
        self.inner.wait_space();
    }

    fn sender_full(&self) -> u64 {
        self.inner.sender_full()
    }
}

/// Delays cumulative acks per the plan: each ack is released only after
/// `delay` newer acks arrive (or [`AckGate::flush`] is called).
pub struct AckGate {
    delay: u64,
    held: Mutex<VecDeque<u64>>,
    deliver: Box<dyn Fn(u64) + Send + Sync>,
}

impl AckGate {
    /// Gate delivering acks to `deliver`, delaying them by `delay`.
    pub fn new(delay: u64, deliver: impl Fn(u64) + Send + Sync + 'static) -> Self {
        AckGate { delay, held: Mutex::new(VecDeque::new()), deliver: Box::new(deliver) }
    }

    /// Offer an ack; releases the oldest held ack once more than `delay`
    /// are pending.
    pub fn ack(&self, cum_msg_seq: u64) {
        let mut held = self.held.lock();
        held.push_back(cum_msg_seq);
        while held.len() as u64 > self.delay {
            let v = held.pop_front().expect("len > delay >= 0");
            (self.deliver)(v);
        }
    }

    /// Release everything still held (end of run).
    pub fn flush(&self) {
        let mut held = self.held.lock();
        while let Some(v) = held.pop_front() {
            (self.deliver)(v);
        }
    }

    /// Acks currently held back.
    pub fn pending(&self) -> usize {
        self.held.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use neptune_net::frame::FrameHeader;
    use parking_lot::Mutex as PlMutex;

    /// Records delivered frames; never fails.
    #[derive(Default)]
    struct SinkSpy {
        frames: PlMutex<Vec<u64>>,
        controls: PlMutex<Vec<(ControlKind, u64)>>,
    }

    impl FrameLink for SinkSpy {
        fn send_frame(&self, f: &OutboundFrame) -> Result<usize, TransportError> {
            self.frames.lock().push(f.header.seq.expect("chaos tests send sequenced frames"));
            Ok(f.encoded.len())
        }
        fn send_control(
            &self,
            _l: u64,
            kind: ControlKind,
            value: u64,
        ) -> Result<(), TransportError> {
            self.controls.lock().push((kind, value));
            Ok(())
        }
    }

    fn of(seq: u64) -> OutboundFrame {
        let header = FrameHeader {
            link_id: 1,
            seq: Some(seq),
            base_seq: seq,
            count: 1,
            ..FrameHeader::default()
        };
        OutboundFrame { header, encoded: Bytes::from_static(&[1, 0, 0, 0, 9]) }
    }

    #[test]
    fn cut_window_fails_then_heals() {
        let plan = FaultPlan::new(1).with_event(FaultEvent::CutLink {
            link_id: 1,
            at_frame: 2,
            down_for: 3,
        });
        let spy = Arc::new(SinkSpy::default());
        let chaos = ChaosLink::new(spy.clone(), &plan, 1);
        let mut results = Vec::new();
        for i in 0..8u64 {
            results.push(chaos.send_frame(&of(i)).is_ok());
        }
        assert_eq!(results, [true, true, false, false, false, true, true, true]);
        assert_eq!(chaos.injected_failures(), 3);
        assert_eq!(*spy.frames.lock(), vec![0, 1, 5, 6, 7]);
    }

    #[test]
    fn control_fails_inside_window_without_advancing_it() {
        let plan = FaultPlan::new(1).with_event(FaultEvent::CutLink {
            link_id: 1,
            at_frame: 1,
            down_for: 2,
        });
        let spy = Arc::new(SinkSpy::default());
        let chaos = ChaosLink::new(spy.clone(), &plan, 1);
        chaos.send_frame(&of(0)).unwrap(); // attempt 0: ok, counter now 1
        assert!(chaos.send_control(1, ControlKind::Heartbeat, 0).is_err());
        assert!(chaos.send_control(1, ControlKind::Heartbeat, 1).is_err());
        assert!(chaos.send_frame(&of(1)).is_err()); // attempt 1
        assert!(chaos.send_frame(&of(1)).is_err()); // attempt 2
        assert!(chaos.send_frame(&of(1)).is_ok()); // attempt 3: healed
        assert!(chaos.send_control(1, ControlKind::Heartbeat, 2).is_ok());
    }

    #[test]
    fn other_links_are_untouched() {
        let plan = FaultPlan::new(1).with_event(FaultEvent::CutLink {
            link_id: 9,
            at_frame: 0,
            down_for: 100,
        });
        let spy = Arc::new(SinkSpy::default());
        let chaos = ChaosLink::new(spy, &plan, 1);
        for i in 0..5 {
            chaos.send_frame(&of(i)).unwrap();
        }
        assert_eq!(chaos.injected_failures(), 0);
    }

    #[test]
    fn plan_queries() {
        let plan = FaultPlan::new(7)
            .with_event(FaultEvent::CutLink { link_id: 1, at_frame: 10, down_for: 5 })
            .with_event(FaultEvent::KillNode { node: 3, at_step: 100 })
            .with_event(FaultEvent::KillNode { node: 1, at_step: 50 })
            .with_event(FaultEvent::DelayAcks { link_id: 1, by: 4 });
        assert_eq!(plan.cut_windows(1), vec![(10, 15)]);
        assert!(plan.cut_windows(2).is_empty());
        assert_eq!(plan.dead_nodes_at(49), Vec::<usize>::new());
        assert_eq!(plan.dead_nodes_at(50), vec![1]);
        assert_eq!(plan.dead_nodes_at(200), vec![1, 3]);
        assert_eq!(plan.ack_delay(1), 4);
        assert_eq!(plan.ack_delay(2), 0);
    }

    #[test]
    fn jitter_is_deterministic_and_ranged() {
        let a = FaultPlan::new(11);
        let b = FaultPlan::new(11);
        let c = FaultPlan::new(12);
        for s in 0..20u64 {
            let v = a.jitter(s, 100, 200);
            assert!((100..200).contains(&v));
            assert_eq!(v, b.jitter(s, 100, 200));
        }
        assert!((0..20u64).any(|s| a.jitter(s, 0, 1 << 30) != c.jitter(s, 0, 1 << 30)));
    }

    #[test]
    fn ack_gate_delays_then_flushes() {
        let seen = Arc::new(PlMutex::new(Vec::new()));
        let s = seen.clone();
        let gate = AckGate::new(2, move |v| s.lock().push(v));
        gate.ack(10);
        gate.ack(20);
        assert!(seen.lock().is_empty(), "both held");
        gate.ack(30);
        assert_eq!(*seen.lock(), vec![10]);
        gate.flush();
        assert_eq!(*seen.lock(), vec![10, 20, 30]);
        assert_eq!(gate.pending(), 0);
    }
}
