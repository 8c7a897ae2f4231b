//! Watermark-bounded inbound buffers — the heart of NEPTUNE's backpressure
//! (§III-B4 of the paper).
//!
//! *"For each inbound buffer of a stream processor, we maintain high and
//! low watermarks. Once the buffer is filled up to the high watermark, the
//! IO worker threads are not allowed to write to the buffer unless the
//! buffer contents are consumed by the worker threads and the buffer usage
//! reaches the low watermark level."*
//!
//! [`WatermarkQueue`] implements exactly that hysteresis: a byte-weighted
//! queue where producers block at the *high* watermark and stay blocked
//! until consumers drain it to the *low* watermark. The gap between the two
//! prevents the system from *"oscillating between the two states rapidly"*.
//! On the TCP transport a blocked reader thread stops draining its socket,
//! the kernel receive buffer fills, the TCP window closes, and the
//! sender's writes stall — propagating pressure upstream hop by hop, which
//! is what Fig. 4 of the paper demonstrates end to end.

//!
//! Tasks subscribe to the *release* edge of that hysteresis:
//! [`WatermarkQueue::add_gate_listener`] registers a callback fired when
//! the gate opens (or the queue closes). A producer task asks
//! [`WatermarkQueue::is_gated`] or is refused by
//! [`WatermarkQueue::try_push`], parks, and is woken by the listener. A
//! thread that is its own — a probe, a test — waits the same edge out in
//! [`WatermarkQueue::push_blocking`].
//!
//! The queue never drops an item it was handed: backpressure is the only
//! overload answer inside the graph. Shedding, where a job opts in, happens
//! at the source, before a packet is encoded (`ContainmentConfig::max_stall`
//! in `neptune-core`).

use neptune_granules::sync::{Condvar, Mutex};
use neptune_telemetry::{EventKind, FlightRecorder};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items stored in a watermark queue report their size in bytes, because
/// watermarks bound *memory*, not message counts.
pub trait Weighted {
    /// Size of this item for watermark accounting, in bytes.
    fn weight(&self) -> usize;
}

impl Weighted for Vec<u8> {
    fn weight(&self) -> usize {
        self.len()
    }
}

impl Weighted for crate::frame::Frame {
    fn weight(&self) -> usize {
        self.wire_len
    }
}

/// High/low watermark configuration, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatermarkConfig {
    /// Producers block once buffered bytes reach this level.
    pub high: usize,
    /// Blocked producers resume once buffered bytes drain to this level.
    pub low: usize,
}

impl WatermarkConfig {
    /// Validated constructor: `0 <= low < high`.
    pub fn new(high: usize, low: usize) -> Self {
        assert!(high > 0, "high watermark must be positive");
        assert!(low < high, "low watermark ({low}) must be below high ({high})");
        WatermarkConfig { high, low }
    }

    /// The paper's guidance: watermarks "set sufficiently apart" — default
    /// low is half of high.
    pub fn with_high(high: usize) -> Self {
        Self::new(high, high / 2)
    }
}

/// Why a push could not enqueue its item. The item is handed back so the
/// caller can retry, replay, or quarantine it.
///
/// Supervisors need the distinction: [`PushError::Closed`] means the job is
/// shutting down (stop retrying), while [`PushError::Gated`] means the
/// consumer is merely behind (backpressure — park and retry later).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue was closed ([`WatermarkQueue::close`]) — shutdown, not
    /// backpressure. The item is handed back.
    Closed(T),
    /// The queue is gated at the high watermark — backpressure, not
    /// shutdown. Returned by [`WatermarkQueue::try_push`];
    /// `push_blocking` never returns it (it waits the gate out).
    Gated(T),
}

impl<T> PushError<T> {
    /// Recover the item that could not be enqueued.
    pub fn into_item(self) -> T {
        match self {
            PushError::Closed(item) | PushError::Gated(item) => item,
        }
    }

    /// True when the failure was a shutdown, not backpressure.
    pub fn is_closed(&self) -> bool {
        matches!(self, PushError::Closed(_))
    }

    /// True when the failure was backpressure, not shutdown.
    pub fn is_gated(&self) -> bool {
        matches!(self, PushError::Gated(_))
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    level: usize,
    /// True between hitting the high watermark and draining to the low one.
    gated: bool,
    /// When the current gating episode began; `None` while the gate is
    /// open. Timelined as the gated time of [`EventKind::GateOpened`].
    gated_since: Option<Instant>,
    closed: bool,
    /// Set when the gate opened under the lock; the public entry points
    /// fire the listeners *after* releasing it (listeners may take other
    /// locks, e.g. an IO pool's ready queue).
    release_pending: bool,
}

/// Byte-weighted MPMC queue with high/low watermark flow control.
pub struct WatermarkQueue<T: Weighted> {
    state: Mutex<QueueState<T>>,
    /// Mirror of `QueueState::gated`, written under the state lock at each
    /// transition ([`set_gated`](Self::set_gated)) so producers can poll
    /// the gate per packet without taking the lock consumers pop under.
    gated: AtomicBool,
    not_full: Condvar,
    not_empty: Condvar,
    config: WatermarkConfig,
    pushed: AtomicU64,
    popped: AtomicU64,
    /// Number of times a producer had to block at the high watermark.
    gate_events: AtomicU64,
    /// Number of times the gate closed (the edge, whoever was there to
    /// see it): what backpressure looks like when producers park their
    /// tasks instead of blocking in a push.
    gate_closures: AtomicU64,
    /// Callbacks fired when the gate opens or the queue closes.
    gate_listeners: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
    /// Optional flight recorder timelining gate transitions; the
    /// `u64` is the subject id events are recorded under. Locked only on
    /// the (rare) transition edges, never on the per-item fast path.
    recorder: Mutex<Option<(Arc<FlightRecorder>, u64)>>,
}

impl<T: Weighted> WatermarkQueue<T> {
    /// New queue with the given watermark configuration.
    pub fn new(config: WatermarkConfig) -> Self {
        WatermarkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                level: 0,
                gated: false,
                gated_since: None,
                closed: false,
                release_pending: false,
            }),
            gated: AtomicBool::new(false),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            config,
            pushed: AtomicU64::new(0),
            popped: AtomicU64::new(0),
            gate_events: AtomicU64::new(0),
            gate_closures: AtomicU64::new(0),
            gate_listeners: Mutex::new(Vec::new()),
            recorder: Mutex::new(None),
        }
    }

    /// Attach a flight recorder: gate close/open transitions are timelined
    /// as [`EventKind::GateClosed`] (detail = buffered bytes) and
    /// [`EventKind::GateOpened`] (detail = gated microseconds), with
    /// `subject` identifying this queue.
    pub fn attach_recorder(&self, recorder: Arc<FlightRecorder>, subject: u64) {
        *self.recorder.lock() = Some((recorder, subject));
    }

    #[inline]
    fn record_event(&self, kind: EventKind, detail: u64) {
        if let Some((r, subject)) = self.recorder.lock().as_ref() {
            r.record(kind, *subject, detail);
        }
    }

    /// Register a callback fired whenever the gate opens (drain reached the
    /// low watermark) or the queue closes. This is the capacity-event hook
    /// the IO tier uses to wake parked producers; callbacks must be cheap
    /// and must not re-enter the queue.
    pub fn add_gate_listener(&self, f: impl Fn() + Send + Sync + 'static) {
        self.gate_listeners.lock().push(Arc::new(f));
    }

    fn fire_gate_listeners(&self) {
        let listeners: Vec<_> = self.gate_listeners.lock().clone();
        for l in listeners {
            l();
        }
    }

    /// The configured watermarks.
    pub fn config(&self) -> WatermarkConfig {
        self.config
    }

    /// Bytes currently buffered.
    pub fn level(&self) -> usize {
        self.state.lock().level
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.state.lock().items.is_empty()
    }

    /// True while producers are gated (between high and low watermark).
    ///
    /// Lock-free. An open gate costs one load. "Gated" is the answer a
    /// producer task parks on, so it is confirmed behind a `SeqCst` fence
    /// paired with the one in `set_gated`: either this
    /// read sees the release, or the gate listener's wake (fired after the
    /// release) sees the task running and flags it to run again — the
    /// ordering the state lock used to give.
    pub fn is_gated(&self) -> bool {
        if !self.gated.load(Ordering::Acquire) {
            return false;
        }
        fence(Ordering::SeqCst);
        self.gated.load(Ordering::Acquire)
    }

    /// Flip the gate: the locked flag and its lock-free mirror together.
    fn set_gated(&self, st: &mut QueueState<T>, gated: bool) {
        st.gated = gated;
        st.gated_since = gated.then(Instant::now);
        if gated {
            self.gate_closures.fetch_add(1, Ordering::Relaxed);
        }
        self.gated.store(gated, Ordering::Release);
        fence(Ordering::SeqCst);
    }

    /// Items pushed over the queue's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Items popped over the queue's lifetime.
    pub fn total_popped(&self) -> u64 {
        self.popped.load(Ordering::Relaxed)
    }

    /// How many times a producer blocked at the high watermark.
    pub fn gate_events(&self) -> u64 {
        self.gate_events.load(Ordering::Relaxed)
    }

    /// How many times the gate closed. Unlike
    /// [`gate_events`](Self::gate_events) this ticks whether or not a
    /// producer was blocked in a push at the time — a parked task, a
    /// reader that stopped re-arming its socket and a blocked thread all
    /// look the same from here.
    pub fn gate_closures(&self) -> u64 {
        self.gate_closures.load(Ordering::Relaxed)
    }

    /// Push, blocking while the queue is gated. Returns
    /// [`PushError::Closed`] if the queue was closed — `push_blocking`
    /// never fails with backpressure; it waits the gate out. For threads
    /// that are their own; a task asks [`try_push`](Self::try_push) and
    /// parks on a gate listener instead.
    pub fn push_blocking(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.state.lock();
        if st.gated && !st.closed {
            self.gate_events.fetch_add(1, Ordering::Relaxed);
            while st.gated && !st.closed {
                self.not_full.wait(&mut st);
            }
        }
        if st.closed {
            return Err(PushError::Closed(item));
        }
        self.finish_push(&mut st, item);
        Ok(())
    }

    /// Non-blocking push. [`PushError::Gated`] under backpressure,
    /// [`PushError::Closed`] after shutdown.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.gated {
            return Err(PushError::Gated(item));
        }
        self.finish_push(&mut st, item);
        Ok(())
    }

    /// Open the gate if a pop drained us to the low watermark.
    fn maybe_release(&self, st: &mut QueueState<T>) {
        if st.gated && st.level <= self.config.low {
            let gated_for =
                st.gated_since.map(|since| since.elapsed().as_micros() as u64).unwrap_or(0);
            self.set_gated(st, false);
            st.release_pending = true;
            self.not_full.notify_all();
            self.record_event(EventKind::GateOpened, gated_for);
        }
    }

    fn finish_push(&self, st: &mut QueueState<T>, item: T) {
        st.level += item.weight();
        st.items.push_back(item);
        if st.level >= self.config.high && !st.gated {
            self.set_gated(st, true);
            self.record_event(EventKind::GateClosed, st.level as u64);
        }
        self.pushed.fetch_add(1, Ordering::Relaxed);
        self.not_empty.notify_one();
    }

    /// Pop one item without blocking.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock();
        let item = self.finish_pop(&mut st);
        let fire = std::mem::take(&mut st.release_pending);
        drop(st);
        if fire {
            self.fire_gate_listeners();
        }
        item
    }

    /// Pop one item, blocking up to `timeout`. `None` on timeout or close.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut st = self.state.lock();
        if st.items.is_empty() && !st.closed {
            self.not_empty.wait_for(&mut st, timeout);
        }
        let item = self.finish_pop(&mut st);
        let fire = std::mem::take(&mut st.release_pending);
        drop(st);
        if fire {
            self.fire_gate_listeners();
        }
        item
    }

    /// Pop up to `max` items onto the end of `out`; returns how many were
    /// popped. This is the batch-drain processor tasks use: one lock
    /// acquisition per batch of frames, not per packet.
    pub fn pop_batch(&self, max: usize, out: &mut impl Extend<T>) -> usize {
        let mut st = self.state.lock();
        let mut n = 0;
        while n < max {
            match self.finish_pop(&mut st) {
                Some(item) => {
                    out.extend(Some(item));
                    n += 1;
                }
                None => break,
            }
        }
        let fire = std::mem::take(&mut st.release_pending);
        drop(st);
        if fire {
            self.fire_gate_listeners();
        }
        n
    }

    fn finish_pop(&self, st: &mut QueueState<T>) -> Option<T> {
        let item = st.items.pop_front()?;
        st.level -= item.weight();
        self.popped.fetch_add(1, Ordering::Relaxed);
        self.maybe_release(st);
        Some(item)
    }

    /// Close the queue: blocked producers fail, consumers drain the rest.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
        drop(st);
        // Close is a capacity event too: parked producers must wake to
        // observe the closure instead of waiting on a gate that will never
        // open.
        self.fire_gate_listeners();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::wait_for;
    use std::time::Instant;

    fn item(n: usize) -> Vec<u8> {
        vec![0u8; n]
    }

    #[test]
    fn config_validation() {
        let c = WatermarkConfig::new(100, 50);
        assert_eq!(c.high, 100);
        assert_eq!(c.low, 50);
        let d = WatermarkConfig::with_high(1000);
        assert_eq!(d.low, 500);
    }

    #[test]
    #[should_panic(expected = "below high")]
    fn low_must_be_below_high() {
        WatermarkConfig::new(100, 100);
    }

    #[test]
    fn fifo_order_preserved() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(1 << 20, 0));
        for i in 0..10u8 {
            q.push_blocking(vec![i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(q.pop().unwrap(), vec![i]);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn gates_at_high_watermark() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(100, 40));
        q.push_blocking(item(60)).unwrap();
        assert!(!q.is_gated());
        q.push_blocking(item(60)).unwrap(); // level 120 >= 100
        assert!(q.is_gated());
        assert!(q.try_push(item(1)).is_err());
    }

    #[test]
    fn hysteresis_releases_at_low_not_below_high() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(100, 40));
        q.push_blocking(item(50)).unwrap();
        q.push_blocking(item(50)).unwrap(); // gated at 100
        assert!(q.is_gated());
        q.pop().unwrap(); // level 50: still above low -> still gated
        assert!(q.is_gated(), "must stay gated until low watermark");
        q.pop().unwrap(); // level 0 <= 40 -> released
        assert!(!q.is_gated());
        assert!(q.try_push(item(1)).is_ok());
    }

    #[test]
    fn blocked_producer_resumes_after_drain() {
        let q = Arc::new(WatermarkQueue::<Vec<u8>>::new(WatermarkConfig::new(100, 10)));
        q.push_blocking(item(100)).unwrap(); // gated
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push_blocking(item(10)).unwrap());
        // The gate-event counter ticks before the producer blocks, so once
        // it reads 1 the push is provably parked at the gate.
        assert!(wait_for(Duration::from_secs(5), || q.gate_events() == 1));
        assert_eq!(q.len(), 1, "producer must still be blocked");
        q.pop().unwrap(); // drains to 0 <= low, releases producer
        producer.join().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.gate_events(), 1);
    }

    #[test]
    fn closures_count_the_closing_edge_whoever_is_there_to_see_it() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(100, 40));
        assert_eq!(q.gate_closures(), 0);
        q.push_blocking(item(120)).unwrap(); // closes
        assert!(q.try_push(item(1)).is_err()); // refused: no new edge
        assert!(q.try_push(item(1)).is_err());
        assert_eq!(q.gate_closures(), 1, "one episode, however many were turned away");
        q.pop().unwrap(); // reopens
        q.push_blocking(item(120)).unwrap(); // closes again
        assert_eq!(q.gate_closures(), 2);
        // Nobody blocked in a push, but backpressure engaged twice: that
        // is what the closure count is for.
        assert_eq!(q.gate_events(), 0, "a refused try_push is not a blocked producer");
    }

    #[test]
    fn pop_timeout_returns_none_when_idle() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(100, 10));
        let t0 = Instant::now();
        assert!(q.pop_timeout(Duration::from_millis(10)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn pop_timeout_wakes_on_push() {
        let q = Arc::new(WatermarkQueue::<Vec<u8>>::new(WatermarkConfig::new(100, 10)));
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(5));
        q.push_blocking(item(3)).unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got.unwrap().len(), 3);
    }

    #[test]
    fn pop_batch_drains_up_to_max() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(1 << 20, 0));
        for _ in 0..10 {
            q.push_blocking(item(4)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(6, &mut out), 6);
        assert_eq!(out.len(), 6);
        assert_eq!(q.pop_batch(100, &mut out), 4);
        assert_eq!(q.pop_batch(1, &mut out), 0);
    }

    #[test]
    fn close_fails_blocked_producers_and_drains_consumers() {
        let q = Arc::new(WatermarkQueue::<Vec<u8>>::new(WatermarkConfig::new(10, 1)));
        q.push_blocking(item(10)).unwrap(); // gated
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push_blocking(item(1)));
        assert!(wait_for(Duration::from_secs(5), || q.gate_events() == 1));
        q.close();
        assert!(producer.join().unwrap().is_err(), "blocked producer must fail on close");
        // Remaining items still drain.
        assert_eq!(q.pop().unwrap().len(), 10);
        assert!(q.pop().is_none());
        assert!(q.push_blocking(item(1)).is_err());
    }

    #[test]
    fn gate_listener_fires_on_release_and_close() {
        let q = Arc::new(WatermarkQueue::<Vec<u8>>::new(WatermarkConfig::new(100, 40)));
        let events = Arc::new(AtomicU64::new(0));
        let e = events.clone();
        q.add_gate_listener(move || {
            e.fetch_add(1, Ordering::Relaxed);
        });
        q.push_blocking(item(120)).unwrap();
        assert!(q.is_gated());
        assert_eq!(events.load(Ordering::Relaxed), 0, "no event while gated");
        q.pop().unwrap(); // level 0 <= low: gate opens
        assert_eq!(events.load(Ordering::Relaxed), 1, "release edge must fire");
        q.push_blocking(item(10)).unwrap();
        q.pop().unwrap(); // never gated: no edge
        assert_eq!(events.load(Ordering::Relaxed), 1);
        q.close();
        assert_eq!(events.load(Ordering::Relaxed), 2, "close is a capacity event");
    }

    #[test]
    fn recorder_timelines_gate_transitions() {
        let recorder = Arc::new(FlightRecorder::new(32));
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(10, 4));
        q.attach_recorder(recorder.clone(), 7);
        q.push_blocking(item(10)).unwrap(); // gate closes
        q.pop().unwrap(); // gate opens
        assert!(recorder.contains_sequence(&[EventKind::GateClosed, EventKind::GateOpened]));
        let events = recorder.snapshot();
        let closed = events.iter().find(|e| e.kind == EventKind::GateClosed).unwrap();
        assert_eq!(closed.subject, 7);
        assert_eq!(closed.detail, 10, "detail carries buffered bytes at close");
    }

    #[test]
    fn counters_track_traffic() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(1000, 100));
        for _ in 0..5 {
            q.push_blocking(item(10)).unwrap();
        }
        q.pop().unwrap();
        assert_eq!(q.total_pushed(), 5);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.level(), 40);
    }

    #[test]
    fn try_push_distinguishes_gated_from_closed() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(10, 1));
        q.push_blocking(item(10)).unwrap(); // gated
        let err = q.try_push(item(1)).unwrap_err();
        assert!(err.is_gated() && !err.is_closed(), "backpressure, not shutdown: {err:?}");
        assert_eq!(err.into_item().len(), 1, "the refused item is handed back");
        q.close();
        let err = q.try_push(item(2)).unwrap_err();
        assert!(err.is_closed() && !err.is_gated(), "shutdown, not backpressure: {err:?}");
        assert_eq!(err.into_item().len(), 2);
    }

    /// The lock-free mirror and the locked flag, read together.
    fn gate_views(q: &WatermarkQueue<Vec<u8>>) -> (bool, bool) {
        let st = q.state.lock();
        (q.gated.load(Ordering::Acquire), st.gated)
    }

    #[test]
    fn lock_free_gate_agrees_with_locked_state_at_every_transition() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(100, 40));
        assert_eq!(gate_views(&q), (false, false));
        q.push_blocking(item(60)).unwrap();
        assert_eq!(gate_views(&q), (false, false), "below high");
        q.push_blocking(item(60)).unwrap();
        assert_eq!(gate_views(&q), (true, true), "push to high closes");
        assert!(q.is_gated());
        q.pop().unwrap();
        assert_eq!(gate_views(&q), (true, true), "60 > low: still closed");
        q.pop().unwrap();
        assert_eq!(gate_views(&q), (false, false), "pop to low opens");
        assert!(!q.is_gated());
        // A batch pop that drains through low opens the gate once.
        q.push_blocking(item(50)).unwrap();
        q.push_blocking(item(50)).unwrap();
        assert_eq!(gate_views(&q), (true, true));
        assert_eq!(q.pop_batch(2, &mut Vec::new()), 2);
        assert_eq!(gate_views(&q), (false, false), "batch pop to low opens");
        // close() leaves the gate as it found it, in both views.
        q.push_blocking(item(100)).unwrap();
        assert_eq!(gate_views(&q), (true, true));
        q.close();
        assert_eq!(gate_views(&q), (true, true));
        assert!(q.is_gated());
    }

    #[test]
    fn lock_free_gate_tracks_the_lock_under_a_push_pop_hammer() {
        let q = Arc::new(WatermarkQueue::<Vec<u8>>::new(WatermarkConfig::new(256, 64)));
        const ITEMS: usize = 20_000;
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for _ in 0..ITEMS {
                    q.push_blocking(item(16)).unwrap();
                }
            })
        };
        let mut popped = 0;
        while popped < ITEMS {
            if q.pop_timeout(Duration::from_secs(5)).is_some() {
                popped += 1;
            }
            // Both views under the lock: they may only ever differ while a
            // transition holds it, which this read excludes.
            let (mirror, locked) = gate_views(&q);
            assert_eq!(mirror, locked, "mirror diverged after {popped} pops");
        }
        producer.join().unwrap();
        assert!(q.gate_events() > 0, "the hammer never reached the high watermark");
        assert_eq!(gate_views(&q), (false, false));
    }

    #[test]
    fn stress_producers_and_consumers_no_loss() {
        let q = Arc::new(WatermarkQueue::<Vec<u8>>::new(WatermarkConfig::new(4096, 1024)));
        const PER_PRODUCER: usize = 2000;
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for _ in 0..PER_PRODUCER {
                        q.push_blocking(item(16)).unwrap();
                    }
                })
            })
            .collect();
        let consumed = Arc::new(AtomicU64::new(0));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                let consumed = consumed.clone();
                std::thread::spawn(move || loop {
                    match q.pop_timeout(Duration::from_millis(200)) {
                        Some(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if consumed.load(Ordering::Relaxed) == (4 * PER_PRODUCER) as u64 {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(q.total_pushed(), (4 * PER_PRODUCER) as u64);
        assert_eq!(q.total_popped(), (4 * PER_PRODUCER) as u64);
        assert_eq!(q.level(), 0);
    }
}
