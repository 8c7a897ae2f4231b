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
//! The IO tier subscribes to the *release* edge of that hysteresis:
//! [`WatermarkQueue::add_gate_listener`] registers a callback fired when
//! the gate opens (or the queue closes), which is how parked source-pump
//! tasks are woken by capacity events instead of polling the gate. A
//! producer that owns its thread waits the same edge out in
//! [`WatermarkQueue::push_blocking`] or [`WatermarkQueue::wait_open`]; one
//! that does not asks [`WatermarkQueue::is_gated`], parks its task, and is
//! woken by the listener.

use neptune_telemetry::{EventKind, FlightRecorder};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items stored in a watermark queue report their size in bytes, because
/// watermarks bound *memory*, not message counts.
pub trait Weighted {
    /// Size of this item for watermark accounting, in bytes.
    fn weight(&self) -> usize;

    /// Whether a [`ShedPolicy`] may sacrifice this item. Control-plane
    /// items (checkpoint barriers, acks, heartbeats) return `false`:
    /// dropping a barrier would wedge checkpoint alignment forever, and
    /// shedding exists to bound *data* latency, not to lose signalling.
    /// Non-sheddable items are still weighed — they occupy watermark
    /// budget like everything else — they just survive every policy.
    fn sheddable(&self) -> bool {
        true
    }
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

    /// Control frames ([`crate::frame::Frame::control`]) are exempt from
    /// load shedding.
    fn sheddable(&self) -> bool {
        self.control.is_none()
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
    /// shutdown. Returned by the non-blocking and bounded-wait push paths;
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

/// What a successful push did with the item. Anything other than
/// [`Pushed::Enqueued`] means the queue's [`ShedPolicy`] degraded service
/// to keep latency bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushed {
    /// The item was enqueued normally.
    Enqueued,
    /// The incoming item itself was shed (dropped) by `DropNewest` or the
    /// probabilistic policy.
    Shed,
    /// The item was enqueued after evicting this many older items
    /// (`DropOldest`).
    Evicted(usize),
}

impl Pushed {
    /// True unless the incoming item was dropped.
    pub fn accepted(&self) -> bool {
        !matches!(self, Pushed::Shed)
    }
}

/// Load-shedding policy applied by [`WatermarkQueue::push_blocking`] once
/// the gate has been closed for longer than [`ShedConfig::max_stall`].
///
/// The paper's backpressure (§III-B4) is lossless: producers block until
/// consumers drain. That remains the default ([`ShedPolicy::None`]).
/// Shedding is an explicit opt-in degradation mode for sources that cannot
/// be throttled (IoT sensors keep sensing): it bounds producer-side latency
/// by sacrificing data, and every sacrificed item is counted in
/// [`WatermarkQueue::shed_total`] / [`WatermarkQueue::shed_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Lossless backpressure (the paper's semantics): block until drained.
    None,
    /// Drop the incoming item; queued items are preserved. Favours data
    /// already in flight (oldest-first delivery).
    DropNewest,
    /// Evict queued items from the front until the incoming item fits below
    /// the high watermark, then enqueue it. Favours fresh data — the right
    /// choice when stale sensor readings are worthless.
    DropOldest,
    /// Drop the incoming item with probability proportional to occupancy
    /// above the low watermark (`p = (level - low) / (high - low)`,
    /// clamped to [0, 1]), using a deterministic xorshift stream seeded
    /// here. Smooths degradation instead of hard-dropping everything.
    Probabilistic {
        /// Seed for the deterministic drop-decision stream.
        seed: u64,
    },
}

/// When and how a queue sheds. Constructed via [`ShedConfig::disabled`] by
/// default; pass a policy to [`WatermarkQueue::with_shed`] to opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedConfig {
    /// What to drop once armed.
    pub policy: ShedPolicy,
    /// How long the gate must stay continuously closed before the policy
    /// arms. Below this threshold producers block losslessly, so brief
    /// bursts are absorbed exactly as the paper describes.
    pub max_stall: Duration,
}

impl ShedConfig {
    /// Lossless default: never shed.
    pub fn disabled() -> Self {
        ShedConfig { policy: ShedPolicy::None, max_stall: Duration::from_secs(1) }
    }

    /// Shed with `policy` after the gate has been closed for `max_stall`.
    pub fn new(policy: ShedPolicy, max_stall: Duration) -> Self {
        ShedConfig { policy, max_stall }
    }
}

impl Default for ShedConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

struct QueueState<T> {
    items: VecDeque<T>,
    level: usize,
    /// True between hitting the high watermark and draining to the low one.
    gated: bool,
    /// When the current gating episode began; `None` while the gate is
    /// open. Drives [`ShedConfig::max_stall`] arming.
    gated_since: Option<Instant>,
    closed: bool,
    /// Set when the gate opened under the lock; the public entry points
    /// fire the listeners *after* releasing it (listeners may take other
    /// locks, e.g. an IO pool's ready queue).
    release_pending: bool,
    /// Deterministic xorshift state for `ShedPolicy::Probabilistic`.
    shed_rng: u64,
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
    shed: ShedConfig,
    pushed: AtomicU64,
    popped: AtomicU64,
    /// Number of times a producer had to block at the high watermark.
    gate_events: AtomicU64,
    /// Number of times the gate closed (the edge, whoever was there to
    /// see it): what backpressure looks like when producers park their
    /// tasks instead of blocking in a push.
    gate_closures: AtomicU64,
    /// Items sacrificed by the shed policy over the queue's lifetime.
    shed_total: AtomicU64,
    /// Bytes sacrificed by the shed policy over the queue's lifetime.
    shed_bytes: AtomicU64,
    /// Callbacks fired when the gate opens or the queue closes.
    gate_listeners: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
    /// Optional flight recorder timelining gate/shed transitions; the
    /// `u64` is the subject id events are recorded under. Locked only on
    /// the (rare) transition edges, never on the per-item fast path.
    recorder: Mutex<Option<(Arc<FlightRecorder>, u64)>>,
}

impl<T: Weighted> WatermarkQueue<T> {
    /// New queue with the given watermark configuration and lossless
    /// backpressure (no shedding).
    pub fn new(config: WatermarkConfig) -> Self {
        Self::with_shed(config, ShedConfig::disabled())
    }

    /// New queue that degrades per `shed` once the gate has been closed
    /// longer than [`ShedConfig::max_stall`].
    pub fn with_shed(config: WatermarkConfig, shed: ShedConfig) -> Self {
        let seed = match shed.policy {
            ShedPolicy::Probabilistic { seed } if seed != 0 => seed,
            _ => 0x9E37_79B9_7F4A_7C15,
        };
        WatermarkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                level: 0,
                gated: false,
                gated_since: None,
                closed: false,
                release_pending: false,
                shed_rng: seed,
            }),
            gated: AtomicBool::new(false),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            config,
            shed,
            pushed: AtomicU64::new(0),
            popped: AtomicU64::new(0),
            gate_events: AtomicU64::new(0),
            gate_closures: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            shed_bytes: AtomicU64::new(0),
            gate_listeners: Mutex::new(Vec::new()),
            recorder: Mutex::new(None),
        }
    }

    /// Attach a flight recorder: gate close/open and shed transitions are
    /// timelined as [`EventKind::GateClosed`] (detail = buffered bytes),
    /// [`EventKind::GateOpened`] (detail = gated microseconds) and
    /// [`EventKind::Shed`] (detail = bytes sacrificed), with `subject`
    /// identifying this queue.
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
    /// paired with the one in [`set_gated`](Self::set_gated): either this
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

    /// Items sacrificed by the shed policy (evicted or dropped).
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Bytes sacrificed by the shed policy (evicted or dropped).
    pub fn shed_bytes(&self) -> u64 {
        self.shed_bytes.load(Ordering::Relaxed)
    }

    /// The configured shed policy.
    pub fn shed_config(&self) -> ShedConfig {
        self.shed
    }

    /// True when this queue may sacrifice items under sustained gating
    /// (its policy is not [`ShedPolicy::None`]). Producers that normally
    /// park on a closed gate should keep pushing into a shedding queue:
    /// the push itself blocks no longer than `max_stall` before the
    /// policy degrades instead of waiting.
    pub fn sheds(&self) -> bool {
        self.shed.policy != ShedPolicy::None
    }

    /// Push, blocking while the queue is gated. Returns
    /// [`PushError::Closed`] if the queue was closed — `push_blocking`
    /// never fails with backpressure; it waits the gate out (or, with a
    /// non-`None` [`ShedPolicy`] armed after `max_stall`, degrades instead
    /// of waiting forever).
    pub fn push_blocking(&self, item: T) -> Result<Pushed, PushError<T>> {
        self.push_bounded(item, None)
    }

    /// Push, blocking at the gate for at most `timeout`. Returns
    /// [`PushError::Gated`] (item handed back) if the gate stayed closed
    /// for the whole wait — the caller can now tell backpressure apart
    /// from shutdown ([`PushError::Closed`]).
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<Pushed, PushError<T>> {
        self.push_bounded(item, Some(timeout))
    }

    /// Block until the gate is open or the queue closed, without pushing:
    /// the waiting half of "try, else wait for the space signal" for a
    /// producer that owns its thread and keeps what it could not push
    /// somewhere of its own. Counts as a gate event when it had to wait.
    pub fn wait_open(&self) {
        let mut st = self.state.lock();
        if st.gated && !st.closed {
            self.gate_events.fetch_add(1, Ordering::Relaxed);
            while st.gated && !st.closed {
                self.not_full.wait(&mut st);
            }
        }
    }

    fn push_bounded(&self, item: T, timeout: Option<Duration>) -> Result<Pushed, PushError<T>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.state.lock();
        if st.gated && !st.closed {
            self.gate_events.fetch_add(1, Ordering::Relaxed);
            while st.gated && !st.closed {
                let mut wait = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if self.shed.policy != ShedPolicy::None {
                    // Gate raced open between the loop check and here.
                    let Some(since) = st.gated_since else { continue };
                    let stalled = since.elapsed();
                    if stalled >= self.shed.max_stall {
                        let outcome = self.shed_push(&mut st, item);
                        let fire = std::mem::take(&mut st.release_pending);
                        drop(st);
                        if fire {
                            self.fire_gate_listeners();
                        }
                        return Ok(outcome);
                    }
                    // Not armed yet: sleep only until arming time so a
                    // wedged consumer can't park us forever.
                    let until_armed = self.shed.max_stall - stalled;
                    wait = Some(wait.map_or(until_armed, |w| w.min(until_armed)));
                }
                match wait {
                    // Out of time — a zero timeout never touches the condvar.
                    Some(w) if w.is_zero() => return Err(PushError::Gated(item)),
                    Some(w) => {
                        self.not_full.wait_for(&mut st, w);
                    }
                    None => self.not_full.wait(&mut st),
                }
            }
        }
        if st.closed {
            return Err(PushError::Closed(item));
        }
        self.finish_push(&mut st, item);
        Ok(Pushed::Enqueued)
    }

    /// Non-blocking push. [`PushError::Gated`] under backpressure,
    /// [`PushError::Closed`] after shutdown.
    pub fn try_push(&self, item: T) -> Result<Pushed, PushError<T>> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.gated {
            return Err(PushError::Gated(item));
        }
        self.finish_push(&mut st, item);
        Ok(Pushed::Enqueued)
    }

    fn note_shed(&self, bytes: usize) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        self.shed_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.record_event(EventKind::Shed, bytes as u64);
    }

    /// Apply the armed shed policy to an incoming item while gated.
    fn shed_push(&self, st: &mut QueueState<T>, item: T) -> Pushed {
        if !item.sheddable() {
            // Control-plane items (barriers, acks) bypass every policy:
            // they are small, rare, and dropping one wedges the protocol
            // that sent it. They enqueue despite the gate.
            self.finish_push(st, item);
            return Pushed::Enqueued;
        }
        match self.shed.policy {
            ShedPolicy::None => unreachable!("shed_push called with ShedPolicy::None"),
            ShedPolicy::DropNewest => {
                self.note_shed(item.weight());
                Pushed::Shed
            }
            ShedPolicy::DropOldest => {
                let need = item.weight();
                let mut evicted = 0usize;
                // Evict from the oldest end but step over non-sheddable
                // items — a queued barrier survives the purge in place, so
                // its ordering relative to surviving data frames holds.
                let mut idx = 0usize;
                while st.level + need > self.config.high && idx < st.items.len() {
                    if !st.items[idx].sheddable() {
                        idx += 1;
                        continue;
                    }
                    let old = st.items.remove(idx).expect("index bounded by len");
                    st.level -= old.weight();
                    self.note_shed(old.weight());
                    evicted += 1;
                }
                self.maybe_release(st);
                self.finish_push(st, item);
                Pushed::Evicted(evicted)
            }
            ShedPolicy::Probabilistic { .. } => {
                // p = (level - low) / (high - low), deterministic roll.
                let span = (self.config.high - self.config.low).max(1) as u64;
                let over = st.level.saturating_sub(self.config.low) as u64;
                st.shed_rng = xorshift(st.shed_rng);
                if st.shed_rng % span < over.min(span) {
                    self.note_shed(item.weight());
                    Pushed::Shed
                } else {
                    // Accept despite the gate: occupancy-proportional
                    // admission self-limits the overshoot.
                    self.finish_push(st, item);
                    Pushed::Enqueued
                }
            }
        }
    }

    /// Open the gate if eviction drained us to the low watermark.
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

    /// Pop up to `max` items into `out`; returns how many were popped.
    /// This is the batch-drain the worker threads use: one lock
    /// acquisition per scheduled execution, not per packet.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> usize {
        let mut st = self.state.lock();
        let mut n = 0;
        while n < max {
            match self.finish_pop(&mut st) {
                Some(item) => {
                    out.push(item);
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
        q.push_timeout(item(1), Duration::ZERO).unwrap_err(); // refused: no new edge
        assert!(q.try_push(item(1)).is_err());
        assert_eq!(q.gate_closures(), 1, "one episode, however many were turned away");
        q.pop().unwrap(); // reopens
        q.push_blocking(item(120)).unwrap(); // closes again
        assert_eq!(q.gate_closures(), 2);
        // Nobody blocked *in a push* for longer than a zero timeout, but
        // backpressure engaged twice: that is what the closure count is for.
        assert_eq!(q.gate_events(), 1, "only the bounded push counted as an event");
    }

    #[test]
    fn wait_open_waits_the_gate_out_without_pushing() {
        let q = Arc::new(WatermarkQueue::<Vec<u8>>::new(WatermarkConfig::new(100, 10)));
        q.wait_open(); // open gate: returns at once, no event
        assert_eq!(q.gate_events(), 0);
        q.push_blocking(item(100)).unwrap(); // gated
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.wait_open());
        assert!(wait_for(Duration::from_secs(5), || q.gate_events() == 1));
        assert!(!waiter.is_finished(), "still gated: still waiting");
        q.pop().unwrap();
        waiter.join().unwrap();
        assert_eq!(q.total_pushed(), 1, "waiting pushed nothing");
        // A closed queue never reopens its gate; waiters must not hang.
        q.push_blocking(item(100)).unwrap();
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.wait_open());
        assert!(wait_for(Duration::from_secs(5), || q.gate_events() == 2));
        q.close();
        waiter.join().unwrap();
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
    fn recorder_timelines_gate_and_shed_transitions() {
        let recorder = Arc::new(FlightRecorder::new(32));
        let shed = ShedConfig::new(ShedPolicy::DropNewest, Duration::from_millis(5));
        let q: WatermarkQueue<Vec<u8>> =
            WatermarkQueue::with_shed(WatermarkConfig::new(10, 4), shed);
        q.attach_recorder(recorder.clone(), 7);
        q.push_blocking(item(10)).unwrap(); // gate closes
        q.push_blocking(item(3)).unwrap(); // stalls past max_stall, then sheds
        q.pop().unwrap(); // gate opens
        assert!(recorder.contains_sequence(&[
            EventKind::GateClosed,
            EventKind::Shed,
            EventKind::GateOpened,
        ]));
        let events = recorder.snapshot();
        let closed = events.iter().find(|e| e.kind == EventKind::GateClosed).unwrap();
        assert_eq!(closed.subject, 7);
        assert_eq!(closed.detail, 10, "detail carries buffered bytes at close");
        let shed_ev = events.iter().find(|e| e.kind == EventKind::Shed).unwrap();
        assert_eq!(shed_ev.detail, 3, "detail carries shed bytes");
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
        match q.try_push(item(1)) {
            Err(PushError::Gated(it)) => assert_eq!(it.len(), 1),
            other => panic!("expected Gated, got {other:?}"),
        }
        q.close();
        match q.try_push(item(2)) {
            Err(PushError::Closed(it)) => assert_eq!(it.len(), 2),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn push_timeout_reports_backpressure_distinct_from_shutdown() {
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(10, 1));
        q.push_blocking(item(10)).unwrap(); // gated
        let err = q.push_timeout(item(3), Duration::from_millis(10)).unwrap_err();
        assert!(err.is_gated());
        assert!(!err.is_closed());
        assert_eq!(err.into_item().len(), 3);
        q.close();
        let err = q.push_timeout(item(4), Duration::from_millis(10)).unwrap_err();
        assert!(err.is_closed());
    }

    #[test]
    fn shedding_stays_lossless_before_max_stall() {
        let shed = ShedConfig::new(ShedPolicy::DropNewest, Duration::from_secs(60));
        let q = Arc::new(WatermarkQueue::<Vec<u8>>::with_shed(WatermarkConfig::new(10, 1), shed));
        q.push_blocking(item(10)).unwrap(); // gated
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push_blocking(item(2)));
        assert!(wait_for(Duration::from_secs(5), || q.gate_events() == 1));
        // Far below max_stall: the producer must still be blocked, nothing shed.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.shed_total(), 0);
        assert_eq!(q.len(), 1, "producer must still be parked at the gate");
        q.pop().unwrap();
        assert!(matches!(producer.join().unwrap().unwrap(), Pushed::Enqueued));
    }

    #[test]
    fn drop_newest_sheds_incoming_after_stall() {
        let shed = ShedConfig::new(ShedPolicy::DropNewest, Duration::from_millis(10));
        let q: WatermarkQueue<Vec<u8>> =
            WatermarkQueue::with_shed(WatermarkConfig::new(10, 1), shed);
        q.push_blocking(item(10)).unwrap(); // gated
        let t0 = Instant::now();
        let outcome = q.push_blocking(item(4)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(9), "must wait out max_stall first");
        assert_eq!(outcome, Pushed::Shed);
        assert_eq!(q.shed_total(), 1);
        assert_eq!(q.shed_bytes(), 4);
        assert_eq!(q.len(), 1, "queued item preserved, incoming dropped");
    }

    #[test]
    fn drop_oldest_evicts_to_admit_fresh_data() {
        let shed = ShedConfig::new(ShedPolicy::DropOldest, Duration::from_millis(10));
        let q: WatermarkQueue<Vec<u8>> =
            WatermarkQueue::with_shed(WatermarkConfig::new(10, 4), shed);
        q.push_blocking(vec![1u8; 5]).unwrap();
        q.push_blocking(vec![2u8; 5]).unwrap(); // level 10: gated
        assert!(q.is_gated());
        let outcome = q.push_blocking(vec![3u8; 5]).unwrap();
        assert!(matches!(outcome, Pushed::Evicted(n) if n >= 1));
        assert!(q.shed_total() >= 1);
        // Freshest item must be present; the front of the queue was sacrificed.
        let drained: Vec<Vec<u8>> = std::iter::from_fn(|| q.pop()).collect();
        assert!(drained.iter().any(|v| v[0] == 3), "fresh item must survive");
        assert!(!drained.iter().any(|v| v[0] == 1), "oldest item must be shed");
    }

    /// A weighted item that opts out of shedding, like control frames do.
    #[derive(Debug)]
    struct Pinned(usize);

    impl Weighted for Pinned {
        fn weight(&self) -> usize {
            self.0
        }

        fn sheddable(&self) -> bool {
            false
        }
    }

    #[test]
    fn non_sheddable_items_survive_every_policy() {
        for policy in
            [ShedPolicy::DropNewest, ShedPolicy::DropOldest, ShedPolicy::Probabilistic { seed: 9 }]
        {
            let shed = ShedConfig::new(policy, Duration::from_millis(5));
            let q: WatermarkQueue<Pinned> =
                WatermarkQueue::with_shed(WatermarkConfig::new(10, 4), shed);
            q.push_blocking(Pinned(10)).unwrap(); // gated
            let outcome = q.push_blocking(Pinned(4)).unwrap();
            assert_eq!(outcome, Pushed::Enqueued, "{policy:?} must not drop control items");
            assert_eq!(q.shed_total(), 0, "{policy:?} shed a non-sheddable item");
            assert_eq!(q.len(), 2, "{policy:?} lost a queued non-sheddable item");
        }
    }

    #[test]
    fn control_frames_never_shed_and_data_eviction_skips_them() {
        use crate::frame::{decode_frame, encode_control_frame, encode_frame, ControlKind};
        use neptune_compress::SelectiveCompressor;
        let frame = |wire: Vec<u8>| decode_frame(&wire).unwrap().0;
        let barrier = frame(encode_control_frame(1, ControlKind::Barrier, 7));
        assert!(!barrier.sheddable(), "control frames must be shed-exempt");
        let data = frame(encode_frame(1, 0, &[vec![0u8; 64]], &SelectiveCompressor::disabled()));
        assert!(data.sheddable());
        let high = barrier.weight() + data.weight();
        let shed = ShedConfig::new(ShedPolicy::DropOldest, Duration::from_millis(5));
        let q = WatermarkQueue::with_shed(WatermarkConfig::new(high, high / 2), shed);
        q.push_blocking(barrier).unwrap();
        q.push_blocking(data.clone()).unwrap(); // level = high: gated
        assert!(q.is_gated());
        // DropOldest must evict the data frame, never the older barrier.
        q.push_blocking(data.clone()).unwrap();
        let survivor = q.pop().unwrap();
        assert_eq!(
            survivor.control,
            Some(ControlKind::Barrier),
            "barrier must survive DropOldest eviction in FIFO position"
        );
        assert!(q.shed_total() >= 1, "the data frame was the one sacrificed");
    }

    #[test]
    fn probabilistic_shed_is_deterministic_and_counts() {
        let shed =
            ShedConfig::new(ShedPolicy::Probabilistic { seed: 42 }, Duration::from_millis(5));
        let q: WatermarkQueue<Vec<u8>> =
            WatermarkQueue::with_shed(WatermarkConfig::new(64, 8), shed);
        q.push_blocking(item(64)).unwrap(); // gated, level = high -> p ~ 1
        let mut shed_seen = 0;
        for _ in 0..8 {
            if let Pushed::Shed = q.push_blocking(item(4)).unwrap() {
                shed_seen += 1;
            }
        }
        assert!(shed_seen > 0, "at full occupancy the drop probability is ~1");
        assert_eq!(q.shed_total(), shed_seen);
    }

    /// The lock-free mirror and the locked flag, read together.
    fn gate_views(q: &WatermarkQueue<Vec<u8>>) -> (bool, bool) {
        let st = q.state.lock();
        (q.gated.load(Ordering::Acquire), st.gated)
    }

    #[test]
    fn lock_free_gate_agrees_with_locked_state_at_every_transition() {
        let shed = ShedConfig::new(ShedPolicy::DropOldest, Duration::from_millis(5));
        let q: WatermarkQueue<Vec<u8>> =
            WatermarkQueue::with_shed(WatermarkConfig::new(100, 40), shed);
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
        // Evict-to-low: gated at 100, then a 90-byte push armed by the
        // stall has to evict both queued items to fit (level 0 <= low).
        q.push_blocking(item(50)).unwrap();
        q.push_blocking(item(50)).unwrap();
        assert_eq!(gate_views(&q), (true, true));
        assert_eq!(q.push_blocking(item(90)).unwrap(), Pushed::Evicted(2));
        assert_eq!(gate_views(&q), (false, false), "eviction to low opens");
        // close() leaves the gate as it found it, in both views.
        q.push_blocking(item(80)).unwrap();
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
