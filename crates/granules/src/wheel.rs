//! Hierarchical timer wheel.
//!
//! The execution plane's single source of time: one wheel thread multiplexes
//! every deadline in the system — per-endpoint flush deadlines, parked
//! source-pump backoffs, checkpoint rounds, telemetry sampling ticks — so
//! timer precision no longer depends on a scan tick and the thread count no
//! longer depends on how many timers exist (NEPTUNE §III-B6's argument
//! against per-activity threads, applied to time).
//!
//! Layout: two wheels plus an overflow list.
//!
//! * level 0 — 512 slots x 250 µs ticks ≈ 128 ms revolution;
//! * level 1 — 512 slots x one level-0 revolution ≈ 65.5 s horizon;
//! * overflow — anything beyond the horizon, refiled every full horizon.
//!
//! Insert and cancel are O(1) (hash entry + slot push). Firing takes each
//! due slot as a batch. The wheel sleeps until the *exact* earliest live
//! deadline — computed by an O(live-timers) scan only when the thread is
//! about to go idle — so a 700 µs flush interval fires at 700 µs, not at the
//! next multiple of some polling granularity. Cursor advancement skips
//! empty stretches wholesale (an hour-long idle costs revolutions, not
//! ticks), which keeps catch-up after a long sleep cheap.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Granularity of one level-0 tick.
const TICK_MICROS: u64 = 250;
/// Slots per level; both levels share the fan-out.
const L0_SLOTS: u64 = 512;
const L1_SLOTS: u64 = 512;
/// Ticks covered by level 0 + level 1 together.
const HORIZON_TICKS: u64 = L0_SLOTS * L1_SLOTS;

type TimerCallback = Arc<dyn Fn() + Send + Sync>;

struct WheelEntry {
    deadline: Instant,
    period: Option<Duration>,
    cb: TimerCallback,
}

struct WheelState {
    /// Every tick strictly below `cursor` has been fired and cascaded.
    cursor: u64,
    l0: Vec<Vec<u64>>,
    l1: Vec<Vec<u64>>,
    overflow: Vec<u64>,
    /// Ids currently stored in level-0 slots (including ids whose entry was
    /// cancelled and not yet scrubbed) — lets catch-up skip a whole empty
    /// revolution in one step.
    l0_live: u64,
    entries: HashMap<u64, WheelEntry>,
    next_id: u64,
    shutdown: bool,
}

struct WheelShared {
    state: Mutex<WheelState>,
    cv: Condvar,
    /// Instant of tick 0.
    base: Instant,
    fires: AtomicU64,
}

fn tick_of(base: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(base).as_micros() as u64 / TICK_MICROS
}

/// Place `id` (due at `deadline_tick`) into the level its distance from the
/// cursor selects. Ticks already in the past clamp to the cursor slot so
/// they fire on the next advance.
fn file_entry(st: &mut WheelState, id: u64, deadline_tick: u64) {
    let tick = deadline_tick.max(st.cursor);
    let delta = tick - st.cursor;
    if delta < L0_SLOTS {
        st.l0[(tick % L0_SLOTS) as usize].push(id);
        st.l0_live += 1;
    } else if delta < HORIZON_TICKS {
        st.l1[((tick / L0_SLOTS) % L1_SLOTS) as usize].push(id);
    } else {
        st.overflow.push(id);
    }
}

fn refile(st: &mut WheelState, base: Instant, id: u64) {
    // Cancelled ids are scrubbed here instead of being chased at cancel time.
    let Some(e) = st.entries.get(&id) else { return };
    let tick = tick_of(base, e.deadline);
    file_entry(st, id, tick);
}

/// Called with the cursor sitting on a level-0 boundary: pull the level-1
/// slot covering the upcoming revolution down into level 0 (and, on a full
/// horizon boundary, refile the overflow list first).
fn cascade(st: &mut WheelState, base: Instant) {
    if st.cursor.is_multiple_of(HORIZON_TICKS) {
        let ids = std::mem::take(&mut st.overflow);
        for id in ids {
            refile(st, base, id);
        }
    }
    let slot = ((st.cursor / L0_SLOTS) % L1_SLOTS) as usize;
    let ids = std::mem::take(&mut st.l1[slot]);
    for id in ids {
        // Entries a full level-1 cycle (or more) away land back in level 1
        // or overflow; everything due this revolution drops into level 0.
        refile(st, base, id);
    }
}

/// Fire `id` into `due`; periodic entries are refiled at `deadline + period`
/// (clamped to `now`, so a stalled wheel owes at most one catch-up fire
/// before returning to cadence — "never miss more than one period").
fn fire_id(
    st: &mut WheelState,
    base: Instant,
    now: Instant,
    id: u64,
    due: &mut Vec<TimerCallback>,
) {
    let refile_tick = {
        let Some(e) = st.entries.get_mut(&id) else { return };
        due.push(e.cb.clone());
        match e.period {
            Some(p) => {
                let mut next = e.deadline + p;
                if next <= now {
                    next = now;
                }
                e.deadline = next;
                Some(tick_of(base, next))
            }
            None => None,
        }
    };
    match refile_tick {
        Some(t) => file_entry(st, id, t),
        None => {
            st.entries.remove(&id);
        }
    }
}

/// Advance the cursor to `now`, collecting every due callback. The slot at
/// the current tick is processed *partially*: entries whose sub-tick
/// deadline has not yet passed stay put, so the wheel never fires early.
fn advance(st: &mut WheelState, base: Instant, now: Instant, due: &mut Vec<TimerCallback>) {
    let now_tick = tick_of(base, now);
    while st.cursor < now_tick {
        if st.cursor.is_multiple_of(L0_SLOTS) {
            cascade(st, base);
        }
        if st.l0_live == 0 {
            // Nothing in this revolution: jump to the next cascade boundary
            // (or straight to now) instead of walking empty ticks.
            let next_boundary = (st.cursor / L0_SLOTS + 1) * L0_SLOTS;
            st.cursor = next_boundary.min(now_tick);
            continue;
        }
        let slot = (st.cursor % L0_SLOTS) as usize;
        let ids = std::mem::take(&mut st.l0[slot]);
        st.l0_live -= ids.len() as u64;
        for id in ids {
            fire_id(st, base, now, id, due);
        }
        st.cursor += 1;
    }
    // Partial pass over the slot at the current tick.
    if st.cursor.is_multiple_of(L0_SLOTS) {
        cascade(st, base);
    }
    let slot = (st.cursor % L0_SLOTS) as usize;
    if !st.l0[slot].is_empty() {
        let ids = std::mem::take(&mut st.l0[slot]);
        st.l0_live -= ids.len() as u64;
        for id in ids {
            match st.entries.get(&id) {
                Some(e) if e.deadline <= now => fire_id(st, base, now, id, due),
                Some(_) => {
                    st.l0[slot].push(id);
                    st.l0_live += 1;
                }
                None => {} // cancelled: scrub
            }
        }
    }
}

fn wheel_loop(shared: Arc<WheelShared>) {
    let mut st = shared.state.lock();
    let mut due: Vec<TimerCallback> = Vec::new();
    loop {
        if st.shutdown {
            return;
        }
        let now = Instant::now();
        advance(&mut st, shared.base, now, &mut due);
        if !due.is_empty() {
            shared.fires.fetch_add(due.len() as u64, Ordering::Relaxed);
            // Run callbacks outside the lock so they may re-enter the wheel.
            drop(st);
            for cb in due.drain(..) {
                cb();
            }
            st = shared.state.lock();
            continue;
        }
        // Exact sleep: earliest live deadline across all levels. An O(n)
        // scan over live timers, but it runs only on the idle transition and
        // is immune to the level-collision subtleties a slot-scan would have
        // to handle (level-1 slots alias ticks one full cycle apart).
        match st.entries.values().map(|e| e.deadline).min() {
            Some(d) => {
                let wait = d.saturating_duration_since(Instant::now());
                shared.cv.wait_for(&mut st, wait);
            }
            None => {
                shared.cv.wait(&mut st);
            }
        }
    }
}

impl WheelShared {
    fn insert(&self, deadline: Instant, period: Option<Duration>, cb: TimerCallback) -> u64 {
        let mut st = self.state.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.entries.insert(id, WheelEntry { deadline, period, cb });
        let tick = tick_of(self.base, deadline);
        file_entry(&mut st, id, tick);
        drop(st);
        // The new deadline may be earlier than what the wheel is sleeping on.
        self.cv.notify_one();
        id
    }

    fn cancel(&self, id: u64) -> bool {
        self.state.lock().entries.remove(&id).is_some()
    }

    fn active(&self) -> usize {
        self.state.lock().entries.len()
    }
}

/// A single-threaded hierarchical timer wheel multiplexing every deadline of
/// an execution plane. See the module docs for the level layout.
pub struct TimerWheel {
    shared: Arc<WheelShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TimerWheel {
    /// Start the wheel thread (named `granules-wheel`).
    pub fn start() -> Self {
        let shared = Arc::new(WheelShared {
            state: Mutex::new(WheelState {
                cursor: 0,
                l0: (0..L0_SLOTS).map(|_| Vec::new()).collect(),
                l1: (0..L1_SLOTS).map(|_| Vec::new()).collect(),
                overflow: Vec::new(),
                l0_live: 0,
                entries: HashMap::new(),
                next_id: 1,
                shutdown: false,
            }),
            cv: Condvar::new(),
            base: Instant::now(),
            fires: AtomicU64::new(0),
        });
        let thread_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name("granules-wheel".into())
            .spawn(move || wheel_loop(thread_shared))
            .expect("spawn timer wheel thread");
        TimerWheel { shared, thread: Some(thread) }
    }

    /// Fire `f` once at `deadline` (immediately if already past). Returns a
    /// registration id for [`cancel`](Self::cancel).
    pub fn schedule_once<F: Fn() + Send + Sync + 'static>(&self, deadline: Instant, f: F) -> u64 {
        self.shared.insert(deadline, None, Arc::new(f))
    }

    /// Fire `f` once after `delay`.
    pub fn schedule_in<F: Fn() + Send + Sync + 'static>(&self, delay: Duration, f: F) -> u64 {
        self.schedule_once(Instant::now() + delay, f)
    }

    /// Fire `f` every `period`, first at `now + period`. Missed beats are
    /// collapsed into at most one catch-up fire.
    pub fn register<F: Fn() + Send + Sync + 'static>(&self, period: Duration, f: F) -> u64 {
        assert!(!period.is_zero(), "period must be non-zero");
        self.shared.insert(Instant::now() + period, Some(period), Arc::new(f))
    }

    /// Cancel a registration. Returns `true` if the entry was still live
    /// (one already-collected fire may still land). Idempotent.
    pub fn cancel(&self, id: u64) -> bool {
        self.shared.cancel(id)
    }

    /// Number of live registrations (one-shots not yet fired + periodics).
    pub fn active(&self) -> usize {
        self.shared.active()
    }

    /// Total callbacks fired since start.
    pub fn fires(&self) -> u64 {
        self.shared.fires.load(Ordering::Relaxed)
    }

    /// A cloneable, `Weak`-backed handle for scheduling from places that
    /// must not keep the wheel alive (e.g. endpoint flush arming).
    pub fn scheduler(&self) -> TimerScheduler {
        TimerScheduler { shared: Arc::downgrade(&self.shared) }
    }

    /// Stop and join the wheel thread. Pending timers are dropped.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TimerWheel {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// Cloneable scheduling handle onto a [`TimerWheel`]; every method is a
/// no-op returning `None`/`false` once the wheel has shut down, so holders
/// never race the teardown.
#[derive(Clone)]
pub struct TimerScheduler {
    shared: Weak<WheelShared>,
}

impl TimerScheduler {
    /// See [`TimerWheel::schedule_once`].
    pub fn schedule_once<F: Fn() + Send + Sync + 'static>(
        &self,
        deadline: Instant,
        f: F,
    ) -> Option<u64> {
        self.shared.upgrade().map(|s| s.insert(deadline, None, Arc::new(f)))
    }

    /// See [`TimerWheel::register`].
    pub fn register<F: Fn() + Send + Sync + 'static>(&self, period: Duration, f: F) -> Option<u64> {
        assert!(!period.is_zero(), "period must be non-zero");
        self.shared.upgrade().map(|s| s.insert(Instant::now() + period, Some(period), Arc::new(f)))
    }

    /// See [`TimerWheel::cancel`].
    pub fn cancel(&self, id: u64) -> bool {
        self.shared.upgrade().map(|s| s.cancel(id)).unwrap_or(false)
    }

    /// Live registrations, or 0 once the wheel is gone.
    pub fn active(&self) -> usize {
        self.shared.upgrade().map(|s| s.active()).unwrap_or(0)
    }

    /// Total callbacks fired, or 0 once the wheel is gone.
    pub fn fires(&self) -> u64 {
        self.shared.upgrade().map(|s| s.fires.load(Ordering::Relaxed)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::wait_until;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn one_shot_fires_near_deadline() {
        let wheel = TimerWheel::start();
        let fired_at = Arc::new(StdMutex::new(None::<Instant>));
        let f = fired_at.clone();
        let start = Instant::now();
        let delay = Duration::from_millis(5);
        wheel.schedule_in(delay, move || {
            f.lock().unwrap().get_or_insert_with(Instant::now);
        });
        assert!(wait_until(start + Duration::from_secs(2), || fired_at.lock().unwrap().is_some()));
        let at = fired_at.lock().unwrap().unwrap();
        let elapsed = at - start;
        assert!(elapsed >= delay, "fired {elapsed:?} early, before {delay:?}");
        // Firing error budget: 10% of the interval or one tick+scheduling
        // slack, whichever is larger (CI machines are noisy).
        let budget = Duration::from_millis(3);
        assert!(elapsed <= delay + budget, "fired late: {elapsed:?} vs {delay:?}+{budget:?}");
        assert_eq!(wheel.active(), 0, "one-shot should retire after firing");
        wheel.shutdown();
    }

    #[test]
    fn sub_millisecond_periods_fire_on_time() {
        // The old flusher scanned on a >=500µs tick, so a 600µs interval
        // could fire ~50% late. The wheel must do much better: average
        // inter-fire gap within 25% of the period.
        let wheel = TimerWheel::start();
        let stamps: Arc<StdMutex<Vec<Instant>>> = Arc::new(StdMutex::new(Vec::new()));
        let s = stamps.clone();
        let period = Duration::from_micros(600);
        let id = wheel.register(period, move || s.lock().unwrap().push(Instant::now()));
        let deadline = Instant::now() + Duration::from_secs(2);
        assert!(wait_until(deadline, || stamps.lock().unwrap().len() >= 40));
        wheel.cancel(id);
        let stamps = stamps.lock().unwrap();
        let total = *stamps.last().unwrap() - stamps[0];
        let avg = total / (stamps.len() as u32 - 1);
        assert!(avg <= period * 5 / 4, "average period {avg:?} drifted beyond 125% of {period:?}");
        wheel.shutdown();
    }

    #[test]
    fn deadlines_fire_in_order_across_levels() {
        let wheel = TimerWheel::start();
        let order = Arc::new(StdMutex::new(Vec::new()));
        // Deliberately spans level 0 (<128ms) and level 1 (>128ms) so the
        // cascade path is exercised, registered out of order.
        let delays = [160u64, 5, 90, 20, 140];
        let start = Instant::now();
        for d in delays {
            let o = order.clone();
            wheel.schedule_once(start + Duration::from_millis(d), move || {
                o.lock().unwrap().push(d);
            });
        }
        assert!(wait_until(start + Duration::from_secs(5), || order.lock().unwrap().len() == 5));
        let got = order.lock().unwrap().clone();
        let mut want = delays.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "deadlines fired out of order");
        wheel.shutdown();
    }

    #[test]
    fn cancel_prevents_fire_and_reports_liveness() {
        let wheel = TimerWheel::start();
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        let id = wheel.schedule_in(Duration::from_millis(50), move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        assert!(wheel.cancel(id), "entry should still be live");
        assert!(!wheel.cancel(id), "second cancel must report dead");
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(fired.load(Ordering::Relaxed), 0, "cancelled timer fired");
        assert_eq!(wheel.active(), 0);
        wheel.shutdown();
    }

    #[test]
    fn overflow_deadline_survives_and_shutdown_is_prompt() {
        let wheel = TimerWheel::start();
        // Far beyond the ~65s horizon: lands in the overflow list.
        wheel.schedule_in(Duration::from_secs(3600), || {});
        assert_eq!(wheel.active(), 1);
        let t0 = Instant::now();
        wheel.shutdown(); // must not sleep toward the hour mark
        assert!(t0.elapsed() < Duration::from_secs(2), "shutdown blocked on far deadline");
    }

    #[test]
    fn scheduler_handle_outlives_wheel_safely() {
        let wheel = TimerWheel::start();
        let handle = wheel.scheduler();
        assert!(handle.register(Duration::from_secs(10), || {}).is_some());
        assert_eq!(handle.active(), 1);
        wheel.shutdown();
        assert!(handle.schedule_once(Instant::now(), || {}).is_none());
        assert!(!handle.cancel(1));
        assert_eq!(handle.active(), 0);
    }

    #[test]
    fn periodic_catches_up_with_at_most_one_extra_fire() {
        let wheel = TimerWheel::start();
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        let period = Duration::from_millis(10);
        // A callback that stalls the wheel for 3 periods once.
        let stalled = Arc::new(AtomicU64::new(0));
        let st = stalled.clone();
        wheel.register(period, move || {
            f.fetch_add(1, Ordering::Relaxed);
            if st.fetch_add(1, Ordering::Relaxed) == 0 {
                std::thread::sleep(Duration::from_millis(35));
            }
        });
        std::thread::sleep(Duration::from_millis(120));
        let n = fired.load(Ordering::Relaxed);
        // ~12 periods elapsed; 3 were consumed by the stall, and catch-up
        // may add at most one fire beyond the on-cadence count.
        assert!(n >= 6, "periodic starved after stall: {n} fires");
        assert!(n <= 13, "periodic over-fired catching up: {n} fires");
        wheel.shutdown();
    }
}
