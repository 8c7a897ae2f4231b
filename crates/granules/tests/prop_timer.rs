//! Property-based tests for the hierarchical timer wheel.
//!
//! Invariants (ISSUE 4 satellite):
//! * one-shot deadlines fire in deadline order, never early;
//! * periodic registrations never miss more than one period under load —
//!   after any stall the wheel owes at most one catch-up fire before
//!   returning to cadence, so the fire count over a window is bounded
//!   below;
//! * cancellation is race-free: a cancelled id never fires more than the
//!   one callback that may already be in flight, and double-cancel is
//!   inert regardless of interleaving with the firing thread.

use neptune_granules::test_support::wait_until;
use neptune_granules::TimerWheel;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary batches of one-shot deadlines — including duplicates and
    /// already-past deadlines — fire in nondecreasing deadline order and
    /// never before their deadline.
    #[test]
    fn one_shots_fire_in_order_and_never_early(
        delays_ms in proptest::collection::vec(0u64..40, 1..24),
    ) {
        let wheel = TimerWheel::start();
        let fired: Arc<Mutex<Vec<(u64, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
        let start = Instant::now();
        for (i, d) in delays_ms.iter().copied().enumerate() {
            let f = fired.clone();
            // Duplicate deadlines are disambiguated by registration index so
            // the ordering check can treat them as equal.
            let key = d * 1000 + i as u64;
            wheel.schedule_once(start + Duration::from_millis(d), move || {
                f.lock().unwrap().push((key, Instant::now()));
            });
        }
        let n = delays_ms.len();
        prop_assert!(wait_until(
            start + Duration::from_secs(10),
            || fired.lock().unwrap().len() == n
        ), "not all one-shots fired");
        let fired = fired.lock().unwrap();
        for (key, at) in fired.iter() {
            let deadline = start + Duration::from_millis(key / 1000);
            prop_assert!(*at >= deadline, "timer fired early: {:?} before {:?}", at, deadline);
        }
        for w in fired.windows(2) {
            prop_assert!(
                w[0].0 / 1000 <= w[1].0 / 1000,
                "deadlines fired out of order: {}ms after {}ms",
                w[1].0 / 1000, w[0].0 / 1000
            );
        }
        prop_assert_eq!(wheel.active(), 0);
        wheel.shutdown();
    }

    /// Under concurrent load (many competing registrations), a periodic
    /// task over a window of W periods fires at least floor(W/2) times —
    /// i.e. it never silently loses more than one period back-to-back —
    /// and never fires more than one catch-up beyond the cadence.
    #[test]
    fn periodic_never_misses_more_than_one_period(
        period_ms in 2u64..8,
        noise in proptest::collection::vec(1u64..30, 0..16),
    ) {
        let wheel = TimerWheel::start();
        // Competing load: a pile of unrelated one-shots and periodics.
        for d in noise.iter().copied() {
            wheel.schedule_in(Duration::from_millis(d), || {});
        }
        let stamps: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
        let s = stamps.clone();
        let period = Duration::from_millis(period_ms);
        let id = wheel.register(period, move || s.lock().unwrap().push(Instant::now()));
        let windows = 10u32;
        std::thread::sleep(period * windows);
        wheel.cancel(id);
        // A copy, not the guard: a fire already in flight when `cancel`
        // returned takes this lock on the wheel thread, which `shutdown`
        // below joins.
        let stamps = stamps.lock().unwrap().clone();
        // At least half the beats landed (missing >1 period in a row would
        // drop below this floor), at most cadence + 1 catch-up.
        prop_assert!(
            stamps.len() as u32 >= windows / 2,
            "periodic starved: {} fires in {} periods", stamps.len(), windows
        );
        prop_assert!(
            stamps.len() as u32 <= windows + 2,
            "periodic over-fired: {} fires in {} periods", stamps.len(), windows
        );
        // No two consecutive fires more than two periods apart (plus OS
        // scheduling slack — CI machines stall threads for milliseconds).
        for w in stamps.windows(2) {
            let gap = w[1] - w[0];
            prop_assert!(
                gap <= period * 2 + Duration::from_millis(10),
                "gap {:?} exceeds two periods ({:?})", gap, period
            );
        }
        wheel.shutdown();
    }

    /// Cancellation racing the firing thread: cancel a one-shot at a random
    /// offset around its deadline. Whatever the interleaving, the callback
    /// runs at most once, cancel() + fire outcomes are consistent (exactly
    /// one of "cancel won" / "fire won" when the race is tight), and a
    /// second cancel always reports dead.
    #[test]
    fn cancellation_is_race_free(
        deadline_us in 0u64..4000,
        cancel_after_us in 0u64..4000,
    ) {
        let wheel = TimerWheel::start();
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        let start = Instant::now();
        let id = wheel.schedule_once(start + Duration::from_micros(deadline_us), move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        while Instant::now() < start + Duration::from_micros(cancel_after_us) {
            std::thread::yield_now();
        }
        let cancel_won = wheel.cancel(id);
        let second = wheel.cancel(id);
        prop_assert!(!second, "double-cancel must report dead");
        // Give any in-flight fire time to land, then the count must be
        // stable and consistent with the cancel outcome.
        std::thread::sleep(Duration::from_millis(10));
        let n = fired.load(Ordering::Relaxed);
        prop_assert!(n <= 1, "callback ran {n} times");
        if cancel_won {
            prop_assert_eq!(n, 0, "cancel returned live but callback still fired");
        } else {
            prop_assert_eq!(n, 1, "cancel returned dead but callback never fired");
        }
        prop_assert_eq!(wheel.active(), 0);
        wheel.shutdown();
    }
}
