//! Operator supervision: panic containment, bounded retry, and per-operator
//! circuit breaking.
//!
//! NEPTUNE's watermark backpressure (§III-B4) assumes operators either make
//! progress or block — a *panicking* operator does neither. Without
//! supervision a panic unwinds out of the scheduled execution: the worker
//! thread survives (the pool catches it), but the batch is silently lost
//! and, worse, a *persistently* failing operator stops draining its inbound
//! queue, so the gate upstream never reopens and the whole graph stalls.
//!
//! The supervision ladder, from gentlest to harshest:
//!
//! 1. **Catch + retry** — a panicking batch execution is caught and retried
//!    up to a configurable cap, with a caller-supplied backoff schedule
//!    between attempts (the runtime feeds `neptune-link`'s deterministic
//!    jittered [`ReconnectPolicy`] here).
//! 2. **Quarantine** — a batch that keeps panicking is declared poison and
//!    surrendered to the caller (who dead-letters it); the operator moves
//!    on to the next batch.
//! 3. **Circuit breaker** — after N *consecutive* quarantines the
//!    per-operator breaker trips ([`BreakerState::Open`]): executions are
//!    rejected outright so the caller can drain-and-drop, keeping the
//!    inbound queue moving and the upstream gate open. After a cooldown
//!    the breaker admits probe batches ([`BreakerState::HalfOpen`]); enough
//!    consecutive probe successes close it again.
//!
//! [`ReconnectPolicy`]: https://docs.rs/neptune-link

use neptune_telemetry::{EventKind, FlightRecorder};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Circuit-breaker states, in the classic Open→HalfOpen→Closed machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: executions are admitted.
    Closed,
    /// Tripped: executions are rejected (drain-and-drop) until the
    /// cooldown elapses.
    Open,
    /// Cooldown elapsed: probe executions are admitted; consecutive
    /// successes close the breaker, a failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name for telemetry exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    /// Consecutive quarantined batches while Closed (resets on success).
    consecutive_failures: u32,
    /// When the breaker last tripped; drives the cooldown.
    opened_at: Option<Instant>,
    /// Consecutive successful probes while HalfOpen.
    probe_successes: u32,
}

/// Per-operator circuit breaker.
///
/// `on_failure` is called once per *quarantined batch* (not per panic —
/// retries are the layer below), so `threshold` counts batches the operator
/// could not process even with retries.
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    required_probes: u32,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
    rejected: AtomicU64,
    /// Optional flight recorder timelining state transitions; the `u64`
    /// is the subject id events are recorded under.
    recorder: Mutex<Option<(Arc<FlightRecorder>, u64)>>,
}

impl CircuitBreaker {
    /// Breaker that trips after `threshold` consecutive failures, cools
    /// down for `cooldown`, and needs `required_probes` consecutive
    /// half-open successes to close again.
    pub fn new(threshold: u32, cooldown: Duration, required_probes: u32) -> Self {
        assert!(threshold > 0, "breaker threshold must be at least 1");
        CircuitBreaker {
            threshold,
            cooldown,
            required_probes: required_probes.max(1),
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probe_successes: 0,
            }),
            trips: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            recorder: Mutex::new(None),
        }
    }

    /// Attach a flight recorder: every state transition is timelined as
    /// [`EventKind::BreakerOpen`] (detail = consecutive failures),
    /// [`EventKind::BreakerHalfOpen`] or [`EventKind::BreakerClosed`],
    /// with `subject` identifying this breaker.
    pub fn attach_recorder(&self, recorder: Arc<FlightRecorder>, subject: u64) {
        *self.recorder.lock() = Some((recorder, subject));
    }

    #[inline]
    fn record_event(&self, kind: EventKind, detail: u64) {
        if let Some((r, subject)) = self.recorder.lock().as_ref() {
            r.record(kind, *subject, detail);
        }
    }

    /// Current state (transitions Open→HalfOpen lazily on inspection).
    pub fn state(&self) -> BreakerState {
        let mut inner = self.inner.lock();
        self.maybe_half_open(&mut inner);
        inner.state
    }

    /// How many times the breaker has tripped Closed/HalfOpen→Open.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Executions rejected while the breaker was open.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    fn maybe_half_open(&self, inner: &mut BreakerInner) {
        if inner.state == BreakerState::Open {
            if let Some(at) = inner.opened_at {
                if at.elapsed() >= self.cooldown {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_successes = 0;
                    self.record_event(EventKind::BreakerHalfOpen, 0);
                }
            }
        }
    }

    /// Should the next execution be admitted? `false` means the caller
    /// must drain-and-drop instead of running the operator.
    pub fn allow(&self) -> bool {
        let mut inner = self.inner.lock();
        self.maybe_half_open(&mut inner);
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Record a successfully processed batch.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.probe_successes += 1;
                if inner.probe_successes >= self.required_probes {
                    inner.state = BreakerState::Closed;
                    inner.consecutive_failures = 0;
                    inner.opened_at = None;
                    self.record_event(EventKind::BreakerClosed, 0);
                }
            }
            // A straggler success while Open (raced with the trip): ignore.
            BreakerState::Open => {}
        }
    }

    /// Record a quarantined batch. Returns `true` when this failure
    /// tripped the breaker open.
    pub fn on_failure(&self) -> bool {
        let mut inner = self.inner.lock();
        self.maybe_half_open(&mut inner);
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.threshold {
                    self.trip(&mut inner);
                    return true;
                }
                false
            }
            // A failed probe re-opens immediately: the operator is still sick.
            BreakerState::HalfOpen => {
                self.trip(&mut inner);
                true
            }
            BreakerState::Open => false,
        }
    }

    fn trip(&self, inner: &mut BreakerInner) {
        inner.state = BreakerState::Open;
        inner.opened_at = Some(Instant::now());
        inner.probe_successes = 0;
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.record_event(EventKind::BreakerOpen, inner.consecutive_failures as u64);
    }
}

/// Supervision policy for one operator.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// How many times a panicking batch is re-run before quarantine.
    pub max_retries: u32,
    /// Consecutive quarantined batches that trip the breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before admitting probes.
    pub cooldown: Duration,
    /// Consecutive half-open probe successes required to close.
    pub required_probes: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_retries: 2,
            breaker_threshold: 3,
            cooldown: Duration::from_millis(500),
            required_probes: 2,
        }
    }
}

/// What the supervisor decided about one batch execution.
#[derive(Debug)]
pub enum SupervisedOutcome<R> {
    /// The batch completed (possibly after retries).
    Completed(R),
    /// The batch kept panicking through every retry: quarantine it.
    Quarantined {
        /// Panic payload of the final attempt, stringified.
        panic_msg: String,
        /// Total attempts made (1 + retries).
        attempts: u32,
        /// True when this quarantine tripped the breaker open.
        tripped: bool,
    },
    /// The breaker is open: the batch was not run. Drain-and-drop.
    Rejected,
}

/// Monotonic counters describing everything a supervisor has contained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Individual panicking attempts caught (includes retries).
    pub panics: u64,
    /// Re-executions after a caught panic.
    pub retries: u64,
    /// Batches surrendered as poison after exhausting retries.
    pub quarantined: u64,
    /// Batches rejected (drained-and-dropped) while the breaker was open.
    pub breaker_rejected: u64,
    /// Closed/HalfOpen→Open transitions.
    pub breaker_trips: u64,
}

/// Panic-containing execution wrapper around one operator.
///
/// The backoff schedule is injected per call so this crate stays free of a
/// dependency on `neptune-link` (which sits above it); the runtime passes
/// `ReconnectPolicy::delay_for`.
pub struct OperatorSupervisor {
    policy: SupervisorPolicy,
    breaker: CircuitBreaker,
    panics: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
}

/// Render a panic payload (`Box<dyn Any>`) as a human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl OperatorSupervisor {
    /// Supervisor with the given policy.
    pub fn new(policy: SupervisorPolicy) -> Self {
        OperatorSupervisor {
            breaker: CircuitBreaker::new(
                policy.breaker_threshold,
                policy.cooldown,
                policy.required_probes,
            ),
            policy,
            panics: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The operator's breaker (for state inspection).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Counter snapshot for metrics/telemetry.
    pub fn stats(&self) -> SupervisorStats {
        SupervisorStats {
            panics: self.panics.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            breaker_rejected: self.breaker.rejected(),
            breaker_trips: self.breaker.trips(),
        }
    }

    /// Run one batch under supervision.
    ///
    /// `body` is the batch execution (it may panic); `backoff` maps the
    /// retry attempt number (1-based) to the pause before that retry.
    /// The pause runs on the calling worker thread — schedules should be
    /// short (milliseconds), which is what `ReconnectPolicy::fast` yields.
    pub fn run_batch<R>(
        &self,
        mut body: impl FnMut() -> R,
        backoff: impl Fn(u32) -> Duration,
    ) -> SupervisedOutcome<R> {
        if !self.breaker.allow() {
            return SupervisedOutcome::Rejected;
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(&mut body)) {
                Ok(r) => {
                    self.breaker.on_success();
                    return SupervisedOutcome::Completed(r);
                }
                Err(payload) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    if attempts <= self.policy.max_retries {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        let pause = backoff(attempts);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                        continue;
                    }
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    let tripped = self.breaker.on_failure();
                    return SupervisedOutcome::Quarantined {
                        panic_msg: panic_message(payload.as_ref()),
                        attempts,
                        tripped,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn no_backoff(_attempt: u32) -> Duration {
        Duration::ZERO
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, Duration::from_secs(60), 1);
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.on_failure(), "third consecutive failure must trip");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_consecutive_failure_count() {
        let b = CircuitBreaker::new(2, Duration::from_secs(60), 1);
        assert!(!b.on_failure());
        b.on_success();
        assert!(!b.on_failure(), "streak reset: one failure after success must not trip");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_breaker_rejects_until_cooldown_then_probes() {
        let b = CircuitBreaker::new(1, Duration::from_millis(20), 1);
        assert!(b.on_failure());
        assert!(!b.allow(), "open breaker must reject");
        assert_eq!(b.rejected(), 1);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow(), "half-open admits a probe");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new(1, Duration::from_millis(10), 2);
        assert!(b.on_failure());
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.on_failure(), "failed probe trips again");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn needs_required_probes_to_close() {
        let b = CircuitBreaker::new(1, Duration::from_millis(10), 2);
        b.on_failure();
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.allow());
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen, "one probe is not enough");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn supervisor_retries_then_succeeds() {
        let sup = OperatorSupervisor::new(SupervisorPolicy {
            max_retries: 2,
            ..SupervisorPolicy::default()
        });
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let outcome = sup.run_batch(
            move || {
                let n = c.fetch_add(1, Ordering::Relaxed);
                if n < 2 {
                    panic!("transient fault {n}");
                }
                n
            },
            no_backoff,
        );
        match outcome {
            SupervisedOutcome::Completed(n) => assert_eq!(n, 2),
            other => panic!("expected completion, got {other:?}"),
        }
        let stats = sup.stats();
        assert_eq!(stats.panics, 2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(sup.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn supervisor_quarantines_after_retry_cap_with_panic_message() {
        let sup = OperatorSupervisor::new(SupervisorPolicy {
            max_retries: 1,
            breaker_threshold: 100,
            ..SupervisorPolicy::default()
        });
        let outcome = sup.run_batch(|| -> () { panic!("poison packet 0xdead") }, no_backoff);
        match outcome {
            SupervisedOutcome::Quarantined { panic_msg, attempts, tripped } => {
                assert!(panic_msg.contains("poison packet 0xdead"));
                assert_eq!(attempts, 2);
                assert!(!tripped);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let stats = sup.stats();
        assert_eq!(stats.panics, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn persistent_failure_trips_breaker_and_rejects() {
        let sup = OperatorSupervisor::new(SupervisorPolicy {
            max_retries: 0,
            breaker_threshold: 2,
            cooldown: Duration::from_secs(60),
            required_probes: 1,
        });
        for i in 0..2 {
            match sup.run_batch(|| -> () { panic!("wedged") }, no_backoff) {
                SupervisedOutcome::Quarantined { tripped, .. } => {
                    assert_eq!(tripped, i == 1, "second quarantine trips");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
        }
        match sup.run_batch(|| 7, no_backoff) {
            SupervisedOutcome::Rejected => {}
            other => panic!("open breaker must reject, got {other:?}"),
        }
        let stats = sup.stats();
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_rejected, 1);
    }

    #[test]
    fn backoff_schedule_is_consulted_per_retry() {
        let sup = OperatorSupervisor::new(SupervisorPolicy {
            max_retries: 3,
            breaker_threshold: 100,
            ..SupervisorPolicy::default()
        });
        let consulted = Arc::new(Mutex::new(Vec::new()));
        let c = consulted.clone();
        let _ = sup.run_batch(
            || -> () { panic!("always") },
            move |attempt| {
                c.lock().push(attempt);
                Duration::ZERO
            },
        );
        assert_eq!(*consulted.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn panic_message_renders_str_string_and_other() {
        assert_eq!(panic_message(&"abc"), "abc");
        assert_eq!(panic_message(&"xyz".to_string()), "xyz");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }
}
