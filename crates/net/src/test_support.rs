//! Test helpers: deadline polling, the IO tier a TCP endpoint needs, and a
//! peer of another protocol version.
//!
//! Synchronizing a test with a background thread via a bare
//! `thread::sleep(fixed)` is a race with the scheduler: too short and the
//! test flakes under load, too long and the suite crawls. These helpers
//! poll a predicate up to a deadline instead — the test proceeds the moment
//! the condition holds and only fails after the (generous) deadline, so the
//! timeout can be sized for the worst CI machine without slowing the common
//! case.

use crate::tcp::NetDriver;
use neptune_granules::{IoPool, Reactor};
use std::time::{Duration, Instant};

/// A two-thread IO pool and a reactor, owned for one test's lifetime —
/// what [`TcpSender`](crate::tcp::TcpSender) and
/// [`TcpReceiver`](crate::tcp::TcpReceiver) run on. Both shut down on
/// drop, the pool first (field order), so tasks retire while the reactor
/// still takes their deregistrations.
pub struct NetRig {
    pool: IoPool,
    reactor: Reactor,
}

impl NetRig {
    /// Start the pool and the reactor; `name` prefixes their threads.
    pub fn new(name: &str) -> NetRig {
        NetRig { pool: IoPool::new(name, 2), reactor: Reactor::new(name).expect("reactor thread") }
    }

    /// A driver for binding and connecting endpoints on this rig.
    pub fn driver(&self) -> NetDriver {
        NetDriver::new(self.pool.spawner(), self.reactor.handle())
    }

    /// The reactor (for its counters).
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }
}

/// `frame` as a build speaking protocol `version` would head it: the same
/// bytes under another version byte. A decoder refuses a foreign version
/// before it reads anything else, so nothing after the byte has to follow
/// that version's layout.
pub fn with_protocol_version(mut frame: Vec<u8>, version: u8) -> Vec<u8> {
    frame[crate::frame::VERSION_AT] = version;
    frame
}

/// Poll `pred` until it returns true or `deadline` passes. Returns the
/// final verdict of `pred`, so `assert!(wait_until(..))` reads naturally.
pub fn wait_until(deadline: Instant, mut pred: impl FnMut() -> bool) -> bool {
    loop {
        if pred() {
            return true;
        }
        if Instant::now() >= deadline {
            return pred();
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// [`wait_until`] with a relative timeout.
pub fn wait_for(timeout: Duration, pred: impl FnMut() -> bool) -> bool {
    wait_until(Instant::now() + timeout, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn returns_immediately_once_predicate_holds() {
        let t0 = Instant::now();
        assert!(wait_for(Duration::from_secs(10), || true));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn times_out_when_predicate_never_holds() {
        let t0 = Instant::now();
        assert!(!wait_for(Duration::from_millis(5), || false));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn observes_condition_set_by_another_thread() {
        let flag = Arc::new(AtomicBool::new(false));
        let f = flag.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            f.store(true, Ordering::Release);
        });
        assert!(wait_for(Duration::from_secs(5), || flag.load(Ordering::Acquire)));
        t.join().unwrap();
    }
}
