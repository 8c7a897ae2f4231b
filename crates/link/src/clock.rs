//! Monotonic microsecond clock shared by the fault-tolerance components.
//!
//! Heartbeat stamps, detector thresholds, and detection-latency samples
//! all use the same time base: microseconds since the first call in this
//! process. A plain `u64` travels through atomics and histograms without
//! the `Instant` arithmetic footguns.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process-local monotonic epoch (first call).
pub fn monotonic_micros() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_nondecreasing() {
        let a = monotonic_micros();
        let b = monotonic_micros();
        assert!(b >= a);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(monotonic_micros() >= a + 1_000);
    }
}
