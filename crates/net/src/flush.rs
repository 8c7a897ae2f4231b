//! The flush policy of one link: batch-size threshold + flush deadline,
//! retunable at runtime.
//!
//! NEPTUNE flushes an output buffer when its byte capacity is reached or
//! its per-buffer timer fires (§III-B1) — those two knobs and no third.
//! A [`FlushPolicy`] holds them in a shared, atomically-retunable object
//! so one handle — held by the link, surfaced in both telemetry exports,
//! and later by a QoS controller (Nephele-style SLO adaptation) — can
//! adjust a live link's batching without touching the hot path: the
//! [`crate::buffer::OutputBuffer`] reads one relaxed atomic per push.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Retunable flush knobs for one link's output buffering.
#[derive(Debug)]
pub struct FlushPolicy {
    /// Flush once this many encoded bytes are buffered.
    batch_bytes: AtomicUsize,
    /// Flush this long after the first buffered message, µs (0 = no timer).
    max_delay_micros: AtomicU64,
}

/// Point-in-time copy of a policy's knobs, for telemetry exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicySnapshot {
    /// Byte threshold.
    pub batch_bytes: usize,
    /// Deadline in µs (0 = no timer).
    pub max_delay_micros: u64,
}

impl FlushPolicy {
    /// Policy flushing at `batch_bytes`, with an optional deadline of
    /// `max_delay` after the first buffered message.
    ///
    /// Panics if `batch_bytes == 0`.
    pub fn new(batch_bytes: usize, max_delay: Option<Duration>) -> Arc<Self> {
        assert!(batch_bytes > 0, "buffer capacity must be positive");
        Arc::new(FlushPolicy {
            batch_bytes: AtomicUsize::new(batch_bytes),
            max_delay_micros: AtomicU64::new(
                max_delay.map(|d| (d.as_micros() as u64).max(1)).unwrap_or(0),
            ),
        })
    }

    /// Byte threshold.
    pub fn batch_bytes(&self) -> usize {
        self.batch_bytes.load(Ordering::Relaxed)
    }

    /// Retune the byte threshold (takes effect on the next push).
    pub fn set_batch_bytes(&self, bytes: usize) {
        self.batch_bytes.store(bytes.max(1), Ordering::Relaxed);
    }

    /// Flush deadline relative to the first buffered message.
    pub fn max_delay(&self) -> Option<Duration> {
        match self.max_delay_micros.load(Ordering::Relaxed) {
            0 => None,
            micros => Some(Duration::from_micros(micros)),
        }
    }

    /// Retune (or remove, with `None`) the flush deadline. Applies to the
    /// next batch; a deadline already armed keeps its original instant.
    pub fn set_max_delay(&self, max_delay: Option<Duration>) {
        self.max_delay_micros.store(
            max_delay.map(|d| (d.as_micros() as u64).max(1)).unwrap_or(0),
            Ordering::Relaxed,
        );
    }

    /// Snapshot every knob at once.
    pub fn snapshot(&self) -> FlushPolicySnapshot {
        FlushPolicySnapshot {
            batch_bytes: self.batch_bytes(),
            max_delay_micros: self.max_delay_micros.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_round_trip_and_retune() {
        let p = FlushPolicy::new(4096, Some(Duration::from_millis(5)));
        assert_eq!(p.batch_bytes(), 4096);
        assert_eq!(p.max_delay(), Some(Duration::from_millis(5)));
        p.set_batch_bytes(1024);
        p.set_max_delay(None);
        assert_eq!(p.snapshot(), FlushPolicySnapshot { batch_bytes: 1024, max_delay_micros: 0 });
        assert_eq!(p.max_delay(), None);
    }

    #[test]
    fn zero_retunes_are_clamped_or_disable() {
        let p = FlushPolicy::new(64, None);
        p.set_batch_bytes(0);
        assert_eq!(p.batch_bytes(), 1, "a zero byte threshold would flush never");
        p.set_max_delay(Some(Duration::ZERO));
        assert_eq!(
            p.max_delay(),
            Some(Duration::from_micros(1)),
            "zero delay clamps, not disables"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        FlushPolicy::new(0, None);
    }
}
