//! Recovery counters — the control plane's answer to the data plane's
//! `JobMetrics`: how often links dropped and how much was replayed.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, lock-free recovery counters. One instance per job (or per
/// harness); every link-stack component records into it so a single snapshot
/// tells the whole recovery story.
#[derive(Default)]
pub struct RecoveryStats {
    /// Frames re-sent from a replay buffer after a reconnect.
    pub retransmits: AtomicU64,
    /// Wire-equivalent bytes retransmitted.
    pub retransmitted_bytes: AtomicU64,
    /// Successful link re-establishments.
    pub reconnects: AtomicU64,
    /// Individual connect attempts made while recovering (≥ reconnects).
    pub reconnect_attempts: AtomicU64,
    /// Links declared terminally failed after exhausting retries.
    pub link_failures: AtomicU64,
    /// Heartbeat probes sent on idle links.
    pub heartbeats_sent: AtomicU64,
    /// Cumulative acknowledgements received.
    pub acks_received: AtomicU64,
    /// Frames dropped by sink-side dedup (at-least-once duplicates).
    pub duplicates_dropped: AtomicU64,
    /// Frames evicted from a full replay buffer (delivery degrades to
    /// best-effort for the evicted window).
    pub replay_evictions: AtomicU64,
}

impl RecoveryStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one to a counter (convenience for hook closures).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> RecoverySnapshot {
        RecoverySnapshot {
            retransmits: self.retransmits.load(Ordering::Relaxed),
            retransmitted_bytes: self.retransmitted_bytes.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            reconnect_attempts: self.reconnect_attempts.load(Ordering::Relaxed),
            link_failures: self.link_failures.load(Ordering::Relaxed),
            heartbeats_sent: self.heartbeats_sent.load(Ordering::Relaxed),
            acks_received: self.acks_received.load(Ordering::Relaxed),
            duplicates_dropped: self.duplicates_dropped.load(Ordering::Relaxed),
            replay_evictions: self.replay_evictions.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`RecoveryStats`] for export and assertions.
#[derive(Debug, Clone)]
pub struct RecoverySnapshot {
    /// See [`RecoveryStats::retransmits`].
    pub retransmits: u64,
    /// See [`RecoveryStats::retransmitted_bytes`].
    pub retransmitted_bytes: u64,
    /// See [`RecoveryStats::reconnects`].
    pub reconnects: u64,
    /// See [`RecoveryStats::reconnect_attempts`].
    pub reconnect_attempts: u64,
    /// See [`RecoveryStats::link_failures`].
    pub link_failures: u64,
    /// See [`RecoveryStats::heartbeats_sent`].
    pub heartbeats_sent: u64,
    /// See [`RecoveryStats::acks_received`].
    pub acks_received: u64,
    /// See [`RecoveryStats::duplicates_dropped`].
    pub duplicates_dropped: u64,
    /// See [`RecoveryStats::replay_evictions`].
    pub replay_evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = RecoveryStats::new();
        s.retransmits.fetch_add(3, Ordering::Relaxed);
        s.reconnects.fetch_add(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.retransmits, 3);
        assert_eq!(snap.reconnects, 1);
    }
}
