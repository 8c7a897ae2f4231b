//! Bounded per-link replay buffer — the upstream half of at-least-once
//! delivery.
//!
//! Every sequenced frame a link sends is retained here until the receiver
//! acknowledges it cumulatively. On reconnect the supervisor walks
//! [`ReplayBuffer::unacked`] and re-sends everything still outstanding;
//! the receiver's [`crate::dedup::DedupFilter`] drops whatever actually
//! arrived the first time. Memory is bounded by a byte budget: when the
//! unacked window outgrows it, the oldest frames are evicted (and
//! counted), degrading those frames to best-effort — the documented
//! trade-off, not a silent one.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// One retained frame, ready to be replayed.
#[derive(Debug, Clone)]
pub struct PendingFrame {
    /// Per-link frame sequence number
    /// ([`FrameHeader::seq`](neptune_net::frame::FrameHeader::seq)).
    pub frame_seq: u64,
    /// Message sequence of the first message in the batch.
    pub base_seq: u64,
    /// Number of messages in the batch.
    pub count: u32,
    /// The length-prefixed message concatenation (uncompressed body).
    pub encoded: Bytes,
    /// Sender wall clock at the original flush, µs (0 = unstamped).
    pub sent_at_micros: u64,
}

impl PendingFrame {
    /// Message sequence one past the last message in this frame — the
    /// cumulative ack value that retires it.
    pub fn end_seq(&self) -> u64 {
        self.base_seq + self.count as u64
    }
}

struct Inner {
    frames: VecDeque<PendingFrame>,
    bytes: usize,
}

/// Bounded store of unacknowledged frames for one link.
pub struct ReplayBuffer {
    inner: Mutex<Inner>,
    budget_bytes: usize,
    evictions: AtomicU64,
    /// Highest cumulative message sequence acked so far.
    acked: AtomicU64,
}

impl ReplayBuffer {
    /// New buffer retaining at most `budget_bytes` of encoded payload.
    pub fn new(budget_bytes: usize) -> Self {
        assert!(budget_bytes > 0, "replay budget must be positive");
        ReplayBuffer {
            inner: Mutex::new(Inner { frames: VecDeque::new(), bytes: 0 }),
            budget_bytes,
            evictions: AtomicU64::new(0),
            acked: AtomicU64::new(0),
        }
    }

    /// Retain a sent frame until it is acked. Returns how many older
    /// frames were evicted to stay within the byte budget.
    pub fn append(&self, frame: PendingFrame) -> u64 {
        let mut inner = self.inner.lock();
        inner.bytes += frame.encoded.len();
        inner.frames.push_back(frame);
        let mut evicted = 0u64;
        while inner.bytes > self.budget_bytes && inner.frames.len() > 1 {
            let old = inner.frames.pop_front().expect("len > 1");
            inner.bytes -= old.encoded.len();
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Cumulative acknowledgement: every frame fully below `cum_msg_seq`
    /// (its `end_seq() <= cum_msg_seq`) is retired. Returns the number of
    /// frames trimmed. Regressions (stale acks) are ignored.
    pub fn ack(&self, cum_msg_seq: u64) -> u64 {
        self.acked.fetch_max(cum_msg_seq, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let mut trimmed = 0u64;
        while let Some(front) = inner.frames.front() {
            if front.end_seq() > cum_msg_seq {
                break;
            }
            let old = inner.frames.pop_front().expect("front exists");
            inner.bytes -= old.encoded.len();
            trimmed += 1;
        }
        trimmed
    }

    /// Clone out every frame still awaiting acknowledgement, oldest first
    /// — the reconnect replay set. Cloning is cheap: the payloads are
    /// refcounted [`Bytes`].
    pub fn unacked(&self) -> Vec<PendingFrame> {
        self.inner.lock().frames.iter().cloned().collect()
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// True when nothing awaits acknowledgement.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().frames.is_empty()
    }

    /// Encoded bytes currently retained.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Frames evicted over the buffer's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Highest cumulative message sequence acknowledged so far.
    pub fn acked_watermark(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64, base: u64, count: u32, size: usize) -> PendingFrame {
        PendingFrame {
            frame_seq: seq,
            base_seq: base,
            count,
            encoded: Bytes::from(vec![0u8; size]),
            sent_at_micros: 0,
        }
    }

    #[test]
    fn ack_trims_cumulatively() {
        let rb = ReplayBuffer::new(1 << 20);
        rb.append(frame(0, 0, 10, 100));
        rb.append(frame(1, 10, 10, 100));
        rb.append(frame(2, 20, 5, 100));
        assert_eq!(rb.len(), 3);
        assert_eq!(rb.bytes(), 300);
        // Ack mid-frame: only fully-covered frames retire.
        assert_eq!(rb.ack(15), 1);
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.ack(25), 2);
        assert!(rb.is_empty());
        assert_eq!(rb.bytes(), 0);
        assert_eq!(rb.acked_watermark(), 25);
    }

    #[test]
    fn stale_acks_are_noops() {
        let rb = ReplayBuffer::new(1 << 20);
        rb.append(frame(0, 0, 10, 10));
        assert_eq!(rb.ack(10), 1);
        assert_eq!(rb.ack(5), 0);
        assert_eq!(rb.acked_watermark(), 10);
    }

    #[test]
    fn unacked_returns_replay_set_in_order() {
        let rb = ReplayBuffer::new(1 << 20);
        for i in 0..4u64 {
            rb.append(frame(i, i * 10, 10, 10));
        }
        rb.ack(20); // first two retire
        let pend = rb.unacked();
        assert_eq!(pend.len(), 2);
        assert_eq!(pend[0].frame_seq, 2);
        assert_eq!(pend[1].frame_seq, 3);
    }

    #[test]
    fn budget_evicts_oldest_and_counts() {
        let rb = ReplayBuffer::new(250);
        assert_eq!(rb.append(frame(0, 0, 1, 100)), 0);
        assert_eq!(rb.append(frame(1, 1, 1, 100)), 0);
        // 300 bytes > 250: the oldest goes.
        assert_eq!(rb.append(frame(2, 2, 1, 100)), 1);
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.evictions(), 1);
        assert_eq!(rb.unacked()[0].frame_seq, 1);
    }

    #[test]
    fn oversized_single_frame_is_kept() {
        // A frame larger than the whole budget must still be deliverable:
        // eviction never removes the newest frame.
        let rb = ReplayBuffer::new(50);
        assert_eq!(rb.append(frame(0, 0, 1, 500)), 0);
        assert_eq!(rb.len(), 1);
    }
}
