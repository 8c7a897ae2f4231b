//! Application-level output buffering (§III-B1 of the paper).
//!
//! One [`OutputBuffer`] exists per outgoing link. Serialized stream packets
//! are appended (already length-prefixed, so the flush path does no extra
//! copying or per-message work); the buffer flushes when:
//!
//! * its **byte capacity** is reached — the paper is explicit that the
//!   threshold is capacity-based, *"to flush the buffer as soon as the
//!   required threshold is reached irrespective of the number of the
//!   messages in the buffer and their sizes"*, which keeps behaviour stable
//!   when an operator emits packets of varying sizes; or
//! * its **flush timer** fires — *"each buffer in NEPTUNE is equipped with
//!   a timer that guarantees flushing of the buffer after a certain time
//!   period since arrival of the first message"*, which puts a soft upper
//!   bound on end-to-end latency for slow streams.
//!
//! The buffer's backing storage is recycled across flushes (object reuse,
//! §III-B3): batches are handed out as refcounted [`Bytes`], and
//! [`recycle`](OutputBuffer::recycle) reclaims the storage once the
//! transport (and, in-process, the receiving task) has dropped its handles.
//! Buffers attached to a shared [`BytesPool`] draw replacements from and
//! return storage to the pool, so every link on a worker shares one set of
//! steady-state allocations; detached buffers keep a private spare and run
//! with two long-lived allocations per link, as before.

use crate::flush::FlushPolicy;
use crate::pool::BytesPool;
use bytes::{Bytes, BytesMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a batch was flushed. Recorded in metrics so the buffering ablation
/// (Fig. 2) can attribute latency to queueing delay vs capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The byte-capacity threshold was reached.
    Capacity,
    /// The flush timer expired before the buffer filled.
    Timer,
    /// The owner forced a flush (job teardown, explicit flush call).
    Forced,
}

/// Outcome of pushing one serialized message.
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Message buffered; nothing to send yet.
    Buffered,
    /// Capacity reached: here is the batch to hand to the transport.
    Flush(FlushedBatch),
}

/// A batch ready for the wire. `encoded` is refcounted: the in-process
/// transport hands the same bytes to the receiver without copying, and the
/// storage is reclaimed (via [`OutputBuffer::recycle`] or
/// [`BytesPool::recycle`]) when the last handle drops.
#[derive(Debug, PartialEq, Eq)]
pub struct FlushedBatch {
    /// Concatenated `[len u32 LE | bytes]` encoded messages.
    pub encoded: Bytes,
    /// Number of messages in the batch.
    pub count: u32,
    /// Sequence number of the first message in the batch.
    pub base_seq: u64,
    /// Why the flush happened.
    pub reason: FlushReason,
    /// How long the oldest message waited in the buffer.
    pub queueing_delay: Duration,
}

/// Capacity-bounded, timer-flushed output buffer for one link.
#[derive(Debug)]
pub struct OutputBuffer {
    data: BytesMut,
    /// Recycled storage swapped in on flush (pool-less buffers only).
    spare: Option<BytesMut>,
    /// Shared pool backing this buffer's storage, when attached.
    pool: Option<Arc<BytesPool>>,
    count: u32,
    /// Shared, retunable flush knobs (byte/message thresholds, deadline).
    policy: Arc<FlushPolicy>,
    first_arrival: Option<Instant>,
    next_seq: u64,
    flushes_capacity: u64,
    flushes_timer: u64,
    flushes_forced: u64,
}

impl OutputBuffer {
    /// Buffer flushing at `capacity` bytes, with an optional flush timer of
    /// `max_delay` since the first buffered message.
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, max_delay: Option<Duration>) -> Self {
        Self::with_policy(FlushPolicy::new(capacity, max_delay), None)
    }

    /// Like [`new`](Self::new), but storage is drawn from and returned to
    /// `pool`, shared with every other buffer and receiver on the job.
    pub fn with_pool(capacity: usize, max_delay: Option<Duration>, pool: Arc<BytesPool>) -> Self {
        Self::with_policy(FlushPolicy::new(capacity, max_delay), Some(pool))
    }

    /// Buffer governed by a shared [`FlushPolicy`] — the handle stays
    /// valid for runtime retuning (QoS controllers, telemetry).
    pub fn with_policy(policy: Arc<FlushPolicy>, pool: Option<Arc<BytesPool>>) -> Self {
        let capacity = policy.batch_bytes();
        let data = match &pool {
            Some(p) => p.checkout(capacity + 256),
            None => BytesMut::with_capacity(capacity + 256),
        };
        OutputBuffer {
            data,
            spare: None,
            pool,
            count: 0,
            policy,
            first_arrival: None,
            next_seq: 0,
            flushes_capacity: 0,
            flushes_timer: 0,
            flushes_forced: 0,
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.policy.batch_bytes()
    }

    /// The buffer's flush policy handle.
    pub fn policy(&self) -> &Arc<FlushPolicy> {
        &self.policy
    }

    /// Bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.data.len()
    }

    /// Messages currently buffered.
    pub fn buffered_count(&self) -> u32 {
        self.count
    }

    /// Sequence number the next pushed message will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Flushes triggered by capacity so far.
    pub fn capacity_flushes(&self) -> u64 {
        self.flushes_capacity
    }

    /// Flushes triggered by the timer so far.
    pub fn timer_flushes(&self) -> u64 {
        self.flushes_timer
    }

    /// Forced flushes so far.
    pub fn forced_flushes(&self) -> u64 {
        self.flushes_forced
    }

    /// Append one serialized message. Returns a batch when this push
    /// reached the capacity threshold.
    pub fn push(&mut self, message: &[u8]) -> PushOutcome {
        if self.count == 0 {
            self.first_arrival = Some(Instant::now());
        }
        self.data.extend_from_slice(&(message.len() as u32).to_le_bytes());
        self.data.extend_from_slice(message);
        self.finish_push()
    }

    /// Append one message that already carries its 4-byte length prefix —
    /// the serialize-once fan-out path: the emitter encodes `[len | bytes]`
    /// into its scratch exactly once and appends the same slice to every
    /// destination buffer.
    pub fn push_prefixed(&mut self, prefixed: &[u8]) -> PushOutcome {
        debug_assert!(
            prefixed.len() >= 4
                && u32::from_le_bytes(prefixed[..4].try_into().expect("slice len")) as usize
                    == prefixed.len() - 4,
            "push_prefixed expects a [len u32 LE | bytes] message"
        );
        if self.count == 0 {
            self.first_arrival = Some(Instant::now());
        }
        self.data.extend_from_slice(prefixed);
        self.finish_push()
    }

    fn finish_push(&mut self) -> PushOutcome {
        self.count += 1;
        self.next_seq += 1;
        if self.data.len() >= self.policy.batch_bytes() {
            PushOutcome::Flush(self.take_batch(FlushReason::Capacity))
        } else {
            PushOutcome::Buffered
        }
    }

    /// Deadline at which the flush timer should fire, if armed.
    pub fn flush_deadline(&self) -> Option<Instant> {
        match (self.first_arrival, self.policy.max_delay()) {
            (Some(t0), Some(d)) if self.count > 0 => Some(t0 + d),
            _ => None,
        }
    }

    /// Timer path: flush if the oldest message has waited at least
    /// `max_delay` as of `now`.
    pub fn take_if_due(&mut self, now: Instant) -> Option<FlushedBatch> {
        match self.flush_deadline() {
            Some(deadline) if now >= deadline => Some(self.take_batch(FlushReason::Timer)),
            _ => None,
        }
    }

    /// Unconditional flush (teardown, explicit flush). `None` when empty.
    pub fn force_flush(&mut self) -> Option<FlushedBatch> {
        if self.count == 0 {
            None
        } else {
            Some(self.take_batch(FlushReason::Forced))
        }
    }

    fn take_batch(&mut self, reason: FlushReason) -> FlushedBatch {
        match reason {
            FlushReason::Capacity => self.flushes_capacity += 1,
            FlushReason::Timer => self.flushes_timer += 1,
            FlushReason::Forced => self.flushes_forced += 1,
        }
        let queueing_delay = self.first_arrival.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
        let count = self.count;
        let base_seq = self.next_seq - count as u64;
        self.count = 0;
        self.first_arrival = None;
        // Swap in recycled storage; freeze and hand out the filled buffer.
        let capacity = self.policy.batch_bytes();
        let replacement = match self.spare.take() {
            Some(spare) => spare,
            None => match &self.pool {
                Some(p) => p.checkout(capacity + 256),
                None => BytesMut::with_capacity(capacity + 256),
            },
        };
        let encoded = std::mem::replace(&mut self.data, replacement).freeze();
        FlushedBatch { encoded, count, base_seq, reason, queueing_delay }
    }

    /// Return a batch's storage for reuse after the transport is done with
    /// it. A no-op when other handles to the batch are still alive (e.g. it
    /// sits in a receiver's queue) — the last holder recycles it instead.
    /// Optional — skipping it only costs a fresh allocation next flush.
    pub fn recycle(&mut self, storage: Bytes) {
        let Ok(mut buf) = storage.try_into_mut() else {
            return; // Still referenced downstream.
        };
        if let Some(p) = &self.pool {
            p.recycle_mut(buf);
        } else if self.spare.is_none() {
            buf.clear();
            self.spare = Some(buf);
        } // else: pool-less and spare already occupied — drop.
    }
}

/// Split a [`FlushedBatch`]'s encoding back into messages (tests and
/// compatibility paths; the runtime uses the zero-copy
/// [`crate::frame::FrameMessages`] split instead).
pub fn split_encoded(encoded: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < encoded.len() {
        if i + 4 > encoded.len() {
            return Err(format!("dangling length prefix at offset {i}"));
        }
        let len = u32::from_le_bytes(encoded[i..i + 4].try_into().expect("slice len")) as usize;
        i += 4;
        if i + len > encoded.len() {
            return Err(format!("message at offset {i} overruns buffer"));
        }
        out.push(encoded[i..i + len].to_vec());
        i += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::wait_until;

    #[test]
    fn flushes_on_capacity() {
        let mut buf = OutputBuffer::new(100, None);
        let msg = [0u8; 20]; // 24 bytes per push with the prefix
        for _ in 0..4 {
            assert_eq!(buf.push(&msg), PushOutcome::Buffered);
        }
        match buf.push(&msg) {
            PushOutcome::Flush(b) => {
                assert_eq!(b.count, 5);
                assert_eq!(b.base_seq, 0);
                assert_eq!(b.reason, FlushReason::Capacity);
                assert_eq!(b.encoded.len(), 5 * 24);
            }
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(buf.buffered_bytes(), 0);
        assert_eq!(buf.capacity_flushes(), 1);
    }

    #[test]
    fn capacity_is_bytes_not_messages() {
        // One big message flushes immediately; many tiny ones accumulate.
        let mut buf = OutputBuffer::new(1000, None);
        assert!(matches!(buf.push(&[0u8; 2000]), PushOutcome::Flush(_)));
        for _ in 0..10 {
            assert_eq!(buf.push(&[0u8; 10]), PushOutcome::Buffered);
        }
        assert_eq!(buf.buffered_count(), 10);
    }

    #[test]
    fn sequence_numbers_are_contiguous_across_batches() {
        let mut buf = OutputBuffer::new(64, None);
        let mut batches = Vec::new();
        for _ in 0..10 {
            if let PushOutcome::Flush(b) = buf.push(&[0u8; 28]) {
                batches.push(b);
            }
        }
        if let Some(b) = buf.force_flush() {
            batches.push(b);
        }
        let mut expected = 0u64;
        for b in &batches {
            assert_eq!(b.base_seq, expected);
            expected += b.count as u64;
        }
        assert_eq!(expected, 10);
    }

    #[test]
    fn timer_flush_after_max_delay() {
        let mut buf = OutputBuffer::new(1 << 20, Some(Duration::from_millis(5)));
        buf.push(b"slow stream");
        assert!(buf.take_if_due(Instant::now()).is_none(), "not due yet");
        let deadline = buf.flush_deadline().expect("timer armed");
        assert!(wait_until(deadline, || Instant::now() >= deadline));
        let batch = buf.take_if_due(Instant::now()).expect("due");
        assert_eq!(batch.reason, FlushReason::Timer);
        assert_eq!(batch.count, 1);
        assert!(batch.queueing_delay >= Duration::from_millis(5));
        assert_eq!(buf.timer_flushes(), 1);
    }

    #[test]
    fn no_timer_when_empty() {
        let mut buf = OutputBuffer::new(1024, Some(Duration::from_millis(1)));
        assert!(buf.flush_deadline().is_none());
        // An empty buffer is not due at any point in the future.
        assert!(buf.take_if_due(Instant::now() + Duration::from_secs(1)).is_none());
    }

    #[test]
    fn deadline_tracks_first_message_only() {
        let mut buf = OutputBuffer::new(1 << 20, Some(Duration::from_millis(50)));
        buf.push(b"first");
        let d1 = buf.flush_deadline().unwrap();
        // Measurably later — but still before the deadline — push again.
        let mid = Instant::now() + Duration::from_millis(2);
        assert!(wait_until(mid, || Instant::now() >= mid));
        buf.push(b"second");
        let d2 = buf.flush_deadline().unwrap();
        assert_eq!(d1, d2, "deadline must anchor to the first message");
    }

    #[test]
    fn force_flush_empties_and_returns_none_when_empty() {
        let mut buf = OutputBuffer::new(1024, None);
        assert!(buf.force_flush().is_none());
        buf.push(b"x");
        let b = buf.force_flush().unwrap();
        assert_eq!(b.reason, FlushReason::Forced);
        assert_eq!(b.count, 1);
        assert!(buf.force_flush().is_none());
    }

    #[test]
    fn recycle_reuses_storage() {
        // The double-buffering scheme alternates between two allocations:
        // a recycled batch becomes the spare, which is swapped back into
        // service on the *next* flush. So a recycled pointer must reappear
        // within two flush cycles.
        let mut buf = OutputBuffer::new(64, None);
        let PushOutcome::Flush(batch) = buf.push(&[0u8; 100]) else { panic!("flush") };
        let ptr = batch.encoded.as_ptr();
        buf.recycle(batch.encoded);
        let PushOutcome::Flush(batch2) = buf.push(&[0u8; 100]) else { panic!("flush") };
        let ptr2 = batch2.encoded.as_ptr();
        buf.recycle(batch2.encoded);
        let PushOutcome::Flush(batch3) = buf.push(&[0u8; 100]) else { panic!("flush") };
        assert!(
            batch3.encoded.as_ptr() == ptr || ptr2 == ptr,
            "recycled allocation must round-trip within two flushes"
        );
    }

    #[test]
    fn recycle_skips_shared_batches() {
        let mut buf = OutputBuffer::new(64, None);
        let PushOutcome::Flush(batch) = buf.push(&[0u8; 100]) else { panic!("flush") };
        let alias = batch.encoded.clone();
        buf.recycle(batch.encoded);
        // The alias must still read the original data — recycling a shared
        // batch would be a use-after-free in spirit.
        assert_eq!(alias.len(), 104);
        assert_eq!(&alias[..4], &100u32.to_le_bytes());
    }

    #[test]
    fn pooled_buffer_round_trips_storage_through_pool() {
        let pool = Arc::new(BytesPool::new(8));
        let mut buf = OutputBuffer::with_pool(64, None, pool.clone());
        for _ in 0..5 {
            let PushOutcome::Flush(batch) = buf.push(&[0u8; 100]) else { panic!("flush") };
            buf.recycle(batch.encoded);
        }
        let stats = pool.stats();
        // One checkout at construction, one per flush; after the first
        // couple the pool serves every request.
        assert!(stats.hits >= 3, "pool must serve steady-state flushes: {stats:?}");
        assert_eq!(stats.hits + stats.misses, 6);
    }

    #[test]
    fn push_prefixed_matches_push() {
        let mut a = OutputBuffer::new(1 << 20, None);
        let mut b = OutputBuffer::new(1 << 20, None);
        let msgs: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![9u8; 300]];
        for m in &msgs {
            a.push(m);
            let mut prefixed = (m.len() as u32).to_le_bytes().to_vec();
            prefixed.extend_from_slice(m);
            b.push_prefixed(&prefixed);
        }
        let ba = a.force_flush().unwrap();
        let bb = b.force_flush().unwrap();
        assert_eq!(ba.encoded, bb.encoded);
        assert_eq!(ba.count, bb.count);
        assert_eq!(bb.base_seq, 0);
        assert_eq!(b.next_seq(), 3);
    }

    #[test]
    fn split_encoded_roundtrips() {
        let mut buf = OutputBuffer::new(1 << 20, None);
        let msgs: Vec<Vec<u8>> = vec![b"a".to_vec(), vec![], b"long message".to_vec()];
        for m in &msgs {
            buf.push(m);
        }
        let batch = buf.force_flush().unwrap();
        assert_eq!(split_encoded(&batch.encoded).unwrap(), msgs);
    }

    #[test]
    fn split_encoded_rejects_corruption() {
        assert!(split_encoded(&[1, 2, 3]).is_err());
        assert!(split_encoded(&[10, 0, 0, 0, 1]).is_err());
        assert!(split_encoded(&[]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        OutputBuffer::new(0, None);
    }
}
