//! Property-based tests for the networking substrate.
//!
//! Invariants:
//! * Output buffers never lose, duplicate, reorder, or corrupt messages:
//!   the concatenation of all flushed batches equals the input sequence,
//!   with contiguous sequence numbers.
//! * A buffer never holds more than `capacity + max_message` bytes after
//!   a push (the flush threshold is honored).
//! * Watermark queues conserve items and weight under arbitrary
//!   interleavings of pushes and pops, and the gate is exactly the
//!   high/low hysteresis.

use neptune_net::buffer::{FlushedBatch, OutputBuffer, PushOutcome};
use neptune_net::frame::FrameMessages;
use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};
use proptest::prelude::*;

/// A flushed batch's messages, split the way a receiver splits them.
fn messages_of(batch: FlushedBatch) -> Vec<Vec<u8>> {
    let msgs = FrameMessages::parse_prefixed(batch.encoded, Some(batch.count)).unwrap();
    msgs.iter().map(<[u8]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn output_buffer_preserves_message_sequence(
        capacity in 1usize..4096,
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..100),
    ) {
        let mut buffer = OutputBuffer::new(capacity, None);
        let mut batches: Vec<(u64, Vec<Vec<u8>>)> = Vec::new();
        for m in &messages {
            if let PushOutcome::Flush(batch) = buffer.push(m) {
                batches.push((batch.base_seq, messages_of(batch)));
            }
        }
        if let Some(batch) = buffer.force_flush() {
            batches.push((batch.base_seq, messages_of(batch)));
        }
        // Contiguous sequence numbers and exact reassembly.
        let mut expected_seq = 0u64;
        let mut reassembled: Vec<Vec<u8>> = Vec::new();
        for (base, msgs) in batches {
            prop_assert_eq!(base, expected_seq, "batch seq must be contiguous");
            expected_seq += msgs.len() as u64;
            reassembled.extend(msgs);
        }
        prop_assert_eq!(reassembled, messages);
    }

    #[test]
    fn output_buffer_flushes_at_capacity(
        capacity in 16usize..2048,
        sizes in proptest::collection::vec(1usize..300, 1..200),
    ) {
        let mut buffer = OutputBuffer::new(capacity, None);
        for &s in &sizes {
            let before = buffer.buffered_bytes();
            // The capacity threshold means a buffer never *retains* a
            // full load: after any push it either flushed or sits below
            // capacity.
            match buffer.push(&vec![0u8; s]) {
                PushOutcome::Flush(_) => {
                    prop_assert_eq!(buffer.buffered_bytes(), 0);
                    prop_assert!(before + s + 4 >= capacity,
                        "flushed below threshold: {} + {}", before, s);
                }
                PushOutcome::Buffered => {
                    prop_assert!(buffer.buffered_bytes() < capacity);
                }
            }
        }
    }

    #[test]
    fn watermark_queue_conserves_items_and_weight(
        high in 64usize..4096,
        gap in 1usize..64,
        ops in proptest::collection::vec((any::<bool>(), 1usize..128), 0..300),
    ) {
        let low = high - gap.min(high - 1);
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(high, low));
        let mut model: std::collections::VecDeque<usize> = Default::default();
        for (is_push, size) in ops {
            if is_push {
                // Model the non-blocking path only.
                match q.try_push(vec![0u8; size]) {
                    // An accepted push is always a plain enqueue: the
                    // queue never drops what it was handed.
                    Ok(()) => model.push_back(size),
                    Err(_) => {
                        // try_push refuses exactly when gated or closed;
                        // the model's level must be in the gated band.
                        prop_assert!(q.is_gated());
                    }
                }
            } else {
                match (q.pop(), model.pop_front()) {
                    (Some(item), Some(expected)) => {
                        prop_assert_eq!(item.len(), expected, "FIFO order violated");
                    }
                    (None, None) => {}
                    (got, expected) => {
                        prop_assert!(false, "divergence: queue {:?} vs model {:?}",
                            got.map(|v| v.len()), expected);
                    }
                }
            }
            let model_level: usize = model.iter().sum();
            prop_assert_eq!(q.level(), model_level, "weight accounting diverged");
            prop_assert_eq!(q.len(), model.len());
        }
        // Drain completely: every remaining item comes back in order.
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(q.pop().map(|v| v.len()), Some(expected));
        }
        prop_assert_eq!(q.level(), 0);
    }

    #[test]
    fn watermark_gate_hysteresis_is_exact(
        sizes in proptest::collection::vec(1usize..128, 1..200),
    ) {
        const HIGH: usize = 1024;
        const LOW: usize = 256;
        let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(HIGH, LOW));
        let mut gated_model = false;
        let mut level = 0usize;
        for (i, &s) in sizes.iter().enumerate() {
            if i % 3 == 2 {
                if let Some(item) = q.pop() {
                    level -= item.len();
                    if gated_model && level <= LOW {
                        gated_model = false;
                    }
                }
            } else if q.try_push(vec![0u8; s]).is_ok() {
                level += s;
                if level >= HIGH {
                    gated_model = true;
                }
            }
            prop_assert_eq!(q.is_gated(), gated_model,
                "gate state diverged at op {} (level {})", i, level);
        }
    }
}
