//! Property and lifetime tests for the zero-copy frame path.
//!
//! Invariants:
//! * Encoding any message sequence and decoding it back — from a slice or
//!   through the pooled streaming decoder, compressed or not — reproduces
//!   the sequence exactly.
//! * A [`Frame`] parked in a [`WatermarkQueue`] stays valid even after the
//!   sender tries to recycle the batch buffer it shares: the pool's
//!   refcount gate refuses the recycle until the frame is dropped.

use neptune_compress::SelectiveCompressor;
use neptune_net::frame::{decode_frame, encode_frame, Frame, FrameDecoder, FrameMessages};
use neptune_net::pool::BytesPool;
use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn frame_round_trip_is_lossless(
        link_id in any::<u64>(),
        base_seq in any::<u64>(),
        mode in 0u8..3,
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 0..64),
    ) {
        let compressor = match mode {
            0 => SelectiveCompressor::disabled(),
            1 => SelectiveCompressor::always(),
            _ => SelectiveCompressor::new(4.0),
        };
        let wire = encode_frame(link_id, base_seq, &messages, &compressor);

        // Decode from a plain slice.
        let (frame, consumed) = decode_frame(&wire).unwrap();
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(frame.link_id, link_id);
        prop_assert_eq!(frame.base_seq, base_seq);
        prop_assert_eq!(&frame.messages, &messages);

        // Body (and decompression) storage drawn from a pool must agree
        // with the unpooled decode bit for bit.
        let pool = BytesPool::new(8);
        let (consumed2, f2) = FrameDecoder::new().feed(&wire, Some(&pool)).unwrap();
        prop_assert_eq!(consumed2, wire.len());
        prop_assert_eq!(&f2.expect("a whole frame"), &frame);
    }

    #[test]
    fn pooled_streaming_reads_round_trip(
        frames in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..120), 1..16), 1..8),
    ) {
        // Several frames back to back on one "connection", read with a
        // small pool and recycled after each — the receive loop a TCP
        // connection task runs.
        let compressor = SelectiveCompressor::new(4.0);
        let pool = BytesPool::new(4);
        let mut wire = Vec::new();
        let mut base = 0u64;
        for msgs in &frames {
            wire.extend_from_slice(&encode_frame(9, base, msgs, &compressor));
            base += msgs.len() as u64;
        }
        let mut decoder = FrameDecoder::new();
        let mut read = 0;
        for msgs in &frames {
            let (used, f) = decoder.feed(&wire[read..], Some(&pool)).unwrap();
            read += used;
            let f = f.expect("a whole frame is in the buffer");
            prop_assert_eq!(&f.messages, msgs);
            pool.recycle(f.messages.into_batch());
        }
    }
}

#[test]
fn queued_frame_survives_source_buffer_recycle_attempt() {
    let pool = BytesPool::new(4);
    let q: WatermarkQueue<Frame> = WatermarkQueue::new(WatermarkConfig::new(1 << 20, 1 << 10));

    let mut buf = pool.checkout(64);
    buf.extend_from_slice(&5u32.to_le_bytes());
    buf.extend_from_slice(b"hello");
    buf.extend_from_slice(&5u32.to_le_bytes());
    buf.extend_from_slice(b"world");
    let batch = buf.freeze();

    let messages = FrameMessages::parse_prefixed(batch.clone(), Some(2)).unwrap();
    let wire_len = batch.len();
    q.try_push(Frame {
        link_id: 1,
        base_seq: 0,
        messages,
        wire_len,
        sent_at_micros: 0,
        received_at: None,
        seq: None,
        control: None,
        trace: None,
    })
    .unwrap();

    // The sender still holds `batch`, the queue holds the frame: recycling
    // now must be refused, and the queued data must stay intact.
    assert!(!pool.recycle(batch), "shared batch must not be reclaimed");
    assert_eq!(pool.idle(), 0);

    let frame = q.pop().unwrap();
    assert_eq!(frame.messages.len(), 2);
    assert_eq!(frame.messages[0], *b"hello");
    assert_eq!(frame.messages[1], *b"world");

    // The frame now holds the only handle; recycling succeeds and the
    // storage round-trips through the pool.
    assert!(pool.recycle(frame.messages.into_batch()));
    assert_eq!(pool.idle(), 1);
    assert_eq!(pool.stats().discards, 1);
}
