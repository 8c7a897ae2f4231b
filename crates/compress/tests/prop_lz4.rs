//! Property-based tests for the from-scratch LZ4 codec and the selective
//! compression framing.
//!
//! Invariants:
//! 1. compress → decompress is the identity for arbitrary byte vectors.
//! 2. compressed size never exceeds `max_compressed_len`.
//! 3. selective framing round-trips under every policy.
//! 4. the decompressor never panics on arbitrary (possibly corrupt) input —
//!    it either errors or returns bytes, but must stay memory-safe.
//! 5. the compression decision's sampled entropy *is* the exact entropy up
//!    to the sample size, and decides identically beyond it on inputs whose
//!    exact entropy is known in closed form.

use neptune_compress::{
    compress, decompress, decompress_exact, max_compressed_len, sampled_entropy, shannon_entropy,
    CompressionDecision, SelectiveCompressor, DECISION_SAMPLE_BYTES,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert!(c.len() <= max_compressed_len(data.len()));
        let d = decompress(&c, data.len()).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_low_entropy(
        byte in any::<u8>(),
        runs in proptest::collection::vec((any::<u8>(), 1usize..200), 0..50),
    ) {
        // Runs of repeated bytes — the compressible regime.
        let mut data = vec![byte; 16];
        for (b, n) in runs {
            data.extend(std::iter::repeat_n(b, n));
        }
        let c = compress(&data);
        let d = decompress(&c, data.len()).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_structured_records(
        n_records in 0usize..300,
        base in any::<u32>(),
        step in 0u32..16,
    ) {
        // Fixed-layout records with slowly changing values, like buffered
        // IoT sensor packets.
        let mut data = Vec::new();
        for i in 0..n_records as u32 {
            data.extend_from_slice(&(base.wrapping_add(i * step)).to_le_bytes());
            data.extend_from_slice(&i.to_le_bytes());
            data.push(0);
        }
        let c = compress(&data);
        let d = decompress(&c, data.len()).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn selective_roundtrip_any_policy(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        threshold in 0.0f64..=8.0,
        mode in 0u8..3,
    ) {
        let policy = match mode {
            0 => SelectiveCompressor::new(threshold),
            1 => SelectiveCompressor::disabled(),
            _ => SelectiveCompressor::always(),
        };
        let framed = policy.encode(&data);
        let decoded = SelectiveCompressor::decode(&framed.payload).unwrap();
        prop_assert_eq!(decoded, data);
    }

    #[test]
    fn decompressor_never_panics_on_garbage(
        block in proptest::collection::vec(any::<u8>(), 0..512),
        declared_len in 0usize..1024,
    ) {
        // Must not panic; any Result is acceptable.
        let _ = decompress(&block, declared_len);
        let mut out = vec![0u8; declared_len];
        let _ = decompress_exact(&block, &mut out);
    }

    #[test]
    fn decision_entropy_is_exact_up_to_the_sample_size(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        repeat in 1usize..16,
        threshold in 0.0f64..=8.0,
    ) {
        // Up to 64 KiB of tiled data: still under the sample size.
        let data = data.repeat(repeat);
        prop_assert!(data.len() <= DECISION_SAMPLE_BYTES);
        let exact = shannon_entropy(&data);
        prop_assert_eq!(sampled_entropy(&data), exact);
        match SelectiveCompressor::new(threshold).encode(&data).decision {
            CompressionDecision::Raw { entropy } => {
                prop_assert_eq!(entropy, exact);
                prop_assert!(exact >= threshold);
            }
            CompressionDecision::Compressed { entropy, .. }
            | CompressionDecision::Incompressible { entropy } => {
                prop_assert_eq!(entropy, exact);
                prop_assert!(exact < threshold || (threshold >= 8.0 && !data.is_empty()));
            }
        }
    }

    #[test]
    fn sampled_decision_matches_exact_on_constant_and_two_symbol_batches(
        a in any::<u8>(),
        b in any::<u8>(),
        len in (DECISION_SAMPLE_BYTES + 1)..(1usize << 20),
        threshold in 0.0f64..=8.0,
    ) {
        let constant = vec![a; len];
        prop_assert_eq!(sampled_entropy(&constant), 0.0);
        // Strict alternation: every 256-byte sample block holds each
        // symbol 128 times, so the sample sees exactly 1 bit (or 0 when
        // the two symbols coincide) — as does the full scan of an even
        // length, and to within 1e-4 of an odd one.
        let two: Vec<u8> = (0..len).map(|i| if i % 2 == 0 { a } else { b }).collect();
        let (exact, sampled) = (shannon_entropy(&two), sampled_entropy(&two));
        prop_assert!((exact - sampled).abs() < 1e-4, "exact {}, sampled {}", exact, sampled);
        // Same side of the threshold, unless the threshold sits inside
        // that 1e-4 sliver.
        if (exact - threshold).abs() > 1e-4 {
            prop_assert_eq!(sampled < threshold, exact < threshold);
        }
    }

    #[test]
    fn selective_decoder_never_panics_on_garbage(
        frame in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = SelectiveCompressor::decode(&frame);
    }

    #[test]
    fn entropy_bounded_and_permutation_invariant(
        mut data in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let h = shannon_entropy(&data);
        prop_assert!((0.0..=8.0 + 1e-9).contains(&h));
        data.reverse();
        let h2 = shannon_entropy(&data);
        prop_assert!((h - h2).abs() < 1e-12, "entropy must be order-invariant");
    }
}
