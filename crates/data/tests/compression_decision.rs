//! The §III-B5 decision samples batches above 64 KiB instead of scanning
//! them (`neptune_compress::sampled_entropy`). On the streams this
//! repository generates, sampling must not change what gets compressed:
//! the sampled estimate lands on the same side of every threshold a job
//! would plausibly configure as the exact entropy does.

use neptune_compress::{
    sampled_entropy, shannon_entropy, CompressionDecision, SelectiveCompressor,
    DECISION_SAMPLE_BYTES,
};
use neptune_core::{PacketCodec, StreamPacket};
use neptune_data::{ManufacturingSimulator, RandomPayloadGenerator};

/// Serialize packets back to back, as an output buffer does, until the
/// batch is `target` bytes or more.
fn batch_of(target: usize, mut next: impl FnMut() -> StreamPacket) -> Vec<u8> {
    let mut codec = PacketCodec::new();
    let mut batch = Vec::with_capacity(target + (16 << 10));
    while batch.len() < target {
        codec.encode_into(&next(), &mut batch).expect("generated packets encode");
    }
    batch
}

/// Thresholds from "compress almost nothing" to "compress almost
/// everything", the benchmark's 5.0 among them.
const THRESHOLDS: [f64; 8] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.9];

fn assert_same_decisions(what: &str, batch: &[u8]) {
    assert!(batch.len() > DECISION_SAMPLE_BYTES, "{what}: batch must be large enough to sample");
    let (exact, sampled) = (shannon_entropy(batch), sampled_entropy(batch));
    assert!((exact - sampled).abs() < 0.1, "{what}: exact {exact}, sampled {sampled}");
    for threshold in THRESHOLDS {
        assert_eq!(
            sampled < threshold,
            exact < threshold,
            "{what}: threshold {threshold}, exact {exact}, sampled {sampled}"
        );
        // And the policy acts on it: LZ4 runs exactly when the exact
        // entropy is under the threshold.
        match SelectiveCompressor::new(threshold).encode(batch).decision {
            CompressionDecision::Raw { entropy } => {
                assert!(exact >= threshold, "{what}: raw at {threshold}, exact {exact}");
                assert_eq!(entropy, sampled, "{what}: the decision reports what it measured");
            }
            CompressionDecision::Compressed { .. } | CompressionDecision::Incompressible { .. } => {
                assert!(exact < threshold, "{what}: compressed at {threshold}, exact {exact}");
            }
        }
    }
}

#[test]
fn manufacturing_batches_decide_as_the_exact_entropy_would() {
    for seed in [1, 2, 7] {
        let mut sim = ManufacturingSimulator::new(seed);
        for size in [100 << 10, 1 << 20] {
            let batch = batch_of(size, || sim.next_packet());
            assert_same_decisions(&format!("manufacturing seed {seed}, {size} B"), &batch);
        }
    }
}

#[test]
fn random_payload_batches_decide_as_the_exact_entropy_would() {
    for (seed, payload) in [(1, 10 << 10), (2, 400), (3, 50)] {
        let mut gen = RandomPayloadGenerator::new(payload, seed);
        let batch = batch_of(1 << 20, || gen.next_packet());
        assert_same_decisions(&format!("random {payload} B payloads, seed {seed}"), &batch);
    }
}

#[test]
fn small_batches_are_not_sampled_at_all() {
    let mut sim = ManufacturingSimulator::new(5);
    let batch = batch_of(48 << 10, || sim.next_packet());
    let batch = &batch[..batch.len().min(DECISION_SAMPLE_BYTES)];
    assert_eq!(sampled_entropy(batch), shannon_entropy(batch));
}
