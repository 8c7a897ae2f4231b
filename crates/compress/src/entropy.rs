//! Byte-level Shannon entropy estimation.
//!
//! The selective compression policy (§III-B5) must decide *per payload*
//! whether the LZ4 pass is worth its CPU cost. NEPTUNE's proxy for
//! compressibility is the Shannon entropy of the byte distribution: a
//! buffered batch of slowly-changing sensor readings has entropy well below
//! 8 bits/byte, while random binary payloads sit at ~8 bits/byte and only
//! waste cycles in the compressor.

/// Shannon entropy of `data`'s byte histogram, in **bits per byte**
/// (0.0 for empty or constant input, up to 8.0 for uniform random bytes).
pub fn shannon_entropy(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    entropy_of_counts(&counts, data.len() as u64)
}

/// Bytes the §III-B5 decision looks at, at most: enough for a stable
/// 256-bin histogram, small enough that deciding about a 1 MB batch costs
/// what deciding about a 64 KB one does.
pub const DECISION_SAMPLE_BYTES: usize = 64 << 10;
/// Granule of the decision's sample above [`DECISION_SAMPLE_BYTES`].
const SAMPLE_BLOCK: usize = 256;

/// The entropy estimate the compression decision uses: exact (it *is*
/// [`shannon_entropy`]) up to [`DECISION_SAMPLE_BYTES`]; above that, the
/// entropy of 256 evenly spaced 256-byte blocks — first block at the
/// start, last block at the end — totalling [`DECISION_SAMPLE_BYTES`].
/// Deterministic in `data`, so sender-side decisions repeat run to run.
pub fn sampled_entropy(data: &[u8]) -> f64 {
    if data.len() <= DECISION_SAMPLE_BYTES {
        return shannon_entropy(data);
    }
    const BLOCKS: u64 = (DECISION_SAMPLE_BYTES / SAMPLE_BLOCK) as u64;
    let last_start = (data.len() - SAMPLE_BLOCK) as u64;
    let mut counts = [0u64; 256];
    for block in 0..BLOCKS {
        // 64-bit product: `block * last_start` passes 2^32 from 16 MB up.
        let start = (block * last_start / (BLOCKS - 1)) as usize;
        for &b in &data[start..start + SAMPLE_BLOCK] {
            counts[b as usize] += 1;
        }
    }
    entropy_of_counts(&counts, DECISION_SAMPLE_BYTES as u64)
}

fn entropy_of_counts(counts: &[u64; 256], total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    let mut h = 0.0;
    for &c in counts.iter() {
        if c > 0 {
            let p = c as f64 / total_f;
            h -= p * p.log2();
        }
    }
    h
}

/// Incremental entropy estimator that can be fed chunks as a buffer fills,
/// so the flush path does not rescan the whole buffer.
///
/// This mirrors NEPTUNE's object-reuse discipline: one estimator per link,
/// [`reset`](EntropyEstimator::reset) after each flush, no per-batch
/// allocation.
#[derive(Debug, Clone)]
pub struct EntropyEstimator {
    counts: [u64; 256],
    total: u64,
}

impl Default for EntropyEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl EntropyEstimator {
    /// New empty estimator.
    pub fn new() -> Self {
        EntropyEstimator { counts: [0; 256], total: 0 }
    }

    /// Account for one chunk of payload bytes.
    pub fn update(&mut self, chunk: &[u8]) {
        for &b in chunk {
            self.counts[b as usize] += 1;
        }
        self.total += chunk.len() as u64;
    }

    /// Current entropy estimate in bits/byte.
    pub fn entropy(&self) -> f64 {
        entropy_of_counts(&self.counts, self.total)
    }

    /// Number of bytes accounted so far.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Clear all counts for reuse on the next batch.
    pub fn reset(&mut self) {
        self.counts = [0; 256];
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(shannon_entropy(&[]), 0.0);
    }

    #[test]
    fn constant_input_is_zero() {
        assert_eq!(shannon_entropy(&[42u8; 1000]), 0.0);
    }

    #[test]
    fn two_symbols_equal_is_one_bit() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        assert!((shannon_entropy(&data) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_bytes_are_eight_bits() {
        let data: Vec<u8> = (0..=255u8).cycle().take(256 * 16).collect();
        assert!((shannon_entropy(&data) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_distribution_matches_formula() {
        // 3/4 of one symbol, 1/4 of another: H = 0.75*log2(4/3)+0.25*2 = 0.8113
        let mut data = vec![0u8; 750];
        data.extend(vec![1u8; 250]);
        let expected = -(0.75f64 * 0.75f64.log2() + 0.25 * 0.25f64.log2());
        assert!((shannon_entropy(&data) - expected).abs() < 1e-12);
    }

    #[test]
    fn incremental_matches_batch() {
        let data: Vec<u8> = (0..4096).map(|i| ((i * 7 + i / 13) % 256) as u8).collect();
        let mut est = EntropyEstimator::new();
        for chunk in data.chunks(100) {
            est.update(chunk);
        }
        assert!((est.entropy() - shannon_entropy(&data)).abs() < 1e-12);
        assert_eq!(est.total_bytes(), 4096);
    }

    #[test]
    fn reset_clears_state() {
        let mut est = EntropyEstimator::new();
        est.update(&[1, 2, 3, 4]);
        est.reset();
        assert_eq!(est.total_bytes(), 0);
        assert_eq!(est.entropy(), 0.0);
        // Reusable after reset.
        est.update(&[9u8; 10]);
        assert_eq!(est.entropy(), 0.0);
        assert_eq!(est.total_bytes(), 10);
    }

    #[test]
    fn sampled_entropy_is_exact_up_to_the_sample_size() {
        for len in [0, 1, 255, 4096, DECISION_SAMPLE_BYTES - 1, DECISION_SAMPLE_BYTES] {
            let data: Vec<u8> = (0..len).map(|i| ((i * 7 + i / 13) % 251) as u8).collect();
            assert_eq!(sampled_entropy(&data), shannon_entropy(&data), "len {len}");
        }
    }

    #[test]
    fn sampled_entropy_tracks_the_exact_value_on_large_inputs() {
        // (Constant and two-symbol batches: `tests/prop_lz4.rs`.)
        let mut state = 0x9E37_79B9u64;
        let random: Vec<u8> = (0..1 << 20)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        assert!((sampled_entropy(&random) - shannon_entropy(&random)).abs() < 0.01);
        // Just past the threshold the blocks still tile without overlap
        // and reach the final byte.
        let mut edge = vec![0u8; DECISION_SAMPLE_BYTES + 1];
        *edge.last_mut().unwrap() = 1;
        assert!(sampled_entropy(&edge) > 0.0, "last block must cover the last byte");
    }

    #[test]
    fn entropy_is_bounded() {
        let samples: Vec<Vec<u8>> = vec![
            (0..100).map(|i| (i * 31) as u8).collect(),
            vec![0, 255, 0, 255, 1],
            b"the quick brown fox".to_vec(),
        ];
        for s in samples {
            let h = shannon_entropy(&s);
            assert!((0.0..=8.0).contains(&h), "entropy {h} out of range");
        }
    }
}
