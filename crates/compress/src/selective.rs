//! Entropy-based selective compression policy (§III-B5).
//!
//! Each encoded payload is framed as:
//!
//! ```text
//! | tag (1B) | original_len (4B LE, only when tag == TAG_LZ4) | body |
//! ```
//!
//! `TAG_RAW` payloads carry the body verbatim; `TAG_LZ4` payloads carry an
//! LZ4 block plus the original length needed by the decompressor. The
//! decision is made per payload against a configurable entropy threshold,
//! exactly as the paper prescribes: *"compresses a payload only if its
//! entropy is less than a configurable threshold"*. The paper also notes the
//! decision should be made *per stream*: [`SelectiveCompressor`] is cheap to
//! construct, so the runtime holds one per link with that link's threshold.
//!
//! The entropy the decision compares is [`sampled_entropy`]: exact for
//! payloads up to 64 KiB, a fixed 64 KiB evenly spaced sample above that —
//! a 1 MB batch the policy then declines to compress should not pay a full
//! extra pass for the privilege.

use crate::entropy::sampled_entropy;
use crate::lz4;

/// Frame tag: body is uncompressed.
pub const TAG_RAW: u8 = 0;
/// Frame tag: body is an LZ4 block preceded by the 4-byte original length.
pub const TAG_LZ4: u8 = 1;

/// What the policy decided for a payload, with the evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionDecision {
    /// Entropy at or above threshold (or compression disabled); sent raw.
    Raw {
        /// Measured entropy in bits/byte.
        entropy: f64,
    },
    /// Entropy below threshold and LZ4 produced a smaller frame.
    Compressed {
        /// Measured entropy in bits/byte.
        entropy: f64,
        /// Bytes before compression.
        original_len: usize,
        /// Bytes after compression (excluding frame header).
        compressed_len: usize,
    },
    /// Entropy was below threshold but LZ4 did not shrink the payload, so
    /// it was sent raw anyway (the expansion guard).
    Incompressible {
        /// Measured entropy in bits/byte.
        entropy: f64,
    },
}

/// An encoded payload plus the decision that produced it.
#[derive(Debug, Clone)]
pub struct FramedPayload {
    /// Frame bytes ready for the wire (tag + optional length + body).
    pub payload: Vec<u8>,
    /// The decision taken.
    pub decision: CompressionDecision,
}

impl FramedPayload {
    /// Bytes that will traverse the network for this payload.
    pub fn wire_len(&self) -> usize {
        self.payload.len()
    }
}

/// A frame with its tag parsed off, borrowed: what a decoder that brings
/// its own output storage needs (see [`SelectiveCompressor::split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload<'a> {
    /// The payload itself, verbatim.
    Raw(&'a [u8]),
    /// An LZ4 block that decodes to exactly `original_len` bytes.
    Lz4 {
        /// Length to decompress to.
        original_len: usize,
        /// The compressed block.
        block: &'a [u8],
    },
}

/// Errors from decoding a selective-compression frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Empty frame.
    Empty,
    /// Unknown tag byte.
    UnknownTag(u8),
    /// Frame too short for its declared layout.
    Truncated,
    /// Inner LZ4 block failed to decode.
    Lz4(lz4::Lz4Error),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "selective: empty frame"),
            DecodeError::UnknownTag(t) => write!(f, "selective: unknown tag {t}"),
            DecodeError::Truncated => write!(f, "selective: truncated frame"),
            DecodeError::Lz4(e) => write!(f, "selective: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The per-link selective compression policy.
#[derive(Debug, Clone, Copy)]
pub struct SelectiveCompressor {
    /// Payloads with entropy strictly below this (bits/byte) are compressed.
    threshold_bits_per_byte: f64,
    /// Master switch: when false every payload is framed raw.
    enabled: bool,
}

impl SelectiveCompressor {
    /// Policy that compresses payloads with entropy below
    /// `threshold_bits_per_byte` (0..=8).
    pub fn new(threshold_bits_per_byte: f64) -> Self {
        assert!(
            (0.0..=8.0).contains(&threshold_bits_per_byte),
            "entropy threshold must be within [0, 8] bits/byte"
        );
        SelectiveCompressor { threshold_bits_per_byte, enabled: true }
    }

    /// Policy with compression disabled entirely (the paper's recommended
    /// setting for high-entropy streams).
    pub fn disabled() -> Self {
        SelectiveCompressor { threshold_bits_per_byte: 0.0, enabled: false }
    }

    /// Policy that compresses everything regardless of entropy (used by the
    /// ablation study to measure the cost the selective scheme avoids).
    pub fn always() -> Self {
        SelectiveCompressor { threshold_bits_per_byte: 8.0, enabled: true }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold_bits_per_byte
    }

    /// Whether compression may ever run under this policy.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Encode one payload according to the policy.
    pub fn encode(&self, payload: &[u8]) -> FramedPayload {
        let mut out = Vec::with_capacity(payload.len() + 8);
        let decision = self.encode_into(payload, &mut out);
        FramedPayload { payload: out, decision }
    }

    /// Encode appending into a reusable buffer; returns the decision.
    pub fn encode_into(&self, payload: &[u8], out: &mut Vec<u8>) -> CompressionDecision {
        if !self.enabled {
            out.push(TAG_RAW);
            out.extend_from_slice(payload);
            return CompressionDecision::Raw { entropy: f64::NAN };
        }
        let entropy = sampled_entropy(payload);
        // `always()` uses threshold 8.0; a uniform-random payload has
        // entropy exactly 8.0, so treat the max threshold as inclusive.
        let should = entropy < self.threshold_bits_per_byte
            || (self.threshold_bits_per_byte >= 8.0 && !payload.is_empty());
        if !should {
            out.push(TAG_RAW);
            out.extend_from_slice(payload);
            return CompressionDecision::Raw { entropy };
        }
        let mark = out.len();
        out.push(TAG_LZ4);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        lz4::compress_into(payload, out);
        let compressed_len = out.len() - mark - 5;
        if compressed_len >= payload.len() {
            // Expansion guard: fall back to raw.
            out.truncate(mark);
            out.push(TAG_RAW);
            out.extend_from_slice(payload);
            return CompressionDecision::Incompressible { entropy };
        }
        CompressionDecision::Compressed { entropy, original_len: payload.len(), compressed_len }
    }

    /// Decode a frame produced by any policy (the tag is self-describing).
    pub fn decode(frame: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let mut out = Vec::new();
        Self::decode_into(frame, &mut out)?;
        Ok(out)
    }

    /// Decode appending into a reusable buffer.
    pub fn decode_into(frame: &[u8], out: &mut Vec<u8>) -> Result<(), DecodeError> {
        match Self::split(frame)? {
            Payload::Raw(body) => {
                out.extend_from_slice(body);
                Ok(())
            }
            Payload::Lz4 { original_len, block } => {
                lz4::decompress_into(block, original_len, out).map_err(DecodeError::Lz4)
            }
        }
    }

    /// Parse the tag (and, for LZ4, the length word) off a frame without
    /// decoding it. A declared length no block of that size could decode
    /// to is refused here, so callers may size storage from the result.
    pub fn split(frame: &[u8]) -> Result<Payload<'_>, DecodeError> {
        let (&tag, body) = frame.split_first().ok_or(DecodeError::Empty)?;
        match tag {
            TAG_RAW => Ok(Payload::Raw(body)),
            TAG_LZ4 => {
                let Some((len, block)) = body.split_first_chunk::<4>() else {
                    return Err(DecodeError::Truncated);
                };
                let original_len = u32::from_le_bytes(*len) as usize;
                let bound = lz4::max_decompressed_len(block.len());
                if original_len > bound {
                    return Err(DecodeError::Lz4(lz4::Lz4Error::OutputOverflow {
                        needed: bound,
                        available: original_len,
                    }));
                }
                Ok(Payload::Lz4 { original_len, block })
            }
            other => Err(DecodeError::UnknownTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bytes(n: usize) -> Vec<u8> {
        let mut state = 0x9E3779B9u64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn low_entropy_gets_compressed() {
        let data = vec![3u8; 4096];
        let f = SelectiveCompressor::new(4.0).encode(&data);
        match f.decision {
            CompressionDecision::Compressed { entropy, original_len, compressed_len } => {
                assert_eq!(entropy, 0.0);
                assert_eq!(original_len, 4096);
                assert!(compressed_len < 100);
            }
            other => panic!("expected compression, got {other:?}"),
        }
        assert!(f.wire_len() < 200);
        assert_eq!(SelectiveCompressor::decode(&f.payload).unwrap(), data);
    }

    #[test]
    fn high_entropy_stays_raw() {
        let data = random_bytes(4096);
        let f = SelectiveCompressor::new(4.0).encode(&data);
        assert!(matches!(f.decision, CompressionDecision::Raw { entropy } if entropy > 7.5));
        assert_eq!(f.wire_len(), data.len() + 1);
        assert_eq!(SelectiveCompressor::decode(&f.payload).unwrap(), data);
    }

    #[test]
    fn disabled_never_compresses() {
        let data = vec![0u8; 1000];
        let f = SelectiveCompressor::disabled().encode(&data);
        assert!(matches!(f.decision, CompressionDecision::Raw { .. }));
        assert_eq!(f.payload[0], TAG_RAW);
        assert_eq!(SelectiveCompressor::decode(&f.payload).unwrap(), data);
    }

    #[test]
    fn always_compresses_even_random_but_guards_expansion() {
        let data = random_bytes(2048);
        let f = SelectiveCompressor::always().encode(&data);
        // Random data expands under LZ4, so the guard must kick in.
        assert!(matches!(f.decision, CompressionDecision::Incompressible { .. }));
        assert_eq!(SelectiveCompressor::decode(&f.payload).unwrap(), data);
    }

    #[test]
    fn always_compresses_sensor_like_data() {
        let mut data = Vec::new();
        for i in 0..1000u32 {
            data.extend_from_slice(&(i / 50).to_le_bytes());
        }
        let f = SelectiveCompressor::always().encode(&data);
        assert!(matches!(f.decision, CompressionDecision::Compressed { .. }));
        assert_eq!(SelectiveCompressor::decode(&f.payload).unwrap(), data);
    }

    #[test]
    fn empty_payload_roundtrips() {
        for policy in [
            SelectiveCompressor::new(4.0),
            SelectiveCompressor::disabled(),
            SelectiveCompressor::always(),
        ] {
            let f = policy.encode(&[]);
            assert_eq!(SelectiveCompressor::decode(&f.payload).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(SelectiveCompressor::decode(&[]).unwrap_err(), DecodeError::Empty);
        assert_eq!(
            SelectiveCompressor::decode(&[77, 1, 2]).unwrap_err(),
            DecodeError::UnknownTag(77)
        );
        assert_eq!(
            SelectiveCompressor::decode(&[TAG_LZ4, 1, 2]).unwrap_err(),
            DecodeError::Truncated
        );
        assert!(matches!(
            SelectiveCompressor::decode(&[TAG_LZ4, 10, 0, 0, 0, 0xFF]).unwrap_err(),
            DecodeError::Lz4(_)
        ));
    }

    #[test]
    fn threshold_boundary_behaviour() {
        // Two-symbol data has entropy exactly 1.0; threshold is strict.
        let data: Vec<u8> = (0..2048).map(|i| (i % 2) as u8).collect();
        let at = SelectiveCompressor::new(1.0).encode(&data);
        assert!(matches!(at.decision, CompressionDecision::Raw { .. }));
        let above = SelectiveCompressor::new(1.01).encode(&data);
        assert!(matches!(above.decision, CompressionDecision::Compressed { .. }));
    }

    #[test]
    #[should_panic(expected = "within [0, 8]")]
    fn rejects_out_of_range_threshold() {
        SelectiveCompressor::new(9.0);
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let policy = SelectiveCompressor::new(4.0);
        let mut buf = Vec::new();
        policy.encode_into(&[1u8; 100], &mut buf);
        let first_len = buf.len();
        buf.clear();
        policy.encode_into(&[2u8; 100], &mut buf);
        assert_eq!(buf.len(), first_len);
    }
}
