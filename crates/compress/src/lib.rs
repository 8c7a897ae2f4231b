//! # neptune-compress
//!
//! Compression substrate for the NEPTUNE reproduction.
//!
//! §III-B5 of the paper: *"NEPTUNE incorporates support for entropy based
//! dynamic compression. ... NEPTUNE employs a selective compression scheme
//! that compresses a payload only if its entropy is less than a configurable
//! threshold. To reduce the latency that can be introduced by compression,
//! we used the LZ4 compression algorithm."*
//!
//! The paper used the reference LZ4 library; this crate reimplements the
//! **LZ4 block format from scratch** (hash-table greedy compressor plus a
//! bounds-checked decompressor), a byte-level **Shannon entropy estimator**,
//! and the **selective compression policy** that stamps each payload with a
//! one-byte codec tag so the receiver knows whether to decompress.
//!
//! ```
//! use neptune_compress::{SelectiveCompressor, CompressionDecision};
//!
//! let low_entropy = vec![7u8; 4096];
//! let policy = SelectiveCompressor::new(4.0); // bits/byte threshold
//! let framed = policy.encode(&low_entropy);
//! assert!(matches!(framed.decision, CompressionDecision::Compressed { .. }));
//! let restored = SelectiveCompressor::decode(&framed.payload).unwrap();
//! assert_eq!(restored, low_entropy);
//! ```

pub mod entropy;
pub mod lz4;
pub mod selective;

pub use entropy::{sampled_entropy, shannon_entropy, EntropyEstimator, DECISION_SAMPLE_BYTES};
pub use lz4::{
    compress, compress_into, decompress, decompress_exact, decompress_into, max_compressed_len,
    Lz4Error,
};
pub use selective::{
    CompressionDecision, FramedPayload, Payload, SelectiveCompressor, TAG_LZ4, TAG_RAW,
};
