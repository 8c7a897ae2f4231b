//! From-scratch implementation of the LZ4 *block* format.
//!
//! Format recap (per the official block-format specification): a block is a
//! series of *sequences*. Each sequence is
//!
//! ```text
//! | token | [literal-length bytes] | literals | offset(2, LE) | [match-length bytes] |
//! ```
//!
//! * token high nibble = literal length (15 ⇒ continued in extra bytes of
//!   255 until a byte < 255),
//! * token low nibble  = match length − 4 (15 ⇒ continued the same way),
//! * offset is the back-reference distance, 1..=65535 (0 is invalid),
//! * the final sequence holds only literals (no offset / match length),
//! * matches are at least 4 bytes (`MIN_MATCH`), and per the spec the last
//!   match must end at least 12 bytes before the end of the block
//!   (`MF_LIMIT`), with the last 5 bytes always literal.
//!
//! The compressor is the classic single-pass greedy scheme with a 4-byte
//! hash table — the same strategy as the reference `LZ4_compress_default`.
//! It always produces valid, spec-conformant blocks; the compression ratio
//! on low-entropy IoT sensor batches is what the paper's selective scheme
//! exploits.

/// Minimum length of an LZ4 match.
const MIN_MATCH: usize = 4;
/// The last match must start at least this many bytes before block end.
const MF_LIMIT: usize = 12;
/// The last 5 bytes of a block must be literals.
const LAST_LITERALS: usize = 5;
/// Log2 of the compressor hash-table size.
const HASH_LOG: usize = 16;
/// Maximum back-reference distance representable in the 2-byte offset.
const MAX_DISTANCE: usize = 65_535;

/// Errors produced while decoding an LZ4 block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lz4Error {
    /// The input ended in the middle of a sequence.
    TruncatedInput,
    /// A match offset of zero, or one pointing before the block start.
    InvalidOffset {
        /// The offending offset.
        offset: usize,
        /// Output cursor position when it was encountered.
        position: usize,
    },
    /// Decoded output exceeded the destination buffer.
    OutputOverflow {
        /// Bytes the sequence needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
}

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz4Error::TruncatedInput => write!(f, "lz4: truncated input"),
            Lz4Error::InvalidOffset { offset, position } => {
                write!(f, "lz4: invalid offset {offset} at output position {position}")
            }
            Lz4Error::OutputOverflow { needed, available } => {
                write!(f, "lz4: output overflow (needed {needed}, available {available})")
            }
        }
    }
}

impl std::error::Error for Lz4Error {}

/// Worst-case compressed size for `len` input bytes
/// (`len + len/255 + 16`, matching `LZ4_compressBound`).
pub fn max_compressed_len(len: usize) -> usize {
    len + len / 255 + 16
}

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // Fibonacci hashing of the 4-byte little-endian word, as in reference LZ4.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    ((v.wrapping_mul(2_654_435_761)) >> (32 - HASH_LOG)) as usize
}

#[inline]
fn read_u32(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]])
}

/// Append an LZ4 length continuation (`255, 255, ..., rest`).
#[inline]
fn push_length(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

/// Compress `input` into a freshly allocated LZ4 block.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(max_compressed_len(input.len()));
    compress_into(input, &mut out);
    out
}

/// Compress `input`, appending the block to `out` (which is *not* cleared —
/// the NEPTUNE output buffers reuse one workhorse vector per link, per the
/// paper's object-reuse scheme).
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    // Blocks too small to contain a legal match are emitted as one literal run.
    if n < MF_LIMIT + 1 {
        emit_final_literals(input, 0, out);
        return;
    }

    let mut table = vec![0u32; 1 << HASH_LOG];
    // `table` stores position+1 so 0 means "empty".
    let mut anchor = 0usize; // start of pending literals
    let mut i = 0usize;
    let match_limit = n - MF_LIMIT; // last position where a match may start

    while i <= match_limit {
        let h = hash4(&input[i..]);
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        if candidate != 0 {
            let cand = candidate - 1;
            if i - cand <= MAX_DISTANCE && read_u32(input, cand) == read_u32(input, i) {
                // Extend the match forward; it may not run into the final
                // LAST_LITERALS region.
                let max_len = n - LAST_LITERALS - i;
                let mut len = MIN_MATCH;
                while len < max_len && input[cand + len] == input[i + len] {
                    len += 1;
                }
                if len >= MIN_MATCH {
                    emit_sequence(input, anchor, i, i - cand, len, out);
                    i += len;
                    anchor = i;
                    // Prime the table with a position inside the match so
                    // runs keep matching (cheap approximation of the
                    // reference's two-position insert).
                    if i <= match_limit && i >= 2 {
                        let back = i - 2;
                        table[hash4(&input[back..])] = (back + 1) as u32;
                    }
                    continue;
                }
            }
        }
        i += 1;
    }
    emit_final_literals(input, anchor, out);
}

/// Emit one literal+match sequence.
fn emit_sequence(
    input: &[u8],
    anchor: usize,
    match_start: usize,
    offset: usize,
    match_len: usize,
    out: &mut Vec<u8>,
) {
    debug_assert!(match_len >= MIN_MATCH);
    debug_assert!((1..=MAX_DISTANCE).contains(&offset));
    let lit_len = match_start - anchor;
    let ml_code = match_len - MIN_MATCH;
    let token_lit = lit_len.min(15) as u8;
    let token_ml = ml_code.min(15) as u8;
    out.push((token_lit << 4) | token_ml);
    if lit_len >= 15 {
        push_length(out, lit_len - 15);
    }
    out.extend_from_slice(&input[anchor..match_start]);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if ml_code >= 15 {
        push_length(out, ml_code - 15);
    }
}

/// Emit the final literals-only sequence.
fn emit_final_literals(input: &[u8], anchor: usize, out: &mut Vec<u8>) {
    let lit_len = input.len() - anchor;
    let token_lit = lit_len.min(15) as u8;
    out.push(token_lit << 4);
    if lit_len >= 15 {
        push_length(out, lit_len - 15);
    }
    out.extend_from_slice(&input[anchor..]);
}

/// Decompress a block into a freshly allocated vector. `decompressed_len`
/// must be the exact original length (NEPTUNE's frame header carries it).
pub fn decompress(block: &[u8], decompressed_len: usize) -> Result<Vec<u8>, Lz4Error> {
    let mut out = Vec::new();
    decompress_into(block, decompressed_len, &mut out)?;
    Ok(out)
}

/// Most bytes a `block_len`-byte block can decode to: the densest
/// encoding is a match-length continuation byte, worth 255 output bytes.
/// A declared length beyond this cannot be met, so callers refuse it
/// *before* sizing an output buffer for it.
pub fn max_decompressed_len(block_len: usize) -> usize {
    block_len.saturating_mul(255)
}

/// Decompress appending to `out` (not cleared). Fails if the block does not
/// decode to exactly `decompressed_len` bytes; `out` is then left as it was.
pub fn decompress_into(
    block: &[u8],
    decompressed_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), Lz4Error> {
    let bound = max_decompressed_len(block.len());
    if decompressed_len > bound {
        return Err(Lz4Error::OutputOverflow { needed: bound, available: decompressed_len });
    }
    let start = out.len();
    out.resize(start + decompressed_len, 0);
    let decoded = decompress_exact(block, &mut out[start..]);
    if decoded.is_err() {
        out.truncate(start);
    }
    decoded
}

/// Decompress straight into caller-provided storage — the receive path's
/// pooled batch buffer. Fails unless the block decodes to exactly
/// `out.len()` bytes; on failure `out` holds unspecified bytes.
pub fn decompress_exact(block: &[u8], out: &mut [u8]) -> Result<(), Lz4Error> {
    let limit = out.len();
    let mut o = 0usize; // output cursor
    let mut i = 0usize;

    loop {
        let token = *block.get(i).ok_or(Lz4Error::TruncatedInput)?;
        i += 1;

        // Literal run.
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_length(block, &mut i)?;
        }
        if lit_len > block.len() - i {
            return Err(Lz4Error::TruncatedInput);
        }
        if lit_len > limit - o {
            return Err(Lz4Error::OutputOverflow { needed: o + lit_len, available: limit });
        }
        out[o..o + lit_len].copy_from_slice(&block[i..i + lit_len]);
        o += lit_len;
        i += lit_len;

        // Final sequence: literals only, input exhausted.
        if i == block.len() {
            break;
        }

        // Match part.
        if i + 2 > block.len() {
            return Err(Lz4Error::TruncatedInput);
        }
        let offset = u16::from_le_bytes([block[i], block[i + 1]]) as usize;
        i += 2;
        if offset == 0 || offset > o {
            return Err(Lz4Error::InvalidOffset { offset, position: o });
        }
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_length(block, &mut i)?;
        }
        match_len += MIN_MATCH;
        if match_len > limit - o {
            return Err(Lz4Error::OutputOverflow { needed: o + match_len, available: limit });
        }
        if offset >= match_len {
            out.copy_within(o - offset..o - offset + match_len, o);
        } else {
            // Overlapping match (how LZ4 encodes runs): each byte may read
            // one this same copy just wrote, so it goes byte by byte.
            for at in o..o + match_len {
                out[at] = out[at - offset];
            }
        }
        o += match_len;
    }

    if o != limit {
        return Err(Lz4Error::OutputOverflow { needed: o, available: limit });
    }
    Ok(())
}

/// Read an LZ4 length continuation.
#[inline]
fn read_length(block: &[u8], i: &mut usize) -> Result<usize, Lz4Error> {
    let mut total = 0usize;
    loop {
        let b = *block.get(*i).ok_or(Lz4Error::TruncatedInput)?;
        *i += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        assert!(c.len() <= max_compressed_len(data.len()), "bound violated");
        decompress(&c, data.len()).expect("decompress")
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
    }

    #[test]
    fn tiny_inputs() {
        for n in 1..=16 {
            let data: Vec<u8> = (0..n as u8).collect();
            assert_eq!(roundtrip(&data), data, "len {n}");
        }
    }

    #[test]
    fn constant_run_compresses_well() {
        let data = vec![0xABu8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100, "constant run should compress >100x, got {}", c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn repeating_pattern_compresses() {
        let pattern = b"sensor=42,valve=open;";
        let mut data = Vec::new();
        for _ in 0..500 {
            data.extend_from_slice(pattern);
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "ratio too low: {} / {}", c.len(), data.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Simple xorshift PRNG for deterministic pseudo-random bytes.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
        // Random data should not shrink (slight expansion is expected).
        assert!(c.len() >= data.len());
    }

    #[test]
    fn long_literal_run_lengths_encoded() {
        // >15 literals before any match forces the length-continuation path.
        let mut data: Vec<u8> = (0..=255u8).collect(); // 256 distinct literals
        data.extend_from_slice(&[1u8; 64]); // then a compressible run
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_match_lengths_encoded() {
        // Matches far longer than 15+4 force match-length continuations.
        let mut data = vec![7u8; 1000];
        data.extend_from_slice(b"trailer-bytes");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn overlapping_match_run_decodes() {
        // "abcabcabc..." produces matches with offset 3 < match_len.
        let mut data = Vec::new();
        for _ in 0..300 {
            data.extend_from_slice(b"abc");
        }
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn sensor_like_payload() {
        // Slowly-varying sensor readings — the paper's low-entropy case.
        let mut data = Vec::new();
        let mut v: i32 = 500;
        for t in 0..2000 {
            v += (t % 7) - 3;
            data.extend_from_slice(&(t as u64).to_le_bytes());
            data.extend_from_slice(&v.to_le_bytes());
            data.extend_from_slice(&[0u8; 4]); // padding fields
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 2, "sensor batch should compress 2x+");
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn decompress_rejects_truncation() {
        let data = vec![9u8; 256];
        let mut c = compress(&data);
        c.truncate(c.len() - 1);
        let err = decompress(&c, data.len()).unwrap_err();
        assert!(
            matches!(err, Lz4Error::TruncatedInput | Lz4Error::OutputOverflow { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn decompress_rejects_zero_offset() {
        // token: 1 literal, match len 4; literal 'x'; offset 0.
        let block = [0x10, b'x', 0x00, 0x00];
        let err = decompress(&block, 5).unwrap_err();
        assert_eq!(err, Lz4Error::InvalidOffset { offset: 0, position: 1 });
    }

    #[test]
    fn decompress_rejects_offset_before_start() {
        // 1 literal then a match with offset 5 > produced bytes (1).
        let block = [0x10, b'x', 0x05, 0x00];
        let err = decompress(&block, 5).unwrap_err();
        assert!(matches!(err, Lz4Error::InvalidOffset { offset: 5, .. }));
    }

    #[test]
    fn decompress_rejects_wrong_declared_length() {
        let data = vec![3u8; 100];
        let c = compress(&data);
        assert!(decompress(&c, 99).is_err());
        assert!(decompress(&c, 101).is_err());
        assert!(decompress(&c, 100).is_ok());
    }

    #[test]
    fn decompress_into_appends_without_clearing() {
        let data = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        let mut out = b"prefix:".to_vec();
        decompress_into(&c, data.len(), &mut out).unwrap();
        assert_eq!(&out[..7], b"prefix:");
        assert_eq!(&out[7..], &data[..]);
    }

    #[test]
    fn compress_into_appends_without_clearing() {
        let data = vec![1u8; 100];
        let mut out = vec![0xEE];
        compress_into(&data, &mut out);
        assert_eq!(out[0], 0xEE);
        assert_eq!(decompress(&out[1..], 100).unwrap(), data);
    }

    #[test]
    fn boundary_sizes_around_mflimit() {
        // The spec's MF_LIMIT/LAST_LITERALS rules kick in near these sizes.
        for n in [11usize, 12, 13, 16, 17, 18, 19, 20, 64, 65] {
            let data = vec![5u8; n];
            assert_eq!(roundtrip(&data), data, "len {n}");
        }
    }
}
