//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) at memory speed.
//!
//! Every frame body is checksummed once on send and once on receive, so on
//! a 10 KB-packet TCP hop the checksum *is* the per-byte cost. Three
//! kernels compute the same function:
//!
//! * [`reference()`] — one table lookup per byte. The definition the other
//!   two are tested against; nothing on the data path calls it.
//! * [`portable`] — slicing-by-16: sixteen `const` tables consume sixteen
//!   input bytes per step with independent lookups. Used on any CPU, and
//!   for short inputs and tails everywhere.
//! * [`hardware`] — x86_64 carry-less-multiply folding (Intel, *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ*): four 128-bit
//!   lanes folded 64 bytes per step, reduced to 32 bits with a Barrett
//!   step. Picked at run time when the CPU reports `pclmulqdq` and
//!   `sse4.1`; inputs under [`HW_MIN_LEN`] bytes take the portable kernel.
//!
//! The polynomial is the one the wire format has always used, so frames
//! are byte-identical whichever kernel produced or checks them.
//!
//! All kernels share one convention: they take and return the *raw* shift
//! register (initially `!0`, inverted once more at the end), which is what
//! makes them composable mid-stream — [`Crc32`] just threads the register
//! through successive [`update`](Crc32::update) calls.

/// Reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the register after byte `b` followed by `k` zero bytes.
/// `TABLES[0]` is the classic bytewise table.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Bytewise table kernel: the test reference for the other two.
pub fn reference(mut reg: u32, data: &[u8]) -> u32 {
    for &b in data {
        reg = TABLES[0][((reg ^ b as u32) & 0xFF) as usize] ^ (reg >> 8);
    }
    reg
}

/// Slicing-by-16 kernel: sixteen bytes per step, any CPU.
pub fn portable(mut reg: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let block: &[u8; 16] = block.try_into().expect("chunks_exact(16)");
        let head = reg ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        reg = TABLES[15][(head & 0xFF) as usize]
            ^ TABLES[14][((head >> 8) & 0xFF) as usize]
            ^ TABLES[13][((head >> 16) & 0xFF) as usize]
            ^ TABLES[12][(head >> 24) as usize]
            ^ TABLES[11][block[4] as usize]
            ^ TABLES[10][block[5] as usize]
            ^ TABLES[9][block[6] as usize]
            ^ TABLES[8][block[7] as usize]
            ^ TABLES[7][block[8] as usize]
            ^ TABLES[6][block[9] as usize]
            ^ TABLES[5][block[10] as usize]
            ^ TABLES[4][block[11] as usize]
            ^ TABLES[3][block[12] as usize]
            ^ TABLES[2][block[13] as usize]
            ^ TABLES[1][block[14] as usize]
            ^ TABLES[0][block[15] as usize];
    }
    reference(reg, blocks.remainder())
}

/// Shortest input the folding kernel takes: it needs 64 bytes to load its
/// four lanes and only pays off with a few folds after that.
pub const HW_MIN_LEN: usize = 128;

/// Carry-less-multiply kernel, or `None` when this CPU (or architecture)
/// lacks the instructions. Inputs shorter than [`HW_MIN_LEN`], and the
/// sub-16-byte tail of longer ones, go through [`portable`].
pub fn hardware(reg: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            if data.len() < HW_MIN_LEN {
                return Some(portable(reg, data));
            }
            // SAFETY: `fold`'s only requirement is that the CPU has the two
            // target features it is compiled with, detected just above.
            return Some(unsafe { clmul::fold(reg, data) });
        }
    }
    let _ = (reg, data);
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // x^n mod P for the fold distances, bit-reflected (Intel's paper, table
    // for the IEEE polynomial): K1/K2 fold across 64 bytes, K3/K4 across
    // 16, K5 finishes 96 → 64 bits; P and MU drive the Barrett step.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Advance `acc` across the distance `keys` encode and absorb `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold16(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The first 16 bytes of `lane` as one vector.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn load(lane: &[u8]) -> __m128i {
        let lane: &[u8; 16] = lane.first_chunk().expect("a full 16-byte lane");
        // SAFETY: the array reference proves 16 readable bytes, and `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Fold `data` (at least 64 bytes — four full lanes) into the raw
    /// register `reg`. Safe to call wherever the two target features are
    /// known to be present; panics on a shorter input.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn fold(reg: u32, data: &[u8]) -> u32 {
        let (head, mut rest) = data.split_at(64);
        let mut x0 = load(&head[0..]);
        let mut x1 = load(&head[16..]);
        let mut x2 = load(&head[32..]);
        let mut x3 = load(&head[48..]);
        // The running register enters as the low 32 bits of the stream.
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(reg as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            x0 = fold16(x0, load(&block[0..]), k1k2);
            x1 = fold16(x1, load(&block[16..]), k1k2);
            x2 = fold16(x2, load(&block[32..]), k1k2);
            x3 = fold16(x3, load(&block[48..]), k1k2);
            rest = tail;
        }

        // Four lanes → one, then any remaining whole 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x0, x1, k3k4);
        x = fold16(x, x2, k3k4);
        x = fold16(x, x3, k3k4);
        while rest.len() >= 16 {
            let (block, tail) = rest.split_at(16);
            x = fold16(x, load(block), k3k4);
            rest = tail;
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 → 32 bits (reflected form: the answer is
        // the upper half of the low quadword).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let reg = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::portable(reg, rest)
    }
}

/// Fold `data` into the raw register with the fastest kernel this CPU has.
#[inline]
fn advance(reg: u32, data: &[u8]) -> u32 {
    match hardware(reg, data) {
        Some(reg) => reg,
        None => portable(reg, data),
    }
}

/// Streaming CRC-32: feed a body in as many pieces as it arrives in.
///
/// `Crc32::new()`, any number of [`update`](Self::update)s, then
/// [`finalize`](Self::finalize) equals [`crc32`] over the concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    reg: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A checksum over nothing so far.
    pub const fn new() -> Self {
        Crc32 { reg: !0 }
    }

    /// Fold the next piece of the stream in.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.reg = advance(self.reg, data);
    }

    /// The checksum of everything fed so far.
    #[inline]
    pub const fn finalize(self) -> u32 {
        !self.reg
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !advance(!0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(Crc32::new().finalize(), 0);
    }
}
