//! Offline stand-in for `rand` 0.10 (see `perfbench/stubs/bytes` for why
//! these crates exist): a seedable xoshiro256** generator behind the
//! names the engine's data generators use — `rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, `RngExt::{random_range, fill}`.
//!
//! The streams differ from the real `StdRng` (ChaCha12); they are
//! deterministic per seed, which is all the generators rely on.

use std::ops::{Range, RangeInclusive};

/// Construct a generator from a seed.
pub trait SeedableRng: Sized {
    /// Expand a 64-bit seed into a full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw 64-bit source every helper draws from.
pub trait Rng {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** seeded through splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// A range a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draw one value. Panics on an empty range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

fn unit_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // 53 random mantissa bits: uniform in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

/// Uniform in `0..span` by widening multiply (bias below 2^-64 · span).
fn below<R: Rng + ?Sized>(rng: &mut R, span: u128) -> u128 {
    (u128::from(rng.next_u64()) * span) >> 64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience draws over any [`Rng`].
pub trait RngExt: Rng {
    /// A value uniformly distributed over `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Overwrite `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut c = StdRng::seed_from_u64(10);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f: f64 = r.random_range(-0.05..0.05);
            assert!((-0.05..0.05).contains(&f));
            let i: u8 = r.random_range(0..4);
            assert!(i < 4);
            let j: i32 = r.random_range(-3..=3);
            assert!((-3..=3).contains(&j));
        }
    }

    #[test]
    fn fill_covers_the_tail() {
        let mut r = StdRng::seed_from_u64(2);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        assert!(buf[8..].iter().any(|&b| b != 0));
    }
}
