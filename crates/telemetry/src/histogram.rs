//! Lock-free log-bucketed latency histogram (HDR-style).
//!
//! NEPTUNE's evaluation (§IV) reports end-to-end latency distributions, and
//! the flush-timer bound of §III-B1 (Fig. 2) is a claim about the *tail* of
//! that distribution — so the recorder must capture percentiles, not means,
//! and must do so without perturbing the hot path it measures.
//!
//! The design is the classic log-linear layout: values below 2^SUB_BITS are
//! counted exactly (one bucket per value); above that, each power-of-two
//! octave is split into 2^SUB_BITS linear sub-buckets, bounding relative
//! quantization error at 1/2^SUB_BITS (6.25% here) across the full `u64`
//! range. Recording is a single `fetch_add(1, Relaxed)` on a fixed-size
//! `[AtomicU64; N]` — no locks, no allocation, wait-free on x86/ARM.
//!
//! Snapshots are plain `Vec<u64>` copies that can be merged across shards
//! (one histogram per operator instance) and queried for quantiles.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear/sub-bucket resolution: 2^4 = 16 sub-buckets per octave.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Total buckets needed to cover `0..=u64::MAX` at this resolution:
/// index(u64::MAX) = ((63 - SUB_BITS + 1) << SUB_BITS) + (SUB - 1) = 975.
pub const N_BUCKETS: usize = (((63 - SUB_BITS as usize + 1) << SUB_BITS) | (SUB as usize - 1)) + 1;

/// Map a recorded value to its bucket index. Monotone non-decreasing and
/// continuous across the linear/log boundary (values `0..16` map to
/// indices `0..16`; `16..32` to `16..32`; then 16 buckets per octave).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    let msb = 63 - (v | 1).leading_zeros();
    if msb < SUB_BITS {
        v as usize
    } else {
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & (SUB - 1)) as usize;
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

/// Smallest value that lands in bucket `i` (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    let exp = (i >> SUB_BITS) as u32;
    let sub = (i as u64) & (SUB - 1);
    if exp == 0 {
        i as u64
    } else {
        (SUB + sub) << (exp - 1)
    }
}

/// Largest value that lands in bucket `i`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        u64::MAX
    } else {
        bucket_lower_bound(i + 1) - 1
    }
}

/// A concurrent latency histogram. All recording is `Relaxed` atomic — the
/// per-bucket counts are independent monotonic counters and a snapshot is
/// allowed to be *slightly* torn across buckets (telemetry, not ledger).
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Wait-free; safe from any number of threads.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state into an inert, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; N_BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram").field("count", &self.count()).finish_non_exhaustive()
    }
}

/// An inert copy of a histogram: mergeable across shards and queryable for
/// quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> Self {
        HistogramSnapshot { counts: vec![0; N_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another shard's snapshot into this one. Merge-of-shards is
    /// exactly equivalent to having recorded every value into a single
    /// histogram (property-tested in `tests/histogram_props.rs`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th smallest recording, clamped to the
    /// observed max. Monotone non-decreasing in `q`; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Sparse `(bucket_index, count)` pairs for non-empty buckets — the
    /// wire form `neptune-cluster` nodes ship in telemetry reports.
    /// Latency histograms are overwhelmingly sparse (a handful of octaves
    /// out of [`N_BUCKETS`]), so this is far smaller than the dense array
    /// and [`from_sparse`](Self::from_sparse) rebuilds it losslessly.
    pub fn sparse_counts(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Rebuild a snapshot from [`sparse_counts`](Self::sparse_counts)
    /// output plus the scalar tallies. Out-of-range bucket indices (a
    /// newer peer with more buckets) are clamped into the last bucket so a
    /// merge never panics and totals stay consistent.
    pub fn from_sparse(buckets: &[(u32, u64)], count: u64, sum: u64, max: u64) -> Self {
        let mut counts = vec![0u64; N_BUCKETS];
        for &(i, c) in buckets {
            let i = (i as usize).min(N_BUCKETS - 1);
            counts[i] += c;
        }
        HistogramSnapshot { counts, count, sum, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count_covers_u64_max() {
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(N_BUCKETS, 976);
    }

    #[test]
    fn index_is_monotone_and_continuous_at_boundaries() {
        // Exhaustive over the linear region and the first octaves.
        let mut prev = 0usize;
        for v in 0u64..4096 {
            let i = bucket_index(v);
            assert!(i >= prev, "index must be monotone at v={v}");
            assert!(i - prev <= 1, "index must not skip buckets at v={v}");
            prev = i;
        }
        // Identity in the linear region.
        for v in 0u64..32 {
            assert_eq!(bucket_index(v), v as usize);
        }
    }

    #[test]
    fn bounds_invert_index() {
        for i in 0..N_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i} maps back");
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i} maps back");
        }
    }

    #[test]
    fn records_extremes() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_respect_relative_error() {
        let h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        for (q, exact) in [(0.50, 5_000f64), (0.95, 9_500f64), (0.99, 9_900f64)] {
            let got = s.quantile(q) as f64;
            assert!(
                got >= exact && got <= exact * (1.0 + 1.0 / SUB as f64),
                "q={q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(s.max(), 10_000);
    }

    #[test]
    fn empty_snapshot_is_zeroes() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(10);
        a.record(20);
        b.record(1_000_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), 1_000_000);
        assert_eq!(s.sum(), 1_000_030);
    }

    #[test]
    fn sparse_roundtrip_is_lossless() {
        let h = LatencyHistogram::new();
        for v in [0u64, 1, 15, 16, 17, 1_000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let rebuilt =
            HistogramSnapshot::from_sparse(&s.sparse_counts(), s.count(), s.sum(), s.max());
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.p99(), s.p99());
        // Unknown future bucket indices clamp instead of panicking.
        let clamped = HistogramSnapshot::from_sparse(&[(u32::MAX, 3)], 3, 30, 10);
        assert_eq!(clamped.count(), 3);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }
}
