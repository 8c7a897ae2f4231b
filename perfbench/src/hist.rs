//! The bench's own latency recorder: a log-linear histogram per one-second
//! window, so a percentile can be taken per window and the median over
//! windows reported (one noisy second does not move the result).
//!
//! Not the engine's `neptune_telemetry::LatencyHistogram`: that one rounds a
//! quantile to a bucket edge 6 % wide, a large share of a 15 % bound; this
//! one has 3 % buckets and interpolates inside them.

use neptune_stats::percentile;

/// Sub-buckets per power of two: relative bucket width 1/32 ≈ 3 %, and
/// quantiles interpolate inside the bucket.
const SUB: usize = 32;
const SUB_BITS: u32 = 5;
/// Values are microseconds; 2^36 µs ≈ 19 h is far beyond any run.
const OCTAVES: usize = 36;

/// Log-linear histogram of microsecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = ((v >> (octave - SUB_BITS)) as usize) & (SUB - 1);
    let index = ((octave - SUB_BITS + 1) as usize) * SUB + sub;
    index.min(OCTAVES * SUB - 1)
}

/// Lowest value that lands in bucket `i`, and the bucket's width.
fn bucket_range(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let octave = (i / SUB) as u32 + SUB_BITS - 1;
    let width = (1u64 << (octave - SUB_BITS)) as f64;
    ((1u64 << octave) as f64 + (i % SUB) as f64 * width, width)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; OCTAVES * SUB], total: 0 }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q ≤ 1), interpolated inside its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = f64::from(c);
            if seen + c >= rank {
                let (low, width) = bucket_range(i);
                return low + width * ((rank - seen) / c);
            }
            seen += c;
        }
        let (low, width) = bucket_range(self.counts.len() - 1);
        low + width
    }
}

/// One [`Histogram`] per second of a phase.
pub struct LatencyWindows {
    t0_us: u64,
    current: usize,
    windows: Vec<Histogram>,
}

/// What a phase's latency samples boil down to.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median over windows of each window's median, ms.
    pub p50_ms: f64,
    /// Median over windows of each window's 99th percentile, ms.
    pub p99_ms: f64,
    /// Samples in the windows used.
    pub samples: u64,
    /// Windows used (the first, which holds the ramp-up, and the last,
    /// which is partial, are skipped when there are at least four).
    pub windows: usize,
    /// Fewest samples in any window used.
    pub min_window_samples: u64,
}

impl LatencyWindows {
    /// Windows counted from `t0_us` (µs since the epoch).
    pub fn new(t0_us: u64) -> Self {
        LatencyWindows { t0_us, current: 0, windows: vec![Histogram::new()] }
    }

    /// Record a latency observed at `now_us`.
    #[inline]
    pub fn record(&mut self, now_us: u64, latency_us: u64) {
        let w = (now_us.saturating_sub(self.t0_us) / 1_000_000) as usize;
        if w != self.current {
            while self.windows.len() <= w {
                self.windows.push(Histogram::new());
            }
            self.current = w;
        }
        self.windows[w].record(latency_us);
    }

    /// Per-window percentiles, then the median over windows.
    pub fn summary(&self) -> LatencySummary {
        let mut used: Vec<&Histogram> = self.windows.iter().filter(|h| h.count() > 0).collect();
        if used.len() >= 4 {
            used.remove(0);
            used.pop();
        }
        if used.is_empty() {
            return LatencySummary::default();
        }
        let p50s: Vec<f64> = used.iter().map(|h| h.quantile(0.50)).collect();
        let p99s: Vec<f64> = used.iter().map(|h| h.quantile(0.99)).collect();
        LatencySummary {
            p50_ms: percentile(&p50s, 50.0) / 1000.0,
            p99_ms: percentile(&p99s, 50.0) / 1000.0,
            samples: used.iter().map(|h| h.count()).sum(),
            windows: used.len(),
            min_window_samples: used.iter().map(|h| h.count()).min().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut prev_end = 0.0;
        for i in 0..(12 * SUB) {
            let (low, width) = bucket_range(i);
            assert_eq!(low, prev_end, "bucket {i}");
            assert_eq!(bucket_of(low as u64), i);
            assert_eq!(bucket_of((low + width) as u64 - 1), i);
            prev_end = low + width;
        }
    }

    #[test]
    fn quantiles_land_within_a_bucket_of_the_truth() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, truth) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!((got - truth).abs() / truth < 0.04, "q{q}: {got} vs {truth}");
        }
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn summary_takes_the_median_over_windows_and_skips_the_ramp() {
        let mut w = LatencyWindows::new(1_000_000);
        // Window 0 (ramp-up) and window 4 (partial): huge. Windows 1-3:
        // 100, 200, 300 µs.
        for at in [1_000_000, 5_000_000] {
            for _ in 0..100 {
                w.record(at, 1_000_000);
            }
        }
        for (i, lat) in [(1u64, 100u64), (2, 200), (3, 300)] {
            for _ in 0..100 {
                w.record(1_000_000 + i * 1_000_000 + 5, lat);
            }
        }
        let s = w.summary();
        assert_eq!(s.windows, 3);
        assert_eq!(s.samples, 300);
        assert!((s.p50_ms - 0.2).abs() < 0.01, "{}", s.p50_ms);
    }
}
