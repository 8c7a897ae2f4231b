//! Time-series sampling.
//!
//! NEPTUNE's backpressure behavior (§III-B4, Fig. 4) is an *oscillation* —
//! throughput rises and falls as the watermark gate opens and closes — and
//! a single end-of-run number cannot show it. [`SampleRing`] turns any
//! cheap-to-take snapshot into a bounded in-memory time series: a
//! thread-safe ring of `(elapsed_micros, sample)` pairs that any scheduler
//! can drive. The runtime's IO tier records into one from a periodic timer
//! task, so a job's sampling costs a timer registration, not a thread.
//!
//! The ring is generic over the sample type so this crate stays free of
//! job-level types; `neptune-core` instantiates it with its own
//! `TelemetrySample`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A thread-safe bounded time series of `(elapsed_micros, sample)` pairs.
///
/// Elapsed time is measured from ring construction; once `capacity`
/// entries are retained the oldest drop first, and [`SampleRing::dropped`]
/// counts every eviction — bounded retention is by design, but the loss
/// is not silent (the counter surfaces in `ThreadModelStats` and
/// both exports).
#[derive(Debug)]
pub struct SampleRing<T> {
    series: Mutex<VecDeque<(u64, T)>>,
    capacity: usize,
    started: Instant,
    dropped: AtomicU64,
}

impl<T> SampleRing<T> {
    /// An empty ring retaining at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        SampleRing {
            series: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            capacity: capacity.max(1),
            started: Instant::now(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one sample stamped with the elapsed time since the ring was
    /// created, evicting the oldest entry when full.
    pub fn record(&self, sample: T) {
        let elapsed = self.started.elapsed().as_micros() as u64;
        let mut series = self.series.lock().unwrap();
        if series.len() == self.capacity {
            series.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        series.push_back((elapsed, sample));
    }

    /// Samples evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.series.lock().unwrap().len()
    }

    /// True when no samples have been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the retained series in chronological order.
    pub fn series(&self) -> Vec<(u64, T)>
    where
        T: Clone,
    {
        self.series.lock().unwrap().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_ring_bounds_and_orders() {
        let ring = SampleRing::new(4);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        for i in 0..10u32 {
            ring.record(i);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6, "evictions are counted, not silent");
        let series = ring.series();
        assert_eq!(series.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        for w in series.windows(2) {
            assert!(w[0].0 <= w[1].0, "elapsed stamps must be monotonic");
        }
    }

    #[test]
    fn ring_capacity_floor_is_one() {
        let ring = SampleRing::new(0);
        ring.record(1u8);
        ring.record(2u8);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.series()[0].1, 2);
    }
}
