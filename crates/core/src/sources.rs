//! Built-in stream-source adapters.
//!
//! §III-A2 of the paper: *"Typical implementations of stream sources may
//! read data from message brokers and message queues. A NEPTUNE stream
//! source can ingest streams using a pull-based approach from an IoT
//! gateway as outlined in IoT reference architectures."*
//!
//! * [`QueueSource`] — pulls packets from a shared
//!   [`QueueDataset`](neptune_granules::QueueDataset), the Granules
//!   dataset abstraction; external gateway threads push into the queue
//!   and the source drains it into the graph. This is the
//!   broker/gateway-ingestion shape.
//! * [`IteratorSource`] — adapts any `Iterator<Item = StreamPacket>`
//!   (replays, files, generators).
//! * [`RateLimitedSource`] — wraps another source with a token-bucket
//!   emission cap, for controlled-rate experiments.

use crate::operator::{OperatorContext, SourceStatus, StreamSource};
use crate::packet::StreamPacket;
use neptune_granules::QueueDataset;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pull-based ingestion from a shared gateway queue.
///
/// The queue is a bounded [`QueueDataset`]; producers that outrun the
/// graph see `Err(packet)` from `push` and can apply their own policy
/// (retry, drop at the edge), while the graph side never loses a packet
/// that made it into the queue.
pub struct QueueSource {
    queue: Arc<QueueDataset<StreamPacket>>,
    /// When true, the source exhausts once the queue is empty *and* the
    /// gateway called [`QueueDataset::close`]; when false an empty queue
    /// just reports [`SourceStatus::Idle`].
    finite: bool,
    drained: u64,
}

impl QueueSource {
    /// Endless ingestion: an empty queue means "idle, poll again".
    pub fn new(queue: Arc<QueueDataset<StreamPacket>>) -> Self {
        QueueSource { queue, finite: false, drained: 0 }
    }

    /// Finite ingestion for replay/testing: exhausts when the queue has
    /// been closed and fully drained.
    pub fn finite(queue: Arc<QueueDataset<StreamPacket>>) -> Self {
        QueueSource { queue, finite: true, drained: 0 }
    }

    /// Packets pulled from the queue so far.
    pub fn drained(&self) -> u64 {
        self.drained
    }
}

impl StreamSource for QueueSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        match self.queue.pop() {
            Some(packet) => {
                self.drained += 1;
                match ctx.emit(&packet) {
                    Ok(()) => SourceStatus::Emitted(1),
                    Err(_) => SourceStatus::Exhausted,
                }
            }
            None => {
                if self.finite && self.queue.is_closed() {
                    // The gateway declared end-of-stream and the tail has
                    // been fully drained.
                    SourceStatus::Exhausted
                } else {
                    SourceStatus::Idle
                }
            }
        }
    }
}

/// Adapt any iterator of packets into a source.
pub struct IteratorSource<I: Iterator<Item = StreamPacket> + Send> {
    iter: I,
    emitted: u64,
}

impl<I: Iterator<Item = StreamPacket> + Send> IteratorSource<I> {
    /// Wrap an iterator.
    pub fn new(iter: I) -> Self {
        IteratorSource { iter, emitted: 0 }
    }

    /// Packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl<I: Iterator<Item = StreamPacket> + Send> StreamSource for IteratorSource<I> {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        match self.iter.next() {
            Some(packet) => match ctx.emit(&packet) {
                Ok(()) => {
                    self.emitted += 1;
                    SourceStatus::Emitted(1)
                }
                Err(_) => SourceStatus::Exhausted,
            },
            None => SourceStatus::Exhausted,
        }
    }
}

/// Token-bucket rate limiter around another source.
///
/// Used by controlled-rate experiments (e.g. reproducing a sensor's
/// native sampling rate instead of free-running).
pub struct RateLimitedSource<S: StreamSource> {
    inner: S,
    packets_per_sec: f64,
    tokens: f64,
    last_refill: Instant,
    burst: f64,
}

impl<S: StreamSource> RateLimitedSource<S> {
    /// Cap `inner` at `packets_per_sec`, allowing bursts of up to one
    /// flush-timer's worth (capped at 256 tokens).
    pub fn new(inner: S, packets_per_sec: f64) -> Self {
        assert!(packets_per_sec > 0.0, "rate must be positive");
        RateLimitedSource {
            inner,
            packets_per_sec,
            tokens: 1.0,
            last_refill: Instant::now(),
            burst: (packets_per_sec / 100.0).clamp(1.0, 256.0),
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.packets_per_sec
    }
}

impl<S: StreamSource> StreamSource for RateLimitedSource<S> {
    fn open(&mut self, ctx: &mut OperatorContext) {
        self.inner.open(ctx);
        self.last_refill = Instant::now();
    }

    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        let now = Instant::now();
        self.tokens = (self.tokens
            + now.duration_since(self.last_refill).as_secs_f64() * self.packets_per_sec)
            .min(self.burst);
        self.last_refill = now;
        if self.tokens < 1.0 {
            // Sleep just long enough for the next token; the pump thread's
            // Idle backoff would oversleep at high rates.
            let wait = (1.0 - self.tokens) / self.packets_per_sec;
            std::thread::sleep(Duration::from_secs_f64(wait.min(0.005)));
            return SourceStatus::Idle;
        }
        match self.inner.next(ctx) {
            SourceStatus::Emitted(n) => {
                self.tokens -= n as f64;
                SourceStatus::Emitted(n)
            }
            other => other,
        }
    }

    fn close(&mut self, ctx: &mut OperatorContext) {
        self.inner.close(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FieldValue;
    use neptune_granules::DatasetId;

    fn packet(n: u64) -> StreamPacket {
        let mut p = StreamPacket::new();
        p.push_field("n", FieldValue::U64(n));
        p
    }

    #[test]
    fn queue_source_pulls_from_gateway_queue() {
        let queue = Arc::new(QueueDataset::new(DatasetId(1), 64));
        for i in 0..5 {
            queue.push(packet(i)).unwrap();
        }
        let mut src = QueueSource::new(queue.clone());
        let mut ctx = OperatorContext::collector("gw");
        let mut emitted = 0;
        for _ in 0..5 {
            match src.next(&mut ctx) {
                SourceStatus::Emitted(n) => emitted += n,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(emitted, 5);
        assert_eq!(src.drained(), 5);
        // Queue empty now: idle, not exhausted (endless mode).
        assert_eq!(src.next(&mut ctx), SourceStatus::Idle);
        // More data arrives later.
        queue.push(packet(99)).unwrap();
        assert_eq!(src.next(&mut ctx), SourceStatus::Emitted(1));
        let collected = ctx.take_collected();
        assert_eq!(collected.len(), 6);
        assert_eq!(collected[5].1.get("n").unwrap().as_u64(), Some(99));
    }

    #[test]
    fn queue_source_backpressures_producers_via_bounded_queue() {
        let queue: Arc<QueueDataset<StreamPacket>> = Arc::new(QueueDataset::new(DatasetId(2), 2));
        queue.push(packet(0)).unwrap();
        queue.push(packet(1)).unwrap();
        // The gateway sees the bounded queue full — edge flow control.
        assert!(queue.push(packet(2)).is_err());
        let mut src = QueueSource::new(queue.clone());
        let mut ctx = OperatorContext::collector("gw");
        src.next(&mut ctx);
        assert!(queue.push(packet(2)).is_ok(), "drained one slot");
    }

    #[test]
    fn finite_queue_source_exhausts_after_close() {
        let queue: Arc<QueueDataset<StreamPacket>> = Arc::new(QueueDataset::new(DatasetId(3), 8));
        queue.push(packet(1)).unwrap();
        queue.push(packet(2)).unwrap();
        use neptune_granules::Dataset;
        queue.close();
        let mut src = QueueSource::finite(queue);
        let mut ctx = OperatorContext::collector("gw");
        // The tail drains first, then exhaustion.
        assert_eq!(src.next(&mut ctx), SourceStatus::Emitted(1));
        assert_eq!(src.next(&mut ctx), SourceStatus::Emitted(1));
        assert_eq!(src.next(&mut ctx), SourceStatus::Exhausted);
    }

    #[test]
    fn iterator_source_replays_everything() {
        let packets: Vec<StreamPacket> = (0..10).map(packet).collect();
        let mut src = IteratorSource::new(packets.into_iter());
        let mut ctx = OperatorContext::collector("replay");
        let mut emitted = 0;
        loop {
            match src.next(&mut ctx) {
                SourceStatus::Emitted(n) => emitted += n,
                SourceStatus::Exhausted => break,
                SourceStatus::Idle | SourceStatus::Pending => {}
            }
        }
        assert_eq!(emitted, 10);
        assert_eq!(src.emitted(), 10);
        let got = ctx.take_collected();
        for (i, (_, p)) in got.iter().enumerate() {
            assert_eq!(p.get("n").unwrap().as_u64(), Some(i as u64));
        }
    }

    #[test]
    fn rate_limited_source_caps_emission() {
        let packets: Vec<StreamPacket> = (0..10_000).map(packet).collect();
        let mut src = RateLimitedSource::new(IteratorSource::new(packets.into_iter()), 2_000.0);
        assert_eq!(src.rate(), 2_000.0);
        let mut ctx = OperatorContext::collector("paced");
        let t0 = Instant::now();
        let mut emitted = 0u64;
        while t0.elapsed() < Duration::from_millis(250) {
            if let SourceStatus::Emitted(n) = src.next(&mut ctx) {
                emitted += n as u64;
            }
        }
        let rate = emitted as f64 / t0.elapsed().as_secs_f64();
        assert!((1_000.0..3_200.0).contains(&rate), "measured {rate:.0} pkt/s, expected ~2000");
    }

    #[test]
    fn rate_limited_source_passes_through_exhaustion() {
        let packets: Vec<StreamPacket> = (0..3).map(packet).collect();
        let mut src = RateLimitedSource::new(IteratorSource::new(packets.into_iter()), 1e6);
        let mut ctx = OperatorContext::collector("paced");
        let mut emitted = 0;
        loop {
            match src.next(&mut ctx) {
                SourceStatus::Emitted(n) => emitted += n,
                SourceStatus::Exhausted => break,
                SourceStatus::Idle | SourceStatus::Pending => {}
            }
        }
        assert_eq!(emitted, 3);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let packets: Vec<StreamPacket> = vec![];
        let _ = RateLimitedSource::new(IteratorSource::new(packets.into_iter()), 0.0);
    }
}
