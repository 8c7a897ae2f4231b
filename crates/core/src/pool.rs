//! Object pools — the frugal object-creation scheme of §III-B3.
//!
//! *"NEPTUNE relieves memory pressure through a frugal object creation
//! scheme that reduces strain on the garbage collector via reuse of objects
//! and data structures."*
//!
//! Rust has no GC, but the paper's mechanism translates directly: pooled
//! [`StreamPacket`]s and scratch byte buffers mean the hot path performs no
//! heap allocation per packet, which the REUSE experiment measures with a
//! counting allocator. A checked-out packet is cleared, not emptied: it
//! keeps its field slots and their names, so an operator that refills it
//! with the same layout writes no name and allocates nothing
//! (`crates/core/tests/warm_path_alloc.rs` counts it). Pools are
//! intentionally *not* thread-safe — one pool
//! lives inside each operator instance, which Granules guarantees is
//! single-threaded — so checkout/checkin are plain vector ops.

use crate::packet::StreamPacket;

/// Counters describing a pool's effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts satisfied from the free list.
    pub hits: u64,
    /// Checkouts that had to allocate a fresh object.
    pub misses: u64,
    /// Objects returned to the pool.
    pub returns: u64,
    /// Returns dropped because the pool was at capacity.
    pub discards: u64,
}

impl PoolStats {
    /// Fraction of checkouts served without allocating (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded pool of reusable [`StreamPacket`]s.
#[derive(Debug)]
pub struct PacketPool {
    free: Vec<StreamPacket>,
    max_retained: usize,
    stats: PoolStats,
}

impl PacketPool {
    /// Pool retaining at most `max_retained` idle packets.
    pub fn new(max_retained: usize) -> Self {
        assert!(max_retained > 0, "pool must retain at least one object");
        PacketPool {
            free: Vec::with_capacity(max_retained.min(1024)),
            max_retained,
            stats: PoolStats::default(),
        }
    }

    /// Default pool size used by operator instances: a batch worth of
    /// packets.
    pub fn for_batch(batch_size: usize) -> Self {
        Self::new(batch_size.max(1) * 2)
    }

    /// Check out a packet: cleared, with whatever field capacity its past
    /// life accumulated.
    pub fn checkout(&mut self) -> StreamPacket {
        match self.free.pop() {
            Some(mut p) => {
                self.stats.hits += 1;
                p.clear();
                p
            }
            None => {
                self.stats.misses += 1;
                StreamPacket::new()
            }
        }
    }

    /// Return a packet for reuse. Keeps allocation, drops the packet if
    /// the pool is full.
    pub fn checkin(&mut self, packet: StreamPacket) {
        if self.free.len() < self.max_retained {
            self.stats.returns += 1;
            self.free.push(packet);
        } else {
            self.stats.discards += 1;
        }
    }

    /// Idle packets currently retained.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

/// A bounded pool of scratch byte buffers (serialization scratch, batch
/// staging).
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    max_retained: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// Pool retaining at most `max_retained` idle buffers.
    pub fn new(max_retained: usize) -> Self {
        assert!(max_retained > 0, "pool must retain at least one object");
        BufferPool { free: Vec::new(), max_retained, stats: PoolStats::default() }
    }

    /// Check out a cleared buffer.
    pub fn checkout(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut b) => {
                self.stats.hits += 1;
                b.clear();
                b
            }
            None => {
                self.stats.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a buffer for reuse.
    pub fn checkin(&mut self, buffer: Vec<u8>) {
        if self.free.len() < self.max_retained {
            self.stats.returns += 1;
            self.free.push(buffer);
        } else {
            self.stats.discards += 1;
        }
    }

    /// Idle buffers currently retained.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FieldValue;

    #[test]
    fn checkout_from_empty_pool_allocates() {
        let mut pool = PacketPool::new(4);
        let p = pool.checkout();
        assert!(p.is_empty());
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn checkin_then_checkout_reuses() {
        let mut pool = PacketPool::new(4);
        let mut p = pool.checkout();
        p.push_field("x", FieldValue::U64(1));
        pool.checkin(p);
        assert_eq!(pool.idle(), 1);
        let q = pool.checkout();
        assert!(q.is_empty(), "checked-out packet must be cleared");
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().returns, 1);
    }

    #[test]
    fn pool_capacity_bounds_retention() {
        let mut pool = PacketPool::new(2);
        for _ in 0..5 {
            let p = pool.checkout();
            pool.checkin(p);
        }
        // Sequential checkout/checkin never exceeds 1 idle.
        assert_eq!(pool.idle(), 1);
        // Now overfill.
        let (a, b, c) = (pool.checkout(), pool.checkout(), pool.checkout());
        pool.checkin(a);
        pool.checkin(b);
        pool.checkin(c);
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.stats().discards, 1);
    }

    #[test]
    fn hit_rate_reflects_reuse() {
        let mut pool = PacketPool::new(8);
        let p = pool.checkout(); // miss
        pool.checkin(p);
        for _ in 0..9 {
            let p = pool.checkout(); // hits
            pool.checkin(p);
        }
        assert!((pool.stats().hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn buffer_pool_keeps_capacity() {
        let mut pool = BufferPool::new(4);
        let mut b = pool.checkout();
        b.extend_from_slice(&[0u8; 4096]);
        let cap = b.capacity();
        pool.checkin(b);
        let b2 = pool.checkout();
        assert!(b2.is_empty());
        assert!(b2.capacity() >= cap, "capacity must survive the pool");
    }

    #[test]
    fn for_batch_sizes_generously() {
        let pool = PacketPool::for_batch(64);
        assert_eq!(pool.max_retained, 128);
        let pool = PacketPool::for_batch(0);
        assert_eq!(pool.max_retained, 2);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_capacity_rejected() {
        PacketPool::new(0);
    }
}
