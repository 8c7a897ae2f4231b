//! IoT small-packet workloads (Fig. 2 and Fig. 7 of the paper).
//!
//! The relay experiments sweep the message size *"from 50 bytes to 10 KB
//! ... We have focused more on relatively small sized messages, which are
//! in the range of 50 to 400 bytes, since majority of the message sizes
//! found in IoT and sensing environment datasets are within that range."*

use neptune_core::{
    now_micros, FieldValue, OperatorContext, SourceStatus, StreamPacket, StreamSource,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The message sizes swept by the paper's relay experiments (bytes).
pub const PAPER_MESSAGE_SIZES: [usize; 5] = [50, 200, 400, 1024, 10 * 1024];

/// Deterministic generator of fixed-size IoT packets.
///
/// Each packet carries a sequence number, an emission timestamp (for
/// end-to-end latency measurement at the receiving stage), and a payload
/// blob padding the packet to the requested size.
#[derive(Debug)]
pub struct IotPacketGenerator {
    payload_size: usize,
    seq: u64,
    rng: StdRng,
    low_entropy: bool,
    /// Reused payload buffer (object reuse on the generation side).
    payload: Vec<u8>,
}

impl IotPacketGenerator {
    /// Generator of packets whose payload blob is `payload_size` bytes.
    /// `low_entropy` selects slowly-varying bytes (sensor-like) instead of
    /// uniform random bytes.
    pub fn new(payload_size: usize, seed: u64, low_entropy: bool) -> Self {
        IotPacketGenerator {
            payload_size,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            low_entropy,
            payload: vec![0u8; payload_size],
        }
    }

    /// The configured payload size.
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// Packets generated so far.
    pub fn generated(&self) -> u64 {
        self.seq
    }

    /// Fill `packet` (cleared first) with the next reading.
    pub fn fill_next(&mut self, packet: &mut StreamPacket) {
        packet.clear();
        if self.low_entropy {
            // Sensor-like payload: a slow ramp with small jitter, so
            // consecutive packets (and bytes within one packet) correlate.
            let base = (self.seq / 16) as u8;
            for (i, b) in self.payload.iter_mut().enumerate() {
                let jitter: u8 = self.rng.random_range(0..4);
                *b = base.wrapping_add((i % 7) as u8).wrapping_add(jitter);
            }
        } else {
            self.rng.fill(&mut self.payload[..]);
        }
        packet
            .push_field("seq", FieldValue::U64(self.seq))
            .push_field("ts", FieldValue::Timestamp(now_micros()))
            .push_field("payload", FieldValue::Bytes(self.payload.clone()));
        self.seq += 1;
    }

    /// Generate the next reading into a fresh packet.
    pub fn next_packet(&mut self) -> StreamPacket {
        let mut p = StreamPacket::with_capacity(3);
        self.fill_next(&mut p);
        p
    }
}

/// A [`StreamSource`] emitting `count` fixed-size packets as fast as
/// downstream backpressure allows, then exhausting. The workhorse packet
/// is reused across emissions.
pub struct FixedSizeSource {
    generator: IotPacketGenerator,
    remaining: u64,
    workhorse: StreamPacket,
}

impl FixedSizeSource {
    /// Source emitting `count` packets of `payload_size` payload bytes.
    pub fn new(payload_size: usize, count: u64, seed: u64) -> Self {
        FixedSizeSource {
            generator: IotPacketGenerator::new(payload_size, seed, false),
            remaining: count,
            workhorse: StreamPacket::with_capacity(3),
        }
    }

    /// Same, but with sensor-like low-entropy payloads.
    pub fn low_entropy(payload_size: usize, count: u64, seed: u64) -> Self {
        FixedSizeSource {
            generator: IotPacketGenerator::new(payload_size, seed, true),
            remaining: count,
            workhorse: StreamPacket::with_capacity(3),
        }
    }
}

impl StreamSource for FixedSizeSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.remaining == 0 {
            return SourceStatus::Exhausted;
        }
        self.generator.fill_next(&mut self.workhorse);
        match ctx.emit(&self.workhorse) {
            Ok(()) => {
                self.remaining -= 1;
                SourceStatus::Emitted(1)
            }
            Err(_) => SourceStatus::Exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_compress::shannon_entropy;

    #[test]
    fn packets_have_expected_layout() {
        let mut g = IotPacketGenerator::new(100, 7, false);
        let p = g.next_packet();
        assert_eq!(p.len(), 3);
        assert_eq!(p.get("seq").unwrap().as_u64(), Some(0));
        assert!(p.get("ts").unwrap().as_timestamp().unwrap() > 0);
        assert_eq!(p.get("payload").unwrap().as_bytes().unwrap().len(), 100);
        let p2 = g.next_packet();
        assert_eq!(p2.get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(g.generated(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = IotPacketGenerator::new(64, 42, false);
        let mut b = IotPacketGenerator::new(64, 42, false);
        for _ in 0..10 {
            let (pa, pb) = (a.next_packet(), b.next_packet());
            assert_eq!(
                pa.get("payload").unwrap().as_bytes(),
                pb.get("payload").unwrap().as_bytes()
            );
        }
    }

    #[test]
    fn low_entropy_payloads_are_compressible() {
        let mut lo = IotPacketGenerator::new(4096, 1, true);
        let mut hi = IotPacketGenerator::new(4096, 1, false);
        let ep = lo.next_packet();
        let rp = hi.next_packet();
        let e_lo = shannon_entropy(ep.get("payload").unwrap().as_bytes().unwrap());
        let e_hi = shannon_entropy(rp.get("payload").unwrap().as_bytes().unwrap());
        assert!(e_lo < 6.0, "sensor-like entropy too high: {e_lo}");
        assert!(e_hi > 7.5, "random entropy too low: {e_hi}");
    }

    #[test]
    fn source_emits_exact_count() {
        let mut src = FixedSizeSource::new(50, 25, 1);
        let mut ctx = OperatorContext::collector("src");
        let mut emitted = 0;
        loop {
            match src.next(&mut ctx) {
                SourceStatus::Emitted(n) => emitted += n,
                SourceStatus::Exhausted => break,
                SourceStatus::Idle | SourceStatus::Pending => {}
            }
        }
        assert_eq!(emitted, 25);
        let collected = ctx.take_collected();
        assert_eq!(collected.len(), 25);
        // Sequence numbers are contiguous.
        for (i, (_, p)) in collected.iter().enumerate() {
            assert_eq!(p.get("seq").unwrap().as_u64(), Some(i as u64));
        }
    }

    #[test]
    fn paper_sizes_are_covered() {
        assert_eq!(PAPER_MESSAGE_SIZES[0], 50);
        assert_eq!(*PAPER_MESSAGE_SIZES.last().unwrap(), 10 * 1024);
    }
}
