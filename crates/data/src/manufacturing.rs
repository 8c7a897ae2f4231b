//! Synthetic manufacturing-equipment sensor stream — the DEBS 2012 Grand
//! Challenge workload of §III-B5 and §IV-C (Fig. 8/9).
//!
//! The paper: *"The system ingests a continuous stream of readings captured
//! by sensors. For this particular use case, we used 6 different data
//! fields and the timestamp out of 66 different data fields available in a
//! single reading. Three of these sensor readings correspond to the states
//! of three chemical additive sensors whereas the other three readings
//! capture the states of the corresponding valves. When the state of a
//! sensor changes, the valves actuate resulting in a change of its state.
//! The objective of the job is to monitor the delay between the sensor
//! state change and actuation of the corresponding valve."*
//!
//! The simulator produces readings with exactly that structure: 66 fields
//! (59 auxiliary analog channels plus 3 additive-sensor booleans, 3 valve
//! booleans, and a timestamp), where each valve follows its sensor after a
//! configurable actuation delay. Sensor states toggle rarely, so
//! consecutive readings are nearly identical — the low-entropy property the
//! compression study relies on.

use neptune_core::{FieldValue, OperatorContext, SourceStatus, StreamPacket, StreamSource};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Number of data fields in a DEBS 2012 reading.
pub const TOTAL_FIELDS: usize = 66;
/// Number of chemical additive sensor / valve pairs monitored by the job.
pub const ADDITIVE_PAIRS: usize = 3;
/// Auxiliary analog channels filling the remaining fields
/// (66 = 1 timestamp + 3 sensors + 3 valves + 59 analog channels).
pub const ANALOG_CHANNELS: usize = TOTAL_FIELDS - 1 - 2 * ADDITIVE_PAIRS;

/// One decoded reading (used by tests and the monitoring examples).
#[derive(Debug, Clone, PartialEq)]
pub struct ManufacturingReading {
    /// Reading timestamp, microseconds.
    pub timestamp_us: u64,
    /// Chemical additive sensor states.
    pub sensors: [bool; ADDITIVE_PAIRS],
    /// Valve states (follow the sensors after the actuation delay).
    pub valves: [bool; ADDITIVE_PAIRS],
}

impl ManufacturingReading {
    /// Parse the monitored fields back out of a packet produced by
    /// [`ManufacturingSimulator::fill_next`].
    pub fn from_packet(p: &StreamPacket) -> Option<Self> {
        let timestamp_us = p.get("ts")?.as_timestamp()?;
        let mut sensors = [false; ADDITIVE_PAIRS];
        let mut valves = [false; ADDITIVE_PAIRS];
        for i in 0..ADDITIVE_PAIRS {
            sensors[i] = p.get(&format!("additive_sensor_{i}"))?.as_bool()?;
            valves[i] = p.get(&format!("valve_{i}"))?.as_bool()?;
        }
        Some(ManufacturingReading { timestamp_us, sensors, valves })
    }
}

/// Generates the synthetic reading stream.
#[derive(Debug)]
pub struct ManufacturingSimulator {
    rng: StdRng,
    /// Virtual clock, microseconds.
    clock_us: u64,
    /// Microseconds between readings.
    interval_us: u64,
    /// Probability a given sensor toggles per reading.
    toggle_probability: f64,
    /// Virtual actuation delay: the valve mirrors the sensor this many
    /// microseconds later.
    actuation_delay_us: u64,
    sensors: [bool; ADDITIVE_PAIRS],
    valves: [bool; ADDITIVE_PAIRS],
    /// Pending actuations: (due time, pair index, new state).
    pending: Vec<(u64, usize, bool)>,
    /// Slowly drifting analog channel values.
    analog: [f64; ANALOG_CHANNELS],
    readings: u64,
}

impl ManufacturingSimulator {
    /// Simulator with the default dynamics: 1 ms between readings, a
    /// toggle roughly every 500 readings per sensor, 20 ms actuation
    /// delay.
    pub fn new(seed: u64) -> Self {
        Self::with_dynamics(seed, 1_000, 0.002, 20_000)
    }

    /// Fully parameterized constructor.
    pub fn with_dynamics(
        seed: u64,
        interval_us: u64,
        toggle_probability: f64,
        actuation_delay_us: u64,
    ) -> Self {
        assert!(interval_us > 0, "reading interval must be positive");
        assert!((0.0..=1.0).contains(&toggle_probability));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut analog = [0.0; ANALOG_CHANNELS];
        for a in analog.iter_mut() {
            *a = rng.random_range(0.0..100.0);
        }
        ManufacturingSimulator {
            rng,
            clock_us: 1_600_000_000_000_000, // a fixed epoch for determinism
            interval_us,
            toggle_probability,
            actuation_delay_us,
            sensors: [false; ADDITIVE_PAIRS],
            valves: [false; ADDITIVE_PAIRS],
            pending: Vec::new(),
            analog,
            readings: 0,
        }
    }

    /// Readings produced so far.
    pub fn readings(&self) -> u64 {
        self.readings
    }

    /// The configured actuation delay in microseconds (ground truth the
    /// monitoring job should recover).
    pub fn actuation_delay_us(&self) -> u64 {
        self.actuation_delay_us
    }

    /// Advance the simulation one step and fill `packet` with the full
    /// 66-field reading.
    pub fn fill_next(&mut self, packet: &mut StreamPacket) {
        self.clock_us += self.interval_us;
        // Fire due actuations.
        let now = self.clock_us;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, pair, state) = self.pending.swap_remove(i);
                self.valves[pair] = state;
            } else {
                i += 1;
            }
        }
        // Maybe toggle sensors; schedule the valve actuation.
        for pair in 0..ADDITIVE_PAIRS {
            if self.rng.random_range(0.0..1.0) < self.toggle_probability {
                self.sensors[pair] = !self.sensors[pair];
                self.pending.push((now + self.actuation_delay_us, pair, self.sensors[pair]));
            }
        }
        // Drift the analog channels a little.
        for a in self.analog.iter_mut() {
            *a += self.rng.random_range(-0.05..0.05);
        }

        packet.clear();
        packet.push_field("ts", FieldValue::Timestamp(self.clock_us));
        for pair in 0..ADDITIVE_PAIRS {
            packet.push_field(
                format!("additive_sensor_{pair}"),
                FieldValue::Bool(self.sensors[pair]),
            );
            packet.push_field(format!("valve_{pair}"), FieldValue::Bool(self.valves[pair]));
        }
        for (ci, a) in self.analog.iter().enumerate() {
            // Quantize to whole units: real PLC channels report integer
            // register values, which is what makes consecutive readings
            // byte-identical (the low-entropy property of the DEBS data).
            packet.push_field(format!("ch_{ci:02}"), FieldValue::F64(a.round()));
        }
        self.readings += 1;
        debug_assert_eq!(packet.len(), TOTAL_FIELDS);
    }

    /// Produce the next reading as a fresh packet.
    pub fn next_packet(&mut self) -> StreamPacket {
        let mut p = StreamPacket::with_capacity(TOTAL_FIELDS);
        self.fill_next(&mut p);
        p
    }
}

/// [`StreamSource`] wrapper emitting `count` readings.
pub struct ManufacturingSource {
    sim: ManufacturingSimulator,
    remaining: u64,
    workhorse: StreamPacket,
}

impl ManufacturingSource {
    /// Source emitting `count` readings from a seeded simulator.
    pub fn new(seed: u64, count: u64) -> Self {
        ManufacturingSource {
            sim: ManufacturingSimulator::new(seed),
            remaining: count,
            workhorse: StreamPacket::with_capacity(TOTAL_FIELDS),
        }
    }

    /// Source with custom dynamics.
    pub fn with_simulator(sim: ManufacturingSimulator, count: u64) -> Self {
        ManufacturingSource {
            sim,
            remaining: count,
            workhorse: StreamPacket::with_capacity(TOTAL_FIELDS),
        }
    }
}

impl StreamSource for ManufacturingSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.remaining == 0 {
            return SourceStatus::Exhausted;
        }
        self.sim.fill_next(&mut self.workhorse);
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
    use neptune_compress::{compress, shannon_entropy};
    use neptune_core::PacketCodec;

    #[test]
    fn readings_have_66_fields() {
        let mut sim = ManufacturingSimulator::new(1);
        let p = sim.next_packet();
        assert_eq!(p.len(), TOTAL_FIELDS);
        assert!(p.get("ts").is_some());
        assert!(p.get("additive_sensor_0").is_some());
        assert!(p.get("valve_2").is_some());
        assert!(p.get("ch_00").is_some());
        assert!(p.get("ch_58").is_some());
    }

    #[test]
    fn reading_roundtrips_through_struct() {
        let mut sim = ManufacturingSimulator::new(2);
        let p = sim.next_packet();
        let r = ManufacturingReading::from_packet(&p).unwrap();
        assert_eq!(r.timestamp_us, p.get("ts").unwrap().as_timestamp().unwrap());
    }

    #[test]
    fn valves_follow_sensors_with_delay() {
        // High toggle probability to get plenty of events quickly.
        let mut sim = ManufacturingSimulator::with_dynamics(3, 1_000, 0.02, 10_000);
        let mut last_sensor_change: [Option<u64>; ADDITIVE_PAIRS] = [None; ADDITIVE_PAIRS];
        let mut prev: Option<ManufacturingReading> = None;
        let mut delays = Vec::new();
        for _ in 0..20_000 {
            let p = sim.next_packet();
            let r = ManufacturingReading::from_packet(&p).unwrap();
            if let Some(prev) = &prev {
                for (pair, last) in last_sensor_change.iter_mut().enumerate() {
                    if r.sensors[pair] != prev.sensors[pair] {
                        *last = Some(r.timestamp_us);
                    }
                    if r.valves[pair] != prev.valves[pair] {
                        if let Some(t0) = *last {
                            delays.push(r.timestamp_us - t0);
                        }
                    }
                }
            }
            prev = Some(r);
        }
        assert!(delays.len() > 20, "too few actuations observed: {}", delays.len());
        let mean = delays.iter().sum::<u64>() as f64 / delays.len() as f64;
        // The observed delay equals the configured delay up to one reading
        // interval of quantization.
        assert!(
            (mean - 10_000.0).abs() < 1_500.0,
            "mean actuation delay {mean}us, expected ~10000us"
        );
    }

    #[test]
    fn stream_is_low_entropy_when_batched() {
        // Serialize a batch of consecutive readings like the output buffer
        // would; the paper's premise is that this batch compresses well.
        let mut sim = ManufacturingSimulator::new(4);
        let mut codec = PacketCodec::new();
        let mut batch = Vec::new();
        for _ in 0..64 {
            let p = sim.next_packet();
            codec.encode_into(&p, &mut batch).unwrap();
        }
        let entropy = shannon_entropy(&batch);
        assert!(entropy < 4.5, "batched sensor entropy too high: {entropy}");
        let compressed = compress(&batch);
        assert!(
            compressed.len() < batch.len() / 2,
            "sensor batch should compress >2x: {} -> {}",
            batch.len(),
            compressed.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ManufacturingSimulator::new(9);
        let mut b = ManufacturingSimulator::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_packet(), b.next_packet());
        }
    }

    #[test]
    fn source_emits_count_readings() {
        let mut src = ManufacturingSource::new(5, 40);
        let mut ctx = OperatorContext::collector("mfg");
        let mut emitted = 0;
        loop {
            match src.next(&mut ctx) {
                SourceStatus::Emitted(n) => emitted += n,
                SourceStatus::Exhausted => break,
                SourceStatus::Idle | SourceStatus::Pending => {}
            }
        }
        assert_eq!(emitted, 40);
        // Timestamps strictly increase.
        let collected = ctx.take_collected();
        let mut prev = 0;
        for (_, p) in &collected {
            let ts = p.get("ts").unwrap().as_timestamp().unwrap();
            assert!(ts > prev);
            prev = ts;
        }
    }
}
