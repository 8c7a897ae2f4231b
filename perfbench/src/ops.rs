//! Bench-owned operators: the load generators, the pipelines' processors
//! and the sinks that check and time what arrives. The engine sees only
//! the packets these emit; every number is taken here or through the
//! engine's public handles, never from inside it.

use crate::hist::{Histogram, LatencyWindows};
use neptune_core::prelude::*;
use neptune_core::state::{put_bytes, StateReader};
use neptune_core::window::TumblingWindow;
use neptune_core::{now_micros, StateError};
use neptune_data::manufacturing::ADDITIVE_PAIRS;
use neptune_data::{ManufacturingSimulator, RandomPayloadGenerator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// How a source offers load.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop: emit as fast as backpressure admits, until stopped.
    Saturate,
    /// Open loop: packet `i` is due at `t0_us + i / rate`, whatever the
    /// engine does; exhausts after `total` packets.
    Paced {
        /// Packets per second.
        rate_pps: u64,
        /// Packets to offer.
        total: u64,
        /// Schedule origin, µs since the epoch.
        t0_us: u64,
    },
}

/// Due time of packet `i` on the schedule `t0 + i / rate`, in µs.
pub fn due_us(t0_us: u64, i: u64, rate_pps: u64) -> u64 {
    t0_us + i * 1_000_000 / rate_pps
}

/// What the harness shares with a running source.
#[derive(Default)]
pub struct SourceShared {
    /// Packets emitted so far.
    pub emitted: AtomicU64,
    /// Set by the harness to end a saturating source.
    pub stop: AtomicBool,
    /// Emit instant − due instant of every paced packet, µs.
    pub late: Mutex<Option<Histogram>>,
}

/// Fills the next input of a workload. The same seed gives the same
/// sequence; `due_us` is the only run-dependent part.
pub trait PacketGen: Send + 'static {
    /// Overwrite `packet` with input number `i`, stamped with `due_us`.
    fn fill(&mut self, i: u64, due_us: u64, packet: &mut StreamPacket);
}

/// Most packets one `next` call emits when a paced source has fallen
/// behind, so a pump stint stays near its 1 ms budget.
const PACED_BURST: u64 = 256;
/// Longest sleep inside `next`: the pump's own idle back-off (200 µs to
/// 20 ms) must not be what the paced phase measures.
const PACED_NAP: Duration = Duration::from_micros(200);

/// The one source every workload uses, around its [`PacketGen`].
pub struct BenchSource {
    gen: Box<dyn PacketGen>,
    pace: Pace,
    shared: Arc<SourceShared>,
    next_i: u64,
    packet: StreamPacket,
    late: Histogram,
}

impl BenchSource {
    /// A source offering `gen`'s packets at `pace`.
    pub fn new(gen: Box<dyn PacketGen>, pace: Pace, shared: Arc<SourceShared>) -> Self {
        BenchSource {
            gen,
            pace,
            shared,
            next_i: 0,
            packet: StreamPacket::new(),
            late: Histogram::new(),
        }
    }

    fn emit_one(&mut self, due: u64, ctx: &mut OperatorContext) -> bool {
        self.gen.fill(self.next_i, due, &mut self.packet);
        if ctx.emit(&self.packet).is_err() {
            return false;
        }
        self.next_i += 1;
        true
    }
}

impl StreamSource for BenchSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.shared.stop.load(Ordering::Relaxed) {
            return SourceStatus::Exhausted;
        }
        match self.pace {
            // One packet per call, like the repository's own sources: the
            // pump's per-call cost is part of what a user pays.
            Pace::Saturate => {
                if !self.emit_one(0, ctx) {
                    return SourceStatus::Exhausted;
                }
                self.shared.emitted.store(self.next_i, Ordering::Relaxed);
                SourceStatus::Emitted(1)
            }
            Pace::Paced { rate_pps, total, t0_us } => {
                if self.next_i >= total {
                    return SourceStatus::Exhausted;
                }
                let mut now = now_micros();
                let due = due_us(t0_us, self.next_i, rate_pps);
                if due > now {
                    std::thread::sleep(Duration::from_micros(due - now).min(PACED_NAP));
                    now = now_micros();
                }
                let mut emitted = 0;
                while self.next_i < total && emitted < PACED_BURST {
                    let due = due_us(t0_us, self.next_i, rate_pps);
                    if due > now {
                        break;
                    }
                    if !self.emit_one(due, ctx) {
                        return SourceStatus::Exhausted;
                    }
                    self.late.record(now - due);
                    emitted += 1;
                }
                self.shared.emitted.store(self.next_i, Ordering::Relaxed);
                SourceStatus::Emitted(emitted as usize)
            }
        }
    }

    fn close(&mut self, _ctx: &mut OperatorContext) {
        self.shared.emitted.store(self.next_i, Ordering::Relaxed);
        *self.shared.late.lock().expect("late lock") = Some(self.late.clone());
    }
}

// ---------------------------------------------------------------------
// Relay workloads
// ---------------------------------------------------------------------

fn stamp_hash(seq: u64) -> u64 {
    let x = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Bytes of the payload's head that the tail stamp does not overwrite.
fn head_len(len: usize) -> usize {
    len.saturating_sub(8).min(8)
}

/// `seq` / `ts` / `payload` packets of a fixed serialized size. The
/// payload is one high-entropy block drawn once from
/// `RandomPayloadGenerator::sized_to_match`; per packet only its first and
/// last 8 bytes change (a hash of `seq`), so generating costs a few
/// nanoseconds whatever the size, and the sink can check length, head and
/// tail without a mirror generator.
pub struct RelayPackets {
    template: StreamPacket,
}

fn relay_template(serialized_bytes: usize, seed: u64) -> StreamPacket {
    RandomPayloadGenerator::sized_to_match(serialized_bytes, seed).next_packet()
}

impl RelayPackets {
    /// Packets of `serialized_bytes` bytes on the wire.
    pub fn new(serialized_bytes: usize, seed: u64) -> Self {
        RelayPackets { template: relay_template(serialized_bytes, seed) }
    }

    /// The same packets plus the `v` field the cluster's `window_mean`
    /// stage averages.
    pub fn with_value(serialized_bytes: usize, seed: u64) -> Self {
        let mut packets = Self::new(serialized_bytes, seed);
        packets.template.push_field("v", FieldValue::F64((seed % 97) as f64));
        packets
    }
}

impl PacketGen for RelayPackets {
    fn fill(&mut self, i: u64, due_us: u64, packet: &mut StreamPacket) {
        if packet.is_empty() {
            *packet = self.template.clone();
        }
        let h = stamp_hash(i);
        *packet.get_mut("seq").expect("template field") = FieldValue::U64(i);
        *packet.get_mut("ts").expect("template field") = FieldValue::Timestamp(due_us);
        if let Some(FieldValue::Bytes(payload)) = packet.get_mut("payload") {
            let len = payload.len();
            let head = head_len(len);
            payload[..head].copy_from_slice(&h.to_le_bytes()[..head]);
            let tail = len.min(8);
            payload[len - tail..].copy_from_slice(&(!h).to_le_bytes()[..tail]);
        }
    }
}

/// Forwards every packet unchanged.
pub struct Relay;

impl StreamProcessor for Relay {
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext) {
        let _ = ctx.emit(packet);
    }
}

/// What a sink hands the harness when its job stops.
#[derive(Default)]
pub struct SinkReport {
    /// Packets (or results) that arrived.
    pub received: u64,
    /// Relay: packets that arrived in sequence.
    pub in_order: u64,
    /// Relay: packets whose `seq` was behind the expected one.
    pub dup_or_reordered: u64,
    /// Relay: packets whose payload length, head or tail was wrong.
    pub bad_payload: u64,
    /// Order-independent digest of the results (aggregating workloads).
    pub digest: u64,
    /// Sum of an integer result field (manufacturing: delay µs).
    pub sum: u64,
    /// Per-second latency histograms of the paced phase.
    pub latency: Option<LatencyWindows>,
}

/// What the harness shares with a running sink.
#[derive(Default)]
pub struct SinkShared {
    /// Packets (or results) received so far.
    pub received: AtomicU64,
    /// Filled when the sink closes.
    pub report: Mutex<Option<SinkReport>>,
}

/// Latency recording common to every sink: only the paced phase pays for
/// the clock read.
struct LatencyProbe {
    windows: Option<LatencyWindows>,
}

impl LatencyProbe {
    fn new(paced_t0_us: Option<u64>) -> Self {
        LatencyProbe { windows: paced_t0_us.map(LatencyWindows::new) }
    }

    #[inline]
    fn observe(&mut self, due_us: u64) {
        if let Some(w) = &mut self.windows {
            if due_us != 0 {
                let now = now_micros();
                w.record(now, now.saturating_sub(due_us));
            }
        }
    }
}

/// Relay sink: count, contiguous `seq`, payload length/head/tail, latency.
pub struct RelaySink {
    shared: Arc<SinkShared>,
    payload_len: usize,
    expected: u64,
    report: SinkReport,
    latency: LatencyProbe,
}

impl RelaySink {
    /// A sink expecting `serialized_bytes`-byte packets of `seed`;
    /// `paced_t0_us` turns latency recording on.
    pub fn new(
        serialized_bytes: usize,
        seed: u64,
        paced_t0_us: Option<u64>,
        shared: Arc<SinkShared>,
    ) -> Self {
        let payload_len = relay_template(serialized_bytes, seed)
            .get("payload")
            .and_then(|v| v.as_bytes())
            .map_or(0, <[u8]>::len);
        RelaySink {
            shared,
            payload_len,
            expected: 0,
            report: SinkReport::default(),
            latency: LatencyProbe::new(paced_t0_us),
        }
    }
}

impl StreamProcessor for RelaySink {
    fn process(&mut self, packet: &StreamPacket, _ctx: &mut OperatorContext) {
        let seq = packet.get("seq").and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        let due = packet.get("ts").and_then(|v| v.as_timestamp()).unwrap_or(0);
        self.latency.observe(due);
        if seq == self.expected {
            self.report.in_order += 1;
            self.expected += 1;
        } else if seq > self.expected && seq != u64::MAX {
            // A gap: the skipped packets never count as in order.
            self.report.in_order += 1;
            self.expected = seq + 1;
        } else {
            self.report.dup_or_reordered += 1;
        }
        let h = stamp_hash(seq);
        let ok = packet.get("payload").and_then(|v| v.as_bytes()).is_some_and(|p| {
            let (head, tail) = (head_len(p.len()), p.len().min(8));
            p.len() == self.payload_len
                && p[..head] == h.to_le_bytes()[..head]
                && p[p.len() - tail..] == (!h).to_le_bytes()[..tail]
        });
        if !ok {
            self.report.bad_payload += 1;
        }
        self.report.received += 1;
        self.shared.received.store(self.report.received, Ordering::Relaxed);
    }

    fn close(&mut self, _ctx: &mut OperatorContext) {
        let mut report = std::mem::take(&mut self.report);
        report.latency = self.latency.windows.take();
        *self.shared.report.lock().expect("report lock") = Some(report);
    }
}

// ---------------------------------------------------------------------
// Manufacturing workload (Fig. 8)
// ---------------------------------------------------------------------

/// Microseconds between simulated readings.
pub const MFG_INTERVAL_US: u64 = 1_000;
/// Probability a sensor toggles per reading. Five times the example's,
/// so the paced phase sees enough delay events per second for a 99th
/// percentile; still sparse enough that the recovered delay stays near
/// the simulator's.
pub const MFG_TOGGLE_P: f64 = 0.01;
/// The simulator's sensor→valve actuation delay, the job's ground truth.
pub const MFG_ACTUATION_US: u64 = 20_000;

const SENSOR_FIELDS: [&str; ADDITIVE_PAIRS] =
    ["additive_sensor_0", "additive_sensor_1", "additive_sensor_2"];
const VALVE_FIELDS: [&str; ADDITIVE_PAIRS] = ["valve_0", "valve_1", "valve_2"];

/// The simulator the manufacturing workload and its reference share.
pub fn mfg_simulator(seed: u64) -> ManufacturingSimulator {
    ManufacturingSimulator::with_dynamics(seed, MFG_INTERVAL_US, MFG_TOGGLE_P, MFG_ACTUATION_US)
}

/// 66-field readings plus the `due` stamp.
pub struct MfgPackets {
    sim: ManufacturingSimulator,
}

impl MfgPackets {
    /// Readings of `seed`.
    pub fn new(seed: u64) -> Self {
        MfgPackets { sim: mfg_simulator(seed) }
    }
}

impl PacketGen for MfgPackets {
    fn fill(&mut self, _i: u64, due_us: u64, packet: &mut StreamPacket) {
        self.sim.fill_next(packet);
        packet.push_field("due", FieldValue::U64(due_us));
    }
}

/// Stage 2: project the reading to `(pair, ts, sensor, valve, due)`, one
/// packet per pair, so the detector can be keyed by pair.
pub struct MfgExtract;

impl StreamProcessor for MfgExtract {
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext) {
        let (Some(ts), Some(due)) = (packet.get("ts"), packet.get("due")) else { return };
        for pair in 0..ADDITIVE_PAIRS {
            let (Some(s), Some(v)) =
                (packet.get(SENSOR_FIELDS[pair]), packet.get(VALVE_FIELDS[pair]))
            else {
                continue;
            };
            let mut out = ctx.checkout_packet();
            out.push_field("pair", FieldValue::U64(pair as u64))
                .push_field("ts", ts.clone())
                .push_field("s", s.clone())
                .push_field("v", v.clone())
                .push_field("due", due.clone());
            let _ = ctx.emit(&out);
            ctx.checkin_packet(out);
        }
    }
}

/// Per-pair detection state, shared by the operator and the reference.
#[derive(Default, Clone, Copy)]
pub struct PairState {
    last_sensor: Option<(bool, u64)>,
    last_valve: Option<bool>,
}

impl PairState {
    /// Feed one reading of the pair; a valve toggle yields the delay since
    /// the sensor's last change.
    pub fn observe(&mut self, ts: u64, sensor: bool, valve: bool) -> Option<u64> {
        match self.last_sensor {
            Some((prev, _)) if prev != sensor => self.last_sensor = Some((sensor, ts)),
            None => self.last_sensor = Some((sensor, ts)),
            _ => {}
        }
        let toggled = self.last_valve.is_some_and(|prev| prev != valve);
        self.last_valve = Some(valve);
        if toggled {
            self.last_sensor.map(|(_, since)| ts - since)
        } else {
            None
        }
    }
}

/// Packets each instance of a keyed operator consumed, published when
/// the instance closes (the partition-skew ledger).
pub type InstanceCounts = Arc<[AtomicU64; KEYED_PARALLELISM]>;

/// Instances of the keyed operator (`detect`, `agg`).
pub const KEYED_PARALLELISM: usize = 2;

/// Stage 3: sensor→valve delay events, keyed by pair.
pub struct MfgDetect {
    pairs: [PairState; ADDITIVE_PAIRS],
    seen: u64,
    counts: InstanceCounts,
}

impl MfgDetect {
    /// A detector publishing its input count into `counts`.
    pub fn new(counts: InstanceCounts) -> Self {
        MfgDetect { pairs: Default::default(), seen: 0, counts }
    }
}

impl StreamProcessor for MfgDetect {
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext) {
        let field = |name| packet.get(name);
        let (Some(pair), Some(ts), Some(s), Some(v), Some(due)) = (
            field("pair").and_then(|f| f.as_u64()),
            field("ts").and_then(|f| f.as_timestamp()),
            field("s").and_then(|f| f.as_bool()),
            field("v").and_then(|f| f.as_bool()),
            field("due").and_then(|f| f.as_u64()),
        ) else {
            return;
        };
        self.seen += 1;
        if let Some(delay) = self.pairs[pair as usize % ADDITIVE_PAIRS].observe(ts, s, v) {
            let mut out = ctx.checkout_packet();
            out.push_field("pair", FieldValue::U64(pair))
                .push_field("delay_us", FieldValue::U64(delay))
                .push_field("due", FieldValue::U64(due));
            let _ = ctx.emit(&out);
            ctx.checkin_packet(out);
        }
    }

    fn close(&mut self, ctx: &mut OperatorContext) {
        self.counts[ctx.instance()].store(self.seen, Ordering::Relaxed);
    }
}

/// Stage 4: count the delay events and sum the delays.
pub struct MfgSink {
    shared: Arc<SinkShared>,
    report: SinkReport,
    latency: LatencyProbe,
}

impl MfgSink {
    /// `paced_t0_us` turns latency recording on.
    pub fn new(paced_t0_us: Option<u64>, shared: Arc<SinkShared>) -> Self {
        MfgSink { shared, report: SinkReport::default(), latency: LatencyProbe::new(paced_t0_us) }
    }
}

impl StreamProcessor for MfgSink {
    fn process(&mut self, packet: &StreamPacket, _ctx: &mut OperatorContext) {
        let delay = packet.get("delay_us").and_then(|v| v.as_u64()).unwrap_or(0);
        self.latency.observe(packet.get("due").and_then(|v| v.as_u64()).unwrap_or(0));
        self.report.sum += delay;
        self.report.received += 1;
        self.shared.received.store(self.report.received, Ordering::Relaxed);
    }

    fn close(&mut self, _ctx: &mut OperatorContext) {
        let mut report = std::mem::take(&mut self.report);
        report.latency = self.latency.windows.take();
        *self.shared.report.lock().expect("report lock") = Some(report);
    }
}

/// Single-threaded replay of the first `readings` readings of `seed`:
/// `(delay events, sum of delays in µs)`.
pub fn mfg_reference(seed: u64, readings: u64) -> (u64, u64) {
    let mut sim = mfg_simulator(seed);
    let mut packet = StreamPacket::new();
    let mut pairs = [PairState::default(); ADDITIVE_PAIRS];
    let (mut events, mut sum) = (0, 0);
    for _ in 0..readings {
        sim.fill_next(&mut packet);
        let ts = packet.get("ts").and_then(|v| v.as_timestamp()).expect("reading has ts");
        for (pair, state) in pairs.iter_mut().enumerate() {
            let s = packet.get(SENSOR_FIELDS[pair]).and_then(|v| v.as_bool()).expect("sensor");
            let v = packet.get(VALVE_FIELDS[pair]).and_then(|v| v.as_bool()).expect("valve");
            if let Some(delay) = state.observe(ts, s, v) {
                events += 1;
                sum += delay;
            }
        }
    }
    (events, sum)
}

// ---------------------------------------------------------------------
// Keyed windowed summarisation with checkpoints
// ---------------------------------------------------------------------

/// Devices reporting.
pub const WINDOW_KEYS: usize = 10_000;
/// Event time advances this much per reading: 10 000 readings per
/// event-time second, whatever the wall-clock rate. At the paced rate
/// that is some tens of window closings per wall-clock second, each a
/// burst of results sharing one latency — enough independent bursts per
/// one-second window for its percentiles to mean something.
pub const WINDOW_EVENT_STEP_US: u64 = 100;
/// Tumbling-window width in event time.
pub const WINDOW_WIDTH_US: u64 = 1_000_000;
const WINDOW_EVENT_T0_US: u64 = 1_600_000_000_000_000;

/// `key` (Zipf, s = 1) / `et` (event time) / `v` / `due` readings.
pub struct WindowPackets {
    rng: StdRng,
    cdf: Vec<f64>,
}

impl WindowPackets {
    /// Readings of `seed`.
    pub fn new(seed: u64) -> Self {
        let weights: Vec<f64> = (1..=WINDOW_KEYS).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        WindowPackets { rng: StdRng::seed_from_u64(seed), cdf }
    }

    /// Reading number `i`: `(key, event time µs, value)`.
    pub fn reading(&mut self, i: u64) -> (u64, u64, f64) {
        let u: f64 = self.rng.random_range(0.0..1.0);
        let key = self.cdf.partition_point(|&c| c < u).min(WINDOW_KEYS - 1) as u64;
        let v: f64 = self.rng.random_range(0.0..100.0);
        (key, WINDOW_EVENT_T0_US + i * WINDOW_EVENT_STEP_US, v)
    }
}

impl PacketGen for WindowPackets {
    fn fill(&mut self, i: u64, due_us: u64, packet: &mut StreamPacket) {
        let (key, et, v) = self.reading(i);
        packet.clear();
        packet
            .push_field("key", FieldValue::U64(key))
            .push_field("et", FieldValue::U64(et))
            .push_field("v", FieldValue::F64(v))
            .push_field("due", FieldValue::U64(due_us));
    }
}

/// Order-independent contribution of one window result to the digest.
pub fn result_digest(key: u64, start_us: u64, count: u64, sum: f64) -> u64 {
    let mut h = stamp_hash(key);
    for part in [start_us, count, sum.to_bits()] {
        h = stamp_hash(h ^ part);
    }
    h
}

/// One tumbling window per key. When event time crosses a window boundary
/// every open window closes and is emitted, stamped with the due time of
/// the reading that crossed it — the last event the results waited for.
pub struct WindowAgg {
    windows: KeyWindows,
    seen: u64,
    counts: InstanceCounts,
}

/// The operator's checkpointed state: the per-key windows and the start
/// of the window they are all in.
#[derive(Default)]
pub struct KeyWindows {
    by_key: BTreeMap<u64, TumblingWindow>,
    current_start_us: u64,
}

impl KeyWindows {
    /// Record one reading.
    pub fn observe(&mut self, key: u64, et_us: u64, v: f64) {
        let w = self.by_key.entry(key).or_insert_with(|| TumblingWindow::new(WINDOW_WIDTH_US));
        // Every window was flushed at the boundary, so none closes here.
        let closed = w.observe(et_us, v);
        debug_assert!(closed.is_none());
    }
}

impl OperatorState for KeyWindows {
    fn state_kind(&self) -> &'static str {
        "perf-key-windows"
    }

    fn snapshot_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.current_start_us.to_le_bytes());
        out.extend_from_slice(&(self.by_key.len() as u32).to_le_bytes());
        let mut blob = Vec::new();
        for (key, window) in &self.by_key {
            out.extend_from_slice(&key.to_le_bytes());
            blob.clear();
            window.snapshot_state(&mut blob);
            put_bytes(out, &blob);
        }
    }

    fn restore_state(&mut self, version: u32, bytes: &[u8]) -> Result<(), StateError> {
        if version != self.state_version() {
            return Err(StateError::VersionMismatch {
                supported: self.state_version(),
                found: version,
            });
        }
        let mut r = StateReader::new(bytes);
        let current_start_us = r.u64()?;
        let n = r.u32()?;
        let mut by_key = BTreeMap::new();
        for _ in 0..n {
            let key = r.u64()?;
            let mut window = TumblingWindow::new(WINDOW_WIDTH_US);
            window.restore_state(window.state_version(), r.bytes()?)?;
            by_key.insert(key, window);
        }
        r.finish()?;
        self.by_key = by_key;
        self.current_start_us = current_start_us;
        Ok(())
    }
}

impl WindowAgg {
    /// An aggregator publishing its input count into `counts`.
    pub fn new(counts: InstanceCounts) -> Self {
        WindowAgg { windows: KeyWindows::default(), seen: 0, counts }
    }

    fn flush_all(&mut self, due: u64, ctx: &mut OperatorContext) {
        for (&key, window) in self.windows.by_key.iter_mut() {
            let Some(agg) = window.flush() else { continue };
            let mut out = ctx.checkout_packet();
            out.push_field("key", FieldValue::U64(key))
                .push_field("start", FieldValue::U64(agg.start_us))
                .push_field("count", FieldValue::U64(agg.count))
                .push_field("sum", FieldValue::F64(agg.sum))
                .push_field("due", FieldValue::U64(due));
            let _ = ctx.emit(&out);
            ctx.checkin_packet(out);
        }
    }
}

impl StreamProcessor for WindowAgg {
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext) {
        let field = |name| packet.get(name);
        let (Some(key), Some(et), Some(v), Some(due)) = (
            field("key").and_then(|f| f.as_u64()),
            field("et").and_then(|f| f.as_u64()),
            field("v").and_then(|f| f.as_f64()),
            field("due").and_then(|f| f.as_u64()),
        ) else {
            return;
        };
        let start = et - et % WINDOW_WIDTH_US;
        if start != self.windows.current_start_us {
            self.flush_all(due, ctx);
            self.windows.current_start_us = start;
        }
        self.windows.observe(key, et, v);
        self.seen += 1;
    }

    fn close(&mut self, ctx: &mut OperatorContext) {
        // End of stream: the open windows are results too, but nothing
        // was waiting on a reading, so they carry no due time.
        self.flush_all(0, ctx);
        self.counts[ctx.instance()].store(self.seen, Ordering::Relaxed);
    }

    fn state(&mut self) -> Option<&mut dyn OperatorState> {
        Some(&mut self.windows)
    }
}

/// Window sink: count and digest the results.
pub struct WindowSink {
    shared: Arc<SinkShared>,
    report: SinkReport,
    latency: LatencyProbe,
}

impl WindowSink {
    /// `paced_t0_us` turns latency recording on.
    pub fn new(paced_t0_us: Option<u64>, shared: Arc<SinkShared>) -> Self {
        WindowSink {
            shared,
            report: SinkReport::default(),
            latency: LatencyProbe::new(paced_t0_us),
        }
    }
}

impl StreamProcessor for WindowSink {
    fn process(&mut self, packet: &StreamPacket, _ctx: &mut OperatorContext) {
        let u = |name| packet.get(name).and_then(|v: &FieldValue| v.as_u64()).unwrap_or(0);
        let sum = packet.get("sum").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        self.latency.observe(u("due"));
        self.report.digest =
            self.report.digest.wrapping_add(result_digest(u("key"), u("start"), u("count"), sum));
        self.report.received += 1;
        self.shared.received.store(self.report.received, Ordering::Relaxed);
    }

    fn close(&mut self, _ctx: &mut OperatorContext) {
        let mut report = std::mem::take(&mut self.report);
        report.latency = self.latency.windows.take();
        *self.shared.report.lock().expect("report lock") = Some(report);
    }
}

/// Single-threaded reference over the first `readings` readings of
/// `seed`: `(results, digest)`. Event time is monotone, so one window's
/// worth of per-key `(count, sum)` is all it holds.
pub fn window_reference(seed: u64, readings: u64) -> (u64, u64) {
    let mut gen = WindowPackets::new(seed);
    let mut open: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    let mut current_start = 0;
    let (mut results, mut digest) = (0u64, 0u64);
    let mut close = |open: &mut BTreeMap<u64, (u64, f64)>, start: u64| {
        for (key, (count, sum)) in std::mem::take(open) {
            results += 1;
            digest = digest.wrapping_add(result_digest(key, start, count, sum));
        }
    };
    for i in 0..readings {
        let (key, et, v) = gen.reading(i);
        let start = et - et % WINDOW_WIDTH_US;
        if start != current_start {
            close(&mut open, current_start);
            current_start = start;
        }
        let slot = open.entry(key).or_insert((0, 0.0));
        slot.0 += 1;
        slot.1 += v;
    }
    close(&mut open, current_start);
    (results, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_due_time_schedule_is_exact() {
        let t0 = 1_700_000_000_000_000;
        assert_eq!(due_us(t0, 0, 40_000), t0);
        assert_eq!(due_us(t0, 1, 40_000), t0 + 25);
        assert_eq!(due_us(t0, 40_000, 40_000), t0 + 1_000_000);
        // No drift: packet i is due at floor(i / rate), not at the sum of
        // i rounded gaps.
        assert_eq!(due_us(t0, 3_000_000, 300_000), t0 + 10_000_000);
        assert_eq!(due_us(t0, 7, 3), t0 + 2_333_333);
        for i in 1..10_000 {
            assert!(due_us(t0, i, 70_000) >= due_us(t0, i - 1, 70_000));
        }
    }

    fn first_packets<G: PacketGen>(mut gen: G, n: u64) -> Vec<StreamPacket> {
        (0..n)
            .map(|i| {
                let mut p = StreamPacket::new();
                gen.fill(i, 42, &mut p);
                p
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_packets() {
        // (A 50-byte packet's ten payload bytes are all stamp: only larger
        // relay packets carry seed-dependent bytes.)
        assert_eq!(
            first_packets(RelayPackets::new(1024, 3), 64),
            first_packets(RelayPackets::new(1024, 3), 64)
        );
        assert_ne!(
            first_packets(RelayPackets::new(1024, 3), 64),
            first_packets(RelayPackets::new(1024, 4), 64)
        );
        assert_eq!(first_packets(MfgPackets::new(3), 64), first_packets(MfgPackets::new(3), 64));
        assert_ne!(first_packets(MfgPackets::new(3), 64), first_packets(MfgPackets::new(4), 64));
        assert_eq!(
            first_packets(WindowPackets::new(3), 64),
            first_packets(WindowPackets::new(3), 64)
        );
        assert_ne!(
            first_packets(WindowPackets::new(3), 64),
            first_packets(WindowPackets::new(4), 64)
        );
    }

    #[test]
    fn relay_packets_have_the_size_asked_for_and_pass_the_sink() {
        for size in [50, 10 * 1024] {
            let packets = first_packets(RelayPackets::new(size, 1), 100);
            let encoded = neptune_core::PacketCodec::new().encode(&packets[0]).expect("encodes");
            assert_eq!(encoded.len(), size);
            let shared = Arc::new(SinkShared::default());
            let mut sink = RelaySink::new(size, 1, None, shared.clone());
            let mut ctx = OperatorContext::collector("sink");
            for p in &packets {
                sink.process(p, &mut ctx);
            }
            // A corrupted payload, a duplicate and a gap are all noticed.
            let mut bad = packets[99].clone();
            if let Some(FieldValue::Bytes(b)) = bad.get_mut("payload") {
                let last = b.len() - 1;
                b[last] ^= 1;
            }
            *bad.get_mut("seq").expect("seq") = FieldValue::U64(100);
            sink.process(&bad, &mut ctx);
            sink.process(&packets[5], &mut ctx);
            sink.close(&mut ctx);
            let report = shared.report.lock().expect("lock").take().expect("report");
            assert_eq!((report.received, report.in_order), (102, 101));
            assert_eq!((report.bad_payload, report.dup_or_reordered), (1, 1));
        }
    }

    #[test]
    fn the_window_operator_agrees_with_the_reference() {
        let n = 25_000; // two and a half event-time windows
        let mut gen = WindowPackets::new(5);
        let shared = Arc::new(SinkShared::default());
        let mut sink = WindowSink::new(None, shared.clone());
        // Two instances, keys split between them as `by_field` would.
        let mut aggs = [WindowAgg::new(Arc::default()), WindowAgg::new(Arc::default())];
        let mut ctx = OperatorContext::collector("agg");
        let mut packet = StreamPacket::new();
        for i in 0..n {
            gen.fill(i, 7, &mut packet);
            let key = packet.get("key").and_then(|v| v.as_u64()).expect("key");
            aggs[(key % 2) as usize].process(&packet, &mut ctx);
        }
        for agg in &mut aggs {
            agg.close(&mut ctx);
        }
        let mut sink_ctx = OperatorContext::collector("sink");
        for (_, result) in ctx.take_collected() {
            sink.process(&result, &mut sink_ctx);
        }
        sink.close(&mut sink_ctx);
        let report = shared.report.lock().expect("lock").take().expect("report");
        assert_eq!((report.received, report.digest), window_reference(5, n));
        assert!(report.received > 3_000, "{}", report.received);
    }

    #[test]
    fn key_windows_survive_a_snapshot() {
        let mut gen = WindowPackets::new(9);
        let mut state = KeyWindows::default();
        for i in 0..5_000 {
            let (key, et, v) = gen.reading(i);
            state.observe(key, et, v);
        }
        let mut blob = Vec::new();
        state.snapshot_state(&mut blob);
        let mut restored = KeyWindows::default();
        restored.restore_state(1, &blob).expect("restores");
        let mut again = Vec::new();
        restored.snapshot_state(&mut again);
        assert_eq!(blob, again);
        assert_eq!(restored.by_key.len(), state.by_key.len());
        assert!(restored.restore_state(1, &blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn the_manufacturing_reference_recovers_the_actuation_delay() {
        let (events, sum) = mfg_reference(1, 100_000);
        assert!(events > 1_000, "{events}");
        let mean_ms = sum as f64 / events as f64 / 1000.0;
        assert!((mean_ms - 20.0).abs() < 5.0, "{mean_ms}");
    }
}
