//! The manufacturing-equipment monitoring job of Fig. 8 (§IV-C).
//!
//! Four stages over the synthetic DEBS-2012-style stream:
//!
//! 1. **ingest** — the manufacturing source emits full 66-field readings;
//! 2. **extract** — keeps the timestamp plus the three additive-sensor
//!    and three valve fields (the 6-of-66 projection the paper uses);
//! 3. **detect** — watches each sensor/valve pair for state changes,
//!    emitting a delay event when a valve follows its sensor
//!    (keyed partitioning keeps a pair's events on one instance);
//! 4. **aggregate** — accumulates the sensor→valve actuation delays over
//!    the monitoring window and reports the distribution.
//!
//! The simulator's ground-truth actuation delay is 20 ms, so a correct
//! pipeline reports a mean close to that.
//!
//! Run with:
//! ```text
//! cargo run --release --example manufacturing_monitor
//! ```

use neptune::data::manufacturing::{
    ManufacturingSource, ADDITIVE_PAIRS, SENSOR_FIELDS, VALVE_FIELDS,
};
use neptune::granules::sync::Mutex;
use neptune::prelude::*;
use neptune::stats::OnlineStats;
use std::sync::Arc;
use std::time::Duration;

/// Names of the projected sensor and valve fields.
const S_FIELDS: [&str; ADDITIVE_PAIRS] = ["s0", "s1", "s2"];
const V_FIELDS: [&str; ADDITIVE_PAIRS] = ["v0", "v1", "v2"];

/// Stage 2: project the 66-field reading down to the monitored fields.
/// Output packets come from the instance's pool (§III-B3 object reuse) and
/// keep their names, so the projection allocates nothing per reading in
/// steady state.
struct Extract;
impl StreamProcessor for Extract {
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext) {
        let mut out = ctx.checkout_packet();
        let Some(ts) = packet.get("ts") else { return };
        out.push_field("ts", ts.clone());
        for pair in 0..ADDITIVE_PAIRS {
            let (Some(s), Some(v)) =
                (packet.get(SENSOR_FIELDS[pair]), packet.get(VALVE_FIELDS[pair]))
            else {
                ctx.checkin_packet(out);
                return;
            };
            out.push_field(S_FIELDS[pair], s.clone());
            out.push_field(V_FIELDS[pair], v.clone());
        }
        let _ = ctx.emit(&out);
        ctx.checkin_packet(out);
    }
}

/// Stage 3: per-pair state-change detection -> delay events.
struct DetectDelays {
    last_sensor: [Option<(bool, u64)>; ADDITIVE_PAIRS],
    last_valve: [Option<bool>; ADDITIVE_PAIRS],
}
impl DetectDelays {
    fn new() -> Self {
        DetectDelays { last_sensor: [None; ADDITIVE_PAIRS], last_valve: [None; ADDITIVE_PAIRS] }
    }
}
impl StreamProcessor for DetectDelays {
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext) {
        let Some(ts) = packet.get("ts").and_then(|v| v.as_timestamp()) else {
            return;
        };
        for pair in 0..ADDITIVE_PAIRS {
            let Some(sensor) = packet.get(S_FIELDS[pair]).and_then(|v| v.as_bool()) else {
                continue;
            };
            let Some(valve) = packet.get(V_FIELDS[pair]).and_then(|v| v.as_bool()) else {
                continue;
            };
            // Sensor toggled: remember when.
            match self.last_sensor[pair] {
                Some((prev, _)) if prev != sensor => {
                    self.last_sensor[pair] = Some((sensor, ts));
                }
                None => self.last_sensor[pair] = Some((sensor, ts)),
                _ => {}
            }
            // Valve toggled: emit the delay since the sensor change.
            if let Some(prev_valve) = self.last_valve[pair] {
                if prev_valve != valve {
                    if let Some((_, sensor_ts)) = self.last_sensor[pair] {
                        let mut event = StreamPacket::with_capacity(2);
                        event
                            .push_field("pair", FieldValue::U64(pair as u64))
                            .push_field("delay_us", FieldValue::U64(ts - sensor_ts));
                        let _ = ctx.emit(&event);
                    }
                }
            }
            self.last_valve[pair] = Some(valve);
        }
    }
}

/// Stage 4: aggregate the delay distribution.
struct Aggregate {
    stats: Arc<Mutex<OnlineStats>>,
}
impl StreamProcessor for Aggregate {
    fn process(&mut self, packet: &StreamPacket, _ctx: &mut OperatorContext) {
        if let Some(d) = packet.get("delay_us").and_then(|v| v.as_u64()) {
            self.stats.lock().push(d as f64);
        }
    }
}

fn main() {
    const READINGS: u64 = 200_000;
    let delays = Arc::new(Mutex::new(OnlineStats::new()));
    let agg = delays.clone();

    // The delay detector is order-sensitive: it compares consecutive
    // readings. NEPTUNE guarantees in-order delivery *per channel*, so the
    // extract and detect stages run with parallelism 1 — a single channel
    // end to end. (Scaling this job means partitioning by sensor pair
    // upstream, which is exactly why the paper makes partitioning schemes
    // a first-class link property.)
    let graph = GraphBuilder::new("manufacturing")
        .source("ingest", || ManufacturingSource::new(7, READINGS))
        .processor("extract", || Extract)
        .processor("detect", DetectDelays::new)
        .processor("aggregate", move || Aggregate { stats: agg.clone() })
        .link("ingest", "extract", PartitioningScheme::Shuffle)
        .link("extract", "detect", PartitioningScheme::Global)
        .link("detect", "aggregate", PartitioningScheme::Shuffle)
        .build()
        .expect("valid graph");

    let job = LocalRuntime::new(RuntimeConfig {
        buffer_bytes: 256 * 1024,
        flush_interval: Duration::from_millis(5),
        ..Default::default()
    })
    .submit(graph)
    .expect("deploys");

    let started = std::time::Instant::now();
    assert!(job.await_sources(Duration::from_secs(300)), "source timed out");
    let metrics = job.stop();
    let elapsed = started.elapsed().as_secs_f64();

    let d = delays.lock();
    println!("----------------------------------------------------");
    println!("readings ingested   : {}", metrics.operator("ingest").packets_out);
    println!("throughput          : {:.0} readings/s", READINGS as f64 / elapsed);
    println!("actuation events    : {}", d.count());
    println!(
        "sensor→valve delay  : mean {:.2} ms (σ {:.2} ms, min {:.2}, max {:.2})",
        d.mean() / 1e3,
        d.std_dev() / 1e3,
        d.min() / 1e3,
        d.max() / 1e3
    );
    println!("seq violations      : {}", metrics.total_seq_violations());

    // The simulator actuates valves 20 ms after the sensor changes; the
    // pipeline must recover that (within one reading interval).
    assert!(d.count() > 50, "too few actuation events observed");
    let mean_ms = d.mean() / 1e3;
    assert!((mean_ms - 20.0).abs() < 3.0, "recovered delay {mean_ms:.2} ms, expected ~20 ms");
    assert_eq!(metrics.total_seq_violations(), 0);
    println!("manufacturing_monitor OK");
}
