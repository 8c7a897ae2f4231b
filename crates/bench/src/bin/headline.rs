//! **§VI headline numbers** — the paper's conclusions, re-derived in one
//! pass:
//!
//! 1. *"In a three-stage message relay benchmark, NEPTUNE was able to
//!    achieve a throughput of 2 million messages per second with a 93.7%
//!    bandwidth consumption."*
//! 2. *"The same experiment in a 50 node cluster setup recorded a
//!    cumulative throughput closer to 100 million packets per-second with
//!    a near optimal bandwidth consumption."*
//! 3. *"The processing latencies (for 10 KB packets) for the 99% of the
//!    packets was less than 87.8 ms even with a configuration optimized
//!    for high throughput."*
//! 4. *"For a four-stage stream processing application that modeled real
//!    time monitoring of manufacturing equipment, NEPTUNE was able to
//!    achieve a cumulative throughput of 15 million messages per
//!    second."*
//!
//! Plus a live single-node anchor on this host's real engine, a
//! telemetry-enabled relay dump (per-operator e2e quantiles and the
//! four-stage latency breakdown), and a machine-readable
//! `BENCH_headline.json` for CI artifacts.
//!
//! Pass `--quick` to shrink the live runs for CI.

use neptune_bench::{eng, Table};
use neptune_core::json::{object, JsonValue};
use neptune_core::prelude::*;
use neptune_sim::{neptune_profile, simulate_cluster, simulate_relay, ClusterParams, RelayParams};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn check(
    name: &str,
    measured: f64,
    paper: f64,
    lo: f64,
    hi: f64,
    table: &mut Table,
    rows: &mut Vec<JsonValue>,
) -> bool {
    let ok = measured >= lo && measured <= hi;
    table.row(vec![
        name.into(),
        eng(measured),
        eng(paper),
        format!("{:.2}x", measured / paper),
        if ok { "ok" } else { "OFF" }.into(),
    ]);
    rows.push(object([
        ("claim", JsonValue::String(name.to_string())),
        ("measured", JsonValue::Number(measured)),
        ("paper", JsonValue::Number(paper)),
        ("ok", JsonValue::Bool(ok)),
    ]));
    ok
}

struct Src {
    next: u64,
    limit: u64,
    /// Stamp packets with a source timestamp so e2e telemetry has a base.
    stamp: bool,
}
impl StreamSource for Src {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.next >= self.limit {
            return SourceStatus::Exhausted;
        }
        let mut p = StreamPacket::new();
        if self.stamp {
            p.push_field("ts", FieldValue::Timestamp(neptune_core::now_micros()));
        }
        p.push_field("n", FieldValue::U64(self.next));
        match ctx.emit(&p) {
            Ok(()) => {
                self.next += 1;
                SourceStatus::Emitted(1)
            }
            Err(_) => SourceStatus::Exhausted,
        }
    }
}
struct Relay;
impl StreamProcessor for Relay {
    fn process(&mut self, p: &StreamPacket, ctx: &mut OperatorContext) {
        let _ = ctx.emit(p);
    }
}
struct Sink(Arc<AtomicU64>);
impl StreamProcessor for Sink {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run the three-stage relay on the real engine. With `telemetry` the
/// packets carry source timestamps and the job records the full latency
/// breakdown; the snapshot is taken after the queues settle.
fn live_relay(n: u64, telemetry: bool) -> (f64, Option<TelemetrySnapshot>) {
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let graph = GraphBuilder::new("headline-live")
        .source("src", move || Src { next: 0, limit: n, stamp: telemetry })
        .processor("relay", || Relay)
        .processor("sink", move || Sink(s2.clone()))
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .expect("valid graph");
    let config = RuntimeConfig {
        telemetry: if telemetry { TelemetryConfig::enabled() } else { TelemetryConfig::default() },
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).expect("deploys");
    let t0 = Instant::now();
    assert!(job.await_sources(Duration::from_secs(300)));
    let snap = if telemetry {
        job.settle(Duration::from_secs(30));
        job.telemetry()
    } else {
        None
    };
    job.stop();
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(seen.load(Ordering::Relaxed), n);
    (n as f64 / dt, snap)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let live_n: u64 = if quick { 200_000 } else { 2_000_000 };
    println!("# §VI — the paper's headline numbers, reproduced\n");
    let mut table = Table::new(&["claim", "measured", "paper", "ratio", "verdict"]);
    let mut rows: Vec<JsonValue> = Vec::new();
    let mut all_ok = true;

    // 1. Single-node relay ~2M msg/s (simulated 2-machine setup, 50 B).
    let relay = simulate_relay(RelayParams::new(neptune_profile(), 50));
    all_ok &= check(
        "relay throughput (sim, 50 B)",
        relay.throughput_msgs_per_s,
        2e6,
        1.4e6,
        3.0e6,
        &mut table,
        &mut rows,
    );

    // 1b. Bandwidth consumption 93.7% at large messages.
    let big = simulate_relay(RelayParams::new(neptune_profile(), 200 * 1024));
    all_ok &= check(
        "relay bandwidth (fraction of 1 Gbps)",
        big.bandwidth_gbps,
        0.937,
        0.90,
        0.97,
        &mut table,
        &mut rows,
    );

    // 2. 50-node cumulative ~100M msg/s.
    let cluster = simulate_cluster(&ClusterParams::scaling_job(neptune_profile(), 50, 50));
    all_ok &= check(
        "50-node cumulative throughput",
        cluster.cumulative_throughput,
        1e8,
        6e7,
        1.8e8,
        &mut table,
        &mut rows,
    );

    // 3. p99 latency for 10 KB packets < 87.8 ms at the high-throughput
    //    configuration.
    let lat = simulate_relay(RelayParams::new(neptune_profile(), 10 * 1024));
    all_ok &= check(
        "p99 latency, 10 KB pkts (ms)",
        lat.p99_latency_ms,
        87.8,
        0.0,
        87.8,
        &mut table,
        &mut rows,
    );

    // 4. Manufacturing application ~15M msg/s cumulative.
    let mfg = simulate_cluster(&ClusterParams::manufacturing_job(neptune_profile(), 50, 50));
    all_ok &= check(
        "manufacturing cumulative throughput",
        mfg.cumulative_throughput,
        1.5e7,
        8e6,
        3e7,
        &mut table,
        &mut rows,
    );

    // Live anchor: the real engine on this host, telemetry off (the
    // headline configuration).
    let (live, _) = live_relay(live_n, false);
    all_ok &=
        check("LIVE single-host relay (tiny pkts)", live, 2e6, 5e5, 2e7, &mut table, &mut rows);

    table.print();

    // Telemetry-enabled relay: the per-operator latency story behind the
    // headline number — e2e quantiles plus the four-stage breakdown.
    let (_, snap) = live_relay(live_n.min(200_000), true);
    let snap = snap.expect("telemetry was enabled");

    let doc = object([
        ("bench", JsonValue::String("headline".into())),
        ("quick", JsonValue::Bool(quick)),
        ("claims", JsonValue::Array(rows)),
        (
            "live",
            object([
                ("packets", JsonValue::Number(live_n as f64)),
                ("throughput_msgs_per_s", JsonValue::Number(live)),
            ]),
        ),
        ("telemetry", snap.to_json_value()),
    ]);
    std::fs::write("BENCH_headline.json", doc.to_json()).expect("write BENCH_headline.json");
    println!("\nwrote BENCH_headline.json");

    assert!(all_ok, "one or more headline anchors missed their band");
    println!("headline OK — all anchors within their calibration bands");
}
