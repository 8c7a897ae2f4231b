//! **Fig. 4** — demonstrating backpressure: the throughput at stage A is
//! adjusted based on the data processing rate at stage C.
//!
//! Paper setup (Fig. 3): a three-stage job where stage C sleeps after each
//! message; *"The sleep interval varies between 0 ms and 3 ms in a cycle
//! that proceeds in steps of 1 ms ... The throughput at the stream source
//! is inversely proportional to the sleep interval at stage C."*
//!
//! This harness runs the real engine and prints the time series of source
//! and sink rates across two full 0→1→2→3 ms cycles — the data behind
//! Fig. 4's staircase. The run executes with telemetry enabled, so the
//! backpressure oscillation is also captured by the background sampler
//! (queue gauges + gate events over time) and dumped, together with the
//! staircase and per-operator latency histograms, to `BENCH_fig4.json`.

use neptune_bench::Table;
use neptune_core::json::{object, JsonValue};
use neptune_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Firehose {
    emitted: Arc<AtomicU64>,
    payload: Vec<u8>,
}
impl StreamSource for Firehose {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        let mut p = StreamPacket::new();
        p.push_field("ts", FieldValue::Timestamp(neptune_core::now_micros()))
            .push_field("n", FieldValue::U64(self.emitted.load(Ordering::Relaxed)))
            .push_field("pad", FieldValue::Bytes(self.payload.clone()));
        match ctx.emit(&p) {
            Ok(()) => {
                self.emitted.fetch_add(1, Ordering::Relaxed);
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

struct VariableSink {
    sleep_us: Arc<AtomicU64>,
    processed: Arc<AtomicU64>,
}
impl StreamProcessor for VariableSink {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        let us = self.sleep_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
        self.processed.fetch_add(1, Ordering::Relaxed);
    }
}

fn main() {
    let emitted = Arc::new(AtomicU64::new(0));
    let processed = Arc::new(AtomicU64::new(0));
    let sleep_us = Arc::new(AtomicU64::new(0));
    let (e2, p2, s2) = (emitted.clone(), processed.clone(), sleep_us.clone());

    let graph = GraphBuilder::new("fig4")
        .source("A", move || Firehose { emitted: e2.clone(), payload: vec![0u8; 1024] })
        .processor("B", || Relay)
        .processor("C", move || VariableSink { sleep_us: s2.clone(), processed: p2.clone() })
        .link("A", "B", PartitioningScheme::Shuffle)
        .link("B", "C", PartitioningScheme::Shuffle)
        .build()
        .expect("valid graph");
    let config = RuntimeConfig {
        buffer_bytes: 4 * 1024,
        flush_interval: Duration::from_millis(2),
        watermark_high: 64 * 1024,
        watermark_low: 16 * 1024,
        telemetry: TelemetryConfig {
            sample_interval: Duration::from_millis(100),
            ..TelemetryConfig::enabled()
        },
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).expect("deploys");

    println!("# Fig. 4 — source throughput under a variable-rate stage C\n");
    let mut table = Table::new(&["t (s)", "C sleep (ms)", "A rate (pkt/s)", "C rate (pkt/s)"]);
    let mut t = 0.0f64;
    let mut staircase: Vec<(u64, f64)> = Vec::new();
    for cycle in 0..2 {
        for sleep_ms in [0u64, 1, 2, 3] {
            sleep_us.store(sleep_ms * 1000, Ordering::Relaxed);
            // Two samples per phase, 0.5 s each.
            for _ in 0..2 {
                let e0 = emitted.load(Ordering::Relaxed);
                let p0 = processed.load(Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(500));
                let e1 = emitted.load(Ordering::Relaxed);
                let p1 = processed.load(Ordering::Relaxed);
                t += 0.5;
                let a_rate = (e1 - e0) as f64 / 0.5;
                let c_rate = (p1 - p0) as f64 / 0.5;
                table.row(vec![
                    format!("{t:.1}"),
                    sleep_ms.to_string(),
                    format!("{a_rate:.0}"),
                    format!("{c_rate:.0}"),
                ]);
                if cycle == 1 {
                    staircase.push((sleep_ms, a_rate));
                }
            }
        }
    }
    let snap = job.telemetry().expect("telemetry enabled for this run");
    job.stop();
    table.print();

    // The sampler watched the whole oscillation: its series carries the
    // queue fill levels behind the staircase above. Backpressure engaging
    // is a gate *closing*; whether anyone then blocked in a push (a gate
    // event) depends on who the producer was — a pump parks instead.
    assert!(!snap.series.is_empty(), "sampler produced no samples");
    let gate_closures: u64 = snap.queues.iter().map(|q| q.gate_closures).sum();
    let gate_events: u64 = snap.queues.iter().map(|q| q.gate_events).sum();
    assert!(gate_closures > 0, "backpressure never engaged — Fig. 4 setup broken");
    println!(
        "\ntelemetry: {} sampler ticks, {} gate closures, {} producers blocked in a push",
        snap.series.len(),
        gate_closures,
        gate_events
    );

    // Verdict: in the second (settled) cycle, the source rate must be
    // monotonically decreasing in the sleep interval, and the 0 ms phase
    // must dominate the 3 ms phase by a wide margin.
    let rate_at = |ms: u64| {
        let xs: Vec<f64> = staircase.iter().filter(|(s, _)| *s == ms).map(|(_, r)| *r).collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let (r0, r1, r2, r3) = (rate_at(0), rate_at(1), rate_at(2), rate_at(3));
    println!("\nsettled-cycle mean source rates: 0ms={r0:.0} 1ms={r1:.0} 2ms={r2:.0} 3ms={r3:.0}");
    assert!(r0 > 10.0 * r1, "0ms phase should dwarf 1ms phase");
    assert!(r1 > r2 && r2 > r3, "source rate must fall as C slows");

    let doc = object([
        ("bench", JsonValue::String("fig4".into())),
        (
            "staircase",
            JsonValue::Array(
                staircase
                    .iter()
                    .map(|(sleep_ms, rate)| {
                        object([
                            ("sleep_ms", JsonValue::Number(*sleep_ms as f64)),
                            ("source_rate", JsonValue::Number(*rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "settled_rates",
            object([
                ("r0", JsonValue::Number(r0)),
                ("r1", JsonValue::Number(r1)),
                ("r2", JsonValue::Number(r2)),
                ("r3", JsonValue::Number(r3)),
            ]),
        ),
        ("gate_closures", JsonValue::Number(gate_closures as f64)),
        ("gate_events", JsonValue::Number(gate_events as f64)),
        ("telemetry", snap.to_json_value()),
    ]);
    std::fs::write("BENCH_fig4.json", doc.to_json()).expect("write BENCH_fig4.json");
    println!("wrote BENCH_fig4.json");
    println!("fig4 OK — source throughput inversely tracks stage C's rate");
}
