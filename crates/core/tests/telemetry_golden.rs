//! Golden equivalence of the two telemetry exports.
//!
//! `fixtures/telemetry_golden.txt` is what the hand-written JSON and
//! Prometheus bodies of the last commit before the schema walk produced
//! for the snapshot built below: the JSON document on the first line, the
//! exposition after it. The exports are a contract with whoever scrapes
//! them, so the schema-driven renders must reproduce the fixture — every
//! key, family, label set and value. Two rows separate the fixture from
//! the raw capture, the two the same change touched on purpose: the
//! link's message-count flush threshold — a JSON key and a gauge family
//! that could only read 0, deleted with the knob — was cut from the
//! fixture by hand, and [`ROWS_ADDED`] is the one family the exposition
//! gained. Rows the engine has gained since are written into the fixture
//! as they would have rendered: the two closure counts, `gate_closures`
//! per queue and `sender_full` per link (one JSON key and one counter
//! family each). Rows it has lost are cut the same way: the link's two
//! flush-threshold gauges, `flush_batch_bytes` and
//! `flush_max_delay_micros`, which echoed configuration; and the shed
//! rows that went when shedding moved from the queues to the sources —
//! `shed_total` and `shed_bytes` per queue, and the job's `shed_bytes`
//! (a packet shed at its source is never encoded, so it has no bytes).

use neptune_core::checkpoint::CheckpointStats;
use neptune_core::dead_letter::DeadLetter;
use neptune_core::json;
use neptune_core::metrics::{ContainmentStats, MetricsRegistry, ThreadModelStats};
use neptune_core::telemetry::{QueueGauge, TelemetryHub, TelemetrySample, TelemetrySnapshot};
use neptune_link::LinkStatsSnapshot;
use neptune_net::pool::BytesPoolStats;
use neptune_telemetry::{HistogramSnapshot, LatencyHistogram};
use std::sync::atomic::Ordering::Relaxed;

const FIXTURE: &str = include_str!("fixtures/telemetry_golden.txt");

/// `acks` was in JSON but had no family: `(family, link label, value)`.
const ROWS_ADDED: [(&str, &str, u64); 1] = [("neptune_link_acks_total", "0x10000", 5)];

fn histogram(values: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::new();
    for v in values {
        h.record(*v);
    }
    h.snapshot()
}

/// Every section populated, every field a distinct value, and names that
/// need escaping in both formats.
fn golden_snapshot() -> TelemetrySnapshot {
    let hub = TelemetryHub::new();
    for (name, scale) in [("relay", 1u64), ("sink \"b\"", 3)] {
        let op = hub.for_operator(name);
        for v in [150u64, 900, 42_000, 1_000_000] {
            op.e2e.record(v * scale);
            op.buffer_wait.record(v * scale / 2);
            op.transport.record(v * scale / 8);
            op.schedule_delay.record(v * scale / 16);
            op.execution.record(v * scale / 4);
        }
    }
    let registry = MetricsRegistry::new();
    for (name, base) in [("relay", 100u64), ("sink \"b\"", 200)] {
        let c = registry.for_operator(name);
        c.packets_in.store(base + 1, Relaxed);
        c.packets_out.store(base + 2, Relaxed);
        c.frames_in.store(base + 3, Relaxed);
        c.frames_out.store(base + 4, Relaxed);
        c.bytes_out.store(base + 5, Relaxed);
        c.executions.store(base + 6, Relaxed);
        c.seq_violations.store(base + 7, Relaxed);
        c.panics.store(base + 8, Relaxed);
        c.retries.store(base + 9, Relaxed);
        c.quarantined.store(base + 10, Relaxed);
        c.breaker_trips.store(base + 11, Relaxed);
        c.breaker_dropped.store(base + 12, Relaxed);
    }
    let mut metrics = registry.snapshot();
    metrics.buffer_pool =
        BytesPoolStats { hits: 31, misses: 32, returns: 33, discards: 34, bytes_reused: 35 };
    metrics.thread_model = ThreadModelStats {
        io_threads: 41,
        worker_threads: 42,
        live_io_tasks: 43,
        queued_io_tasks: 44,
        timer_depth: 45,
        timer_fires: 46,
        io_parks: 47,
        io_wakes: 48,
        io_polls: 49,
        net_connections: 50,
        net_interests: 51,
        net_readiness_events: 52,
        net_rearms: 53,
        net_accept_backlog_peak: 54,
        sampler_dropped: 55,
        trace_spans: 56,
        trace_dropped: 57,
        recorder_events: 58,
        recorder_dropped: 59,
    };
    metrics.containment = ContainmentStats {
        worker_panics: 61,
        io_task_panics: 60,
        panics: 62,
        retries: 63,
        quarantined: 64,
        breaker_trips: 65,
        breaker_dropped: 66,
        dead_letters: 67,
        dead_letters_evicted: 68,
        shed_total: 69,
    };
    let queues = vec![
        QueueGauge {
            depth: 2,
            depth_bytes: 512,
            capacity: 4096,
            gate_events: 7,
            gate_closures: 11,
        },
        QueueGauge {
            depth: 3,
            depth_bytes: 768,
            capacity: 8192,
            gate_events: 9,
            gate_closures: 13,
        },
    ];
    let first_tick = TelemetrySample { metrics: registry.snapshot(), queues: queues[..1].to_vec() };
    let second_tick = TelemetrySample { metrics: metrics.clone(), queues: queues.clone() };
    TelemetrySnapshot {
        graph_name: "golden \"job\"\n".into(),
        operators: hub.snapshot(),
        metrics,
        queues,
        series: vec![(0, first_tick), (100_000, second_tick)],
        links: vec![LinkStatsSnapshot {
            link_id: 0x10000,
            flushes: 12,
            packets: 48,
            wire_bytes: 4096,
            traced: 3,
            replayed: 2,
            acks: 5,
            dedup_drops: 1,
            sender_full: 4,
        }],
        dead_letters: vec![DeadLetter {
            operator: "sink \"b\"".into(),
            instance: 1,
            link_id: 3,
            base_seq: 40,
            messages: 8,
            panic_msg: "poison \"value\"\nline two".into(),
            attempts: 3,
            bytes: vec![0xEE; 16],
            original_len: 64,
        }],
        checkpoints: Some(CheckpointStats {
            completed: 5,
            abandoned: 1,
            store_failures: 2,
            in_flight: 1,
            last_completed_id: Some(5),
            last_age_micros: Some(42_000),
            duration_micros: histogram(&[250, 900, 12_000]),
            size_bytes: histogram(&[4096, 8192]),
        }),
    }
}

// `lint_exposition`: each `# TYPE` once and before its first sample.
include!("../../../tests/support/prometheus_lint.rs");

/// The lines of a well-formed exposition as a sorted multiset.
fn exposition_lines(text: &str) -> Vec<String> {
    lint_exposition(text);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

#[test]
fn golden_snapshot_exports_match_the_fixture() {
    let (json_fixture, prom_fixture) = FIXTURE.split_once('\n').expect("two-part fixture");
    let snap = golden_snapshot();

    let want = json::parse(json_fixture).expect("fixture JSON parses");
    let got = json::parse(&snap.to_json()).expect("export parses");
    assert_eq!(got, want, "JSON export drifted from the fixture");

    let mut want = exposition_lines(prom_fixture);
    for (family, link, value) in ROWS_ADDED {
        want.push(format!("# TYPE {family} counter"));
        want.push(format!("{family}{{link=\"{link}\"}} {value}"));
    }
    want.sort();
    assert_eq!(exposition_lines(&snap.render_prometheus()), want, "exposition drifted");
}
