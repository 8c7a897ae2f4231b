//! End-to-end telemetry integration: a relay job run with telemetry
//! enabled must report per-operator end-to-end latency quantiles, the
//! four-stage breakdown (buffer wait, transport, schedule delay,
//! execution), a non-empty sampler time series, and snapshots in both
//! export formats.
//!
//! The latency test pins down the Fig. 2 invariant: with a buffer far too
//! large to fill, *only the flush timer moves packets*, so observed
//! end-to-end p99 must stay within a small multiple of the configured
//! flush interval — the paper's argument that timers bound the latency
//! cost of application-level buffering (§III-B1).

use neptune::prelude::*;

#[path = "support/prometheus_lint.rs"]
mod prometheus_lint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct StampedSource {
    remaining: u64,
    /// Per-packet pause; a trickle keeps buffers from filling by size.
    pause: Duration,
}

impl StreamSource for StampedSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.remaining == 0 {
            return SourceStatus::Exhausted;
        }
        self.remaining -= 1;
        let mut p = StreamPacket::new();
        p.push_field("ts", FieldValue::Timestamp(now_micros()))
            .push_field("n", FieldValue::U64(self.remaining));
        ctx.emit(&p).unwrap();
        if !self.pause.is_zero() {
            std::thread::sleep(self.pause);
        }
        SourceStatus::Emitted(1)
    }
}

struct Forward;
impl StreamProcessor for Forward {
    fn process(&mut self, p: &StreamPacket, ctx: &mut OperatorContext) {
        let _ = ctx.emit(p);
    }
}

struct Count(Arc<AtomicU64>);
impl StreamProcessor for Count {
    fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn relay_graph(n: u64, pause: Duration, seen: Arc<AtomicU64>) -> neptune::core::Graph {
    GraphBuilder::new("telemetry-it")
        .source("src", move || StampedSource { remaining: n, pause })
        .processor("relay", || Forward)
        .processor("sink", move || Count(seen.clone()))
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap()
}

#[test]
fn flush_timer_bounds_p99_latency() {
    // Fig. 2: huge buffer, 10 ms flush timer, trickle source — packets can
    // only move when the timer fires, so e2e latency is timer-dominated
    // and must stay bounded by a small multiple of the interval.
    let flush = Duration::from_millis(10);
    let seen = Arc::new(AtomicU64::new(0));
    let n = 300u64;
    let graph = relay_graph(n, Duration::from_millis(2), seen.clone());
    let config = RuntimeConfig {
        buffer_bytes: 1 << 20,
        flush_interval: flush,
        telemetry: TelemetryConfig::enabled(),
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(60)));
    assert!(job.settle(Duration::from_secs(30)));
    let snap = job.telemetry().expect("telemetry enabled");
    job.stop();
    assert_eq!(seen.load(Ordering::Relaxed), n);

    let sink = &snap.operators["sink"];
    assert_eq!(sink.e2e.count(), n);
    // Two timer-flushed hops plus scheduling. The ceiling is 25x the
    // interval: loose enough for a loaded CI machine running the whole
    // suite in parallel, but far below a broken flush timer, which would
    // hold packets until source close — the emission window alone is
    // 300 packets x 2 ms = 600 ms, so the earliest packets would show
    // p99 near that.
    let bound_us = 25 * flush.as_micros() as u64;
    assert!(
        sink.e2e.p99() < bound_us,
        "sink p99 {}µs exceeds flush-timer bound {}µs",
        sink.e2e.p99(),
        bound_us
    );
    // The breakdown must show where that time went: the relay's output
    // buffer held packets for roughly one flush interval.
    let relay_wait = &snap.operators["relay"].buffer_wait;
    assert!(relay_wait.count() > 0);
    assert!(
        relay_wait.max() >= flush.as_micros() as u64 / 2,
        "timer-flushed buffer wait {}µs implausibly small",
        relay_wait.max()
    );
}

#[test]
fn telemetry_reports_breakdown_sampler_and_both_export_formats() {
    let seen = Arc::new(AtomicU64::new(0));
    let n = 20_000u64;
    let graph = relay_graph(n, Duration::ZERO, seen.clone());
    let config = RuntimeConfig {
        buffer_bytes: 4096,
        telemetry: TelemetryConfig {
            sample_interval: Duration::from_millis(5),
            ..TelemetryConfig::enabled()
        },
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(60)));
    assert!(job.settle(Duration::from_secs(30)));

    // Named queue gauges (one per processor instance).
    let gauges = job.queue_gauges();
    assert_eq!(gauges.len(), 2);
    assert!(gauges.iter().all(|g| g.capacity > 0));

    let snap = job.telemetry().expect("telemetry enabled");
    job.stop();
    assert_eq!(seen.load(Ordering::Relaxed), n);

    // Every pipeline stage reports quantiles; the breakdown is complete.
    for op in ["relay", "sink"] {
        let t = &snap.operators[op];
        assert!(t.e2e.count() > 0, "{op}: empty e2e");
        assert!(t.e2e.p50() <= t.e2e.p95() && t.e2e.p95() <= t.e2e.p99());
        assert!(t.e2e.p99() <= t.e2e.max());
        assert!(t.transport.count() > 0, "{op}: empty transport");
        assert!(t.schedule_delay.count() > 0, "{op}: empty schedule_delay");
        assert!(t.execution.count() > 0, "{op}: empty execution");
    }
    assert!(snap.operators["src"].buffer_wait.count() > 0, "src: empty buffer_wait");
    assert!(snap.operators["relay"].buffer_wait.count() > 0, "relay: empty buffer_wait");

    // Sampler filled its time series while the job ran.
    assert!(!snap.series.is_empty());
    let (_, last) = snap.series.last().unwrap();
    assert_eq!(last.queues.len(), 2);

    // Both export formats are non-empty and structurally sound.
    let doc = neptune::core::json::parse(&snap.to_json()).expect("JSON export parses");
    let relay = doc.get("operators").unwrap().get("relay").unwrap();
    assert!(relay.get("e2e").unwrap().get("p99_micros").unwrap().as_u64().is_some());
    assert_eq!(relay.get("stages").unwrap().as_object().unwrap().len(), 4);

    let prom = snap.render_prometheus();
    assert!(prom.contains("# TYPE neptune_e2e_latency_micros summary"));
    assert!(prom.contains("neptune_e2e_latency_micros{operator=\"sink\",quantile=\"0.99\"}"));
    assert!(prom.contains("neptune_stage_latency_micros{operator=\"sink\",stage=\"transport\""));
}

/// Minimal HTTP GET against the job's scrape listener; returns the
/// response head and body separately.
fn scrape(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: neptune\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// ISSUE 7 tentpole: tracing at 1-in-1 must produce schema-valid Chrome
/// trace-event JSON covering the causal stage chain, and the live scrape
/// endpoint must serve `/metrics`, `/traces`, and `/events`.
#[test]
fn tracing_job_emits_causal_spans_and_serves_scrape_endpoints() {
    let seen = Arc::new(AtomicU64::new(0));
    let n = 4_000u64;
    let graph = relay_graph(n, Duration::ZERO, seen.clone());
    let config = RuntimeConfig {
        telemetry: TelemetryConfig {
            scrape_addr: Some("127.0.0.1:0".into()),
            ..TelemetryConfig::with_tracing(1)
        },
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(60)));
    assert!(job.settle(Duration::from_secs(30)));
    assert_eq!(seen.load(Ordering::Relaxed), n);

    // Spans reached the ring and surfaced in the thread-model gauges.
    let tm = job.thread_model();
    assert!(tm.trace_spans > 0, "no spans recorded");

    // Chrome trace schema: displayTimeUnit plus a traceEvents array of
    // "M" thread-name metadata and "X" complete events with ts/dur and
    // the trace id in args.
    let trace = job.chrome_trace().expect("tracing enabled");
    let doc = neptune::core::json::parse(&trace).expect("chrome trace parses");
    assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    let events = doc.get("traceEvents").unwrap().as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "empty trace");
    let mut stages = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().expect("ph string");
        assert!(ev.get("name").unwrap().as_str().is_some(), "missing name");
        assert!(ev.get("pid").unwrap().as_u64().is_some(), "missing pid");
        assert!(ev.get("tid").unwrap().as_u64().is_some(), "missing tid");
        match ph {
            "M" => {}
            "X" => {
                assert!(ev.get("ts").unwrap().as_f64().is_some(), "X without ts");
                assert!(ev.get("dur").unwrap().as_f64().is_some(), "X without dur");
                let id = ev.get("args").unwrap().get("trace_id").unwrap();
                assert!(id.as_str().unwrap().starts_with("0x"), "trace_id not hex");
                stages.insert(ev.get("name").unwrap().as_str().unwrap().to_string());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for want in ["buffer_wait", "schedule"] {
        assert!(stages.contains(want), "missing stage {want} in {stages:?}");
    }
    assert!(
        stages.contains("execution") || stages.contains("sink"),
        "no execution/sink stage in {stages:?}"
    );

    // The scrape listener serves all three routes and 404s the rest.
    let addr = job.scrape_addr().expect("scrape listener bound");
    let (head, body) = scrape(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    assert!(body.contains("# TYPE neptune_e2e_latency_micros summary"), "{body}");
    assert!(body.contains("neptune_trace_spans_total"), "{body}");
    // The scrape folds the same execution-plane gauges the handle does.
    assert!(tm.io_threads > 0 && tm.worker_threads > 0, "{tm:?}");
    assert!(body.contains(&format!("neptune_io_threads {}\n", tm.io_threads)), "{body}");
    assert!(body.contains(&format!("neptune_worker_threads {}\n", tm.worker_threads)), "{body}");

    let (head, body) = scrape(addr, "/traces");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    let doc = neptune::core::json::parse(&body).expect("/traces parses");
    assert!(doc.get("traceEvents").unwrap().as_array().is_some());

    let (head, body) = scrape(addr, "/events");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let doc = neptune::core::json::parse(&body).expect("/events parses");
    assert!(doc.get("events").unwrap().as_array().is_some());

    let (head, _) = scrape(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    job.stop();
}

/// `stop()` returns the same fold a live `metrics()` does: what the
/// observability rings had counted by the last live read is still there
/// in the final metrics, not zeroed.
#[test]
fn final_metrics_keep_what_the_last_live_read_saw() {
    /// 100µs of worker CPU per packet: against 2 KiB watermarks the gate
    /// must close, which is what puts events in the flight recorder.
    struct SlowCount(Arc<AtomicU64>);
    impl StreamProcessor for SlowCount {
        fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
            let until = std::time::Instant::now() + Duration::from_micros(100);
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    let n = 2_000u64;
    let graph = GraphBuilder::new("final-fold")
        .source("src", move || StampedSource { remaining: n, pause: Duration::ZERO })
        .processor("sink", move || SlowCount(s2.clone()))
        .link("src", "sink", PartitioningScheme::Shuffle)
        .build()
        .unwrap();
    let config = RuntimeConfig {
        buffer_bytes: 256,
        watermark_high: 2048,
        watermark_low: 512,
        telemetry: TelemetryConfig::with_tracing(1),
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(60)));
    assert!(job.settle(Duration::from_secs(30)));
    let live = job.metrics().thread_model;
    assert!(live.trace_spans > 0 && live.recorder_events > 0, "nothing to lose: {live:?}");
    let last = job.stop().thread_model;
    assert_eq!(seen.load(Ordering::Relaxed), n);
    assert!(last.trace_spans >= live.trace_spans, "{last:?} lost spans of {live:?}");
    assert!(last.recorder_events >= live.recorder_events, "{last:?} lost events of {live:?}");
    assert!(
        last.trace_dropped >= live.trace_dropped && last.sampler_dropped >= live.sampler_dropped
    );
}

/// Lint the Prometheus exposition of a live job with every optional
/// section on (see [`prometheus_lint::lint_exposition`] for the rules).
#[test]
fn prometheus_exposition_lint() {
    let seen = Arc::new(AtomicU64::new(0));
    let graph = relay_graph(2_000, Duration::ZERO, seen.clone());
    let config = RuntimeConfig {
        telemetry: TelemetryConfig::with_tracing(64),
        containment: ContainmentConfig::enabled(),
        checkpoint: CheckpointConfig::every(Duration::from_millis(5)),
        ..Default::default()
    };
    let job = LocalRuntime::new(config).submit(graph).unwrap();
    assert!(job.await_sources(Duration::from_secs(60)));
    assert!(job.settle(Duration::from_secs(30)));
    let snap = job.telemetry().expect("telemetry enabled");
    job.stop();

    let declared = prometheus_lint::lint_exposition(&snap.render_prometheus());
    // The observability families from this PR are present.
    for family in ["neptune_trace_spans_total", "neptune_sampler_dropped_total"] {
        assert!(declared.contains(family), "missing family {family}");
    }
    // With checkpointing enabled, the whole checkpoint family must be
    // declared and pass the same lint as everything else.
    for family in [
        "neptune_checkpoint_completed_total",
        "neptune_checkpoint_abandoned_total",
        "neptune_checkpoint_store_failures_total",
        "neptune_checkpoint_in_flight",
        "neptune_checkpoint_last_completed_id",
        "neptune_checkpoint_last_age_micros",
        "neptune_checkpoint_duration_micros",
        "neptune_checkpoint_size_bytes",
    ] {
        assert!(declared.contains(family), "missing family {family}");
    }
}
