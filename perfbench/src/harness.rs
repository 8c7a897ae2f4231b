//! The phases of an in-process workload run — set-up cycles, the
//! saturating (closed-loop) phase, the paced (open-loop) phase — and what
//! each one measures from outside the engine.

use crate::hist::{Histogram, LatencySummary};
use crate::ops::{mfg_reference, window_reference, Pace, SinkReport};
use crate::procfs;
use crate::spans::SpanLog;
use crate::workloads::{Kind, Probes, Workload};
use neptune_core::checkpoint::CheckpointStats;
use neptune_core::metrics::{JobMetrics, ThreadModelStats};
use neptune_core::now_micros;
use neptune_core::prelude::*;
use neptune_link::LinkStatsSnapshot;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Seconds discarded at the start of the saturating phase (ramp-up: the
/// watermark queues fill, the buffer pool warms).
pub const WARMUP_S: f64 = 1.5;
/// A paced packet still undelivered this long after the phase ends is a
/// failure.
pub const STRAGGLER_GRACE: Duration = Duration::from_secs(2);
/// A paced generator running later than this (99th percentile, ms) is
/// flagged with the run.
pub const GEN_LATE_LIMIT_MS: f64 = 2.0;
/// Below this share of the offered packets delivered when the paced source
/// finishes, the backlog was still growing and the latencies are flagged.
pub const DELIVERED_LIMIT: f64 = 0.98;
/// Lead between computing the paced schedule's origin and submitting.
const PACED_LEAD_US: u64 = 100_000;
/// How long one set-up cycle may wait for the first packet at the sink.
const FIRST_PACKET_TIMEOUT: Duration = Duration::from_secs(20);

/// A submitted job plus the bench-side handles into it.
pub struct Running {
    /// The engine's handle.
    pub job: JobHandle,
    /// The bench-owned operators' shared state.
    pub probes: Probes,
}

/// Build and submit one job of `workload`.
pub fn submit(
    workload: &Workload,
    seed: u64,
    pace: Pace,
    paced_t0_us: Option<u64>,
    single_thread: bool,
    telemetry: bool,
) -> Running {
    let (graph, probes) = workload.graph(seed, pace, paced_t0_us);
    let job = LocalRuntime::new(workload.config(single_thread, telemetry))
        .submit(graph)
        .expect("the workload's job deploys");
    if workload.kind == Kind::RelayTcp {
        assert_both_hops_cross_tcp(&job);
    }
    Running { job, probes }
}

/// `relay_10kb_tcp` only means something if neither hop is handed over in
/// process: source, relay and sink must sit on three different resources.
fn assert_both_hops_cross_tcp(job: &JobHandle) {
    let resource_of = |op: &str| {
        job.placement().iter().find(|(name, _, _)| name == op).map(|&(_, _, r)| r).expect("placed")
    };
    let (src, relay, sink) = (resource_of("src"), resource_of("relay"), resource_of("sink"));
    assert!(
        src != relay && relay != sink,
        "relay_10kb_tcp needs both hops on TCP, placement is {:?}",
        job.placement()
    );
}

/// Everything read from a job just before and at `stop()`.
pub struct JobEnd {
    /// Final counters.
    pub metrics: JobMetrics,
    /// Telemetry snapshot (traced runs only).
    pub telemetry: Option<TelemetrySnapshot>,
    /// The engine's own sampled spans (traced runs only).
    pub chrome_trace: Option<String>,
    /// Per-link counters.
    pub links: Vec<LinkStatsSnapshot>,
    /// Checkpoint counters (`window_ckpt` only).
    pub checkpoints: Option<CheckpointStats>,
    /// Thread counts the engine actually ran with.
    pub threads: ThreadModelStats,
    /// Sources stopped → `settle()` returned, ms.
    pub drain_ms: f64,
    /// The sink's report.
    pub sink: SinkReport,
    /// Source packets emitted.
    pub offered: u64,
    /// Packets each keyed instance consumed.
    pub keyed_instances: Vec<u64>,
    /// Emit instant − due instant of every packet a paced source sent, µs.
    pub gen_late: Option<Histogram>,
}

/// Drain and stop a job whose sources are finished (or told to finish).
fn finish(running: Running) -> JobEnd {
    let Running { job, probes } = running;
    let t = Instant::now();
    job.await_sources(Duration::from_secs(30));
    let settled = job.settle(Duration::from_secs(30));
    let drain_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert!(settled, "job did not settle within 30 s of its sources finishing");
    let telemetry = job.telemetry();
    let chrome_trace = job.chrome_trace();
    let links = job.link_stats();
    let checkpoints = job.checkpoint_stats();
    let threads = job.thread_model();
    let metrics = job.stop();
    let sink = probes.sink.report.lock().expect("report lock").take().expect("sink closed");
    let gen_late = probes.source.late.lock().expect("late lock").take();
    JobEnd {
        metrics,
        telemetry,
        chrome_trace,
        links,
        checkpoints,
        threads,
        drain_ms,
        sink,
        offered: probes.source.emitted.load(Ordering::Relaxed),
        keyed_instances: probes.keyed_instances.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        gen_late,
    }
}

/// Packets that did not come out as they should have, for `offered`
/// source packets: lost, duplicated, reordered or corrupted on the relays;
/// results differing from a single-threaded replay of the same seed on the
/// aggregating workloads.
pub fn count_failures(workload: &Workload, seed: u64, offered: u64, sink: &SinkReport) -> u64 {
    match workload.kind {
        // The cut edge carries relay packets: same ledger.
        Kind::RelayInproc | Kind::RelayTcp | Kind::ClusterCut => {
            offered.saturating_sub(sink.in_order) + sink.dup_or_reordered + sink.bad_payload
        }
        Kind::Manufacturing => {
            let (events, sum) = mfg_reference(seed, offered);
            let mean_ms = sum as f64 / events.max(1) as f64 / 1000.0;
            let off_truth = events > 100 && (mean_ms - 20.0).abs() > 5.0;
            events.abs_diff(sink.received)
                + u64::from(sum != sink.sum && events == sink.received)
                + u64::from(off_truth)
        }
        Kind::WindowCheckpoint => {
            let (results, digest) = window_reference(seed, offered);
            results.abs_diff(sink.received)
                + u64::from(digest != sink.digest && results == sink.received)
        }
    }
}

/// One `submit → first packet at the sink → stop` cycle, in seconds. The
/// source offers a fixed burst (all of it due at once), so what `stop` has
/// to drain is the same every time.
pub fn setup_cycle(workload: &Workload, seed: u64) -> f64 {
    let t = Instant::now();
    let burst =
        Pace::Paced { rate_pps: 1_000_000_000, total: workload.setup_packets, t0_us: now_micros() };
    let running = submit(workload, seed, burst, None, false, false);
    while running.probes.sink.received.load(Ordering::Relaxed) == 0 {
        assert!(t.elapsed() < FIRST_PACKET_TIMEOUT, "no packet reached the sink");
        std::thread::sleep(Duration::from_micros(100));
    }
    running.job.stop();
    t.elapsed().as_secs_f64()
}

/// Median of `cycles` runs of `cycle` (which returns its own duration in
/// seconds), each inside a `setup[i]` span.
pub fn setup_s(cycles: usize, spans: &SpanLog, root: usize, mut cycle: impl FnMut() -> f64) -> f64 {
    let times: Vec<f64> =
        (0..cycles).map(|i| spans.scope(format!("setup[{i}]"), Some(root), &mut cycle)).collect();
    neptune_stats::percentile(&times, 50.0)
}

/// Counters read at both ends of the steady window.
pub struct Mark {
    at: Instant,
    packets: u64,
    cpu_s: f64,
    ctx: (u64, u64),
    allocs: (u64, u64),
    thread_model: ThreadModelStats,
    gate_events: u64,
}

/// Read the counters now; `packets` is the workload's throughput count.
pub fn mark(job: &JobHandle, packets: u64) -> Mark {
    Mark {
        at: Instant::now(),
        packets,
        cpu_s: procfs::self_cpu_s(),
        ctx: procfs::self_ctx_switches(),
        allocs: crate::alloc_count::snapshot(),
        thread_model: job.thread_model(),
        gate_events: job.total_gate_events(),
    }
}

/// What the saturating phase measured.
pub struct Saturated {
    /// Source packets whose effect reached the throughput point, per
    /// second of the steady window.
    pub throughput_pps: f64,
    /// Process CPU µs per such packet over the same window.
    pub cpu_us_per_packet: f64,
    /// Steady-window length, seconds.
    pub window_s: f64,
    /// Packets counted in the steady window.
    pub window_packets: u64,
    /// Voluntary / involuntary context switches in the window.
    pub ctx_switches: (u64, u64),
    /// Allocations / allocated bytes in the window (traced runs).
    pub allocs: (u64, u64),
    /// IO-tier and reactor counters at the window's start and end.
    pub thread_model: (ThreadModelStats, ThreadModelStats),
    /// Watermark gate events in the window.
    pub gate_events: u64,
    /// Largest mean fill (`depth_bytes / capacity`) over the job's inbound
    /// queues, sampled every 10 ms (runs with telemetry on).
    pub fill_mean_max: f64,
    /// The job's end state.
    pub end: JobEnd,
    /// Failures among `end.offered`.
    pub failed: u64,
}

/// Closed loop: a free-running source throttled only by backpressure, for
/// `seconds`; the first [`WARMUP_S`] are discarded. With `telemetry` the
/// queue gauges are sampled too.
pub fn saturate(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    single_thread: bool,
    telemetry: bool,
) -> Saturated {
    let running = submit(workload, seed, Pace::Saturate, None, single_thread, telemetry);
    let point = workload.throughput_point();
    let read = |r: &Running| {
        mark(&r.job, r.job.metrics().operator(point.operator).packets_in / point.per_input)
    };
    let warm = WARMUP_S.min(seconds / 3.0);
    std::thread::sleep(Duration::from_secs_f64(warm));
    let start = read(&running);
    let window_end = start.at + Duration::from_secs_f64(seconds - warm);
    let mut fill_sums: Vec<f64> = Vec::new();
    let mut fill_samples = 0u32;
    if telemetry {
        while Instant::now() < window_end {
            for (i, g) in running.job.queue_gauges().iter().enumerate() {
                if fill_sums.len() <= i {
                    fill_sums.push(0.0);
                }
                fill_sums[i] += g.saturation();
            }
            fill_samples += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
    } else {
        std::thread::sleep(window_end.saturating_duration_since(Instant::now()));
    }
    let end = read(&running);
    running.probes.source.stop.store(true, Ordering::Relaxed);
    let job_end = finish(running);
    let fill_mean_max =
        fill_sums.iter().map(|s| s / f64::from(fill_samples.max(1))).fold(0.0, f64::max);
    let failed = count_failures(workload, seed, job_end.offered, &job_end.sink);
    Saturated::between(&start, &end, fill_mean_max, job_end, failed)
}

impl Saturated {
    /// What happened between two marks of a job that has since ended.
    pub fn between(
        start: &Mark,
        end: &Mark,
        fill_mean_max: f64,
        job_end: JobEnd,
        failed: u64,
    ) -> Saturated {
        let window_s = (end.at - start.at).as_secs_f64();
        let window_packets = end.packets - start.packets;
        Saturated {
            throughput_pps: window_packets as f64 / window_s,
            cpu_us_per_packet: (end.cpu_s - start.cpu_s) * 1e6 / window_packets.max(1) as f64,
            window_s,
            window_packets,
            ctx_switches: (end.ctx.0 - start.ctx.0, end.ctx.1 - start.ctx.1),
            allocs: (end.allocs.0 - start.allocs.0, end.allocs.1 - start.allocs.1),
            thread_model: (start.thread_model, end.thread_model),
            gate_events: end.gate_events - start.gate_events,
            fill_mean_max,
            end: job_end,
            failed,
        }
    }
}

/// What the paced phase measured.
pub struct Paced {
    /// Sink-side latency from each packet's due time.
    pub latency: LatencySummary,
    /// 99th percentile of emit instant − due instant, ms: how late the
    /// generator itself ran.
    pub gen_late_p99_ms: f64,
    /// Source packets delivered when the source finished ÷ offered.
    pub delivered_at_end: f64,
    /// Source packets still undelivered after [`STRAGGLER_GRACE`].
    pub stragglers: u64,
    /// Mean resident set of the process over the phase (sampled every
    /// 20 ms), MiB.
    pub rss_mb: f64,
    /// The job's end state.
    pub end: JobEnd,
    /// Failures among `end.offered`, stragglers included.
    pub failed: u64,
}

/// The open-loop schedule of a paced phase: the pace, how many packets it
/// offers, and its origin (µs since the epoch; also the sink's `t0`).
pub fn paced_schedule(workload: &Workload, seconds: f64) -> (Pace, u64, u64) {
    let rate_pps = workload.paced_rate_pps;
    let total = (rate_pps as f64 * seconds) as u64;
    let t0_us = now_micros() + PACED_LEAD_US;
    (Pace::Paced { rate_pps, total, t0_us }, total, t0_us)
}

impl Paced {
    /// Put a finished paced job's numbers together.
    pub fn assemble(
        workload: &Workload,
        seed: u64,
        end: JobEnd,
        delivered_at_end: f64,
        stragglers: u64,
        rss_mb: f64,
    ) -> Paced {
        Paced {
            latency: end.sink.latency.as_ref().map(|w| w.summary()).unwrap_or_default(),
            gen_late_p99_ms: end.gen_late.as_ref().map_or(0.0, |h| h.quantile(0.99) / 1000.0),
            delivered_at_end,
            stragglers,
            rss_mb,
            failed: count_failures(workload, seed, end.offered, &end.sink) + stragglers,
            end,
        }
    }
}

/// Open loop: `rate × seconds` packets on the schedule `t0 + i / rate`,
/// whatever the engine does.
pub fn paced(workload: &Workload, seed: u64, seconds: f64, telemetry: bool) -> Paced {
    let (pace, total, t0_us) = paced_schedule(workload, seconds);
    let running = submit(workload, seed, pace, Some(t0_us), false, telemetry);
    let point = workload.throughput_point();
    let delivered =
        |r: &Running| r.job.metrics().operator(point.operator).packets_in / point.per_input;

    let rss = procfs::RssSampler::start();
    let finished = running.job.await_sources(Duration::from_secs_f64(seconds + 30.0));
    assert!(finished, "the paced source did not finish its schedule");
    let rss_mb = rss.finish();
    let delivered_at_end = delivered(&running) as f64 / total as f64;
    let settled = running.job.settle(STRAGGLER_GRACE);
    let stragglers = if settled { 0 } else { total.saturating_sub(delivered(&running)) };
    Paced::assemble(workload, seed, finish(running), delivered_at_end, stragglers, rss_mb)
}
