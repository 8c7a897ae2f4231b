//! The metric names the benchmark declares (mirrored by `BENCHMARK.json`)
//! and how the per-layer ones are put together from a traced run.
//!
//! A per-layer metric a workload's pipeline never touches reads 0: no
//! checkpoints on the relays, no socket in process, no cut edge off the
//! cluster. Zero work is what that layer did.

use crate::cluster::CutExtras;
use crate::harness::{JobEnd, Paced, Saturated};
use crate::probes::ProbeResults;
use crate::workloads::{Kind, Workload};
use neptune_core::channel::ChannelId;
use neptune_core::prelude::*;
use neptune_telemetry::HistogramSnapshot;

/// End-to-end metrics, `(name, unit)`: what `--trace 0` prints.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_pps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_us_per_packet", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`: what `--trace 1` prints.
pub const PER_LAYER: [(&str, &str); 70] = [
    // In-situ, paced traced phase: where a packet's latency goes.
    ("core.channel.buffer_wait_p50_us", "us"),
    ("core.channel.buffer_wait_p99_us", "us"),
    ("link.transport_p50_us", "us"),
    ("link.transport_p99_us", "us"),
    ("granules.schedule_delay_p50_us", "us"),
    ("granules.schedule_delay_p99_us", "us"),
    ("core.operator.execution_p50_us", "us"),
    ("core.operator.execution_p99_us", "us"),
    ("gen.late_p99_ms", "ms"),
    // In-situ, saturating traced phase: work done per packet.
    ("core.operator.packets_per_execution", "count"),
    ("granules.executions_per_kpacket", "count"),
    ("net.frame.packets_per_frame", "count"),
    ("link.flushes_per_kpacket", "count"),
    ("link.wire_bytes_per_packet", "B"),
    ("link.wire_overhead_ratio", "ratio"),
    ("net.pool.hit_rate", "ratio"),
    ("net.pool.misses_per_kpacket", "count"),
    ("net.pool.discards_per_kpacket", "count"),
    ("alloc.allocs_per_packet", "count"),
    ("alloc.bytes_per_packet", "B"),
    ("granules.io_polls_per_kpacket", "count"),
    ("granules.io_parks_per_kpacket", "count"),
    ("granules.io_wakes_per_kpacket", "count"),
    ("granules.timer_fires_per_s", "1/s"),
    ("os.ctx_switches_vol_per_kpacket", "count"),
    ("os.ctx_switches_nonvol_per_kpacket", "count"),
    ("os.rss_paced_mb", "MiB"),
    ("os.peak_rss_mb", "MiB"),
    ("net.tcp.readiness_events_per_kpacket", "count"),
    ("net.tcp.rearms_per_kpacket", "count"),
    ("net.tcp.connections", "count"),
    ("net.watermark.gate_events_per_s", "1/s"),
    ("net.watermark.fill_mean_max", "ratio"),
    ("net.watermark.shed_total", "count"),
    ("core.checkpoint.completed", "count"),
    ("core.checkpoint.abandoned", "count"),
    ("core.checkpoint.duration_p50_ms", "ms"),
    ("core.checkpoint.duration_p99_ms", "ms"),
    ("core.checkpoint.size_bytes_p50", "B"),
    ("core.partition.skew", "ratio"),
    ("link.acks_per_kpacket", "count"),
    ("link.replayed", "count"),
    ("link.dedup_drops", "count"),
    ("cluster.dataplane.frames_in_per_kpacket", "count"),
    ("cluster.dataplane.dup_frames", "count"),
    ("cluster.dataplane.cut_edges", "count"),
    ("lifecycle.drain_ms", "ms"),
    ("granules.single_thread_pps", "1/s"),
    ("telemetry.overhead_ratio", "ratio"),
    // Isolated probes.
    ("data.generate_ns_per_packet", "ns"),
    ("core.codec.encode_ns_per_packet", "ns"),
    ("core.codec.decode_ns_per_packet", "ns"),
    ("core.partition.route_ns_per_packet", "ns"),
    ("net.buffer.push_ns_per_packet", "ns"),
    ("net.frame.encode_ns_per_packet", "ns"),
    ("net.frame.decode_ns_per_packet", "ns"),
    ("compress.decide_ns_per_kb", "ns/kB"),
    ("compress.encode_ns_per_kb", "ns/kB"),
    ("compress.decode_ns_per_kb", "ns/kB"),
    ("compress.wire_ratio", "ratio"),
    ("net.watermark.push_pop_ns_per_frame", "ns"),
    ("granules.dispatch_ns_per_task", "ns"),
    ("link.inproc_hop_ns_per_packet", "ns"),
    ("link.tcp_hop_ns_per_packet", "ns"),
    ("link.reliable_tcp_hop_ns_per_packet", "ns"),
    ("core.window.observe_ns_per_packet", "ns"),
    ("core.state.snapshot_us", "us"),
    ("core.state.restore_us", "us"),
    ("core.state.snapshot_bytes", "B"),
    // Σ probe cost × crossings ÷ measured CPU per packet.
    ("ledger.explained_fraction", "ratio"),
];

/// How often one source packet crosses each probed layer in a workload's
/// pipeline — the weights of the ledger. Only crossings in the source
/// packet's own shape are counted; what the pipeline's smaller derived
/// packets cost stays in the residual.
struct Crossings {
    encode: f64,
    decode: f64,
    route: f64,
    buffer_push: f64,
    /// Hops whose batches are framed, CRC'd and run past the compressor.
    framed_hops: f64,
    window_observe: f64,
}

fn crossings(kind: Kind) -> Crossings {
    let c = |encode, decode, route, buffer_push, framed_hops, window_observe| Crossings {
        encode,
        decode,
        route,
        buffer_push,
        framed_hops,
        window_observe,
    };
    match kind {
        Kind::RelayInproc => c(2.0, 2.0, 2.0, 2.0, 0.0, 0.0),
        Kind::RelayTcp => c(2.0, 2.0, 2.0, 2.0, 2.0, 0.0),
        Kind::Manufacturing => c(1.0, 1.0, 1.0, 1.0, 1.0, 0.0),
        Kind::WindowCheckpoint => c(1.0, 1.0, 1.0, 1.0, 0.0, 1.0),
        // src → win → __egress (re-encodes) ⇢ __ingress (decodes) → sink.
        Kind::ClusterCut => c(3.0, 4.0, 3.0, 3.0, 1.0, 0.0),
    }
}

/// The four stage histograms of every operator of the given telemetry
/// snapshots, merged.
fn merged_stages(snapshots: &[&TelemetrySnapshot]) -> [HistogramSnapshot; 4] {
    let mut merged = [(); 4].map(|()| HistogramSnapshot::empty());
    for snapshot in snapshots {
        for operator in snapshot.operators.values() {
            for (slot, (_, stage)) in merged.iter_mut().zip(operator.stages()) {
                slot.merge(stage);
            }
        }
    }
    merged
}

fn per_k(count: u64, packets: u64) -> f64 {
    count as f64 * 1000.0 / packets.max(1) as f64
}

/// Inputs of [`per_layer`].
pub struct Traced<'a> {
    /// The saturating phase with telemetry off (the overhead baseline and
    /// the ledger's CPU figure).
    pub untraced: &'a Saturated,
    /// The saturating phase with telemetry and allocation counting on.
    pub saturated: &'a Saturated,
    /// The paced phase with telemetry on.
    pub paced: &'a Paced,
    /// Saturating throughput with one worker and one IO thread (0 where
    /// that configuration cannot run).
    pub single_thread_pps: f64,
    /// The cut edge's extra counters in both traced phases
    /// (`cluster_cut` only).
    pub cut: Option<(&'a CutExtras, &'a CutExtras)>,
    /// The isolated probes.
    pub probes: &'a ProbeResults,
}

/// Every per-layer metric of one workload, in [`PER_LAYER`] order.
pub fn per_layer(workload: &Workload, t: &Traced) -> Vec<(&'static str, f64)> {
    let sat = t.saturated;
    let end: &JobEnd = &sat.end;
    let packets = sat.window_packets.max(1);
    let offered = end.offered.max(1);

    let mut paced_snapshots: Vec<&TelemetrySnapshot> = t.paced.end.telemetry.iter().collect();
    paced_snapshots.extend(t.cut.and_then(|(_, paced)| paced.down_telemetry.as_ref()));
    let [buffer_wait, transport, schedule_delay, execution] = merged_stages(&paced_snapshots);

    // Counters summed over the whole traced job, normalised by everything
    // it was offered.
    let processors: Vec<_> = end.metrics.operators.values().filter(|m| m.packets_in > 0).collect();
    let (packets_in, frames_in, executions): (u64, u64, u64) = processors
        .iter()
        .fold((0, 0, 0), |a, m| (a.0 + m.packets_in, a.1 + m.frames_in, a.2 + m.executions));
    let links: Vec<_> = match t.cut {
        Some((saturated, _)) => end.links.iter().chain(&saturated.egress_links).copied().collect(),
        None => end.links.clone(),
    };
    let sum = |f: fn(&neptune_link::LinkStatsSnapshot) -> u64| links.iter().map(f).sum::<u64>();
    let first_hop: Vec<_> =
        end.links.iter().filter(|l| ChannelId::from_raw(l.link_id).link() == 0).collect();
    let first_hop_payload = first_hop.iter().map(|l| l.packets).sum::<u64>() as f64
        * (t.probes.mean_packet_bytes + 4.0);
    let first_hop_wire = first_hop.iter().map(|l| l.wire_bytes).sum::<u64>() as f64;

    let pool = end.metrics.buffer_pool;
    let (tm_a, tm_b) = sat.thread_model;
    let checkpoints = end.checkpoints.as_ref();
    let keyed: Vec<f64> = end.keyed_instances.iter().map(|&c| c as f64).collect();
    let keyed_mean = keyed.iter().sum::<f64>() / keyed.len().max(1) as f64;
    let cut_saturated = t.cut.map(|(saturated, _)| saturated);

    let x = crossings(workload.kind);
    let p = |name| t.probes.get(name);
    let kb_per_packet = (t.probes.mean_packet_bytes + 4.0) / 1024.0;
    let compressing = workload.compression() != CompressionMode::Disabled;
    let compresses = compressing && p("compress.wire_ratio") < 1.0;
    let frames_per_packet = frames_in as f64 / offered as f64;
    let explained_ns = p("data.generate_ns_per_packet")
        + x.encode * p("core.codec.encode_ns_per_packet")
        + x.decode * p("core.codec.decode_ns_per_packet")
        + x.route * p("core.partition.route_ns_per_packet")
        + x.buffer_push * p("net.buffer.push_ns_per_packet")
        + x.framed_hops
            * (p("net.frame.encode_ns_per_packet") + p("net.frame.decode_ns_per_packet"))
        + x.framed_hops
            * kb_per_packet
            * if compressing { p("compress.decide_ns_per_kb") } else { 0.0 }
        + x.framed_hops
            * kb_per_packet
            * if compresses {
                p("compress.encode_ns_per_kb") + p("compress.decode_ns_per_kb")
            } else {
                0.0
            }
        + x.window_observe * p("core.window.observe_ns_per_packet")
        + executions as f64 / offered as f64 * p("granules.dispatch_ns_per_task")
        + frames_per_packet * p("net.watermark.push_pop_ns_per_frame");

    let mut out: Vec<(&'static str, f64)> = vec![
        ("core.channel.buffer_wait_p50_us", buffer_wait.p50() as f64),
        ("core.channel.buffer_wait_p99_us", buffer_wait.p99() as f64),
        ("link.transport_p50_us", transport.p50() as f64),
        ("link.transport_p99_us", transport.p99() as f64),
        ("granules.schedule_delay_p50_us", schedule_delay.p50() as f64),
        ("granules.schedule_delay_p99_us", schedule_delay.p99() as f64),
        ("core.operator.execution_p50_us", execution.p50() as f64),
        ("core.operator.execution_p99_us", execution.p99() as f64),
        ("gen.late_p99_ms", t.paced.gen_late_p99_ms),
        ("core.operator.packets_per_execution", packets_in as f64 / executions.max(1) as f64),
        ("granules.executions_per_kpacket", per_k(executions, offered)),
        ("net.frame.packets_per_frame", packets_in as f64 / frames_in.max(1) as f64),
        ("link.flushes_per_kpacket", per_k(sum(|l| l.flushes), offered)),
        (
            "link.wire_bytes_per_packet",
            sum(|l| l.wire_bytes) as f64 / sum(|l| l.packets).max(1) as f64,
        ),
        ("link.wire_overhead_ratio", first_hop_wire / first_hop_payload.max(1.0)),
        ("net.pool.hit_rate", pool.hit_rate()),
        ("net.pool.misses_per_kpacket", per_k(pool.misses, offered)),
        ("net.pool.discards_per_kpacket", per_k(pool.discards, offered)),
        ("alloc.allocs_per_packet", sat.allocs.0 as f64 / packets as f64),
        ("alloc.bytes_per_packet", sat.allocs.1 as f64 / packets as f64),
        ("granules.io_polls_per_kpacket", per_k(tm_b.io_polls - tm_a.io_polls, packets)),
        ("granules.io_parks_per_kpacket", per_k(tm_b.io_parks - tm_a.io_parks, packets)),
        ("granules.io_wakes_per_kpacket", per_k(tm_b.io_wakes - tm_a.io_wakes, packets)),
        ("granules.timer_fires_per_s", (tm_b.timer_fires - tm_a.timer_fires) as f64 / sat.window_s),
        ("os.ctx_switches_vol_per_kpacket", per_k(sat.ctx_switches.0, packets)),
        ("os.ctx_switches_nonvol_per_kpacket", per_k(sat.ctx_switches.1, packets)),
        ("os.rss_paced_mb", t.paced.rss_mb),
        ("os.peak_rss_mb", crate::procfs::self_peak_rss_mib()),
        (
            "net.tcp.readiness_events_per_kpacket",
            per_k(tm_b.net_readiness_events - tm_a.net_readiness_events, packets),
        ),
        ("net.tcp.rearms_per_kpacket", per_k(tm_b.net_rearms - tm_a.net_rearms, packets)),
        (
            "net.tcp.connections",
            tm_b.net_connections as f64
                + cut_saturated.map_or(0.0, |c| c.egress_links.len() as f64),
        ),
        ("net.watermark.gate_events_per_s", sat.gate_events as f64 / sat.window_s),
        ("net.watermark.fill_mean_max", sat.fill_mean_max),
        ("net.watermark.shed_total", end.metrics.containment.shed_total as f64),
        ("core.checkpoint.completed", checkpoints.map_or(0.0, |c| c.completed as f64)),
        ("core.checkpoint.abandoned", checkpoints.map_or(0.0, |c| c.abandoned as f64)),
        (
            "core.checkpoint.duration_p50_ms",
            checkpoints.map_or(0.0, |c| c.duration_micros.p50() as f64 / 1000.0),
        ),
        (
            "core.checkpoint.duration_p99_ms",
            checkpoints.map_or(0.0, |c| c.duration_micros.p99() as f64 / 1000.0),
        ),
        ("core.checkpoint.size_bytes_p50", checkpoints.map_or(0.0, |c| c.size_bytes.p50() as f64)),
        (
            "core.partition.skew",
            if keyed_mean > 0.0 {
                keyed.iter().copied().fold(0.0, f64::max) / keyed_mean
            } else {
                0.0
            },
        ),
        ("link.acks_per_kpacket", per_k(sum(|l| l.acks), offered)),
        ("link.replayed", sum(|l| l.replayed) as f64),
        ("link.dedup_drops", sum(|l| l.dedup_drops) as f64),
        (
            "cluster.dataplane.frames_in_per_kpacket",
            cut_saturated.map_or(0.0, |c| per_k(c.down_plane.frames_in, offered)),
        ),
        (
            "cluster.dataplane.dup_frames",
            cut_saturated.map_or(0.0, |c| c.down_plane.dup_frames as f64),
        ),
        ("cluster.dataplane.cut_edges", cut_saturated.map_or(0.0, |c| c.egress_links.len() as f64)),
        ("lifecycle.drain_ms", end.drain_ms),
        ("granules.single_thread_pps", t.single_thread_pps),
        ("telemetry.overhead_ratio", 1.0 - sat.throughput_pps / t.untraced.throughput_pps.max(1.0)),
    ];
    out.extend(t.probes.values.iter().copied());
    out.push((
        "ledger.explained_fraction",
        explained_ns / (t.untraced.cpu_us_per_packet * 1000.0).max(1.0),
    ));
    debug_assert!(out.iter().map(|(n, _)| n).eq(PER_LAYER.iter().map(|(n, _)| n)));
    out
}
