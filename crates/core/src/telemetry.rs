//! Job-level telemetry: per-operator latency recorders, queue gauges, the
//! background time-series sampler, and exportable snapshots.
//!
//! The paper evaluates NEPTUNE on throughput, latency, and bandwidth
//! (§IV); this module is the machinery that makes the latency side
//! observable on a live job instead of only in offline benchmark math.
//! Every operator gets an [`OperatorTelemetry`] recorder with five
//! log-bucketed histograms: end-to-end latency (source timestamp →
//! processing, Fig. 2) plus a four-stage breakdown of where that time
//! went —
//!
//! * `buffer_wait` — enqueue → flush inside the sender's `OutputBuffer`
//!   (the §III-B1 buffering/flush-timer trade-off, measured directly),
//! * `transport`  — flush → arrival on the receiving watermark queue,
//! * `schedule_delay` — arrival → the Granules task actually running
//!   (§III-B2 batched scheduling's cost side),
//! * `execution` — one scheduled drain of the inbound queue.
//!
//! Recording is wired in only when [`crate::config::TelemetryConfig`]
//! enables it; a disabled job takes zero extra clock reads on the hot
//! path. Snapshots render as pretty text, JSON (via the repo's own
//! [`crate::json`]), and Prometheus text exposition.

use crate::checkpoint::CheckpointStats;
use crate::dead_letter::DeadLetter;
use crate::json::{object, JsonValue};
use crate::metrics::JobMetrics;
use neptune_link::LinkStatsSnapshot;
use neptune_net::frame::Frame;
use neptune_net::watermark::WatermarkQueue;
use neptune_telemetry::export;
use neptune_telemetry::{
    Exporter, FieldDef, HistogramSnapshot, OperatorTelemetry, OperatorTelemetrySnapshot,
    PrettyExporter, PrometheusExporter,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// JSON renderer for schema walks over the repo's own [`JsonValue`].
/// Groups sharing a `json_key` merge into one object; fields with an
/// empty `json_key` are dropped, mirroring the other exporters.
#[derive(Debug, Default)]
struct JsonExporter {
    objects: Vec<(String, BTreeMap<String, JsonValue>)>,
    current: usize,
}

impl JsonExporter {
    fn new() -> Self {
        Self::default()
    }

    /// `(json_key, object)` pairs in first-seen group order.
    fn finish(self) -> Vec<(String, JsonValue)> {
        self.objects.into_iter().map(|(k, m)| (k, JsonValue::Object(m))).collect()
    }

    /// The lone object produced by a single-group walk.
    fn into_single(self) -> JsonValue {
        self.finish()
            .into_iter()
            .next()
            .map(|(_, v)| v)
            .unwrap_or_else(|| JsonValue::Object(BTreeMap::new()))
    }
}

impl Exporter for JsonExporter {
    fn begin_group(&mut self, _pretty_label: &str, json_key: &str, _labels: &[(&str, &str)]) {
        self.current = match self.objects.iter().position(|(k, _)| k == json_key) {
            Some(i) => i,
            None => {
                self.objects.push((json_key.to_string(), BTreeMap::new()));
                self.objects.len() - 1
            }
        };
    }

    fn field(&mut self, def: &FieldDef, value: u64) {
        if !def.json_key.is_empty() {
            self.objects[self.current]
                .1
                .insert(def.json_key.to_string(), JsonValue::Number(value as f64));
        }
    }

    fn end_group(&mut self) {}
}

/// Named view of one inbound watermark queue, replacing the old
/// `(usize, usize, u64)` gauge tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueGauge {
    /// Frames currently buffered.
    pub depth: usize,
    /// Wire bytes currently buffered.
    pub depth_bytes: usize,
    /// High watermark in bytes — the level at which the gate closes and
    /// backpressure engages (§III-B4).
    pub capacity: usize,
    /// Times the backpressure gate has engaged so far.
    pub gate_events: u64,
    /// Items sacrificed by the queue's shed policy (0 under the default
    /// lossless [`neptune_net::watermark::ShedPolicy::None`]).
    pub shed_total: u64,
    /// Bytes sacrificed by the queue's shed policy.
    pub shed_bytes: u64,
}

impl QueueGauge {
    /// Read the current gauges off a live queue.
    pub fn observe(q: &WatermarkQueue<Frame>) -> QueueGauge {
        QueueGauge {
            depth: q.len(),
            depth_bytes: q.level(),
            capacity: q.config().high,
            gate_events: q.gate_events(),
            shed_total: q.shed_total(),
            shed_bytes: q.shed_bytes(),
        }
    }

    /// Fill fraction relative to the high watermark (may exceed 1.0
    /// briefly: the gate closes *after* the push that crosses it).
    pub fn saturation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.depth_bytes as f64 / self.capacity as f64
        }
    }
}

/// Registry of per-operator latency recorders, shared between the runtime
/// internals (which record) and [`TelemetrySnapshot`] (which reads).
///
/// Mirrors [`crate::metrics::MetricsRegistry`]: one recorder per operator
/// name, all instances of the operator aggregate into it.
#[derive(Debug, Default)]
pub struct TelemetryHub {
    operators: parking_lot::RwLock<BTreeMap<String, Arc<OperatorTelemetry>>>,
}

impl TelemetryHub {
    /// New, empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorder for `operator`, created on first use.
    pub fn for_operator(&self, operator: &str) -> Arc<OperatorTelemetry> {
        if let Some(t) = self.operators.read().get(operator) {
            return t.clone();
        }
        self.operators
            .write()
            .entry(operator.to_string())
            .or_insert_with(|| Arc::new(OperatorTelemetry::new()))
            .clone()
    }

    /// Snapshot every operator's histograms.
    pub fn snapshot(&self) -> BTreeMap<String, OperatorTelemetrySnapshot> {
        self.operators.read().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }
}

/// One tick of the background sampler: counters plus queue gauges, cheap
/// enough to take every `sample_interval` without disturbing the job.
#[derive(Debug, Clone)]
pub struct TelemetrySample {
    /// Counter snapshot at this tick.
    pub metrics: JobMetrics,
    /// Queue gauges at this tick, in deployment order.
    pub queues: Vec<QueueGauge>,
}

impl TelemetrySample {
    /// Gate events summed over every queue at this tick.
    pub fn total_gate_events(&self) -> u64 {
        self.queues.iter().map(|q| q.gate_events).sum()
    }

    /// Buffered bytes summed over every queue at this tick.
    pub fn total_queued_bytes(&self) -> usize {
        self.queues.iter().map(|q| q.depth_bytes).sum()
    }
}

/// Full exportable telemetry state of one job at one instant: per-operator
/// latency histograms, live counters and gauges, and the sampler's time
/// series.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// The job's graph name.
    pub graph_name: String,
    /// Per-operator latency histograms (e2e + four stages).
    pub operators: BTreeMap<String, OperatorTelemetrySnapshot>,
    /// Counter snapshot at capture time.
    pub metrics: JobMetrics,
    /// Queue gauges at capture time, in deployment order.
    pub queues: Vec<QueueGauge>,
    /// `(elapsed_micros, sample)` pairs from the background sampler, in
    /// chronological order; elapsed is measured from sampler start.
    pub series: Vec<(u64, TelemetrySample)>,
    /// Per-link stats bundles from the link stack: flush/packet/byte
    /// counters, reliability counters, and the current flush-policy knobs
    /// — in deployment order. Empty on snapshots that predate the links
    /// (tests, external builders).
    pub links: Vec<LinkStatsSnapshot>,
    /// Quarantined poison batches (ISSUE 5), oldest first; empty when
    /// containment is disabled or nothing has been quarantined. Exports
    /// render provenance and panic messages but never the raw bytes.
    pub dead_letters: Vec<DeadLetter>,
    /// Aligned-snapshot coordinator counters and histograms (ISSUE 10);
    /// `None` when checkpointing is disabled in the runtime config.
    pub checkpoints: Option<CheckpointStats>,
}

fn histogram_json(snap: &HistogramSnapshot) -> JsonValue {
    object([
        ("count", JsonValue::Number(snap.count() as f64)),
        ("sum_micros", JsonValue::Number(snap.sum() as f64)),
        ("max_micros", JsonValue::Number(snap.max() as f64)),
        ("p50_micros", JsonValue::Number(snap.p50() as f64)),
        ("p95_micros", JsonValue::Number(snap.p95() as f64)),
        ("p99_micros", JsonValue::Number(snap.p99() as f64)),
        ("mean_micros", JsonValue::Number(snap.mean())),
    ])
}

fn queue_json(q: &QueueGauge) -> JsonValue {
    object([
        ("depth", JsonValue::Number(q.depth as f64)),
        ("depth_bytes", JsonValue::Number(q.depth_bytes as f64)),
        ("capacity", JsonValue::Number(q.capacity as f64)),
        ("gate_events", JsonValue::Number(q.gate_events as f64)),
        ("shed_total", JsonValue::Number(q.shed_total as f64)),
        ("shed_bytes", JsonValue::Number(q.shed_bytes as f64)),
    ])
}

fn dead_letter_json(d: &DeadLetter) -> JsonValue {
    object([
        ("operator", JsonValue::String(d.operator.clone())),
        ("instance", JsonValue::Number(d.instance as f64)),
        ("link_id", JsonValue::Number(d.link_id as f64)),
        ("base_seq", JsonValue::Number(d.base_seq as f64)),
        ("messages", JsonValue::Number(d.messages as f64)),
        ("attempts", JsonValue::Number(d.attempts as f64)),
        ("panic_msg", JsonValue::String(d.panic_msg.clone())),
        ("captured_bytes", JsonValue::Number(d.bytes.len() as f64)),
        ("original_len", JsonValue::Number(d.original_len as f64)),
    ])
}

fn link_json(l: &LinkStatsSnapshot) -> JsonValue {
    object([
        ("link_id", JsonValue::Number(l.link_id as f64)),
        ("flushes", JsonValue::Number(l.flushes as f64)),
        ("packets", JsonValue::Number(l.packets as f64)),
        ("wire_bytes", JsonValue::Number(l.wire_bytes as f64)),
        ("traced", JsonValue::Number(l.traced as f64)),
        ("replayed", JsonValue::Number(l.replayed as f64)),
        ("acks", JsonValue::Number(l.acks as f64)),
        ("dedup_drops", JsonValue::Number(l.dedup_drops as f64)),
        ("flush_batch_bytes", JsonValue::Number(l.flush.batch_bytes as f64)),
        ("flush_max_delay_micros", JsonValue::Number(l.flush.max_delay_micros as f64)),
        ("flush_batch_messages", JsonValue::Number(l.flush.batch_messages as f64)),
    ])
}

fn checkpoint_json(c: &CheckpointStats) -> JsonValue {
    object([
        ("completed", JsonValue::Number(c.completed as f64)),
        ("abandoned", JsonValue::Number(c.abandoned as f64)),
        ("store_failures", JsonValue::Number(c.store_failures as f64)),
        ("in_flight", JsonValue::Number(c.in_flight as f64)),
        ("last_completed_id", JsonValue::Number(c.last_completed_id.unwrap_or(0) as f64)),
        ("last_age_micros", JsonValue::Number(c.last_age_micros.unwrap_or(0) as f64)),
        ("duration", histogram_json(&c.duration_micros)),
        ("size_bytes", histogram_json(&c.size_bytes)),
    ])
}

fn metrics_json(m: &JobMetrics) -> JsonValue {
    let operators = JsonValue::Object(
        m.operators
            .iter()
            .map(|(name, om)| {
                let mut e = JsonExporter::new();
                om.walk(&mut e, name);
                (name.clone(), e.into_single())
            })
            .collect(),
    );
    // Buffer-pool gauges carry derived ratios elsewhere and stay
    // hand-rolled; everything scalar walks the shared schema.
    let pool = object([
        ("hits", JsonValue::Number(m.buffer_pool.hits as f64)),
        ("misses", JsonValue::Number(m.buffer_pool.misses as f64)),
        ("returns", JsonValue::Number(m.buffer_pool.returns as f64)),
        ("discards", JsonValue::Number(m.buffer_pool.discards as f64)),
        ("bytes_reused", JsonValue::Number(m.buffer_pool.bytes_reused as f64)),
    ]);
    let mut walked = JsonExporter::new();
    m.thread_model.walk(&mut walked);
    m.containment.walk(&mut walked);
    let mut root: BTreeMap<String, JsonValue> =
        [("operators".to_string(), operators), ("buffer_pool".to_string(), pool)].into();
    root.extend(walked.finish());
    JsonValue::Object(root)
}

impl TelemetrySnapshot {
    /// Structured JSON document for programmatic consumers (bench bins
    /// dump this next to their tables).
    pub fn to_json_value(&self) -> JsonValue {
        let operators = JsonValue::Object(
            self.operators
                .iter()
                .map(|(name, op)| {
                    let stages = JsonValue::Object(
                        op.stages()
                            .iter()
                            .map(|(stage, snap)| (stage.to_string(), histogram_json(snap)))
                            .collect(),
                    );
                    (name.clone(), object([("e2e", histogram_json(&op.e2e)), ("stages", stages)]))
                })
                .collect(),
        );
        // The series serializes as per-tick aggregates — enough to plot a
        // Fig. 4 style oscillation without exploding the document.
        let series = JsonValue::Array(
            self.series
                .iter()
                .map(|(t, s)| {
                    object([
                        ("t_micros", JsonValue::Number(*t as f64)),
                        ("queued_bytes", JsonValue::Number(s.total_queued_bytes() as f64)),
                        ("gate_events", JsonValue::Number(s.total_gate_events() as f64)),
                        (
                            "source_packets",
                            JsonValue::Number(s.metrics.total_source_packets() as f64),
                        ),
                        ("bytes_out", JsonValue::Number(s.metrics.total_bytes_out() as f64)),
                    ])
                })
                .collect(),
        );
        let mut root = vec![
            ("graph", JsonValue::String(self.graph_name.clone())),
            ("operators", operators),
            ("metrics", metrics_json(&self.metrics)),
            ("queues", JsonValue::Array(self.queues.iter().map(queue_json).collect())),
            ("series", series),
        ];
        if !self.links.is_empty() {
            root.push(("links", JsonValue::Array(self.links.iter().map(link_json).collect())));
        }
        if !self.dead_letters.is_empty() {
            root.push((
                "dead_letters",
                JsonValue::Array(self.dead_letters.iter().map(dead_letter_json).collect()),
            ));
        }
        if let Some(c) = &self.checkpoints {
            root.push(("checkpoints", checkpoint_json(c)));
        }
        object(root)
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Human-readable multi-line report.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("telemetry: job '{}'\n", self.graph_name));
        for (name, op) in &self.operators {
            out.push_str(&format!("operator {name}\n"));
            out.push_str(&format!("  {}\n", export::pretty_line("e2e", &op.e2e)));
            for (stage, snap) in op.stages() {
                out.push_str(&format!("  {}\n", export::pretty_line(stage, snap)));
            }
        }
        for (i, q) in self.queues.iter().enumerate() {
            out.push_str(&format!(
                "queue {i}: depth={} bytes={}/{} ({:.0}%) gate_events={} shed={}/{}B\n",
                q.depth,
                q.depth_bytes,
                q.capacity,
                q.saturation() * 100.0,
                q.gate_events,
                q.shed_total,
                q.shed_bytes
            ));
        }
        for l in &self.links {
            out.push_str(&format!(
                "link {:#x}: flushes={} packets={} wire_bytes={} traced={} replayed={} \
                 acks={} dedup_drops={} flush={}B/{}µs/{}msg\n",
                l.link_id,
                l.flushes,
                l.packets,
                l.wire_bytes,
                l.traced,
                l.replayed,
                l.acks,
                l.dedup_drops,
                l.flush.batch_bytes,
                l.flush.max_delay_micros,
                l.flush.batch_messages
            ));
        }
        let pool = &self.metrics.buffer_pool;
        out.push_str(&format!(
            "pool: hits={} misses={} hit_rate={:.1}% bytes_reused={}\n",
            pool.hits,
            pool.misses,
            pool.hit_rate() * 100.0,
            pool.bytes_reused
        ));
        let mut walked = PrettyExporter::new();
        self.metrics.thread_model.walk(&mut walked);
        self.metrics.containment.walk(&mut walked);
        out.push_str(&walked.finish());
        for (i, d) in self.dead_letters.iter().enumerate() {
            out.push_str(&format!(
                "dead letter {i}: operator={} instance={} link={} seq={} msgs={} \
                 attempts={} bytes={}/{} panic=\"{}\"\n",
                d.operator,
                d.instance,
                d.link_id,
                d.base_seq,
                d.messages,
                d.attempts,
                d.bytes.len(),
                d.original_len,
                d.panic_msg
            ));
        }
        out.push_str(&format!("series: {} samples\n", self.series.len()));
        if let Some(c) = &self.checkpoints {
            out.push_str(&format!(
                "checkpoints: completed={} abandoned={} store_failures={} in_flight={} \
                 last_id={} age={}µs\n",
                c.completed,
                c.abandoned,
                c.store_failures,
                c.in_flight,
                c.last_completed_id.map(|id| id.to_string()).unwrap_or_else(|| "-".into()),
                c.last_age_micros.unwrap_or(0),
            ));
            out.push_str(&format!("  {}\n", export::pretty_line("duration", &c.duration_micros)));
            out.push_str(&format!("  {}\n", export::pretty_line("size_bytes", &c.size_bytes)));
        }
        out
    }

    /// Prometheus text-exposition document. Latency histograms export as
    /// `summary` metrics with precomputed quantiles; counters and gauges
    /// map directly. `# TYPE` headers are written once per metric, as the
    /// format requires, even when many operators share it.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        if !self.operators.is_empty() {
            out.push_str("# TYPE neptune_e2e_latency_micros summary\n");
            for (name, op) in &self.operators {
                export::summary_samples(
                    &mut out,
                    "neptune_e2e_latency_micros",
                    &[("operator", name)],
                    &op.e2e,
                );
            }
            out.push_str("# TYPE neptune_e2e_latency_micros_max gauge\n");
            for (name, op) in &self.operators {
                export::sample_line(
                    &mut out,
                    "neptune_e2e_latency_micros_max",
                    &[("operator", name)],
                    op.e2e.max(),
                );
            }
            out.push_str("# TYPE neptune_stage_latency_micros summary\n");
            for (name, op) in &self.operators {
                for (stage, snap) in op.stages() {
                    export::summary_samples(
                        &mut out,
                        "neptune_stage_latency_micros",
                        &[("operator", name), ("stage", stage)],
                        snap,
                    );
                }
            }
        }
        if !self.queues.is_empty() {
            out.push_str("# TYPE neptune_queue_depth_frames gauge\n");
            for (i, q) in self.queues.iter().enumerate() {
                let idx = i.to_string();
                export::sample_line(
                    &mut out,
                    "neptune_queue_depth_frames",
                    &[("queue", &idx)],
                    q.depth as u64,
                );
            }
            out.push_str("# TYPE neptune_queue_depth_bytes gauge\n");
            for (i, q) in self.queues.iter().enumerate() {
                let idx = i.to_string();
                export::sample_line(
                    &mut out,
                    "neptune_queue_depth_bytes",
                    &[("queue", &idx)],
                    q.depth_bytes as u64,
                );
            }
            out.push_str("# TYPE neptune_gate_events_total counter\n");
            for (i, q) in self.queues.iter().enumerate() {
                let idx = i.to_string();
                export::sample_line(
                    &mut out,
                    "neptune_gate_events_total",
                    &[("queue", &idx)],
                    q.gate_events,
                );
            }
            out.push_str("# TYPE neptune_queue_shed_total counter\n");
            for (i, q) in self.queues.iter().enumerate() {
                let idx = i.to_string();
                export::sample_line(
                    &mut out,
                    "neptune_queue_shed_total",
                    &[("queue", &idx)],
                    q.shed_total,
                );
            }
            out.push_str("# TYPE neptune_queue_shed_bytes_total counter\n");
            for (i, q) in self.queues.iter().enumerate() {
                let idx = i.to_string();
                export::sample_line(
                    &mut out,
                    "neptune_queue_shed_bytes_total",
                    &[("queue", &idx)],
                    q.shed_bytes,
                );
            }
        }
        if !self.links.is_empty() {
            type LinkMetric = (&'static str, fn(&LinkStatsSnapshot) -> u64);
            let link_counters: [LinkMetric; 6] = [
                ("neptune_link_flushes_total", |l| l.flushes),
                ("neptune_link_packets_total", |l| l.packets),
                ("neptune_link_wire_bytes_total", |l| l.wire_bytes),
                ("neptune_link_traced_total", |l| l.traced),
                ("neptune_link_replayed_total", |l| l.replayed),
                ("neptune_link_dedup_drops_total", |l| l.dedup_drops),
            ];
            for (metric, get) in link_counters {
                out.push_str(&format!("# TYPE {metric} counter\n"));
                for l in &self.links {
                    let id = format!("{:#x}", l.link_id);
                    export::sample_line(&mut out, metric, &[("link", &id)], get(l));
                }
            }
            let link_gauges: [LinkMetric; 3] = [
                ("neptune_link_flush_batch_bytes", |l| l.flush.batch_bytes as u64),
                ("neptune_link_flush_max_delay_micros", |l| l.flush.max_delay_micros),
                ("neptune_link_flush_batch_messages", |l| l.flush.batch_messages as u64),
            ];
            for (metric, get) in link_gauges {
                out.push_str(&format!("# TYPE {metric} gauge\n"));
                for l in &self.links {
                    let id = format!("{:#x}", l.link_id);
                    export::sample_line(&mut out, metric, &[("link", &id)], get(l));
                }
            }
        }
        let mut walked = PrometheusExporter::new();
        for (name, om) in &self.metrics.operators {
            om.walk(&mut walked, name);
        }
        self.metrics.thread_model.walk(&mut walked);
        self.metrics.containment.walk(&mut walked);
        out.push_str(&walked.finish());
        let pool = &self.metrics.buffer_pool;
        export::prometheus_counter(&mut out, "neptune_pool_hits_total", &[], pool.hits);
        export::prometheus_counter(&mut out, "neptune_pool_misses_total", &[], pool.misses);
        export::prometheus_counter(
            &mut out,
            "neptune_pool_bytes_reused_total",
            &[],
            pool.bytes_reused,
        );
        if let Some(c) = &self.checkpoints {
            export::prometheus_counter(
                &mut out,
                "neptune_checkpoint_completed_total",
                &[],
                c.completed,
            );
            export::prometheus_counter(
                &mut out,
                "neptune_checkpoint_abandoned_total",
                &[],
                c.abandoned,
            );
            export::prometheus_counter(
                &mut out,
                "neptune_checkpoint_store_failures_total",
                &[],
                c.store_failures,
            );
            out.push_str("# TYPE neptune_checkpoint_in_flight gauge\n");
            export::sample_line(&mut out, "neptune_checkpoint_in_flight", &[], c.in_flight);
            out.push_str("# TYPE neptune_checkpoint_last_completed_id gauge\n");
            export::sample_line(
                &mut out,
                "neptune_checkpoint_last_completed_id",
                &[],
                c.last_completed_id.unwrap_or(0),
            );
            out.push_str("# TYPE neptune_checkpoint_last_age_micros gauge\n");
            export::sample_line(
                &mut out,
                "neptune_checkpoint_last_age_micros",
                &[],
                c.last_age_micros.unwrap_or(0),
            );
            out.push_str("# TYPE neptune_checkpoint_duration_micros summary\n");
            export::summary_samples(
                &mut out,
                "neptune_checkpoint_duration_micros",
                &[],
                &c.duration_micros,
            );
            out.push_str("# TYPE neptune_checkpoint_size_bytes summary\n");
            export::summary_samples(&mut out, "neptune_checkpoint_size_bytes", &[], &c.size_bytes);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let hub = TelemetryHub::new();
        let relay = hub.for_operator("relay");
        for v in [150u64, 900, 42_000] {
            relay.e2e.record(v);
            relay.buffer_wait.record(v / 2);
            relay.transport.record(v / 8);
            relay.schedule_delay.record(v / 16);
            relay.execution.record(v / 4);
        }
        let registry = MetricsRegistry::new();
        registry.for_operator("relay").packets_in.store(3, std::sync::atomic::Ordering::Relaxed);
        let metrics = registry.snapshot();
        let queues = vec![QueueGauge {
            depth: 2,
            depth_bytes: 512,
            capacity: 4096,
            gate_events: 7,
            shed_total: 0,
            shed_bytes: 0,
        }];
        let sample = TelemetrySample { metrics: metrics.clone(), queues: queues.clone() };
        TelemetrySnapshot {
            graph_name: "demo".into(),
            operators: hub.snapshot(),
            metrics,
            queues,
            series: vec![(0, sample.clone()), (100_000, sample)],
            links: Vec::new(),
            dead_letters: Vec::new(),
            checkpoints: None,
        }
    }

    fn with_links(mut snap: TelemetrySnapshot) -> TelemetrySnapshot {
        snap.links.push(LinkStatsSnapshot {
            link_id: 0x10000,
            flushes: 12,
            packets: 48,
            wire_bytes: 4096,
            traced: 3,
            replayed: 2,
            acks: 5,
            dedup_drops: 1,
            flush: neptune_net::flush::FlushPolicySnapshot {
                batch_bytes: 32 << 10,
                max_delay_micros: 2_000,
                batch_messages: 0,
            },
        });
        snap
    }

    #[test]
    fn hub_shares_recorders_per_name() {
        let hub = TelemetryHub::new();
        let a = hub.for_operator("op");
        let b = hub.for_operator("op");
        assert!(Arc::ptr_eq(&a, &b));
        a.e2e.record(10);
        assert_eq!(hub.snapshot()["op"].e2e.count(), 1);
    }

    #[test]
    fn queue_gauge_saturation() {
        let g = QueueGauge { depth: 1, depth_bytes: 2048, capacity: 4096, ..Default::default() };
        assert!((g.saturation() - 0.5).abs() < 1e-9);
        assert_eq!(QueueGauge::default().saturation(), 0.0);
    }

    #[test]
    fn json_round_trips_through_own_parser() {
        let snap = sample_snapshot();
        let doc = crate::json::parse(&snap.to_json()).expect("self-produced JSON parses");
        assert_eq!(doc.get("graph").unwrap().as_str(), Some("demo"));
        let relay = doc.get("operators").unwrap().get("relay").unwrap();
        assert_eq!(relay.get("e2e").unwrap().get("count").unwrap().as_u64(), Some(3));
        let stages = relay.get("stages").unwrap().as_object().unwrap();
        assert_eq!(stages.len(), 4);
        assert!(stages.contains_key("buffer_wait"));
        assert_eq!(doc.get("series").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            doc.get("queues").unwrap().as_array().unwrap()[0].get("gate_events").unwrap().as_u64(),
            Some(7)
        );
    }

    #[test]
    fn prometheus_types_appear_once_per_metric() {
        let snap = sample_snapshot();
        let text = snap.render_prometheus();
        assert_eq!(text.matches("# TYPE neptune_e2e_latency_micros summary").count(), 1);
        assert_eq!(text.matches("# TYPE neptune_stage_latency_micros summary").count(), 1);
        assert!(text.contains(
            "neptune_stage_latency_micros{operator=\"relay\",stage=\"buffer_wait\",quantile=\"0.5\"}"
        ));
        assert!(text.contains("neptune_gate_events_total{queue=\"0\"} 7\n"));
        assert!(text.contains("neptune_packets_in_total{operator=\"relay\"} 3\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn containment_section_renders_in_all_formats() {
        let mut snap = sample_snapshot();
        snap.metrics.containment = crate::metrics::ContainmentStats {
            worker_panics: 1,
            panics: 9,
            retries: 6,
            quarantined: 3,
            breaker_trips: 1,
            breaker_dropped: 4,
            dead_letters: 2,
            dead_letters_evicted: 1,
            shed_total: 11,
            shed_bytes: 2048,
        };
        snap.dead_letters.push(crate::dead_letter::DeadLetter {
            operator: "relay".into(),
            instance: 0,
            link_id: 3,
            base_seq: 40,
            messages: 8,
            panic_msg: "poison value".into(),
            attempts: 3,
            bytes: vec![0xEE; 16],
            original_len: 64,
        });

        let doc = crate::json::parse(&snap.to_json()).unwrap();
        let c = doc.get("metrics").unwrap().get("containment").expect("containment object");
        assert_eq!(c.get("worker_panics").unwrap().as_u64(), Some(1));
        assert_eq!(c.get("quarantined").unwrap().as_u64(), Some(3));
        assert_eq!(c.get("shed_total").unwrap().as_u64(), Some(11));
        let dl = doc.get("dead_letters").unwrap().as_array().unwrap();
        assert_eq!(dl[0].get("panic_msg").unwrap().as_str(), Some("poison value"));
        assert_eq!(dl[0].get("captured_bytes").unwrap().as_u64(), Some(16));
        assert_eq!(dl[0].get("original_len").unwrap().as_u64(), Some(64));

        let text = snap.render_prometheus();
        assert!(text.contains("neptune_worker_panics_total 1\n"));
        assert!(text.contains("neptune_containment_quarantined_total 3\n"));
        assert!(text.contains("neptune_containment_breaker_trips_total 1\n"));
        assert!(text.contains("neptune_shed_total 11\n"));
        assert!(text.contains("neptune_dead_letters 2\n"));
        assert!(text.contains("neptune_queue_shed_total{queue=\"0\"} 0\n"));
        assert!(text.contains("neptune_operator_panics_total{operator=\"relay\"}"));

        let pretty = snap.render_pretty();
        assert!(pretty.contains("containment: worker_panics=1 panics=9"));
        assert!(pretty.contains("dead letter 0: operator=relay"));
        assert!(pretty.contains("panic=\"poison value\""));

        // No root dead-letter array in JSON when nothing is quarantined
        // (the containment counter object still carries the gauge).
        let plain = crate::json::parse(&sample_snapshot().to_json()).unwrap();
        assert!(plain.get("dead_letters").is_none());
    }

    #[test]
    fn link_section_renders_in_all_formats() {
        let plain = sample_snapshot();
        assert!(!plain.to_json().contains("\"links\""), "no section without links");
        assert!(!plain.render_prometheus().contains("neptune_link_"));

        let snap = with_links(sample_snapshot());
        let doc = crate::json::parse(&snap.to_json()).unwrap();
        let links = doc.get("links").expect("links array present").as_array().unwrap();
        assert_eq!(links[0].get("flushes").unwrap().as_u64(), Some(12));
        assert_eq!(links[0].get("replayed").unwrap().as_u64(), Some(2));
        assert_eq!(links[0].get("dedup_drops").unwrap().as_u64(), Some(1));
        assert_eq!(links[0].get("flush_batch_bytes").unwrap().as_u64(), Some(32 << 10));
        assert_eq!(links[0].get("flush_max_delay_micros").unwrap().as_u64(), Some(2_000));

        let text = snap.render_prometheus();
        assert!(text.contains("neptune_link_flushes_total{link=\"0x10000\"} 12\n"));
        assert!(text.contains("neptune_link_wire_bytes_total{link=\"0x10000\"} 4096\n"));
        assert!(text.contains("neptune_link_replayed_total{link=\"0x10000\"} 2\n"));
        assert!(text.contains("neptune_link_flush_batch_bytes{link=\"0x10000\"} 32768\n"));
        assert_eq!(text.matches("# TYPE neptune_link_flushes_total counter").count(), 1);

        let pretty = snap.render_pretty();
        assert!(pretty.contains("link 0x10000: flushes=12 packets=48"));
        assert!(pretty.contains("flush=32768B/2000µs/0msg"));
    }

    #[test]
    fn checkpoint_section_renders_in_all_formats() {
        let plain = sample_snapshot();
        assert!(!plain.to_json().contains("\"checkpoints\""), "no section when checkpointing off");
        assert!(!plain.render_prometheus().contains("neptune_checkpoint_"));
        assert!(!plain.render_pretty().contains("checkpoints:"));

        let mut snap = sample_snapshot();
        let duration = {
            let h = neptune_telemetry::LatencyHistogram::new();
            h.record(250);
            h.record(900);
            h.snapshot()
        };
        let size = {
            let h = neptune_telemetry::LatencyHistogram::new();
            h.record(4096);
            h.record(8192);
            h.snapshot()
        };
        snap.checkpoints = Some(CheckpointStats {
            completed: 5,
            abandoned: 1,
            store_failures: 0,
            in_flight: 1,
            last_completed_id: Some(5),
            last_age_micros: Some(42_000),
            duration_micros: duration,
            size_bytes: size,
        });

        let doc = crate::json::parse(&snap.to_json()).unwrap();
        let c = doc.get("checkpoints").expect("checkpoints object present");
        assert_eq!(c.get("completed").unwrap().as_u64(), Some(5));
        assert_eq!(c.get("abandoned").unwrap().as_u64(), Some(1));
        assert_eq!(c.get("last_completed_id").unwrap().as_u64(), Some(5));
        assert_eq!(c.get("duration").unwrap().get("count").unwrap().as_u64(), Some(2));
        assert_eq!(c.get("size_bytes").unwrap().get("count").unwrap().as_u64(), Some(2));

        let text = snap.render_prometheus();
        assert!(text.contains("neptune_checkpoint_completed_total 5\n"));
        assert!(text.contains("neptune_checkpoint_abandoned_total 1\n"));
        assert!(text.contains("neptune_checkpoint_store_failures_total 0\n"));
        assert!(text.contains("neptune_checkpoint_in_flight 1\n"));
        assert!(text.contains("neptune_checkpoint_last_completed_id 5\n"));
        assert!(text.contains("neptune_checkpoint_last_age_micros 42000\n"));
        assert_eq!(text.matches("# TYPE neptune_checkpoint_duration_micros summary").count(), 1);
        assert_eq!(text.matches("# TYPE neptune_checkpoint_size_bytes summary").count(), 1);

        let pretty = snap.render_pretty();
        assert!(pretty.contains("checkpoints: completed=5 abandoned=1"));
        assert!(pretty.contains("last_id=5 age=42000µs"));
    }

    #[test]
    fn pretty_report_lists_operators_and_queues() {
        let text = sample_snapshot().render_pretty();
        assert!(text.contains("job 'demo'"));
        assert!(text.contains("operator relay"));
        assert!(text.contains("e2e"));
        assert!(text.contains("schedule_delay"));
        assert!(text.contains("queue 0:"));
        assert!(text.contains("series: 2 samples"));
    }
}
