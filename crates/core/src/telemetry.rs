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
//! path.
//!
//! # Exports
//!
//! A [`TelemetrySnapshot`] leaves the process as a JSON document (via the
//! repo's own [`crate::json`]) or as Prometheus text exposition, and both
//! are rendered from one schema: every section of the snapshot declares a
//! table of [`FieldDef`] rows (JSON key, Prometheus family, kind) and a
//! walk that feeds the rows to an [`Exporter`]. The tables for the
//! `metrics` section live beside their structs in [`crate::metrics`]; the
//! rest are below. Adding a number to both exports is one row; a row with
//! an empty string is in one export only, on purpose.

use crate::checkpoint::CheckpointStats;
use crate::dead_letter::DeadLetter;
use crate::json::{object, JsonValue};
use crate::metrics::JobMetrics;
use neptune_link::LinkStatsSnapshot;
use neptune_net::frame::Frame;
use neptune_net::watermark::WatermarkQueue;
use neptune_telemetry::exporter::{counter, gauge, summary};
use neptune_telemetry::{
    Exporter, FieldDef, HistogramSnapshot, OperatorTelemetry, OperatorTelemetrySnapshot,
    PrometheusExporter,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// JSON renderer for schema walks over the repo's own [`JsonValue`]: a
/// group's path names the object its fields land in, created on first
/// use; fields with an empty `json_key` are dropped.
#[derive(Debug, Default)]
struct JsonExporter {
    root: BTreeMap<String, JsonValue>,
    /// Keys from the root to the current group. A key that holds an
    /// array stands for the array's last element.
    path: Vec<String>,
}

impl JsonExporter {
    /// The object the current group's fields land in.
    fn current(&mut self) -> &mut BTreeMap<String, JsonValue> {
        let mut node = &mut self.root;
        for key in &self.path {
            let child =
                node.entry(key.clone()).or_insert_with(|| JsonValue::Object(BTreeMap::new()));
            node = match child {
                JsonValue::Object(fields) => fields,
                JsonValue::Array(items) => match items.last_mut() {
                    Some(JsonValue::Object(fields)) => fields,
                    _ => unreachable!("{key}: `item` appends objects only"),
                },
                _ => unreachable!("{key}: a field where a group path descends"),
            };
        }
        node
    }

    fn insert(&mut self, def: &FieldDef, value: JsonValue) {
        if !def.json_key.is_empty() {
            self.current().insert(def.json_key.to_string(), value);
        }
    }
}

impl Exporter for JsonExporter {
    fn group(&mut self, path: &[&str], _labels: &[(&str, &str)]) {
        self.path = path.iter().map(|key| key.to_string()).collect();
    }

    fn item(&mut self, path: &[&str], _labels: &[(&str, &str)]) {
        let (section, parent) = path.split_last().expect("a repeated section has a name");
        self.group(parent, &[]);
        let items = self.current().entry(section.to_string());
        match items.or_insert_with(|| JsonValue::Array(Vec::new())) {
            JsonValue::Array(items) => items.push(JsonValue::Object(BTreeMap::new())),
            _ => unreachable!("{section}: `item` on a section that is not repeated"),
        }
        self.path.push(section.to_string());
    }

    fn field(&mut self, def: &FieldDef, value: u64) {
        self.insert(def, JsonValue::Number(value as f64));
    }

    fn text(&mut self, def: &FieldDef, value: &str) {
        self.insert(def, JsonValue::String(value.to_string()));
    }

    fn histogram(&mut self, def: &FieldDef, snap: &HistogramSnapshot) {
        let number = |v: u64| JsonValue::Number(v as f64);
        self.insert(
            def,
            object([
                ("count", number(snap.count())),
                ("sum_micros", number(snap.sum())),
                ("max_micros", number(snap.max())),
                ("p50_micros", number(snap.p50())),
                ("p95_micros", number(snap.p95())),
                ("p99_micros", number(snap.p99())),
                ("mean_micros", JsonValue::Number(snap.mean())),
            ]),
        );
    }
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
    /// Times a producer blocked in a push at the closed gate so far.
    pub gate_events: u64,
    /// Times the gate closed so far — backpressure engaging (§III-B4),
    /// whether the producers it turned away blocked, parked their task or
    /// stopped reading their socket.
    pub gate_closures: u64,
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
            gate_closures: q.gate_closures(),
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

    /// `capacity` is configuration, not a reading: JSON-only.
    const FIELDS: [FieldDef; 7] = [
        gauge("depth", "neptune_queue_depth_frames"),
        gauge("depth_bytes", "neptune_queue_depth_bytes"),
        gauge("capacity", ""),
        counter("gate_events", "neptune_gate_events_total"),
        counter("gate_closures", "neptune_gate_closures_total"),
        counter("shed_total", "neptune_queue_shed_total"),
        counter("shed_bytes", "neptune_queue_shed_bytes_total"),
    ];

    /// Walk this queue's gauges into `exporter` as one element of
    /// `queues`, labelled with its deployment-order `index`.
    fn walk(&self, exporter: &mut dyn Exporter, index: usize) {
        exporter.item(&["queues"], &[("queue", &index.to_string())]);
        exporter.fields(
            &Self::FIELDS,
            &[
                self.depth as u64,
                self.depth_bytes as u64,
                self.capacity as u64,
                self.gate_events,
                self.gate_closures,
                self.shed_total,
                self.shed_bytes,
            ],
        );
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

/// The document's one root-level field. Strings have no Prometheus form.
const GRAPH: FieldDef = gauge("graph", "");

/// End-to-end latency is the one histogram whose maximum is also a
/// family of its own (the Fig. 2 bound is stated on the tail); in JSON
/// every histogram object carries its `max_micros`.
const E2E: FieldDef = summary("e2e", "neptune_e2e_latency_micros");
const E2E_MAX: FieldDef = gauge("", "neptune_e2e_latency_micros_max");

/// The four stages share one family: a stage's row is its name (the JSON
/// key, and the `stage` label that tells the samples apart) under this.
const STAGE_FAMILY: &str = "neptune_stage_latency_micros";

fn walk_operator(exporter: &mut dyn Exporter, name: &str, op: &OperatorTelemetrySnapshot) {
    exporter.group(&["operators", name], &[("operator", name)]);
    exporter.histogram(&E2E, &op.e2e);
    exporter.field(&E2E_MAX, op.e2e.max());
    for (stage, snap) in op.stages() {
        exporter.group(&["operators", name, "stages"], &[("operator", name), ("stage", stage)]);
        exporter.histogram(&summary(stage, STAGE_FAMILY), snap);
    }
}

/// `link_id` is the `link` label of every family below it.
const LINK_FIELDS: [FieldDef; 11] = [
    gauge("link_id", ""),
    counter("flushes", "neptune_link_flushes_total"),
    counter("packets", "neptune_link_packets_total"),
    counter("wire_bytes", "neptune_link_wire_bytes_total"),
    counter("traced", "neptune_link_traced_total"),
    counter("replayed", "neptune_link_replayed_total"),
    counter("acks", "neptune_link_acks_total"),
    counter("dedup_drops", "neptune_link_dedup_drops_total"),
    counter("sender_full", "neptune_link_sender_full_total"),
    gauge("flush_batch_bytes", "neptune_link_flush_batch_bytes"),
    gauge("flush_max_delay_micros", "neptune_link_flush_max_delay_micros"),
];

fn walk_link(exporter: &mut dyn Exporter, l: &LinkStatsSnapshot) {
    exporter.item(&["links"], &[("link", &format!("{:#x}", l.link_id))]);
    exporter.fields(
        &LINK_FIELDS,
        &[
            l.link_id,
            l.flushes,
            l.packets,
            l.wire_bytes,
            l.traced,
            l.replayed,
            l.acks,
            l.dedup_drops,
            l.sender_full,
            l.flush.batch_bytes as u64,
            l.flush.max_delay_micros,
        ],
    );
}

/// A dead letter is a record to read, not a series to plot: JSON-only,
/// strings included. `neptune_dead_letters` (containment) counts them.
const DEAD_LETTER_OPERATOR: FieldDef = gauge("operator", "");
const DEAD_LETTER_PANIC: FieldDef = gauge("panic_msg", "");
const DEAD_LETTER_FIELDS: [FieldDef; 7] = [
    gauge("instance", ""),
    gauge("link_id", ""),
    gauge("base_seq", ""),
    gauge("messages", ""),
    gauge("attempts", ""),
    gauge("captured_bytes", ""),
    gauge("original_len", ""),
];

fn walk_dead_letter(exporter: &mut dyn Exporter, d: &DeadLetter) {
    exporter.item(&["dead_letters"], &[]);
    exporter.text(&DEAD_LETTER_OPERATOR, &d.operator);
    exporter.text(&DEAD_LETTER_PANIC, &d.panic_msg);
    exporter.fields(
        &DEAD_LETTER_FIELDS,
        &[
            d.instance as u64,
            d.link_id,
            d.base_seq,
            d.messages as u64,
            d.attempts as u64,
            d.bytes.len() as u64,
            d.original_len as u64,
        ],
    );
}

const CHECKPOINT_FIELDS: [FieldDef; 6] = [
    counter("completed", "neptune_checkpoint_completed_total"),
    counter("abandoned", "neptune_checkpoint_abandoned_total"),
    counter("store_failures", "neptune_checkpoint_store_failures_total"),
    gauge("in_flight", "neptune_checkpoint_in_flight"),
    gauge("last_completed_id", "neptune_checkpoint_last_completed_id"),
    gauge("last_age_micros", "neptune_checkpoint_last_age_micros"),
];
const CHECKPOINT_DURATION: FieldDef = summary("duration", "neptune_checkpoint_duration_micros");
const CHECKPOINT_SIZE: FieldDef = summary("size_bytes", "neptune_checkpoint_size_bytes");

fn walk_checkpoints(exporter: &mut dyn Exporter, c: &CheckpointStats) {
    exporter.group(&["checkpoints"], &[]);
    exporter.fields(
        &CHECKPOINT_FIELDS,
        &[
            c.completed,
            c.abandoned,
            c.store_failures,
            c.in_flight,
            c.last_completed_id.unwrap_or(0),
            c.last_age_micros.unwrap_or(0),
        ],
    );
    exporter.histogram(&CHECKPOINT_DURATION, &c.duration_micros);
    exporter.histogram(&CHECKPOINT_SIZE, &c.size_bytes);
}

/// The series exports as per-tick aggregates — enough to plot a Fig. 4
/// style oscillation without exploding the document — and in JSON only:
/// a scraper builds its own time series from the live families.
const SERIES_FIELDS: [FieldDef; 5] = [
    gauge("t_micros", ""),
    gauge("queued_bytes", ""),
    counter("gate_events", ""),
    counter("source_packets", ""),
    counter("bytes_out", ""),
];

fn walk_tick(exporter: &mut dyn Exporter, t_micros: u64, s: &TelemetrySample) {
    exporter.item(&["series"], &[]);
    exporter.fields(
        &SERIES_FIELDS,
        &[
            t_micros,
            s.total_queued_bytes() as u64,
            s.total_gate_events(),
            s.metrics.total_source_packets(),
            s.metrics.total_bytes_out(),
        ],
    );
}

impl TelemetrySnapshot {
    /// Feed every section of the snapshot to `exporter`.
    fn walk(&self, exporter: &mut dyn Exporter) {
        exporter.group(&[], &[]);
        exporter.text(&GRAPH, &self.graph_name);
        for (name, op) in &self.operators {
            walk_operator(exporter, name, op);
        }
        self.metrics.walk(exporter);
        for (index, queue) in self.queues.iter().enumerate() {
            queue.walk(exporter, index);
        }
        for (t_micros, sample) in &self.series {
            walk_tick(exporter, *t_micros, sample);
        }
        for link in &self.links {
            walk_link(exporter, link);
        }
        for dead_letter in &self.dead_letters {
            walk_dead_letter(exporter, dead_letter);
        }
        if let Some(checkpoints) = &self.checkpoints {
            walk_checkpoints(exporter, checkpoints);
        }
    }

    /// Structured JSON document for programmatic consumers (bench bins
    /// dump this next to their tables; anything human-facing is a view
    /// over it).
    pub fn to_json_value(&self) -> JsonValue {
        let mut exporter = JsonExporter::default();
        // These two repeated sections are in the document even when
        // empty; `links` and `dead_letters` appear with their first
        // element, `checkpoints` when checkpointing is on.
        for section in ["queues", "series"] {
            exporter.root.insert(section.to_string(), JsonValue::Array(Vec::new()));
        }
        self.walk(&mut exporter);
        JsonValue::Object(exporter.root)
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Prometheus text-exposition document. Latency histograms export as
    /// `summary` families with precomputed quantiles; counters and gauges
    /// map directly. Each family's `# TYPE` header is written once, as
    /// the format requires, even when many operators share it.
    pub fn render_prometheus(&self) -> String {
        let mut exporter = PrometheusExporter::new();
        self.walk(&mut exporter);
        exporter.finish()
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
            gate_closures: 11,
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
            sender_full: 4,
            flush: neptune_net::flush::FlushPolicySnapshot {
                batch_bytes: 32 << 10,
                max_delay_micros: 2_000,
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
    fn containment_section_renders_in_both_formats() {
        let mut snap = sample_snapshot();
        snap.metrics.containment = crate::metrics::ContainmentStats {
            worker_panics: 1,
            io_task_panics: 5,
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
        assert!(text.contains("neptune_io_task_panics_total 5\n"));
        assert!(text.contains("neptune_containment_quarantined_total 3\n"));
        assert!(text.contains("neptune_containment_breaker_trips_total 1\n"));
        assert!(text.contains("neptune_shed_total 11\n"));
        assert!(text.contains("neptune_dead_letters 2\n"));
        assert!(text.contains("neptune_queue_shed_total{queue=\"0\"} 0\n"));
        assert!(text.contains("neptune_operator_panics_total{operator=\"relay\"}"));

        // No root dead-letter array in JSON when nothing is quarantined
        // (the containment counter object still carries the gauge).
        let plain = crate::json::parse(&sample_snapshot().to_json()).unwrap();
        assert!(plain.get("dead_letters").is_none());
    }

    #[test]
    fn link_section_renders_in_both_formats() {
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
        assert!(text.contains("neptune_link_acks_total{link=\"0x10000\"} 5\n"));
        assert!(text.contains("neptune_link_flush_batch_bytes{link=\"0x10000\"} 32768\n"));
        assert_eq!(text.matches("# TYPE neptune_link_flushes_total counter").count(), 1);
    }

    #[test]
    fn checkpoint_section_renders_in_both_formats() {
        let plain = sample_snapshot();
        assert!(!plain.to_json().contains("\"checkpoints\""), "no section when checkpointing off");
        assert!(!plain.render_prometheus().contains("neptune_checkpoint_"));

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
    }
}
