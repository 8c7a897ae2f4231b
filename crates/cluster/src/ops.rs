//! Builtin operators for distributed jobs.
//!
//! Cluster jobs are shipped as JSON descriptors, so every operator a
//! `neptuned` node can host must be constructible by factory name. This
//! module provides the distribution test/bench vocabulary:
//!
//! * `uid_source` — emits packets tagged with unique, dense `uid`s, the
//!   ground truth for loss accounting.
//! * `forward` — a stateless relay stage.
//! * `window_mean` — a sliding-window mean over the packet value,
//!   attached to each packet (windowed state that must survive on a
//!   node, without collapsing the `uid`s the sink deduplicates on).
//! * `uid_sink` — records distinct `uid`s in a process-global registry
//!   the node daemon reads when building telemetry reports. Exactly-once
//!   delivery at the sink is *observed* here: the transport below is
//!   at-least-once (replay on reconnect, source restart on node death),
//!   and the sink's uid set collapses duplicates while exposing their
//!   count.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};

use neptune_core::descriptor::OperatorRegistry;
use neptune_core::json::JsonValue;
use neptune_core::operator::{OperatorContext, SourceStatus, StreamProcessor, StreamSource};
use neptune_core::packet::{FieldValue, StreamPacket};
use neptune_granules::sync::Mutex;

fn param_u64(params: &JsonValue, key: &str, default: u64) -> u64 {
    params.get(key).and_then(|v| v.as_u64()).unwrap_or(default)
}

fn param_str(params: &JsonValue, key: &str) -> String {
    params.get(key).and_then(|v| v.as_str()).unwrap_or_default().to_string()
}

/// Emits `count` packets carrying dense uids `start..start+count`, in
/// batches. Each packet: `uid: U64`, `v: F64` (a deterministic signal the
/// window stage averages).
struct UidSource {
    next: u64,
    end: u64,
    batch: usize,
}

impl StreamSource for UidSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.next >= self.end {
            return SourceStatus::Exhausted;
        }
        let mut emitted = 0usize;
        while emitted < self.batch && self.next < self.end {
            let mut p = ctx.checkout_packet();
            p.push_field("uid", FieldValue::U64(self.next));
            p.push_field("v", FieldValue::F64((self.next % 97) as f64));
            let ok = ctx.emit(&p).is_ok();
            ctx.checkin_packet(p);
            if !ok {
                // Job is shutting down; stop producing.
                return SourceStatus::Exhausted;
            }
            self.next += 1;
            emitted += 1;
        }
        SourceStatus::Emitted(emitted)
    }
}

/// Stateless relay.
struct Forward;

impl StreamProcessor for Forward {
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext) {
        let _ = ctx.emit(packet);
    }
}

/// Sliding mean of the last `window` values of `v`, attached to each
/// packet as `mean` — windowed state without collapsing uids.
struct WindowMean {
    window: usize,
    values: VecDeque<f64>,
    sum: f64,
}

impl StreamProcessor for WindowMean {
    fn process(&mut self, packet: &StreamPacket, ctx: &mut OperatorContext) {
        let v = packet.get("v").and_then(|f| f.as_f64()).unwrap_or(0.0);
        self.values.push_back(v);
        self.sum += v;
        if self.values.len() > self.window {
            if let Some(old) = self.values.pop_front() {
                self.sum -= old;
            }
        }
        let mean = self.sum / self.values.len() as f64;
        // The pooled packet's slots keep their buffers: a copy, not a
        // clone, so a byte or string field allocates nothing.
        let mut out = ctx.checkout_packet();
        for (name, value) in packet.iter() {
            out.push_field_from(name, value);
        }
        out.push_field("mean", FieldValue::F64(mean));
        let _ = ctx.emit(&out);
        ctx.checkin_packet(out);
    }
}

/// Delivery ledger for one job's sink.
#[derive(Default)]
struct SinkState {
    seen: HashSet<u64>,
    duplicates: u64,
    mean_sum: f64,
}

/// Snapshot of a job's sink ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkSnapshot {
    /// Distinct uids delivered.
    pub unique: u64,
    /// Redundant deliveries collapsed by the uid set (at-least-once
    /// transport artifacts: replays, restarted sources).
    pub duplicates: u64,
    /// Sum of the window means seen (a checksum the tests can eyeball).
    pub mean_sum: f64,
}

fn sink_registry() -> &'static Mutex<HashMap<String, Arc<Mutex<SinkState>>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<Mutex<SinkState>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn sink_state(job: &str) -> Arc<Mutex<SinkState>> {
    sink_registry().lock().entry(job.to_string()).or_default().clone()
}

/// Read a job's sink ledger (None until its sink processes a packet or
/// the sink operator is constructed in this process).
pub fn sink_snapshot(job: &str) -> Option<SinkSnapshot> {
    let state = sink_registry().lock().get(job)?.clone();
    let s = state.lock();
    Some(SinkSnapshot {
        unique: s.seen.len() as u64,
        duplicates: s.duplicates,
        mean_sum: s.mean_sum,
    })
}

/// Drop a job's sink ledger (test isolation).
pub fn reset_sink(job: &str) {
    sink_registry().lock().remove(job);
}

/// Terminal stage: dedups on `uid` into the process-global ledger.
struct UidSink {
    state: Arc<Mutex<SinkState>>,
}

impl StreamProcessor for UidSink {
    fn process(&mut self, packet: &StreamPacket, _ctx: &mut OperatorContext) {
        let Some(uid) = packet.get("uid").and_then(|f| f.as_u64()) else {
            return;
        };
        let mean = packet.get("mean").and_then(|f| f.as_f64()).unwrap_or(0.0);
        let mut s = self.state.lock();
        if s.seen.insert(uid) {
            s.mean_sum += mean;
        } else {
            s.duplicates += 1;
        }
    }
}

/// Register the distributed-job vocabulary on `registry`.
///
/// Factory params:
/// * `uid_source`: `start` (default 0), `count` (default 1000), `batch`
///   (default 64).
/// * `window_mean`: `window` (default 16).
/// * `uid_sink`: `job` — the ledger key [`sink_snapshot`] reads.
pub fn register_builtins(registry: &mut OperatorRegistry) {
    registry.register_source("uid_source", |params: &JsonValue| {
        let start = param_u64(params, "start", 0);
        let count = param_u64(params, "count", 1000);
        UidSource {
            next: start,
            end: start.saturating_add(count),
            batch: param_u64(params, "batch", 64).max(1) as usize,
        }
    });
    registry.register_processor("forward", |_params: &JsonValue| Forward);
    registry.register_processor("window_mean", |params: &JsonValue| WindowMean {
        window: param_u64(params, "window", 16).max(1) as usize,
        values: VecDeque::new(),
        sum: 0.0,
    });
    registry.register_processor("uid_sink", |params: &JsonValue| UidSink {
        state: sink_state(&param_str(params, "job")),
    });
}

/// A fresh registry with the builtins registered.
pub fn builtin_registry() -> OperatorRegistry {
    let mut registry = OperatorRegistry::new();
    register_builtins(&mut registry);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_core::descriptor::parse_descriptor;
    use neptune_core::runtime::LocalRuntime;

    #[test]
    fn uid_pipeline_runs_locally_with_exact_delivery() {
        reset_sink("local-uid");
        let descriptor = r#"{
            "name": "local-uid",
            "operators": [
                {"name": "src", "kind": "source", "factory": "uid_source",
                 "params": {"start": 0, "count": 500, "batch": 32}},
                {"name": "win", "kind": "processor", "factory": "window_mean",
                 "params": {"window": 8}},
                {"name": "sink", "kind": "processor", "factory": "uid_sink",
                 "params": {"job": "local-uid"}}
            ],
            "links": [
                {"from": "src", "to": "win"},
                {"from": "win", "to": "sink"}
            ]
        }"#;
        let registry = builtin_registry();
        let (graph, config) = parse_descriptor(descriptor, &registry).unwrap();
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        assert!(job.await_sources(std::time::Duration::from_secs(10)));
        assert!(job.settle(std::time::Duration::from_secs(10)));
        job.stop();
        let snap = sink_snapshot("local-uid").unwrap();
        assert_eq!(snap.unique, 500, "every uid delivered exactly once");
        assert_eq!(snap.duplicates, 0, "in-process path never duplicates");
        assert!(snap.mean_sum > 0.0);
        reset_sink("local-uid");
    }

    #[test]
    fn window_mean_attaches_sliding_average() {
        let mut op = WindowMean { window: 2, values: VecDeque::new(), sum: 0.0 };
        let mut ctx = OperatorContext::collector("win");
        for v in [2.0f64, 4.0, 6.0] {
            let mut p = StreamPacket::new();
            p.push_field("uid", FieldValue::U64(v as u64));
            p.push_field("v", FieldValue::F64(v));
            op.process(&p, &mut ctx);
        }
        let out = ctx.take_collected();
        assert_eq!(out.len(), 3);
        let means: Vec<f64> =
            out.iter().map(|(_, p)| p.get("mean").unwrap().as_f64().unwrap()).collect();
        assert_eq!(means, vec![2.0, 3.0, 5.0], "window of 2 slides");
        assert_eq!(out[2].1.get("uid").unwrap().as_u64(), Some(6), "uid passes through");
    }

    #[test]
    fn sink_collapses_duplicates_and_counts_them() {
        reset_sink("dup-job");
        let mut sink = UidSink { state: sink_state("dup-job") };
        let mut ctx = OperatorContext::collector("sink");
        for uid in [1u64, 2, 2, 3, 1] {
            let mut p = StreamPacket::new();
            p.push_field("uid", FieldValue::U64(uid));
            p.push_field("mean", FieldValue::F64(1.0));
            sink.process(&p, &mut ctx);
        }
        let snap = sink_snapshot("dup-job").unwrap();
        assert_eq!(snap.unique, 3);
        assert_eq!(snap.duplicates, 2);
        assert_eq!(snap.mean_sum, 3.0, "duplicates do not double-count the checksum");
        reset_sink("dup-job");
        assert!(sink_snapshot("dup-job").is_none());
    }
}
