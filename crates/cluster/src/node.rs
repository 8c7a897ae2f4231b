//! The `neptuned` node daemon: registers with the coordinator, hosts the
//! sub-graph it is assigned, and reports telemetry until told to stop.
//!
//! Lifecycle (the state machine documented in DESIGN.md §5i):
//!
//! ```text
//! Connecting → Registered → Assigned → Running → Draining → Stopped
//!                  ▲                      │
//!                  └──── Assign(gen+1) ◄──┘   (reassignment restart)
//! ```
//!
//! The daemon is deliberately single-threaded around one [`ControlConn`]:
//! control messages are handled in arrival order, and the read timeout
//! doubles as the tick for periodic work (telemetry reports, quiescent
//! ack release). Reports are the daemon's heartbeats — the coordinator's
//! failure detector feeds on their arrival times, so a wedged daemon and
//! a dead one look the same upstream, which is exactly right.
//!
//! **Quiescent acks:** the data plane withholds transport acks until the
//! local pipeline is provably done with the data — every routed frame
//! emitted by `__ingress`, the runtime settled, egress replay buffers
//! drained. Until then every inbound frame is still covered by some
//! upstream replay buffer, so a `kill -9` of this whole process loses
//! nothing end-to-end.

use std::time::Duration;

use neptune_core::descriptor::{parse_descriptor, OperatorRegistry};
use neptune_core::json::{self, JsonValue};
use neptune_core::runtime::{JobHandle, LocalRuntime};
use neptune_telemetry::HistogramSnapshot;

use crate::dataplane::{AckMode, DataPlane};
use crate::ops;
use crate::proto::{is_timeout, ControlConn, ControlMsg, ProtoError};

/// Daemon configuration (CLI flags of the `neptuned` binary).
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// Coordinator control address, e.g. `127.0.0.1:7700`.
    pub coordinator: String,
    /// This node's registered identity.
    pub name: String,
    /// Capacity in operator-instance slots.
    pub capacity: usize,
    /// Data-plane bind address (port 0 lets the OS pick).
    pub data_addr: String,
    /// Unsolicited report (= heartbeat) cadence.
    pub report_interval: Duration,
}

impl NodeOptions {
    /// Defaults for everything but the coordinator address and name.
    pub fn new(coordinator: impl Into<String>, name: impl Into<String>) -> Self {
        NodeOptions {
            coordinator: coordinator.into(),
            name: name.into(),
            capacity: 16,
            data_addr: "127.0.0.1:0".to_string(),
            report_interval: Duration::from_millis(250),
        }
    }
}

impl NodeOptions {
    fn coordinator_addr(&self) -> &str {
        &self.coordinator
    }
}

struct PendingJob {
    job: String,
    generation: u64,
    descriptor: String,
}

struct RunningJob {
    job: String,
    generation: u64,
    handle: JobHandle,
}

/// One `neptuned` process: runs until the coordinator says `Shutdown` or
/// the control connection drops. Returns the number of jobs it hosted.
pub fn run_node(opts: NodeOptions) -> Result<u64, ProtoError> {
    let plane = DataPlane::bind(&opts.data_addr, AckMode::Quiescent).map_err(ProtoError::Io)?;
    let mut registry = ops::builtin_registry();
    plane.register_boundary_ops(&mut registry);

    let conn = ControlConn::connect(opts.coordinator_addr(), Duration::from_secs(10))?;
    conn.send(&ControlMsg::Register {
        node: opts.name.clone(),
        capacity: opts.capacity,
        data_addr: plane.local_addr().to_string(),
        pid: std::process::id(),
    })?;
    let mut conn = conn;
    let node_index = match conn.recv()? {
        ControlMsg::Welcome { node_index } => node_index,
        ControlMsg::Error { message } => {
            return Err(ProtoError::Malformed(format!("registration rejected: {message}")))
        }
        other => {
            return Err(ProtoError::Malformed(format!("expected Welcome, got {other:?}")));
        }
    };
    eprintln!(
        "neptuned[{}]: registered as node {} (data plane {})",
        opts.name,
        node_index,
        plane.local_addr()
    );

    conn.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut pending: Option<PendingJob> = None;
    let mut running: Option<RunningJob> = None;
    // The most recent job this node hosted: its process-global sink
    // ledger outlives the runtime, so post-Stop reports still carry the
    // authoritative delivery accounting.
    let mut last_job: Option<String> = None;
    let mut seq = 0u64;
    let mut jobs_hosted = 0u64;
    let mut last_report = std::time::Instant::now();

    loop {
        match conn.recv() {
            Ok(msg) => match msg {
                ControlMsg::Assign { job, generation, descriptor } => {
                    // A re-Assign supersedes whatever this node runs: stop
                    // the local runtime (windowed operator state restarts;
                    // the process-global sink ledger and the transport
                    // replay buffers both survive — at-least-once underneath,
                    // exactly-once at the sink's uid set).
                    if let Some(run) = running.take() {
                        eprintln!(
                            "neptuned[{}]: assign gen {} supersedes gen {}",
                            opts.name, generation, run.generation
                        );
                        run.handle.stop();
                    }
                    last_job = Some(job.clone());
                    pending = Some(PendingJob { job, generation, descriptor });
                    conn.send(&report(
                        &opts.name, &mut seq, &plane, &pending, &running, &last_job,
                    ))?;
                }
                ControlMsg::Start { job } => {
                    let Some(p) = pending.take() else {
                        conn.send(&ControlMsg::Error {
                            message: format!("start {job}: nothing assigned"),
                        })?;
                        continue;
                    };
                    match parse_and_submit(&p, &registry) {
                        Ok(handle) => {
                            jobs_hosted += 1;
                            running =
                                Some(RunningJob { job: p.job, generation: p.generation, handle });
                        }
                        Err(message) => {
                            conn.send(&ControlMsg::Error { message })?;
                        }
                    }
                }
                ControlMsg::Ping { seq: ping_seq } => {
                    seq = seq.max(ping_seq);
                    conn.send(&report(
                        &opts.name, &mut seq, &plane, &pending, &running, &last_job,
                    ))?;
                }
                ControlMsg::Rewire { edge, addr, epoch: _ } => {
                    plane.rewire(edge as u32, addr);
                }
                ControlMsg::Drain { job: _ } => {
                    plane.drain_ingress();
                    if let Some(run) = &running {
                        run.handle.await_sources(Duration::from_secs(5));
                        run.handle.settle(Duration::from_secs(5));
                    }
                    plane.release_acks();
                    conn.send(&report(
                        &opts.name, &mut seq, &plane, &pending, &running, &last_job,
                    ))?;
                }
                ControlMsg::Stop { job: _ } => {
                    if let Some(run) = running.take() {
                        plane.drain_ingress();
                        run.handle.await_sources(Duration::from_secs(10));
                        run.handle.settle(Duration::from_secs(10));
                        plane.release_acks();
                        run.handle.stop();
                    }
                    conn.send(&report(
                        &opts.name, &mut seq, &plane, &pending, &running, &last_job,
                    ))?;
                }
                ControlMsg::Shutdown => {
                    if let Some(run) = running.take() {
                        run.handle.stop();
                    }
                    plane.shutdown();
                    eprintln!("neptuned[{}]: shutdown after {jobs_hosted} job(s)", opts.name);
                    return Ok(jobs_hosted);
                }
                other => {
                    conn.send(&ControlMsg::Error {
                        message: format!("unexpected control message: {other:?}"),
                    })?;
                }
            },
            Err(e) if is_timeout(&e) => {
                // Tick: release acks once the pipeline is quiescent, and
                // heartbeat the coordinator with a fresh report.
                if let Some(run) = &running {
                    if plane.quiescent() && run.handle.settle(Duration::from_millis(2)) {
                        plane.release_acks();
                    }
                }
                if last_report.elapsed() >= opts.report_interval {
                    last_report = std::time::Instant::now();
                    conn.send(&report(
                        &opts.name, &mut seq, &plane, &pending, &running, &last_job,
                    ))?;
                }
            }
            Err(e) => {
                if let Some(run) = running.take() {
                    run.handle.stop();
                }
                plane.shutdown();
                return Err(e);
            }
        }
    }
}

fn parse_and_submit(p: &PendingJob, registry: &OperatorRegistry) -> Result<JobHandle, String> {
    let (graph, config) = parse_descriptor(&p.descriptor, registry)
        .map_err(|e| format!("assign {}: bad descriptor: {e}", p.job))?;
    LocalRuntime::new(config)
        .submit(graph)
        .map_err(|e| format!("start {}: submit failed: {e}", p.job))
}

fn sparse_histogram(h: &HistogramSnapshot) -> JsonValue {
    let buckets = h
        .sparse_counts()
        .into_iter()
        .map(|(i, c)| {
            JsonValue::Array(vec![JsonValue::Number(i as f64), JsonValue::Number(c as f64)])
        })
        .collect();
    json::object([
        ("buckets", JsonValue::Array(buckets)),
        ("count", JsonValue::Number(h.count() as f64)),
        ("sum", JsonValue::Number(h.sum() as f64)),
        ("max", JsonValue::Number(h.max() as f64)),
    ])
}

/// Build the node's report: job status, sink ledger, data-plane counters,
/// and per-operator sparse latency histograms the coordinator merges into
/// the cluster-wide export.
fn report(
    name: &str,
    seq: &mut u64,
    plane: &DataPlane,
    pending: &Option<PendingJob>,
    running: &Option<RunningJob>,
    last_job: &Option<String>,
) -> ControlMsg {
    *seq += 1;
    let mut body = std::collections::BTreeMap::new();
    body.insert("data_addr".to_string(), JsonValue::String(plane.local_addr().to_string()));
    if let Some(p) = pending {
        body.insert("pending".to_string(), JsonValue::String(p.job.clone()));
        body.insert("pending_generation".to_string(), JsonValue::Number(p.generation as f64));
    }
    let stats = plane.stats();
    body.insert(
        "dataplane".to_string(),
        json::object([
            ("frames_in", JsonValue::Number(stats.frames_in as f64)),
            ("dup_frames", JsonValue::Number(stats.dup_frames as f64)),
            ("packets_in", JsonValue::Number(stats.packets_in as f64)),
            ("traced_in", JsonValue::Number(stats.traced_in as f64)),
            ("frames_out", JsonValue::Number(stats.frames_out as f64)),
            ("packets_out", JsonValue::Number(stats.packets_out as f64)),
            ("traced_out", JsonValue::Number(stats.traced_out as f64)),
            ("handshake_rejects", JsonValue::Number(stats.handshake_rejects as f64)),
        ]),
    );
    if let Some(run) = running {
        body.insert("job".to_string(), JsonValue::String(run.job.clone()));
        body.insert("generation".to_string(), JsonValue::Number(run.generation as f64));
        body.insert("running".to_string(), JsonValue::Bool(true));
        body.insert("sources_done".to_string(), JsonValue::Bool(run.handle.active_sources() == 0));
        body.insert("quiescent".to_string(), JsonValue::Bool(plane.quiescent()));
        let metrics = run.handle.metrics();
        let packets_in: u64 = metrics.operators.values().map(|m| m.packets_in).sum();
        let packets_out: u64 = metrics.operators.values().map(|m| m.packets_out).sum();
        let panics: u64 = metrics.operators.values().map(|m| m.panics).sum();
        body.insert(
            "metrics".to_string(),
            json::object([
                ("packets_in", JsonValue::Number(packets_in as f64)),
                ("packets_out", JsonValue::Number(packets_out as f64)),
                ("panics", JsonValue::Number(panics as f64)),
            ]),
        );
        if let Some(telemetry) = run.handle.telemetry() {
            let mut operators = std::collections::BTreeMap::new();
            for (op, snap) in &telemetry.operators {
                let mut stages = std::collections::BTreeMap::new();
                stages.insert("e2e".to_string(), sparse_histogram(&snap.e2e));
                for (stage, histogram) in snap.stages() {
                    stages.insert(stage.to_string(), sparse_histogram(histogram));
                }
                operators.insert(op.clone(), JsonValue::Object(stages));
            }
            body.insert("telemetry".to_string(), JsonValue::Object(operators));
        }
    } else {
        body.insert("running".to_string(), JsonValue::Bool(false));
    }
    // The sink ledger is process-global and outlives the runtime: report
    // it for the running job, or for the last job after Stop, so final
    // reports still carry the authoritative delivery accounting.
    let sink_job = running.as_ref().map(|r| r.job.as_str()).or(last_job.as_deref());
    if let Some(sink) = sink_job.and_then(ops::sink_snapshot) {
        body.insert(
            "sink".to_string(),
            json::object([
                ("unique", JsonValue::Number(sink.unique as f64)),
                ("duplicates", JsonValue::Number(sink.duplicates as f64)),
                ("mean_sum", JsonValue::Number(sink.mean_sum)),
            ]),
        );
    }
    ControlMsg::Report { node: name.to_string(), seq: *seq, body: JsonValue::Object(body) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_to_loopback_and_modest_capacity() {
        let o = NodeOptions::new("127.0.0.1:7700", "n0");
        assert_eq!(o.capacity, 16);
        assert_eq!(o.data_addr, "127.0.0.1:0");
        assert_eq!(o.coordinator_addr(), "127.0.0.1:7700");
    }

    #[test]
    fn sparse_histograms_survive_the_json_hop() {
        use neptune_telemetry::LatencyHistogram;
        let h = LatencyHistogram::new();
        for v in [10u64, 100, 1000, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let j = sparse_histogram(&snap);
        // Decode the way the coordinator does.
        let buckets: Vec<(u32, u64)> = j
            .get("buckets")
            .and_then(|b| b.as_array())
            .unwrap()
            .iter()
            .map(|pair| {
                let p = pair.as_array().unwrap();
                (p[0].as_u64().unwrap() as u32, p[1].as_u64().unwrap())
            })
            .collect();
        let rebuilt = HistogramSnapshot::from_sparse(
            &buckets,
            j.get("count").and_then(|v| v.as_u64()).unwrap(),
            j.get("sum").and_then(|v| v.as_u64()).unwrap(),
            j.get("max").and_then(|v| v.as_u64()).unwrap(),
        );
        assert_eq!(rebuilt.count(), 4);
        assert_eq!(rebuilt.sum(), snap.sum());
        assert_eq!(rebuilt.max(), 1000);
        assert_eq!(rebuilt.sparse_counts(), snap.sparse_counts());
    }
}
