//! The cluster coordinator: registration barrier, graph partitioning and
//! cutting, control fan-out, failure-driven reassignment, and the
//! cluster-wide telemetry export.
//!
//! One coordinator drives one job to completion:
//!
//! 1. **Barrier** — accept control connections until `nodes` daemons have
//!    registered (each connection opens with the versioned hello, so a
//!    mismatched `neptuned` build is rejected before it can register).
//! 2. **Cut** — [`crate::placement::partition_graph`] assigns every
//!    operator to a node; links whose endpoints land on different nodes
//!    become *cut edges*, realised as an `__egress` processor upstream
//!    and an `__ingress` source downstream (the downstream side keeps the
//!    link's original partitioning — co-location makes it local).
//! 3. **Run** — `Assign` ships each node its sub-descriptor, `Start`
//!    launches them; nodes report sink ledgers, data-plane counters, and
//!    sparse latency histograms, which double as heartbeats.
//! 4. **Reassign** — a node that stops reporting (or drops its control
//!    connection) is declared dead: [`crate::placement::reassign_dead`]
//!    moves only its operators, affected survivors get a superseding
//!    `Assign` (with bumped egress epochs — a restarted producer is a new
//!    link identity), and untouched upstream neighbours get `Rewire`.
//! 5. **Finish** — when the aggregated sink ledger reaches the expected
//!    unique count, `Drain`/`Stop`/`Shutdown` walk the cluster down and
//!    [`run_cluster`] returns a [`ClusterSummary`].
//!
//! While running, an embedded HTTP endpoint serves the *merged* view:
//! `/metrics` (Prometheus text; per-node counters plus per-operator
//! latency quantiles computed from histograms merged across nodes with
//! [`HistogramSnapshot::merge`]), `/nodes` (per-node JSON, including
//! pids — the chaos test reads its kill target here), and `/cluster`
//! (job-level JSON summary).

use std::collections::{BTreeMap, HashMap};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use neptune_core::json::{self, JsonValue};
use neptune_telemetry::exporter::{counter, gauge, summary};
use neptune_telemetry::{Exporter, FieldDef, HistogramSnapshot, PrometheusExporter};
use parking_lot::Mutex;

use crate::placement::{partition_graph, reassign_dead, NodeSlot, OpDemand, Placement};
use crate::proto::{ControlConn, ControlMsg, ControlSender, ProtoError};

/// Coordinator configuration (CLI flags of the `neptune-coordinator`
/// binary).
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Control listen address, e.g. `127.0.0.1:7700`.
    pub listen: String,
    /// HTTP export address (`None` disables the endpoint).
    pub http: Option<String>,
    /// Registration barrier: how many `neptuned` daemons to wait for.
    pub nodes: usize,
    /// A node whose reports stop for this long is declared dead.
    pub heartbeat_timeout: Duration,
    /// Overall job deadline — the coordinator fails instead of hanging.
    pub deadline: Duration,
}

impl CoordinatorOptions {
    /// Defaults for everything but the listen address and node count.
    pub fn new(listen: impl Into<String>, nodes: usize) -> Self {
        CoordinatorOptions {
            listen: listen.into(),
            http: None,
            nodes,
            heartbeat_timeout: Duration::from_secs(2),
            deadline: Duration::from_secs(120),
        }
    }
}

/// What the cluster did, returned when the job completes.
#[derive(Debug, Clone)]
pub struct ClusterSummary {
    /// Job name from the descriptor.
    pub job: String,
    /// Daemons that registered.
    pub nodes: usize,
    /// Nodes declared dead during the run.
    pub deaths: usize,
    /// Reassignment rounds performed.
    pub reassignments: u64,
    /// Final placement generation.
    pub generation: u64,
    /// Distinct uids the sink saw.
    pub sink_unique: u64,
    /// Redundant deliveries the sink collapsed (replay artifacts).
    pub sink_duplicates: u64,
    /// Data frames received across all nodes.
    pub frames_in: u64,
    /// Inbound frames carrying a trace id, summed across nodes.
    pub traced_in: u64,
    /// Duplicate frames dropped by ingress dedup, summed across nodes.
    pub dup_frames: u64,
    /// Wall-clock from `Start` fan-out to sink completion.
    pub elapsed: Duration,
}

/// The canonical distribution demo job: `uid_source → window_mean →
/// uid_sink`, three stages so a three-node cluster hosts one each. Used by
/// the `neptune-coordinator` binary (when no descriptor file is given),
/// the multi-process integration test, and the node-scaling bench.
pub fn demo_descriptor(name: &str, count: u64, window: u64) -> String {
    json::object([
        ("name", JsonValue::String(name.to_string())),
        (
            "operators",
            JsonValue::Array(vec![
                json::object([
                    ("name", JsonValue::String("src".into())),
                    ("kind", JsonValue::String("source".into())),
                    ("factory", JsonValue::String("uid_source".into())),
                    (
                        "params",
                        json::object([
                            ("count", JsonValue::Number(count as f64)),
                            ("batch", JsonValue::Number(32.0)),
                        ]),
                    ),
                ]),
                json::object([
                    ("name", JsonValue::String("win".into())),
                    ("kind", JsonValue::String("processor".into())),
                    ("factory", JsonValue::String("window_mean".into())),
                    ("params", json::object([("window", JsonValue::Number(window as f64))])),
                ]),
                json::object([
                    ("name", JsonValue::String("sink".into())),
                    ("kind", JsonValue::String("processor".into())),
                    ("factory", JsonValue::String("uid_sink".into())),
                    ("params", json::object([("job", JsonValue::String(name.to_string()))])),
                ]),
            ]),
        ),
        (
            "links",
            JsonValue::Array(vec![
                json::object([
                    ("from", JsonValue::String("src".into())),
                    ("to", JsonValue::String("win".into())),
                ]),
                json::object([
                    ("from", JsonValue::String("win".into())),
                    ("to", JsonValue::String("sink".into())),
                ]),
            ]),
        ),
    ])
    .to_json()
}

/// The parsed job: operator entries and links in declared order.
struct JobSpec {
    name: String,
    /// `(name, full JSON entry, parallelism)` in declared order.
    operators: Vec<(String, JsonValue, usize)>,
    /// `(from, to, partitioning)` in declared order; index = edge id.
    links: Vec<(String, String, Option<JsonValue>)>,
    config: Option<JsonValue>,
}

impl JobSpec {
    fn parse(descriptor: &str) -> Result<JobSpec, ProtoError> {
        let doc = json::parse(descriptor)
            .map_err(|e| ProtoError::Malformed(format!("job descriptor: {e}")))?;
        let name = doc
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| ProtoError::Malformed("job descriptor: missing name".into()))?
            .to_string();
        let mut operators = Vec::new();
        for op in doc
            .get("operators")
            .and_then(|v| v.as_array())
            .ok_or_else(|| ProtoError::Malformed("job descriptor: missing operators".into()))?
        {
            let op_name = op
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or_else(|| ProtoError::Malformed("operator without a name".into()))?
                .to_string();
            let parallelism =
                op.get("parallelism").and_then(|v| v.as_u64()).unwrap_or(1).max(1) as usize;
            operators.push((op_name, op.clone(), parallelism));
        }
        let mut links = Vec::new();
        for link in doc
            .get("links")
            .and_then(|v| v.as_array())
            .ok_or_else(|| ProtoError::Malformed("job descriptor: missing links".into()))?
        {
            let from = link
                .get("from")
                .and_then(|v| v.as_str())
                .ok_or_else(|| ProtoError::Malformed("link without from".into()))?
                .to_string();
            let to = link
                .get("to")
                .and_then(|v| v.as_str())
                .ok_or_else(|| ProtoError::Malformed("link without to".into()))?
                .to_string();
            links.push((from, to, link.get("partitioning").cloned()));
        }
        Ok(JobSpec { name, operators, links, config: doc.get("config").cloned() })
    }

    fn demands(&self) -> Vec<OpDemand> {
        self.operators.iter().map(|(n, _, p)| OpDemand::new(n.clone(), *p)).collect()
    }
}

/// Per-node view shared with the HTTP endpoint.
struct NodeView {
    name: String,
    data_addr: String,
    pid: u32,
    capacity: usize,
    alive: bool,
    last_seen: Instant,
    last_report: Option<JsonValue>,
}

/// State the event loop mutates and the HTTP endpoint renders.
struct Shared {
    job: String,
    expected: u64,
    nodes: Vec<NodeView>,
    generation: u64,
    reassignments: u64,
    placement: Option<Placement>,
}

impl Shared {
    /// Latest sink ledger across nodes (the sink lives on one node, but
    /// after a reassignment the new host's ledger is a fresh process-local
    /// set — take the max, which is the authoritative surviving ledger).
    fn sink(&self) -> (u64, u64, f64) {
        let mut best = (0u64, 0u64, 0f64);
        for n in &self.nodes {
            let Some(sink) = n.last_report.as_ref().and_then(|r| r.get("sink")) else { continue };
            let unique = sink.get("unique").and_then(|v| v.as_u64()).unwrap_or(0);
            if unique >= best.0 {
                best = (
                    unique,
                    sink.get("duplicates").and_then(|v| v.as_u64()).unwrap_or(0),
                    sink.get("mean_sum").and_then(|v| v.as_f64()).unwrap_or(0.0),
                );
            }
        }
        best
    }

    fn dataplane_total(&self, key: &str) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| n.last_report.as_ref())
            .filter_map(|r| r.get("dataplane"))
            .filter_map(|d| d.get(key))
            .filter_map(|v| v.as_u64())
            .sum()
    }

    /// Merge every node's sparse per-operator histograms into one
    /// cluster-wide map: `operator → stage → merged snapshot`.
    fn merged_telemetry(&self) -> BTreeMap<String, BTreeMap<String, HistogramSnapshot>> {
        let mut merged: BTreeMap<String, BTreeMap<String, HistogramSnapshot>> = BTreeMap::new();
        for node in &self.nodes {
            let Some(ops) = node
                .last_report
                .as_ref()
                .and_then(|r| r.get("telemetry"))
                .and_then(|t| t.as_object())
            else {
                continue;
            };
            for (op, stages) in ops {
                let Some(stages) = stages.as_object() else { continue };
                for (stage, h) in stages {
                    let snap = decode_sparse(h);
                    merged
                        .entry(op.clone())
                        .or_default()
                        .entry(stage.clone())
                        .and_modify(|m| m.merge(&snap))
                        .or_insert(snap);
                }
            }
        }
        merged
    }
}

/// Rebuild a [`HistogramSnapshot`] from the sparse JSON a node reports.
fn decode_sparse(j: &JsonValue) -> HistogramSnapshot {
    let buckets: Vec<(u32, u64)> = j
        .get("buckets")
        .and_then(|b| b.as_array())
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|p| p.as_array())
                .filter(|p| p.len() == 2)
                .filter_map(|p| Some((p[0].as_u64()? as u32, p[1].as_u64()?)))
                .collect()
        })
        .unwrap_or_default();
    HistogramSnapshot::from_sparse(
        &buckets,
        j.get("count").and_then(|v| v.as_u64()).unwrap_or(0),
        j.get("sum").and_then(|v| v.as_u64()).unwrap_or(0),
        j.get("max").and_then(|v| v.as_u64()).unwrap_or(0),
    )
}

/// The `neptune_cluster_*` families. `/metrics` is the only schema-walked
/// format here (`/nodes` and `/cluster` are hand-shaped JSON views), so
/// rows carry no JSON key — except the data-plane counters, whose key is
/// the counter's name in a node report's `dataplane` object.
const NODES: FieldDef = gauge("", "neptune_cluster_nodes");
const GENERATION: FieldDef = counter("", "neptune_cluster_generation");
const REASSIGNMENTS: FieldDef = counter("", "neptune_cluster_reassignments_total");
const SINK_FIELDS: [FieldDef; 3] = [
    counter("", "neptune_cluster_sink_unique_total"),
    counter("", "neptune_cluster_sink_duplicates_total"),
    gauge("", "neptune_cluster_expected_unique"),
];
const DATAPLANE_FIELDS: [FieldDef; 6] = [
    counter("frames_in", "neptune_cluster_frames_in_total"),
    counter("dup_frames", "neptune_cluster_dup_frames_total"),
    counter("packets_in", "neptune_cluster_packets_in_total"),
    counter("traced_in", "neptune_cluster_traced_in_total"),
    counter("frames_out", "neptune_cluster_frames_out_total"),
    counter("traced_out", "neptune_cluster_traced_out_total"),
];
const LATENCY: FieldDef = summary("", "neptune_cluster_latency_micros");

/// Render the Prometheus text exposition of the merged cluster state.
/// Job, node, operator and stage names arrive from descriptors and peers;
/// the exporter escapes them as label values.
fn render_prometheus(s: &Shared) -> String {
    let mut e = PrometheusExporter::new();
    let alive = s.nodes.iter().filter(|n| n.alive).count();
    e.group(&[], &[("state", "alive")]);
    e.field(&NODES, alive as u64);
    e.group(&[], &[("state", "dead")]);
    e.field(&NODES, (s.nodes.len() - alive) as u64);
    e.group(&[], &[]);
    e.field(&GENERATION, s.generation);
    e.field(&REASSIGNMENTS, s.reassignments);
    let (unique, duplicates, _) = s.sink();
    e.group(&[], &[("job", &s.job)]);
    e.fields(&SINK_FIELDS, &[unique, duplicates, s.expected]);
    for n in &s.nodes {
        let dataplane = n.last_report.as_ref().and_then(|r| r.get("dataplane"));
        e.group(&[], &[("node", &n.name)]);
        for def in &DATAPLANE_FIELDS {
            let reported = dataplane.and_then(|d| d.get(def.json_key)).and_then(|v| v.as_u64());
            e.field(def, reported.unwrap_or(0));
        }
    }
    // Merged latency histograms: one summary per operator and stage,
    // computed after cross-node merge (mergeable snapshots).
    for (op, stages) in s.merged_telemetry() {
        for (stage, h) in stages.iter().filter(|(_, h)| h.count() > 0) {
            e.group(&[], &[("op", &op), ("stage", stage)]);
            e.histogram(&LATENCY, h);
        }
    }
    e.finish()
}

/// `/nodes`: per-node JSON, pids included (the chaos test's kill target).
fn render_nodes(s: &Shared) -> String {
    let nodes: Vec<JsonValue> = s
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let ops = s
                .placement
                .as_ref()
                .map(|p| {
                    p.ops_on(i).into_iter().map(|o| JsonValue::String(o.to_string())).collect()
                })
                .unwrap_or_default();
            json::object([
                ("index", JsonValue::Number(i as f64)),
                ("name", JsonValue::String(n.name.clone())),
                ("data_addr", JsonValue::String(n.data_addr.clone())),
                ("pid", JsonValue::Number(n.pid as f64)),
                ("capacity", JsonValue::Number(n.capacity as f64)),
                ("alive", JsonValue::Bool(n.alive)),
                ("operators", JsonValue::Array(ops)),
            ])
        })
        .collect();
    json::object([("nodes", JsonValue::Array(nodes))]).to_json()
}

/// `/cluster`: job-level JSON summary.
fn render_cluster(s: &Shared) -> String {
    let (unique, duplicates, mean_sum) = s.sink();
    json::object([
        ("job", JsonValue::String(s.job.clone())),
        ("expected_unique", JsonValue::Number(s.expected as f64)),
        ("sink_unique", JsonValue::Number(unique as f64)),
        ("sink_duplicates", JsonValue::Number(duplicates as f64)),
        ("sink_mean_sum", JsonValue::Number(mean_sum)),
        ("generation", JsonValue::Number(s.generation as f64)),
        ("reassignments", JsonValue::Number(s.reassignments as f64)),
        ("nodes_alive", JsonValue::Number(s.nodes.iter().filter(|n| n.alive).count() as f64)),
        ("frames_in", JsonValue::Number(s.dataplane_total("frames_in") as f64)),
        ("dup_frames", JsonValue::Number(s.dataplane_total("dup_frames") as f64)),
        ("traced_in", JsonValue::Number(s.dataplane_total("traced_in") as f64)),
    ])
    .to_json()
}

/// Serve `/metrics`, `/nodes`, `/cluster` until `stop` flips. Modeled on
/// the in-job scrape endpoint: HTTP/1.1, one request per connection.
fn http_loop(listener: TcpListener, shared: Arc<Mutex<Shared>>, stop: Arc<AtomicBool>) {
    use std::io::{Read, Write};
    listener.set_nonblocking(true).ok();
    while !stop.load(Ordering::Acquire) {
        let (mut stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            Err(_) => return,
        };
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
        let mut buf = [0u8; 1024];
        let mut len = 0;
        while len < buf.len() {
            match stream.read(&mut buf[len..]) {
                Ok(0) => break,
                Ok(n) => {
                    len += n;
                    if buf[..len].contains(&b'\n') {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let line = std::str::from_utf8(&buf[..len]).unwrap_or("").lines().next().unwrap_or("");
        let path = line.split_whitespace().nth(1).unwrap_or("");
        let (status, content_type, body) = {
            let s = shared.lock();
            match path {
                "/metrics" => ("200 OK", "text/plain; version=0.0.4", render_prometheus(&s)),
                "/nodes" => ("200 OK", "application/json", render_nodes(&s)),
                "/cluster" => ("200 OK", "application/json", render_cluster(&s)),
                _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
            }
        };
        let header = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream.write_all(header.as_bytes());
        let _ = stream.write_all(body.as_bytes());
        let _ = stream.flush();
    }
}

/// Build node `n`'s sub-descriptor under `placement`, or `None` when the
/// node hosts nothing. Cut edges get `__egress_<e>` appended upstream and
/// `__ingress_<e>` prepended downstream; the downstream link keeps the
/// original partitioning (all the consumer's instances are local).
fn build_sub_descriptor(
    spec: &JobSpec,
    placement: &Placement,
    n: usize,
    node_addrs: &[String],
    epochs: &HashMap<usize, u32>,
) -> Option<String> {
    let mut operators: Vec<JsonValue> = Vec::new();
    for (name, entry, _) in &spec.operators {
        if placement.node_of(name) == Some(n) {
            operators.push(entry.clone());
        }
    }
    let mut links: Vec<JsonValue> = Vec::new();
    let mut boundary: Vec<JsonValue> = Vec::new();
    for (edge, (from, to, partitioning)) in spec.links.iter().enumerate() {
        let u = placement.node_of(from)?;
        let v = placement.node_of(to)?;
        if u != n && v != n {
            continue;
        }
        let epoch = epochs.get(&edge).copied().unwrap_or(0);
        if u == n && v == n {
            let mut link = vec![
                ("from", JsonValue::String(from.clone())),
                ("to", JsonValue::String(to.clone())),
            ];
            if let Some(p) = partitioning {
                link.push(("partitioning", p.clone()));
            }
            links.push(json::object(link));
        } else if u == n {
            // Upstream side of a cut edge: append the egress shipper.
            let egress = format!("__egress_{edge}");
            boundary.push(json::object([
                ("name", JsonValue::String(egress.clone())),
                ("kind", JsonValue::String("processor".into())),
                ("factory", JsonValue::String("__egress".into())),
                (
                    "params",
                    json::object([
                        ("edge", JsonValue::Number(edge as f64)),
                        ("epoch", JsonValue::Number(epoch as f64)),
                        ("addr", JsonValue::String(node_addrs[v].clone())),
                    ]),
                ),
            ]));
            links.push(json::object([
                ("from", JsonValue::String(from.clone())),
                ("to", JsonValue::String(egress)),
            ]));
        } else {
            // Downstream side: prepend the ingress source, original
            // partitioning intact.
            let ingress = format!("__ingress_{edge}");
            boundary.push(json::object([
                ("name", JsonValue::String(ingress.clone())),
                ("kind", JsonValue::String("source".into())),
                ("factory", JsonValue::String("__ingress".into())),
                ("params", json::object([("edge", JsonValue::Number(edge as f64))])),
            ]));
            let mut link =
                vec![("from", JsonValue::String(ingress)), ("to", JsonValue::String(to.clone()))];
            if let Some(p) = partitioning {
                link.push(("partitioning", p.clone()));
            }
            links.push(json::object(link));
        }
    }
    operators.extend(boundary);
    if operators.is_empty() {
        return None;
    }
    let mut doc = vec![
        ("name", JsonValue::String(spec.name.clone())),
        ("operators", JsonValue::Array(operators)),
        ("links", JsonValue::Array(links)),
    ];
    if let Some(config) = &spec.config {
        doc.push(("config", config.clone()));
    }
    Some(json::object(doc).to_json())
}

/// Drive one job across `opts.nodes` daemons to completion.
/// `expected_unique` is the job's ground truth: the distinct uid count the
/// sink must reach (the uid source's `count` parameter).
pub fn run_cluster(
    opts: &CoordinatorOptions,
    descriptor: &str,
    expected_unique: u64,
) -> Result<ClusterSummary, ProtoError> {
    let control = TcpListener::bind(&opts.listen)?;
    let http = opts.http.as_ref().map(TcpListener::bind).transpose()?;
    run_cluster_on(control, http, opts, descriptor, expected_unique)
}

/// [`run_cluster`] on listeners the caller already holds — `opts.listen`
/// and `opts.http` are not read. For a harness that lets the OS pick its
/// ports: binding port 0 *and keeping the listener* is the only way to
/// learn a free port without a window in which someone else can take it,
/// and the daemons must be told the address before the coordinator runs.
pub fn run_cluster_on(
    listener: TcpListener,
    http: Option<TcpListener>,
    opts: &CoordinatorOptions,
    descriptor: &str,
    expected_unique: u64,
) -> Result<ClusterSummary, ProtoError> {
    let spec = JobSpec::parse(descriptor)?;
    let demands = spec.demands();
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + opts.deadline;

    // ---- Registration barrier ------------------------------------------
    let (tx, rx) = mpsc::channel::<(usize, Result<ControlMsg, ProtoError>)>();
    let mut senders: Vec<ControlSender> = Vec::new();
    let mut views: Vec<NodeView> = Vec::new();
    let mut readers = Vec::new();
    while views.len() < opts.nodes {
        if Instant::now() >= deadline {
            return Err(ProtoError::Malformed(format!(
                "barrier: {}/{} nodes registered before the deadline",
                views.len(),
                opts.nodes
            )));
        }
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            Err(e) => return Err(ProtoError::Io(e)),
        };
        let mut conn = match ControlConn::establish(stream) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("coordinator: rejected connection: {e}");
                continue;
            }
        };
        match conn.recv()? {
            ControlMsg::Register { node, capacity, data_addr, pid } => {
                let index = views.len();
                conn.send(&ControlMsg::Welcome { node_index: index })?;
                eprintln!("coordinator: node {index} '{node}' at {data_addr} (pid {pid})");
                senders.push(conn.sender());
                views.push(NodeView {
                    name: node,
                    data_addr,
                    pid,
                    capacity,
                    alive: true,
                    last_seen: Instant::now(),
                    last_report: None,
                });
                let reader_tx = tx.clone();
                readers.push(std::thread::spawn(move || loop {
                    match conn.recv() {
                        Ok(msg) => {
                            if reader_tx.send((index, Ok(msg))).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = reader_tx.send((index, Err(e)));
                            return;
                        }
                    }
                }));
            }
            other => {
                eprintln!("coordinator: expected Register, got {other:?}");
            }
        }
    }

    // ---- Placement and fan-out -----------------------------------------
    let mut slots: Vec<NodeSlot> =
        views.iter().map(|v| NodeSlot::new(v.name.clone(), v.capacity)).collect();
    let node_addrs: Vec<String> = views.iter().map(|v| v.data_addr.clone()).collect();
    let placement = partition_graph(0, &demands, &slots)
        .map_err(|e| ProtoError::Malformed(format!("placement: {e}")))?;
    let mut epochs: HashMap<usize, u32> = HashMap::new();

    let shared = Arc::new(Mutex::new(Shared {
        job: spec.name.clone(),
        expected: expected_unique,
        nodes: views,
        generation: 0,
        reassignments: 0,
        placement: Some(placement.clone()),
    }));
    let http_stop = Arc::new(AtomicBool::new(false));
    let http_thread = match http {
        Some(l) => {
            eprintln!("coordinator: http export on {}", l.local_addr()?);
            let s = shared.clone();
            let stop = http_stop.clone();
            Some(std::thread::spawn(move || http_loop(l, s, stop)))
        }
        None => None,
    };

    let assign_and_start = |placement: &Placement,
                            generation: u64,
                            targets: &[usize],
                            epochs: &HashMap<usize, u32>,
                            senders: &[ControlSender]|
     -> Vec<usize> {
        let mut failed = Vec::new();
        for &n in targets {
            let Some(sub) = build_sub_descriptor(&spec, placement, n, &node_addrs, epochs) else {
                continue;
            };
            let assign = ControlMsg::Assign { job: spec.name.clone(), generation, descriptor: sub };
            if senders[n].send(&assign).is_err()
                || senders[n].send(&ControlMsg::Start { job: spec.name.clone() }).is_err()
            {
                failed.push(n);
            }
        }
        failed
    };

    let all: Vec<usize> = (0..opts.nodes).collect();
    assign_and_start(&placement, 0, &all, &epochs, &senders);
    let started_at = Instant::now();
    eprintln!(
        "coordinator: job '{}' started over {} node(s): {:?}",
        spec.name,
        opts.nodes,
        placement.iter().collect::<Vec<_>>()
    );

    // ---- Event loop -----------------------------------------------------
    let mut current = placement;
    let mut draining = false;
    let mut drain_sent_at: Option<Instant> = None;
    let result = loop {
        if Instant::now() >= deadline {
            break Err(ProtoError::Malformed(format!(
                "deadline: sink at {}/{} unique after {:?}",
                shared.lock().sink().0,
                expected_unique,
                opts.deadline
            )));
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((index, Ok(ControlMsg::Report { seq: _, node: _, body }))) => {
                let mut s = shared.lock();
                s.nodes[index].last_seen = Instant::now();
                s.nodes[index].last_report = Some(body);
            }
            Ok((index, Ok(ControlMsg::Error { message }))) => {
                eprintln!("coordinator: node {index} error: {message}");
            }
            Ok((index, Ok(other))) => {
                eprintln!("coordinator: node {index} sent unexpected {other:?}");
            }
            Ok((index, Err(e))) => {
                let mut s = shared.lock();
                if s.nodes[index].alive {
                    eprintln!("coordinator: node {index} connection lost: {e}");
                    s.nodes[index].last_seen = Instant::now() - opts.heartbeat_timeout * 2;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Err(ProtoError::Malformed("all node connections lost".into()));
            }
        }

        // Death detection + reassignment.
        let dead_now: Vec<usize> = {
            let s = shared.lock();
            s.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.alive && n.last_seen.elapsed() > opts.heartbeat_timeout)
                .map(|(i, _)| i)
                .collect()
        };
        for dead in dead_now {
            let mut s = shared.lock();
            s.nodes[dead].alive = false;
            slots[dead].capacity = 0; // never place on it again
            eprintln!("coordinator: node {dead} '{}' declared dead", s.nodes[dead].name);
            let next = match reassign_dead(0, &demands, &slots, &current, dead) {
                Ok(p) => p,
                Err(e) => {
                    // Unplaceable: surface via the deadline path.
                    eprintln!("coordinator: reassignment impossible: {e}");
                    continue;
                }
            };
            // Nodes whose operator set changed get a superseding Assign
            // (their runtimes restart), so every cut edge they feed gets a
            // fresh epoch — a restarted producer is a new link identity.
            let changed: Vec<usize> = (0..s.nodes.len())
                .filter(|&n| n != dead && current.ops_on(n) != next.ops_on(n))
                .collect();
            for (edge, (from, _, _)) in spec.links.iter().enumerate() {
                if let Some(u) = next.node_of(from) {
                    if changed.contains(&u) {
                        *epochs.entry(edge).or_insert(0) += 1;
                    }
                }
            }
            s.generation += 1;
            s.reassignments += 1;
            let generation = s.generation;
            s.placement = Some(next.clone());
            drop(s);
            assign_and_start(&next, generation, &changed, &epochs, &senders);
            // Surviving upstream neighbours of moved consumers just get
            // their edges repointed — same link identity, replay covers
            // the handover.
            for (edge, (from, to, _)) in spec.links.iter().enumerate() {
                let (Some(u), Some(v)) = (next.node_of(from), next.node_of(to)) else { continue };
                if u == v || changed.contains(&u) {
                    continue;
                }
                let moved_consumer = current.node_of(to) != Some(v);
                if moved_consumer {
                    let _ = senders[u].send(&ControlMsg::Rewire {
                        edge,
                        addr: node_addrs[v].clone(),
                        epoch: epochs.get(&edge).copied().unwrap_or(0),
                    });
                }
            }
            eprintln!(
                "coordinator: generation {} placement: {:?}",
                generation,
                next.iter().collect::<Vec<_>>()
            );
            current = next;
        }

        // Completion: the sink ledger reached the expected unique count.
        let (unique, _, _) = shared.lock().sink();
        if unique >= expected_unique && !draining {
            draining = true;
            drain_sent_at = Some(Instant::now());
            eprintln!("coordinator: sink complete ({unique} unique) — draining");
            let s = shared.lock();
            for (i, sender) in senders.iter().enumerate() {
                if s.nodes[i].alive {
                    let _ = sender.send(&ControlMsg::Drain { job: spec.name.clone() });
                }
            }
        }
        // Give the drain a moment to produce final reports, then stop.
        if let Some(t) = drain_sent_at {
            if t.elapsed() >= Duration::from_millis(400) {
                break Ok(());
            }
        }
    };

    // ---- Teardown -------------------------------------------------------
    {
        let s = shared.lock();
        for (i, sender) in senders.iter().enumerate() {
            if s.nodes[i].alive {
                let _ = sender.send(&ControlMsg::Stop { job: spec.name.clone() });
            }
        }
    }
    // Collect the post-Stop final reports (they carry the authoritative
    // sink ledger) before shutting the daemons down.
    let settle_until = Instant::now() + Duration::from_millis(600);
    while Instant::now() < settle_until {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((index, Ok(ControlMsg::Report { body, .. }))) => {
                let mut s = shared.lock();
                s.nodes[index].last_seen = Instant::now();
                s.nodes[index].last_report = Some(body);
            }
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    {
        let s = shared.lock();
        for (i, sender) in senders.iter().enumerate() {
            if s.nodes[i].alive {
                let _ = sender.send(&ControlMsg::Shutdown);
            }
        }
    }
    for r in readers {
        let _ = r.join();
    }
    http_stop.store(true, Ordering::Release);
    if let Some(t) = http_thread {
        let _ = t.join();
    }

    result?;
    let s = shared.lock();
    let (unique, duplicates, _) = s.sink();
    Ok(ClusterSummary {
        job: s.job.clone(),
        nodes: s.nodes.len(),
        deaths: s.nodes.iter().filter(|n| !n.alive).count(),
        reassignments: s.reassignments,
        generation: s.generation,
        sink_unique: unique,
        sink_duplicates: duplicates,
        frames_in: s.dataplane_total("frames_in"),
        traced_in: s.dataplane_total("traced_in"),
        dup_frames: s.dataplane_total("dup_frames"),
        elapsed: started_at.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESCRIPTOR: &str = r#"{
        "name": "t",
        "operators": [
            {"name": "src", "kind": "source", "factory": "uid_source", "params": {"count": 10}},
            {"name": "win", "kind": "processor", "factory": "window_mean"},
            {"name": "sink", "kind": "processor", "factory": "uid_sink", "params": {"job": "t"}}
        ],
        "links": [
            {"from": "src", "to": "win", "partitioning": {"scheme": "shuffle"}},
            {"from": "win", "to": "sink"}
        ]
    }"#;

    #[test]
    fn spec_parses_operators_and_links_in_order() {
        let spec = JobSpec::parse(DESCRIPTOR).unwrap();
        assert_eq!(spec.name, "t");
        let names: Vec<&str> = spec.operators.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["src", "win", "sink"]);
        assert_eq!(spec.links.len(), 2);
        assert!(spec.links[0].2.is_some(), "partitioning carried");
        assert!(spec.links[1].2.is_none());
    }

    #[test]
    fn sub_descriptors_cut_edges_with_boundary_operators() {
        let spec = JobSpec::parse(DESCRIPTOR).unwrap();
        let placement = partition_graph(
            0,
            &spec.demands(),
            &[NodeSlot::new("a", 8), NodeSlot::new("b", 8), NodeSlot::new("c", 8)],
        )
        .unwrap();
        let addrs = vec!["1.1.1.1:1".to_string(), "2.2.2.2:2".to_string(), "3.3.3.3:3".to_string()];
        let epochs = HashMap::new();
        // Node 0 hosts src: gets the egress for edge 0 toward node 1.
        let sub0 = build_sub_descriptor(&spec, &placement, 0, &addrs, &epochs).unwrap();
        assert!(sub0.contains("__egress_0"));
        assert!(sub0.contains("2.2.2.2:2"));
        assert!(!sub0.contains("__ingress"));
        // Node 1 hosts win: ingress for edge 0, egress for edge 1.
        let sub1 = build_sub_descriptor(&spec, &placement, 1, &addrs, &epochs).unwrap();
        assert!(sub1.contains("__ingress_0"));
        assert!(sub1.contains("__egress_1"));
        assert!(sub1.contains("3.3.3.3:3"));
        assert!(sub1.contains("shuffle"), "original partitioning rides the ingress link");
        // Node 2 hosts sink: ingress only.
        let sub2 = build_sub_descriptor(&spec, &placement, 2, &addrs, &epochs).unwrap();
        assert!(sub2.contains("__ingress_1"));
        assert!(!sub2.contains("__egress"));
        // The sub-descriptors parse with the distribution registry (no
        // data plane: factories aren't invoked by parsing… they are — so
        // just validate JSON shape here).
        assert!(json::parse(&sub0).is_ok());
        assert!(json::parse(&sub2).is_ok());
    }

    #[test]
    fn colocated_job_needs_no_boundary_operators() {
        let spec = JobSpec::parse(DESCRIPTOR).unwrap();
        let placement = partition_graph(0, &spec.demands(), &[NodeSlot::new("solo", 16)]).unwrap();
        let sub =
            build_sub_descriptor(&spec, &placement, 0, &["9.9.9.9:9".to_string()], &HashMap::new())
                .unwrap();
        assert!(!sub.contains("__egress"));
        assert!(!sub.contains("__ingress"));
        assert!(sub.contains("uid_source"));
    }

    fn node(name: &str, report: JsonValue) -> NodeView {
        NodeView {
            name: name.into(),
            data_addr: "x".into(),
            pid: 1,
            capacity: 8,
            alive: true,
            last_seen: Instant::now(),
            last_report: Some(report),
        }
    }

    /// A node report; `{op:?}` quotes and escapes the operator name.
    fn report(op: &str, count: u64) -> JsonValue {
        json::parse(&format!(
            r#"{{"dataplane": {{"frames_in": 5, "traced_in": 2}},
                "sink": {{"unique": 7, "duplicates": 1, "mean_sum": 3.5}},
                "telemetry": {{{op:?}: {{"e2e": {{"buckets": [[3, {count}]],
                    "count": {count}, "sum": 100, "max": 40}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn prometheus_rendering_merges_sparse_histograms_across_nodes() {
        let s = Shared {
            job: "t".into(),
            expected: 10,
            nodes: vec![node("a", report("win", 4)), node("b", report("win", 6))],
            generation: 1,
            reassignments: 1,
            placement: None,
        };
        let merged = s.merged_telemetry();
        assert_eq!(merged["win"]["e2e"].count(), 10, "4 + 6 across nodes");
        let text = render_prometheus(&s);
        assert!(text.contains("neptune_cluster_nodes{state=\"alive\"} 2"));
        assert!(text.contains("neptune_cluster_latency_micros_count{op=\"win\",stage=\"e2e\"} 10"));
        assert!(text.contains("neptune_cluster_frames_in_total{node=\"a\"} 5"));
        assert!(text.contains("neptune_cluster_sink_unique_total{job=\"t\"} 7"));
        let nodes_json = render_nodes(&s);
        assert!(nodes_json.contains("\"pid\""));
        let cluster_json = render_cluster(&s);
        assert!(cluster_json.contains("\"traced_in\""));
    }

    // The line-level lint the job exposition passes in tests/telemetry.rs.
    include!("../../../tests/support/prometheus_lint.rs");

    /// A node name is a peer-supplied `Register` field and a job or
    /// operator name comes from a descriptor: none may break the
    /// exposition.
    #[test]
    fn prometheus_rendering_escapes_hostile_names() {
        let s = Shared {
            job: "nightly\nrun \\1".into(),
            expected: 10,
            nodes: vec![node("a\"b", report("w\"in", 4)), node("plain", report("w\"in", 6))],
            generation: 2,
            reassignments: 0,
            placement: None,
        };
        let text = render_prometheus(&s);
        let declared = lint_exposition(&text);
        assert_eq!(declared.len(), 13, "3 cluster + 3 sink + 6 data-plane + 1 latency family");
        assert!(text.contains("neptune_cluster_frames_in_total{node=\"a\\\"b\"} 5\n"));
        assert!(text.contains("neptune_cluster_expected_unique{job=\"nightly\\nrun \\\\1\"} 10\n"));
        assert!(text
            .contains("neptune_cluster_latency_micros_count{op=\"w\\\"in\",stage=\"e2e\"} 10\n"));
    }
}
