//! A cut edge is invisible to the consumer: the same stream reaches it
//! byte-identical, in order and on the same instance whether the link is an
//! in-process channel or `__egress` → loopback TCP → `__ingress` between
//! two [`DataPlane`]s.
//!
//! The consumers here never decode: they claim every frame through
//! [`StreamProcessor::process_encoded`] and record the raw message bytes
//! per instance, so "byte-identical" is checked on the bytes themselves.
//! Every case drives all four link shapes at once — Shuffle ×1, Shuffle ×3,
//! Fields ×3 and Broadcast ×2 — from one scripted source whose flush
//! boundaries (forced flushes between random-sized chunks, plus capacity
//! flushes of a random-sized buffer) are part of the input.

use neptune_cluster::dataplane::{AckMode, DataPlane, DataPlaneStats};
use neptune_core::descriptor::OperatorRegistry;
use neptune_core::graph::OperatorSpec;
use neptune_core::json::{self, JsonValue};
use neptune_core::metrics::JobMetrics;
use neptune_core::prelude::*;
use neptune_net::frame::FrameMessages;
use neptune_net::test_support::wait_for;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

/// `(consumer, parallelism, partitioning)`; the cut edge of consumer `i`
/// is edge `i`.
fn consumers() -> [(&'static str, usize, PartitioningScheme); 4] {
    [
        ("s1", 1, PartitioningScheme::Shuffle),
        ("s3", 3, PartitioningScheme::Shuffle),
        ("f3", 3, PartitioningScheme::by_field("k")),
        ("b2", 2, PartitioningScheme::Broadcast),
    ]
}

/// Messages each `(consumer, instance)` received, in arrival order.
type Ledger = BTreeMap<(String, usize), Vec<Vec<u8>>>;

struct Recorder {
    ledger: Arc<Mutex<Ledger>>,
}

impl StreamProcessor for Recorder {
    fn process(&mut self, _packet: &StreamPacket, _ctx: &mut OperatorContext) {
        unreachable!("the recorder claims every frame");
    }

    fn process_encoded(&mut self, batch: &FrameMessages, ctx: &mut OperatorContext) -> bool {
        let mut ledger = self.ledger.lock().unwrap();
        let seen = ledger.entry((ctx.operator().to_string(), ctx.instance())).or_default();
        seen.extend(batch.iter().map(<[u8]>::to_vec));
        true
    }
}

/// Emits `packets` in chunks of `chunks[i % len]`, forcing a flush of
/// every outgoing buffer after each chunk.
struct Scripted {
    packets: Arc<Vec<StreamPacket>>,
    chunks: Arc<Vec<usize>>,
    next: usize,
    chunk: usize,
}

impl StreamSource for Scripted {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        if self.next == self.packets.len() {
            return SourceStatus::Exhausted;
        }
        let size = self.chunks[self.chunk % self.chunks.len()];
        self.chunk += 1;
        let end = (self.next + size).min(self.packets.len());
        for packet in &self.packets[self.next..end] {
            if ctx.emit(packet).is_err() {
                return SourceStatus::Exhausted;
            }
        }
        let emitted = end - self.next;
        self.next = end;
        if ctx.force_flush_all().is_err() {
            return SourceStatus::Exhausted;
        }
        SourceStatus::Emitted(emitted)
    }
}

#[derive(Clone)]
struct Stream {
    packets: Arc<Vec<StreamPacket>>,
    chunks: Arc<Vec<usize>>,
    buffer_bytes: usize,
}

impl Stream {
    fn source(&self) -> impl Fn() -> Scripted + Send + Sync + 'static {
        let (packets, chunks) = (self.packets.clone(), self.chunks.clone());
        move || Scripted { packets: packets.clone(), chunks: chunks.clone(), next: 0, chunk: 0 }
    }

    fn config(&self, containment: ContainmentConfig) -> RuntimeConfig {
        RuntimeConfig { buffer_bytes: self.buffer_bytes, containment, ..RuntimeConfig::default() }
    }

    /// Records every consumer instance ends up with, all links together.
    fn expected_records(&self) -> usize {
        // Shuffle and Fields deliver each packet once, Broadcast ×2 twice.
        self.packets.len() * 5
    }
}

fn recorded(ledger: &Ledger) -> usize {
    ledger.values().map(Vec::len).sum()
}

fn wait_for_records(ledger: &Mutex<Ledger>, expected: usize) {
    let arrived = || recorded(&ledger.lock().unwrap());
    assert!(wait_for(TIMEOUT, || arrived() >= expected), "{} of {expected} records", arrived());
}

fn with_consumers(mut builder: GraphBuilder, ledger: &Arc<Mutex<Ledger>>) -> GraphBuilder {
    for (name, parallelism, _) in consumers() {
        let ledger = ledger.clone();
        builder =
            builder.processor_n(name, parallelism, move || Recorder { ledger: ledger.clone() });
    }
    builder
}

/// The reference: every consumer fed over an in-process link.
fn run_uncut(stream: &Stream) -> Ledger {
    let ledger = Arc::new(Mutex::new(Ledger::new()));
    let mut builder = with_consumers(GraphBuilder::new("uncut"), &ledger);
    builder = builder.source("src", stream.source());
    for (name, _, scheme) in consumers() {
        builder = builder.link("src", name, scheme);
    }
    let graph = builder.build().expect("valid graph");
    let job = LocalRuntime::new(stream.config(ContainmentConfig::default()))
        .submit(graph)
        .expect("uncut job deploys");
    assert!(job.await_sources(TIMEOUT), "uncut source timed out");
    job.stop();
    let out = ledger.lock().unwrap().clone();
    out
}

struct CutRun {
    ledger: Ledger,
    up_metrics: JobMetrics,
    up_plane: DataPlaneStats,
    down_plane: DataPlaneStats,
}

fn boundary_op(
    registry: &OperatorRegistry,
    factory: &str,
    edge: usize,
    addr: &str,
) -> OperatorSpec {
    let params = json::object([
        ("edge", JsonValue::Number(edge as f64)),
        ("epoch", JsonValue::Number(0.0)),
        ("addr", JsonValue::String(addr.to_string())),
    ]);
    let factory_fn = registry
        .processor_factory(factory, &params)
        .or_else(|| registry.source_factory(factory, &params))
        .expect("boundary operators are registered");
    OperatorSpec { name: format!("{factory}_{edge}"), parallelism: 1, factory: factory_fn }
}

/// The same stream with every link cut: `src → __egress_i` in one job,
/// `__ingress_i → consumer_i` in another, two data planes in between.
fn run_cut(stream: &Stream, up_containment: ContainmentConfig) -> CutRun {
    let up_plane = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).expect("bind up plane");
    let down_plane = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).expect("bind down plane");
    let down_addr = down_plane.local_addr().to_string();
    let ledger = Arc::new(Mutex::new(Ledger::new()));

    let mut down_registry = OperatorRegistry::new();
    down_plane.register_boundary_ops(&mut down_registry);
    let mut down = with_consumers(GraphBuilder::new("cut-down"), &ledger);
    for (edge, (name, _, scheme)) in consumers().into_iter().enumerate() {
        let ingress = boundary_op(&down_registry, "__ingress", edge, "");
        let ingress_name = ingress.name.clone();
        down = down.operator_spec(ingress).link(ingress_name, name, scheme);
    }
    let down = LocalRuntime::new(stream.config(ContainmentConfig::default()))
        .submit(down.build().expect("valid downstream half"))
        .expect("downstream half deploys");

    let mut up_registry = OperatorRegistry::new();
    up_plane.register_boundary_ops(&mut up_registry);
    let mut up = GraphBuilder::new("cut-up").source("src", stream.source());
    for edge in 0..consumers().len() {
        let egress = boundary_op(&up_registry, "__egress", edge, &down_addr);
        let egress_name = egress.name.clone();
        up = up.operator_spec(egress).link("src", egress_name, PartitioningScheme::Shuffle);
    }
    let up = LocalRuntime::new(stream.config(up_containment))
        .submit(up.build().expect("valid upstream half"))
        .expect("upstream half deploys");

    assert!(up.await_sources(TIMEOUT), "cut source timed out");
    assert!(up.settle(TIMEOUT), "upstream half did not settle");
    wait_for_records(&ledger, stream.expected_records());
    down_plane.drain_ingress();
    assert!(down.await_sources(TIMEOUT), "ingress sources did not drain");
    let up_plane_stats = up_plane.stats();
    let down_plane_stats = down_plane.stats();
    let up_metrics = up.stop();
    down.stop();
    up_plane.shutdown();
    down_plane.shutdown();
    let out = ledger.lock().unwrap().clone();
    CutRun { ledger: out, up_metrics, up_plane: up_plane_stats, down_plane: down_plane_stats }
}

fn arb_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        any::<i64>().prop_map(FieldValue::I64),
        any::<u64>().prop_map(FieldValue::U64),
        any::<f64>().prop_map(FieldValue::F64),
        any::<bool>().prop_map(FieldValue::Bool),
        "[a-zA-Z0-9 _:/,.-]{0,300}".prop_map(FieldValue::Str),
        proptest::collection::vec(any::<u8>(), 0..300).prop_map(FieldValue::Bytes),
        any::<u64>().prop_map(FieldValue::Timestamp),
    ]
}

/// A packet keyed by `k` (what the Fields link hashes) plus up to eight
/// fields of any of the seven types.
fn arb_packet() -> impl Strategy<Value = StreamPacket> {
    (0u64..8, proptest::collection::vec(("[a-z][a-z0-9_]{0,12}", arb_value()), 0..8)).prop_map(
        |(key, fields)| {
            let mut p = StreamPacket::new();
            p.push_field("k", FieldValue::U64(key));
            for (name, value) in fields {
                p.push_field(name, value);
            }
            p
        },
    )
}

fn arb_stream() -> impl Strategy<Value = Stream> {
    (
        proptest::collection::vec(arb_packet(), 0..120),
        proptest::collection::vec(1usize..40, 1..16),
        64usize..8192,
    )
        .prop_map(|(packets, chunks, buffer_bytes)| Stream {
            packets: Arc::new(packets),
            chunks: Arc::new(chunks),
            buffer_bytes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_cut_edge_delivers_what_an_in_process_link_delivers(stream in arb_stream()) {
        let uncut = run_uncut(&stream);
        let cut = run_cut(&stream, ContainmentConfig::default());
        prop_assert_eq!(recorded(&uncut), stream.expected_records());
        // Same bytes, same order, same instance — for every link shape.
        prop_assert_eq!(&cut.ledger, &uncut);
        let n = stream.packets.len() as u64;
        prop_assert_eq!(cut.up_plane.packets_out, 4 * n);
        prop_assert_eq!(cut.down_plane.packets_in, 4 * n);
        prop_assert_eq!(cut.down_plane.frames_in, cut.up_plane.frames_out);
        prop_assert_eq!(cut.down_plane.dup_frames, 0);
        prop_assert_eq!(cut.down_plane.traced_in, cut.up_plane.traced_out);
    }
}

#[test]
fn egress_under_containment_forwards_and_counts_the_same() {
    let packets: Vec<StreamPacket> = (0..2_000u64)
        .map(|i| {
            let mut p = StreamPacket::new();
            p.push_field("k", FieldValue::U64(i % 5));
            p.push_field("uid", FieldValue::U64(i));
            p.push_field("note", FieldValue::Str(format!("reading {i}")));
            p
        })
        .collect();
    let stream = Stream {
        packets: Arc::new(packets),
        chunks: Arc::new(vec![7, 64, 1, 300]),
        buffer_bytes: 2048,
    };
    let bare = run_cut(&stream, ContainmentConfig::default());
    let supervised = run_cut(&stream, ContainmentConfig::enabled());
    assert_eq!(supervised.ledger, bare.ledger, "the supervised branch forwards the same bytes");
    let n = stream.packets.len() as u64;
    for run in [&bare, &supervised] {
        let mut frames = 0;
        for edge in 0..consumers().len() {
            let egress = run.up_metrics.operator(&format!("__egress_{edge}"));
            assert_eq!(egress.packets_in, n, "a claimed frame counts its messages");
            assert_eq!(egress.packets_out, 0, "egress emits nothing locally");
            frames += egress.frames_in;
        }
        assert_eq!(run.up_plane.frames_out, frames, "one wire frame per inbound frame");
        assert_eq!(run.up_plane.packets_out, 4 * n);
        assert_eq!(run.down_plane.packets_in, 4 * n);
        assert_eq!(run.up_metrics.total_seq_violations(), 0);
        assert_eq!(run.up_metrics.containment.panics, 0);
    }
}
