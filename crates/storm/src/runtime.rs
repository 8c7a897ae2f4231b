//! The Storm-like execution engine.
//!
//! Faithful to the execution model the paper measures against (see the
//! crate docs): per-tuple serialization and transfer, a four-thread
//! message path, and unbounded queues with no flow control.
//!
//! ## Thread layout
//!
//! ```text
//! spout thread ──► spout send thread ──► transfer (router) thread ──► bolt input queue
//!                                                                        │
//! bolt executor thread ◄─────────────────────────────────────────────────┘
//!        │
//!        └──► bolt send thread ──► transfer thread ──► next bolt ...
//! ```
//!
//! Every tuple is individually serialized, individually routed, and
//! individually enqueued at each hop — which is precisely the behaviour
//! NEPTUNE's application-level batching removes (Fig. 7, Table I).

use crate::acker::AckTracker;
use crate::topology::{BoltCollector, SpoutCollector, SpoutStatus, Topology};
use crossbeam::channel::{unbounded, Receiver, Sender};
use neptune_core::metrics::{JobMetrics, MetricsRegistry};
use neptune_core::partition::{Partitioner, Route};
use neptune_core::{PacketCodec, StreamPacket};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-tuple wire overhead modeled for bandwidth accounting: a header
/// NEPTUNE pays **per batch**, Storm pays **per tuple**. A literal, not
/// NEPTUNE's header length: the baseline's bandwidth in Fig. 7 must not
/// move when our own wire format does.
pub const TUPLE_OVERHEAD: usize = 34;

/// Runtime configuration.
#[derive(Debug, Clone, Default)]
pub struct StormConfig {
    /// Delay inserted between spout `next_tuple` calls. The paper notes
    /// Storm needed such a wait to keep latency sane, at great throughput
    /// cost; `None` reproduces the paper's high-throughput setting.
    pub spout_wait: Option<Duration>,
    /// Enable the XOR acker (at-least-once tracking). The paper ran with
    /// the *"reliable message processing feature disabled"* for
    /// throughput, so this defaults to off; enabling it adds two acker
    /// messages per tuple hop — the overhead the paper avoided.
    pub acking: bool,
}

/// Mix a counter into a well-distributed 64-bit tuple id (splitmix64) —
/// the XOR acker needs ids that do not cancel by accident.
fn tuple_id(counter: u64) -> u64 {
    let mut z = counter.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum AckMsg {
    /// A spout emitted a root tuple.
    Track {
        root: u64,
    },
    /// A bolt emitted a child anchored to `root`.
    Anchor {
        root: u64,
        child: u64,
    },
    /// A tuple in the tree finished processing.
    Ack {
        root: u64,
        id: u64,
    },
    Stop,
}

/// Snapshot alias — the same metric shapes as NEPTUNE jobs, so benches
/// print both engines uniformly.
pub type StormMetrics = JobMetrics;

enum ExecMsg {
    Tuple {
        bytes: Vec<u8>,
        /// Root tuple id of the processing tree (0 when acking is off).
        root: u64,
        /// This tuple's id within the tree (0 when acking is off).
        id: u64,
    },
    Stop,
}

struct RoutedTuple {
    dst_bolt: usize,
    dst_task: usize,
    bytes: Vec<u8>,
    root: u64,
    id: u64,
}

enum RouterMsg {
    Tuple(RoutedTuple),
    Stop,
}

/// Deploys topologies.
pub struct StormRuntime {
    config: StormConfig,
}

impl StormRuntime {
    /// Runtime with the given configuration.
    pub fn new(config: StormConfig) -> Self {
        StormRuntime { config }
    }

    /// Launch a topology.
    pub fn submit(&self, topology: Topology) -> StormJob {
        deploy(topology, self.config.clone())
    }
}

/// A running Storm-like job.
pub struct StormJob {
    registry: MetricsRegistry,
    stop_flag: Arc<AtomicBool>,
    active_spouts: Arc<AtomicUsize>,
    in_flight: Arc<AtomicI64>,
    spout_threads: Vec<std::thread::JoinHandle<()>>,
    router_tx: Sender<RouterMsg>,
    ack_tx: Option<Sender<AckMsg>>,
    other_threads: Vec<std::thread::JoinHandle<()>>,
    /// Depth gauge across all bolt input queues (no-backpressure witness).
    queue_depth: Arc<AtomicI64>,
    /// Fully-processed spout tuple trees (acking mode only).
    acked_trees: Arc<AtomicU64>,
}

impl StormJob {
    /// Live metrics snapshot.
    pub fn metrics(&self) -> StormMetrics {
        self.registry.snapshot()
    }

    /// Spout threads still running.
    pub fn active_spouts(&self) -> usize {
        self.active_spouts.load(Ordering::Acquire)
    }

    /// Tuples currently queued or executing anywhere in the topology.
    /// Unbounded growth here is Storm's missing-backpressure signature.
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Current total depth of all bolt input queues.
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.load(Ordering::Acquire)
    }

    /// Spout tuple trees fully acked (0 unless acking was enabled).
    pub fn acked_trees(&self) -> u64 {
        self.acked_trees.load(Ordering::Acquire)
    }

    /// Wait until the spouts exhausted and the topology drained.
    pub fn await_quiescent(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.active_spouts() > 0 || self.in_flight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        true
    }

    /// Stop the topology and return the final metrics.
    pub fn stop(mut self) -> StormMetrics {
        self.stop_flag.store(true, Ordering::Release);
        for t in self.spout_threads.drain(..) {
            let _ = t.join();
        }
        // Drain whatever remains, then cascade Stop through the router.
        self.await_quiescent(Duration::from_secs(30));
        let _ = self.router_tx.send(RouterMsg::Stop);
        if let Some(ack_tx) = self.ack_tx.take() {
            let _ = ack_tx.send(AckMsg::Stop);
        }
        for t in self.other_threads.drain(..) {
            let _ = t.join();
        }
        self.registry.snapshot()
    }
}

fn deploy(topology: Topology, config: StormConfig) -> StormJob {
    let registry = MetricsRegistry::new();
    let stop_flag = Arc::new(AtomicBool::new(false));
    let in_flight = Arc::new(AtomicI64::new(0));
    let queue_depth = Arc::new(AtomicI64::new(0));
    let mut other_threads = Vec::new();

    // Subscriptions inverted: component name -> [(bolt index, scheme)].
    let mut downstream: HashMap<String, Vec<(usize, neptune_core::PartitioningScheme)>> =
        HashMap::new();
    for (bi, bolt) in topology.bolts.iter().enumerate() {
        for (up, grouping) in &bolt.subscriptions {
            downstream.entry(up.clone()).or_default().push((bi, grouping.to_scheme()));
        }
    }
    let bolt_parallelism: Vec<usize> = topology.bolts.iter().map(|b| b.parallelism).collect();

    // Router (transfer) thread and bolt input channels.
    let (router_tx, router_rx) = unbounded::<RouterMsg>();
    let mut bolt_inputs: Vec<Vec<Sender<ExecMsg>>> = Vec::new();
    let mut bolt_input_rx: Vec<Vec<Receiver<ExecMsg>>> = Vec::new();
    for bolt in &topology.bolts {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..bolt.parallelism {
            let (tx, rx) = unbounded::<ExecMsg>();
            txs.push(tx);
            rxs.push(rx);
        }
        bolt_inputs.push(txs);
        bolt_input_rx.push(rxs);
    }

    {
        let inputs = bolt_inputs.clone();
        let depth = queue_depth.clone();
        let router = std::thread::Builder::new()
            .name(format!("{}-transfer", topology.name))
            .spawn(move || {
                while let Ok(msg) = router_rx.recv() {
                    match msg {
                        RouterMsg::Tuple(t) => {
                            depth.fetch_add(1, Ordering::Relaxed);
                            let _ = inputs[t.dst_bolt][t.dst_task].send(ExecMsg::Tuple {
                                bytes: t.bytes,
                                root: t.root,
                                id: t.id,
                            });
                        }
                        RouterMsg::Stop => {
                            for bolt in &inputs {
                                for task in bolt {
                                    let _ = task.send(ExecMsg::Stop);
                                }
                            }
                            return;
                        }
                    }
                }
            })
            .expect("spawn transfer thread");
        other_threads.push(router);
    }

    // Acker executor (only when acking is enabled): the XOR tracker runs
    // on its own thread fed by Track/Anchor/Ack messages — Storm's acker
    // bolt.
    let acked_trees = Arc::new(AtomicU64::new(0));
    let ack_tx: Option<Sender<AckMsg>> = if config.acking {
        let (tx, rx) = unbounded::<AckMsg>();
        let acked = acked_trees.clone();
        let t = std::thread::Builder::new()
            .name(format!("{}-acker", topology.name))
            .spawn(move || {
                let mut tracker = AckTracker::new();
                while let Ok(msg) = rx.recv() {
                    match msg {
                        AckMsg::Track { root } => tracker.track(root, root),
                        AckMsg::Anchor { root, child } => {
                            let _ = tracker.anchor(root, child);
                        }
                        AckMsg::Ack { root, id } => {
                            if let Ok(true) = tracker.ack(root, id) {
                                acked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        AckMsg::Stop => break,
                    }
                }
            })
            .expect("spawn acker thread");
        other_threads.push(t);
        Some(tx)
    } else {
        None
    };

    // Shared emit path: encode + route + hand to the send thread.
    struct EmitPath {
        partitioners: Vec<(usize, Partitioner)>,
        codec: PacketCodec,
        to_send: Sender<RoutedTuple>,
        counters: Arc<neptune_core::metrics::OperatorCounters>,
        in_flight: Arc<AtomicI64>,
        bolt_parallelism: Arc<Vec<usize>>,
        ack_tx: Option<Sender<AckMsg>>,
        id_counter: u64,
    }

    impl EmitPath {
        /// Emit one tuple. `root == 0` means this is a spout emission
        /// (each routed copy becomes its own tracked root); otherwise the
        /// copies are anchored to the given tree.
        fn emit(&mut self, tuple: &StreamPacket, root: u64) {
            for pi in 0..self.partitioners.len() {
                let bolt_idx = self.partitioners[pi].0;
                let n = self.bolt_parallelism[bolt_idx];
                let bytes = self.codec.encode(tuple).expect("encode tuple");
                let route = self.partitioners[pi].1.route(tuple, n);
                match route {
                    Route::One(task) => {
                        let (r, id) = self.next_ids(root);
                        self.in_flight.fetch_add(1, Ordering::AcqRel);
                        self.counters.packets_out.fetch_add(1, Ordering::Relaxed);
                        let _ = self.to_send.send(RoutedTuple {
                            dst_bolt: bolt_idx,
                            dst_task: task,
                            bytes,
                            root: r,
                            id,
                        });
                    }
                    Route::All => {
                        for task in 0..n {
                            let (r, id) = self.next_ids(root);
                            self.in_flight.fetch_add(1, Ordering::AcqRel);
                            self.counters.packets_out.fetch_add(1, Ordering::Relaxed);
                            let _ = self.to_send.send(RoutedTuple {
                                dst_bolt: bolt_idx,
                                dst_task: task,
                                bytes: bytes.clone(),
                                root: r,
                                id,
                            });
                        }
                    }
                }
            }
        }

        /// Allocate ids and notify the acker, mirroring Storm's tracking:
        /// spout emissions start a tree; bolt emissions anchor to theirs.
        fn next_ids(&mut self, root: u64) -> (u64, u64) {
            let Some(ack_tx) = &self.ack_tx else {
                return (0, 0);
            };
            self.id_counter += 1;
            let id = tuple_id(self.id_counter);
            if root == 0 {
                let _ = ack_tx.send(AckMsg::Track { root: id });
                (id, id)
            } else {
                let _ = ack_tx.send(AckMsg::Anchor { root, child: id });
                (root, id)
            }
        }
    }

    let bolt_parallelism = Arc::new(bolt_parallelism);

    // Per-executor send thread: forwards routed tuples to the router one
    // at a time (Storm's executor send thread).
    let spawn_send_thread = |name: String,
                             rx: Receiver<RoutedTuple>,
                             router_tx: Sender<RouterMsg>,
                             counters: Arc<neptune_core::metrics::OperatorCounters>|
     -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                while let Ok(t) = rx.recv() {
                    counters
                        .bytes_out
                        .fetch_add((t.bytes.len() + TUPLE_OVERHEAD) as u64, Ordering::Relaxed);
                    counters.frames_out.fetch_add(1, Ordering::Relaxed);
                    let _ = router_tx.send(RouterMsg::Tuple(t));
                }
            })
            .expect("spawn send thread")
    };

    // ---- Spout threads. ----
    let active_spouts = Arc::new(AtomicUsize::new(0));
    let mut spout_threads = Vec::new();
    for spout_spec in &topology.spouts {
        let counters = registry.for_operator(&spout_spec.name);
        let subs = downstream.get(&spout_spec.name).cloned().unwrap_or_default();
        for task in 0..spout_spec.parallelism {
            let (send_tx, send_rx) = unbounded::<RoutedTuple>();
            other_threads.push(spawn_send_thread(
                format!("{}-{}-{}-send", topology.name, spout_spec.name, task),
                send_rx,
                router_tx.clone(),
                counters.clone(),
            ));
            let mut emit_path = EmitPath {
                partitioners: subs
                    .iter()
                    .map(|(bi, scheme)| (*bi, Partitioner::new(scheme)))
                    .collect(),
                codec: PacketCodec::new(),
                to_send: send_tx,
                counters: counters.clone(),
                in_flight: in_flight.clone(),
                bolt_parallelism: bolt_parallelism.clone(),
                ack_tx: ack_tx.clone(),
                id_counter: (task as u64) << 40,
            };
            let mut spout = (spout_spec.factory)();
            let stop = stop_flag.clone();
            let active = active_spouts.clone();
            let wait = config.spout_wait;
            let counters = counters.clone();
            active.fetch_add(1, Ordering::AcqRel);
            let t = std::thread::Builder::new()
                .name(format!("{}-{}-{}", topology.name, spout_spec.name, task))
                .spawn(move || {
                    spout.open();
                    let mut collector = SpoutCollector::default();
                    while !stop.load(Ordering::Acquire) {
                        match spout.next_tuple(&mut collector) {
                            SpoutStatus::Emitted(_) => {
                                counters.executions.fetch_add(1, Ordering::Relaxed);
                                for tuple in collector.emitted.drain(..) {
                                    emit_path.emit(&tuple, 0);
                                }
                                if let Some(w) = wait {
                                    std::thread::sleep(w);
                                }
                            }
                            SpoutStatus::Idle => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            SpoutStatus::Exhausted => break,
                        }
                    }
                    spout.close();
                    active.fetch_sub(1, Ordering::AcqRel);
                })
                .expect("spawn spout thread");
            spout_threads.push(t);
        }
    }

    // ---- Bolt executor threads. ----
    for (bi, bolt_spec) in topology.bolts.iter().enumerate() {
        let counters = registry.for_operator(&bolt_spec.name);
        let subs = downstream.get(&bolt_spec.name).cloned().unwrap_or_default();
        for (task, rx) in bolt_input_rx[bi].iter().enumerate() {
            let rx = rx.clone();
            let (send_tx, send_rx) = unbounded::<RoutedTuple>();
            other_threads.push(spawn_send_thread(
                format!("{}-{}-{}-send", topology.name, bolt_spec.name, task),
                send_rx,
                router_tx.clone(),
                counters.clone(),
            ));
            let mut emit_path = EmitPath {
                partitioners: subs
                    .iter()
                    .map(|(bj, scheme)| (*bj, Partitioner::new(scheme)))
                    .collect(),
                codec: PacketCodec::new(),
                to_send: send_tx,
                counters: counters.clone(),
                in_flight: in_flight.clone(),
                bolt_parallelism: bolt_parallelism.clone(),
                ack_tx: ack_tx.clone(),
                id_counter: ((bi as u64 + 1) << 50) | ((task as u64) << 40),
            };
            let mut bolt = (bolt_spec.factory)();
            let counters = counters.clone();
            let in_flight = in_flight.clone();
            let depth = queue_depth.clone();
            let t = std::thread::Builder::new()
                .name(format!("{}-{}-{}", topology.name, bolt_spec.name, task))
                .spawn(move || {
                    bolt.prepare();
                    let mut codec = PacketCodec::new();
                    let mut workhorse = StreamPacket::new();
                    let mut collector = BoltCollector::default();
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            ExecMsg::Tuple { bytes, root, id } => {
                                depth.fetch_sub(1, Ordering::Relaxed);
                                counters.executions.fetch_add(1, Ordering::Relaxed);
                                if codec.decode_into(&bytes, &mut workhorse).is_ok() {
                                    counters.packets_in.fetch_add(1, Ordering::Relaxed);
                                    counters.frames_in.fetch_add(1, Ordering::Relaxed);
                                    bolt.execute(&workhorse, &mut collector);
                                    for tuple in collector.emitted.drain(..) {
                                        emit_path.emit(&tuple, root);
                                    }
                                    collector.acked = 0;
                                    collector.failed = 0;
                                    // BasicBolt semantics: the input tuple
                                    // is acked once execute returns and its
                                    // children are anchored.
                                    if let Some(ack_tx) = &emit_path.ack_tx {
                                        let _ = ack_tx.send(AckMsg::Ack { root, id });
                                    }
                                } else {
                                    counters.seq_violations.fetch_add(1, Ordering::Relaxed);
                                }
                                in_flight.fetch_sub(1, Ordering::AcqRel);
                            }
                            ExecMsg::Stop => break,
                        }
                    }
                    bolt.cleanup();
                })
                .expect("spawn bolt thread");
            other_threads.push(t);
        }
    }

    StormJob {
        registry,
        stop_flag,
        active_spouts,
        in_flight,
        spout_threads,
        router_tx,
        ack_tx,
        other_threads,
        queue_depth,
        acked_trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Bolt, SpoutStatus, StormSpout, TopologyBuilder};
    use neptune_core::{FieldValue, StreamPacket};
    use std::sync::atomic::AtomicU64;

    struct CountSpout {
        left: u64,
        next: u64,
    }
    impl StormSpout for CountSpout {
        fn next_tuple(&mut self, c: &mut SpoutCollector) -> SpoutStatus {
            if self.left == 0 {
                return SpoutStatus::Exhausted;
            }
            self.left -= 1;
            let mut p = StreamPacket::new();
            p.push_field("n", FieldValue::U64(self.next));
            self.next += 1;
            c.emit(p);
            SpoutStatus::Emitted(1)
        }
    }

    struct ForwardBolt;
    impl Bolt for ForwardBolt {
        fn execute(&mut self, t: &StreamPacket, c: &mut BoltCollector) {
            c.emit(t.clone());
        }
    }

    struct SumBolt {
        seen: Arc<AtomicU64>,
        sum: Arc<AtomicU64>,
    }
    impl Bolt for SumBolt {
        fn execute(&mut self, t: &StreamPacket, _c: &mut BoltCollector) {
            self.seen.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(t.get("n").unwrap().as_u64().unwrap(), Ordering::Relaxed);
        }
    }

    #[test]
    fn relay_topology_delivers_all_tuples() {
        let n = 5_000u64;
        let seen = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let (s2, m2) = (seen.clone(), sum.clone());
        let topo = TopologyBuilder::new("relay")
            .set_spout("spout", 1, move || CountSpout { left: n, next: 0 })
            .set_bolt("relay", 1, || ForwardBolt)
            .shuffle_grouping("spout")
            .set_bolt("sink", 1, move || SumBolt { seen: s2.clone(), sum: m2.clone() })
            .shuffle_grouping("relay")
            .build()
            .unwrap();
        let job = StormRuntime::new(StormConfig::default()).submit(topo);
        assert!(job.await_quiescent(Duration::from_secs(30)));
        let metrics = job.stop();
        assert_eq!(seen.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        assert_eq!(metrics.operator("spout").packets_out, n);
        assert_eq!(metrics.operator("relay").packets_in, n);
        assert_eq!(metrics.operator("sink").packets_in, n);
    }

    #[test]
    fn per_tuple_transfer_no_batching() {
        // Storm's signature: frames == tuples (every tuple its own frame).
        let n = 1_000u64;
        let seen = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let (s2, m2) = (seen.clone(), sum.clone());
        let topo = TopologyBuilder::new("t")
            .set_spout("spout", 1, move || CountSpout { left: n, next: 0 })
            .set_bolt("sink", 1, move || SumBolt { seen: s2.clone(), sum: m2.clone() })
            .shuffle_grouping("spout")
            .build()
            .unwrap();
        let job = StormRuntime::new(StormConfig::default()).submit(topo);
        job.await_quiescent(Duration::from_secs(30));
        let metrics = job.stop();
        let spout = metrics.operator("spout");
        assert_eq!(spout.frames_out, n, "per-tuple transfer means one frame per tuple");
        assert!(
            spout.bytes_out >= n * TUPLE_OVERHEAD as u64,
            "every tuple pays the header overhead"
        );
    }

    #[test]
    fn fields_grouping_colocates() {
        let seen_by = Arc::new(parking_lot::Mutex::new(HashMap::<u64, usize>::new()));
        let violations = Arc::new(AtomicU64::new(0));
        struct KeySink {
            id: usize,
            seen_by: Arc<parking_lot::Mutex<HashMap<u64, usize>>>,
            violations: Arc<AtomicU64>,
        }
        impl Bolt for KeySink {
            fn execute(&mut self, t: &StreamPacket, _c: &mut BoltCollector) {
                let key = t.get("n").unwrap().as_u64().unwrap() % 13;
                let mut map = self.seen_by.lock();
                match map.get(&key) {
                    Some(&prev) if prev != self.id => {
                        self.violations.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        map.insert(key, self.id);
                    }
                }
            }
        }
        let next_id = Arc::new(AtomicUsize::new(0));
        let (sb, v, ni) = (seen_by.clone(), violations.clone(), next_id.clone());
        struct ModSpout {
            left: u64,
        }
        impl StormSpout for ModSpout {
            fn next_tuple(&mut self, c: &mut SpoutCollector) -> SpoutStatus {
                if self.left == 0 {
                    return SpoutStatus::Exhausted;
                }
                self.left -= 1;
                let mut p = StreamPacket::new();
                p.push_field("n", FieldValue::U64(self.left % 13));
                c.emit(p);
                SpoutStatus::Emitted(1)
            }
        }
        let topo = TopologyBuilder::new("keyed")
            .set_spout("spout", 1, || ModSpout { left: 1000 })
            .set_bolt("sink", 4, move || KeySink {
                id: ni.fetch_add(1, Ordering::Relaxed),
                seen_by: sb.clone(),
                violations: v.clone(),
            })
            .fields_grouping("spout", vec!["n".into()])
            .build()
            .unwrap();
        let job = StormRuntime::new(StormConfig::default()).submit(topo);
        job.await_quiescent(Duration::from_secs(30));
        job.stop();
        assert_eq!(violations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn slow_bolt_builds_unbounded_queues() {
        // No backpressure: a fast spout against a slow bolt must build
        // queue depth rather than throttle.
        struct SlowBolt;
        impl Bolt for SlowBolt {
            fn execute(&mut self, _t: &StreamPacket, _c: &mut BoltCollector) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let topo = TopologyBuilder::new("slow")
            .set_spout("spout", 1, || CountSpout { left: 8_000, next: 0 })
            .set_bolt("slow", 1, || SlowBolt)
            .shuffle_grouping("spout")
            .build()
            .unwrap();
        let job = StormRuntime::new(StormConfig::default()).submit(topo);
        // Give the spout a moment to run ahead.
        std::thread::sleep(Duration::from_millis(200));
        let depth = job.in_flight();
        assert!(depth > 100, "expected a queue buildup without backpressure, in-flight = {depth}");
        job.stop();
    }

    #[test]
    fn spout_wait_throttles_emission() {
        let topo = TopologyBuilder::new("waited")
            .set_spout("spout", 1, || CountSpout { left: 1_000_000, next: 0 })
            .set_bolt("sink", 1, || ForwardBolt)
            .shuffle_grouping("spout")
            .build()
            .unwrap();
        let job = StormRuntime::new(StormConfig {
            spout_wait: Some(Duration::from_millis(1)),
            ..Default::default()
        })
        .submit(topo);
        std::thread::sleep(Duration::from_millis(200));
        let emitted = job.metrics().operator("spout").packets_out;
        job.stop_flag.store(true, Ordering::Release);
        job.stop();
        assert!(emitted < 1_000, "spout wait must throttle: emitted {emitted}");
    }

    #[test]
    fn acking_tracks_every_tree_to_completion() {
        let n = 2_000u64;
        let seen = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let (s2, m2) = (seen.clone(), sum.clone());
        let topo = TopologyBuilder::new("acked")
            .set_spout("spout", 1, move || CountSpout { left: n, next: 0 })
            .set_bolt("relay", 1, || ForwardBolt)
            .shuffle_grouping("spout")
            .set_bolt("sink", 1, move || SumBolt { seen: s2.clone(), sum: m2.clone() })
            .shuffle_grouping("relay")
            .build()
            .unwrap();
        let job =
            StormRuntime::new(StormConfig { acking: true, ..Default::default() }).submit(topo);
        assert!(job.await_quiescent(Duration::from_secs(30)));
        // Let the acker drain its channel.
        let deadline = Instant::now() + Duration::from_secs(10);
        while job.acked_trees() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let acked = job.acked_trees();
        job.stop();
        assert_eq!(seen.load(Ordering::Relaxed), n);
        assert_eq!(acked, n, "every spout tuple tree must fully ack");
    }

    #[test]
    fn acking_disabled_reports_zero_trees() {
        let topo = TopologyBuilder::new("unacked")
            .set_spout("spout", 1, || CountSpout { left: 100, next: 0 })
            .set_bolt("sink", 1, || ForwardBolt)
            .shuffle_grouping("spout")
            .build()
            .unwrap();
        let job = StormRuntime::new(StormConfig::default()).submit(topo);
        job.await_quiescent(Duration::from_secs(30));
        assert_eq!(job.acked_trees(), 0);
        job.stop();
    }

    #[test]
    fn all_grouping_replicates() {
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        struct CountBolt(Arc<AtomicU64>);
        impl Bolt for CountBolt {
            fn execute(&mut self, _t: &StreamPacket, _c: &mut BoltCollector) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let topo = TopologyBuilder::new("bcast")
            .set_spout("spout", 1, || CountSpout { left: 100, next: 0 })
            .set_bolt("sink", 3, move || CountBolt(s2.clone()))
            .all_grouping("spout")
            .build()
            .unwrap();
        let job = StormRuntime::new(StormConfig::default()).submit(topo);
        job.await_quiescent(Duration::from_secs(30));
        job.stop();
        assert_eq!(seen.load(Ordering::Relaxed), 300);
    }
}
