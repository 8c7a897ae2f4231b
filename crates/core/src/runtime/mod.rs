//! The NEPTUNE runtime: deploys a [`Graph`] onto Granules resources and
//! orchestrates the optimized data plane.
//!
//! ## How the paper's pieces map to this module
//!
//! * **Resources & tasks (§II)** — each processor instance becomes one
//!   Granules [`neptune_granules::ComputationalTask`] with data-driven
//!   scheduling; each source instance is a cooperatively scheduled
//!   [`neptune_granules::IoTask`] pump (sources *pull* from external
//!   systems, §III-A2).
//! * **Batched scheduling (§III-B2)** — frame deliveries signal the task;
//!   Granules coalesces signals, and one scheduled execution drains the
//!   whole inbound queue in chunks of a fixed number of frames.
//! * **Two-tier thread model (§IV-C)** — worker threads (the resource
//!   pools) never touch sockets; a small event-driven IO tier
//!   ([`neptune_granules::IoPool`] plus a hierarchical timer wheel) hosts
//!   *every* background duty — source pumps (which serve their channels'
//!   flush deadlines), socket tasks, the telemetry sampler — so idle cost
//!   and thread count stay O(io_threads) regardless of source parallelism.
//! * **Backpressure (§III-B4)** — inbound queues are watermark-bounded;
//!   they form the bounded ingress queue between the tiers. A link that
//!   cannot take a batch — a gated queue, a full TCP sender queue — parks
//!   whoever feeds it, source pump or processor, and the link's space
//!   listener wakes them: *"the stream processors are not scheduled again
//!   until these write operations are successful"*. Nothing inside the
//!   graph drops a packet; a job that sets `ContainmentConfig::max_stall`
//!   lets a pump held back that long shed at its source.
//! * **Correctness (§I-B)** — per-channel contiguous sequence numbers are
//!   validated on receive; any loss, duplication, or reordering increments
//!   `seq_violations` (asserted zero by the test suite).
//! * **Observability (§IV)** — when [`RuntimeConfig`] enables telemetry,
//!   every operator records end-to-end latency plus a four-stage breakdown
//!   into lock-free histograms, and a periodic IO-tier task keeps a
//!   bounded time series of counters and queue gauges; per-tier gauges
//!   (threads, live/queued tasks, timer depth, parks/wakes) surface via
//!   [`JobHandle::thread_model`]. See [`JobHandle::telemetry`].
//!
//! Deadlock freedom: no task of a job, on either tier, waits on its
//! thread. A processor or pump whose output a link refuses keeps it staged
//! and parks, a sender task parks on its socket — so the task that makes
//! room always finds a thread, even the only one.

mod lifecycle;
mod pumps;
mod scrape;
mod wiring;

use crate::channel::ChannelEndpoint;
use crate::checkpoint::CheckpointCoordinator;
use crate::config::RuntimeConfig;
use crate::dead_letter::{DeadLetter, DeadLetterQueue};
use crate::graph::Graph;
use crate::metrics::{JobMetrics, MetricsRegistry, ThreadModelStats};
use crate::telemetry::{QueueGauge, TelemetryHub, TelemetrySample, TelemetrySnapshot};
use neptune_granules::sync::Mutex;
use neptune_granules::{
    IoPool, IoPoolStats, IoSpawner, IoTaskHandle, Reactor, ReactorHandle, ReactorStats, Resource,
};
use neptune_link::Link;
use neptune_net::frame::Frame;
use neptune_net::pool::BytesPool;
use neptune_net::tcp::TcpReceiver;
use neptune_net::watermark::WatermarkQueue;
use neptune_telemetry::{FlightRecorder, RuntimeEvent, SampleRing, SpanRing};
use pumps::PumpGauge;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Job submission failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The runtime configuration failed validation.
    Config(String),
    /// Socket setup failed (TCP transport mode).
    Io(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Config(m) => write!(f, "invalid configuration: {m}"),
            SubmitError::Io(m) => write!(f, "io error during deployment: {m}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Deploys stream processing graphs as jobs on this machine.
pub struct LocalRuntime {
    config: RuntimeConfig,
}

impl LocalRuntime {
    /// Runtime with the given job-wide configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        LocalRuntime { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Deploy a graph; operators start immediately.
    pub fn submit(&self, graph: Graph) -> Result<JobHandle, SubmitError> {
        self.config.validate().map_err(SubmitError::Config)?;
        wiring::deploy(graph, self.config.clone())
    }
}

/// A running NEPTUNE job.
pub struct JobHandle {
    stop_flag: Arc<AtomicBool>,
    /// Live-pump counter and the job's one lifecycle condvar: pumps notify
    /// it when they finish, `await_sources` and `settle` wait on it.
    pump_gauge: Arc<PumpGauge>,
    /// IO-task handles of every source pump, for the stop-time wake sweep.
    pump_handles: Vec<IoTaskHandle>,
    /// The job's IO tier; `None` only after `stop` has consumed it.
    io_pool: Option<IoPool>,
    /// The network reactor serving readiness events to TCP IO tasks;
    /// `None` when the transport is in-process or `stop` has consumed it.
    reactor: Option<Reactor>,
    resources: Vec<Resource>,
    /// Processor task handles grouped by operator, in topological order.
    processor_handles: Vec<(String, Vec<neptune_granules::TaskHandle>)>,
    /// Every channel endpoint's "holds a buffered message or staged work"
    /// flag, in deployment order: what `settle()` reads of endpoints that
    /// live tasks own.
    has_data: Vec<Arc<AtomicBool>>,
    /// Endpoints terminated processors left with staged work: no task owns
    /// them any more, so `settle()` offers them to their links.
    handed_over: Arc<Mutex<Vec<ChannelEndpoint>>>,
    /// `(operator, instance) -> resource index`, for observability and
    /// placement tests.
    placement: Vec<(String, usize, usize)>,
    /// Bound address of the live scrape endpoint; `None` when no
    /// `scrape_addr` was configured.
    scrape_addr: Option<std::net::SocketAddr>,
    /// Everything a metrics read needs; the sampler and the scrape routes
    /// hold the same `Arc`.
    shared: Arc<JobShared>,
}

/// The job's read-side state: every counter, gauge, ring and stat handle
/// that [`JobHandle`], the telemetry sampler and the scrape routes fold
/// into [`JobMetrics`] and [`TelemetrySnapshot`]. It owns no thread — the
/// execution plane is reached through weak stat handles — so an IO task
/// may keep it alive without keeping the job alive.
pub(crate) struct JobShared {
    graph_name: String,
    registry: MetricsRegistry,
    pool: Arc<BytesPool>,
    queues: Vec<Arc<WatermarkQueue<Frame>>>,
    /// Every channel's link stack, in deployment order (link stats).
    links: Vec<Arc<Link>>,
    receivers: Mutex<Vec<TcpReceiver>>,
    /// Per-operator latency recorders; `None` when telemetry is disabled.
    telemetry_hub: Option<Arc<TelemetryHub>>,
    /// Time series the periodic sampler task records into; `None` when
    /// telemetry is disabled.
    series: Option<Arc<SampleRing<TelemetrySample>>>,
    /// Poison-batch quarantine; `None` when containment is disabled.
    dead_letters: Option<Arc<DeadLetterQueue>>,
    /// Per-stage span ring for causal packet tracing; `None` when
    /// `trace_sample_every` is 0.
    spans: Option<Arc<SpanRing>>,
    /// Flight recorder of structured runtime events.
    recorder: Arc<FlightRecorder>,
    /// Packets the source pumps shed, counted as each episode ends.
    shed_total: Arc<AtomicU64>,
    /// Aligned-snapshot coordinator; `None` when checkpointing is disabled.
    checkpoints: Option<Arc<CheckpointCoordinator>>,
    /// Stat handles onto the execution plane; each reads zero once its
    /// tier has shut down.
    io: IoSpawner,
    workers: Vec<IoSpawner>,
    reactor: Option<ReactorHandle>,
}

/// Network-tier gauges folded into [`ThreadModelStats`] alongside the
/// IO-pool counters: reactor-side (interests, dispatches, re-arms) plus
/// receiver-side (open connections, accept backlog peak).
#[derive(Debug, Clone, Copy, Default)]
struct NetGauges {
    reactor: ReactorStats,
    connections: usize,
    accept_backlog_peak: u64,
}

/// One reading of the execution plane. Live reads come from
/// [`JobShared::plane`]; `stop()` supplies the values it captured around
/// the teardown, when the stat handles already read zero.
struct PlaneStats {
    io: IoPoolStats,
    worker_threads: usize,
    worker_panics: u64,
    net: NetGauges,
}

impl JobShared {
    /// Current network-tier gauges (reactor + receivers).
    fn net_gauges(&self) -> NetGauges {
        let receivers = self.receivers.lock();
        NetGauges {
            reactor: self.reactor.as_ref().map(|r| r.stats()).unwrap_or_default(),
            connections: receivers.iter().map(|r| r.connections()).sum(),
            accept_backlog_peak: receivers
                .iter()
                .map(|r| r.accept_backlog_peak())
                .max()
                .unwrap_or(0),
        }
    }

    fn plane(&self) -> PlaneStats {
        let (worker_threads, worker_panics) = self
            .workers
            .iter()
            .map(|w| w.stats())
            .fold((0, 0), |(threads, panics), w| (threads + w.io_threads, panics + w.panics));
        PlaneStats { io: self.io.stats(), worker_threads, worker_panics, net: self.net_gauges() }
    }

    fn thread_model(&self, plane: &PlaneStats) -> ThreadModelStats {
        let (io, net) = (&plane.io, &plane.net);
        ThreadModelStats {
            io_threads: io.io_threads,
            worker_threads: plane.worker_threads,
            live_io_tasks: io.live_tasks,
            queued_io_tasks: io.queued_tasks,
            timer_depth: io.timer_depth,
            timer_fires: io.timer_fires,
            io_parks: io.parks,
            io_wakes: io.wakes,
            io_polls: io.polls,
            net_connections: net.connections,
            net_interests: net.reactor.registered,
            net_readiness_events: net.reactor.events_dispatched,
            net_rearms: net.reactor.rearms,
            net_accept_backlog_peak: net.accept_backlog_peak,
            sampler_dropped: self.series.as_ref().map_or(0, |s| s.dropped()),
            trace_spans: self.spans.as_ref().map_or(0, |s| s.recorded()),
            trace_dropped: self.spans.as_ref().map_or(0, |s| s.dropped()),
            recorder_events: self.recorder.events(),
            recorder_dropped: self.recorder.dropped(),
        }
    }

    /// The job's metrics fold — the only one: live reads, the scrape
    /// route and `stop()` differ in the [`PlaneStats`] they pass, nothing
    /// else.
    fn metrics(&self, plane: &PlaneStats) -> JobMetrics {
        let mut m = self.registry.snapshot();
        m.buffer_pool = self.pool.stats();
        m.thread_model = self.thread_model(plane);
        m.containment.worker_panics = plane.worker_panics;
        m.containment.io_task_panics = plane.io.panics;
        m.containment.shed_total = self.shed_total.load(Ordering::Relaxed);
        if let Some(dlq) = &self.dead_letters {
            m.containment.dead_letters = dlq.len() as u64;
            m.containment.dead_letters_evicted = dlq.evicted();
        }
        m
    }

    fn queue_gauges(&self) -> Vec<QueueGauge> {
        self.queues.iter().map(|q| QueueGauge::observe(q)).collect()
    }

    /// What the periodic sampler records: data-plane counters and queue
    /// gauges only, so a sample never touches the execution plane.
    fn sample(&self) -> TelemetrySample {
        let mut metrics = self.registry.snapshot();
        metrics.buffer_pool = self.pool.stats();
        TelemetrySample { metrics, queues: self.queue_gauges() }
    }

    fn link_stats(&self) -> Vec<neptune_link::LinkStatsSnapshot> {
        self.links.iter().map(|l| l.stats_snapshot()).collect()
    }

    fn dead_letters(&self) -> Vec<DeadLetter> {
        self.dead_letters.as_ref().map(|d| d.snapshot()).unwrap_or_default()
    }

    fn checkpoint_stats(&self) -> Option<crate::checkpoint::CheckpointStats> {
        self.checkpoints.as_ref().map(|c| c.stats(crate::now_micros()))
    }

    fn telemetry(&self, plane: &PlaneStats) -> TelemetrySnapshot {
        TelemetrySnapshot {
            graph_name: self.graph_name.clone(),
            operators: self.telemetry_hub.as_ref().map(|h| h.snapshot()).unwrap_or_default(),
            metrics: self.metrics(plane),
            queues: self.queue_gauges(),
            series: self.series.as_ref().map(|r| r.series()).unwrap_or_default(),
            links: self.link_stats(),
            dead_letters: self.dead_letters(),
            checkpoints: self.checkpoint_stats(),
        }
    }
}

impl JobHandle {
    /// The submitted graph's name.
    pub fn graph_name(&self) -> &str {
        &self.shared.graph_name
    }

    /// Live metrics snapshot.
    pub fn metrics(&self) -> JobMetrics {
        self.shared.metrics(&self.shared.plane())
    }

    /// Quarantined poison batches, oldest first: the frames an operator
    /// kept panicking on through every retry, with their captured payload
    /// bytes and panic messages. Empty when containment is disabled or
    /// nothing has been quarantined.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.shared.dead_letters()
    }

    /// Live gauges of the two-tier execution plane: IO/worker thread
    /// counts, live and queued IO tasks, timer-wheel depth, park/wake
    /// counters. The headline invariant — thread count independent of
    /// source parallelism — is directly checkable here.
    pub fn thread_model(&self) -> ThreadModelStats {
        self.shared.thread_model(&self.shared.plane())
    }

    /// The flight recorder's current event log, oldest first. Empty when
    /// nothing noteworthy has happened yet.
    pub fn flight_recorder(&self) -> Vec<RuntimeEvent> {
        self.shared.recorder.snapshot()
    }

    /// The live flight recorder itself. Exposed so harnesses can assert
    /// causal event ordering.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.recorder
    }

    /// Chrome trace-event JSON of every recorded span, loadable in
    /// Perfetto / `chrome://tracing`. `None` when tracing is disabled.
    pub fn chrome_trace(&self) -> Option<String> {
        self.shared.spans.as_ref().map(|s| s.to_chrome_trace())
    }

    /// Bound address of the `/metrics` · `/traces` · `/events` scrape
    /// listener; `None` when no `scrape_addr` was configured. With an
    /// OS-assigned port (`127.0.0.1:0`) this reports the real port.
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape_addr
    }

    /// Live gauges of every inbound watermark queue, one per processor
    /// instance in deployment order. Gate closures count how often
    /// backpressure engaged (§III-B4); the backpressure harness asserts
    /// they actually happen.
    pub fn queue_gauges(&self) -> Vec<QueueGauge> {
        self.shared.queue_gauges()
    }

    /// Full telemetry snapshot: per-operator latency histograms (end-to-end
    /// plus the four-stage breakdown), live counters and queue gauges, and
    /// the background sampler's time series. `None` when telemetry is
    /// disabled in [`RuntimeConfig`].
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        self.shared.telemetry_hub.as_ref()?;
        Some(self.shared.telemetry(&self.shared.plane()))
    }

    /// Checkpoint coordinator counters and histograms: completed and
    /// abandoned rounds, store failures, duration and encoded-size
    /// distributions, and the age of the newest cut. `None` when
    /// checkpointing is disabled in [`RuntimeConfig`].
    pub fn checkpoint_stats(&self) -> Option<crate::checkpoint::CheckpointStats> {
        self.shared.checkpoint_stats()
    }

    /// The newest completed checkpoint snapshot, decoded from the backing
    /// store. `None` when checkpointing is disabled or no round has
    /// completed yet.
    pub fn latest_checkpoint(&self) -> Option<crate::checkpoint::CheckpointSnapshot> {
        self.shared.checkpoints.as_ref()?.latest().ok().flatten()
    }

    /// Per-link stats bundles from the link stack, in deployment order:
    /// flush/packet/byte counters and reliability counters.
    pub fn link_stats(&self) -> Vec<neptune_link::LinkStatsSnapshot> {
        self.shared.link_stats()
    }

    /// Times a producer blocked in a push at a closed gate, across the
    /// job. Nothing in a job does — pumps, processors and socket tasks
    /// park — so this reads 0; see
    /// [`total_gate_closures`](Self::total_gate_closures) for "did
    /// backpressure engage".
    pub fn total_gate_events(&self) -> u64 {
        self.shared.queues.iter().map(|q| q.gate_events()).sum()
    }

    /// Times an inbound queue's gate closed, across the job: backpressure
    /// engaging (§III-B4), however the producers it turned away waited.
    pub fn total_gate_closures(&self) -> u64 {
        self.shared.queues.iter().map(|q| q.gate_closures()).sum()
    }

    /// Where every operator instance was placed:
    /// `(operator name, instance index, resource index)`.
    pub fn placement(&self) -> &[(String, usize, usize)] {
        &self.placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransportMode;
    use crate::graph::GraphBuilder;
    use crate::operator::{OperatorContext, SourceStatus, StreamProcessor};
    use crate::packet::{FieldValue, StreamPacket};
    use crate::partition::PartitioningScheme;
    use neptune_granules::test_support::wait_for;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    struct CountingSource {
        remaining: u64,
        next_val: u64,
    }

    impl crate::operator::StreamSource for CountingSource {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            if self.remaining == 0 {
                return SourceStatus::Exhausted;
            }
            let mut p = StreamPacket::new();
            p.push_field("n", FieldValue::U64(self.next_val));
            self.next_val += 1;
            self.remaining -= 1;
            match ctx.emit(&p) {
                Ok(()) => SourceStatus::Emitted(1),
                Err(_) => SourceStatus::Exhausted,
            }
        }
    }

    struct Forward;
    impl StreamProcessor for Forward {
        fn process(&mut self, p: &StreamPacket, ctx: &mut OperatorContext) {
            let _ = ctx.emit(p);
        }
    }

    struct SinkCollect {
        seen: Arc<AtomicU64>,
        sum: Arc<AtomicU64>,
    }
    impl StreamProcessor for SinkCollect {
        fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
            self.seen.fetch_add(1, Ordering::Relaxed);
            if let Some(n) = p.get("n").and_then(|v| v.as_u64()) {
                self.sum.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn run_relay(config: RuntimeConfig, packets: u64, relay_par: usize) -> (u64, u64, JobMetrics) {
        let seen = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let (s2, m2) = (seen.clone(), sum.clone());
        let graph = GraphBuilder::new("relay-test")
            .source("sender", move || CountingSource { remaining: packets, next_val: 0 })
            .processor_n("relay", relay_par, || Forward)
            .processor("receiver", move || SinkCollect { seen: s2.clone(), sum: m2.clone() })
            .link("sender", "relay", PartitioningScheme::Shuffle)
            .link("relay", "receiver", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        assert!(job.await_sources(Duration::from_secs(30)), "sources timed out");
        let metrics = job.stop();
        (seen.load(Ordering::Relaxed), sum.load(Ordering::Relaxed), metrics)
    }

    #[test]
    fn relay_delivers_every_packet_exactly_once() {
        let n = 5_000u64;
        let (seen, sum, metrics) =
            run_relay(RuntimeConfig { buffer_bytes: 4096, ..Default::default() }, n, 1);
        assert_eq!(seen, n);
        assert_eq!(sum, n * (n - 1) / 2, "payload integrity");
        assert_eq!(metrics.total_seq_violations(), 0);
        assert_eq!(metrics.operator("sender").packets_out, n);
        assert_eq!(metrics.operator("relay").packets_in, n);
        assert_eq!(metrics.operator("receiver").packets_in, n);
    }

    /// Relay that never looks inside a packet: claims each frame and
    /// forwards its messages as they are.
    struct EncodedForward;
    impl StreamProcessor for EncodedForward {
        fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
            panic!("a claimed frame must not reach the per-packet loop");
        }
        fn process_encoded(
            &mut self,
            batch: &neptune_net::frame::FrameMessages,
            ctx: &mut OperatorContext,
        ) -> bool {
            for i in 0..batch.len() {
                ctx.emit_encoded(batch.prefixed(i)).expect("downstream open");
            }
            true
        }
    }

    #[test]
    fn a_claimed_frame_skips_the_packet_loop_and_counts_the_same_bare_and_supervised() {
        let n = 5_000u64;
        let run = |containment: crate::config::ContainmentConfig| {
            let seen = Arc::new(AtomicU64::new(0));
            let sum = Arc::new(AtomicU64::new(0));
            let (s2, m2) = (seen.clone(), sum.clone());
            let graph = GraphBuilder::new("encoded-relay")
                .source("sender", move || CountingSource { remaining: n, next_val: 0 })
                .processor("relay", || EncodedForward)
                .processor_n("receiver", 2, move || SinkCollect {
                    seen: s2.clone(),
                    sum: m2.clone(),
                })
                .link("sender", "relay", PartitioningScheme::Shuffle)
                .link("relay", "receiver", PartitioningScheme::by_field("n"))
                .build()
                .unwrap();
            let config = RuntimeConfig { buffer_bytes: 4096, containment, ..Default::default() };
            let job = LocalRuntime::new(config).submit(graph).unwrap();
            assert!(job.await_sources(Duration::from_secs(30)), "sources timed out");
            let metrics = job.stop();
            assert_eq!(seen.load(Ordering::Relaxed), n);
            assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2, "payload integrity");
            assert_eq!(metrics.total_seq_violations(), 0);
            assert_eq!(metrics.containment.panics, 0, "process() was never called");
            let relay = metrics.operator("relay");
            assert_eq!(metrics.operator("receiver").packets_in, n);
            // How many frames the sender cut depends on whether its flush
            // deadline passed mid-run, so frames are checked per run: each
            // one the sender sent, the relay took, and they are batches.
            let sent = metrics.operator("sender").frames_out;
            assert_eq!(relay.frames_in, sent, "every frame sent was taken");
            assert!(relay.frames_in < n / 10, "frames, not packets: {}", relay.frames_in);
            (relay.packets_in, relay.packets_out)
        };
        let bare = run(crate::config::ContainmentConfig::default());
        let supervised = run(crate::config::ContainmentConfig::enabled());
        assert_eq!(bare, (n, n));
        assert_eq!(bare, supervised, "both branches consult the hook and count alike");
    }

    #[test]
    fn an_undecodable_message_counts_the_same_bare_and_supervised() {
        // A source that injects three encoded messages, untouched, and
        // ends: the sink sees them as one frame, and the middle one is a
        // message no codec wrote.
        struct Injects(Vec<Vec<u8>>);
        impl crate::operator::StreamSource for Injects {
            fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
                for message in self.0.drain(..) {
                    ctx.emit_encoded(&crate::channel::tests::framed(&message)).unwrap();
                }
                SourceStatus::Exhausted
            }
        }
        let good = |n: u64| {
            let mut p = StreamPacket::new();
            p.push_field("n", FieldValue::U64(n));
            crate::codec::PacketCodec::new().encode(&p).unwrap()
        };
        let messages = vec![good(1), vec![0xFF; 3], good(2)];
        let run = |containment: crate::config::ContainmentConfig| {
            let seen = Arc::new(AtomicU64::new(0));
            let sum = Arc::new(AtomicU64::new(0));
            let (s2, m2, injected) = (seen.clone(), sum.clone(), messages.clone());
            let graph = GraphBuilder::new("bad-message")
                .source("sender", move || Injects(injected.clone()))
                .processor("receiver", move || SinkCollect { seen: s2.clone(), sum: m2.clone() })
                .link("sender", "receiver", PartitioningScheme::Shuffle)
                .build()
                .unwrap();
            let config = RuntimeConfig { containment, ..Default::default() };
            let job = LocalRuntime::new(config).submit(graph).unwrap();
            assert!(wait_for(Duration::from_secs(10), || seen.load(Ordering::Relaxed) == 2));
            let m = job.stop().operator("receiver");
            assert_eq!(sum.load(Ordering::Relaxed), 3, "both good packets, whole");
            (m.frames_in, m.packets_in, m.seq_violations)
        };
        let bare = run(crate::config::ContainmentConfig::default());
        let supervised = run(crate::config::ContainmentConfig::enabled());
        assert_eq!(bare, (1, 2, 1), "one frame, two packets, one undecodable message");
        assert_eq!(bare, supervised);
    }

    #[test]
    fn relay_with_parallel_middle_stage() {
        let n = 4_000u64;
        let (seen, sum, metrics) =
            run_relay(RuntimeConfig { buffer_bytes: 2048, ..Default::default() }, n, 4);
        assert_eq!(seen, n);
        assert_eq!(sum, n * (n - 1) / 2);
        assert_eq!(metrics.total_seq_violations(), 0);
    }

    #[test]
    fn tiny_buffers_flush_per_packet() {
        // Per-message mode: every packet is its own frame.
        let n = 500u64;
        let config = RuntimeConfig { batched_scheduling: false, ..Default::default() };
        let (seen, _, metrics) = run_relay(config, n, 1);
        assert_eq!(seen, n);
        let relay = metrics.operator("relay");
        assert_eq!(relay.frames_in, n, "per-message mode must frame each packet");
    }

    #[test]
    fn batching_reduces_frames_and_executions() {
        let n = 20_000u64;
        let (seen, _, metrics) =
            run_relay(RuntimeConfig { buffer_bytes: 64 * 1024, ..Default::default() }, n, 1);
        assert_eq!(seen, n);
        let relay = metrics.operator("relay");
        assert!(relay.frames_in < n / 10, "batching too weak: {} frames", relay.frames_in);
        assert!(
            relay.executions < relay.packets_in / 10,
            "scheduling not batched: {} executions for {} packets",
            relay.executions,
            relay.packets_in
        );
    }

    #[test]
    fn batch_buffers_recycle_through_the_pool() {
        // The zero-copy data path: flushed batch storage must round-trip
        // sender -> queue -> processor -> pool -> sender again, so steady
        // state serves checkouts from the free list instead of malloc.
        let n = 20_000u64;
        let (seen, _, metrics) =
            run_relay(RuntimeConfig { buffer_bytes: 4096, ..Default::default() }, n, 1);
        assert_eq!(seen, n);
        let pool = metrics.buffer_pool;
        assert!(pool.hits > 0, "pool never reused a buffer: {pool:?}");
        assert!(pool.bytes_reused > 0, "no bytes reused: {pool:?}");
        assert!(pool.returns > 0, "processed frames never returned storage: {pool:?}");
    }

    #[test]
    fn flush_timer_bounds_latency_for_slow_streams() {
        // A trickle source with a huge buffer that never fills: its batch
        // leaves as it answers Idle (the flush timer is the backstop), and
        // packets must still all arrive. The source paces itself by
        // *reporting Idle* until 2ms have passed — the pump's park/backoff
        // provides the waiting, no sleeps anywhere.
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        struct Trickle {
            left: u32,
            last_emit: Option<Instant>,
        }
        impl crate::operator::StreamSource for Trickle {
            fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
                if self.left == 0 {
                    return SourceStatus::Exhausted;
                }
                if let Some(t) = self.last_emit {
                    if t.elapsed() < Duration::from_millis(2) {
                        return SourceStatus::Idle;
                    }
                }
                self.left -= 1;
                let mut p = StreamPacket::new();
                p.push_field("n", FieldValue::U64(self.left as u64));
                ctx.emit(&p).unwrap();
                self.last_emit = Some(Instant::now());
                SourceStatus::Emitted(1)
            }
        }
        struct Counter(Arc<AtomicU64>);
        impl StreamProcessor for Counter {
            fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let graph = GraphBuilder::new("trickle")
            .source("src", || Trickle { left: 20, last_emit: None })
            .processor("sink", move || Counter(s2.clone()))
            .link("src", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig {
            buffer_bytes: 1 << 20,
            flush_interval: Duration::from_millis(5),
            ..Default::default()
        };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        job.await_sources(Duration::from_secs(30));
        // Even before stop(), the timer must have flushed most packets.
        job.settle(Duration::from_secs(10));
        let before_stop = seen.load(Ordering::Relaxed);
        assert!(before_stop >= 19, "flush timer inactive: {before_stop} of 20 arrived");
        let metrics = job.stop();
        assert_eq!(seen.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.total_seq_violations(), 0);
    }

    #[test]
    fn multiple_resources_in_process() {
        let n = 3_000u64;
        let config = RuntimeConfig { resources: 3, buffer_bytes: 1024, ..Default::default() };
        let (seen, sum, metrics) = run_relay(config, n, 2);
        assert_eq!(seen, n);
        assert_eq!(sum, n * (n - 1) / 2);
        assert_eq!(metrics.total_seq_violations(), 0);
    }

    #[test]
    fn tcp_transport_between_resources() {
        let n = 2_000u64;
        let config = RuntimeConfig {
            resources: 2,
            transport: TransportMode::Tcp,
            buffer_bytes: 2048,
            ..Default::default()
        };
        let (seen, sum, metrics) = run_relay(config, n, 1);
        assert_eq!(seen, n);
        assert_eq!(sum, n * (n - 1) / 2);
        assert_eq!(metrics.total_seq_violations(), 0);
    }

    #[test]
    fn fields_partitioning_colocates_keys() {
        // Each relay instance records which keys it saw; a key must never
        // appear at two instances.
        let seen_by: Arc<Mutex<HashMap<u64, usize>>> = Arc::new(Mutex::new(HashMap::new()));
        struct KeyedSink {
            seen_by: Arc<Mutex<HashMap<u64, usize>>>,
            violations: Arc<AtomicU64>,
        }
        impl StreamProcessor for KeyedSink {
            fn process(&mut self, p: &StreamPacket, ctx: &mut OperatorContext) {
                let key = p.get("n").unwrap().as_u64().unwrap() % 17;
                let mut map = self.seen_by.lock();
                let inst = ctx.instance();
                match map.get(&key) {
                    Some(&prev) if prev != inst => {
                        self.violations.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        map.insert(key, inst);
                    }
                }
            }
        }
        struct KeySource(u64);
        impl crate::operator::StreamSource for KeySource {
            fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
                if self.0 == 0 {
                    return SourceStatus::Exhausted;
                }
                self.0 -= 1;
                let mut p = StreamPacket::new();
                p.push_field("n", FieldValue::U64(self.0));
                // Re-key by modulo so instances see repeating keys.
                let key = self.0 % 17;
                p.push_field("key", FieldValue::U64(key));
                ctx.emit(&p).unwrap();
                SourceStatus::Emitted(1)
            }
        }
        let violations = Arc::new(AtomicU64::new(0));
        let (sb, v) = (seen_by.clone(), violations.clone());
        let graph = GraphBuilder::new("keyed")
            .source("src", || KeySource(2000))
            .processor_n("sink", 4, move || KeyedSink {
                seen_by: sb.clone(),
                violations: v.clone(),
            })
            .link("src", "sink", PartitioningScheme::by_field("key"))
            .build()
            .unwrap();
        let job = LocalRuntime::new(RuntimeConfig { buffer_bytes: 512, ..Default::default() })
            .submit(graph)
            .unwrap();
        job.await_sources(Duration::from_secs(30));
        let metrics = job.stop();
        assert_eq!(violations.load(Ordering::Relaxed), 0, "key co-location violated");
        assert_eq!(metrics.operator("sink").packets_in, 2000);
    }

    #[test]
    fn broadcast_reaches_every_instance() {
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        struct Counter(Arc<AtomicU64>);
        impl StreamProcessor for Counter {
            fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let graph = GraphBuilder::new("bcast")
            .source("src", || CountingSource { remaining: 100, next_val: 0 })
            .processor_n("sink", 3, move || Counter(s2.clone()))
            .link("src", "sink", PartitioningScheme::Broadcast)
            .build()
            .unwrap();
        let job = LocalRuntime::new(RuntimeConfig::default()).submit(graph).unwrap();
        job.await_sources(Duration::from_secs(30));
        let metrics = job.stop();
        assert_eq!(seen.load(Ordering::Relaxed), 300, "broadcast must triple delivery");
        assert_eq!(metrics.operator("src").packets_out, 300);
    }

    /// Holds every packet until `go`, spins `spin` on it, then counts it
    /// and checks the `n` fields arrive as 0, 1, 2, … Clones share their
    /// flags and counts.
    #[derive(Clone, Default)]
    struct HeldInOrder {
        go: Arc<AtomicBool>,
        spin: Duration,
        seen: Arc<AtomicU64>,
        out_of_order: Arc<AtomicU64>,
    }
    impl StreamProcessor for HeldInOrder {
        fn process(&mut self, p: &StreamPacket, _ctx: &mut OperatorContext) {
            while !self.go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let until = Instant::now() + self.spin;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            let n = p.get("n").and_then(|v| v.as_u64()).expect("numbered packet");
            if self.seen.fetch_add(1, Ordering::Relaxed) != n {
                self.out_of_order.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Lets a held sink go when dropped. Declared after the job, it drops
    /// first: an assertion that fails while the sink is held then fails
    /// the test instead of hanging the job's drop on the held worker.
    struct LetGo(Arc<AtomicBool>);
    impl Drop for LetGo {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    /// Every packet its own frame, a few frames close a gate.
    fn choked() -> RuntimeConfig {
        RuntimeConfig {
            buffer_bytes: 1,
            watermark_high: 4096,
            watermark_low: 1024,
            ..Default::default()
        }
    }

    #[test]
    fn a_processor_whose_link_refuses_parks_and_runs_once_per_inbound_frame_at_most() {
        let n = 2_000u64;
        let sink = HeldInOrder::default();
        let probe = sink.clone();
        let graph = GraphBuilder::new("relay-parks")
            .source("src", move || CountingSource { remaining: n, next_val: 0 })
            .processor("relay", || Forward)
            .processor("sink", move || sink.clone())
            .link("src", "relay", PartitioningScheme::Shuffle)
            .link("relay", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let job = LocalRuntime::new(choked()).submit(graph).unwrap();
        let let_go = LetGo(probe.go.clone());
        let (relay_in, relay_out) = (&job.shared.queues[0], &job.has_data[1]);
        let relay = job.processor_handles[0].1[0].clone();
        let executions = || job.metrics().operator("relay").executions;
        // The held sink's gate closes and the relay's output is staged (a
        // relay flushes when its input runs out, so output it still holds
        // idle is output its link refused): the relay must give its worker
        // back, not wait in `execute`.
        let blocked = || {
            relay_out.load(Ordering::Acquire) && relay.state() == neptune_granules::TaskState::Idle
        };
        assert!(
            wait_for(Duration::from_secs(10), blocked),
            "the relay is still inside execute while its link refuses"
        );
        // Blocked, it runs at most once per frame that reaches it until its
        // own gate closes and the source parks — then not at all.
        let (ran, arrived) = (executions(), relay_in.total_pushed());
        assert!(wait_for(Duration::from_secs(10), || relay_in.is_gated() && blocked()));
        let (ran, arrived) = (executions() - ran, relay_in.total_pushed() - arrived);
        assert!(ran <= arrived + 1, "{ran} executions for {arrived} inbound frames");
        let ran = executions();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(executions(), ran, "a blocked relay must not spin");
        drop(let_go);
        assert!(job.await_sources(Duration::from_secs(30)));
        let metrics = job.stop();
        assert_eq!(probe.seen.load(Ordering::Relaxed), n, "every packet, after the sink let go");
        assert_eq!(probe.out_of_order.load(Ordering::Relaxed), 0, "in order");
        assert_eq!(metrics.total_seq_violations(), 0);
    }

    #[test]
    fn close_output_a_link_refuses_is_handed_to_the_job_and_arrives_in_order() {
        // A windowing processor that holds everything until close(), then
        // emits a packet per packet it saw — ~25 times the high watermark —
        // into a sink held until the closer's task is gone: its link still
        // refuses then, so the endpoint holding the refused batches went to
        // the job. Nothing else owns it from then on: `stop()`'s settle
        // must hand it over.
        const N: u64 = 5_000;
        struct Closer {
            seen: u64,
            gone: Arc<AtomicBool>,
        }
        impl Drop for Closer {
            fn drop(&mut self) {
                self.gone.store(true, Ordering::Release);
            }
        }
        impl StreamProcessor for Closer {
            fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
                self.seen += 1;
            }
            fn close(&mut self, ctx: &mut OperatorContext) {
                let mut p = StreamPacket::new();
                for n in 0..self.seen {
                    p.clear();
                    p.push_field("n", FieldValue::U64(n));
                    ctx.emit(&p).expect("downstream open");
                }
            }
        }
        let gone = Arc::new(AtomicBool::new(false));
        let sink = HeldInOrder::default();
        let probe = sink.clone();
        let g = gone.clone();
        let graph = GraphBuilder::new("close-handed-over")
            .source("src", || CountingSource { remaining: N, next_val: 0 })
            .processor("closer", move || Closer { seen: 0, gone: g.clone() })
            .processor("sink", move || sink.clone())
            .link("src", "closer", PartitioningScheme::Shuffle)
            .link("closer", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig { buffer_bytes: 256, ..choked() };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        assert!(job.await_sources(Duration::from_secs(30)));
        let go = probe.go.clone();
        let release = std::thread::spawn(move || {
            let ended = wait_for(Duration::from_secs(30), || gone.load(Ordering::Acquire));
            go.store(true, Ordering::Release);
            ended
        });
        let metrics = job.stop();
        assert!(release.join().unwrap(), "the closer's task never ended");
        assert_eq!(probe.seen.load(Ordering::Relaxed), N, "close-time emits lost");
        assert_eq!(probe.out_of_order.load(Ordering::Relaxed), 0, "in order");
        assert_eq!(metrics.total_seq_violations(), 0);
    }

    /// A source fed by another thread: empty until `feed` is raised.
    struct Fed {
        feed: Arc<AtomicBool>,
        /// Where the source leaves its pump's waker for the feeder.
        mailbox: Arc<Mutex<Option<crate::operator::Waker>>>,
        polls: Arc<AtomicU64>,
        remaining: u64,
    }
    impl crate::operator::StreamSource for Fed {
        fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
            self.polls.fetch_add(1, Ordering::Relaxed);
            if !self.feed.load(Ordering::Acquire) {
                // Register, then look once more.
                *self.mailbox.lock() = Some(ctx.waker());
                if !self.feed.load(Ordering::Acquire) {
                    return SourceStatus::Pending;
                }
            }
            if self.remaining == 0 {
                return SourceStatus::Exhausted;
            }
            self.remaining -= 1;
            let mut p = StreamPacket::new();
            p.push_field("n", FieldValue::U64(self.remaining));
            match ctx.emit(&p) {
                Ok(()) => SourceStatus::Emitted(1),
                Err(_) => SourceStatus::Exhausted,
            }
        }
    }

    #[test]
    fn a_pending_source_is_not_polled_until_its_feeder_fires_the_waker() {
        let feed = Arc::new(AtomicBool::new(false));
        let mailbox = Arc::new(Mutex::new(None));
        let polls = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(AtomicU64::new(0));
        let (f, m, p, s) = (feed.clone(), mailbox.clone(), polls.clone(), seen.clone());
        let graph = GraphBuilder::new("pending")
            .source("fed", move || Fed {
                feed: f.clone(),
                mailbox: m.clone(),
                polls: p.clone(),
                remaining: 10,
            })
            .processor("sink", move || SinkCollect { seen: s.clone(), sum: Arc::default() })
            .link("fed", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig { io_threads: Some(1), ..Default::default() };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        assert!(wait_for(Duration::from_secs(5), || mailbox.lock().is_some()));
        // Parked, not backing off: ten idle back-offs fit in this pause.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(polls.load(Ordering::Relaxed), 1, "a parked pump polls nothing");
        // Data first, waker second.
        feed.store(true, Ordering::Release);
        let waker = mailbox.lock().clone().expect("registered above");
        waker();
        assert!(job.await_sources(Duration::from_secs(5)), "the wake must end the park");
        job.stop();
        assert_eq!(seen.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pending_from_a_source_that_never_took_its_waker_is_an_idle() {
        // Nobody can end this source's wait but the clock: had the pump
        // believed the `Pending` and parked for good, the job would hang.
        struct Shy(u64);
        impl crate::operator::StreamSource for Shy {
            fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
                self.0 += 1;
                match self.0 {
                    1..=3 => SourceStatus::Pending,
                    4 => {
                        let mut p = StreamPacket::new();
                        p.push_field("n", FieldValue::U64(4));
                        let _ = ctx.emit(&p);
                        SourceStatus::Emitted(1)
                    }
                    _ => SourceStatus::Exhausted,
                }
            }
        }
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        let graph = GraphBuilder::new("shy")
            .source("shy", || Shy(0))
            .processor("sink", move || SinkCollect { seen: s.clone(), sum: Arc::default() })
            .link("shy", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let job = LocalRuntime::new(RuntimeConfig::default()).submit(graph).unwrap();
        assert!(job.await_sources(Duration::from_secs(10)), "polled again after a back-off");
        job.stop();
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn capacity_weighted_placement_respects_weights() {
        use crate::config::PlacementStrategy;
        let graph = GraphBuilder::new("weighted")
            .source("src", || CountingSource { remaining: 100, next_val: 0 })
            .processor_n("work", 11, || Forward)
            .link("src", "work", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig {
            resources: 3,
            placement: PlacementStrategy::CapacityWeighted(vec![4, 1, 1]),
            ..Default::default()
        };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        let mut per_resource = [0usize; 3];
        for (_, _, r) in job.placement() {
            per_resource[*r] += 1;
        }
        job.await_sources(Duration::from_secs(30));
        job.stop();
        // 12 instances over weights 4:1:1 -> resource 0 gets ~4x the rest.
        assert!(
            per_resource[0] >= 2 * per_resource[1].max(per_resource[2]),
            "placement {per_resource:?} ignored weights"
        );
        assert_eq!(per_resource.iter().sum::<usize>(), 12);
    }

    #[test]
    fn telemetry_populates_stage_histograms_and_sampler() {
        use crate::config::TelemetryConfig;
        // A source that stamps each packet with its emission time so the
        // sink's e2e histogram has something to measure.
        struct StampedSource(u64);
        impl crate::operator::StreamSource for StampedSource {
            fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
                if self.0 == 0 {
                    return SourceStatus::Exhausted;
                }
                self.0 -= 1;
                let mut p = StreamPacket::new();
                p.push_field("ts", FieldValue::Timestamp(crate::now_micros()));
                p.push_field("n", FieldValue::U64(self.0));
                ctx.emit(&p).unwrap();
                SourceStatus::Emitted(1)
            }
        }
        let graph = GraphBuilder::new("telemetry-relay")
            .source("src", || StampedSource(3_000))
            .processor("relay", || Forward)
            .processor("sink", || Forward)
            .link("src", "relay", PartitioningScheme::Shuffle)
            .link("relay", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig {
            buffer_bytes: 4096,
            telemetry: TelemetryConfig {
                sample_interval: Duration::from_millis(5),
                ..TelemetryConfig::enabled()
            },
            ..Default::default()
        };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        assert!(job.await_sources(Duration::from_secs(30)));
        assert!(job.settle(Duration::from_secs(10)));
        // The sampler is a periodic IO-tier task; give it until its next
        // few fires to have recorded at least one sample.
        assert!(
            wait_for(Duration::from_secs(5), || job.telemetry().map(|s| !s.series.is_empty())
                == Some(true)),
            "sampler produced no samples"
        );
        let snap = job.telemetry().expect("telemetry enabled");
        for op in ["relay", "sink"] {
            let t = &snap.operators[op];
            assert!(t.e2e.count() > 0, "{op}: e2e histogram empty");
            assert!(t.e2e.p50() <= t.e2e.p95() && t.e2e.p95() <= t.e2e.p99());
            assert!(t.schedule_delay.count() > 0, "{op}: no schedule samples");
            assert!(t.transport.count() > 0, "{op}: no transport samples");
            assert!(t.execution.count() > 0, "{op}: no execution samples");
        }
        // buffer_wait is recorded at the *senders* of each link.
        assert!(snap.operators["src"].buffer_wait.count() > 0);
        assert!(snap.operators["relay"].buffer_wait.count() > 0);
        assert!(!snap.to_json().is_empty());
        assert!(!snap.render_prometheus().is_empty());
        job.stop();
    }

    #[test]
    fn telemetry_disabled_yields_none_and_named_gauges() {
        let graph = GraphBuilder::new("plain")
            .source("src", || CountingSource { remaining: 100, next_val: 0 })
            .processor("sink", || Forward)
            .link("src", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let job = LocalRuntime::new(RuntimeConfig::default()).submit(graph).unwrap();
        job.await_sources(Duration::from_secs(30));
        assert!(job.telemetry().is_none(), "telemetry must be off by default");
        let gauges = job.queue_gauges();
        assert_eq!(gauges.len(), 1);
        assert!(gauges[0].capacity > 0);
        job.stop();
    }

    #[test]
    fn io_tier_gauges_populate_and_drain() {
        // The two-tier thread model is observable: a fixed IO-thread count
        // set by config, live tasks while running, and a fully drained
        // tier after stop().
        /// Emits its packets a hundred at a time, idle in between: its pump
        /// parks on a back-off and the timer wheel wakes it, a hundred
        /// times over.
        struct Bursts(u64);
        impl crate::operator::StreamSource for Bursts {
            fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
                self.0 += 1;
                match self.0 {
                    n if n > 10_100 => SourceStatus::Exhausted,
                    n if n % 101 == 0 => SourceStatus::Idle,
                    n => {
                        let mut p = StreamPacket::new();
                        p.push_field("n", FieldValue::U64(n));
                        ctx.emit(&p).unwrap();
                        SourceStatus::Emitted(1)
                    }
                }
            }
        }
        let graph = GraphBuilder::new("tiers")
            .source("src", || Bursts(0))
            .processor("sink", || Forward)
            .link("src", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let config = RuntimeConfig { io_threads: Some(2), ..Default::default() };
        let job = LocalRuntime::new(config).submit(graph).unwrap();
        let live = job.thread_model();
        assert_eq!(live.io_threads, 2, "configured IO tier width must stick");
        assert!(live.worker_threads > 0);
        assert!(live.live_io_tasks >= 1, "the pump must be live");
        assert!(job.await_sources(Duration::from_secs(30)));
        let metrics = job.stop();
        let tm = metrics.thread_model;
        assert_eq!(tm.io_threads, 2);
        assert_eq!(tm.live_io_tasks, 0, "IO tier must drain at stop: {tm:?}");
        assert_eq!(tm.queued_io_tasks, 0, "IO queue must empty at stop: {tm:?}");
        assert!(tm.io_polls > 0, "pumps never ran");
        assert!(tm.io_parks > 0, "pumps never parked");
        assert!(tm.io_wakes > 0, "pumps never woke");
    }

    #[test]
    fn a_processor_only_burst_moves_no_io_tier_gauge() {
        // Both tiers are instances of one executor; the `io_*` and timer
        // gauges must go on reading the IO tier's instance alone.
        let graph = GraphBuilder::new("burst")
            .source("src", || CountingSource { remaining: 10, next_val: 0 })
            .processor("sink", || Forward)
            .link("src", "sink", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let job = LocalRuntime::new(RuntimeConfig::default()).submit(graph).unwrap();
        assert!(job.await_sources(Duration::from_secs(30)));
        assert!(job.settle(Duration::from_secs(10)));
        let io_tier = |tm: ThreadModelStats| {
            (
                (tm.io_polls, tm.io_parks, tm.io_wakes, tm.timer_fires),
                (tm.live_io_tasks, tm.queued_io_tasks, tm.timer_depth),
            )
        };
        // With its source exhausted the IO tier is at rest; whatever moves
        // from here on is the worker tier's doing.
        let before = job.thread_model();
        let executed = job.metrics().operator("sink").executions;
        let sink = &job.processor_handles[0].1[0];
        for _ in 0..10_000 {
            sink.signal();
        }
        for r in &job.resources {
            r.drain();
        }
        assert!(job.metrics().operator("sink").executions > executed, "the burst never ran");
        assert_eq!(io_tier(job.thread_model()), io_tier(before));
        job.stop();
    }

    #[test]
    fn single_io_thread_still_completes_jobs() {
        // io_threads=1 is the degenerate tier: every pump shares one
        // thread. Cooperative scheduling must still deliver
        // every packet (CI runs the whole suite in this mode).
        let n = 2_000u64;
        let config = RuntimeConfig { io_threads: Some(1), ..Default::default() };
        let (seen, sum, metrics) = run_relay(config, n, 2);
        assert_eq!(seen, n);
        assert_eq!(sum, n * (n - 1) / 2);
        assert_eq!(metrics.total_seq_violations(), 0);
        assert_eq!(metrics.thread_model.io_threads, 1);
    }

    #[test]
    fn invalid_config_rejected_at_submit() {
        let graph = GraphBuilder::new("g")
            .source("s", || CountingSource { remaining: 1, next_val: 0 })
            .processor("p", || Forward)
            .link("s", "p", PartitioningScheme::Shuffle)
            .build()
            .unwrap();
        let bad = RuntimeConfig { watermark_low: 100, watermark_high: 100, ..Default::default() };
        assert!(matches!(LocalRuntime::new(bad).submit(graph), Err(SubmitError::Config(_))));
    }
}
