//! The workload table: what each workload runs, with which threads, and
//! at which frozen paced rate. Names, reasons and rates here are the
//! benchmark's definition; `BENCHMARK.json` and `README.md` repeat them.

use crate::ops::{
    BenchSource, InstanceCounts, MfgDetect, MfgExtract, MfgPackets, MfgSink, Pace, PacketGen,
    Relay, RelayPackets, RelaySink, SinkShared, SourceShared, WindowAgg, WindowPackets, WindowSink,
    KEYED_PARALLELISM,
};
use neptune_core::config::TransportMode;
use neptune_core::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Which pipeline a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `src → relay → sink`, one resource, in-process hand-over.
    RelayInproc,
    /// `src → relay → sink`, three resources, both hops over loopback TCP.
    RelayTcp,
    /// The Fig. 8 manufacturing job over TCP with selective compression.
    Manufacturing,
    /// Keyed tumbling windows with 1 s aligned checkpoints.
    WindowCheckpoint,
    /// Coordinator + two node processes; the only workload with cut edges.
    ClusterCut,
}

/// One row of the workload table.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// Pipeline.
    pub kind: Kind,
    /// Serialized packet size of the relay workloads, bytes.
    pub packet_bytes: usize,
    /// Open-loop rate of the paced phase, source packets per second:
    /// about half of the saturating throughput measured on the reference
    /// machine at the commit that added the benchmark, two significant
    /// digits, then frozen. Never derived at run time — a faster commit
    /// must be offered the same load, or its latencies would not compare.
    /// Re-freezing is a benchmark change, never part of a performance
    /// change.
    pub paced_rate_pps: u64,
    /// Source packets of one set-up cycle: enough for the sink to see its
    /// first packet (the first delay event, the first closed window).
    pub setup_packets: u64,
    /// `RuntimeConfig::io_threads`. Two for the in-process workloads. The
    /// TCP workloads need one more than the tasks that can block an IO
    /// thread at once: a channel holds its buffer lock while `send` waits
    /// for room in a full TCP sender queue, so the source pump and the
    /// flush task of every TCP channel can all be stuck there, and the
    /// sender task that would make room needs a thread of its own. With
    /// two IO threads `relay_10kb_tcp` deadlocks about every other run.
    pub io_threads: usize,
}

/// The five workloads, in report order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "relay_50b_inproc",
        kind: Kind::RelayInproc,
        packet_bytes: 50,
        paced_rate_pps: 1_100_000,
        setup_packets: 256,
        io_threads: 2,
    },
    Workload {
        name: "relay_10kb_tcp",
        kind: Kind::RelayTcp,
        packet_bytes: 10 * 1024,
        paced_rate_pps: 6_400,
        setup_packets: 256,
        // pump + 2 TCP channels + 1
        io_threads: 4,
    },
    Workload {
        name: "mfg_tcp_lz4",
        kind: Kind::Manufacturing,
        packet_bytes: 0,
        paced_rate_pps: 58_000,
        setup_packets: 2_000,
        // pump + 3 TCP channels + 1
        io_threads: 5,
    },
    Workload {
        name: "window_ckpt",
        kind: Kind::WindowCheckpoint,
        packet_bytes: 0,
        paced_rate_pps: 660_000,
        setup_packets: 25_000,
        io_threads: 2,
    },
    Workload {
        name: "cluster_cut",
        kind: Kind::ClusterCut,
        packet_bytes: 50,
        paced_rate_pps: 400_000,
        setup_packets: 1_000,
        // Per node runtime, as `NEPTUNE_IO_THREADS` for the node
        // processes; each data plane brings two more of its own.
        io_threads: 1,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `RuntimeConfig::worker_threads`, per resource: pinned, never inherited
/// from `NEPTUNE_*` variables or the host's core count. The engine raises
/// it to the number of processor instances placed on the resource.
pub const WORKER_THREADS: usize = 1;

/// Handles the harness keeps into a submitted job's bench-owned operators.
#[derive(Default)]
pub struct Probes {
    /// The source's progress and stop flag.
    pub source: Arc<SourceShared>,
    /// The sink's progress and final report.
    pub sink: Arc<SinkShared>,
    /// Packets each instance of the keyed operator consumed.
    pub keyed_instances: InstanceCounts,
}

/// Where throughput is counted: the operator every input reaches, and how
/// many packets it sees per source packet.
pub struct ThroughputPoint {
    /// Operator whose `packets_in` is read from `JobMetrics`.
    pub operator: &'static str,
    /// `packets_in` per source packet.
    pub per_input: u64,
}

impl Workload {
    /// The operator whose input count is the workload's throughput.
    pub fn throughput_point(&self) -> ThroughputPoint {
        match self.kind {
            Kind::RelayInproc | Kind::RelayTcp => {
                ThroughputPoint { operator: "sink", per_input: 1 }
            }
            Kind::Manufacturing => ThroughputPoint { operator: "detect", per_input: 3 },
            Kind::WindowCheckpoint => ThroughputPoint { operator: "agg", per_input: 1 },
            Kind::ClusterCut => ThroughputPoint { operator: "sink", per_input: 1 },
        }
    }

    /// The generator of the workload's source packets.
    pub fn packet_gen(&self, seed: u64) -> Box<dyn PacketGen> {
        match self.kind {
            Kind::RelayInproc | Kind::RelayTcp => {
                Box::new(RelayPackets::new(self.packet_bytes, seed))
            }
            Kind::Manufacturing => Box::new(MfgPackets::new(seed)),
            Kind::WindowCheckpoint => Box::new(WindowPackets::new(seed)),
            Kind::ClusterCut => Box::new(RelayPackets::with_value(self.packet_bytes, seed)),
        }
    }

    /// The link compression policy the workload runs with.
    pub fn compression(&self) -> CompressionMode {
        match self.kind {
            Kind::RelayTcp | Kind::Manufacturing => CompressionMode::Threshold(5.0),
            Kind::RelayInproc | Kind::WindowCheckpoint | Kind::ClusterCut => {
                CompressionMode::Disabled
            }
        }
    }

    /// The engine configuration, every thread count and switch explicit.
    /// `single_thread` is the one-IO-thread baseline of
    /// `granules.single_thread_pps` (in-process workloads only).
    pub fn config(&self, single_thread: bool, telemetry: bool) -> RuntimeConfig {
        // Paper defaults unless a row says otherwise: 1 MB buffers, 10 ms
        // flush timer, 8/4 MB watermarks, batched scheduling.
        let mut config = RuntimeConfig {
            worker_threads: Some(WORKER_THREADS),
            io_threads: Some(if single_thread { 1 } else { self.io_threads }),
            net_reactor: true,
            compression: self.compression(),
            telemetry: if telemetry {
                TelemetryConfig::with_tracing(128)
            } else {
                TelemetryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        match self.kind {
            Kind::RelayInproc => {}
            Kind::RelayTcp => {
                config.transport = TransportMode::Tcp;
                config.resources = 3;
            }
            Kind::Manufacturing => {
                config.transport = TransportMode::Tcp;
                config.resources = 2;
            }
            Kind::WindowCheckpoint => {
                config.checkpoint = CheckpointConfig::every(Duration::from_secs(1));
            }
            // The two halves of the bench-hosted cut edge; the real
            // cluster's node runtimes are configured by descriptor.
            Kind::ClusterCut => {}
        }
        config
    }

    /// The graph of one run, wired to fresh [`Probes`]. `paced_t0_us`
    /// turns the sink's latency recording on.
    pub fn graph(&self, seed: u64, pace: Pace, paced_t0_us: Option<u64>) -> (Graph, Probes) {
        let probes = Probes::default();
        let (source, sink, keyed) =
            (probes.source.clone(), probes.sink.clone(), probes.keyed_instances.clone());
        let workload = *self;
        let builder = GraphBuilder::new(self.name).source("src", move || {
            BenchSource::new(workload.packet_gen(seed), pace, source.clone())
        });
        let graph = match self.kind {
            Kind::RelayInproc | Kind::RelayTcp => {
                let bytes = self.packet_bytes;
                builder
                    .processor("relay", || Relay)
                    .processor("sink", move || {
                        RelaySink::new(bytes, seed, paced_t0_us, sink.clone())
                    })
                    .link("src", "relay", PartitioningScheme::Shuffle)
                    .link("relay", "sink", PartitioningScheme::Shuffle)
            }
            Kind::Manufacturing => builder
                .processor("extract", || MfgExtract)
                .processor_n("detect", KEYED_PARALLELISM, move || MfgDetect::new(keyed.clone()))
                .processor("sink", move || MfgSink::new(paced_t0_us, sink.clone()))
                .link("src", "extract", PartitioningScheme::Shuffle)
                .link("extract", "detect", PartitioningScheme::by_field("pair"))
                .link("detect", "sink", PartitioningScheme::Shuffle),
            Kind::WindowCheckpoint => builder
                .processor_n("agg", KEYED_PARALLELISM, move || WindowAgg::new(keyed.clone()))
                .processor("sink", move || WindowSink::new(paced_t0_us, sink.clone()))
                .link("src", "agg", PartitioningScheme::by_field("key"))
                .link("agg", "sink", PartitioningScheme::Shuffle),
            Kind::ClusterCut => unreachable!("cluster_cut jobs are built from descriptors"),
        };
        (graph.build().expect("the workload table holds valid graphs"), probes)
    }
}
