//! # neptune-core
//!
//! NEPTUNE: a real-time, high-throughput stream processing framework for
//! IoT and sensing environments — a from-scratch Rust reproduction of
//! *Buddhika & Pallickara, IPDPS/IPPS 2016*, layered on the
//! `neptune-granules` runtime substrate exactly as the paper layers
//! NEPTUNE on Granules.
//!
//! ## Programming model (§III-A)
//!
//! * [`StreamPacket`] — the most fine-grained element of data: a set of
//!   typed data fields ([`FieldValue`]) drawn from natively supported
//!   primitive types.
//! * [`StreamSource`] — ingests external streams and emits packets into
//!   the graph.
//! * [`StreamProcessor`] — domain logic over packets from one or more
//!   incoming streams, emitting over outgoing streams.
//! * **Links** — connect operator instances; configured per link with a
//!   [`PartitioningScheme`] and transport options.
//! * **Parallelism** — each operator declares an instance count; streams
//!   are partitioned across instances.
//! * [`Graph`] — sources + processors + parallelism + links + partitioning,
//!   built via the fluent [`GraphBuilder`] API or a JSON descriptor
//!   ([`descriptor`]).
//!
//! ## Throughput optimizations (§III-B)
//!
//! 1. application-level buffering with capacity thresholds and flush
//!    timers (`neptune-net::OutputBuffer`, wired per channel),
//! 2. batched scheduling — one Granules execution drains a whole batch,
//! 3. object reuse — pooled packets and reusable codecs ([`pool`],
//!    [`codec`]),
//! 4. watermark backpressure propagated through blocking transports,
//! 5. entropy-based selective compression per link
//!    (`neptune-compress`).
//!
//! ## Quickstart
//!
//! ```
//! use neptune_core::prelude::*;
//!
//! // A source that emits the numbers 0..100, then finishes.
//! struct Nums(u64);
//! impl StreamSource for Nums {
//!     fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
//!         if self.0 >= 100 { return SourceStatus::Exhausted; }
//!         let mut p = StreamPacket::new();
//!         p.push_field("n", FieldValue::U64(self.0));
//!         self.0 += 1;
//!         ctx.emit(&p).unwrap();
//!         SourceStatus::Emitted(1)
//!     }
//! }
//!
//! // A processor that counts what it sees.
//! use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
//! struct Count(Arc<AtomicU64>);
//! impl StreamProcessor for Count {
//!     fn process(&mut self, _p: &StreamPacket, _ctx: &mut OperatorContext) {
//!         self.0.fetch_add(1, Ordering::Relaxed);
//!     }
//! }
//!
//! let seen = Arc::new(AtomicU64::new(0));
//! let seen2 = seen.clone();
//! let graph = GraphBuilder::new("quick")
//!     .source("nums", move || Nums(0))
//!     .processor("count", move || Count(seen2.clone()))
//!     .link("nums", "count", PartitioningScheme::Shuffle)
//!     .build()
//!     .unwrap();
//! let job = LocalRuntime::new(RuntimeConfig::default()).submit(graph).unwrap();
//! job.await_sources(std::time::Duration::from_secs(10));
//! job.stop();
//! assert_eq!(seen.load(Ordering::Relaxed), 100);
//! ```

pub mod channel;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod dead_letter;
pub mod descriptor;
pub mod graph;
pub mod json;
pub mod metrics;
pub mod operator;
pub mod packet;
pub mod partition;
pub mod pool;
pub mod runtime;
pub mod sources;
pub mod state;
pub mod telemetry;
pub mod window;

pub use channel::ChannelId;
pub use checkpoint::{
    CheckpointSnapshot, CheckpointStats, FileSnapshotStore, InstanceState, MemorySnapshotStore,
    SnapshotStore,
};
pub use codec::{CodecError, PacketCodec};
pub use config::{
    CheckpointConfig, CompressionMode, ContainmentConfig, LinkOptions, PlacementStrategy,
    RuntimeConfig, SnapshotStoreKind, TelemetryConfig,
};
pub use dead_letter::{DeadLetter, DeadLetterQueue};
pub use descriptor::{DescriptorError, OperatorRegistry};
pub use graph::{Graph, GraphBuilder, GraphError, LinkSpec, OperatorKind, OperatorSpec};
pub use metrics::{ContainmentStats, JobMetrics, OperatorMetrics};
pub use operator::{OperatorContext, SourceStatus, StreamProcessor, StreamSource};
pub use packet::{FieldType, FieldValue, Schema, SchemaError, StreamPacket};
pub use partition::PartitioningScheme;
pub use pool::{PacketPool, PoolStats};
pub use runtime::{JobHandle, LocalRuntime};
pub use sources::{IteratorSource, QueueSource, RateLimitedSource};
pub use state::{KeyedState, OperatorState, StateError};
pub use telemetry::{QueueGauge, TelemetryHub, TelemetrySample, TelemetrySnapshot};
pub use window::{SlidingWindow, TumblingWindow, WindowAggregate};

/// Convenience imports for building NEPTUNE jobs.
pub mod prelude {
    pub use crate::checkpoint::{FileSnapshotStore, MemorySnapshotStore, SnapshotStore};
    pub use crate::config::{
        CheckpointConfig, CompressionMode, ContainmentConfig, LinkOptions, PlacementStrategy,
        RuntimeConfig, SnapshotStoreKind, TelemetryConfig,
    };
    pub use crate::dead_letter::DeadLetter;
    pub use crate::graph::{Graph, GraphBuilder};
    pub use crate::operator::{OperatorContext, SourceStatus, StreamProcessor, StreamSource};
    pub use crate::packet::{FieldType, FieldValue, Schema, StreamPacket};
    pub use crate::partition::PartitioningScheme;
    pub use crate::runtime::{JobHandle, LocalRuntime};
    pub use crate::state::{KeyedState, OperatorState, StateError};
    pub use crate::telemetry::{QueueGauge, TelemetrySnapshot};
}

/// Turn any panic — on *any* thread — into an immediate nonzero exit.
///
/// Harness binaries (bench drivers, `cluster_bench`) assert liberally on
/// worker, sink, and device threads. A bare panic there unwinds only its
/// own thread: the main thread keeps waiting on a counter that will
/// never advance, burns the full drain deadline, and (if the panicking
/// thread is never joined) the process can still exit 0 under a broken
/// run. CI then records a green bench with garbage numbers. Installing
/// this hook first thing in `main` makes every assertion failure
/// terminate the whole process with exit code 1, after letting the
/// default hook print the message and location.
pub fn failfast() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default(info);
        eprintln!("failfast: panic on thread '{}' — exiting 1", {
            let t = std::thread::current();
            t.name().unwrap_or("<unnamed>").to_string()
        });
        std::process::exit(1);
    }));
}

/// Microseconds since the Unix epoch — the timestamp base used by packet
/// timestamp fields and latency measurement.
pub fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("system clock before epoch")
        .as_micros() as u64
}
