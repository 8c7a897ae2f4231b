//! # neptune
//!
//! Facade crate for the NEPTUNE stream-processing reproduction: one
//! dependency that re-exports the whole stack.
//!
//! * [`core`](neptune_core) — the NEPTUNE framework: packets, operators,
//!   graphs, the runtime with buffering / batching / backpressure /
//!   compression / object reuse.
//! * [`granules`](neptune_granules) — the Granules substrate (tasks,
//!   resources, datasets, scheduling strategies).
//! * [`net`](neptune_net) — framing, output buffers, watermark queues,
//!   TCP + in-process transports.
//! * [`compress`](neptune_compress) — from-scratch LZ4, entropy,
//!   selective compression.
//! * [`stats`](neptune_stats) — t-tests, ANOVA, Tukey HSD, descriptive
//!   statistics.
//! * [`data`](neptune_data) — IoT, manufacturing (DEBS-2012-style), and
//!   random workload generators.
//! * [`storm`](neptune_storm) — the Apache-Storm-0.9-like baseline
//!   engine.
//! * [`sim`](neptune_sim) — the 50-node cluster simulator behind the
//!   paper's cluster-scale figures.
//! * [`link`](neptune_link) — the composable link stack: one
//!   [`LinkBuilder`](neptune_link::LinkBuilder) behind every
//!   frame-delivery path (in-process, TCP, chaos), with optional
//!   reliability (replay, dedup, supervision), trace tagging, and a
//!   retunable flush policy per link.
//! * [`cluster`](neptune_cluster) — real multi-process distribution:
//!   the `neptuned` node daemon, the coordinator control plane, graph
//!   partitioning, and the cross-process data plane.
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the per-figure experiment harness.

pub use neptune_cluster as cluster;
pub use neptune_compress as compress;
pub use neptune_core as core;
pub use neptune_data as data;
pub use neptune_granules as granules;
pub use neptune_link as link;
pub use neptune_net as net;
pub use neptune_sim as sim;
pub use neptune_stats as stats;
pub use neptune_storm as storm;
pub use neptune_telemetry as telemetry;

/// Convenience prelude: everything needed to define and run a job.
pub mod prelude {
    pub use neptune_core::prelude::*;
    pub use neptune_core::{now_micros, FieldValue, StreamPacket};
}
