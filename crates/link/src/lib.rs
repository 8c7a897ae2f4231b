//! # neptune-link
//!
//! The composable link stack: **one** implementation of each
//! frame-delivery concern, layered behind the [`Link`] facade.
//!
//! ```text
//!   ┌──────────────────────────────────────────────────────────┐
//!   │ Link (builder-assembled per link)                        │
//!   │  · FlushPolicy    batch bytes / deadline / msg count     │
//!   │  · TraceTagger    sampled (runtime) | every-N (cluster)  │
//!   │  · reliability?   SupervisedLink: seq + ReplayBuffer +   │
//!   │                   reconnect/backoff; acks trim replay    │
//!   │  · transport      QueueLink | TcpFrameLink | ChaosLink   │
//!   └──────────────────────────────────────────────────────────┘
//!            receiving side: ReliableIngress = DedupFilter
//!            + cumulative-ack staging (immediate | quiescent)
//! ```
//!
//! Beside the stack sit the pieces that watch it: the shared
//! [`RecoveryStats`] and the reconnect [`backoff`].
//!
//! Before this crate, the repo had hand-grown frame-delivery paths —
//! in-process queue handover, TCP, the HA supervised link, and the
//! cluster data plane — each duplicating some mix of replay, dedup, ack
//! bookkeeping, flush thresholds, and trace stamping. They now compose the same layers: the runtime's channel
//! endpoints, the cluster egress, and the chaos harness all build links
//! through [`LinkBuilder`], and the wire format is identical to what each
//! path produced before.

pub mod backoff;
pub mod builder;
pub mod chaos;
pub mod dedup;
pub mod ingress;
pub mod replay;
pub mod stats;
pub mod supervisor;
pub mod tag;
pub mod transport;

pub use backoff::ReconnectPolicy;
pub use builder::{Connector, Link, LinkBuilder, LinkStats, LinkStatsSnapshot};
pub use chaos::{AckGate, ChaosLink, FaultEvent, FaultPlan};
pub use dedup::{Admit, DedupFilter};
pub use ingress::{AckMode, IngressVerdict, ReliableIngress};
pub use replay::{PendingFrame, ReplayBuffer};
pub use stats::{RecoverySnapshot, RecoveryStats};
pub use supervisor::{LinkEvent, SupervisedLink};
pub use tag::TraceTagger;
pub use transport::{FrameLink, OutboundFrame, QueueLink, SpaceListener, TcpFrameLink};

// The shared vocabulary the stack composes over lives in `neptune-net`
// (which cannot depend on this crate); re-export it so link users need
// one import path.
pub use neptune_net::flush::{FlushPolicy, FlushPolicySnapshot};
pub use neptune_net::transport::TransportError;

/// Microseconds since the Unix epoch — lazy `sent_at` stamping for traced
/// batches.
pub(crate) fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("system clock before epoch")
        .as_micros() as u64
}
