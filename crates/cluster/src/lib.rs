//! # neptune-cluster — real multi-process job distribution
//!
//! Everything below this crate runs a NEPTUNE job inside one process.
//! This crate is the distribution layer on top: a `neptuned` node daemon
//! that registers with a coordinator and hosts a slice of a job's
//! operator graph, a coordinator that partitions the graph with the same
//! ring placement the cluster *simulator* uses, and a data plane that
//! carries cut edges over the existing framed TCP stack — sequenced
//! ack/replay and causal trace ids intact across process boundaries.
//!
//! Module map:
//!
//! * [`placement`] — ring placement + capacity-aware graph partitioning,
//!   shared with `neptune-sim` (the Fig. 6 curves and the real daemon use
//!   one function).
//! * [`proto`] — the versioned control protocol: a capability hello on
//!   every connection, then JSON control messages on NEPT control frames.
//! * [`ops`] — the builtin operator vocabulary distributed jobs are
//!   described in (`uid_source`, `forward`, `window_mean`, `uid_sink`).
//! * [`dataplane`] — per-node data endpoint: `__ingress`/`__egress`
//!   boundary operators over supervised, replayed, deduplicated links
//!   with quiescent acks.
//! * [`node`] — the `neptuned` daemon loop.
//! * [`coordinator`] — registration barrier, graph cutting, failure
//!   detection and reassignment, cluster-wide telemetry aggregation.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod dataplane;
pub mod node;
pub mod ops;
pub mod placement;
pub mod proto;
