//! # neptune-telemetry
//!
//! Observability primitives for the NEPTUNE reproduction: lock-free
//! log-bucketed latency histograms, per-operator stage timing, a bounded
//! time-series ring, and the schema both exports are rendered from.
//!
//! The paper evaluates exactly three axes — throughput, end-to-end
//! latency, and bandwidth (§IV) — and its headline claims are about
//! latency *distributions* (the flush-timer bound of Fig. 2 caps the
//! tail) and queue dynamics over *time* (the backpressure oscillation of
//! Fig. 4). This crate provides the measurement substrate for both:
//!
//! * [`LatencyHistogram`] — a fixed `[AtomicU64; N]` HDR-style histogram;
//!   recording is one relaxed `fetch_add`, snapshots merge across shards
//!   and answer p50/p95/p99/max.
//! * [`OperatorTelemetry`] — one histogram per pipeline stage
//!   (buffer-wait, transport, schedule delay, execution) plus end-to-end.
//! * [`SampleRing`] — a thread-safe bounded `(elapsed_micros, sample)`
//!   time series any scheduler can record into (the runtime's IO-tier
//!   timer task does).
//! * [`SpanRing`] — causal per-packet tracing: deterministically sampled
//!   per-stage [`Span`]s in a lock-free thread-sharded seqlock ring,
//!   exportable as Chrome trace-event JSON (Perfetto-loadable).
//! * [`FlightRecorder`] — a bounded lock-free timeline of structured
//!   [`RuntimeEvent`]s (gate transitions, shedding, breaker trips,
//!   reconnects, dead-letter admits), dumped on failure and served live.
//! * [`exporter`] — the [`Exporter`] trait and [`FieldDef`] tables every
//!   exported number is declared in once, and [`PrometheusExporter`], the
//!   one place exposition lines are written.
//!
//! This crate is deliberately dependency-free and job-agnostic: it knows
//! nothing about operators, queues, or configs. `neptune-core` owns the
//! wiring (what gets recorded where) and the job-level snapshot types.

mod histogram;
mod recorder;
mod ring;
mod sampler;
mod stages;
mod trace;

pub mod exporter;

pub use exporter::{Exporter, FieldDef, FieldKind, PrometheusExporter};
pub use histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, HistogramSnapshot, LatencyHistogram,
    N_BUCKETS,
};
pub use recorder::{EventKind, FlightRecorder, RuntimeEvent};
pub use ring::{Packable, SeqRing};
pub use sampler::SampleRing;
pub use stages::{OperatorTelemetry, OperatorTelemetrySnapshot, STAGE_NAMES};
pub use trace::{
    chrome_trace_json, wall_micros, PendingTrace, Span, SpanRing, STAGE_BUFFER_WAIT,
    STAGE_EXECUTION, STAGE_REACTOR, STAGE_SCHEDULE, STAGE_SINK, STAGE_SOURCE, STAGE_TRANSPORT,
    TRACE_STAGE_NAMES,
};
