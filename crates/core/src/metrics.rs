//! Job and per-operator metrics.
//!
//! Counters are lock-free atomics updated on the hot path and snapshotted
//! by the benchmark harness; the paper's three evaluation metrics —
//! throughput, latency, and bandwidth consumption (§IV) — are all derived
//! from these plus packet timestamps.
//!
//! Each snapshot struct declares its export schema once — a `FIELDS`
//! table of [`FieldDef`] rows — and a `walk` that feeds it to an
//! [`Exporter`]; [`JobMetrics::walk`] is the `metrics` section of both
//! telemetry exports (see [`crate::telemetry`]). A new counter is one
//! struct field, one table row and one entry in the walk's value list.

use neptune_net::pool::BytesPoolStats;
use neptune_telemetry::exporter::{counter, gauge};
use neptune_telemetry::{Exporter, FieldDef};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters for one operator (all instances aggregate into one set;
/// per-instance attribution is recoverable from instance-tagged snapshots
/// if needed, but the paper reports per-operator numbers).
#[derive(Debug, Default)]
pub struct OperatorCounters {
    /// Packets received (processors) from upstream links.
    pub packets_in: AtomicU64,
    /// Packets emitted over outgoing links.
    pub packets_out: AtomicU64,
    /// Batches (frames) received.
    pub frames_in: AtomicU64,
    /// Batches (frames) sent.
    pub frames_out: AtomicU64,
    /// Wire bytes sent over outgoing links (headers included).
    pub bytes_out: AtomicU64,
    /// Scheduled executions of this operator's task.
    pub executions: AtomicU64,
    /// Sequence-order or duplication violations observed (exactly-once
    /// checks; must be 0 in a healthy run).
    pub seq_violations: AtomicU64,
    /// Panicking batch executions caught by the supervisor (retries
    /// included; each caught unwind counts once).
    pub panics: AtomicU64,
    /// Supervised re-executions after a caught panic.
    pub retries: AtomicU64,
    /// Poison batches quarantined to the dead-letter queue after the
    /// retry cap.
    pub quarantined: AtomicU64,
    /// Circuit-breaker trips (Closed/HalfOpen → Open) for this operator.
    pub breaker_trips: AtomicU64,
    /// Frames drained-and-dropped while the breaker was open.
    pub breaker_dropped: AtomicU64,
}

/// Immutable snapshot of one operator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorMetrics {
    /// Packets received.
    pub packets_in: u64,
    /// Packets emitted.
    pub packets_out: u64,
    /// Frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Scheduled executions.
    pub executions: u64,
    /// Ordering/duplication violations.
    pub seq_violations: u64,
    /// Caught panicking executions.
    pub panics: u64,
    /// Retries after caught panics.
    pub retries: u64,
    /// Batches quarantined as poison.
    pub quarantined: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Frames dropped while the breaker was open.
    pub breaker_dropped: u64,
}

impl OperatorCounters {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> OperatorMetrics {
        OperatorMetrics {
            packets_in: self.packets_in.load(Ordering::Relaxed),
            packets_out: self.packets_out.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            executions: self.executions.load(Ordering::Relaxed),
            seq_violations: self.seq_violations.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_dropped: self.breaker_dropped.load(Ordering::Relaxed),
        }
    }
}

impl OperatorMetrics {
    /// Average packets per scheduled execution (batching effectiveness).
    pub fn packets_per_execution(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.packets_in as f64 / self.executions as f64
        }
    }

    /// Average batch size in packets per frame.
    pub fn packets_per_frame(&self) -> f64 {
        if self.frames_in == 0 {
            0.0
        } else {
            self.packets_in as f64 / self.frames_in as f64
        }
    }

    /// `frames_in` and `executions` are JSON-only: no Prometheus family
    /// has ever carried them.
    const FIELDS: [FieldDef; 12] = [
        counter("packets_in", "neptune_packets_in_total"),
        counter("packets_out", "neptune_packets_out_total"),
        counter("frames_in", ""),
        counter("frames_out", "neptune_frames_out_total"),
        counter("bytes_out", "neptune_bytes_out_total"),
        counter("executions", ""),
        counter("seq_violations", "neptune_seq_violations_total"),
        counter("panics", "neptune_operator_panics_total"),
        counter("retries", "neptune_operator_retries_total"),
        counter("quarantined", "neptune_operator_quarantined_total"),
        counter("breaker_trips", "neptune_breaker_trips_total"),
        counter("breaker_dropped", "neptune_breaker_dropped_total"),
    ];

    /// Walk this operator's counters into `exporter` as
    /// `metrics.operators.<operator>`, labelled with the operator name.
    pub fn walk(&self, exporter: &mut dyn Exporter, operator: &str) {
        exporter.group(&["metrics", "operators", operator], &[("operator", operator)]);
        exporter.fields(
            &Self::FIELDS,
            &[
                self.packets_in,
                self.packets_out,
                self.frames_in,
                self.frames_out,
                self.bytes_out,
                self.executions,
                self.seq_violations,
                self.panics,
                self.retries,
                self.quarantined,
                self.breaker_trips,
                self.breaker_dropped,
            ],
        );
    }
}

/// Gauges of the two-tier execution plane: the event-driven IO tier
/// (source pumps, socket tasks, telemetry sampler as
/// cooperatively scheduled tasks over a fixed thread set plus a timer
/// wheel) and the worker tier (the Granules resource pools). The headline
/// property — thread count independent of source parallelism — is
/// directly readable here: `io_threads` stays fixed while `live_io_tasks`
/// scales with the job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadModelStats {
    /// Fixed IO-tier threads serving all IO tasks of the job.
    pub io_threads: usize,
    /// Worker threads across all resources (operator execution tier).
    pub worker_threads: usize,
    /// IO tasks spawned and not yet completed (pumps, sockets, samplers).
    pub live_io_tasks: usize,
    /// IO tasks currently waiting in the ready queue.
    pub queued_io_tasks: usize,
    /// Live registrations on the IO tier's hierarchical timer wheel.
    pub timer_depth: usize,
    /// Cumulative timer callbacks fired.
    pub timer_fires: u64,
    /// Cumulative IO-task park transitions (task went idle).
    pub io_parks: u64,
    /// Cumulative IO-task wake events (capacity, timer, or explicit).
    pub io_wakes: u64,
    /// Cumulative IO-task run stints.
    pub io_polls: u64,
    /// Open inbound TCP connections across the job's receivers (gauge;
    /// 0 when the transport is in-process or the job has stopped).
    pub net_connections: usize,
    /// Sockets currently registered with the network reactor (gauge; 0
    /// when the reactor path is disabled).
    pub net_interests: usize,
    /// Cumulative readiness events the reactor dispatched to IO tasks.
    pub net_readiness_events: u64,
    /// Cumulative interest re-arms after `WouldBlock` (each one is a
    /// socket operation that ran dry and went back to waiting).
    pub net_rearms: u64,
    /// Largest accept burst drained in one readiness stint across the
    /// job's listeners (high-water mark of accept backlog pressure).
    pub net_accept_backlog_peak: u64,
    /// Telemetry time-series samples lost to sampler-ring claim races
    /// (ISSUE 7 satellite; 0 when the sampler keeps up or is off).
    pub sampler_dropped: u64,
    /// Trace spans published to the span ring (0 when tracing is off).
    pub trace_spans: u64,
    /// Trace spans lost to span-ring claim races.
    pub trace_dropped: u64,
    /// Runtime events appended to the flight recorder.
    pub recorder_events: u64,
    /// Runtime events lost to recorder claim races.
    pub recorder_dropped: u64,
}

impl ThreadModelStats {
    const FIELDS: [FieldDef; 19] = [
        gauge("io_threads", "neptune_io_threads"),
        gauge("worker_threads", "neptune_worker_threads"),
        gauge("live_io_tasks", "neptune_io_tasks_live"),
        gauge("queued_io_tasks", "neptune_io_queue_depth"),
        gauge("timer_depth", "neptune_timer_depth"),
        counter("timer_fires", "neptune_timer_fires_total"),
        counter("io_parks", "neptune_io_parks_total"),
        counter("io_wakes", "neptune_io_wakes_total"),
        counter("io_polls", "neptune_io_polls_total"),
        gauge("net_connections", "neptune_net_connections"),
        gauge("net_interests", "neptune_net_interests"),
        counter("net_readiness_events", "neptune_net_readiness_events_total"),
        counter("net_rearms", "neptune_net_rearms_total"),
        gauge("net_accept_backlog_peak", "neptune_net_accept_backlog_peak"),
        counter("sampler_dropped", "neptune_sampler_dropped_total"),
        counter("trace_spans", "neptune_trace_spans_total"),
        counter("trace_dropped", "neptune_trace_dropped_total"),
        counter("recorder_events", "neptune_recorder_events_total"),
        counter("recorder_dropped", "neptune_recorder_dropped_total"),
    ];

    /// Walk the tier gauges into `exporter` as `metrics.thread_model`.
    pub fn walk(&self, exporter: &mut dyn Exporter) {
        exporter.group(&["metrics", "thread_model"], &[]);
        exporter.fields(
            &Self::FIELDS,
            &[
                self.io_threads as u64,
                self.worker_threads as u64,
                self.live_io_tasks as u64,
                self.queued_io_tasks as u64,
                self.timer_depth as u64,
                self.timer_fires,
                self.io_parks,
                self.io_wakes,
                self.io_polls,
                self.net_connections as u64,
                self.net_interests as u64,
                self.net_readiness_events,
                self.net_rearms,
                self.net_accept_backlog_peak,
                self.sampler_dropped,
                self.trace_spans,
                self.trace_dropped,
                self.recorder_events,
                self.recorder_dropped,
            ],
        );
    }
}

/// Job-wide failure-containment counters (ISSUE 5): what the supervision
/// ladder caught, what the queues sacrificed, and what the worker pools
/// absorbed. All zero in a healthy run with containment off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainmentStats {
    /// Panics caught by the worker pools themselves — the last-resort
    /// layer below supervision (a panic that unwound out of a task).
    pub worker_panics: u64,
    /// The same on the IO tier: a pump, flush, socket or sampler task
    /// that panicked and was retired.
    pub io_task_panics: u64,
    /// Panicking executions caught by operator supervisors.
    pub panics: u64,
    /// Supervised retries after caught panics.
    pub retries: u64,
    /// Poison batches quarantined to the dead-letter queue.
    pub quarantined: u64,
    /// Circuit-breaker trips across all operators.
    pub breaker_trips: u64,
    /// Frames drained-and-dropped by open breakers.
    pub breaker_dropped: u64,
    /// Dead letters currently held in the queue.
    pub dead_letters: u64,
    /// Dead letters evicted because the queue was at capacity.
    pub dead_letters_evicted: u64,
    /// Packets source pumps dropped unencoded while shedding
    /// (`ContainmentConfig::max_stall`), counted as each episode ends.
    pub shed_total: u64,
}

impl ContainmentStats {
    const FIELDS: [FieldDef; 10] = [
        counter("worker_panics", "neptune_worker_panics_total"),
        counter("io_task_panics", "neptune_io_task_panics_total"),
        counter("panics", "neptune_containment_panics_total"),
        counter("retries", "neptune_containment_retries_total"),
        counter("quarantined", "neptune_containment_quarantined_total"),
        counter("breaker_trips", "neptune_containment_breaker_trips_total"),
        counter("breaker_dropped", "neptune_containment_breaker_dropped_total"),
        gauge("dead_letters", "neptune_dead_letters"),
        counter("dead_letters_evicted", "neptune_dead_letters_evicted_total"),
        counter("shed_total", "neptune_shed_total"),
    ];

    /// Walk the containment counters into `exporter` as
    /// `metrics.containment`.
    pub fn walk(&self, exporter: &mut dyn Exporter) {
        exporter.group(&["metrics", "containment"], &[]);
        exporter.fields(
            &Self::FIELDS,
            &[
                self.worker_panics,
                self.io_task_panics,
                self.panics,
                self.retries,
                self.quarantined,
                self.breaker_trips,
                self.breaker_dropped,
                self.dead_letters,
                self.dead_letters_evicted,
                self.shed_total,
            ],
        );
    }
}

/// Snapshot of a whole job's metrics, keyed by operator name.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Per-operator snapshots.
    pub operators: BTreeMap<String, OperatorMetrics>,
    /// Job-wide batch-buffer pool counters (hits, misses, bytes reused);
    /// filled by [`crate::runtime::JobHandle::metrics`], default-zero when
    /// the snapshot comes straight from a bare [`MetricsRegistry`].
    pub buffer_pool: BytesPoolStats,
    /// Two-tier thread-model gauges; filled by
    /// [`crate::runtime::JobHandle::metrics`], default-zero from a bare
    /// [`MetricsRegistry`].
    pub thread_model: ThreadModelStats,
    /// Failure-containment counters; operator-level parts aggregate from
    /// the per-operator snapshots, queue/pool parts are filled by
    /// [`crate::runtime::JobHandle::metrics`].
    pub containment: ContainmentStats,
}

impl JobMetrics {
    /// Metrics of one operator (default-zero when unknown).
    pub fn operator(&self, name: &str) -> OperatorMetrics {
        self.operators.get(name).copied().unwrap_or_default()
    }

    /// Total packets emitted by all sources (operators with no inputs show
    /// `packets_in == 0`).
    pub fn total_source_packets(&self) -> u64 {
        self.operators.values().filter(|m| m.packets_in == 0).map(|m| m.packets_out).sum()
    }

    /// Total wire bytes across all operators.
    pub fn total_bytes_out(&self) -> u64 {
        self.operators.values().map(|m| m.bytes_out).sum()
    }

    /// Total sequencing violations across the job (exactly-once check).
    pub fn total_seq_violations(&self) -> u64 {
        self.operators.values().map(|m| m.seq_violations).sum()
    }

    /// `returns` and `discards` are JSON-only: the hit/miss pair is what
    /// a dashboard reads, the other two explain it in a dump.
    const POOL_FIELDS: [FieldDef; 5] = [
        counter("hits", "neptune_pool_hits_total"),
        counter("misses", "neptune_pool_misses_total"),
        counter("returns", ""),
        counter("discards", ""),
        counter("bytes_reused", "neptune_pool_bytes_reused_total"),
    ];

    /// Walk the whole `metrics` section: per-operator counters, the
    /// buffer pool, the thread model and containment.
    pub fn walk(&self, exporter: &mut dyn Exporter) {
        for (name, operator) in &self.operators {
            operator.walk(exporter, name);
        }
        let pool = &self.buffer_pool;
        exporter.group(&["metrics", "buffer_pool"], &[]);
        exporter.fields(
            &Self::POOL_FIELDS,
            &[pool.hits, pool.misses, pool.returns, pool.discards, pool.bytes_reused],
        );
        self.thread_model.walk(exporter);
        self.containment.walk(exporter);
    }
}

/// A registry of operator counters shared between runtime internals and
/// snapshots.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<neptune_granules::sync::RwLock<BTreeMap<String, Arc<OperatorCounters>>>>,
}

impl MetricsRegistry {
    /// New, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters for `operator`, created on first use.
    pub fn for_operator(&self, operator: &str) -> Arc<OperatorCounters> {
        if let Some(c) = self.inner.read().get(operator) {
            return c.clone();
        }
        self.inner
            .write()
            .entry(operator.to_string())
            .or_insert_with(|| Arc::new(OperatorCounters::default()))
            .clone()
    }

    /// Snapshot every operator.
    pub fn snapshot(&self) -> JobMetrics {
        let operators: BTreeMap<String, OperatorMetrics> =
            self.inner.read().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect();
        let mut containment = ContainmentStats::default();
        for m in operators.values() {
            containment.panics += m.panics;
            containment.retries += m.retries;
            containment.quarantined += m.quarantined;
            containment.breaker_trips += m.breaker_trips;
            containment.breaker_dropped += m.breaker_dropped;
        }
        JobMetrics {
            operators,
            buffer_pool: BytesPoolStats::default(),
            thread_model: ThreadModelStats::default(),
            containment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_same_counters_per_name() {
        let reg = MetricsRegistry::new();
        let a = reg.for_operator("relay");
        let b = reg.for_operator("relay");
        a.packets_in.fetch_add(5, Ordering::Relaxed);
        assert_eq!(b.packets_in.load(Ordering::Relaxed), 5);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_reflects_counters() {
        let reg = MetricsRegistry::new();
        let c = reg.for_operator("src");
        c.packets_out.store(100, Ordering::Relaxed);
        c.bytes_out.store(6400, Ordering::Relaxed);
        c.executions.store(4, Ordering::Relaxed);
        let snap = reg.snapshot();
        let m = snap.operator("src");
        assert_eq!(m.packets_out, 100);
        assert_eq!(m.bytes_out, 6400);
        assert_eq!(snap.operator("unknown"), OperatorMetrics::default());
    }

    #[test]
    fn derived_ratios() {
        let m = OperatorMetrics {
            packets_in: 1000,
            frames_in: 10,
            executions: 5,
            ..Default::default()
        };
        assert_eq!(m.packets_per_execution(), 200.0);
        assert_eq!(m.packets_per_frame(), 100.0);
        let z = OperatorMetrics::default();
        assert_eq!(z.packets_per_execution(), 0.0);
        assert_eq!(z.packets_per_frame(), 0.0);
    }

    #[test]
    fn walk_drives_prometheus_from_the_tables() {
        let metrics = JobMetrics {
            operators: [(
                "relay".to_string(),
                OperatorMetrics { packets_in: 11, executions: 5, ..Default::default() },
            )]
            .into(),
            buffer_pool: BytesPoolStats { hits: 9, ..Default::default() },
            thread_model: ThreadModelStats { io_threads: 2, trace_spans: 7, ..Default::default() },
            containment: ContainmentStats { worker_panics: 3, ..Default::default() },
        };
        let mut prom = neptune_telemetry::PrometheusExporter::new();
        metrics.walk(&mut prom);
        let out = prom.finish();
        assert!(out.contains("# TYPE neptune_io_threads gauge\nneptune_io_threads 2\n"));
        assert!(out.contains("neptune_trace_spans_total 7\n"));
        assert!(out.contains("neptune_worker_panics_total 3\n"));
        assert!(out.contains("neptune_pool_hits_total 9\n"));
        assert!(out.contains("neptune_packets_in_total{operator=\"relay\"} 11\n"));
        assert!(!out.contains("executions"), "JSON-only rows stay out of the exposition");
    }

    #[test]
    fn job_aggregates() {
        let reg = MetricsRegistry::new();
        let src = reg.for_operator("source");
        src.packets_out.store(500, Ordering::Relaxed);
        src.bytes_out.store(4000, Ordering::Relaxed);
        let proc_ = reg.for_operator("proc");
        proc_.packets_in.store(500, Ordering::Relaxed);
        proc_.packets_out.store(500, Ordering::Relaxed);
        proc_.bytes_out.store(4000, Ordering::Relaxed);
        proc_.seq_violations.store(0, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.total_source_packets(), 500);
        assert_eq!(snap.total_bytes_out(), 8000);
        assert_eq!(snap.total_seq_violations(), 0);
    }
}
