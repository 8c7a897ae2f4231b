//! Runtime and per-link configuration.
//!
//! Defaults follow the paper's evaluation setup (§IV-A): *"For NEPTUNE, we
//! have used the default configurations where the buffer size is set to
//! 1 MB. Thread pool sizes are determined automatically depending on the
//! number of cores in the machine it is running on."*

use neptune_compress::SelectiveCompressor;
use std::time::Duration;

/// Per-link compression policy (§III-B5: *"should be enabled and configured
/// for each stream individually even within the same stream processing
/// job"*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionMode {
    /// Never compress (the runtime default, like the paper's).
    Disabled,
    /// Compress payloads whose Shannon entropy is below this many
    /// bits/byte.
    Threshold(f64),
    /// Compress everything (used by the ablation study).
    Always,
}

impl CompressionMode {
    /// Materialize the policy object used on the flush path.
    pub fn to_compressor(self) -> SelectiveCompressor {
        match self {
            CompressionMode::Disabled => SelectiveCompressor::disabled(),
            CompressionMode::Threshold(t) => SelectiveCompressor::new(t),
            CompressionMode::Always => SelectiveCompressor::always(),
        }
    }
}

/// Per-link overrides of the job-wide defaults.
#[derive(Debug, Clone, Default)]
pub struct LinkOptions {
    /// Override of [`RuntimeConfig::buffer_bytes`].
    pub buffer_bytes: Option<usize>,
    /// Override of [`RuntimeConfig::flush_interval`].
    pub flush_interval: Option<Duration>,
    /// Override of [`RuntimeConfig::compression`].
    pub compression: Option<CompressionMode>,
}

impl LinkOptions {
    /// Builder: set the buffer capacity for this link.
    pub fn buffer_bytes(mut self, bytes: usize) -> Self {
        self.buffer_bytes = Some(bytes);
        self
    }

    /// Builder: set the flush-timer interval for this link.
    pub fn flush_interval(mut self, interval: Duration) -> Self {
        self.flush_interval = Some(interval);
        self
    }

    /// Builder: set the compression mode for this link.
    pub fn compression(mut self, mode: CompressionMode) -> Self {
        self.compression = Some(mode);
        self
    }
}

/// How operator instances are assigned to resources.
///
/// §VI lists *"a dynamic deployment model that leverages the available
/// capabilities of cluster nodes"* as future work; this implements its
/// static core: capacity-aware placement. Heavier resources (more cores,
/// more memory) receive proportionally more operator instances.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Instances cycle over resources uniformly (the default).
    #[default]
    RoundRobin,
    /// Weighted placement: resource `i` receives instances in proportion
    /// to `weights[i]` (e.g. core counts). Length must equal
    /// [`RuntimeConfig::resources`]; weights must not all be zero.
    CapacityWeighted(Vec<u32>),
}

/// How batches travel between operator instances on different resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Always hand batches over in process (single-machine deployments).
    InProcess,
    /// Use loopback/network TCP between instances on different resources,
    /// exercising the full IO-thread and kernel-flow-control path.
    Tcp,
}

/// Telemetry toggles. Off by default: the hot-path stage recorders cost a
/// few clock reads per batch and one per packet, and the headline bench
/// budget allows at most 2% — disabled means *no* wall-time reads on the
/// data path, not merely discarded samples. The job's flight recorder
/// (gate transitions, shedding, breaker trips, reconnects, ...) is not a
/// toggle: recording is wait-free and edge-only, so it is always on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch for latency histograms and the background sampler.
    pub enabled: bool,
    /// Interval between the sampler task's snapshots into the job's
    /// [`SampleRing`](neptune_telemetry::SampleRing).
    pub sample_interval: Duration,
    /// Causal per-packet tracing: deterministically sample one in this
    /// many source packets and record per-stage spans for them. `0`
    /// disables tracing entirely (no extra hot-path clock reads — the
    /// unsampled cost is a single mask test). Must be a power of two when
    /// nonzero, so sampling is one AND instead of a division.
    pub trace_sample_every: u32,
    /// Bind address (e.g. `"127.0.0.1:9898"`) for the live scrape
    /// endpoint serving `/metrics`, `/traces`, and `/events` from the IO
    /// tier. `None` (the default) binds nothing. The
    /// `NEPTUNE_SCRAPE_ADDR` environment variable supplies a default,
    /// mirroring `NEPTUNE_IO_THREADS`.
    pub scrape_addr: Option<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_interval: Duration::from_millis(100),
            trace_sample_every: 0,
            scrape_addr: std::env::var("NEPTUNE_SCRAPE_ADDR").ok().filter(|s| !s.is_empty()),
        }
    }
}

impl TelemetryConfig {
    /// An enabled config with the default interval.
    pub fn enabled() -> Self {
        TelemetryConfig { enabled: true, ..Default::default() }
    }

    /// Telemetry plus causal tracing at 1-in-`sample_every` packets.
    pub fn with_tracing(sample_every: u32) -> Self {
        TelemetryConfig { enabled: true, trace_sample_every: sample_every, ..Default::default() }
    }

    /// True when per-packet tracing is armed.
    pub fn tracing_enabled(&self) -> bool {
        self.trace_sample_every > 0
    }
}

/// Failure-containment and graceful-degradation toggles (ISSUE 5).
///
/// Two independent opt-ins live here:
///
/// * `enabled` arms **operator supervision**: panicking batch executions
///   are caught and retried with `neptune-link`'s deterministic jittered
///   backoff, poison batches are quarantined into the job's bounded
///   dead-letter queue, and a per-operator circuit breaker
///   (Closed→Open→HalfOpen) drains-and-drops while an operator is sick so
///   upstream watermark gates never wedge. Off by default: a panic then
///   unwinds to the worker pool, which retires that operator instance and
///   counts it (`worker_panics`); the job still stops.
/// * `max_stall` arms **SLO-driven load shedding at the sources**: a source
///   pump that backpressure has held back for `max_stall` drops what its
///   source emits, unencoded, until every outgoing link admits again.
///   Nothing inside the graph ever drops a packet — the watermark queues
///   stay lossless (§III-B4) — and barriers are never shed. The default
///   `None` is the paper's lossless backpressure, all the way to the
///   source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainmentConfig {
    /// Master switch for supervision, quarantine, and circuit breaking.
    pub enabled: bool,
    /// Times a panicking batch is re-executed before quarantine.
    pub max_retries: u32,
    /// Consecutive quarantined batches that trip an operator's breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker rejects batches before probing.
    pub breaker_cooldown: Duration,
    /// How long backpressure may hold a source back before it sheds.
    /// Independent of `enabled`; `None` keeps the job lossless.
    pub max_stall: Option<Duration>,
}

impl Default for ContainmentConfig {
    fn default() -> Self {
        ContainmentConfig {
            enabled: false,
            max_retries: 2,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            max_stall: None,
        }
    }
}

impl ContainmentConfig {
    /// Supervision enabled with default retry/breaker/quarantine knobs
    /// (shedding stays off — that is a separate opt-in).
    pub fn enabled() -> Self {
        ContainmentConfig { enabled: true, ..Default::default() }
    }
}

/// Which [`SnapshotStore`](crate::checkpoint::SnapshotStore) backs the
/// checkpoint subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SnapshotStoreKind {
    /// In-process store (the default): snapshots survive operator
    /// restarts within the job but not process death. Right for tests
    /// and for the chaos harness's kill-and-resume phase.
    #[default]
    Memory,
    /// File-backed store rooted at this directory: one file per
    /// completed checkpoint, written temp-then-rename so a crash never
    /// leaves a torn snapshot visible.
    File(std::path::PathBuf),
}

/// Aligned-checkpoint toggles (ISSUE 10, ROADMAP item 4). Off by
/// default: when disabled the runtime spawns no barrier timer, sources
/// emit no barrier frames, and processors take the exact pre-checkpoint
/// drain path — bit-identical behaviour to builds before this feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Master switch for barrier injection, alignment, and snapshots.
    pub enabled: bool,
    /// Interval between checkpoint rounds. Each round injects one
    /// barrier wave at the sources.
    pub interval: Duration,
    /// Completed checkpoints retained in the store; older ones are
    /// pruned as new ones complete.
    pub retain: usize,
    /// Where completed snapshots live.
    pub store: SnapshotStoreKind,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            enabled: false,
            interval: Duration::from_millis(100),
            retain: 3,
            store: SnapshotStoreKind::Memory,
        }
    }
}

impl CheckpointConfig {
    /// An enabled config with default interval, retention, and the
    /// in-memory store.
    pub fn enabled() -> Self {
        CheckpointConfig { enabled: true, ..Default::default() }
    }

    /// An enabled config snapshotting every `interval`.
    pub fn every(interval: Duration) -> Self {
        CheckpointConfig { enabled: true, interval, ..Default::default() }
    }

    /// An enabled config persisting snapshots under `dir`.
    pub fn file_backed(dir: impl Into<std::path::PathBuf>) -> Self {
        CheckpointConfig {
            enabled: true,
            store: SnapshotStoreKind::File(dir.into()),
            ..Default::default()
        }
    }
}

/// Job-wide runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Application-level buffer capacity per channel, in bytes.
    /// Paper default: 1 MB.
    pub buffer_bytes: usize,
    /// Flush-timer bound on buffering delay since the first buffered
    /// message (§III-B1's latency soft upper bound) — a backstop, not the
    /// usual flush. A source's batch leaves when its source stops keeping
    /// its pump busy (it answers `Idle` or `Pending`, or sleeps or blocks
    /// in `next()`), and a processor's when its input runs out. The timer
    /// fires for the rest: a source that keeps its pump busy without
    /// filling a buffer, a pump parked on one refusing link while its
    /// other channels hold data, and a processor drain that outlasts it.
    pub flush_interval: Duration,
    /// Inbound-queue high watermark, bytes (§III-B4).
    pub watermark_high: usize,
    /// Inbound-queue low watermark, bytes. Must be below the high one.
    pub watermark_low: usize,
    /// Default link compression mode.
    pub compression: CompressionMode,
    /// Worker threads per resource. `None` = sized automatically from the
    /// host core count (and never below the number of processor instances
    /// placed on the resource).
    pub worker_threads: Option<usize>,
    /// IO-tier threads per job (§IV-C's two-tier model). The IO tier runs
    /// every background activity — source pumps, socket tasks, the
    /// telemetry sampler — as cooperatively scheduled tasks, so this does
    /// **not** need to scale with source parallelism. `None` = sized automatically from the host core
    /// count; the `NEPTUNE_IO_THREADS` environment variable overrides the
    /// default (mirroring `NEPTUNE_CHAOS_SEED`).
    pub io_threads: Option<usize>,
    /// Batched scheduling (§III-B2). `false` reproduces the paper's
    /// per-message ablation: every packet flushes and schedules
    /// individually (Table I's "Individual Message Processing").
    pub batched_scheduling: bool,
    /// Number of Granules resources (containers) to launch.
    pub resources: usize,
    /// Transport between resources.
    pub transport: TransportMode,
    /// Read by nothing; kept only because the benchmark's frozen `perfbench/` literal names it.
    pub net_reactor: bool,
    /// How operator instances map onto resources.
    pub placement: PlacementStrategy,
    /// Latency/stage instrumentation and background sampling.
    pub telemetry: TelemetryConfig,
    /// Operator supervision, poison quarantine, and load shedding
    /// (ISSUE 5).
    pub containment: ContainmentConfig,
    /// Aligned checkpoints and stateful recovery (ISSUE 10).
    pub checkpoint: CheckpointConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            buffer_bytes: 1 << 20, // 1 MB, the paper's default
            flush_interval: Duration::from_millis(10),
            watermark_high: 8 << 20,
            watermark_low: 4 << 20,
            compression: CompressionMode::Disabled,
            worker_threads: None,
            io_threads: std::env::var("NEPTUNE_IO_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n: &usize| n > 0),
            batched_scheduling: true,
            resources: 1,
            transport: TransportMode::InProcess,
            net_reactor: true,
            placement: PlacementStrategy::RoundRobin,
            telemetry: TelemetryConfig::default(),
            containment: ContainmentConfig::default(),
            checkpoint: CheckpointConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Validate cross-field constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.buffer_bytes == 0 {
            return Err("buffer_bytes must be positive".into());
        }
        if self.watermark_low >= self.watermark_high {
            return Err(format!(
                "watermark_low ({}) must be below watermark_high ({})",
                self.watermark_low, self.watermark_high
            ));
        }
        if self.io_threads == Some(0) {
            return Err("io_threads must be positive when set".into());
        }
        if self.resources == 0 {
            return Err("resources must be positive".into());
        }
        if let CompressionMode::Threshold(t) = self.compression {
            if !(0.0..=8.0).contains(&t) {
                return Err(format!("compression threshold {t} outside [0, 8] bits/byte"));
            }
        }
        if self.telemetry.enabled && self.telemetry.sample_interval.is_zero() {
            return Err("telemetry sample_interval must be positive".into());
        }
        if self.telemetry.trace_sample_every > 0
            && !self.telemetry.trace_sample_every.is_power_of_two()
        {
            return Err(format!(
                "telemetry trace_sample_every ({}) must be a power of two",
                self.telemetry.trace_sample_every
            ));
        }
        if let Some(addr) = &self.telemetry.scrape_addr {
            if addr.parse::<std::net::SocketAddr>().is_err() {
                return Err(format!("telemetry scrape_addr {addr:?} is not a socket address"));
            }
        }
        if self.containment.enabled {
            if self.containment.breaker_threshold == 0 {
                return Err("containment breaker_threshold must be at least 1".into());
            }
            if self.containment.breaker_cooldown.is_zero() {
                return Err("containment breaker_cooldown must be positive".into());
            }
        }
        if self.containment.max_stall == Some(Duration::ZERO) {
            return Err("containment max_stall must be positive when shedding is enabled".into());
        }
        if self.checkpoint.enabled {
            if self.checkpoint.interval.is_zero() {
                return Err("checkpoint interval must be positive".into());
            }
            if self.checkpoint.retain == 0 {
                return Err("checkpoint retain must be at least 1".into());
            }
            if let SnapshotStoreKind::File(dir) = &self.checkpoint.store {
                if dir.as_os_str().is_empty() {
                    return Err("checkpoint store directory must not be empty".into());
                }
            }
        }
        if let PlacementStrategy::CapacityWeighted(w) = &self.placement {
            if w.len() != self.resources {
                return Err(format!(
                    "placement weights ({}) must match resources ({})",
                    w.len(),
                    self.resources
                ));
            }
            if w.iter().all(|&x| x == 0) {
                return Err("placement weights must not all be zero".into());
            }
        }
        Ok(())
    }

    /// The effective buffer capacity, honoring the batched-scheduling
    /// ablation toggle (per-message mode flushes on every push).
    pub fn effective_buffer_bytes(&self, link_override: Option<usize>) -> usize {
        if !self.batched_scheduling {
            1
        } else {
            link_override.unwrap_or(self.buffer_bytes)
        }
    }

    /// The effective per-execution frame budget under the ablation toggle.
    pub fn effective_batch_max(&self) -> usize {
        /// Max frames a processor drains per scheduled execution.
        const BATCH_MAX_FRAMES: usize = 16;
        if self.batched_scheduling {
            BATCH_MAX_FRAMES
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RuntimeConfig::default();
        assert_eq!(c.buffer_bytes, 1 << 20);
        assert!(c.batched_scheduling);
        assert_eq!(c.compression, CompressionMode::Disabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = RuntimeConfig { buffer_bytes: 0, ..Default::default() };
        assert!(c.validate().is_err());
        c.buffer_bytes = 1024;
        c.watermark_low = c.watermark_high;
        assert!(c.validate().is_err());
        c.watermark_low = 1;
        c.compression = CompressionMode::Threshold(9.0);
        assert!(c.validate().is_err());
        c.compression = CompressionMode::Threshold(4.0);
        c.resources = 0;
        assert!(c.validate().is_err());
        c.resources = 1;
        c.io_threads = Some(0);
        assert!(c.validate().is_err());
        c.io_threads = Some(1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ablation_toggle_changes_effective_values() {
        let mut c = RuntimeConfig::default();
        assert_eq!(c.effective_buffer_bytes(None), 1 << 20);
        assert_eq!(c.effective_buffer_bytes(Some(4096)), 4096);
        assert_eq!(c.effective_batch_max(), 16);
        c.batched_scheduling = false;
        assert_eq!(c.effective_buffer_bytes(Some(4096)), 1);
        assert_eq!(c.effective_batch_max(), 1);
    }

    #[test]
    fn placement_weights_validated() {
        let ok = RuntimeConfig {
            resources: 3,
            placement: PlacementStrategy::CapacityWeighted(vec![8, 8, 4]),
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        let wrong_len = RuntimeConfig {
            resources: 2,
            placement: PlacementStrategy::CapacityWeighted(vec![1]),
            ..Default::default()
        };
        assert!(wrong_len.validate().is_err());
        let all_zero = RuntimeConfig {
            resources: 2,
            placement: PlacementStrategy::CapacityWeighted(vec![0, 0]),
            ..Default::default()
        };
        assert!(all_zero.validate().is_err());
    }

    #[test]
    fn telemetry_defaults_off_and_validated() {
        let c = RuntimeConfig::default();
        assert!(!c.telemetry.enabled, "telemetry must be opt-in");
        let on = RuntimeConfig { telemetry: TelemetryConfig::enabled(), ..Default::default() };
        assert!(on.validate().is_ok());
        let bad_interval = RuntimeConfig {
            telemetry: TelemetryConfig {
                enabled: true,
                sample_interval: Duration::ZERO,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(bad_interval.validate().is_err());
    }

    #[test]
    fn tracing_config_validated() {
        let on =
            RuntimeConfig { telemetry: TelemetryConfig::with_tracing(128), ..Default::default() };
        assert!(on.telemetry.tracing_enabled());
        assert!(on.validate().is_ok());
        let off = RuntimeConfig::default();
        assert!(!off.telemetry.tracing_enabled(), "tracing must be opt-in");
        let not_pow2 =
            RuntimeConfig { telemetry: TelemetryConfig::with_tracing(100), ..Default::default() };
        assert!(not_pow2.validate().is_err(), "sample rate must be a power of two");
        let bad_addr = RuntimeConfig {
            telemetry: TelemetryConfig {
                scrape_addr: Some("not-an-addr".into()),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(bad_addr.validate().is_err());
        let good_addr = RuntimeConfig {
            telemetry: TelemetryConfig {
                scrape_addr: Some("127.0.0.1:0".into()),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(good_addr.validate().is_ok());
    }

    #[test]
    fn containment_defaults_off_and_validated() {
        let c = RuntimeConfig::default();
        assert!(!c.containment.enabled, "supervision must be opt-in");
        assert_eq!(c.containment.max_stall, None, "shedding must be opt-in");
        assert!(c.validate().is_ok());
        let on = RuntimeConfig { containment: ContainmentConfig::enabled(), ..Default::default() };
        assert!(on.validate().is_ok());
        let bad_breaker = RuntimeConfig {
            containment: ContainmentConfig { breaker_threshold: 0, ..ContainmentConfig::enabled() },
            ..Default::default()
        };
        assert!(bad_breaker.validate().is_err());
        let bad_stall = RuntimeConfig {
            containment: ContainmentConfig {
                max_stall: Some(Duration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(bad_stall.validate().is_err(), "armed shedding needs a positive max_stall");
    }

    #[test]
    fn checkpoint_defaults_off_and_validated() {
        let c = RuntimeConfig::default();
        assert!(!c.checkpoint.enabled, "checkpointing must be opt-in");
        assert_eq!(c.checkpoint.store, SnapshotStoreKind::Memory);
        assert!(c.validate().is_ok());
        let on = RuntimeConfig { checkpoint: CheckpointConfig::enabled(), ..Default::default() };
        assert!(on.validate().is_ok());
        let timed = CheckpointConfig::every(Duration::from_millis(25));
        assert!(timed.enabled && timed.interval == Duration::from_millis(25));
        let filed = CheckpointConfig::file_backed("/tmp/ckpt");
        assert!(matches!(filed.store, SnapshotStoreKind::File(_)));
        let bad_interval = RuntimeConfig {
            checkpoint: CheckpointConfig {
                interval: Duration::ZERO,
                ..CheckpointConfig::enabled()
            },
            ..Default::default()
        };
        assert!(bad_interval.validate().is_err());
        let bad_retain = RuntimeConfig {
            checkpoint: CheckpointConfig { retain: 0, ..CheckpointConfig::enabled() },
            ..Default::default()
        };
        assert!(bad_retain.validate().is_err());
        let bad_dir = RuntimeConfig {
            checkpoint: CheckpointConfig {
                store: SnapshotStoreKind::File(Default::default()),
                ..CheckpointConfig::enabled()
            },
            ..Default::default()
        };
        assert!(bad_dir.validate().is_err());
    }

    #[test]
    fn link_options_builder() {
        let o = LinkOptions::default()
            .buffer_bytes(2048)
            .flush_interval(Duration::from_millis(5))
            .compression(CompressionMode::Always);
        assert_eq!(o.buffer_bytes, Some(2048));
        assert_eq!(o.flush_interval, Some(Duration::from_millis(5)));
        assert_eq!(o.compression, Some(CompressionMode::Always));
    }

    #[test]
    fn compression_mode_materializes() {
        assert!(!CompressionMode::Disabled.to_compressor().is_enabled());
        assert!(CompressionMode::Always.to_compressor().is_enabled());
        let t = CompressionMode::Threshold(3.5).to_compressor();
        assert_eq!(t.threshold(), 3.5);
    }
}
