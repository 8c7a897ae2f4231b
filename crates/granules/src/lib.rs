//! # neptune-granules
//!
//! A from-scratch reproduction of the **Granules** cloud runtime (Pallickara
//! et al., IEEE CLUSTER 2009) — the substrate NEPTUNE is built on (§II of
//! the NEPTUNE paper).
//!
//! Granules concepts reproduced here:
//!
//! * **Computational task** — the most fine-grained unit of execution,
//!   encapsulating domain logic over a fine-grained unit of data
//!   ([`ComputationalTask`]).
//! * **Resource** — a container launched on a physical machine that hosts
//!   computational tasks and manages their lifecycles ([`Resource`]).
//! * **Dataset** — unified access to low-level data (files, streams,
//!   key-value records) with data-availability notifications
//!   ([`dataset::Dataset`]).
//! * **Scheduling strategy** — data-driven, periodic, count-based, or a
//!   combination, changeable during execution ([`ScheduleSpec`]).
//!
//! The execution engine is one executor ([`io`]): a fixed pool of threads
//! running cooperatively-scheduled tasks, plus a timer-wheel thread. A
//! [`Resource`] owns one instance and runs its computational tasks on it;
//! NEPTUNE's IO tier is a second instance ([`IoPool`]), used directly.
//! Task executions are *coalesced*: when data signals arrive
//! faster than a task drains them, the task stays resident on a worker and
//! re-executes without being re-enqueued — this is the mechanism NEPTUNE's
//! batched scheduling (§III-B2) leans on to cut context switches.
//!
//! ```
//! use neptune_granules::{Resource, ComputationalTask, TaskContext, TaskOutcome, ScheduleSpec};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! struct Counter(Arc<AtomicU64>);
//! impl ComputationalTask for Counter {
//!     fn execute(&mut self, _ctx: &TaskContext) -> TaskOutcome {
//!         self.0.fetch_add(1, Ordering::Relaxed);
//!         TaskOutcome::Continue
//!     }
//! }
//!
//! let resource = Resource::builder("res-0").workers(2).build();
//! let hits = Arc::new(AtomicU64::new(0));
//! let task = resource.deploy(Counter(hits.clone()), ScheduleSpec::data_driven()).unwrap();
//! task.signal();
//! resource.drain();
//! assert_eq!(hits.load(Ordering::Relaxed), 1);
//! resource.shutdown();
//! ```

pub mod dataset;
pub mod error;
pub mod io;
pub mod reactor;
pub mod resource;
pub mod scheduler;
pub mod supervisor;
pub mod task;
pub mod test_support;
pub mod wheel;

pub use dataset::{Dataset, DatasetId, InMemoryDataset, QueueDataset};
pub use error::GranulesError;
pub use io::{IoContext, IoPool, IoPoolStats, IoSpawner, IoStatus, IoTask, IoTaskHandle};
pub use reactor::{
    NetSource, NetWaker, Reactor, ReactorHandle, ReactorStats, READY_CLOSED, READY_READABLE,
    READY_WRITABLE,
};
pub use resource::{Resource, ResourceBuilder, TaskHandle};
pub use scheduler::ScheduleSpec;
pub use supervisor::{
    BreakerState, CircuitBreaker, OperatorSupervisor, SupervisedOutcome, SupervisorPolicy,
    SupervisorStats,
};
pub use task::{ComputationalTask, TaskContext, TaskId, TaskOutcome, TaskState};
pub use wheel::{TimerScheduler, TimerWheel};
