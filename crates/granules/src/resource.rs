//! Resources — Granules' per-machine containers for computational tasks.
//!
//! §II of the NEPTUNE paper: *"Granules launches one or more resources at a
//! single physical machine which act as containers for individual
//! computation tasks. The framework is responsible for managing the life
//! cycles of computational tasks in addition to launching and terminating
//! computational tasks running on these resources."*
//!
//! ## Execution coalescing
//!
//! Each deployed task owns a *slot* with an atomic pending-signal counter
//! and a scheduled flag. Signals arriving while the task is executing do
//! not enqueue more pool jobs: the resident execution loops and consumes
//! them. One pool job therefore drains an arbitrarily long burst — this is
//! the scheduling substrate for NEPTUNE's batched processing (§III-B2,
//! Table I: 22× fewer context switches than per-message scheduling).

use crate::error::GranulesError;
use crate::scheduler::{ScheduleSpec, TimerService};
use crate::task::{
    ComputationalTask, TaskContext, TaskId, TaskIdAllocator, TaskOutcome, TaskState,
};
use crate::threadpool::WorkerPool;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

struct SlotInner {
    task: Box<dyn ComputationalTask>,
    initialized: bool,
}

struct TaskSlot {
    id: TaskId,
    inner: Mutex<SlotInner>,
    spec: RwLock<ScheduleSpec>,
    /// Data signals not yet consumed by an execution.
    pending: AtomicU64,
    /// Set while an execution loop owns this slot.
    scheduled: AtomicBool,
    /// Set by the periodic timer (forces an execution even with no data).
    forced: AtomicBool,
    /// Terminated tasks never execute again.
    terminated: AtomicBool,
    executions: AtomicU64,
    /// Timer registration for periodic schedules.
    timer_id: Mutex<Option<u64>>,
}

impl TaskSlot {
    fn state(&self) -> TaskState {
        if self.terminated.load(Ordering::Acquire) {
            TaskState::Terminated
        } else if self.scheduled.load(Ordering::Acquire) {
            TaskState::Scheduled
        } else {
            TaskState::Idle
        }
    }
}

struct ResourceInner {
    name: String,
    pool: WorkerPool,
    timer: TimerService,
    slots: RwLock<HashMap<TaskId, Arc<TaskSlot>>>,
    ids: TaskIdAllocator,
    shutdown: AtomicBool,
    /// Signals observed by the resource (for diagnostics).
    total_signals: AtomicU64,
}

impl ResourceInner {
    /// Try to transition the slot to scheduled and submit its run loop.
    fn try_schedule(self: &Arc<Self>, slot: &Arc<TaskSlot>) {
        if self.shutdown.load(Ordering::Acquire) || slot.terminated.load(Ordering::Acquire) {
            return;
        }
        let count = slot.spec.read().count;
        let runnable =
            slot.forced.load(Ordering::Acquire) || slot.pending.load(Ordering::Acquire) >= count;
        if !runnable {
            return;
        }
        if slot.scheduled.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
        {
            self.submit_run(slot.clone());
        }
    }

    fn submit_run(self: &Arc<Self>, slot: Arc<TaskSlot>) {
        let weak: Weak<ResourceInner> = Arc::downgrade(self);
        self.pool.submit(move || {
            if let Some(res) = weak.upgrade() {
                res.run_slot(&slot);
            }
        });
    }

    /// The resident execution loop for one slot; owns the `scheduled` flag.
    fn run_slot(self: &Arc<Self>, slot: &Arc<TaskSlot>) {
        let mut runs = 0u64;
        let max_runs = slot.spec.read().max_consecutive_runs;
        loop {
            if slot.terminated.load(Ordering::Acquire) || self.shutdown.load(Ordering::Acquire) {
                slot.scheduled.store(false, Ordering::Release);
                return;
            }
            let forced = slot.forced.swap(false, Ordering::AcqRel);
            let count = slot.spec.read().count;
            let available = slot.pending.load(Ordering::Acquire);
            if !forced && available < count {
                // Nothing runnable: release the slot, then re-check for
                // signals that raced in between the check and the release.
                slot.scheduled.store(false, Ordering::Release);
                self.try_schedule(slot);
                return;
            }
            let coalesced = slot.pending.swap(0, Ordering::AcqRel);
            let exec_index = slot.executions.fetch_add(1, Ordering::Relaxed);
            let ctx = TaskContext::new(slot.id, coalesced, exec_index);
            let outcome = {
                let mut inner = slot.inner.lock();
                if !inner.initialized {
                    inner.task.initialize(&ctx);
                    inner.initialized = true;
                }
                inner.task.execute(&ctx)
            };
            match outcome {
                TaskOutcome::Finished => {
                    self.terminate_slot(slot, &ctx);
                    slot.scheduled.store(false, Ordering::Release);
                    return;
                }
                TaskOutcome::Reschedule => {
                    // The task left work behind: force another execution
                    // even though its signals were consumed above.
                    slot.forced.store(true, Ordering::Release);
                }
                TaskOutcome::Continue => {}
            }
            runs += 1;
            if runs >= max_runs {
                // Yield the worker; resubmit if still runnable.
                slot.scheduled.store(false, Ordering::Release);
                self.try_schedule(slot);
                return;
            }
        }
    }

    fn terminate_slot(self: &Arc<Self>, slot: &Arc<TaskSlot>, ctx: &TaskContext) {
        if slot.terminated.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(timer_id) = slot.timer_id.lock().take() {
            self.timer.cancel(timer_id);
        }
        let mut inner = slot.inner.lock();
        if inner.initialized {
            inner.task.terminate(ctx);
        }
    }
}

/// Builder for a [`Resource`].
pub struct ResourceBuilder {
    name: String,
    workers: Option<usize>,
}

impl ResourceBuilder {
    /// Explicit worker-pool size (default: sized for the host core count).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Launch the resource: spawns the worker pool and timer thread.
    pub fn build(self) -> Resource {
        let pool = match self.workers {
            Some(n) => WorkerPool::new(&format!("{}-worker", self.name), n),
            None => WorkerPool::sized_for_host(&format!("{}-worker", self.name)),
        };
        Resource {
            inner: Arc::new(ResourceInner {
                name: self.name,
                pool,
                timer: TimerService::start(),
                slots: RwLock::new(HashMap::new()),
                ids: TaskIdAllocator::default(),
                shutdown: AtomicBool::new(false),
                total_signals: AtomicU64::new(0),
            }),
        }
    }
}

/// A Granules resource: a container hosting computational tasks on one
/// machine (or one simulated machine).
pub struct Resource {
    inner: Arc<ResourceInner>,
}

impl Resource {
    /// Start building a resource with the given name.
    pub fn builder(name: impl Into<String>) -> ResourceBuilder {
        ResourceBuilder { name: name.into(), workers: None }
    }

    /// The resource's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of worker threads serving this resource.
    pub fn worker_count(&self) -> usize {
        self.inner.pool.size()
    }

    /// Panics that unwound out of tasks and were absorbed by the worker
    /// pool (the containment layer below operator supervision).
    pub fn worker_panics(&self) -> u64 {
        self.inner.pool.panicked()
    }

    /// Deploy a computational task under the given scheduling strategy.
    pub fn deploy<T: ComputationalTask + 'static>(
        &self,
        task: T,
        spec: ScheduleSpec,
    ) -> Result<TaskHandle, GranulesError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(GranulesError::ResourceShutDown);
        }
        spec.validate().map_err(GranulesError::InvalidSchedule)?;
        let id = self.inner.ids.allocate();
        let slot = Arc::new(TaskSlot {
            id,
            inner: Mutex::new(SlotInner { task: Box::new(task), initialized: false }),
            spec: RwLock::new(spec),
            pending: AtomicU64::new(0),
            scheduled: AtomicBool::new(false),
            forced: AtomicBool::new(false),
            terminated: AtomicBool::new(false),
            executions: AtomicU64::new(0),
            timer_id: Mutex::new(None),
        });
        if let Some(period) = spec.period {
            let weak_res = Arc::downgrade(&self.inner);
            let weak_slot = Arc::downgrade(&slot);
            let timer_id = self.inner.timer.register(period, move || {
                if let (Some(res), Some(slot)) = (weak_res.upgrade(), weak_slot.upgrade()) {
                    slot.forced.store(true, Ordering::Release);
                    res.try_schedule(&slot);
                }
            });
            *slot.timer_id.lock() = Some(timer_id);
        }
        self.inner.slots.write().insert(id, slot.clone());
        Ok(TaskHandle { id, slot, resource: Arc::downgrade(&self.inner) })
    }

    /// Number of deployed (non-removed) tasks.
    pub fn task_count(&self) -> usize {
        self.inner.slots.read().len()
    }

    /// Total data signals this resource has observed.
    pub fn total_signals(&self) -> u64 {
        self.inner.total_signals.load(Ordering::Relaxed)
    }

    /// A cloneable, weakly-held view of this resource's worker-pool
    /// gauges — what a metrics reader on another tier holds without
    /// keeping the resource alive.
    pub fn worker_gauges(&self) -> WorkerGauges {
        WorkerGauges { inner: Arc::downgrade(&self.inner) }
    }

    /// Block until no task is scheduled and no undelivered signal could
    /// still trigger one. Used by tests and graceful-stop paths.
    pub fn drain(&self) {
        self.drain_inner(None);
    }

    /// [`drain`](Self::drain), giving up at `deadline`: `false` when tasks
    /// were still running then. For callers that only ask *whether* the
    /// resource is idle and must not wait out a loaded pipeline to learn
    /// that it is not.
    pub fn drain_until(&self, deadline: Instant) -> bool {
        self.drain_inner(Some(deadline))
    }

    fn drain_inner(&self, deadline: Option<Instant>) -> bool {
        loop {
            let busy = {
                let slots = self.inner.slots.read();
                slots.values().any(|s| {
                    !s.terminated.load(Ordering::Acquire)
                        && (s.scheduled.load(Ordering::Acquire)
                            || s.forced.load(Ordering::Acquire)
                            || s.pending.load(Ordering::Acquire) >= s.spec.read().count)
                })
            };
            if !busy && self.inner.pool.is_idle() {
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Terminate every task and stop the pool and timer threads.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::Release);
        let slots: Vec<Arc<TaskSlot>> = self.inner.slots.write().drain().map(|(_, s)| s).collect();
        for slot in &slots {
            // Wait for any in-flight execution to notice the shutdown flag.
            while slot.scheduled.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let ctx = TaskContext::new(slot.id, 0, slot.executions.load(Ordering::Relaxed));
            self.inner.terminate_slot(slot, &ctx);
        }
        self.inner.pool.wait_idle();
    }
}

/// Weak view of a resource's worker-pool gauges (see
/// [`Resource::worker_gauges`]); reads zero once the resource is gone.
#[derive(Clone)]
pub struct WorkerGauges {
    inner: Weak<ResourceInner>,
}

impl WorkerGauges {
    /// See [`Resource::worker_count`].
    pub fn worker_count(&self) -> usize {
        self.inner.upgrade().map_or(0, |r| r.pool.size())
    }

    /// See [`Resource::worker_panics`].
    pub fn worker_panics(&self) -> u64 {
        self.inner.upgrade().map_or(0, |r| r.pool.panicked())
    }
}

/// Handle to a deployed task: signalling, schedule updates, lifecycle.
#[derive(Clone)]
pub struct TaskHandle {
    id: TaskId,
    slot: Arc<TaskSlot>,
    resource: Weak<ResourceInner>,
}

impl TaskHandle {
    /// The task's id.
    pub fn task_id(&self) -> TaskId {
        self.id
    }

    /// Deliver one data-availability signal (a dataset notification).
    pub fn signal(&self) {
        self.signal_many(1);
    }

    /// Deliver `n` signals at once (a batch arrival).
    pub fn signal_many(&self, n: u64) {
        if n == 0 || self.slot.terminated.load(Ordering::Acquire) {
            return;
        }
        let Some(res) = self.resource.upgrade() else {
            return;
        };
        if !self.slot.spec.read().data_driven {
            // Signals are counted but only the timer schedules this task.
            self.slot.pending.fetch_add(n, Ordering::AcqRel);
            res.total_signals.fetch_add(n, Ordering::Relaxed);
            return;
        }
        self.slot.pending.fetch_add(n, Ordering::AcqRel);
        res.total_signals.fetch_add(n, Ordering::Relaxed);
        res.try_schedule(&self.slot);
    }

    /// Force an immediate execution regardless of pending count (used by
    /// flush timers).
    pub fn force(&self) {
        let Some(res) = self.resource.upgrade() else {
            return;
        };
        self.slot.forced.store(true, Ordering::Release);
        res.try_schedule(&self.slot);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TaskState {
        self.slot.state()
    }

    /// Number of completed scheduled executions.
    pub fn executions(&self) -> u64 {
        self.slot.executions.load(Ordering::Relaxed)
    }

    /// Signals delivered but not yet consumed by an execution.
    pub fn pending_signals(&self) -> u64 {
        self.slot.pending.load(Ordering::Relaxed)
    }

    /// Replace the scheduling strategy at runtime (§II: *"a scheduling
    /// strategy that can be changed during execution"*). The periodic
    /// component cannot be added or removed after deployment, only the
    /// data-driven/count parts change.
    pub fn update_schedule(&self, spec: ScheduleSpec) -> Result<(), GranulesError> {
        spec.validate().map_err(GranulesError::InvalidSchedule)?;
        let old = *self.slot.spec.read();
        if old.period != spec.period {
            return Err(GranulesError::InvalidSchedule(
                "periodic component cannot change after deployment".to_string(),
            ));
        }
        *self.slot.spec.write() = spec;
        if let Some(res) = self.resource.upgrade() {
            res.try_schedule(&self.slot);
        }
        Ok(())
    }

    /// Terminate the task explicitly.
    pub fn terminate(&self) {
        let Some(res) = self.resource.upgrade() else {
            return;
        };
        // Wait for an in-flight execution to finish before invoking the
        // task's terminate hook.
        while self.slot.scheduled.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let ctx = TaskContext::new(self.id, 0, self.slot.executions.load(Ordering::Relaxed));
        res.terminate_slot(&self.slot, &ctx);
        res.slots.write().remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    struct Recorder {
        executions: Arc<AtomicU64>,
        signals: Arc<AtomicU64>,
        init: Arc<AtomicU64>,
        term: Arc<AtomicU64>,
        finish_after: Option<u64>,
    }

    impl Recorder {
        fn new() -> (Self, Arc<AtomicU64>, Arc<AtomicU64>) {
            let e = Arc::new(AtomicU64::new(0));
            let s = Arc::new(AtomicU64::new(0));
            (
                Recorder {
                    executions: e.clone(),
                    signals: s.clone(),
                    init: Arc::new(AtomicU64::new(0)),
                    term: Arc::new(AtomicU64::new(0)),
                    finish_after: None,
                },
                e,
                s,
            )
        }
    }

    impl ComputationalTask for Recorder {
        fn initialize(&mut self, _ctx: &TaskContext) {
            self.init.fetch_add(1, Ordering::Relaxed);
        }
        fn execute(&mut self, ctx: &TaskContext) -> TaskOutcome {
            let n = self.executions.fetch_add(1, Ordering::Relaxed) + 1;
            self.signals.fetch_add(ctx.coalesced_signals(), Ordering::Relaxed);
            match self.finish_after {
                Some(limit) if n >= limit => TaskOutcome::Finished,
                _ => TaskOutcome::Continue,
            }
        }
        fn terminate(&mut self, _ctx: &TaskContext) {
            self.term.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn data_driven_task_runs_per_signal() {
        let res = Resource::builder("r").workers(2).build();
        let (rec, execs, signals) = Recorder::new();
        let h = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
        for _ in 0..10 {
            h.signal();
        }
        res.drain();
        assert_eq!(signals.load(Ordering::Relaxed), 10, "no signal may be lost");
        assert!(execs.load(Ordering::Relaxed) <= 10);
        assert!(execs.load(Ordering::Relaxed) >= 1);
        res.shutdown();
    }

    #[test]
    fn drain_until_gives_up_at_its_deadline_while_a_task_runs() {
        /// Holds its worker until the test lets go.
        struct Held(std::sync::mpsc::Receiver<()>);
        impl ComputationalTask for Held {
            fn execute(&mut self, _ctx: &TaskContext) -> TaskOutcome {
                let _ = self.0.recv();
                TaskOutcome::Continue
            }
        }
        let res = Resource::builder("r").workers(1).build();
        let (release, held) = std::sync::mpsc::channel();
        let h = res.deploy(Held(held), ScheduleSpec::data_driven()).unwrap();
        h.signal();
        assert!(!res.drain_until(Instant::now() + Duration::from_millis(20)), "task still held");
        release.send(()).unwrap();
        assert!(res.drain_until(Instant::now() + Duration::from_secs(5)), "idle once released");
        res.shutdown();
    }

    #[test]
    fn signals_are_coalesced_under_burst() {
        let res = Resource::builder("r").workers(1).build();
        let (rec, execs, signals) = Recorder::new();
        let h = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
        h.signal_many(1000);
        res.drain();
        assert_eq!(signals.load(Ordering::Relaxed), 1000);
        // A single burst of 1000 must not cost 1000 executions.
        assert!(
            execs.load(Ordering::Relaxed) < 20,
            "expected coalescing, got {} executions",
            execs.load(Ordering::Relaxed)
        );
        res.shutdown();
    }

    #[test]
    fn count_based_waits_for_threshold() {
        let res = Resource::builder("r").workers(2).build();
        let (rec, execs, signals) = Recorder::new();
        let h = res.deploy(rec, ScheduleSpec::count_based(5)).unwrap();
        for _ in 0..4 {
            h.signal();
        }
        res.drain();
        assert_eq!(execs.load(Ordering::Relaxed), 0, "below threshold must not run");
        h.signal();
        res.drain();
        assert_eq!(execs.load(Ordering::Relaxed), 1);
        assert_eq!(signals.load(Ordering::Relaxed), 5);
        res.shutdown();
    }

    #[test]
    fn periodic_task_fires_without_data() {
        let res = Resource::builder("r").workers(2).build();
        let (rec, execs, _) = Recorder::new();
        let _h = res.deploy(rec, ScheduleSpec::periodic(Duration::from_millis(5))).unwrap();
        assert!(crate::test_support::wait_for(Duration::from_secs(5), || {
            execs.load(Ordering::Relaxed) >= 3
        }));
        res.shutdown();
    }

    #[test]
    fn combined_schedule_flushes_below_threshold_on_timer() {
        let res = Resource::builder("r").workers(2).build();
        let (rec, _execs, signals) = Recorder::new();
        let h = res.deploy(rec, ScheduleSpec::combined(1000, Duration::from_millis(10))).unwrap();
        h.signal_many(3); // far below the count threshold
                          // The periodic fire must consume the stragglers.
        assert!(crate::test_support::wait_for(Duration::from_secs(5), || {
            signals.load(Ordering::Relaxed) == 3
        }));
        res.drain();
        assert_eq!(signals.load(Ordering::Relaxed), 3);
        res.shutdown();
    }

    #[test]
    fn finished_outcome_terminates_task() {
        let res = Resource::builder("r").workers(2).build();
        let (mut rec, execs, _) = Recorder::new();
        rec.finish_after = Some(3);
        let term = rec.term.clone();
        let h = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
        for _ in 0..10 {
            h.signal();
            std::thread::sleep(Duration::from_millis(1));
        }
        res.drain();
        assert_eq!(execs.load(Ordering::Relaxed), 3);
        assert_eq!(term.load(Ordering::Relaxed), 1);
        assert_eq!(h.state(), TaskState::Terminated);
        // Signals after termination are ignored.
        h.signal();
        res.drain();
        assert_eq!(execs.load(Ordering::Relaxed), 3);
        res.shutdown();
    }

    #[test]
    fn explicit_terminate_runs_hook_once() {
        let res = Resource::builder("r").workers(2).build();
        let (rec, _execs, _) = Recorder::new();
        let term = rec.term.clone();
        let init = rec.init.clone();
        let h = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
        h.signal();
        res.drain();
        h.terminate();
        h.terminate(); // idempotent
        assert_eq!(term.load(Ordering::Relaxed), 1);
        assert_eq!(init.load(Ordering::Relaxed), 1);
        assert_eq!(res.task_count(), 0);
        res.shutdown();
    }

    #[test]
    fn deploy_after_shutdown_fails() {
        let res = Resource::builder("r").workers(1).build();
        let inner = res.inner.clone();
        res.shutdown();
        let res2 = Resource { inner };
        let (rec, _, _) = Recorder::new();
        assert!(matches!(
            res2.deploy(rec, ScheduleSpec::data_driven()),
            Err(GranulesError::ResourceShutDown)
        ));
        std::mem::forget(res2); // inner already shut down
    }

    #[test]
    fn update_schedule_changes_count() {
        let res = Resource::builder("r").workers(2).build();
        let (rec, execs, signals) = Recorder::new();
        let h = res.deploy(rec, ScheduleSpec::count_based(100)).unwrap();
        h.signal_many(10);
        res.drain();
        assert_eq!(execs.load(Ordering::Relaxed), 0);
        // Lower the threshold at runtime: pending signals become runnable.
        h.update_schedule(ScheduleSpec::count_based(5)).unwrap();
        res.drain();
        assert_eq!(signals.load(Ordering::Relaxed), 10);
        res.shutdown();
    }

    #[test]
    fn update_schedule_cannot_change_period() {
        let res = Resource::builder("r").workers(1).build();
        let (rec, _, _) = Recorder::new();
        let h = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
        let err = h.update_schedule(ScheduleSpec::periodic(Duration::from_millis(5)));
        assert!(matches!(err, Err(GranulesError::InvalidSchedule(_))));
        res.shutdown();
    }

    #[test]
    fn many_tasks_share_pool_without_loss() {
        let res = Resource::builder("r").workers(4).build();
        let mut handles = Vec::new();
        let mut counters = Vec::new();
        for _ in 0..20 {
            let (rec, _execs, signals) = Recorder::new();
            counters.push(signals);
            handles.push(res.deploy(rec, ScheduleSpec::data_driven()).unwrap());
        }
        let threads: Vec<_> = handles
            .iter()
            .map(|h| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        h.signal();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        res.drain();
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 500, "task {i} lost signals");
        }
        assert_eq!(res.total_signals(), 20 * 500);
        res.shutdown();
    }

    #[test]
    fn fairness_bound_resubmits_long_bursts() {
        // One worker, two tasks, heavy burst to the first: the second task
        // must still get processed (the 64-run bound forces requeueing).
        let res = Resource::builder("r").workers(1).build();
        let (rec1, _e1, s1) = Recorder::new();
        let (rec2, _e2, s2) = Recorder::new();
        let h1 = res.deploy(rec1, ScheduleSpec::data_driven()).unwrap();
        let h2 = res.deploy(rec2, ScheduleSpec::data_driven()).unwrap();
        for _ in 0..10_000 {
            h1.signal();
        }
        h2.signal();
        res.drain();
        assert_eq!(s1.load(Ordering::Relaxed), 10_000);
        assert_eq!(s2.load(Ordering::Relaxed), 1);
        res.shutdown();
    }
}
