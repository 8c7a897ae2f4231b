//! Resources — Granules' per-machine containers for computational tasks.
//!
//! §II of the NEPTUNE paper: *"Granules launches one or more resources at a
//! single physical machine which act as containers for individual
//! computation tasks. The framework is responsible for managing the life
//! cycles of computational tasks in addition to launching and terminating
//! computational tasks running on these resources."*
//!
//! A resource owns one executor pool ([`crate::io`]) and runs every deployed
//! task on it as one [`IoTask`]: signals, forces and periodic fires update
//! the task's counters and wake it; a stint executes while the task is
//! runnable and parks it when it is not.
//!
//! ## Execution coalescing
//!
//! Each deployed task owns a *slot* with an atomic pending-signal counter.
//! Signals arriving while the task is executing do not queue it again: the
//! resident stint loops and consumes them. One hand-off to a worker
//! therefore drains an arbitrarily long burst — this is the scheduling
//! substrate for NEPTUNE's batched processing (§III-B2, Table I: 22× fewer
//! context switches than per-message scheduling).

use crate::error::GranulesError;
use crate::io::{IoContext, IoPool, IoSpawner, IoStatus, IoTask, IoTaskHandle};
use crate::scheduler::ScheduleSpec;
use crate::task::{
    ComputationalTask, TaskContext, TaskId, TaskIdAllocator, TaskOutcome, TaskState,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// What a task's handles, its periodic fire and its stint share.
struct TaskSlot {
    id: TaskId,
    /// Data signals not yet consumed by an execution.
    pending: AtomicU64,
    /// `pending` at or above this makes the task runnable: the schedule's
    /// `count`, or `u64::MAX` when it is not data-driven.
    threshold: AtomicU64,
    /// The schedule's `max_consecutive_runs`.
    max_runs: AtomicU64,
    /// Fixed at deployment.
    period: Option<Duration>,
    /// Set by the periodic fire, `force` and `TaskOutcome::Reschedule`:
    /// runnable whatever `pending` says.
    forced: AtomicBool,
    /// Set by `TaskHandle::terminate`: the next stint runs the terminate
    /// hook instead of executing.
    terminating: AtomicBool,
    executions: AtomicU64,
}

impl TaskSlot {
    fn set_schedule(&self, spec: &ScheduleSpec) {
        let threshold = if spec.data_driven { spec.count } else { u64::MAX };
        self.threshold.store(threshold, Ordering::Release);
        self.max_runs.store(spec.max_consecutive_runs, Ordering::Release);
    }

    fn runnable(&self) -> bool {
        self.forced.load(Ordering::Acquire)
            || self.pending.load(Ordering::Acquire) >= self.threshold.load(Ordering::Acquire)
    }
}

/// One deployed task as the pool sees it.
struct TaskRunner {
    slot: Arc<TaskSlot>,
    task: Box<dyn ComputationalTask>,
    initialized: bool,
}

impl TaskRunner {
    fn terminate(&mut self) {
        if std::mem::take(&mut self.initialized) {
            let executions = self.slot.executions.load(Ordering::Relaxed);
            self.task.terminate(&TaskContext::new(self.slot.id, 0, executions));
        }
    }
}

impl IoTask for TaskRunner {
    fn run(&mut self, io: &IoContext) -> IoStatus {
        if io.shutting_down() || self.slot.terminating.load(Ordering::Acquire) {
            self.terminate();
            return IoStatus::Complete;
        }
        for _ in 0..self.slot.max_runs.load(Ordering::Acquire) {
            let slot = &self.slot;
            let forced = slot.forced.swap(false, Ordering::AcqRel);
            if !forced && !slot.runnable() {
                return IoStatus::Park;
            }
            let coalesced = slot.pending.swap(0, Ordering::AcqRel);
            let index = slot.executions.fetch_add(1, Ordering::Relaxed);
            let ctx = TaskContext::new(slot.id, coalesced, index);
            if !self.initialized {
                self.task.initialize(&ctx);
                self.initialized = true;
            }
            match self.task.execute(&ctx) {
                TaskOutcome::Finished => {
                    self.terminate();
                    return IoStatus::Complete;
                }
                // The task left work behind: run again even though its
                // signals were consumed above.
                TaskOutcome::Reschedule => slot.forced.store(true, Ordering::Release),
                TaskOutcome::Continue => {}
            }
        }
        // The stint's budget is spent: let whatever else is queued have
        // the worker first.
        if self.slot.runnable() {
            IoStatus::Ready
        } else {
            IoStatus::Park
        }
    }

    fn on_shutdown(&mut self) {
        self.terminate();
    }
}

struct ResourceInner {
    tasks: RwLock<HashMap<TaskId, TaskHandle>>,
    /// Signals observed by the resource (for diagnostics).
    total_signals: AtomicU64,
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

    /// Launch the resource: spawns the worker threads (named
    /// `{name}-worker-{i}`) and the pool's timer thread. Unsized, the pool
    /// gets `available_parallelism` workers, min 2 — the paper's "determined
    /// automatically depending on the number of cores".
    pub fn build(self) -> Resource {
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).max(2)
        });
        Resource {
            pool: IoPool::with_thread_prefix(&format!("{}-worker", self.name), workers),
            name: self.name,
            ids: TaskIdAllocator::default(),
            inner: Arc::new(ResourceInner {
                tasks: RwLock::new(HashMap::new()),
                total_signals: AtomicU64::new(0),
            }),
        }
    }
}

/// A Granules resource: a container hosting computational tasks on one
/// machine (or one simulated machine).
pub struct Resource {
    name: String,
    pool: IoPool,
    ids: TaskIdAllocator,
    inner: Arc<ResourceInner>,
}

impl Resource {
    /// Start building a resource with the given name.
    pub fn builder(name: impl Into<String>) -> ResourceBuilder {
        ResourceBuilder { name: name.into(), workers: None }
    }

    /// The resource's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of worker threads serving this resource.
    pub fn worker_count(&self) -> usize {
        self.pool.threads()
    }

    /// Panics that unwound out of a task and were caught by its worker;
    /// each retired the task it came from (the containment layer below
    /// operator supervision).
    pub fn worker_panics(&self) -> u64 {
        self.pool.stats().panics
    }

    /// Deploy a computational task under the given scheduling strategy.
    pub fn deploy<T: ComputationalTask + 'static>(
        &self,
        task: T,
        spec: ScheduleSpec,
    ) -> Result<TaskHandle, GranulesError> {
        spec.validate().map_err(GranulesError::InvalidSchedule)?;
        let id = self.ids.allocate();
        let slot = Arc::new(TaskSlot {
            id,
            pending: AtomicU64::new(0),
            threshold: AtomicU64::new(0),
            max_runs: AtomicU64::new(0),
            period: spec.period,
            forced: AtomicBool::new(false),
            terminating: AtomicBool::new(false),
            executions: AtomicU64::new(0),
        });
        slot.set_schedule(&spec);
        let io = self.pool.spawn_parked(TaskRunner {
            slot: slot.clone(),
            task: Box::new(task),
            initialized: false,
        });
        if let Some(period) = spec.period {
            let (fired, woken) = (slot.clone(), io.clone());
            self.pool.every(period, move || {
                fired.forced.store(true, Ordering::Release);
                woken.wake()
            });
        }
        let handle = TaskHandle { slot, io, resource: Arc::downgrade(&self.inner) };
        self.inner.tasks.write().insert(id, handle.clone());
        Ok(handle)
    }

    /// Number of deployed (non-removed) tasks.
    pub fn task_count(&self) -> usize {
        self.inner.tasks.read().len()
    }

    /// Total data signals this resource has observed.
    pub fn total_signals(&self) -> u64 {
        self.inner.total_signals.load(Ordering::Relaxed)
    }

    /// A cloneable, weakly-held view of this resource's pool — what a
    /// metrics reader on another tier holds without keeping the resource
    /// alive: [`IoSpawner::stats`] gives the worker count as `io_threads`
    /// and the caught panics as `panics`, and reads zero once the resource
    /// is gone.
    pub fn worker_gauges(&self) -> IoSpawner {
        self.pool.spawner()
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
            let busy = self.inner.tasks.read().values().any(|t| t.state() == TaskState::Scheduled);
            if !busy {
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Terminate every task and stop the worker and timer threads: each
    /// task gets one last stint that runs its terminate hook, not
    /// `execute`.
    pub fn shutdown(mut self) {
        self.pool.shutdown();
    }
}

/// Handle to a deployed task: signalling, schedule updates, lifecycle.
#[derive(Clone)]
pub struct TaskHandle {
    slot: Arc<TaskSlot>,
    io: IoTaskHandle,
    resource: Weak<ResourceInner>,
}

impl TaskHandle {
    /// The task's id.
    pub fn task_id(&self) -> TaskId {
        self.slot.id
    }

    /// Deliver one data-availability signal (a dataset notification).
    pub fn signal(&self) {
        self.signal_many(1);
    }

    /// Deliver `n` signals at once (a batch arrival). A task that is not
    /// data-driven counts them; only its timer schedules it.
    pub fn signal_many(&self, n: u64) {
        if n == 0 || self.io.is_complete() {
            return;
        }
        let Some(res) = self.resource.upgrade() else {
            return;
        };
        res.total_signals.fetch_add(n, Ordering::Relaxed);
        let pending = self.slot.pending.fetch_add(n, Ordering::AcqRel) + n;
        if pending >= self.slot.threshold.load(Ordering::Acquire) {
            self.io.wake();
        }
    }

    /// Force an immediate execution regardless of pending count (used by
    /// flush timers).
    pub fn force(&self) {
        self.slot.forced.store(true, Ordering::Release);
        self.io.wake();
    }

    /// Current lifecycle state. A task a panic retired reads `Terminated`.
    pub fn state(&self) -> TaskState {
        if self.io.is_complete() {
            TaskState::Terminated
        } else if self.io.is_parked() && !self.slot.runnable() {
            TaskState::Idle
        } else {
            TaskState::Scheduled
        }
    }

    /// Number of scheduled executions started.
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
        if self.slot.period != spec.period {
            return Err(GranulesError::InvalidSchedule(
                "periodic component cannot change after deployment".to_string(),
            ));
        }
        self.slot.set_schedule(&spec);
        if self.slot.runnable() {
            self.io.wake();
        }
        Ok(())
    }

    /// Terminate the task explicitly: its next stint runs the terminate
    /// hook instead of executing, and this returns once it has. Must not be
    /// called from the task itself.
    pub fn terminate(&self) {
        self.slot.terminating.store(true, Ordering::Release);
        self.io.wake();
        self.io.wait_complete();
        if let Some(res) = self.resource.upgrade() {
            res.tasks.write().remove(&self.slot.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_handle_outliving_its_resource_is_inert() {
        let res = Resource::builder("r").workers(1).build();
        let (rec, execs, _) = Recorder::new();
        let term = rec.term.clone();
        let h = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
        h.signal();
        res.drain();
        res.shutdown();
        assert_eq!(term.load(Ordering::Relaxed), 1, "shutdown runs the terminate hook");
        assert_eq!(h.state(), TaskState::Terminated);
        h.signal();
        h.force();
        h.terminate(); // returns at once: nothing is left to wait for
        assert_eq!(execs.load(Ordering::Relaxed), 1);
        assert_eq!(term.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dropping_a_resource_shuts_it_down() {
        let (rec, execs, _) = Recorder::new();
        let term = rec.term.clone();
        {
            let res = Resource::builder("r").workers(2).build();
            let h = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
            h.signal();
            res.drain();
            // No explicit shutdown: drop must run the hooks and join.
        }
        assert_eq!(execs.load(Ordering::Relaxed), 1);
        assert_eq!(term.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_runs_the_terminate_hook_and_never_execute() {
        // One worker, held by the first task while the second is signalled:
        // the second is queued, not yet run, when shutdown starts.
        struct Held(std::sync::mpsc::Receiver<()>);
        impl ComputationalTask for Held {
            fn execute(&mut self, _ctx: &TaskContext) -> TaskOutcome {
                let _ = self.0.recv();
                TaskOutcome::Continue
            }
        }
        let res = Resource::builder("r").workers(1).build();
        let (release, held) = std::sync::mpsc::channel();
        let holder = res.deploy(Held(held), ScheduleSpec::data_driven()).unwrap();
        let (rec, execs, _) = Recorder::new();
        let (init, term) = (rec.init.clone(), rec.term.clone());
        let queued = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
        holder.signal();
        assert!(crate::test_support::wait_for(Duration::from_secs(5), || {
            holder.executions() == 1
        }));
        queued.signal();
        let stopper = std::thread::spawn(move || res.shutdown());
        std::thread::sleep(Duration::from_millis(20));
        release.send(()).unwrap();
        stopper.join().unwrap();
        assert_eq!(execs.load(Ordering::Relaxed), 0, "a shutdown stint must not execute");
        assert_eq!(init.load(Ordering::Relaxed), 0);
        assert_eq!(term.load(Ordering::Relaxed), 0, "never initialised, so no hook either");
        assert_eq!(queued.state(), TaskState::Terminated);
    }

    #[test]
    fn terminate_returns_only_after_the_hook_ran_on_a_busy_task() {
        /// Executes slowly, and notes whether an execution was still in
        /// flight when the hook ran.
        struct Slow {
            executing: Arc<AtomicBool>,
            hook_overlapped: Arc<AtomicBool>,
            term: Arc<AtomicU64>,
        }
        impl ComputationalTask for Slow {
            fn execute(&mut self, _ctx: &TaskContext) -> TaskOutcome {
                self.executing.store(true, Ordering::Release);
                std::thread::sleep(Duration::from_millis(30));
                self.executing.store(false, Ordering::Release);
                TaskOutcome::Continue
            }
            fn terminate(&mut self, _ctx: &TaskContext) {
                self.hook_overlapped
                    .store(self.executing.load(Ordering::Acquire), Ordering::Release);
                self.term.fetch_add(1, Ordering::Relaxed);
            }
        }
        let res = Resource::builder("r").workers(2).build();
        let executing = Arc::new(AtomicBool::new(false));
        let overlapped = Arc::new(AtomicBool::new(false));
        let term = Arc::new(AtomicU64::new(0));
        let h = res
            .deploy(
                Slow {
                    executing: executing.clone(),
                    hook_overlapped: overlapped.clone(),
                    term: term.clone(),
                },
                ScheduleSpec::data_driven(),
            )
            .unwrap();
        h.signal();
        assert!(crate::test_support::wait_for(Duration::from_secs(5), || {
            executing.load(Ordering::Acquire)
        }));
        // Several callers at once: each returns after the hook, which runs
        // once.
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let (h, term) = (h.clone(), term.clone());
                std::thread::spawn(move || {
                    h.terminate();
                    assert_eq!(term.load(Ordering::Relaxed), 1, "back before the hook");
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        assert!(!overlapped.load(Ordering::Acquire), "the hook ran beside an execution");
        assert_eq!(h.state(), TaskState::Terminated);
        assert_eq!(res.task_count(), 0);
        res.shutdown();
    }

    /// The worker tier's half of the one panic policy (the pool's own half
    /// is `io::tests::a_panicking_io_task_leaves_its_thread_serving_the_others`).
    #[test]
    fn a_panicking_task_is_retired_and_the_resource_still_drains_terminates_and_shuts_down() {
        let res = Resource::builder("r").workers(1).build();
        let term = Arc::new(AtomicU64::new(0));
        struct Bomb(Arc<AtomicU64>);
        impl ComputationalTask for Bomb {
            fn execute(&mut self, _ctx: &TaskContext) -> TaskOutcome {
                panic!("boom");
            }
            fn terminate(&mut self, _ctx: &TaskContext) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let bomb = res.deploy(Bomb(term.clone()), ScheduleSpec::data_driven()).unwrap();
        let (rec, execs, _) = Recorder::new();
        let bystander = res.deploy(rec, ScheduleSpec::data_driven()).unwrap();
        bomb.signal();
        assert!(
            res.drain_until(Instant::now() + Duration::from_secs(5)),
            "a retired task must not read busy"
        );
        assert_eq!(res.worker_panics(), 1);
        assert_eq!(bomb.state(), TaskState::Terminated);
        assert_eq!(bomb.executions(), 1);
        // Its signals go nowhere; the worker it panicked on serves the rest.
        bomb.signal();
        bystander.signal();
        assert!(res.drain_until(Instant::now() + Duration::from_secs(5)));
        assert_eq!(execs.load(Ordering::Relaxed), 1, "the only worker died with the task");
        assert_eq!(bomb.executions(), 1);
        let (done, terminated) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            bomb.terminate();
            res.shutdown();
            done.send(()).unwrap();
        });
        assert!(
            terminated.recv_timeout(Duration::from_secs(5)).is_ok(),
            "terminate() or shutdown() hung on a task a panic retired"
        );
        stopper.join().unwrap();
        assert_eq!(term.load(Ordering::Relaxed), 0, "no hook on state that unwound mid-run");
    }

    #[test]
    fn a_terminated_periodic_task_leaves_the_timer_wheel() {
        let res = Resource::builder("r").workers(1).build();
        let (rec, execs, _) = Recorder::new();
        let h = res.deploy(rec, ScheduleSpec::periodic(Duration::from_millis(2))).unwrap();
        assert!(crate::test_support::wait_for(Duration::from_secs(5), || {
            execs.load(Ordering::Relaxed) >= 2
        }));
        assert_eq!(res.worker_gauges().stats().timer_depth, 1);
        h.terminate();
        assert!(
            crate::test_support::wait_for(Duration::from_secs(5), || {
                res.worker_gauges().stats().timer_depth == 0
            }),
            "the periodic registration outlived its task"
        );
        res.shutdown();
    }

    #[test]
    fn workers_are_named_after_the_resource_and_never_fewer_than_one() {
        struct Name(std::sync::mpsc::Sender<String>);
        impl ComputationalTask for Name {
            fn execute(&mut self, _ctx: &TaskContext) -> TaskOutcome {
                let _ = self.0.send(std::thread::current().name().unwrap_or("").to_string());
                TaskOutcome::Continue
            }
        }
        let res = Resource::builder("relay").workers(0).build();
        assert_eq!(res.worker_count(), 1, "a resource with no worker could run nothing");
        let (tx, rx) = std::sync::mpsc::channel();
        res.deploy(Name(tx), ScheduleSpec::data_driven()).unwrap().signal();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "relay-worker-0");
        res.shutdown();
        let unsized_ = Resource::builder("auto").build();
        assert!(unsized_.worker_count() >= 2, "sized for the host, min 2");
        unsized_.shutdown();
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
