//! The executor: a fixed pool of threads running cooperatively-scheduled
//! tasks, with one timer wheel.
//!
//! NEPTUNE §III-B6: instead of Storm's thread-per-activity model, the
//! runtime keeps exactly two pools — worker threads for computational tasks
//! and a small set of IO threads for everything event-shaped: source pumps,
//! flush deadlines, socket tasks, samplers. Both are instances of the pool
//! in this module: the IO tier is an [`IoPool`] used directly, the worker
//! tier is the one inside each [`crate::Resource`], which runs every
//! deployed [`crate::ComputationalTask`] as one [`IoTask`].
//! An [`IoTask`] is a cooperatively-scheduled state machine: its `run`
//! method does a bounded stint of work and then reports whether it has more
//! ([`IoStatus::Ready`]), wants to sleep until an external wake
//! ([`IoStatus::Park`]) or a deadline ([`IoStatus::ParkUntil`]), or is done
//! ([`IoStatus::Complete`]). Parked tasks cost *nothing* — no thread, no
//! poll — until an event ([`IoTaskHandle::wake`]) or the pool's
//! [`TimerWheel`] re-queues them, which is what lets one node host hundreds
//! of idle sources on a handful of threads. A *busy* task is as cheap to
//! keep going: a `Ready` task with nothing queued behind it runs again on
//! the thread it is on, and the ready queue signals its condvar only when
//! a thread is asleep there — the queue and the futex are paid when work
//! changes hands, not once per stint.
//!
//! Wake/park races are resolved by a per-task atomic state machine
//! (PARKED / QUEUED / RUNNING / NOTIFIED / DONE): a wake that arrives while
//! the task is mid-run flags NOTIFIED and the pool re-queues the task
//! instead of parking it, so no event is ever lost between "checked for
//! work" and "parked". It is the only wake/park protocol in the workspace.
//!
//! A panic that unwinds out of a stint is caught on the pool thread: the
//! thread goes on serving the others, the task is retired *without* its
//! shutdown hook (its state was left mid-stint; retrying is a supervisor's
//! job, one layer up), counted in [`IoPoolStats::panics`], and reads
//! complete, so whoever drains, terminates or shuts down does not wait on it.

use crate::wheel::{TimerScheduler, TimerWheel};
use neptune_telemetry::{EventKind, FlightRecorder};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// What an [`IoTask`] wants after a run stint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStatus {
    /// More work immediately available. The task runs again at once, on
    /// the same thread, when nothing else is queued; otherwise it is
    /// re-queued at the back (fairness).
    Ready,
    /// Nothing to do until an external [`IoTaskHandle::wake`].
    Park,
    /// Nothing to do until the given deadline (or an earlier wake).
    ParkUntil(Instant),
    /// Finished; the task is dropped.
    Complete,
}

/// Execution context handed to each [`IoTask::run`] stint.
pub struct IoContext {
    shutting_down: bool,
}

impl IoContext {
    /// True when the pool is draining: the task should flush/close and
    /// return [`IoStatus::Complete`] — any other status retires it anyway.
    pub fn shutting_down(&self) -> bool {
        self.shutting_down
    }
}

/// A cooperatively-scheduled unit of IO work.
pub trait IoTask: Send + 'static {
    /// Perform a bounded stint of work. Must not block indefinitely; long
    /// waits are expressed by parking, not by sleeping on the thread.
    fn run(&mut self, ctx: &IoContext) -> IoStatus;

    /// Called once at pool shutdown if the task never returned
    /// [`IoStatus::Complete`] — last chance to release resources.
    fn on_shutdown(&mut self) {}
}

const ST_PARKED: u8 = 0;
const ST_QUEUED: u8 = 1;
const ST_RUNNING: u8 = 2;
/// Running, and a wake arrived mid-run: re-queue instead of parking.
const ST_NOTIFIED: u8 = 3;
const ST_DONE: u8 = 4;

struct IoSlot {
    state: AtomicU8,
    task: Mutex<Option<Box<dyn IoTask>>>,
    /// Signalled at `ST_DONE`, under the `task` lock.
    done: Condvar,
}

impl IoSlot {
    /// Drop the task — after its shutdown hook, with `hook` — and mark the
    /// slot done.
    fn retire(&self, hook: bool) {
        let mut task = self.task.lock();
        if let Some(mut t) = task.take() {
            if hook {
                t.on_shutdown();
            }
        }
        self.state.store(ST_DONE, Ordering::Release);
        drop(task);
        self.done.notify_all();
    }
}

/// Handle for waking (or observing) a spawned [`IoTask`]. Cloneable and
/// cheap; safe to call from timer callbacks, queue gate listeners, or any
/// other thread.
#[derive(Clone)]
pub struct IoTaskHandle {
    slot: Arc<IoSlot>,
    pool: Weak<IoPoolInner>,
}

impl IoTaskHandle {
    /// Wake the task: a parked task is re-queued; a running task is flagged
    /// to re-run; an already-queued task absorbs the wake. Returns `false`
    /// only if the task has completed (or the pool is gone).
    pub fn wake(&self) -> bool {
        loop {
            match self.slot.state.load(Ordering::Acquire) {
                ST_PARKED => {
                    if self
                        .slot
                        .state
                        .compare_exchange(ST_PARKED, ST_QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        let Some(pool) = self.pool.upgrade() else {
                            self.slot.state.store(ST_DONE, Ordering::Release);
                            return false;
                        };
                        pool.wakes.fetch_add(1, Ordering::Relaxed);
                        pool.enqueue(self.slot.clone());
                        return true;
                    }
                }
                ST_RUNNING => {
                    if self
                        .slot
                        .state
                        .compare_exchange(
                            ST_RUNNING,
                            ST_NOTIFIED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        if let Some(pool) = self.pool.upgrade() {
                            pool.wakes.fetch_add(1, Ordering::Relaxed);
                        }
                        return true;
                    }
                }
                ST_QUEUED | ST_NOTIFIED => return true,
                _ => return false, // ST_DONE
            }
        }
    }

    /// True once the task has completed (or been retired: at shutdown, or
    /// by a panic).
    pub fn is_complete(&self) -> bool {
        self.slot.state.load(Ordering::Acquire) == ST_DONE
    }

    /// True while the task is neither queued nor running.
    pub(crate) fn is_parked(&self) -> bool {
        self.slot.state.load(Ordering::Acquire) == ST_PARKED
    }

    /// Block until the task is complete. Must not be called from the task
    /// itself.
    pub(crate) fn wait_complete(&self) {
        let mut task = self.slot.task.lock();
        while !self.is_complete() {
            self.slot.done.wait(&mut task);
        }
    }
}

/// Point-in-time gauges for the IO tier, exported through telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoPoolStats {
    /// Fixed number of IO threads.
    pub io_threads: usize,
    /// Tasks spawned and not yet completed/retired.
    pub live_tasks: usize,
    /// Tasks currently waiting in the ready queue.
    pub queued_tasks: usize,
    /// Cumulative park transitions (task went idle).
    pub parks: u64,
    /// Cumulative wake events delivered (timer or external).
    pub wakes: u64,
    /// Cumulative run stints executed.
    pub polls: u64,
    /// Cumulative stints that panicked; each retired its task.
    pub panics: u64,
    /// Live registrations on the pool's timer wheel.
    pub timer_depth: usize,
    /// Cumulative timer callbacks fired.
    pub timer_fires: u64,
}

/// The ready queue and, under the same lock, how many IO threads are
/// asleep on the pool's condvar — so an enqueue signals only a thread that
/// is there to hear it.
#[derive(Default)]
struct ReadyQueue {
    tasks: VecDeque<Arc<IoSlot>>,
    parked_threads: usize,
}

struct IoPoolInner {
    queue: Mutex<ReadyQueue>,
    cv: Condvar,
    shutdown: AtomicBool,
    live: AtomicUsize,
    parks: AtomicU64,
    wakes: AtomicU64,
    polls: AtomicU64,
    panics: AtomicU64,
    threads: usize,
    /// Weak registry of every spawned slot so shutdown can wake/retire
    /// parked tasks it would otherwise never see again.
    slots: Mutex<Vec<Weak<IoSlot>>>,
    /// The pool's timer wheel; reads zero once shutdown has stopped it.
    timer: TimerScheduler,
    /// Optional flight recorder: a task panic is timelined as
    /// [`EventKind::Panic`].
    recorder: Mutex<Option<Arc<FlightRecorder>>>,
}

impl IoPoolInner {
    fn enqueue(&self, slot: Arc<IoSlot>) {
        // A thread checks the queue under this lock before it sleeps, so
        // with none asleep every thread will still see the task.
        let wake = {
            let mut q = self.queue.lock();
            q.tasks.push_back(slot);
            q.parked_threads > 0
        };
        if wake {
            self.cv.notify_one();
        }
    }

    fn stats(&self) -> IoPoolStats {
        IoPoolStats {
            io_threads: self.threads,
            live_tasks: self.live.load(Ordering::Relaxed),
            queued_tasks: self.queue.lock().tasks.len(),
            parks: self.parks.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            timer_depth: self.timer.active(),
            timer_fires: self.timer.fires(),
        }
    }
}

/// Create a slot for `task`, register it with the pool, and (for
/// `ST_QUEUED`) hand it to the ready queue. Shared by [`IoPool`]'s
/// spawn methods and the late-bound [`IoSpawner`].
fn spawn_on(inner: &Arc<IoPoolInner>, task: Box<dyn IoTask>, state: u8) -> IoTaskHandle {
    let slot = Arc::new(IoSlot {
        state: AtomicU8::new(state),
        task: Mutex::new(Some(task)),
        done: Condvar::new(),
    });
    inner.live.fetch_add(1, Ordering::Relaxed);
    {
        let mut slots = inner.slots.lock();
        if slots.len() > 64 && slots.len() > inner.live.load(Ordering::Relaxed) * 2 {
            slots.retain(|w| w.upgrade().is_some());
        }
        slots.push(Arc::downgrade(&slot));
    }
    let handle = IoTaskHandle { slot: slot.clone(), pool: Arc::downgrade(inner) };
    if state == ST_QUEUED {
        inner.enqueue(slot);
    }
    handle
}

/// Cloneable spawner detached from the [`IoPool`]'s lifetime: lets code
/// that never sees the pool (e.g. a TCP acceptor task spawning one task
/// per accepted connection) add tasks dynamically. Spawning fails once
/// the pool has shut down.
#[derive(Clone)]
pub struct IoSpawner {
    inner: Weak<IoPoolInner>,
}

impl IoSpawner {
    /// Spawn a task in the ready queue. `None` once the pool is gone or
    /// draining.
    pub fn spawn(&self, task: impl IoTask) -> Option<IoTaskHandle> {
        self.spawn_boxed(Box::new(task), ST_QUEUED)
    }

    /// Spawn a task parked; it runs only once woken. `None` once the pool
    /// is gone or draining.
    pub fn spawn_parked(&self, task: impl IoTask) -> Option<IoTaskHandle> {
        self.spawn_boxed(Box::new(task), ST_PARKED)
    }

    fn spawn_boxed(&self, task: Box<dyn IoTask>, state: u8) -> Option<IoTaskHandle> {
        let inner = self.inner.upgrade()?;
        if inner.shutdown.load(Ordering::Acquire) {
            return None;
        }
        Some(spawn_on(&inner, task, state))
    }

    /// The pool's gauges, for readers that outlive it (a scrape task, a
    /// metrics fold); all zero once the pool is gone.
    pub fn stats(&self) -> IoPoolStats {
        self.inner.upgrade().map(|p| p.stats()).unwrap_or_default()
    }
}

/// Fixed-size event-driven IO thread pool with an owned [`TimerWheel`].
pub struct IoPool {
    inner: Arc<IoPoolInner>,
    timer: Option<TimerWheel>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl IoPool {
    /// Spawn `threads` IO threads (named `{name}-io-{i}`) plus the shared
    /// timer wheel thread.
    pub fn new(name: &str, threads: usize) -> IoPool {
        Self::with_thread_prefix(&format!("{name}-io"), threads)
    }

    /// [`new`](Self::new) with the threads named `{prefix}-{i}`.
    pub(crate) fn with_thread_prefix(prefix: &str, threads: usize) -> IoPool {
        let threads = threads.max(1);
        let timer = TimerWheel::start();
        let inner = Arc::new(IoPoolInner {
            queue: Mutex::new(ReadyQueue::default()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            threads,
            slots: Mutex::new(Vec::new()),
            timer: timer.scheduler(),
            recorder: Mutex::new(None),
        });
        let joins = (0..threads)
            .map(|i| {
                let pool = inner.clone();
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || io_loop(pool))
                    .expect("spawn io thread")
            })
            .collect();
        IoPool { inner, timer: Some(timer), joins }
    }

    /// Number of IO threads.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Scheduling handle onto the pool's timer wheel.
    pub fn scheduler(&self) -> TimerScheduler {
        self.timer.as_ref().expect("pool live").scheduler()
    }

    /// Spawn a task in the ready queue (first run as soon as a thread frees).
    pub fn spawn(&self, task: impl IoTask) -> IoTaskHandle {
        self.spawn_with_state(task, ST_QUEUED)
    }

    /// Spawn a task parked; it runs only once woken.
    pub fn spawn_parked(&self, task: impl IoTask) -> IoTaskHandle {
        self.spawn_with_state(task, ST_PARKED)
    }

    /// Spawn a task that runs immediately and is then woken every `period`
    /// by the timer wheel (the task should end each stint with
    /// [`IoStatus::Park`]) until it completes.
    pub fn spawn_periodic(&self, period: Duration, task: impl IoTask) -> IoTaskHandle {
        let handle = self.spawn_with_state(task, ST_QUEUED);
        let wake = handle.clone();
        self.every(period, move || wake.wake());
        handle
    }

    /// Call `fire` every `period` for as long as it returns `true` (its
    /// task is still live): the registration cancels itself after the
    /// first `false`.
    pub(crate) fn every(&self, period: Duration, fire: impl Fn() -> bool + Send + Sync + 'static) {
        let wheel = self.scheduler();
        let own_id = Arc::new(AtomicU64::new(0));
        let (timer, id) = (wheel.clone(), own_id.clone());
        let registered = wheel.register(period, move || {
            if !fire() {
                timer.cancel(id.load(Ordering::Acquire));
            }
        });
        own_id.store(registered.unwrap_or(0), Ordering::Release);
    }

    fn spawn_with_state(&self, task: impl IoTask, state: u8) -> IoTaskHandle {
        spawn_on(&self.inner, Box::new(task), state)
    }

    /// A cloneable spawner for adding tasks without a pool reference —
    /// the hook dynamic task sources (e.g. TCP acceptors) use.
    pub fn spawner(&self) -> IoSpawner {
        IoSpawner { inner: Arc::downgrade(&self.inner) }
    }

    /// Snapshot of the tier's gauges.
    pub fn stats(&self) -> IoPoolStats {
        self.inner.stats()
    }

    /// Attach a flight recorder: a task panic is timelined as
    /// [`EventKind::Panic`] (subject = the pool's panic count so far).
    pub fn attach_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.inner.recorder.lock() = Some(recorder);
    }

    /// Drain and stop the tier: the timer wheel is stopped first (no more
    /// timer wakes), every parked task is woken so it gets one final
    /// `run`/`on_shutdown` stint, the ready queue is drained to empty, and
    /// all IO threads are joined. Idempotent.
    pub fn shutdown(&mut self) {
        // Take strong refs *before* stopping the wheel: a periodic task's
        // slot may be kept alive only by its timer closure, which the
        // wheel shutdown drops — upgrading afterwards would miss it and
        // leak its live count.
        let slots: Vec<Arc<IoSlot>> =
            self.inner.slots.lock().iter().filter_map(|w| w.upgrade()).collect();
        if let Some(timer) = self.timer.take() {
            timer.shutdown();
        }
        self.inner.shutdown.store(true, Ordering::Release);
        for slot in &slots {
            let handle = IoTaskHandle { slot: slot.clone(), pool: Arc::downgrade(&self.inner) };
            handle.wake();
        }
        // Under the queue lock: a thread reads the flag and goes to sleep
        // under it, so none can slip between the two and miss this.
        {
            let _q = self.inner.queue.lock();
            self.inner.cv.notify_all();
        }
        for t in self.joins.drain(..) {
            let _ = t.join();
        }
        // Anything still queued (e.g. woken after the threads decided to
        // exit) is retired synchronously so the queue ends empty.
        let leftovers: Vec<Arc<IoSlot>> = self.inner.queue.lock().tasks.drain(..).collect();
        for slot in leftovers {
            slot.retire(true);
            self.inner.live.fetch_sub(1, Ordering::Relaxed);
        }
        // Final sweep: any task the threads never got to (all joined by
        // now, so this cannot race a run stint) is retired here.
        for slot in slots {
            if slot.state.load(Ordering::Acquire) != ST_DONE {
                slot.retire(true);
                self.inner.live.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn io_loop(inner: Arc<IoPoolInner>) {
    // A task that returned `Ready` to an empty queue: it runs again here
    // without a trip through the queue or the condvar.
    let mut again: Option<Arc<IoSlot>> = None;
    loop {
        let slot = match again.take() {
            Some(s) => s,
            None => {
                let mut q = inner.queue.lock();
                loop {
                    if let Some(s) = q.tasks.pop_front() {
                        break s;
                    }
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q.parked_threads += 1;
                    inner.cv.wait(&mut q);
                    q.parked_threads -= 1;
                }
            }
        };
        let shutting = inner.shutdown.load(Ordering::Acquire);
        slot.state.store(ST_RUNNING, Ordering::Release);
        let stint = {
            let mut task = slot.task.lock();
            match task.as_mut() {
                Some(t) => {
                    catch_unwind(AssertUnwindSafe(|| t.run(&IoContext { shutting_down: shutting })))
                }
                None => Ok(IoStatus::Complete),
            }
        };
        inner.polls.fetch_add(1, Ordering::Relaxed);
        let Ok(status) = stint else {
            // The task's state unwound mid-stint: no hook, no second run.
            let panics = inner.panics.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(r) = inner.recorder.lock().as_ref() {
                r.record(EventKind::Panic, panics, 0);
            }
            slot.retire(false);
            inner.live.fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        if shutting {
            // Drain mode: one final stint, then retire regardless of status.
            slot.retire(!matches!(status, IoStatus::Complete));
            inner.live.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        match status {
            IoStatus::Ready => {
                // Silent only when the queue is empty: a task kept off the
                // queue behind one that then blocks this thread would be
                // stranded where no idle thread can see it.
                if inner.queue.lock().tasks.is_empty() {
                    again = Some(slot);
                } else {
                    slot.state.store(ST_QUEUED, Ordering::Release);
                    inner.enqueue(slot);
                }
            }
            IoStatus::Complete => {
                slot.retire(false);
                inner.live.fetch_sub(1, Ordering::Relaxed);
            }
            IoStatus::Park | IoStatus::ParkUntil(_) => {
                match slot.state.compare_exchange(
                    ST_RUNNING,
                    ST_PARKED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        inner.parks.fetch_add(1, Ordering::Relaxed);
                        if let IoStatus::ParkUntil(deadline) = status {
                            let handle =
                                IoTaskHandle { slot: slot.clone(), pool: Arc::downgrade(&inner) };
                            inner.timer.schedule_once(deadline, move || {
                                handle.wake();
                            });
                        }
                    }
                    Err(_) => {
                        // A wake landed mid-run (NOTIFIED): re-queue so the
                        // event is not lost.
                        slot.state.store(ST_QUEUED, Ordering::Release);
                        inner.enqueue(slot);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::wait_until;

    struct CountTask {
        runs: Arc<AtomicU64>,
        status: IoStatus,
    }

    impl IoTask for CountTask {
        fn run(&mut self, _ctx: &IoContext) -> IoStatus {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.status
        }
    }

    #[test]
    fn parked_task_runs_only_when_woken() {
        let mut pool = IoPool::new("t", 2);
        let runs = Arc::new(AtomicU64::new(0));
        let h = pool.spawn_parked(CountTask { runs: runs.clone(), status: IoStatus::Park });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(runs.load(Ordering::Relaxed), 0, "parked task ran unwoken");
        assert!(h.wake());
        assert!(wait_until(Instant::now() + Duration::from_secs(2), || {
            runs.load(Ordering::Relaxed) == 1
        }));
        let stats = pool.stats();
        assert_eq!(stats.live_tasks, 1);
        assert!(stats.wakes >= 1);
        assert!(stats.parks >= 1);
        pool.shutdown();
        assert!(h.is_complete());
        assert_eq!(pool.stats().queued_tasks, 0, "queue must drain at shutdown");
    }

    #[test]
    fn park_until_rewakes_via_timer() {
        let mut pool = IoPool::new("t", 1);
        let runs = Arc::new(AtomicU64::new(0));
        struct Backoff(Arc<AtomicU64>);
        impl IoTask for Backoff {
            fn run(&mut self, _ctx: &IoContext) -> IoStatus {
                if self.0.fetch_add(1, Ordering::Relaxed) >= 4 {
                    IoStatus::Complete
                } else {
                    IoStatus::ParkUntil(Instant::now() + Duration::from_millis(2))
                }
            }
        }
        let h = pool.spawn(Backoff(runs.clone()));
        assert!(wait_until(Instant::now() + Duration::from_secs(5), || h.is_complete()));
        assert_eq!(runs.load(Ordering::Relaxed), 5);
        assert_eq!(pool.stats().live_tasks, 0);
        pool.shutdown();
    }

    #[test]
    fn wake_during_run_requeues_instead_of_parking() {
        let mut pool = IoPool::new("t", 1);
        let runs = Arc::new(AtomicU64::new(0));
        struct SlowPark {
            runs: Arc<AtomicU64>,
            gate: Arc<AtomicBool>,
        }
        impl IoTask for SlowPark {
            fn run(&mut self, _ctx: &IoContext) -> IoStatus {
                self.runs.fetch_add(1, Ordering::Relaxed);
                // Hold the run long enough for the waker to land mid-run.
                while !self.gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                IoStatus::Park
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let h = pool.spawn(SlowPark { runs: runs.clone(), gate: gate.clone() });
        assert!(wait_until(Instant::now() + Duration::from_secs(2), || {
            runs.load(Ordering::Relaxed) == 1
        }));
        // Task is mid-run; this wake must not be lost.
        assert!(h.wake());
        gate.store(true, Ordering::Release);
        assert!(
            wait_until(Instant::now() + Duration::from_secs(2), || runs.load(Ordering::Relaxed)
                >= 2),
            "mid-run wake was dropped"
        );
        pool.shutdown();
    }

    #[test]
    fn ready_tasks_share_threads_fairly() {
        let mut pool = IoPool::new("t", 2);
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        struct Busy(Arc<AtomicU64>);
        impl IoTask for Busy {
            fn run(&mut self, ctx: &IoContext) -> IoStatus {
                if ctx.shutting_down() {
                    return IoStatus::Complete;
                }
                if self.0.fetch_add(1, Ordering::Relaxed) >= 200 {
                    IoStatus::Complete
                } else {
                    IoStatus::Ready
                }
            }
        }
        let ha = pool.spawn(Busy(a.clone()));
        let hb = pool.spawn(Busy(b.clone()));
        assert!(wait_until(Instant::now() + Duration::from_secs(5), || {
            ha.is_complete() && hb.is_complete()
        }));
        assert!(a.load(Ordering::Relaxed) >= 200);
        assert!(b.load(Ordering::Relaxed) >= 200);
        pool.shutdown();
    }

    #[test]
    fn a_lone_ready_task_stays_on_its_thread_and_off_the_queue() {
        let mut pool = IoPool::new("t", 2);
        // Runs `Ready` for ever; notes each stint whose thread differs from
        // the one before.
        struct Sticky {
            stints: Arc<AtomicU64>,
            migrations: Arc<AtomicU64>,
            last: Option<std::thread::ThreadId>,
        }
        impl IoTask for Sticky {
            fn run(&mut self, ctx: &IoContext) -> IoStatus {
                if ctx.shutting_down() {
                    return IoStatus::Complete;
                }
                let me = std::thread::current().id();
                if self.last.replace(me).is_some_and(|prev| prev != me) {
                    self.migrations.fetch_add(1, Ordering::Relaxed);
                }
                self.stints.fetch_add(1, Ordering::Relaxed);
                IoStatus::Ready
            }
        }
        let stints = Arc::new(AtomicU64::new(0));
        let migrations = Arc::new(AtomicU64::new(0));
        pool.spawn(Sticky { stints: stints.clone(), migrations: migrations.clone(), last: None });
        let ran = |n: u64| {
            wait_until(Instant::now() + Duration::from_secs(10), || {
                stints.load(Ordering::Relaxed) >= n
            })
        };
        assert!(ran(100), "warm-up");
        let (warm, moved) = (pool.stats(), migrations.load(Ordering::Relaxed));
        let target = stints.load(Ordering::Relaxed) + 10_000;
        assert!(ran(target), "the task stopped running");
        let after = pool.stats();
        assert_eq!((after.parks, after.wakes), (warm.parks, warm.wakes), "a Ready task parked");
        assert_eq!(after.queued_tasks, 0, "a lone Ready task must not sit in the queue");
        assert_eq!(
            migrations.load(Ordering::Relaxed),
            moved,
            "the idle thread was woken to take a task that never left its own"
        );
        pool.shutdown();
    }

    #[test]
    fn a_ready_task_is_not_stranded_behind_a_task_that_blocks_its_thread() {
        let mut pool = IoPool::new("t", 2);
        // Sleeps on its thread when woken, and reports how many stints the
        // Ready task got in meanwhile.
        struct Blocker {
            stints: Arc<AtomicU64>,
            progress: Arc<AtomicU64>,
        }
        impl IoTask for Blocker {
            fn run(&mut self, ctx: &IoContext) -> IoStatus {
                if !ctx.shutting_down() {
                    let before = self.stints.load(Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(200));
                    self.progress.store(
                        (self.stints.load(Ordering::Relaxed) - before).max(1),
                        Ordering::Release,
                    );
                }
                IoStatus::Complete
            }
        }
        // Always `Ready`; wakes the blocker from inside a stint, so the
        // blocker is queued at the very moment this task's own thread
        // looks for what to run next.
        struct Busy {
            stints: Arc<AtomicU64>,
            blocker: Option<IoTaskHandle>,
        }
        impl IoTask for Busy {
            fn run(&mut self, ctx: &IoContext) -> IoStatus {
                if ctx.shutting_down() {
                    return IoStatus::Complete;
                }
                if self.stints.fetch_add(1, Ordering::Relaxed) == 50 {
                    self.blocker.take().expect("woken once").wake();
                }
                IoStatus::Ready
            }
        }
        let stints = Arc::new(AtomicU64::new(0));
        let progress = Arc::new(AtomicU64::new(0));
        let blocker =
            pool.spawn_parked(Blocker { stints: stints.clone(), progress: progress.clone() });
        pool.spawn(Busy { stints: stints.clone(), blocker: Some(blocker) });
        assert!(
            wait_until(Instant::now() + Duration::from_secs(10), || {
                progress.load(Ordering::Acquire) > 0
            }),
            "the blocker never ran"
        );
        assert!(
            progress.load(Ordering::Acquire) > 100,
            "the Ready task got {} stints while the other task held a thread for 200 ms",
            progress.load(Ordering::Acquire)
        );
        pool.shutdown();
    }

    #[test]
    fn a_panicking_io_task_leaves_its_thread_serving_the_others() {
        let mut pool = IoPool::new("t", 1);
        let recorder = Arc::new(FlightRecorder::new(8));
        pool.attach_recorder(recorder.clone());
        struct Bomb(Arc<AtomicU64>);
        impl IoTask for Bomb {
            fn run(&mut self, _ctx: &IoContext) -> IoStatus {
                panic!("boom");
            }
            fn on_shutdown(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let hooked = Arc::new(AtomicU64::new(0));
        let bomb = pool.spawn(Bomb(hooked.clone()));
        assert!(
            wait_until(Instant::now() + Duration::from_secs(5), || bomb.is_complete()),
            "a panicked task must read complete"
        );
        assert!(!bomb.wake(), "and must not run again");
        bomb.wait_complete();
        // The pool's only thread is still there for a task spawned afterwards.
        let runs = Arc::new(AtomicU64::new(0));
        let next = pool.spawn(CountTask { runs: runs.clone(), status: IoStatus::Complete });
        assert!(
            wait_until(Instant::now() + Duration::from_secs(5), || next.is_complete()),
            "the panic took the IO thread with it"
        );
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let stats = pool.stats();
        assert_eq!((stats.panics, stats.live_tasks), (1, 0));
        assert!(recorder.snapshot().iter().any(|e| e.kind == EventKind::Panic && e.subject == 1));
        pool.shutdown();
        assert_eq!(hooked.load(Ordering::Relaxed), 0, "no hook on state that unwound mid-stint");
    }

    #[test]
    fn spawn_periodic_fires_repeatedly_until_shutdown() {
        let mut pool = IoPool::new("t", 1);
        let runs = Arc::new(AtomicU64::new(0));
        let _h = pool.spawn_periodic(
            Duration::from_millis(3),
            CountTask { runs: runs.clone(), status: IoStatus::Park },
        );
        assert!(wait_until(Instant::now() + Duration::from_secs(5), || {
            runs.load(Ordering::Relaxed) >= 5
        }));
        pool.shutdown();
        let after = runs.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(runs.load(Ordering::Relaxed), after, "task ran after shutdown");
    }

    #[test]
    fn spawner_spawns_dynamically_and_refuses_after_shutdown() {
        let mut pool = IoPool::new("t", 1);
        let spawner = pool.spawner();
        let runs = Arc::new(AtomicU64::new(0));
        let h = spawner
            .spawn(CountTask { runs: runs.clone(), status: IoStatus::Complete })
            .expect("pool is live");
        assert!(wait_until(Instant::now() + Duration::from_secs(2), || h.is_complete()));
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        pool.shutdown();
        assert!(
            spawner.spawn(CountTask { runs, status: IoStatus::Park }).is_none(),
            "spawner must refuse once the pool has drained"
        );
    }

    #[test]
    fn shutdown_retires_parked_tasks_with_on_shutdown_hook() {
        let mut pool = IoPool::new("t", 2);
        struct Hooked(Arc<AtomicU64>);
        impl IoTask for Hooked {
            fn run(&mut self, _ctx: &IoContext) -> IoStatus {
                IoStatus::Park
            }
            fn on_shutdown(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let hooked = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8).map(|_| pool.spawn_parked(Hooked(hooked.clone()))).collect();
        pool.shutdown();
        assert!(handles.iter().all(|h| h.is_complete()));
        assert_eq!(hooked.load(Ordering::Relaxed), 8, "on_shutdown must reach parked tasks");
        assert_eq!(pool.stats().live_tasks, 0);
        assert_eq!(pool.stats().queued_tasks, 0);
    }
}
