//! Job lifecycle: waiting for sources, settling in-flight data, and the
//! ordered teardown in [`JobHandle::stop`].

use super::{JobHandle, PlaneStats};
use crate::metrics::JobMetrics;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

impl JobHandle {
    /// Source pumps still live on the IO tier.
    pub fn active_sources(&self) -> usize {
        self.pump_gauge.active()
    }

    /// Wait until every source is exhausted (true) or the timeout elapses
    /// (false). Event-driven: pumps notify their gauge on completion, so
    /// this blocks on a condvar instead of polling.
    pub fn await_sources(&self, timeout: Duration) -> bool {
        self.pump_gauge.wait_zero(Instant::now() + timeout)
    }

    /// Flush all buffers and wait until every queue and buffer is empty,
    /// every task is idle, **and every dispatched frame has been received**
    /// — the last condition covers frames that are in flight inside TCP
    /// sender queues or kernel socket buffers, which no local queue can
    /// see. Returns false on timeout.
    pub fn settle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable = 0;
        loop {
            for ep in &self.shared.endpoints {
                let _ = ep.force_flush();
            }
            // Bounded like the rest of the loop: a caller probing a loaded
            // pipeline with a short timeout (a node's quiescence tick) must
            // get its `false` back on time, not once the load lets up.
            if !self.resources.iter().all(|r| r.drain_until(deadline)) {
                return false;
            }
            let snapshot = self.shared.registry.snapshot();
            let frames_out: u64 = snapshot.operators.values().map(|m| m.frames_out).sum();
            let frames_in: u64 = snapshot.operators.values().map(|m| m.frames_in).sum();
            // Frames sacrificed by a shed policy were dispatched but will
            // never arrive; without this term a shedding run could never
            // balance its books and settle would always time out.
            let shed: u64 = self.shared.queues.iter().map(|q| q.shed_total()).sum();
            let busy = self.shared.queues.iter().any(|q| !q.is_empty())
                || self.shared.endpoints.iter().any(|ep| !ep.is_empty())
                || frames_out != frames_in + shed;
            if busy {
                stable = 0;
            } else {
                stable += 1;
                if stable >= 2 {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            // A finishing pump cuts the wait short; otherwise re-check
            // after a bounded pause.
            self.pump_gauge.wait_change(Duration::from_micros(500));
        }
    }

    /// Stop the job: sources first, then a full drain, then processor
    /// close hooks in topological order (each followed by a drain so
    /// close-time emissions are fully processed downstream), then the IO
    /// tier (which force-flushes every endpoint and drains its queue),
    /// then teardown. Returns the final metrics.
    pub fn stop(mut self) -> JobMetrics {
        self.stop_flag.store(true, Ordering::Release);
        // Wake every pump so it observes the stop flag and finishes; gated
        // or deep-backoff pumps would otherwise linger until their next
        // scheduled wake.
        for h in &self.pump_handles {
            h.wake();
        }
        self.pump_gauge.wait_zero(Instant::now() + Duration::from_secs(30));
        self.settle(Duration::from_secs(30));
        // Terminate processors in topological order, draining after each
        // stage so close() emissions propagate.
        for (_, handles) in &self.processor_handles {
            for h in handles {
                h.terminate();
            }
            self.settle(Duration::from_secs(10));
        }
        // Network gauges are captured while connections are still open;
        // pool shutdown retires connection tasks and would zero the
        // connection gauge (cumulative counters are re-read below).
        let net = self.shared.net_gauges();
        // Shut the IO tier down: the timer wheel stops, parked tasks get a
        // final drain stint (flush tasks force-flush), the ready queue
        // empties, and all IO threads join.
        let io = self.io_pool.take().map(|mut pool| {
            pool.shutdown();
            pool.stats()
        });
        // The worker tier is read while it is still up, the IO tier from
        // the pool itself: its stat handle reads zero from here on.
        let mut plane = PlaneStats { io: io.unwrap_or_default(), net, ..self.shared.plane() };
        for q in &self.shared.queues {
            q.close();
        }
        for r in std::mem::take(&mut self.resources) {
            r.shutdown();
        }
        for rx in self.shared.receivers.lock().drain(..) {
            rx.shutdown();
        }
        // The reactor goes down last: connection tasks deregistered their
        // sockets while it was still serving, so nothing dangles. Its
        // cumulative counters are final now — fold them into the exported
        // stats (the pre-shutdown snapshot kept only the gauges).
        if let Some(mut reactor) = self.reactor.take() {
            reactor.shutdown();
            let end = reactor.stats();
            plane.net.reactor.events_dispatched = end.events_dispatched;
            plane.net.reactor.rearms = end.rearms;
        }
        self.shared.metrics(&plane)
    }
}
