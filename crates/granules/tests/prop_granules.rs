//! Property-based tests for the Granules substrate.
//!
//! Invariants:
//! * No signal is ever lost, regardless of burst pattern, worker count,
//!   or count-threshold: the sum of coalesced signal counts observed by a
//!   task equals the signals delivered (§III-B2's correctness premise —
//!   batching must never drop work).
//! * Schedule specs round-trip their builder forms and validate exactly
//!   the documented constraints.
//! * A resource's pool runs every signalled task, once per signal batch,
//!   whatever the ratio of tasks to workers.

use neptune_granules::{ComputationalTask, Resource, ScheduleSpec, TaskContext, TaskOutcome};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct SignalSum(Arc<AtomicU64>, Arc<AtomicU64>);
impl ComputationalTask for SignalSum {
    fn execute(&mut self, ctx: &TaskContext) -> TaskOutcome {
        self.0.fetch_add(ctx.coalesced_signals(), Ordering::Relaxed);
        self.1.fetch_add(1, Ordering::Relaxed);
        TaskOutcome::Continue
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_signal_lost_under_bursts(
        workers in 1usize..5,
        bursts in proptest::collection::vec(1u64..500, 1..20),
        count_threshold in 1u64..8,
        max_runs in prop_oneof![Just(1u64), Just(4), Just(64)],
    ) {
        let resource = Resource::builder("prop").workers(workers).build();
        let seen = Arc::new(AtomicU64::new(0));
        let execs = Arc::new(AtomicU64::new(0));
        let spec = ScheduleSpec::count_based(count_threshold)
            .with_max_consecutive_runs(max_runs);
        let handle = resource
            .deploy(SignalSum(seen.clone(), execs.clone()), spec)
            .unwrap();
        let mut total = 0u64;
        for burst in bursts {
            handle.signal_many(burst);
            total += burst;
        }
        // Top up so the count threshold is guaranteed reachable.
        let remainder = total % count_threshold;
        if remainder != 0 {
            let top_up = count_threshold - remainder;
            handle.signal_many(top_up);
            total += top_up;
        }
        resource.drain();
        // Count-based batching holds back sub-threshold remainders by
        // design (§III-B2): whatever a run left below the threshold — which
        // depends on how bursts coalesced — stays pending. Flush it with a
        // forced execution before checking conservation.
        if handle.pending_signals() > 0 {
            handle.force();
            resource.drain();
        }
        prop_assert_eq!(seen.load(Ordering::Relaxed), total, "signals lost or duplicated");
        // Batching sanity: executions never exceed signals.
        prop_assert!(execs.load(Ordering::Relaxed) <= total);
        resource.shutdown();
    }

    #[test]
    fn schedule_specs_validate_consistently(
        data_driven in any::<bool>(),
        count in 0u64..5,
        period_ms in prop_oneof![Just(None), (0u64..100).prop_map(Some)],
        max_runs in 0u64..5,
    ) {
        let spec = ScheduleSpec {
            data_driven,
            count,
            period: period_ms.map(std::time::Duration::from_millis),
            max_consecutive_runs: max_runs,
        };
        let valid = spec.validate().is_ok();
        let expected = (data_driven || period_ms.is_some_and(|ms| ms > 0))
            && count >= 1
            && period_ms != Some(0)
            && max_runs >= 1;
        prop_assert_eq!(valid, expected, "validate() disagrees with documented rules");
    }

    #[test]
    fn every_signalled_task_runs_once_per_signal_batch(
        workers in 1usize..6,
        tasks in 1usize..200,
        batch in 1u64..50,
    ) {
        let resource = Resource::builder("prop").workers(workers).build();
        let deployed: Vec<_> = (0..tasks)
            .map(|_| {
                let (seen, execs) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
                let task = SignalSum(seen.clone(), execs.clone());
                (resource.deploy(task, ScheduleSpec::data_driven()).unwrap(), seen, execs)
            })
            .collect();
        // Every third task is left alone.
        let signalled = |i: usize| i % 3 != 2;
        for (i, (handle, _, _)) in deployed.iter().enumerate() {
            if signalled(i) {
                handle.signal_many(batch);
            }
        }
        resource.drain();
        for (i, (handle, seen, execs)) in deployed.iter().enumerate() {
            let (want_signals, want_execs) = if signalled(i) { (batch, 1) } else { (0, 0) };
            prop_assert_eq!(seen.load(Ordering::Relaxed), want_signals, "task {}", i);
            prop_assert_eq!(execs.load(Ordering::Relaxed), want_execs, "task {}", i);
            prop_assert_eq!(handle.executions(), want_execs);
        }
        prop_assert_eq!(resource.total_signals(), deployed.iter().enumerate()
            .filter(|(i, _)| signalled(*i)).count() as u64 * batch);
        prop_assert_eq!(resource.worker_panics(), 0);
        resource.shutdown();
    }
}
