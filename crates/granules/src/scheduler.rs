//! Scheduling strategies.
//!
//! §II of the NEPTUNE paper: *"Computational tasks are scheduled to run
//! based on a scheduling strategy that can be changed during execution. The
//! scheduling strategy could be data driven, periodic, count based or a
//! combination of these. For instance, a computational task can be scheduled
//! to run every 500 milliseconds or when data is available in a particular
//! dataset."*

use std::time::Duration;

/// When a deployed task should be scheduled for execution.
///
/// The three paper strategies compose:
/// * `data_driven` — execute when a dataset signals availability;
/// * `count` — (modifies data-driven) only execute once at least `count`
///   signals have accumulated, letting a task batch its input;
/// * `period` — additionally execute every `period`, with or without data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Execute when data arrives.
    pub data_driven: bool,
    /// Minimum number of accumulated signals before a data-driven
    /// execution fires (1 = every signal).
    pub count: u64,
    /// Also execute on this fixed period, independent of data.
    pub period: Option<Duration>,
    /// How many consecutive executions a task may run on one worker stint
    /// before it goes back to the pool's scheduler. The default (64) lets a
    /// burst be drained with a single thread handoff — NEPTUNE's batched
    /// scheduling. Setting 1 forces a scheduler crossing per execution,
    /// which is the per-message ablation of Table I.
    pub max_consecutive_runs: u64,
}

impl ScheduleSpec {
    /// Execute on every data signal — NEPTUNE's stream processors:
    /// *"Stream processors are scheduled only if data is available in any of
    /// the input streams using the data driven scheduling scheme provided by
    /// Granules."*
    pub fn data_driven() -> Self {
        ScheduleSpec { data_driven: true, count: 1, period: None, max_consecutive_runs: 64 }
    }

    /// Execute once at least `count` data signals have accumulated.
    pub fn count_based(count: u64) -> Self {
        assert!(count >= 1, "count-based schedule needs count >= 1");
        ScheduleSpec { data_driven: true, count, period: None, max_consecutive_runs: 64 }
    }

    /// Execute every `period` regardless of data (e.g. "every 500 ms").
    pub fn periodic(period: Duration) -> Self {
        ScheduleSpec {
            data_driven: false,
            count: 1,
            period: Some(period),
            max_consecutive_runs: 64,
        }
    }

    /// Combination: data-driven with a count threshold *and* a periodic
    /// fire ensuring bounded staleness.
    pub fn combined(count: u64, period: Duration) -> Self {
        assert!(count >= 1, "count-based schedule needs count >= 1");
        ScheduleSpec { data_driven: true, count, period: Some(period), max_consecutive_runs: 64 }
    }

    /// Override the per-stint execution budget (see field docs).
    pub fn with_max_consecutive_runs(mut self, runs: u64) -> Self {
        assert!(runs >= 1, "max_consecutive_runs must be >= 1");
        self.max_consecutive_runs = runs;
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !self.data_driven && self.period.is_none() {
            return Err(
                "schedule is neither data-driven nor periodic; task would never run".to_string()
            );
        }
        if self.count == 0 {
            return Err("count threshold must be >= 1".to_string());
        }
        if let Some(p) = self.period {
            if p.is_zero() {
                return Err("period must be non-zero".to_string());
            }
        }
        if self.max_consecutive_runs == 0 {
            return Err("max_consecutive_runs must be >= 1".to_string());
        }
        Ok(())
    }
}

impl Default for ScheduleSpec {
    fn default() -> Self {
        Self::data_driven()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors_validate() {
        assert!(ScheduleSpec::data_driven().validate().is_ok());
        assert!(ScheduleSpec::count_based(10).validate().is_ok());
        assert!(ScheduleSpec::periodic(Duration::from_millis(500)).validate().is_ok());
        assert!(ScheduleSpec::combined(4, Duration::from_millis(5)).validate().is_ok());
    }

    #[test]
    fn invalid_specs_rejected() {
        let never =
            ScheduleSpec { data_driven: false, count: 1, period: None, max_consecutive_runs: 64 };
        assert!(never.validate().is_err());
        let zero_count =
            ScheduleSpec { data_driven: true, count: 0, period: None, max_consecutive_runs: 64 };
        assert!(zero_count.validate().is_err());
        let zero_period = ScheduleSpec {
            data_driven: false,
            count: 1,
            period: Some(Duration::ZERO),
            max_consecutive_runs: 64,
        };
        assert!(zero_period.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "count >= 1")]
    fn count_based_zero_panics() {
        ScheduleSpec::count_based(0);
    }
}
