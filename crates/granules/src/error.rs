//! Error type shared across the Granules runtime.

use crate::task::TaskId;

/// Errors surfaced by the Granules runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GranulesError {
    /// No task with this id is deployed on the resource.
    UnknownTask(TaskId),
    /// The task exists but has already terminated.
    TaskTerminated(TaskId),
    /// A schedule specification was internally inconsistent.
    InvalidSchedule(String),
    /// A dataset operation failed.
    Dataset(String),
}

impl std::fmt::Display for GranulesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GranulesError::UnknownTask(id) => write!(f, "unknown task {id:?}"),
            GranulesError::TaskTerminated(id) => write!(f, "task {id:?} already terminated"),
            GranulesError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            GranulesError::Dataset(msg) => write!(f, "dataset error: {msg}"),
        }
    }
}

impl std::error::Error for GranulesError {}
