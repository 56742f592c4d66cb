//! Error type for the workload harness.

use fedfl_service::ServiceError;
use fedfl_sim::SimError;
use std::fmt;

/// Everything that can go wrong generating or replaying a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A [`crate::spec::WorkloadSpec`] field is out of range or degenerate
    /// (zero-length diurnal period, all-clients-removed floor, …).
    InvalidSpec {
        /// Which field is invalid.
        field: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The pricing service rejected a replayed command.
    Service(ServiceError),
    /// A `verify_every` checkpoint found served prices that are not
    /// bit-identical to a from-scratch solve over the same clients, or
    /// one of the replay's cross-checks against the driver failed: the
    /// dirty prediction, the id mirror or the availability pattern count.
    VerificationFailed {
        /// The trace step at which the divergence was detected.
        step: usize,
        /// What diverged (client id, served vs. reference bits, or the
        /// failed cross-check).
        detail: String,
    },
    /// A timed read absorbed a re-solve, but the driver could not produce
    /// the solve's report — a hand-built or wire-received trace that leads
    /// with a read against a driver with no solve history.
    MissingSolveReport {
        /// The trace step whose read had no report behind it.
        step: usize,
    },
    /// The transport carrying the command stream failed (connection lost,
    /// malformed frame, codec rejection).
    Transport {
        /// What the transport reported.
        detail: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidSpec { field, reason } => {
                write!(f, "invalid workload spec: {field}: {reason}")
            }
            WorkloadError::Service(err) => write!(f, "pricing service error: {err}"),
            WorkloadError::VerificationFailed { step, detail } => {
                write!(f, "verification failed at step {step}: {detail}")
            }
            WorkloadError::MissingSolveReport { step } => {
                write!(
                    f,
                    "step {step}: a read absorbed a re-solve but no solve report is available"
                )
            }
            WorkloadError::Transport { detail } => {
                write!(f, "transport error: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<ServiceError> for WorkloadError {
    fn from(err: ServiceError) -> Self {
        WorkloadError::Service(err)
    }
}

impl From<SimError> for WorkloadError {
    fn from(err: SimError) -> Self {
        WorkloadError::InvalidSpec {
            field: "diurnal",
            reason: err.to_string(),
        }
    }
}
