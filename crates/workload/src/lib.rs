//! Closed-loop workload harness for the pricing service.
//!
//! The paper's Stage-I pricing game is stationary: draw a population,
//! solve one equilibrium. A deployed pricing service sees nothing of the
//! sort — clients cycle with their timezones, flash crowds join and
//! leave in blocks, budgets are re-negotiated, and read traffic never
//! stops. This crate generates that traffic deterministically and
//! replays it through [`fedfl_service::PricingService`]:
//!
//! * [`spec::WorkloadSpec`] — every knob of the traffic model, validated
//!   so degenerate inputs (zero-length diurnal period, all-clients-removed
//!   floors, non-distribution budget tails) error cleanly;
//! * [`generator::generate`] — spec → [`generator::Trace`], a byte-stable
//!   command stream (diurnal `UpdateAvailability`, heavy-tail churn,
//!   flash crowds, interleaved reads) fingerprinted with FNV-1a;
//! * [`replay::replay`] — trace → [`replay::ReplayOutcome`], timing every
//!   read and re-solve against a live service into an obs registry and
//!   certifying served prices bit-identical to from-scratch solves at
//!   `verify_every` checkpoints;
//! * [`report::WorkloadRecord`] — the run's summary, read from the
//!   outcome's metrics snapshot and per-solve samples;
//!   [`report::counter`] resolves the counter names CI gates on.
//!
//! The same spec produces the same trace, the same served price bits,
//! and the same solver iteration counts regardless of `shards` or thread
//! settings — the property tests in `tests/determinism.rs` pin this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod generator;
pub mod replay;
pub mod report;
pub mod spec;

pub use error::WorkloadError;
pub use generator::{generate, Phase, Trace, TraceOp, TraceStep};
pub use replay::{
    replay, replay_config, replay_with, CommandDriver, InProcessDriver, ReplayOutcome,
};
pub use report::WorkloadRecord;
pub use spec::WorkloadSpec;
