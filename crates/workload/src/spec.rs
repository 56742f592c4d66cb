//! Workload specification: every knob of the closed-loop traffic model.

use crate::error::WorkloadError;
use fedfl_num::dist::BoundedPareto;
use fedfl_sim::availability::DiurnalCycle;
use serde::{Deserialize, Serialize};

/// Parameters of one closed-loop workload run.
///
/// The spec fully determines the command trace: the same spec (including
/// `seed`) generates a byte-identical trace on every run and every
/// machine, independent of `shards`/`threads`, which only affect how the
/// service executes and reports it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Initial population size.
    pub clients: usize,
    /// Number of traffic steps after the seeding step.
    pub steps: usize,
    /// Master seed; every stochastic choice derives from it via labelled
    /// substreams.
    pub seed: u64,
    /// Reporting shards the service is configured with
    /// ([`fedfl_service::ServiceConfig::shards`]).
    pub shards: usize,
    /// Solver threads (`0` = auto).
    pub threads: usize,
    /// Diurnal availability cycle shared by all cohorts.
    pub diurnal: DiurnalCycle,
    /// Number of timezone cohorts; cohort `k` runs the cycle at phase
    /// `k / cohorts`. Cohorts are keyed on the same 32-id blocks the
    /// store routes on, so a cohort's swing dirties a coherent shard set.
    pub cohorts: usize,
    /// Steady-state client arrivals per step.
    pub arrivals_per_step: usize,
    /// Steady-state client departures per step (clamped so the population
    /// never drops below [`WorkloadSpec::min_population`]).
    pub departures_per_step: usize,
    /// A flash crowd joins every this many steps (`0` disables surges).
    pub surge_every: usize,
    /// Clients per flash crowd.
    pub surge_size: usize,
    /// Steps a flash crowd stays before leaving together.
    pub surge_hold: usize,
    /// The budget is re-drawn every this many steps (`0` disables budget
    /// churn).
    pub budget_every: usize,
    /// Base budget as a fraction of the initial population's saturation
    /// path spend, in `(0, 1]`.
    pub budget_frac: f64,
    /// Lower bound of the heavy-tail budget multiplier.
    pub budget_tail_lo: f64,
    /// Upper bound of the heavy-tail budget multiplier.
    pub budget_tail_hi: f64,
    /// Pareto shape of the budget multiplier (smaller = heavier tail).
    pub budget_tail_alpha: f64,
    /// `GetPrices` batches issued per step.
    pub reads_per_step: usize,
    /// Ids per `GetPrices` batch.
    pub read_batch: usize,
    /// A full `Snapshot` is taken every this many steps (`0` disables).
    pub snapshot_every: usize,
    /// Every this many steps the served prices are checked bit-identical
    /// against a from-scratch solve (`0` disables verification).
    pub verify_every: usize,
    /// Hard floor on the live population; departures are clamped so the
    /// store is never drained to fewer clients than this.
    pub min_population: usize,
    /// Solve through the threshold-indexed fast path
    /// ([`fedfl_service::ServiceConfig::fast_path`]). Like
    /// `shards`/`threads` this only affects how the service executes the
    /// trace, never the trace itself; `verify_every` checkpoints switch
    /// from bit-identity to the certification tolerance.
    pub fast_path: bool,
}

impl WorkloadSpec {
    /// The committed 10k-client reference trace: a few diurnal periods of
    /// mixed churn, two flash crowds, heavy-tail budget churn, and steady
    /// read traffic.
    pub fn reference_10k() -> Self {
        WorkloadSpec {
            clients: 10_000,
            steps: 36,
            seed: 2023,
            shards: 256,
            threads: 0,
            diurnal: DiurnalCycle {
                period: 12,
                trough: 0.25,
                peak: 0.95,
            },
            cohorts: 8,
            arrivals_per_step: 150,
            departures_per_step: 150,
            surge_every: 12,
            surge_size: 800,
            surge_hold: 4,
            budget_every: 6,
            budget_frac: 0.45,
            budget_tail_lo: 0.6,
            budget_tail_hi: 2.4,
            budget_tail_alpha: 1.5,
            reads_per_step: 4,
            read_batch: 64,
            snapshot_every: 6,
            verify_every: 12,
            min_population: 1_000,
            fast_path: false,
        }
    }

    /// Validate every knob; returns the first violated constraint.
    ///
    /// Degenerate traffic models that the paper-scale engine would turn
    /// into panics or NaN rates — a zero-length diurnal period, a churn
    /// floor above the initial population, a non-distribution budget
    /// tail — are rejected here, before any command is generated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.clients == 0 {
            return Err(invalid("clients", "must be positive"));
        }
        if self.steps == 0 {
            return Err(invalid("steps", "must be positive"));
        }
        if self.shards == 0 {
            return Err(invalid("shards", "must be positive"));
        }
        self.diurnal.validate()?;
        if self.cohorts == 0 {
            return Err(invalid("cohorts", "must be positive"));
        }
        if self.min_population == 0 {
            return Err(invalid(
                "min_population",
                "must be positive: draining the store leaves no equilibrium to serve",
            ));
        }
        if self.min_population > self.clients {
            return Err(invalid(
                "min_population",
                "must not exceed the initial population",
            ));
        }
        if !(self.budget_frac.is_finite() && self.budget_frac > 0.0 && self.budget_frac <= 1.0) {
            return Err(invalid("budget_frac", "must lie in (0, 1]"));
        }
        if self.budget_every > 0 {
            // BoundedPareto::new enforces 0 < lo < hi and alpha > 0.
            BoundedPareto::new(
                self.budget_tail_lo,
                self.budget_tail_hi,
                self.budget_tail_alpha,
            )
            .map_err(|e| invalid("budget_tail", &e.to_string()))?;
        }
        if self.surge_every > 0 && (self.surge_size == 0 || self.surge_hold == 0) {
            return Err(invalid(
                "surge_size/surge_hold",
                "must be positive when surges are enabled",
            ));
        }
        if self.reads_per_step > 0 && self.read_batch == 0 {
            return Err(invalid(
                "read_batch",
                "must be positive when reads are enabled",
            ));
        }
        if self.arrivals_per_step == 0
            && self.departures_per_step == 0
            && self.surge_every == 0
            && self.budget_every == 0
        {
            return Err(invalid(
                "arrivals_per_step",
                "the workload has no write traffic at all: enable churn, surges, or budget churn",
            ));
        }
        Ok(())
    }

    /// The heavy-tail budget multiplier distribution (validated).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] if the tail parameters are
    /// not a distribution.
    pub fn budget_tail(&self) -> Result<BoundedPareto, WorkloadError> {
        BoundedPareto::new(
            self.budget_tail_lo,
            self.budget_tail_hi,
            self.budget_tail_alpha,
        )
        .map_err(|e| invalid("budget_tail", &e.to_string()))
    }
}

fn invalid(field: &'static str, reason: &str) -> WorkloadError {
    WorkloadError::InvalidSpec {
        field,
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_spec_is_valid() {
        WorkloadSpec::reference_10k().validate().expect("valid");
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let base = WorkloadSpec::reference_10k();

        let mut s = base.clone();
        s.diurnal.period = 0;
        assert!(matches!(
            s.validate(),
            Err(WorkloadError::InvalidSpec {
                field: "diurnal",
                ..
            })
        ));

        let mut s = base.clone();
        s.min_population = 0;
        assert!(s.validate().is_err(), "all-clients-removed floor");

        let mut s = base.clone();
        s.min_population = s.clients + 1;
        assert!(s.validate().is_err(), "floor above initial population");

        let mut s = base.clone();
        s.budget_tail_lo = 0.0;
        assert!(s.validate().is_err(), "non-distribution budget tail");

        let mut s = base.clone();
        s.budget_tail_hi = s.budget_tail_lo;
        assert!(s.validate().is_err(), "empty tail support");

        let mut s = base.clone();
        s.arrivals_per_step = 0;
        s.departures_per_step = 0;
        s.surge_every = 0;
        s.budget_every = 0;
        assert!(s.validate().is_err(), "no write traffic");

        let mut s = base.clone();
        s.diurnal.trough = 0.0;
        assert!(
            s.validate().is_err(),
            "zero trough would emit rate-0 NaN risks"
        );
    }

    #[test]
    fn disabled_features_skip_their_validation() {
        let mut s = WorkloadSpec::reference_10k();
        s.surge_every = 0;
        s.surge_size = 0;
        s.surge_hold = 0;
        s.budget_every = 0;
        s.budget_tail_lo = f64::NAN; // unused when budget churn is off
        s.validate().expect("disabled knobs are not validated");
    }
}
