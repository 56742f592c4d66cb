//! Replay a generated trace through a live [`PricingService`] — in
//! process or across a transport — timing every read and re-solve into
//! an obs [`Registry`] and (optionally) certifying served prices
//! bit-identical to from-scratch solves.
//!
//! The replay loop is written against the [`CommandDriver`] trait, so
//! the same trace drives the in-process service and a remote front-end
//! speaking the identical command stream. Whether a timed read absorbs a
//! re-solve is predicted client-side from the mirrored population — the
//! prediction replicates the service's own dirty-tracking rules exactly,
//! so the solve/read classification (and with it the warm/cold counts of
//! [`crate::report::WorkloadRecord::deterministic_key`]) is
//! transport-independent by construction.
//!
//! The registry is the run's one store of counts and latency: the loop
//! records command counts, verified steps and per-phase latency spans
//! into it, and [`ReplayOutcome::metrics`] is its snapshot. The per-solve
//! samples keep only what no counter holds.

use crate::error::WorkloadError;
use crate::generator::{fnv1a, Phase, Trace, TraceOp};
use crate::spec::WorkloadSpec;
use fedfl_core::population::{ClientProfile, Population};
use fedfl_core::server::{path_budget, solve_kkt_columns, SolverOptions};
use fedfl_obs::{Metric, MetricsSnapshot, NoopRecorder, Recorder, Registry, Stopwatch};
use fedfl_service::{
    AvailabilityModel, ClientId, ClientParams, Command, PricingService, RepriceReport, Response,
    ServiceConfig, ServiceSnapshot,
};
use std::sync::Arc;
use std::time::Instant;

/// A transport adapter the replay drives: the in-process service, or a
/// remote front-end speaking the same `Command`/`Response` stream.
pub trait CommandDriver {
    /// Execute one command, returning the service's reply.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Service`] for a service rejection and
    /// [`WorkloadError::Transport`] for a transport failure.
    fn execute(&mut self, command: Command) -> Result<Response, WorkloadError>;

    /// The service's exact staleness flag, when the driver can observe it
    /// (the in-process service); `None` for remote transports. Used only
    /// to cross-check the replay's transport-independent prediction.
    fn observed_dirty(&self) -> Option<bool>;

    /// The report of the most recent successful re-solve, if any. Remote
    /// drivers may issue an (untimed) `Snapshot` to obtain it.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if fetching the report itself fails.
    fn solve_report(&mut self) -> Result<Option<RepriceReport>, WorkloadError>;
}

/// The in-process driver: owns the [`PricingService`] and observes its
/// dirty flag and last report directly.
#[derive(Debug)]
pub struct InProcessDriver {
    service: PricingService,
}

impl InProcessDriver {
    /// Create a driver around a fresh service deployed with `config`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Service`] for an invalid config.
    pub fn new(config: ServiceConfig) -> Result<Self, WorkloadError> {
        Ok(Self {
            service: PricingService::new(config)?,
        })
    }

    /// Create a driver whose service records solver and store metrics
    /// into `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Service`] for an invalid config.
    pub fn with_recorder(
        config: ServiceConfig,
        registry: Arc<Registry>,
    ) -> Result<Self, WorkloadError> {
        Ok(Self {
            service: PricingService::with_recorder(config, registry)?,
        })
    }
}

impl CommandDriver for InProcessDriver {
    fn execute(&mut self, command: Command) -> Result<Response, WorkloadError> {
        Ok(self.service.execute(command)?)
    }

    fn observed_dirty(&self) -> Option<bool> {
        Some(self.service.is_dirty())
    }

    fn solve_report(&mut self) -> Result<Option<RepriceReport>, WorkloadError> {
        Ok(self.service.last_report().copied())
    }
}

/// Relative tolerance `verify_every` checkpoints allow served prices
/// under the fast path: one decade of headroom over the per-solve
/// certification band (relative price error ≤ 1e-6 against the exact
/// root of the same population).
const FAST_VERIFY_TOLERANCE: f64 = 1e-5;

/// Warm-start and dirty-shard diagnostics of one triggered re-solve:
/// the per-solve figures no run-level counter holds. Latency, solver
/// mode and index work live in [`ReplayOutcome::metrics`].
#[derive(Debug, Clone, Copy)]
pub struct SolveSample {
    /// Whether the λ-bisection started from a warm hint.
    pub warm: bool,
    /// Bisection midpoints that needed a spend pass.
    pub iterations: usize,
    /// Spend evaluations of the solve: every O(N) pass on the exact
    /// path, Newton steps and window probes included.
    pub evaluations: usize,
    /// Shards whose column caches were rebuilt.
    pub dirty_shards: usize,
    /// Total store shards.
    pub shard_count: usize,
    /// Columns recomputed for this solve.
    pub rebuilt_columns: usize,
    /// Clients registered at solve time.
    pub clients: usize,
}

/// Everything a replay run observed.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Budget at `budget_frac` of the initial population's saturation
    /// path (the base the heavy-tail factors multiply).
    pub base_budget: f64,
    /// Clients registered when the trace ended.
    pub final_clients: usize,
    /// One sample per triggered re-solve, in trace order.
    pub solves: Vec<SolveSample>,
    /// Steps whose served prices were certified bit-identical to a
    /// from-scratch solve.
    pub verified_steps: usize,
    /// FNV-1a over the final snapshot's `(id, price, q_eff)` bits — equal
    /// checksums mean bit-identical served equilibria.
    pub price_checksum: u64,
    /// Total replay wall-clock, in seconds.
    pub total_wall_seconds: f64,
    /// The run's metrics: the loop's command counts, verified steps and
    /// per-phase latency histograms, plus whatever the service recorded
    /// into the same registry. Over TCP this is the wire scrape that ends
    /// the run.
    pub metrics: MetricsSnapshot,
}

/// The histogram a timed quote read issued in `phase` records into: the
/// re-solve span when the read absorbed a re-solve, else the clean-read
/// span. A clean `Snapshot` records into
/// [`Metric::WorkloadSnapshotNs`] instead.
pub(crate) fn latency_metric(phase: Phase, resolve: bool) -> Metric {
    match (resolve, phase) {
        (true, Phase::Steady) => Metric::WorkloadResolveSteadyNs,
        (true, Phase::Flash) => Metric::WorkloadResolveFlashNs,
        (false, Phase::Steady) => Metric::WorkloadReadSteadyNs,
        (false, Phase::Flash) => Metric::WorkloadReadFlashNs,
    }
}

/// Derive the service configuration a trace replays against: shards and
/// threads from the spec, availability-aware pricing, and the budget at
/// `budget_frac` of the seeding batch's always-on saturation path.
///
/// Every transport must deploy *exactly* this config — the bit-identity
/// contract between the in-process and networked replays starts here.
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidSpec`] for an invalid spec or a trace
/// without a seeding `AddClients` batch.
pub fn replay_config(spec: &WorkloadSpec, trace: &Trace) -> Result<ServiceConfig, WorkloadError> {
    spec.validate()?;
    // The base budget comes from the initial batch's always-on saturation
    // path.
    let initial = seeding_batch(trace)?;
    let mut config = ServiceConfig::new(bound(), 0.0);
    config.solver = SolverOptions::with_threads(spec.threads);
    config.availability_aware = true;
    config.shards = spec.shards;
    config.fast_path = spec.fast_path;
    let initial_population = Population::from_raw(
        initial.iter().map(ClientParams::raw_profile).collect(),
    )
    .map_err(|e| WorkloadError::InvalidSpec {
        field: "clients",
        reason: e.to_string(),
    })?;
    // A value-heavy or floored seeding batch can realise a non-positive
    // path spend; the service rejects non-positive budgets, so clamp to
    // an epsilon floored-regime budget (a no-op for realistic batches,
    // bit-preserving whenever the spend is positive).
    config.budget = path_budget(
        &initial_population,
        &bound(),
        &config.solver,
        spec.budget_frac,
    )
    .max(1e-12);
    Ok(config)
}

/// The seeding `AddClients` batch of a trace's setup phase.
fn seeding_batch(trace: &Trace) -> Result<Vec<ClientParams>, WorkloadError> {
    trace
        .setup
        .iter()
        .find_map(|op| match op {
            TraceOp::AddClients(batch) => Some(batch.clone()),
            _ => None,
        })
        .ok_or_else(|| WorkloadError::InvalidSpec {
            field: "trace",
            reason: "setup has no AddClients seeding batch".to_string(),
        })
}

/// Replay `trace` (generated from `spec`) through a fresh in-process
/// service. The service, the solver and the replay loop all record into
/// one fresh registry, whose snapshot the outcome carries.
///
/// # Errors
///
/// Same conditions as [`replay_with`].
pub fn replay(spec: &WorkloadSpec, trace: &Trace) -> Result<ReplayOutcome, WorkloadError> {
    let config = replay_config(spec, trace)?;
    let registry = Arc::new(Registry::new());
    let mut driver = InProcessDriver::with_recorder(config, Arc::clone(&registry))?;
    replay_with(spec, trace, &mut driver, &registry)
}

/// Replay `trace` through an already-connected [`CommandDriver`],
/// recording command counts, verified steps and per-phase latency spans
/// into `registry`. The outcome carries the registry's snapshot at the
/// end of the run.
///
/// The driver's service must be a fresh deployment of
/// [`replay_config`]`(spec, trace)`; the replay re-derives that config to
/// obtain the base budget and the reference-solve parameters for
/// `verify_every` checkpoints.
///
/// # Errors
///
/// Returns [`WorkloadError::Service`]/[`WorkloadError::Transport`] for
/// rejected commands, [`WorkloadError::VerificationFailed`] for a
/// bit-identity divergence or a failed cross-check against the driver
/// (dirty prediction, id mirror, availability pattern count), and
/// [`WorkloadError::MissingSolveReport`] if a read absorbed a re-solve
/// the driver has no report for.
pub fn replay_with<D: CommandDriver>(
    spec: &WorkloadSpec,
    trace: &Trace,
    driver: &mut D,
    registry: &Registry,
) -> Result<ReplayOutcome, WorkloadError> {
    let config = replay_config(spec, trace)?;
    let base_budget = config.budget;
    let started = Instant::now();

    let mut run = ReplayRun {
        driver,
        registry,
        base_budget,
        current_budget: base_budget,
        dirty: true,
        mirror: Vec::new(),
        next_id: 0,
        solves: Vec::new(),
    };
    let mut verified_steps = 0usize;

    for op in &trace.setup {
        run.run_op(op, Phase::Steady, 0)?;
    }
    for step in &trace.steps {
        for op in &step.ops {
            run.run_op(op, step.phase, step.step)?;
        }
        if spec.verify_every > 0 && step.step.is_multiple_of(spec.verify_every) {
            run.verify_step(&config, step.step)?;
            registry.add(Metric::WorkloadVerifiedSteps, 1);
            verified_steps += 1;
        }
    }

    // Final untimed snapshot: the deterministic equilibrium checksum.
    registry.add(Metric::WorkloadCommands, 1);
    let snapshot = match run.driver.execute(Command::Snapshot)? {
        Response::Snapshot(snapshot) => snapshot,
        other => return Err(unexpected_reply("Snapshot", &other)),
    };
    let price_checksum = checksum(&snapshot);

    Ok(ReplayOutcome {
        base_budget,
        final_clients: run.mirror.len(),
        solves: run.solves,
        verified_steps,
        price_checksum,
        total_wall_seconds: started.elapsed().as_secs_f64(),
        metrics: registry.snapshot(),
    })
}

/// Mutable state of one replay pass over a trace.
struct ReplayRun<'a, D: CommandDriver> {
    driver: &'a mut D,
    registry: &'a Registry,
    base_budget: f64,
    /// Mirror of the service's `config.budget` — bitwise, so the
    /// `UpdateBudget` no-op rule (`new == old` leaves the service clean)
    /// is predicted exactly.
    current_budget: f64,
    /// Client-side prediction of the service's dirty flag. Replicates the
    /// service's own rules: churn and effective availability/budget
    /// changes dirty it, successful reads clean it.
    dirty: bool,
    mirror: Vec<(ClientId, ClientParams)>,
    next_id: u64,
    solves: Vec<SolveSample>,
}

impl<D: CommandDriver> ReplayRun<'_, D> {
    fn run_op(&mut self, op: &TraceOp, phase: Phase, step: usize) -> Result<(), WorkloadError> {
        // Every trace op drives exactly one command; verify checkpoints
        // and the final snapshot are tallied at their own call sites.
        self.registry.add(Metric::WorkloadCommands, 1);
        match op {
            TraceOp::AddClients(batch) => {
                let response = self.driver.execute(Command::AddClients(batch.clone()))?;
                let Response::Added(ids) = response else {
                    return Err(unexpected_reply("AddClients", &response));
                };
                if !ids.is_empty() {
                    self.dirty = true;
                }
                for (id, params) in ids.iter().zip(batch) {
                    if id.0 != self.next_id {
                        return Err(WorkloadError::VerificationFailed {
                            step,
                            detail: format!(
                                "the service assigned id {id}, the generator's id mirror expected {}",
                                self.next_id
                            ),
                        });
                    }
                    self.next_id = id.0 + 1;
                    self.mirror.push((*id, *params));
                }
            }
            TraceOp::RemoveClients(ids) => {
                let response = self.driver.execute(Command::RemoveClients(ids.clone()))?;
                let Response::Removed(removed) = response else {
                    return Err(unexpected_reply("RemoveClients", &response));
                };
                if removed > 0 {
                    self.dirty = true;
                }
                let gone: std::collections::HashSet<ClientId> = ids.iter().copied().collect();
                self.mirror.retain(|(id, _)| !gone.contains(id));
            }
            TraceOp::UpdateAvailability(patterns) => {
                // The service dirties itself only if some client's pattern
                // actually changed; predict that from the mirror before
                // updating it.
                let changed = self
                    .mirror
                    .iter()
                    .zip(patterns)
                    .any(|((_, params), pattern)| params.availability != *pattern);
                let model = AvailabilityModel::new(patterns.clone()).map_err(|e| {
                    WorkloadError::InvalidSpec {
                        field: "availability",
                        reason: e.to_string(),
                    }
                })?;
                self.driver.execute(Command::UpdateAvailability(model))?;
                if changed {
                    self.dirty = true;
                }
                if patterns.len() != self.mirror.len() {
                    return Err(WorkloadError::VerificationFailed {
                        step,
                        detail: format!(
                            "availability update carries {} patterns for {} mirrored clients",
                            patterns.len(),
                            self.mirror.len()
                        ),
                    });
                }
                for ((_, params), pattern) in self.mirror.iter_mut().zip(patterns) {
                    params.availability = *pattern;
                }
            }
            TraceOp::UpdateBudgetFactor(factor) => {
                let next = self.base_budget * factor;
                self.driver.execute(Command::UpdateBudget(next))?;
                if next != self.current_budget {
                    self.dirty = true;
                }
                self.current_budget = next;
            }
            TraceOp::GetPrices(ids) => {
                self.timed_read(Command::GetPrices(ids.clone()), phase, step)?;
            }
            TraceOp::Snapshot => {
                self.timed_read(Command::Snapshot, phase, step)?;
            }
        }
        Ok(())
    }

    /// Execute a read under the clock, classifying it as a clean read or
    /// an absorbed re-solve by the client-side dirty prediction. Clean
    /// snapshots get a histogram of their own, so that the read
    /// histograms time quote batches only.
    fn timed_read(
        &mut self,
        command: Command,
        phase: Phase,
        step: usize,
    ) -> Result<(), WorkloadError> {
        let dirty = self.dirty;
        let metric = if !dirty && matches!(command, Command::Snapshot) {
            Metric::WorkloadSnapshotNs
        } else {
            latency_metric(phase, dirty)
        };
        if let Some(observed) = self.driver.observed_dirty() {
            if observed != dirty {
                return Err(WorkloadError::VerificationFailed {
                    step,
                    detail: format!(
                        "dirty prediction {dirty} diverged from the service's flag {observed}"
                    ),
                });
            }
        }
        let watch = Stopwatch::start();
        self.driver.execute(command)?;
        watch.record(self.registry, metric);
        self.dirty = false;
        if dirty {
            let report = self
                .driver
                .solve_report()?
                .ok_or(WorkloadError::MissingSolveReport { step })?;
            self.solves.push(solve_sample(&report));
        }
        Ok(())
    }

    /// Certify the served equilibrium bit-identical to a from-scratch
    /// solve over the mirrored population.
    fn verify_step(&mut self, config: &ServiceConfig, step: usize) -> Result<(), WorkloadError> {
        self.registry.add(Metric::WorkloadCommands, 1);
        let snapshot = match self.driver.execute(Command::Snapshot)? {
            Response::Snapshot(snapshot) => snapshot,
            other => return Err(unexpected_reply("Snapshot", &other)),
        };
        // The (untimed) snapshot cleaned any pending deltas.
        self.dirty = false;
        if snapshot.ids.len() != self.mirror.len() {
            return Err(WorkloadError::VerificationFailed {
                step,
                detail: format!(
                    "population mismatch: service holds {}, mirror holds {}",
                    snapshot.ids.len(),
                    self.mirror.len()
                ),
            });
        }
        // The trace's `UpdateBudgetFactor` ops move the service off its
        // deployment budget; the from-scratch reference must solve under
        // the budget the service is actually serving right now.
        let mut live = *config;
        live.budget = self.current_budget;
        let (ref_prices, ref_q) = reference(&self.mirror, &live)?;
        for (i, (id, _)) in self.mirror.iter().enumerate() {
            if snapshot.ids[i] != *id {
                return Err(WorkloadError::VerificationFailed {
                    step,
                    detail: format!(
                        "insertion order diverged at index {i}: service {}, mirror {}",
                        snapshot.ids[i], id
                    ),
                });
            }
            // The exact solver is bit-reproducible, so bit-identity is the
            // contract when it served the prices. A certified fast solve is
            // only near-exact (its probes run over the series-truncated
            // spend model), so under `fast_path` the checkpoint instead
            // holds the served bits to the certification tolerance.
            let matches = if config.fast_path {
                let close = |served: f64, reference: f64| {
                    (served - reference).abs() <= FAST_VERIFY_TOLERANCE * reference.abs().max(1.0)
                };
                close(snapshot.prices[i], ref_prices[i]) && close(snapshot.q_eff[i], ref_q[i])
            } else {
                snapshot.prices[i].to_bits() == ref_prices[i].to_bits()
                    && snapshot.q_eff[i].to_bits() == ref_q[i].to_bits()
            };
            if !matches {
                return Err(WorkloadError::VerificationFailed {
                    step,
                    detail: format!(
                        "client {id}: served (price {:?}, q {:?}) vs reference ({:?}, {:?})",
                        snapshot.prices[i], snapshot.q_eff[i], ref_prices[i], ref_q[i]
                    ),
                });
            }
        }
        Ok(())
    }
}

fn unexpected_reply(command: &str, response: &Response) -> WorkloadError {
    WorkloadError::Transport {
        detail: format!("unexpected reply to {command}: {response:?}"),
    }
}

fn solve_sample(report: &RepriceReport) -> SolveSample {
    SolveSample {
        warm: report.warm_started,
        iterations: report.bisect_iterations,
        evaluations: report.bisect_evaluations,
        dirty_shards: report.dirty_shards,
        shard_count: report.shard_count,
        rebuilt_columns: report.rebuilt_columns,
        clients: report.clients,
    }
}

/// FNV-1a over the snapshot's structural bits.
fn checksum(snapshot: &ServiceSnapshot) -> u64 {
    let mut bytes = Vec::with_capacity(snapshot.ids.len() * 24);
    for ((id, price), q) in snapshot
        .ids
        .iter()
        .zip(&snapshot.prices)
        .zip(&snapshot.q_eff)
    {
        bytes.extend_from_slice(&id.0.to_le_bytes());
        bytes.extend_from_slice(&price.to_bits().to_le_bytes());
        bytes.extend_from_slice(&q.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// From-scratch cold solve over the mirror population, scattered back to
/// the full client list (excluded clients price at `0.0`).
fn reference(
    mirror: &[(ClientId, ClientParams)],
    config: &ServiceConfig,
) -> Result<(Vec<f64>, Vec<f64>), WorkloadError> {
    let rates: Vec<f64> = mirror
        .iter()
        .map(|(_, p)| {
            if config.availability_aware {
                p.availability.availability_rate()
            } else {
                1.0
            }
        })
        .collect();
    let included: Vec<bool> = mirror
        .iter()
        .zip(&rates)
        .map(|((_, p), &r)| r > 0.0 && p.q_max * r > config.solver.q_min)
        .collect();
    let profiles: Vec<ClientProfile> = mirror
        .iter()
        .zip(&included)
        .filter(|(_, &inc)| inc)
        .map(|((_, p), _)| p.raw_profile())
        .collect();
    let population = Population::from_raw(profiles).map_err(|e| WorkloadError::InvalidSpec {
        field: "reference population",
        reason: e.to_string(),
    })?;
    let cols = population.columns();
    let included_rates: Vec<f64> = rates
        .iter()
        .zip(&included)
        .filter(|(_, &inc)| inc)
        .map(|(&r, _)| r)
        .collect();
    let eff = cols
        .effective(&included_rates)
        .map_err(|e| WorkloadError::InvalidSpec {
            field: "effective columns",
            reason: e.to_string(),
        })?;
    let (solution, _diag) = solve_kkt_columns(
        &eff,
        &config.bound,
        config.budget,
        &config.solver,
        None,
        None,
        &NoopRecorder,
    )
    .map_err(|e| WorkloadError::InvalidSpec {
        field: "reference solve",
        reason: e.to_string(),
    })?;
    let n = mirror.len();
    let mut prices = vec![0.0f64; n];
    let mut q_eff = vec![0.0f64; n];
    let mut j = 0;
    for i in 0..n {
        if included[i] {
            prices[i] = solution.prices[j];
            q_eff[i] = solution.q[j];
            j += 1;
        }
    }
    Ok((prices, q_eff))
}

/// The Theorem-1 bound constants shared by every workload run.
pub fn bound() -> fedfl_core::bound::BoundParams {
    fedfl_core::bound::BoundParams::new(4_000.0, 100.0, 1_000).expect("bound")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::generator::generate;

    /// A 48-client, 6-step trace that still runs every traffic feature.
    pub(crate) fn tiny_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::reference_10k();
        spec.clients = 48;
        spec.steps = 6;
        spec.cohorts = 3;
        spec.arrivals_per_step = 4;
        spec.departures_per_step = 4;
        spec.surge_every = 3;
        spec.surge_size = 12;
        spec.surge_hold = 2;
        spec.budget_every = 2;
        spec.reads_per_step = 2;
        spec.read_batch = 6;
        spec.snapshot_every = 3;
        spec.verify_every = 2;
        spec.min_population = 8;
        spec.shards = 4;
        spec.threads = 1;
        spec
    }

    /// Clean reads the run timed, from its read histograms.
    fn reads(outcome: &ReplayOutcome) -> u64 {
        [Phase::Steady, Phase::Flash]
            .iter()
            .filter_map(|&phase| {
                outcome
                    .metrics
                    .histogram(latency_metric(phase, false).name())
            })
            .map(|hist| hist.count)
            .sum()
    }

    #[test]
    fn tiny_replay_verifies_bit_identity_every_other_step() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        let outcome = replay(&spec, &trace).expect("replay");
        assert_eq!(outcome.verified_steps, 3);
        assert!(outcome.solves.iter().any(|s| s.warm));
        assert!(reads(&outcome) > 0);
        assert!(outcome.final_clients >= spec.min_population);
    }

    #[test]
    fn replay_is_deterministic_across_shard_counts() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        let a = replay(&spec, &trace).expect("replay");
        let mut sharded = spec.clone();
        sharded.shards = 1;
        let b = replay(&sharded, &trace).expect("replay");
        assert_eq!(a.price_checksum, b.price_checksum);
        assert_eq!(a.final_clients, b.final_clients);
        assert_eq!(a.base_budget.to_bits(), b.base_budget.to_bits());
        let iters_a: Vec<usize> = a.solves.iter().map(|s| s.iterations).collect();
        let iters_b: Vec<usize> = b.solves.iter().map(|s| s.iterations).collect();
        assert_eq!(iters_a, iters_b);
    }

    /// An in-process driver that takes the index segment counters' delta
    /// across every command that ran a solve: one
    /// `[rebuilt, repaired, reused]` entry per reprice.
    struct SegmentDeltas {
        inner: InProcessDriver,
        registry: Arc<Registry>,
        per_reprice: Vec<[u64; 3]>,
    }

    impl SegmentDeltas {
        fn counters(&self) -> [u64; 4] {
            [
                Metric::SolverSolves,
                Metric::SolverIndexSegmentsRebuilt,
                Metric::SolverIndexSegmentsRepaired,
                Metric::SolverIndexSegmentsReused,
            ]
            .map(|metric| self.registry.counter(metric))
        }
    }

    impl CommandDriver for SegmentDeltas {
        fn execute(&mut self, command: Command) -> Result<Response, WorkloadError> {
            let before = self.counters();
            let response = self.inner.execute(command)?;
            let after = self.counters();
            if after[0] > before[0] {
                assert_eq!(after[0], before[0] + 1, "one command ran one solve");
                self.per_reprice.push([
                    after[1] - before[1],
                    after[2] - before[2],
                    after[3] - before[3],
                ]);
            }
            Ok(response)
        }

        fn observed_dirty(&self) -> Option<bool> {
            self.inner.observed_dirty()
        }

        fn solve_report(&mut self) -> Result<Option<RepriceReport>, WorkloadError> {
            self.inner.solve_report()
        }
    }

    #[test]
    fn fast_path_replay_verifies_within_tolerance_and_reuses_the_index() {
        let mut spec = tiny_spec();
        spec.fast_path = true;
        let trace = generate(&spec).expect("generate");
        let config = replay_config(&spec, &trace).expect("config");
        let registry = Arc::new(Registry::new());
        let mut driver = SegmentDeltas {
            inner: InProcessDriver::with_recorder(config, Arc::clone(&registry)).expect("driver"),
            registry: Arc::clone(&registry),
            per_reprice: Vec::new(),
        };
        let outcome = replay_with(&spec, &trace, &mut driver, &registry).expect("fast-path replay");
        assert_eq!(outcome.verified_steps, 3);
        // Every solve went through the fast entry point (certified or
        // fallback — never silently the plain exact path).
        let counter = |metric: Metric| outcome.metrics.counter(metric.name());
        assert_eq!(counter(Metric::SolverExactSolves), Some(0));
        // Every step of this trace churns availability, so each solve
        // builds or patches the index (reuse under budget-only churn is
        // pinned at the service level in `fedfl-service`'s sharding
        // tests).
        assert_eq!(counter(Metric::ServiceIndexReuses), Some(0));
        // The first solve builds every segment cold; every later solve is
        // an incremental patch whose per-segment accounting still covers
        // the whole index.
        let reprices = &driver.per_reprice;
        assert_eq!(reprices.len(), outcome.solves.len());
        let [segment_total, repaired, reused] = reprices[0];
        assert!(segment_total > 0, "cold build reported no segments");
        assert_eq!((repaired, reused), (0, 0));
        for [rebuilt, repaired, reused] in &reprices[1..] {
            assert_eq!(
                rebuilt + repaired + reused,
                segment_total,
                "patch accounting does not cover every segment"
            );
        }
        // The trace itself is fast-path independent.
        let exact_trace = generate(&tiny_spec()).expect("generate");
        assert_eq!(trace.fingerprint, exact_trace.fingerprint);
    }

    /// A driver with no observable dirty flag and no solve history —
    /// the shape of a remote front-end that cannot report its last solve.
    struct ReportlessDriver {
        service: PricingService,
    }

    impl CommandDriver for ReportlessDriver {
        fn execute(&mut self, command: Command) -> Result<Response, WorkloadError> {
            Ok(self.service.execute(command)?)
        }

        fn observed_dirty(&self) -> Option<bool> {
            None
        }

        fn solve_report(&mut self) -> Result<Option<RepriceReport>, WorkloadError> {
            Ok(None)
        }
    }

    #[test]
    fn read_without_a_solve_report_is_a_typed_error_not_a_panic() {
        // A hand-built trace that leads with a read: the first timed read
        // absorbs the initial solve, and a driver without solve history
        // must surface MissingSolveReport instead of panicking.
        let spec = tiny_spec();
        let generated = generate(&spec).expect("generate");
        let seed_batch = seeding_batch(&generated).expect("seed batch");
        let first_id = ClientId(0);
        let trace = Trace {
            setup: vec![
                TraceOp::AddClients(seed_batch),
                TraceOp::GetPrices(vec![first_id]),
            ],
            steps: Vec::new(),
            fingerprint: 0,
        };
        let config = replay_config(&spec, &trace).expect("config");
        let service = PricingService::new(config).expect("service");
        let mut driver = ReportlessDriver { service };
        let err = replay_with(&spec, &trace, &mut driver, &Registry::new()).unwrap_err();
        assert_eq!(err, WorkloadError::MissingSolveReport { step: 0 });
    }

    /// An in-process driver that reports the opposite of the service's
    /// dirty flag.
    struct LyingDriver(InProcessDriver);

    impl CommandDriver for LyingDriver {
        fn execute(&mut self, command: Command) -> Result<Response, WorkloadError> {
            self.0.execute(command)
        }

        fn observed_dirty(&self) -> Option<bool> {
            self.0.observed_dirty().map(|dirty| !dirty)
        }

        fn solve_report(&mut self) -> Result<Option<RepriceReport>, WorkloadError> {
            self.0.solve_report()
        }
    }

    #[test]
    fn a_diverging_dirty_prediction_is_a_verification_error_not_a_panic() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        let config = replay_config(&spec, &trace).expect("config");
        let mut driver = LyingDriver(InProcessDriver::new(config).expect("driver"));
        match replay_with(&spec, &trace, &mut driver, &Registry::new()) {
            Err(WorkloadError::VerificationFailed { detail, .. }) => {
                assert!(detail.contains("dirty prediction"), "{detail}");
            }
            other => panic!("expected a verification error, got {other:?}"),
        }
    }

    #[test]
    fn driver_generalisation_preserves_the_in_process_outcome() {
        // replay() is replay_with() over an instrumented InProcessDriver;
        // pin that the classification prediction matches the service's
        // real dirty flag (timed_read returns VerificationFailed
        // otherwise) and that an uninstrumented driver serves the same
        // bits with the same classification.
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        let via_replay = replay(&spec, &trace).expect("replay");
        let config = replay_config(&spec, &trace).expect("config");
        let mut driver = InProcessDriver::new(config).expect("driver");
        let via_driver =
            replay_with(&spec, &trace, &mut driver, &Registry::new()).expect("replay_with");
        assert_eq!(via_replay.price_checksum, via_driver.price_checksum);
        assert_eq!(via_replay.final_clients, via_driver.final_clients);
        assert_eq!(via_replay.solves.len(), via_driver.solves.len());
        assert_eq!(reads(&via_replay), reads(&via_driver));
        let warm_a: Vec<bool> = via_replay.solves.iter().map(|s| s.warm).collect();
        let warm_b: Vec<bool> = via_driver.solves.iter().map(|s| s.warm).collect();
        assert_eq!(warm_a, warm_b);
        // Only the instrumented run's service recorded its solves.
        let solves = |outcome: &ReplayOutcome| outcome.metrics.counter("fedfl_solver_solves_total");
        assert_eq!(solves(&via_replay), Some(via_replay.solves.len() as u64));
        assert_eq!(solves(&via_driver), Some(0));
    }
}
