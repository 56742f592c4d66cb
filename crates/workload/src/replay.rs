//! Replay a generated trace through a live [`PricingService`] — in
//! process or across a transport — timing every read and re-solve and
//! (optionally) certifying served prices bit-identical to from-scratch
//! solves.
//!
//! The replay loop is written against the [`CommandDriver`] trait, so
//! the same trace drives the in-process service and a remote front-end
//! speaking the identical command stream. Whether a timed read absorbs a
//! re-solve is predicted client-side from the mirrored population — the
//! prediction replicates the service's own dirty-tracking rules exactly,
//! so the solve/read classification (and with it the warm/cold counts of
//! [`crate::report::WorkloadRecord::deterministic_key`]) is
//! transport-independent by construction.

use crate::error::WorkloadError;
use crate::generator::{fnv1a, Phase, Trace, TraceOp};
use crate::spec::WorkloadSpec;
use fedfl_core::population::{ClientProfile, Population};
use fedfl_core::server::{path_budget, solve_kkt_columns, SolverMode, SolverOptions};
use fedfl_obs::{
    Histogram, HistogramSnapshot, Metric, NoopRecorder, Recorder, Registry, Stopwatch,
};
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

    /// The service this driver wraps.
    pub fn service(&self) -> &PricingService {
        &self.service
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

/// Timing and warm-start diagnostics of one triggered re-solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveSample {
    /// Traffic regime of the step that triggered the solve.
    pub phase: Phase,
    /// Wall-clock of the command that absorbed the solve, in ms.
    pub millis: f64,
    /// Whether the λ-bisection started from a warm hint.
    pub warm: bool,
    /// Midpoint iterations the bisection ran.
    pub iterations: usize,
    /// Shards whose column caches were rebuilt.
    pub dirty_shards: usize,
    /// Total store shards.
    pub shard_count: usize,
    /// Columns recomputed for this solve.
    pub rebuilt_columns: usize,
    /// Clients registered at solve time.
    pub clients: usize,
    /// Which solver path produced the prices (exact, certified fast, or
    /// certification fallback).
    pub mode: SolverMode,
    /// Probe-phase work in per-client spend-evaluation units.
    pub probe_evaluations: u64,
    /// Nanoseconds building or patching the threshold index (0 on reuse
    /// or exact).
    pub index_rebuild_ns: u64,
    /// Index segments re-sorted for this solve (every segment on a cold
    /// build, only dirty ones on an incremental patch).
    pub index_segments_rebuilt: u64,
    /// Clean segments a patch re-sorted because scale drift reordered
    /// their thresholds.
    pub index_segments_repaired: u64,
    /// Segments a patch reused verbatim.
    pub index_segments_reused: u64,
}

/// Timing of one clean (already-priced) read.
#[derive(Debug, Clone, Copy)]
pub struct ReadSample {
    /// Traffic regime of the step issuing the read.
    pub phase: Phase,
    /// Wall-clock of the read, in ms.
    pub millis: f64,
}

/// Nanosecond latency histograms of one replay, one per
/// (operation, traffic phase) pair. These are the authoritative source
/// of the p50/p99 figures in [`crate::report::PhaseStats`]; the sample
/// vectors on [`ReplayOutcome`] remain for means and confidence
/// intervals.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistograms {
    /// Re-solves absorbed by reads issued in the steady phase.
    pub resolve_steady: HistogramSnapshot,
    /// Re-solves absorbed by reads issued during flash crowds.
    pub resolve_flash: HistogramSnapshot,
    /// Clean reads in the steady phase.
    pub read_steady: HistogramSnapshot,
    /// Clean reads during flash crowds.
    pub read_flash: HistogramSnapshot,
}

impl LatencyHistograms {
    /// The re-solve histogram of `phase`.
    pub fn resolve(&self, phase: Phase) -> &HistogramSnapshot {
        match phase {
            Phase::Steady => &self.resolve_steady,
            Phase::Flash => &self.resolve_flash,
        }
    }

    /// The clean-read histogram of `phase`.
    pub fn read(&self, phase: Phase) -> &HistogramSnapshot {
        match phase {
            Phase::Steady => &self.read_steady,
            Phase::Flash => &self.read_flash,
        }
    }
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
    /// One sample per clean read, in trace order.
    pub reads: Vec<ReadSample>,
    /// Per-phase latency histograms (nanoseconds) fed by the same clock
    /// reads as `solves`/`reads` — the report's p50/p99 source.
    pub latency: LatencyHistograms,
    /// Steps whose served prices were certified bit-identical to a
    /// from-scratch solve.
    pub verified_steps: usize,
    /// FNV-1a over the final snapshot's `(id, price, q_eff)` bits — equal
    /// checksums mean bit-identical served equilibria.
    pub price_checksum: u64,
    /// Total replay wall-clock, in seconds.
    pub total_wall_seconds: f64,
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
/// service.
///
/// # Errors
///
/// Returns [`WorkloadError::Service`] if the service rejects a command
/// and [`WorkloadError::VerificationFailed`] if a `verify_every`
/// checkpoint finds served prices diverging from a from-scratch solve.
pub fn replay(spec: &WorkloadSpec, trace: &Trace) -> Result<ReplayOutcome, WorkloadError> {
    let config = replay_config(spec, trace)?;
    let mut driver = InProcessDriver::new(config)?;
    replay_with(spec, trace, &mut driver)
}

/// [`replay`], with every layer recording into `registry`: the service
/// and solver record through the driver's recorder, and the replay loop
/// itself records command counts, verified steps and per-phase latency
/// spans.
///
/// Prices are bit-identical to an unobserved [`replay`] of the same
/// trace — recording never touches solver arithmetic.
///
/// # Errors
///
/// Same conditions as [`replay`].
pub fn replay_observed(
    spec: &WorkloadSpec,
    trace: &Trace,
    registry: Arc<Registry>,
) -> Result<ReplayOutcome, WorkloadError> {
    let config = replay_config(spec, trace)?;
    let mut driver = InProcessDriver::with_recorder(config, Arc::clone(&registry))?;
    replay_with_recorder(spec, trace, &mut driver, &*registry)
}

/// Replay `trace` through an already-connected [`CommandDriver`].
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
/// bit-identity divergence, and [`WorkloadError::MissingSolveReport`] if
/// a read absorbed a re-solve the driver has no report for.
pub fn replay_with<D: CommandDriver>(
    spec: &WorkloadSpec,
    trace: &Trace,
    driver: &mut D,
) -> Result<ReplayOutcome, WorkloadError> {
    replay_with_recorder(spec, trace, driver, &NoopRecorder)
}

/// [`replay_with`], recording replay-loop metrics (command counts,
/// verified steps, per-phase latency spans) into `recorder`.
///
/// # Errors
///
/// Same conditions as [`replay_with`].
pub fn replay_with_recorder<D: CommandDriver, R: Recorder + ?Sized>(
    spec: &WorkloadSpec,
    trace: &Trace,
    driver: &mut D,
    recorder: &R,
) -> Result<ReplayOutcome, WorkloadError> {
    let config = replay_config(spec, trace)?;
    let base_budget = config.budget;
    let started = Instant::now();

    let mut run = ReplayRun {
        driver,
        recorder,
        base_budget,
        current_budget: base_budget,
        dirty: true,
        mirror: Vec::new(),
        next_id: 0,
        solves: Vec::new(),
        reads: Vec::new(),
        latency: PhasedHistograms::default(),
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
            recorder.add(Metric::WorkloadVerifiedSteps, 1);
            verified_steps += 1;
        }
    }

    // Final untimed snapshot: the deterministic equilibrium checksum.
    recorder.add(Metric::WorkloadCommands, 1);
    let snapshot = match run.driver.execute(Command::Snapshot)? {
        Response::Snapshot(snapshot) => snapshot,
        other => return Err(unexpected_reply("Snapshot", &other)),
    };
    let price_checksum = checksum(&snapshot);

    Ok(ReplayOutcome {
        base_budget,
        final_clients: run.mirror.len(),
        solves: run.solves,
        reads: run.reads,
        latency: run.latency.snapshot(),
        verified_steps,
        price_checksum,
        total_wall_seconds: started.elapsed().as_secs_f64(),
    })
}

/// The live (unsnapshotted) counterpart of [`LatencyHistograms`].
#[derive(Default)]
struct PhasedHistograms {
    resolve_steady: Histogram,
    resolve_flash: Histogram,
    read_steady: Histogram,
    read_flash: Histogram,
}

impl PhasedHistograms {
    fn snapshot(&self) -> LatencyHistograms {
        LatencyHistograms {
            resolve_steady: self.resolve_steady.snapshot(),
            resolve_flash: self.resolve_flash.snapshot(),
            read_steady: self.read_steady.snapshot(),
            read_flash: self.read_flash.snapshot(),
        }
    }
}

/// Mutable state of one replay pass over a trace.
struct ReplayRun<'a, D: CommandDriver, R: Recorder + ?Sized> {
    driver: &'a mut D,
    recorder: &'a R,
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
    reads: Vec<ReadSample>,
    latency: PhasedHistograms,
}

impl<D: CommandDriver, R: Recorder + ?Sized> ReplayRun<'_, D, R> {
    fn run_op(&mut self, op: &TraceOp, phase: Phase, step: usize) -> Result<(), WorkloadError> {
        // Every trace op drives exactly one command; verify checkpoints
        // and the final snapshot are tallied at their own call sites.
        self.recorder.add(Metric::WorkloadCommands, 1);
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
                    debug_assert_eq!(id.0, self.next_id, "generator id mirror out of sync");
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
                debug_assert_eq!(patterns.len(), self.mirror.len());
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
    /// an absorbed re-solve by the client-side dirty prediction.
    fn timed_read(
        &mut self,
        command: Command,
        phase: Phase,
        step: usize,
    ) -> Result<(), WorkloadError> {
        let dirty = self.dirty;
        if let Some(observed) = self.driver.observed_dirty() {
            debug_assert_eq!(
                observed, dirty,
                "step {step}: dirty prediction diverged from the service"
            );
        }
        let watch = Stopwatch::start();
        self.driver.execute(command)?;
        let nanos = watch.elapsed_ns();
        let millis = nanos as f64 / 1e6;
        self.dirty = false;
        if dirty {
            let metric = match phase {
                Phase::Steady => Metric::WorkloadResolveSteadyNs,
                Phase::Flash => Metric::WorkloadResolveFlashNs,
            };
            self.recorder.observe(metric, nanos);
            match phase {
                Phase::Steady => self.latency.resolve_steady.record(nanos),
                Phase::Flash => self.latency.resolve_flash.record(nanos),
            }
            let report = self
                .driver
                .solve_report()?
                .ok_or(WorkloadError::MissingSolveReport { step })?;
            self.solves.push(solve_sample(&report, phase, millis));
        } else {
            let metric = match phase {
                Phase::Steady => Metric::WorkloadReadSteadyNs,
                Phase::Flash => Metric::WorkloadReadFlashNs,
            };
            self.recorder.observe(metric, nanos);
            match phase {
                Phase::Steady => self.latency.read_steady.record(nanos),
                Phase::Flash => self.latency.read_flash.record(nanos),
            }
            self.reads.push(ReadSample { phase, millis });
        }
        Ok(())
    }

    /// Certify the served equilibrium bit-identical to a from-scratch
    /// solve over the mirrored population.
    fn verify_step(&mut self, config: &ServiceConfig, step: usize) -> Result<(), WorkloadError> {
        self.recorder.add(Metric::WorkloadCommands, 1);
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

fn solve_sample(report: &RepriceReport, phase: Phase, millis: f64) -> SolveSample {
    SolveSample {
        phase,
        millis,
        warm: report.warm_started,
        iterations: report.bisect_iterations,
        dirty_shards: report.dirty_shards,
        shard_count: report.shard_count,
        rebuilt_columns: report.rebuilt_columns,
        clients: report.clients,
        mode: report.solver_mode,
        probe_evaluations: report.probe_evaluations,
        index_rebuild_ns: report.index_rebuild_ns,
        index_segments_rebuilt: report.index_segments_rebuilt,
        index_segments_repaired: report.index_segments_repaired,
        index_segments_reused: report.index_segments_reused,
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
mod tests {
    use super::*;
    use crate::generator::generate;

    fn tiny_spec() -> WorkloadSpec {
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

    #[test]
    fn tiny_replay_verifies_bit_identity_every_other_step() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        let outcome = replay(&spec, &trace).expect("replay");
        assert_eq!(outcome.verified_steps, 3);
        assert!(outcome.solves.iter().any(|s| s.warm));
        assert!(!outcome.reads.is_empty());
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

    #[test]
    fn fast_path_replay_verifies_within_tolerance_and_reuses_the_index() {
        let mut spec = tiny_spec();
        spec.fast_path = true;
        let trace = generate(&spec).expect("generate");
        let outcome = replay(&spec, &trace).expect("fast-path replay");
        assert_eq!(outcome.verified_steps, 3);
        // Every solve went through the fast entry point (certified or
        // fallback — never silently the plain exact path).
        assert!(outcome.solves.iter().all(|s| s.mode != SolverMode::Exact));
        // Every step of this trace churns availability, so each solve
        // builds or patches the index (reuse under budget-only churn is
        // pinned at the service level in `fedfl-service`'s sharding
        // tests).
        assert!(outcome.solves.iter().all(|s| s.index_rebuild_ns > 0));
        // The first solve builds every segment cold; every later solve is
        // an incremental patch whose per-segment accounting still covers
        // the whole index.
        let segment_total = outcome.solves[0].index_segments_rebuilt;
        assert!(segment_total > 0, "cold build reported no segments");
        assert_eq!(outcome.solves[0].index_segments_reused, 0);
        for solve in &outcome.solves[1..] {
            assert_eq!(
                solve.index_segments_rebuilt
                    + solve.index_segments_repaired
                    + solve.index_segments_reused,
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
        let err = replay_with(&spec, &trace, &mut driver).unwrap_err();
        assert_eq!(err, WorkloadError::MissingSolveReport { step: 0 });
    }

    #[test]
    fn driver_generalisation_preserves_the_in_process_outcome() {
        // replay() is replay_with() over InProcessDriver; pin that the
        // classification prediction matches the service's real dirty flag
        // (the debug_assert in timed_read fires otherwise) and that both
        // entry points agree bit-for-bit.
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        let via_replay = replay(&spec, &trace).expect("replay");
        let config = replay_config(&spec, &trace).expect("config");
        let mut driver = InProcessDriver::new(config).expect("driver");
        let via_driver = replay_with(&spec, &trace, &mut driver).expect("replay_with");
        assert_eq!(via_replay.price_checksum, via_driver.price_checksum);
        assert_eq!(via_replay.final_clients, via_driver.final_clients);
        assert_eq!(via_replay.solves.len(), via_driver.solves.len());
        assert_eq!(via_replay.reads.len(), via_driver.reads.len());
        let warm_a: Vec<bool> = via_replay.solves.iter().map(|s| s.warm).collect();
        let warm_b: Vec<bool> = via_driver.solves.iter().map(|s| s.warm).collect();
        assert_eq!(warm_a, warm_b);
    }
}
