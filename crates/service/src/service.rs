//! The pricing service: command processing and the incremental re-solve.

use crate::error::ServiceError;
use crate::store::ClientStore;
use crate::{AvailabilityModel, ClientId, ClientParams};
use fedfl_core::active_set::ActiveSetIndex;
use fedfl_core::bound::BoundParams;
use fedfl_core::server::{solve_kkt_columns, theorem2_max_residual, SolverMode, SolverOptions};
use fedfl_obs::{Metric, MetricsReport, NoopRecorder, Recorder, Registry, Stopwatch};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Clients the Theorem 2 check samples per re-solve.
const RESIDUAL_SAMPLE: usize = 1024;

/// Seed of the deterministic Theorem 2 residual sampler.
const RESIDUAL_SEED: u64 = 0x5EED;

/// Static configuration of a [`PricingService`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// The Theorem 1 bound constants `(α, β, R)` the mechanism prices
    /// against.
    pub bound: BoundParams,
    /// The server's per-deployment budget `B`.
    pub budget: f64,
    /// Stage-I solver options (floor, tolerance, worker threads).
    pub solver: SolverOptions,
    /// Price against effective participation `q_eff = q · rate`. When
    /// `false` (the default), availability patterns are ignored and the
    /// service reproduces the paper's always-on pricing bit-for-bit.
    pub availability_aware: bool,
    /// Reporting only: the shard count [`RepriceReport::dirty_shards`]
    /// counts the stamped route blocks in (block `b` as shard
    /// `b % shards`). It changes no execution — the store keeps one column
    /// set in 32-id route blocks whatever the value, and prices are
    /// bit-identical for any shard count. It stays while the benchmark
    /// still reads the per-solve dirty fraction it denominates. Must be at
    /// least 1.
    pub shards: usize,
    /// Maximum sampled Theorem 2 residual accepted after a re-solve.
    pub residual_tolerance: f64,
    /// Route re-solves through the threshold-indexed active-set fast path
    /// (`SolverMode::ThresholdIndex`): λ-probes drop from O(N) to
    /// O(log N) against an index the service maintains across solves —
    /// reused verbatim for budget/bound-only updates, patched on churn.
    /// Opt-in because certified fast prices are *near* the exact solver's
    /// (within the certification band), not bit-identical to them; every
    /// fast solve is certified — its materialised spend and one exact
    /// probe bracket the budget — plus the Theorem-2 residual, and falls
    /// back to the exact solver on violation. Both paths get the rescaled
    /// previous `t*` as their hint: the fast path's model bisection takes
    /// Newton steps from it on the index's spend slope, while the exact
    /// path (and a fallback) first moves it with an O(N) estimate that
    /// only pays off against O(N) probes. Only a fast-path service's store
    /// keeps the index's `w²G²` column. `false` (the default) preserves
    /// the exact solver's bit-for-bit contract.
    pub fast_path: bool,
}

impl ServiceConfig {
    /// A configuration with the default solver, always-on pricing, 8
    /// reporting shards, and a `1e-6` Theorem 2 tolerance sampled at 1024
    /// clients per re-solve.
    pub fn new(bound: BoundParams, budget: f64) -> Self {
        Self {
            bound,
            budget,
            solver: SolverOptions::default(),
            availability_aware: false,
            shards: 8,
            residual_tolerance: 1e-6,
            fast_path: false,
        }
    }

    /// Validate a budget value: the mechanism prices against a finite,
    /// strictly positive `B` (a zero budget admits no equilibrium and a
    /// NaN would poison the λ-bisection). Shared by construction-time
    /// validation and the `UpdateBudget` command path so a wire peer
    /// cannot smuggle in a value `validate` would have rejected.
    fn validate_budget(budget: f64) -> Result<(), ServiceError> {
        if !(budget.is_finite() && budget > 0.0) {
            return Err(ServiceError::InvalidConfig {
                field: "budget",
                reason: format!("must be finite and positive, got {budget}"),
            });
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), ServiceError> {
        Self::validate_budget(self.budget)?;
        if self.shards == 0 {
            return Err(ServiceError::InvalidConfig {
                field: "shards",
                reason: "need at least one shard".into(),
            });
        }
        if !(self.residual_tolerance.is_finite() && self.residual_tolerance > 0.0) {
            return Err(ServiceError::InvalidConfig {
                field: "residual_tolerance",
                reason: format!(
                    "must be finite and positive, got {}",
                    self.residual_tolerance
                ),
            });
        }
        Ok(())
    }
}

/// One request to the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Register new clients; replies with their assigned ids.
    AddClients(Vec<ClientParams>),
    /// Deregister clients by id (atomic: an unknown id rejects the batch).
    RemoveClients(Vec<ClientId>),
    /// Replace every client's availability pattern; the model is aligned
    /// to client-insertion order and must match the population size.
    UpdateAvailability(AvailabilityModel),
    /// Replace the deployment budget `B`. No route block is stamped — the
    /// columns are budget-independent, so the next refresh touches none —
    /// but the equilibrium re-solves (warm-started from the previous `t*`,
    /// which the exact solver moves to the new budget with its spend model
    /// and Newton steps) at the next read or `Reprice`.
    UpdateBudget(f64),
    /// Replace the Theorem 1 bound constants `(α, β, R)`. Like
    /// `UpdateBudget`, this stamps no route block; the warm-start hint is
    /// rescaled by the `α/R` ratio before the solver refines it.
    UpdateBound(BoundParams),
    /// Re-solve the equilibrium now (deltas otherwise re-solve lazily at
    /// the next read).
    Reprice,
    /// Batched price read for the given ids.
    GetPrices(Vec<ClientId>),
    /// Full view of the current equilibrium.
    Snapshot,
    /// Scrape the observability registry: a typed metrics snapshot plus
    /// its Prometheus-style text exposition. Read-only — dirties nothing,
    /// solves nothing, and (unlike every other command) is excluded from
    /// the command counters so scraping does not perturb what it measures.
    Metrics,
}

/// The service's reply to one [`Command`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Ids assigned to an `AddClients` batch, in submission order.
    Added(Vec<ClientId>),
    /// Number of clients removed.
    Removed(usize),
    /// The availability model was replaced.
    AvailabilityUpdated,
    /// The budget was replaced.
    BudgetUpdated,
    /// The bound constants were replaced.
    BoundUpdated,
    /// Result of an explicit `Reprice`.
    Repriced(RepriceReport),
    /// Quotes for a `GetPrices` batch, in request order.
    Prices(Vec<PriceQuote>),
    /// Result of a `Snapshot`.
    Snapshot(ServiceSnapshot),
    /// Result of a `Metrics` scrape (zeroed snapshot when no recorder is
    /// installed).
    Metrics(MetricsReport),
}

/// One client's current quote.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriceQuote {
    /// The client.
    pub id: ClientId,
    /// Equilibrium price per unit of (effective) participation. Excluded
    /// clients — unreachable under the current availability model — are
    /// quoted `0.0`.
    pub price: f64,
    /// The effective participation level `q_eff` the price implements
    /// (`0.0` for excluded clients).
    pub q_eff: f64,
}

/// Diagnostics of one re-solve — the observable half of the warm-start
/// contract.
///
/// Run totals of the same work (solves per mode, probe evaluations,
/// dirty shards, rebuilt columns, index builds, patches and segments)
/// live in the obs counters; the report keeps the per-solve figures its
/// readers need one solve at a time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepriceReport {
    /// Clients registered at solve time.
    pub clients: usize,
    /// Clients excluded as effectively unreachable (rate `0`, or an
    /// effective cap below the solver floor).
    pub excluded: usize,
    /// KKT multiplier `λ*` (`None` for saturated or floored populations).
    pub lambda: Option<f64>,
    /// Realised total payment `Σ P q_eff`.
    pub spent: f64,
    /// Whether every priceable client saturated at its cap with budget to
    /// spare.
    pub saturated: bool,
    /// Maximum sampled Theorem 2 residual (`None` when no interior λ*).
    pub theorem2_residual: Option<f64>,
    /// Whether a warm-start hint from a previous solve was available.
    pub warm_started: bool,
    /// λ-bisection levels an evaluated point decided without a spend pass
    /// (0 = cold).
    pub warm_start_depth: usize,
    /// λ-bisection midpoints that needed a spend pass.
    pub bisect_iterations: usize,
    /// Spend evaluations of the solve: on the exact path every O(N)
    /// pass, Newton steps and window probes included (see
    /// [`fedfl_core::server::KktDiagnostics::bisect_evaluations`]).
    pub bisect_evaluations: usize,
    /// [`ServiceConfig::shards`], the denominator of a per-solve dirty
    /// fraction.
    pub shard_count: usize,
    /// Distinct shards `b % shard_count` over the route blocks `b` the
    /// deltas since the previous solve stamped (0 for a budget- or
    /// bound-only step). Kept per solve: the benchmark's tests and the
    /// workload summary's max dirty fraction read it one solve at a time.
    pub dirty_shards: usize,
    /// Registered clients in the stamped route blocks, whose column rows
    /// this solve's refresh re-derived from their records (clean blocks'
    /// rows only move). Kept per solve: the workload summary's
    /// rebuilt-column fraction divides it by that solve's `clients`.
    pub rebuilt_columns: usize,
    /// Which solver path produced the prices: `Exact` when
    /// [`ServiceConfig::fast_path`] is off, `ThresholdIndex` for a
    /// certified fast solve, `ThresholdIndexFallback` when certification
    /// demoted the solve to the exact path.
    pub solver_mode: SolverMode,
    /// Probe-phase work in per-client spend-evaluation units (see
    /// [`fedfl_core::server::KktDiagnostics::probe_evaluations`]).
    pub probe_evaluations: u64,
    /// Nanoseconds spent rebuilding or incrementally patching the
    /// threshold index for this solve (0 when the cached index was reused
    /// — the budget/bound-only churn case — or when the fast path is
    /// off). The same measurement feeds the index build/patch
    /// histograms; the field stays because the benchmark's tests tell a
    /// reused index from a rebuilt one per solve by it. It is wall-clock,
    /// so wire-trace verification ignores it.
    pub index_rebuild_ns: u64,
}

/// Full view of the current equilibrium.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Client ids in insertion order, which is strictly ascending:
    /// insertion order is id order; ids are never reused. Readers may
    /// binary-search it.
    pub ids: Vec<ClientId>,
    /// Per-client prices (aligned with `ids`; excluded clients are `0.0`).
    pub prices: Vec<f64>,
    /// Per-client effective participation levels (aligned with `ids`).
    pub q_eff: Vec<f64>,
    /// The budget the equilibrium was solved for.
    pub budget: f64,
    /// The report of the solve that produced this snapshot.
    pub report: RepriceReport,
}

/// Cached result of the last successful re-solve, scattered back to the
/// full client list.
#[derive(Debug, Clone)]
struct PricedState {
    prices: Vec<f64>,
    q_eff: Vec<f64>,
    report: RepriceReport,
}

/// Warm-start state carried between solves: the path parameter
/// `t* = 1/λ*`, plus the total raw weight and `α/R` it was solved at.
///
/// A churn delta rescales every normalised weight by `W_old / W_new`,
/// shifting the KKT path roughly like `t ↦ t · (W_new / W_old)²`; a bound
/// update scales it like `t ↦ t · (α/R)_old / (α/R)_new` (the path levels
/// depend on the product `(α/R)·t`). The rescaled value is handed to the
/// solver as a *hint*; the solver confirms a bracket around it before
/// trusting it.
#[derive(Debug, Clone, Copy)]
struct WarmHint {
    t_star: f64,
    total_weight: f64,
    aor: f64,
}

/// The fast path's cached threshold index plus the store version it was
/// built at. The index is a pure function of the store's columns and the
/// solver parameters `(α/R, q_min)` it records; the columns are a pure
/// function of the store contents (its mutation `version`), since the
/// availability flag is fixed at construction. A matching version and
/// `α/R` therefore prove the cached index still describes the current
/// population — budget and bound-`β` updates reuse it with zero rebuild
/// work. When only the version moved, the store's
/// per-segment stamps say *which* index segments churned since, and the
/// index is patched: only those re-sort, everything else is reused.
#[derive(Debug, Clone)]
struct FastIndexState {
    index: ActiveSetIndex,
    store_version: u64,
}

/// A long-running pricing service owning a churning client population.
///
/// See the crate docs for the full contract. Mutating commands stamp only
/// the 32-id route blocks they touch: an add is `O(batch)`, a removal
/// `O(batch + N/32)` (a route-block directory update plus one memmove of
/// the id list), and an availability update one `O(N)` pass. Reads
/// resolve ids in `O(1)` through the same directory. A re-solve first
/// refreshes the store's persistent solver columns — moving clean blocks'
/// rows and re-deriving the stamped blocks' rows from the first stamped
/// block on, nothing at all after a budget- or bound-only update — then
/// runs the λ-bisection over them in place, warm-started from the
/// previous solve.
#[derive(Debug, Clone)]
pub struct PricingService {
    config: ServiceConfig,
    store: ClientStore,
    state: Option<PricedState>,
    dirty: bool,
    warm_hint: Option<WarmHint>,
    fast_index: Option<FastIndexState>,
    /// Shared observability registry. `None` (the default) routes every
    /// instrument call through [`NoopRecorder`] — zero hot-path cost.
    recorder: Option<Arc<Registry>>,
}

impl PricingService {
    /// Create an empty service.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidConfig`] for a non-finite or
    /// non-positive budget, or an invalid tolerance.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        Ok(Self {
            store: ClientStore::new(
                config.availability_aware,
                config.solver.q_min,
                config.fast_path,
            ),
            config,
            state: None,
            dirty: true,
            warm_hint: None,
            fast_index: None,
            recorder: None,
        })
    }

    /// Create an empty service recording into `recorder`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PricingService::new`].
    pub fn with_recorder(
        config: ServiceConfig,
        recorder: Arc<Registry>,
    ) -> Result<Self, ServiceError> {
        let mut service = Self::new(config)?;
        service.set_recorder(recorder);
        Ok(service)
    }

    /// Install (or replace) the observability registry. Metrics recorded
    /// so far stay in the old registry; counting continues in the new one.
    pub fn set_recorder(&mut self, recorder: Arc<Registry>) {
        recorder.gauge_set(Metric::ServiceClients, self.store.len() as u64);
        self.recorder = Some(recorder);
    }

    /// The installed observability registry, if any.
    pub fn recorder(&self) -> Option<&Arc<Registry>> {
        self.recorder.as_ref()
    }

    /// The current metrics report (zeroed when no recorder is installed).
    pub fn metrics_report(&self) -> MetricsReport {
        self.recorder
            .as_ref()
            .map_or_else(|| Registry::new().report(), |registry| registry.report())
    }

    /// Create a service pre-populated with `clients`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for an invalid config or client batch.
    pub fn with_clients(
        config: ServiceConfig,
        clients: Vec<ClientParams>,
    ) -> Result<(Self, Vec<ClientId>), ServiceError> {
        let mut service = Self::new(config)?;
        let ids = service.add_clients(clients)?;
        Ok((service, ids))
    }

    /// The static configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no clients are registered.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Whether deltas have accumulated since the last solve.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Process one command.
    ///
    /// # Errors
    ///
    /// Propagates the underlying typed method's error; failed commands
    /// leave the service state unchanged.
    pub fn execute(&mut self, command: Command) -> Result<Response, ServiceError> {
        if matches!(command, Command::Metrics) {
            return Ok(Response::Metrics(self.metrics_report()));
        }
        let recorder = self.recorder.clone();
        if let Some(registry) = &recorder {
            registry.add(Metric::ServiceCommands, 1);
        }
        let result = match command {
            Command::AddClients(batch) => self.add_clients(batch).map(Response::Added),
            Command::RemoveClients(ids) => self.remove_clients(&ids).map(Response::Removed),
            Command::UpdateAvailability(model) => self
                .update_availability(&model)
                .map(|()| Response::AvailabilityUpdated),
            Command::UpdateBudget(budget) => {
                self.update_budget(budget).map(|()| Response::BudgetUpdated)
            }
            Command::UpdateBound(bound) => {
                self.update_bound(bound).map(|()| Response::BoundUpdated)
            }
            Command::Reprice => self.reprice().map(Response::Repriced),
            Command::GetPrices(ids) => self.get_prices(&ids).map(Response::Prices),
            Command::Snapshot => self.snapshot().map(Response::Snapshot),
            Command::Metrics => unreachable!("handled above"),
        };
        if result.is_err() {
            if let Some(registry) = &recorder {
                registry.add(Metric::ServiceCommandErrors, 1);
            }
        }
        result
    }

    /// Register new clients, assigning fresh ids.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidClient`] (mutating nothing) if any
    /// submitted parameters are invalid.
    pub fn add_clients(&mut self, batch: Vec<ClientParams>) -> Result<Vec<ClientId>, ServiceError> {
        let ids = self.store.add(batch)?;
        if !ids.is_empty() {
            self.dirty = true;
        }
        if let Some(registry) = &self.recorder {
            registry.gauge_set(Metric::ServiceClients, self.store.len() as u64);
        }
        Ok(ids)
    }

    /// Deregister a batch of clients.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownClient`] (mutating nothing) if any id
    /// is unknown or duplicated.
    pub fn remove_clients(&mut self, ids: &[ClientId]) -> Result<usize, ServiceError> {
        let removed = self.store.remove(ids)?;
        if removed > 0 {
            self.dirty = true;
        }
        if let Some(registry) = &self.recorder {
            registry.gauge_set(Metric::ServiceClients, self.store.len() as u64);
        }
        Ok(removed)
    }

    /// Replace every client's availability pattern (aligned to insertion
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::AvailabilityMismatch`] if the model size
    /// disagrees with the population.
    pub fn update_availability(&mut self, model: &AvailabilityModel) -> Result<(), ServiceError> {
        if self.store.set_availability(model)? {
            self.dirty = true;
        }
        Ok(())
    }

    /// Replace the deployment budget `B`. Stamps no route block (the
    /// columns are budget-independent); the next solve re-bisects λ at
    /// the new budget, warm-started from the previous path parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidConfig`] for a non-finite or
    /// non-positive budget (mutating nothing) — the same check
    /// construction-time [`ServiceConfig`] validation applies, so the
    /// `UpdateBudget` command cannot bypass it.
    pub fn update_budget(&mut self, budget: f64) -> Result<(), ServiceError> {
        ServiceConfig::validate_budget(budget)?;
        if budget != self.config.budget {
            self.config.budget = budget;
            self.dirty = true;
        }
        Ok(())
    }

    /// Replace the Theorem 1 bound constants `(α, β, R)`. Stamps no route
    /// block; the warm-start hint is rescaled by the `α/R` ratio before
    /// the next solve refines it.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidConfig`] for invalid constants
    /// (mutating nothing) — deserialized `BoundParams` are re-validated
    /// here.
    pub fn update_bound(&mut self, bound: BoundParams) -> Result<(), ServiceError> {
        let bound = BoundParams::new(bound.alpha(), bound.beta(), bound.rounds()).map_err(|e| {
            ServiceError::InvalidConfig {
                field: "bound",
                reason: e.to_string(),
            }
        })?;
        if bound != self.config.bound {
            self.config.bound = bound;
            self.dirty = true;
        }
        Ok(())
    }

    /// Re-solve the equilibrium now, warm-starting from the previous λ*.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NoPriceableClients`] for an empty or fully
    /// excluded population, [`ServiceError::InvariantViolated`] if the
    /// solved equilibrium fails the Theorem 2 check, and
    /// [`ServiceError::Game`] for solver failures. On error the previous
    /// priced state is kept (and remains stale).
    pub fn reprice(&mut self) -> Result<RepriceReport, ServiceError> {
        match self.recorder.clone() {
            Some(registry) => self.reprice_observed(&*registry),
            None => self.reprice_observed(&NoopRecorder),
        }
    }

    /// [`PricingService::reprice`] with an explicit metric sink. The solve
    /// and the resulting prices are byte-for-byte independent of the
    /// recorder; instrumentation only reads what the solve already
    /// computed (plus [`Stopwatch`] spans, which are the single
    /// measurement site for the report's timing fields).
    fn reprice_observed<R: Recorder + ?Sized>(
        &mut self,
        recorder: &R,
    ) -> Result<RepriceReport, ServiceError> {
        let reprice_watch = Stopwatch::start();
        let n = self.store.len();
        // Bring the store's columns up to date: rows move or are
        // re-derived from the first stamped block on, and the raw weights
        // are normalised with the exact `Population::from_raw` left fold.
        // A budget- or bound-only step touches no column. The solver reads
        // the columns in place, so prices are bit-identical to a
        // from-scratch solve over the same clients.
        let refresh = self.store.refresh()?;
        let population = self.store.population();
        let aor = self.config.bound.alpha_over_r();

        // Warm-start hint: rescale the previous path parameter for the
        // weight renormalisation (and any bound update) since the last
        // solve. The exact solver refines it further itself; the hint is
        // a heuristic either way, and the solver confirms a bracket
        // around it before trusting it.
        let hint = self.warm_hint.map(|warm| {
            let ratio = refresh.total_raw_weight / warm.total_weight;
            warm.t_star * ratio * ratio * (warm.aor / aor)
        });
        let mut index_rebuild_ns = 0u64;
        let index = if let Some(columns) = self.store.index_columns() {
            // A fast-path service (only its store keeps index inputs): reuse
            // the cached threshold index when the store has not changed
            // since it was built and the solver knobs match
            // (budget/bound-β-only churn). When some index segments
            // churned under the same knobs, patch it: the store's
            // per-segment stamps flag exactly the segments a mutation
            // touched, and only those re-sort — bit-identical to a cold
            // build. Otherwise (the first solve, or an α/R change that
            // moves every threshold) build it cold, O(N log N).
            let store_version = self.store.version();
            let q_min = self.config.solver.q_min;
            let cached = self.fast_index.take().filter(|cached| {
                cached.index.aor().to_bits() == aor.to_bits()
                    && cached.index.q_min().to_bits() == q_min.to_bits()
            });
            let state = match cached {
                Some(cached) if cached.store_version == store_version => {
                    recorder.add(Metric::ServiceIndexReuses, 1);
                    cached
                }
                cached => {
                    let segment_rows = self.store.index_segments();
                    let dirty: Option<Vec<bool>> = cached.as_ref().map(|cached| {
                        let versions = self.store.segment_versions();
                        versions.iter().map(|&v| v > cached.store_version).collect()
                    });
                    // A cold build counts every segment dirty.
                    let dirty_segments = dirty.as_ref().map_or(segment_rows.len(), |dirty| {
                        dirty.iter().filter(|&&d| d).count()
                    });
                    recorder.add(Metric::ServiceDirtySegments, dirty_segments as u64);
                    let previous = cached.as_ref().map(|c| &c.index).zip(dirty.as_deref());
                    let build_watch = Stopwatch::start();
                    // The index probes the raw-weight `w²G²` column at the
                    // scale `σ = W²`.
                    let (index, segments) = ActiveSetIndex::build(
                        &columns,
                        &segment_rows,
                        previous,
                        aor,
                        q_min,
                        refresh.total_raw_weight * refresh.total_raw_weight,
                        self.config.solver.config.n_threads,
                    );
                    // One measurement feeds both the histogram and the
                    // report's `index_rebuild_ns` field below.
                    let (span, count) = if previous.is_some() {
                        (Metric::SolverIndexPatchNs, Metric::ServiceIndexPatches)
                    } else {
                        (Metric::SolverIndexBuildNs, Metric::ServiceIndexRebuilds)
                    };
                    index_rebuild_ns = build_watch.record(recorder, span);
                    recorder.add(count, 1);
                    recorder.add(Metric::SolverIndexSegmentsRebuilt, segments.rebuilt as u64);
                    recorder.add(
                        Metric::SolverIndexSegmentsRepaired,
                        segments.repaired as u64,
                    );
                    recorder.add(Metric::SolverIndexSegmentsReused, segments.reused as u64);
                    FastIndexState {
                        index,
                        store_version,
                    }
                }
            };
            Some(&self.fast_index.insert(state).index)
        } else {
            None
        };
        let (solution, diag) = solve_kkt_columns(
            population,
            &self.config.bound,
            self.config.budget,
            &self.config.solver,
            hint,
            index,
            recorder,
        )?;

        // Certify the equilibrium before serving it (Theorem 2).
        let residual = theorem2_max_residual(
            population,
            &self.config.bound,
            &solution,
            self.config.solver.q_min,
            RESIDUAL_SAMPLE,
            RESIDUAL_SEED,
        );
        if let Some(r) = residual {
            if r > self.config.residual_tolerance {
                return Err(ServiceError::InvariantViolated {
                    residual: r,
                    tolerance: self.config.residual_tolerance,
                });
            }
        }

        // The reporting shards the stamped blocks map to.
        let shards = self.config.shards;
        let mut dirty_shards: Vec<usize> = refresh.stamped.iter().map(|b| b % shards).collect();
        dirty_shards.sort_unstable();
        dirty_shards.dedup();
        let report = RepriceReport {
            clients: n,
            excluded: n - population.len(),
            lambda: solution.lambda,
            spent: solution.spent,
            saturated: solution.saturated,
            theorem2_residual: residual,
            warm_started: hint.is_some(),
            warm_start_depth: diag.warm_start_depth,
            bisect_iterations: diag.bisect_iterations,
            bisect_evaluations: diag.bisect_evaluations,
            shard_count: shards,
            dirty_shards: dirty_shards.len(),
            rebuilt_columns: refresh.rederived,
            solver_mode: diag.solver_mode,
            probe_evaluations: diag.probe_evaluations,
            index_rebuild_ns,
        };

        // Scatter the solved profile back over the full client list.
        self.state = Some(PricedState {
            prices: self.store.scatter(&solution.prices),
            q_eff: self.store.scatter(&solution.q),
            report,
        });
        self.warm_hint = (diag.t_star > 0.0).then_some(WarmHint {
            t_star: diag.t_star,
            total_weight: refresh.total_raw_weight,
            aor,
        });
        self.dirty = false;
        recorder.add(Metric::ServiceReprices, 1);
        recorder.add(
            if report.warm_started {
                Metric::ServiceWarmSolves
            } else {
                Metric::ServiceColdSolves
            },
            1,
        );
        recorder.add(Metric::ServiceDirtyShards, report.dirty_shards as u64);
        recorder.add(Metric::ServiceRebuiltColumns, report.rebuilt_columns as u64);
        recorder.gauge_set(Metric::ServiceClients, report.clients as u64);
        recorder.gauge_set(Metric::ServiceExcludedClients, report.excluded as u64);
        reprice_watch.record(recorder, Metric::ServiceRepriceNs);
        Ok(report)
    }

    /// Re-solve only if deltas have accumulated.
    fn ensure_priced(&mut self) -> Result<(), ServiceError> {
        if self.dirty || self.state.is_none() {
            self.reprice()?;
        }
        Ok(())
    }

    /// Batched price read (re-solving first if the state is stale).
    ///
    /// The batch is atomic: every id — including duplicates — is resolved
    /// before any quote is assembled, so the first unknown id (in request
    /// order) rejects the whole batch and no partial quote vector is ever
    /// observable.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownClient`] naming the first unknown
    /// id in the batch, plus any [`PricingService::reprice`] error.
    pub fn get_prices(&mut self, ids: &[ClientId]) -> Result<Vec<PriceQuote>, ServiceError> {
        self.ensure_priced()?;
        let state = self.state.as_ref().expect("priced above");
        // Resolve every position first; quotes are only built once the
        // whole batch is known to be servable.
        let positions: Vec<usize> = ids
            .iter()
            .map(|&id| {
                self.store
                    .position(id)
                    .ok_or(ServiceError::UnknownClient(id))
            })
            .collect::<Result<_, _>>()?;
        Ok(ids
            .iter()
            .zip(positions)
            .map(|(&id, pos)| PriceQuote {
                id,
                price: state.prices[pos],
                q_eff: state.q_eff[pos],
            })
            .collect())
    }

    /// Full equilibrium view (re-solving first if the state is stale).
    ///
    /// # Errors
    ///
    /// Propagates [`PricingService::reprice`] errors.
    pub fn snapshot(&mut self) -> Result<ServiceSnapshot, ServiceError> {
        self.ensure_priced()?;
        let state = self.state.as_ref().expect("priced above");
        Ok(ServiceSnapshot {
            ids: self.store.ids().to_vec(),
            prices: state.prices.clone(),
            q_eff: state.q_eff.clone(),
            budget: self.config.budget,
            report: state.report,
        })
    }

    /// The report of the most recent successful re-solve, if any.
    pub fn last_report(&self) -> Option<&RepriceReport> {
        self.state.as_ref().map(|s| &s.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::INDEX_SEGMENTS;
    use crate::AvailabilityPattern;

    fn bound() -> BoundParams {
        BoundParams::new(4_000.0, 100.0, 1_000).unwrap()
    }

    fn client(k: usize) -> ClientParams {
        ClientParams::always_on(
            1.0 + k as f64,
            4.0 + k as f64,
            30.0 + 10.0 * k as f64,
            2.0 * k as f64,
            1.0,
        )
    }

    #[test]
    fn command_stream_round_trip() {
        let mut service = PricingService::new(ServiceConfig::new(bound(), 10.0)).unwrap();
        assert!(service.is_empty());
        let ids = match service
            .execute(Command::AddClients((0..4).map(client).collect()))
            .unwrap()
        {
            Response::Added(ids) => ids,
            other => panic!("{other:?}"),
        };
        assert_eq!(service.len(), 4);
        assert!(service.is_dirty());
        let report = match service.execute(Command::Reprice).unwrap() {
            Response::Repriced(r) => r,
            other => panic!("{other:?}"),
        };
        assert!(!service.is_dirty());
        assert_eq!(report.clients, 4);
        assert_eq!(report.excluded, 0);
        assert!(!report.warm_started);
        let quotes = match service
            .execute(Command::GetPrices(vec![ids[2], ids[0]]))
            .unwrap()
        {
            Response::Prices(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(quotes[0].id, ids[2]);
        assert!(quotes.iter().all(|q| q.price.is_finite()));
        match service
            .execute(Command::RemoveClients(vec![ids[1]]))
            .unwrap()
        {
            Response::Removed(1) => {}
            other => panic!("{other:?}"),
        }
        // Reads lazily re-solve after a delta, now warm-started.
        let snapshot = match service.execute(Command::Snapshot).unwrap() {
            Response::Snapshot(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(snapshot.ids.len(), 3);
        assert!(snapshot.report.warm_started);
        assert!(service.last_report().is_some());
    }

    #[test]
    fn metrics_command_reports_the_registry() {
        let registry = Arc::new(Registry::new());
        let mut service =
            PricingService::with_recorder(ServiceConfig::new(bound(), 10.0), Arc::clone(&registry))
                .unwrap();
        service
            .execute(Command::AddClients((0..4).map(client).collect()))
            .unwrap();
        service.execute(Command::Reprice).unwrap();
        let report = match service.execute(Command::Metrics).unwrap() {
            Response::Metrics(report) => report,
            other => panic!("{other:?}"),
        };
        let snap = &report.snapshot;
        assert_eq!(snap.counter("fedfl_service_commands_total"), Some(2));
        assert_eq!(snap.counter("fedfl_service_reprices_total"), Some(1));
        assert_eq!(snap.counter("fedfl_solver_solves_total"), Some(1));
        assert_eq!(snap.counter("fedfl_solver_exact_solves_total"), Some(1));
        assert_eq!(snap.gauge("fedfl_service_clients"), Some(4));
        assert_eq!(snap.histogram("fedfl_service_reprice_ns").unwrap().count, 1);
        assert!(report.exposition.contains("fedfl_service_reprices_total 1"));
        // A scrape perturbs nothing: the command counter stays at 2 and
        // the service without a recorder answers a zeroed snapshot.
        let again = service.metrics_report();
        assert_eq!(
            again.snapshot.counter("fedfl_service_commands_total"),
            Some(2)
        );
        let mut bare = PricingService::new(ServiceConfig::new(bound(), 10.0)).unwrap();
        match bare.execute(Command::Metrics).unwrap() {
            Response::Metrics(report) => {
                assert_eq!(
                    report.snapshot.counter("fedfl_service_commands_total"),
                    Some(0)
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn report_fields_and_metrics_are_the_same_measurement() {
        // The report's timing/probe fields and the obs counters come from
        // the same measurement sites, so their totals agree exactly
        // across a churning fast-path run. Segment work lives only in the
        // counters; each reprice's share is its counter delta.
        let registry = Arc::new(Registry::new());
        let mut config = ServiceConfig::new(bound(), 10.0);
        config.fast_path = true;
        let mut service = PricingService::with_recorder(config, Arc::clone(&registry)).unwrap();
        service.add_clients((0..32).map(client).collect()).unwrap();
        let segment_counters = || {
            [
                Metric::SolverIndexSegmentsRebuilt,
                Metric::SolverIndexSegmentsRepaired,
                Metric::SolverIndexSegmentsReused,
            ]
            .map(|metric| registry.counter(metric))
        };

        let mut probe_total = 0u64;
        let mut iteration_total = 0u64;
        let mut build_ns_total = 0u64;
        let mut patch_ns_total = 0u64;
        let mut dirty_total = 0u64;
        let mut rebuilt_columns_total = 0u64;
        for round in 0..4 {
            if round == 2 {
                // Stamp one route block so the index must patch
                // incrementally.
                service.add_clients(vec![client(40 + round)]).unwrap();
            } else if round > 0 {
                // Budget-only churn: the cached index must be reused.
                service.update_budget(10.0 + round as f64).unwrap();
            }
            let before = segment_counters();
            let report = service.reprice().unwrap();
            let after = segment_counters();
            let [rebuilt, repaired, reused] = [0, 1, 2].map(|k| after[k] - before[k]);
            probe_total += report.probe_evaluations;
            iteration_total += report.bisect_iterations as u64;
            dirty_total += report.dirty_shards as u64;
            rebuilt_columns_total += report.rebuilt_columns as u64;
            match round {
                0 => {
                    // Cold build: every segment sorted, nothing reused.
                    assert!(report.index_rebuild_ns > 0);
                    assert_eq!(rebuilt, INDEX_SEGMENTS as u64);
                    assert_eq!(reused, 0);
                    build_ns_total += report.index_rebuild_ns;
                }
                2 => {
                    // Incremental patch: only the segment of the added
                    // client's route block re-sorts; everything else is
                    // reused or (at most, under weight drift) repaired.
                    assert!(report.index_rebuild_ns > 0);
                    assert_eq!(rebuilt, 1);
                    assert_eq!(rebuilt + repaired + reused, INDEX_SEGMENTS as u64);
                    patch_ns_total += report.index_rebuild_ns;
                }
                _ => {
                    // Budget-only: full reuse, zero index maintenance.
                    assert_eq!(report.index_rebuild_ns, 0);
                    assert_eq!([rebuilt, repaired, reused], [0, 0, 0]);
                }
            }
        }

        assert_eq!(
            registry.counter(Metric::SolverProbeEvaluations),
            probe_total,
            "probe counter and report field disagree"
        );
        assert_eq!(
            registry.counter(Metric::SolverBisectIterations),
            iteration_total
        );
        let build_hist = registry.histogram(Metric::SolverIndexBuildNs);
        assert_eq!(
            build_hist.sum, build_ns_total,
            "index-build span and report ns disagree"
        );
        assert_eq!(build_hist.count, 1);
        let patch_hist = registry.histogram(Metric::SolverIndexPatchNs);
        assert_eq!(
            patch_hist.sum, patch_ns_total,
            "index-patch span and report ns disagree"
        );
        assert_eq!(patch_hist.count, 1);
        assert_eq!(registry.counter(Metric::ServiceIndexRebuilds), 1);
        assert_eq!(registry.counter(Metric::ServiceIndexPatches), 1);
        assert_eq!(registry.counter(Metric::ServiceIndexReuses), 2);
        assert_eq!(registry.counter(Metric::ServiceDirtyShards), dirty_total);
        assert_eq!(
            registry.counter(Metric::ServiceRebuiltColumns),
            rebuilt_columns_total
        );
        assert_eq!(registry.counter(Metric::ServiceReprices), 4);
        assert_eq!(registry.counter(Metric::ServiceColdSolves), 1);
        assert_eq!(registry.counter(Metric::ServiceWarmSolves), 3);
        assert_eq!(registry.histogram(Metric::ServiceRepriceNs).count, 4);
        // Fast-path solves all certified or fell back; either way every
        // solve is accounted for exactly once.
        assert_eq!(registry.counter(Metric::SolverSolves), 4);
        assert_eq!(
            registry.counter(Metric::SolverFastSolves)
                + registry.counter(Metric::SolverFallbackSolves),
            4
        );
    }

    #[test]
    fn recorder_does_not_change_prices() {
        let clients: Vec<ClientParams> = (0..16).map(client).collect();
        let mut config = ServiceConfig::new(bound(), 10.0);
        config.fast_path = true;
        let (mut bare, _) = PricingService::with_clients(config, clients.clone()).unwrap();
        let mut observed =
            PricingService::with_recorder(config, Arc::new(Registry::new())).unwrap();
        observed.add_clients(clients).unwrap();
        let bare_snap = bare.snapshot().unwrap();
        let observed_snap = observed.snapshot().unwrap();
        let bits = |prices: &[f64]| prices.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&bare_snap.prices), bits(&observed_snap.prices));
        assert_eq!(bare_snap.q_eff, observed_snap.q_eff);
    }

    #[test]
    fn raised_solver_floor_prices_on_both_paths() {
        // With `q_min` raised to 0.02, clients held at that floor are not
        // interior: the Theorem-2 check must skip them as the solver
        // does, or every reprice fails with `InvariantViolated`.
        let clients: Vec<ClientParams> = (0..400)
            .map(|k| {
                let c = 1.0 + (k % 50) as f64;
                ClientParams::always_on(1.0 + (k % 7) as f64, 4.0, 10.0 * c * c, 0.0, 1.0)
            })
            .collect();
        for fast_path in [false, true] {
            for budget in [3e3, 1e4, 3e4] {
                let mut config = ServiceConfig::new(bound(), budget);
                config.solver.q_min = 0.02;
                config.fast_path = fast_path;
                let (mut service, _) =
                    PricingService::with_clients(config, clients.clone()).unwrap();
                let report = service.reprice().unwrap_or_else(|e| {
                    panic!("fast_path {fast_path} budget {budget}: {e}");
                });
                let floored = service
                    .snapshot()
                    .unwrap()
                    .q_eff
                    .iter()
                    .filter(|&&q| q == 0.02)
                    .count();
                assert!(floored > 0, "budget {budget} holds no client at the floor");
                let residual = report.theorem2_residual.expect("interior clients");
                assert!(residual <= config.residual_tolerance, "residual {residual}");
            }
        }
    }

    #[test]
    fn empty_service_cannot_price() {
        let mut service = PricingService::new(ServiceConfig::new(bound(), 10.0)).unwrap();
        assert!(matches!(
            service.reprice(),
            Err(ServiceError::NoPriceableClients { registered: 0 })
        ));
        assert!(service.get_prices(&[ClientId(0)]).is_err());
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (mut service, ids) = PricingService::with_clients(
            ServiceConfig::new(bound(), 10.0),
            (0..3).map(client).collect(),
        )
        .unwrap();
        assert!(matches!(
            service.get_prices(&[ClientId(99)]),
            Err(ServiceError::UnknownClient(ClientId(99)))
        ));
        assert!(service.remove_clients(&[ClientId(99)]).is_err());
        assert_eq!(service.len(), 3);
        assert!(service.get_prices(&ids).is_ok());
    }

    #[test]
    fn never_available_clients_get_zero_not_nan() {
        let mut config = ServiceConfig::new(bound(), 10.0);
        config.availability_aware = true;
        let mut dead = client(1);
        // A valid pattern with a vanishing rate: effectively unreachable.
        dead.availability = AvailabilityPattern::Random { probability: 1e-12 };
        let (mut service, ids) =
            PricingService::with_clients(config, vec![client(0), dead, client(2), client(3)])
                .unwrap();
        let report = service.reprice().unwrap();
        assert_eq!(report.excluded, 1);
        let quotes = service.get_prices(&ids).unwrap();
        assert_eq!(quotes[1].price, 0.0);
        assert_eq!(quotes[1].q_eff, 0.0);
        assert!(quotes
            .iter()
            .all(|q| q.price.is_finite() && q.q_eff.is_finite()));
        assert!(quotes[0].q_eff > 0.0);
    }

    #[test]
    fn availability_flag_off_reproduces_always_on_prices() {
        let patterns = [
            AvailabilityPattern::AlwaysOn,
            AvailabilityPattern::Random { probability: 0.5 },
            AvailabilityPattern::DutyCycle {
                period: 4,
                on_rounds: 1,
                offset: 0,
            },
        ];
        let clients: Vec<ClientParams> = (0..3)
            .map(|k| {
                let mut c = client(k);
                c.availability = patterns[k];
                c
            })
            .collect();
        let mut aware_cfg = ServiceConfig::new(bound(), 10.0);
        aware_cfg.availability_aware = true;
        let (mut aware, _) = PricingService::with_clients(aware_cfg, clients.clone()).unwrap();
        let (mut blind, _) =
            PricingService::with_clients(ServiceConfig::new(bound(), 10.0), clients.clone())
                .unwrap();
        let (mut plain, _) = PricingService::with_clients(
            ServiceConfig::new(bound(), 10.0),
            clients
                .iter()
                .map(|c| ClientParams {
                    availability: AvailabilityPattern::AlwaysOn,
                    ..*c
                })
                .collect(),
        )
        .unwrap();
        let aware_snap = aware.snapshot().unwrap();
        let blind_snap = blind.snapshot().unwrap();
        let plain_snap = plain.snapshot().unwrap();
        // The flag off ignores patterns entirely: bit-identical to always-on.
        assert_eq!(blind_snap.prices, plain_snap.prices);
        // The flag on prices the intermittent clients differently.
        assert_ne!(aware_snap.prices, plain_snap.prices);
        // Updating availability only dirties an availability-aware service.
        let model = AvailabilityModel::always_on(3);
        blind.update_availability(&model).unwrap();
        assert!(!blind.is_dirty());
        aware.update_availability(&model).unwrap();
        assert!(aware.is_dirty());
        let aware_now_plain = aware.snapshot().unwrap();
        assert_eq!(aware_now_plain.prices, plain_snap.prices);
        // Mismatched model length is rejected.
        assert!(aware
            .update_availability(&AvailabilityModel::always_on(2))
            .is_err());
    }

    #[test]
    fn intermittent_clients_are_compensated_more_per_effective_unit() {
        // Two identical zero-value clients, one available half the time:
        // the rarer client's effective cost doubles... quadruples, so its
        // price per unit of effective participation must be higher.
        let mut config = ServiceConfig::new(bound(), 8.0);
        config.availability_aware = true;
        let base = ClientParams::always_on(1.0, 9.0, 50.0, 0.0, 1.0);
        let mut flaky = base;
        flaky.availability = AvailabilityPattern::Random { probability: 0.5 };
        let (mut service, ids) = PricingService::with_clients(config, vec![base, flaky]).unwrap();
        let quotes = service.get_prices(&ids).unwrap();
        assert!(
            quotes[1].price > quotes[0].price,
            "flaky client must earn a higher price: {quotes:?}"
        );
        assert!(quotes[1].q_eff < quotes[0].q_eff);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = ServiceConfig::new(bound(), f64::NAN);
        assert!(PricingService::new(config).is_err());
        config.budget = 0.0;
        assert!(PricingService::new(config).is_err(), "zero budget");
        config.budget = -3.0;
        assert!(PricingService::new(config).is_err(), "negative budget");
        config.budget = 10.0;
        config.residual_tolerance = 0.0;
        assert!(PricingService::new(config).is_err());
    }

    #[test]
    fn update_budget_command_revalidates_like_the_constructor() {
        // `execute(UpdateBudget(..))` must apply the same budget check as
        // `ServiceConfig::validate` — a wire peer sends commands, not
        // configs, so the command path is the one that matters.
        let (mut service, _) = PricingService::with_clients(
            ServiceConfig::new(bound(), 10.0),
            (0..3).map(client).collect(),
        )
        .unwrap();
        service.snapshot().unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let err = service.execute(Command::UpdateBudget(bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    ServiceError::InvalidConfig {
                        field: "budget",
                        ..
                    }
                ),
                "budget {bad}: {err:?}"
            );
            assert_eq!(service.config().budget, 10.0, "rejected update mutated B");
            assert!(!service.is_dirty(), "rejected update dirtied the service");
        }
        service.execute(Command::UpdateBudget(12.0)).unwrap();
        assert_eq!(service.config().budget, 12.0);
        assert!(service.is_dirty());
    }

    #[test]
    fn update_bound_command_revalidates_like_the_constructor() {
        let (mut service, _) = PricingService::with_clients(
            ServiceConfig::new(bound(), 10.0),
            (0..3).map(client).collect(),
        )
        .unwrap();
        service.snapshot().unwrap();
        // A hand-deserialized BoundParams can carry values `new` would
        // reject; `execute(UpdateBound(..))` must re-run that validation.
        let bad: BoundParams =
            serde_json::from_str("{\"alpha\":-1.0,\"beta\":100.0,\"rounds\":1000}").unwrap();
        let err = service.execute(Command::UpdateBound(bad)).unwrap_err();
        assert!(
            matches!(err, ServiceError::InvalidConfig { field: "bound", .. }),
            "{err:?}"
        );
        assert_eq!(service.config().bound, bound());
        assert!(!service.is_dirty());
    }

    #[test]
    fn get_prices_is_atomic_over_duplicates_and_unknown_ids() {
        // Pin the atomicity contract alongside the `RemoveClients` one: a
        // batch mixing known ids (twice) with unknown ids must fail as a
        // whole, naming the first unknown id in request order, and leak
        // no partial quote vector.
        let (mut service, ids) = PricingService::with_clients(
            ServiceConfig::new(bound(), 10.0),
            (0..3).map(client).collect(),
        )
        .unwrap();
        // Duplicates of known ids are fine: reads are idempotent.
        let quotes = service.get_prices(&[ids[1], ids[1], ids[0]]).unwrap();
        assert_eq!(quotes.len(), 3);
        assert_eq!(quotes[0].id, ids[1]);
        assert_eq!(quotes[0].price.to_bits(), quotes[1].price.to_bits());
        // First unknown id in request order wins, even with a later one.
        let err = service
            .get_prices(&[ids[2], ClientId(77), ids[0], ClientId(88)])
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownClient(ClientId(77)));
        // Repeated unknown ids behave the same as a single one.
        let err = service
            .get_prices(&[ClientId(99), ClientId(99)])
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownClient(ClientId(99)));
        // The failed batches left the service fully servable.
        assert_eq!(service.get_prices(&ids).unwrap().len(), 3);
    }
}
