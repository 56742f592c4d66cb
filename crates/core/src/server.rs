//! Stage I — the server's optimal-pricing problem.
//!
//! Substituting the clients' inverse price map (17) into the server's
//! budgeted loss-minimisation problem gives Problem P1′ of the paper:
//!
//! ```text
//! min_q  Σ_n (1 − q_n) a_n² G_n² / q_n
//! s.t.   Σ_n (2 c_n q_n − (α/R) v_n a_n² G_n² / q_n²) q_n ≤ B,
//!        q_min ≤ q_n ≤ q_{n,max}.
//! ```
//!
//! Two solvers are provided:
//!
//! 1. [`solve_kkt`] — from the KKT condition (22),
//!    `1/λ = (4R/α) c_n q_n³ / (a_n² G_n²) + v_n` for interior clients, the
//!    whole optimal profile is a one-parameter family
//!    `q_n(t) = clamp(((α/4R)·a_n²G_n²·(t − v_n)/c_n)^{1/3})` in `t = 1/λ`;
//!    budget spend is monotone along the path (Proposition 1), so the tight
//!    budget of Lemma 3 pins `t` by bisection.
//! 2. [`solve_m_search`] — the paper's literal two-step method for P1″:
//!    fix `M = Σ c_n q_n²`, solve the then-convex inner problem (we use a
//!    quadratic-penalty projected-gradient method in place of CVX), and
//!    linearly search `M` with a fixed step ε₀.
//!
//! Both return the same profile up to solver tolerance (tested), with the
//! KKT path being orders of magnitude faster.
//!
//! # Scale
//!
//! [`solve_kkt`] runs its per-client passes — the λ-evaluation inside the
//! budget bisection, the final profile fill and the price read-back — as
//! deterministic chunked reductions over scoped crossbeam workers
//! ([`fedfl_num::parallel`]): one bisection step is O(N / threads) and
//! materialises no per-client buffers (each probe costs only the
//! O(N/8192) chunk bookkeeping of its worker crew), and the chunked
//! summation tree is fixed by the population size alone, so the same seed
//! and tolerance produce **bit-identical** prices whether
//! [`SolverConfig::n_threads`] is 1 or 16. Populations up to millions of
//! clients are in reach; see the `scale_equilibrium` binary.

use crate::active_set::ActiveSetIndex;
use crate::bound::BoundParams;
use crate::error::GameError;
use crate::population::{Population, PopulationColumns, Q_MIN};
use crate::shard::ShardedPopulation;
use fedfl_num::parallel::{chunked_fill, chunked_sum, multi_shard_sum};
use fedfl_num::solve::{
    bisect_monotone_instrumented, penalty_minimize, BisectStats, BoxConstraints, ConstraintFn,
    ConstraintKind, PgdConfig,
};
use fedfl_obs::{Metric, NoopRecorder, Recorder, Stopwatch};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Ordering;

/// Execution configuration shared by the Stage-I solvers: how hard to
/// iterate and how many workers run the per-client passes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Worker threads for the chunked per-client passes (0 = one per
    /// available core). Any value produces bit-identical results.
    pub n_threads: usize,
    /// Bisection tolerance on the KKT parameter and budget.
    pub tolerance: f64,
    /// Iteration budget of the budget-tightening bisection.
    ///
    /// The default (2,200) exceeds the ~2,100 halvings that exhaust f64
    /// resolution on *any* finite bracket, so the bisection always
    /// terminates on the tolerance or the f64-resolution stagnation stop —
    /// never on this cap. That matters for heavy-tailed populations, whose
    /// saturation parameter can sit 50+ decades above the budget root: a
    /// cap below the bracket's dyadic depth silently truncates the search
    /// (and the warm-start containment chain with it). The cap remains a
    /// backstop against non-terminating spend callbacks, not a precision
    /// knob.
    pub max_iters: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            n_threads: 0,
            tolerance: 1e-10,
            max_iters: 2_200,
        }
    }
}

/// Options shared by the Stage-I solvers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverOptions {
    /// Participation floor (Theorem 1 needs `q_n > 0`).
    pub q_min: f64,
    /// Grid steps for the outer `M`-search (the paper's ε₀ divides the `M`
    /// range into this many cells).
    pub m_grid_steps: usize,
    /// Execution configuration (threads, tolerance, iteration budget).
    pub config: SolverConfig,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            q_min: Q_MIN,
            m_grid_steps: 30,
            config: SolverConfig::default(),
        }
    }
}

impl SolverOptions {
    /// Default options with an explicit worker-thread count.
    pub fn with_threads(n_threads: usize) -> Self {
        Self {
            config: SolverConfig {
                n_threads,
                ..SolverConfig::default()
            },
            ..Self::default()
        }
    }
}

/// The server's Stage-I decision: participation targets and the prices that
/// implement them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageOneSolution {
    /// Optimal participation levels `q*`.
    pub q: Vec<f64>,
    /// Optimal prices `P*` from equation (17).
    pub prices: Vec<f64>,
    /// Total payment `Σ P*_n q*_n` actually spent.
    pub spent: f64,
    /// KKT multiplier `λ*` of the budget constraint, when the KKT solver
    /// produced an interior path point (`None` for the `M`-search and for
    /// saturated/floored corner cases).
    pub lambda: Option<f64>,
    /// Whether every client sits at `q_max` with budget left over (the
    /// budget constraint is slack; Lemma 3's tightness needs a binding
    /// budget).
    pub saturated: bool,
}

impl StageOneSolution {
    /// The bound's variance term `Σ (1 − q_n) a_n² G_n² / q_n` at this
    /// solution.
    pub fn variance_term(&self, population: &Population, bound: &BoundParams) -> f64 {
        bound.variance_term(population, &self.q)
    }

    /// Number of clients the server charges (negative price — Theorem 3's
    /// bi-directional payments).
    pub fn negative_price_count(&self) -> usize {
        self.prices.iter().filter(|&&p| p < 0.0).count()
    }
}

/// Borrowed view of one or many shard column-sets — the abstraction every
/// Stage-I per-client pass runs on.
///
/// A flat [`PopulationColumns`] is a single-shard view; a
/// [`ShardedPopulation`] contributes one shard per column-set. Reductions
/// are evaluated as a two-level merge: each shard produces its per-chunk
/// partial sums ([`chunk_partial_sums`]) and the partials are merged **in
/// shard order** ([`merge_shard_partials`]). Because shard boundaries are
/// chunk-aligned, the merged summation tree is the flat reduction's tree —
/// results are bit-identical for any shard count and any thread count.
struct ShardView<'a> {
    shards: Vec<&'a PopulationColumns>,
    /// Prefix offsets plus the total length (`offsets.len() == shards + 1`).
    offsets: Vec<usize>,
}

impl<'a> ShardView<'a> {
    /// View flat columns as a single shard.
    fn single(cols: &'a PopulationColumns) -> Self {
        Self {
            shards: vec![cols],
            offsets: vec![0, cols.len()],
        }
    }

    /// View a sharded population's column-sets.
    fn of(population: &'a ShardedPopulation) -> Self {
        let shards: Vec<&PopulationColumns> = population.shards().iter().collect();
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        offsets.push(0);
        let mut total = 0usize;
        for shard in &shards {
            total += shard.len();
            offsets.push(total);
        }
        Self { shards, offsets }
    }

    /// Total number of clients across all shards.
    fn len(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Two-level deterministic reduction: `f` receives a shard's columns,
    /// a shard-local index range, and the shard's global offset (for
    /// indexing global per-client arrays such as a profile `q`). All
    /// shards' chunks share one job queue and one worker crew per call
    /// ([`multi_shard_sum`]), so a probe over many small shards spawns no
    /// per-shard crews and hits no per-shard barriers.
    fn sum<F>(&self, n_threads: usize, f: F) -> f64
    where
        F: Fn(&PopulationColumns, std::ops::Range<usize>, usize) -> f64 + Sync,
    {
        if self.shards.len() == 1 {
            let shard = self.shards[0];
            return chunked_sum(shard.len(), n_threads, |range| f(shard, range, 0));
        }
        let lens: Vec<usize> = self.shards.iter().map(|s| s.len()).collect();
        multi_shard_sum(&lens, n_threads, |s, local| {
            f(self.shards[s], local, self.offsets[s])
        })
    }

    /// Fill the global buffer `out` shard by shard; `f` receives a shard's
    /// columns, the shard-local start index of the slice, the shard's
    /// global offset, and the output sub-slice to write.
    fn fill<F>(&self, out: &mut [f64], n_threads: usize, f: F)
    where
        F: Fn(&PopulationColumns, usize, usize, &mut [f64]) + Sync,
    {
        debug_assert_eq!(out.len(), self.len());
        for (shard, &offset) in self.shards.iter().zip(&self.offsets) {
            chunked_fill(
                &mut out[offset..offset + shard.len()],
                n_threads,
                |local_start, slice| f(shard, local_start, offset, slice),
            );
        }
    }

    /// The shard and shard-local index of global client `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    fn locate(&self, i: usize) -> (&'a PopulationColumns, usize) {
        let s = self.offsets.partition_point(|&o| o <= i) - 1;
        (self.shards[s], i - self.offsets[s])
    }
}

/// The path parameter `t` at which every client sits at its cap (plus a
/// relative epsilon so the saturated profile is strictly inside).
fn saturation_t(view: &ShardView<'_>, aor: f64) -> f64 {
    view.shards
        .iter()
        .map(|cols| {
            (0..cols.len())
                .map(|i| {
                    4.0 / aor * cols.cost[i] * cols.q_max[i].powi(3) / cols.a2g2[i] + cols.value[i]
                })
                .fold(0.0f64, f64::max)
        })
        .fold(0.0f64, f64::max)
        * (1.0 + 1e-12)
        + 1e-12
}

/// The spend realised on the KKT path at `t = frac · t_sat`, where `t_sat`
/// saturates every client — a budget that is *exactly achievable* at
/// equilibrium, so [`solve_kkt`] meets it tightly (Lemma 3).
///
/// This is how the scale harness and benches construct interior budgets:
/// picking a fraction of the floor-to-saturation *spend* range instead
/// can land in a region where the spend curve of a heavy-tailed
/// population is steeper than f64 resolution in `t`, and no solver could
/// be budget-tight there. `frac` is clamped to `[0, 1]`.
pub fn path_budget(
    population: &Population,
    bound: &BoundParams,
    options: &SolverOptions,
    frac: f64,
) -> f64 {
    let cols = population.columns();
    path_budget_view(&ShardView::single(&cols), bound, options, frac)
}

/// [`path_budget`] over shard column-sets — bit-identical to the flat
/// version over the concatenated population, for any shard count.
pub fn path_budget_sharded(
    population: &ShardedPopulation,
    bound: &BoundParams,
    options: &SolverOptions,
    frac: f64,
) -> f64 {
    path_budget_view(&ShardView::of(population), bound, options, frac)
}

fn path_budget_view(
    view: &ShardView<'_>,
    bound: &BoundParams,
    options: &SolverOptions,
    frac: f64,
) -> f64 {
    let aor = bound.alpha_over_r();
    let t = frac.clamp(0.0, 1.0) * saturation_t(view, aor);
    path_spend(view, aor, options.q_min, t, options.config.n_threads)
}

/// The per-client participation level on the KKT path at `t = 1/λ`:
/// `clamp(((α/4R)·a²G²·(t − v)/c)^{1/3})`.
#[inline]
fn path_q(coef: f64, a2g2: f64, cost: f64, value: f64, q_max: f64, q_min: f64, t: f64) -> f64 {
    let slack = (t - value).max(0.0);
    (coef * a2g2 * slack / cost).cbrt().clamp(q_min, q_max)
}

/// Fused spend along the KKT path: `Σ P(q_n(t)) q_n(t)` evaluated without
/// materialising the profile — the λ-evaluation inside every bisection
/// step, as a two-level merge of per-shard partial spends.
fn path_spend(view: &ShardView<'_>, aor: f64, q_min: f64, t: f64, n_threads: usize) -> f64 {
    let coef = aor / 4.0;
    view.sum(n_threads, |cols, range, _offset| {
        let mut acc = 0.0;
        for i in range {
            let q = path_q(
                coef,
                cols.a2g2[i],
                cols.cost[i],
                cols.value[i],
                cols.q_max[i],
                q_min,
                t,
            );
            // P(q)·q = 2 c q² − K/q with K = v (α/R) a²G².
            acc += 2.0 * cols.cost[i] * q * q - cols.value[i] * aor * cols.a2g2[i] / q;
        }
        acc
    })
}

/// Fill `out` with the KKT-path profile at `t` (parallel, allocation-free).
fn fill_path_profile(
    view: &ShardView<'_>,
    aor: f64,
    q_min: f64,
    t: f64,
    out: &mut [f64],
    n_threads: usize,
) {
    let coef = aor / 4.0;
    view.fill(out, n_threads, |cols, local_start, _offset, slice| {
        for (k, q) in slice.iter_mut().enumerate() {
            let i = local_start + k;
            *q = path_q(
                coef,
                cols.a2g2[i],
                cols.cost[i],
                cols.value[i],
                cols.q_max[i],
                q_min,
                t,
            );
        }
    });
}

/// Total payment `Σ P_n(q_n) q_n` for an explicit participation profile
/// (indexed by the view's global order).
fn profile_spend(view: &ShardView<'_>, aor: f64, q: &[f64], n_threads: usize) -> f64 {
    view.sum(n_threads, |cols, range, offset| {
        let mut acc = 0.0;
        for i in range {
            let qn = q[offset + i];
            acc += 2.0 * cols.cost[i] * qn * qn - cols.value[i] * aor * cols.a2g2[i] / qn;
        }
        acc
    })
}

/// Fill `prices` with the equation-(17) read-back `P_n = 2 c q − K/q²`.
fn fill_prices(view: &ShardView<'_>, aor: f64, q: &[f64], prices: &mut [f64], n_threads: usize) {
    view.fill(prices, n_threads, |cols, local_start, offset, slice| {
        for (k, p) in slice.iter_mut().enumerate() {
            let i = local_start + k;
            let qn = q[offset + i];
            *p = 2.0 * cols.cost[i] * qn - cols.value[i] * aor * cols.a2g2[i] / (qn * qn);
        }
    });
}

fn validate_inputs(
    population: &Population,
    budget: f64,
    options: &SolverOptions,
) -> Result<(), GameError> {
    if !budget.is_finite() {
        return Err(GameError::InvalidParameter {
            name: "budget",
            reason: format!("must be finite, got {budget}"),
        });
    }
    if !(options.q_min > 0.0 && options.q_min < 1.0) {
        return Err(GameError::InvalidParameter {
            name: "q_min",
            reason: format!("must lie in (0, 1), got {}", options.q_min),
        });
    }
    if options.m_grid_steps < 2 {
        return Err(GameError::InvalidParameter {
            name: "m_grid_steps",
            reason: "need at least 2 grid steps".into(),
        });
    }
    if !(options.config.tolerance.is_finite() && options.config.tolerance > 0.0) {
        return Err(GameError::InvalidParameter {
            name: "tolerance",
            reason: format!(
                "must be finite and positive, got {}",
                options.config.tolerance
            ),
        });
    }
    if options.config.max_iters == 0 {
        return Err(GameError::InvalidParameter {
            name: "max_iters",
            reason: "need at least one bisection iteration".into(),
        });
    }
    if population.iter().any(|c| c.q_max <= options.q_min) {
        return Err(GameError::InvalidParameter {
            name: "q_max",
            reason: "every client needs q_max > q_min".into(),
        });
    }
    Ok(())
}

/// Budget/option checks shared by every columns-level entry point.
fn validate_solver_knobs(budget: f64, options: &SolverOptions) -> Result<(), GameError> {
    if !budget.is_finite() {
        return Err(GameError::InvalidParameter {
            name: "budget",
            reason: format!("must be finite, got {budget}"),
        });
    }
    if !(options.q_min > 0.0 && options.q_min < 1.0) {
        return Err(GameError::InvalidParameter {
            name: "q_min",
            reason: format!("must lie in (0, 1), got {}", options.q_min),
        });
    }
    if !(options.config.tolerance.is_finite() && options.config.tolerance > 0.0) {
        return Err(GameError::InvalidParameter {
            name: "tolerance",
            reason: format!(
                "must be finite and positive, got {}",
                options.config.tolerance
            ),
        });
    }
    if options.config.max_iters == 0 {
        return Err(GameError::InvalidParameter {
            name: "max_iters",
            reason: "need at least one bisection iteration".into(),
        });
    }
    Ok(())
}

/// Input validation for the columns-level solver entry points, mirroring
/// [`validate_inputs`] for callers that never materialise a [`Population`]
/// — applied shard by shard, reporting global client indices.
fn validate_view(
    view: &ShardView<'_>,
    budget: f64,
    options: &SolverOptions,
) -> Result<(), GameError> {
    for shard in &view.shards {
        for (len, _name) in [
            (shard.cost.len(), "cost"),
            (shard.value.len(), "value"),
            (shard.q_max.len(), "q_max"),
        ] {
            if len != shard.a2g2.len() {
                return Err(GameError::LengthMismatch {
                    expected: shard.a2g2.len(),
                    found: len,
                });
            }
        }
    }
    if view.is_empty() {
        return Err(GameError::InvalidParameter {
            name: "columns",
            reason: "need at least one client".into(),
        });
    }
    validate_solver_knobs(budget, options)?;
    for (cols, &offset) in view.shards.iter().zip(&view.offsets) {
        for i in 0..cols.len() {
            let valid = cols.a2g2[i].is_finite()
                && cols.a2g2[i] > 0.0
                && cols.cost[i].is_finite()
                && cols.cost[i] > 0.0
                && cols.value[i].is_finite()
                && cols.value[i] >= 0.0
                && cols.q_max[i].is_finite()
                && cols.q_max[i] > options.q_min;
            if !valid {
                return Err(GameError::InvalidParameter {
                    name: "columns",
                    reason: format!(
                        "client {} invalid: a2g2={}, cost={}, value={}, q_max={} (need positives and q_max > q_min)",
                        offset + i, cols.a2g2[i], cols.cost[i], cols.value[i], cols.q_max[i]
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Solve Stage I along the KKT path (the fast solver).
///
/// # Errors
///
/// Returns [`GameError`] for invalid inputs; the solver itself is total —
/// budgets below the floor spend saturate at `q_min` and budgets above the
/// saturation spend return the all-`q_max` profile with `saturated = true`.
pub fn solve_kkt(
    population: &Population,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
) -> Result<StageOneSolution, GameError> {
    validate_inputs(population, budget, options)?;
    let cols = population.columns();
    Ok(solve_kkt_view_unchecked(&ShardView::single(&cols), bound, budget, options, None)?.0)
}

/// Which Stage-I solver path produced a solution.
///
/// The exact chunked solver is the default and the certifier; the
/// threshold-indexed fast path is opt-in and demotes itself to
/// [`SolverMode::ThresholdIndexFallback`] whenever its certification
/// fails, in which case the returned solution is the exact solver's,
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverMode {
    /// The exact chunked λ-bisection (O(N) per probe, bit-pinned).
    Exact,
    /// The threshold-indexed active-set fast path (O(log N) per probe),
    /// certified against exact spends and the Theorem-2 residual.
    ThresholdIndex,
    /// The fast path was requested but certification failed (or the
    /// index was unusable); the exact solver produced the result.
    ThresholdIndexFallback,
}

impl SolverMode {
    /// Stable snake_case name used in BENCH records and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolverMode::Exact => "exact",
            SolverMode::ThresholdIndex => "threshold_index",
            SolverMode::ThresholdIndexFallback => "threshold_index_fallback",
        }
    }
}

impl std::fmt::Display for SolverMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostics of one KKT solve: where on the path it landed and how the
/// budget bisection ran. The incremental pricing service's warm-start
/// contract — bit-identical prices, fewer iterations — is expressed and
/// verified in these numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KktDiagnostics {
    /// The path parameter `t = 1/λ` the profile was materialised at (the
    /// natural warm-start hint for the next solve of a perturbed
    /// population).
    pub t_star: f64,
    /// Midpoint iterations of the budget bisection (0 for saturated or
    /// endpoint-clamped solves).
    pub bisect_iterations: usize,
    /// Spend-curve probes, counted at the evaluation site: the saturation
    /// screen, the bisection endpoints and midpoints, any warm-start
    /// verification probes, and — on the fast path — the exact
    /// certification probes. The fast path's materialised spend is one
    /// side of its certificate (and its saturation screen) but not a
    /// probe: it is not counted.
    pub bisect_evaluations: usize,
    /// Dyadic depth of the bracket the bisection started from (0 = cold).
    pub warm_start_depth: usize,
    /// Which solver path produced the solution.
    pub solver_mode: SolverMode,
    /// Probe-phase work in per-client spend-evaluation units: the exact
    /// solver pays `N` per probe; the fast path pays
    /// [`ActiveSetIndex::probe_cost`] (≈ `2·log₂ N`) per modelled probe
    /// plus `N` for each exact certification probe — one per band tried,
    /// since the materialised spend (not counted) closes the other side.
    /// Fallback solves include the wasted fast-phase work.
    pub probe_evaluations: u64,
    /// Nanoseconds spent (re)building or patching the threshold index
    /// for this solve (0 for the exact path and for solves reusing a
    /// caller-held index untouched).
    pub index_rebuild_ns: u64,
    /// Index segments re-sorted for this solve: the whole segment list
    /// on a cold build, only the dirty segments on an incremental patch,
    /// 0 when the index was reused or the exact path ran. Callers
    /// holding their own index (the pricing service) fill this from
    /// [`crate::active_set::PatchStats`].
    pub index_segments_rebuilt: u64,
    /// Clean segments re-sorted only because scale drift reordered
    /// their thresholds (patch "repairs" — no membership change).
    pub index_segments_repaired: u64,
    /// Segments reused verbatim by an incremental patch (zero sort
    /// work).
    pub index_segments_reused: u64,
}

impl KktDiagnostics {
    /// Record this solve into `recorder`: the per-mode solve counters,
    /// the probe/iteration totals, the solve wall time, and — when this
    /// solve built its own index — the index-build span.
    ///
    /// The `_observed` solver entry points call this once per solve;
    /// callers holding their own diagnostics (e.g. bench bins) can call
    /// it directly so every surface feeds the same counters.
    pub fn record_solve<R: Recorder + ?Sized>(&self, recorder: &R, solve_ns: u64) {
        recorder.add(Metric::SolverSolves, 1);
        let mode_metric = match self.solver_mode {
            SolverMode::Exact => Metric::SolverExactSolves,
            SolverMode::ThresholdIndex => Metric::SolverFastSolves,
            SolverMode::ThresholdIndexFallback => Metric::SolverFallbackSolves,
        };
        recorder.add(mode_metric, 1);
        recorder.add(Metric::SolverProbeEvaluations, self.probe_evaluations);
        recorder.add(
            Metric::SolverBisectIterations,
            self.bisect_iterations as u64,
        );
        recorder.observe(Metric::SolverSolveNs, solve_ns);
        if self.index_rebuild_ns > 0 {
            recorder.add(Metric::SolverIndexBuilds, 1);
            recorder.observe(Metric::SolverIndexBuildNs, self.index_rebuild_ns);
        }
    }
}

/// [`solve_kkt`] on pre-extracted [`PopulationColumns`] — the sweep/service
/// entry point that keeps the columns alive across many solves.
///
/// # Errors
///
/// Returns [`GameError`] for invalid inputs (mismatched column lengths,
/// non-finite budget, a client with `q_max <= q_min`, or non-positive
/// `a2g2`/`cost` entries).
pub fn solve_kkt_columns(
    cols: &PopulationColumns,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
) -> Result<StageOneSolution, GameError> {
    let view = ShardView::single(cols);
    validate_view(&view, budget, options)?;
    Ok(solve_kkt_view_unchecked(&view, bound, budget, options, None)?.0)
}

/// [`solve_kkt_columns`] over a slice of shard column-sets: each λ-probe
/// evaluates the shards' partial spends and merges them in shard order, so
/// the result is **bit-identical** to the flat solve over
/// [`ShardedPopulation::concat`] for any shard count and thread count —
/// the contract that lets shards live on independent workers.
///
/// # Errors
///
/// Same conditions as [`solve_kkt_columns`], reported with global client
/// indices.
pub fn solve_kkt_sharded(
    population: &ShardedPopulation,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
) -> Result<StageOneSolution, GameError> {
    let view = ShardView::of(population);
    validate_view(&view, budget, options)?;
    Ok(solve_kkt_view_unchecked(&view, bound, budget, options, None)?.0)
}

/// [`solve_kkt_sharded`] with an optional warm-start hint and solve
/// diagnostics — the sharded counterpart of [`solve_kkt_columns_hinted`],
/// with the same bit-identity guarantee for any hint.
///
/// # Errors
///
/// Same conditions as [`solve_kkt_columns`].
pub fn solve_kkt_sharded_hinted(
    population: &ShardedPopulation,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    hint: Option<f64>,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let view = ShardView::of(population);
    validate_view(&view, budget, options)?;
    solve_kkt_view_unchecked(&view, bound, budget, options, hint)
}

/// [`solve_kkt_sharded_hinted`] recording solve metrics into `recorder`.
///
/// The solve itself is byte-for-byte the unobserved one — the recorder is
/// only fed afterwards from the diagnostics plus a [`Stopwatch`] span, so
/// the bit-identity contract holds for any recorder.
///
/// # Errors
///
/// Same conditions as [`solve_kkt_columns`].
pub fn solve_kkt_sharded_hinted_observed<R: Recorder + ?Sized>(
    population: &ShardedPopulation,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    hint: Option<f64>,
    recorder: &R,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let view = ShardView::of(population);
    validate_view(&view, budget, options)?;
    let watch = Stopwatch::start();
    let (solution, diagnostics) = solve_kkt_view_unchecked(&view, bound, budget, options, hint)?;
    diagnostics.record_solve(recorder, watch.elapsed_ns());
    Ok((solution, diagnostics))
}

/// [`solve_kkt_columns`] with an optional warm-start hint, returning solve
/// diagnostics alongside the solution.
///
/// `hint` is a guess at the path parameter `t = 1/λ` — typically
/// [`KktDiagnostics::t_star`] of the previous solve of a slightly different
/// population. The budget bisection descends its dyadic bracket tree toward
/// the hint and verifies containment before trusting it
/// ([`fedfl_num::solve::bisect_monotone_instrumented`]), so the returned
/// solution is **bit-identical** to the cold [`solve_kkt_columns`] result
/// for any hint; a good hint only removes bisection iterations, a useless
/// one falls back to the full bracket.
///
/// # Errors
///
/// Same conditions as [`solve_kkt_columns`].
pub fn solve_kkt_columns_hinted(
    cols: &PopulationColumns,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    hint: Option<f64>,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let view = ShardView::single(cols);
    validate_view(&view, budget, options)?;
    solve_kkt_view_unchecked(&view, bound, budget, options, hint)
}

fn solve_kkt_view_unchecked(
    view: &ShardView<'_>,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    hint: Option<f64>,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let n = view.len();
    let aor = bound.alpha_over_r();
    let threads = options.config.n_threads;
    // t needed for every client to hit its cap.
    let t_hi = saturation_t(view, aor);

    // The λ-evaluation: per-shard partial spends merged in shard order,
    // O(N / threads) per probe, materialising no per-client buffers.
    // Probes are counted here, at the evaluation site, so the saturation
    // screen and every bisection probe land in one counter (the
    // bisection's own memo never calls back on a cache hit, so each count
    // is a real O(N) sweep).
    let probes = Cell::new(0u64);
    let spend_at = |t: f64| {
        probes.set(probes.get() + 1);
        path_spend(view, aor, options.q_min, t, threads)
    };

    let (t_used, lambda, saturated, stats) = if spend_at(t_hi) <= budget {
        // Whole population affordable at the caps: budget slack.
        (t_hi, None, true, BisectStats::default())
    } else {
        let (t_star, stats) = bisect_monotone_instrumented(
            spend_at,
            budget,
            0.0,
            t_hi,
            options.config.tolerance,
            options.config.max_iters,
            hint,
        )?;
        let lambda = if t_star > 0.0 {
            Some(1.0 / t_star)
        } else {
            None
        };
        (t_star, lambda, false, stats)
    };
    // Materialise the profile and prices once, into buffers filled in
    // parallel chunks.
    let mut q = vec![0.0f64; n];
    fill_path_profile(view, aor, options.q_min, t_used, &mut q, threads);
    let mut prices = vec![0.0f64; n];
    fill_prices(view, aor, &q, &mut prices, threads);
    if let Some(bad) = prices.iter().position(|p| !p.is_finite()) {
        return Err(GameError::SolverFailed {
            solver: "kkt",
            reason: format!("non-finite price for client {bad}"),
        });
    }
    let spent = profile_spend(view, aor, &q, threads);
    Ok((
        StageOneSolution {
            q,
            prices,
            spent,
            lambda,
            saturated,
        },
        KktDiagnostics {
            t_star: t_used,
            bisect_iterations: stats.iterations,
            bisect_evaluations: probes.get() as usize,
            warm_start_depth: stats.start_depth,
            solver_mode: SolverMode::Exact,
            probe_evaluations: probes.get() * n as u64,
            index_rebuild_ns: 0,
            index_segments_rebuilt: 0,
            index_segments_repaired: 0,
            index_segments_reused: 0,
        },
    ))
}

/// Clients sampled by the fast path's exact Theorem-2 residual gate.
const FAST_RESIDUAL_SAMPLE: usize = 1_024;
/// Seed of the residual gate's deterministic sample stream.
const FAST_RESIDUAL_SEED: u64 = 0xFA57;
/// Relative half-widths of the exact bracket-certificate bands, widened
/// ×100 per retry before the fast path gives up and falls back.
const CERT_BANDS: [f64; 3] = [1e-9, 1e-7, 1e-5];

/// [`solve_kkt_columns`] through the threshold-indexed active-set fast
/// path (`SolverMode::ThresholdIndex`).
///
/// The budget bisection probes the O(log N) spend *model* of an
/// [`ActiveSetIndex`] built for this call instead of the O(N) exact
/// sweep. The root t̂ it finds is then **certified** against the exact
/// solver's ground truth:
///
/// 1. an exact monotone bracket certificate. The profile is materialised
///    at t̂ first, and its realised spend is bit for bit the exact spend
///    at t̂ (same per-client term, same chunk tree). One exact probe per
///    band of [`CERT_BANDS`] tried, on the far side of the budget,
///    closes the bracket: `spend(t̂) ≤ B ≤ spend(t̂ + ε)`, or
///    `spend(t̂ − ε) ≤ B < spend(t̂)`. The saturation screen and a
///    floored root read the same materialised spend instead of probing;
/// 2. the exact sampled Theorem-2 residual of the materialised profile
///    must stay within the solver tolerance.
///
/// A solve certified in the first band therefore pays one O(N) exact
/// probe plus the materialisation it needs anyway; a saturated one pays
/// only the materialisation.
///
/// Any violation (or an unusable/degenerate index) demotes the solve to
/// the exact path — the returned solution is then bit-identical to
/// [`solve_kkt_columns_hinted`]'s, flagged `ThresholdIndexFallback`.
/// Certified fast solutions are *not* bit-pinned to the exact solver:
/// the index's reordered summation and truncated value series land the
/// bisection on a root within the certificate band of the exact root,
/// not on the same bits. The exact solver remains the default and the
/// goldens' reference.
///
/// # Errors
///
/// Same conditions as [`solve_kkt_columns`].
pub fn solve_kkt_columns_fast(
    cols: &PopulationColumns,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let view = ShardView::single(cols);
    validate_view(&view, budget, options)?;
    let build_watch = Stopwatch::start();
    let index = ActiveSetIndex::from_columns(cols, bound.alpha_over_r(), options.q_min);
    let index_rebuild_ns = build_watch.elapsed_ns();
    let (solution, mut diagnostics) = solve_kkt_view_fast(
        &view,
        bound,
        budget,
        options,
        &index,
        index_rebuild_ns,
        None,
        &NoopRecorder,
    )?;
    diagnostics.index_segments_rebuilt = index.segment_count() as u64;
    Ok((solution, diagnostics))
}

/// [`solve_kkt_columns_fast`] over shard column-sets: per-shard threshold
/// segments are built in parallel and merged (a build bit-identical to
/// the flat index for any shard or thread count), then the solve runs the
/// same certify-or-fallback contract.
///
/// # Errors
///
/// Same conditions as [`solve_kkt_columns`].
pub fn solve_kkt_sharded_fast(
    population: &ShardedPopulation,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let view = ShardView::of(population);
    validate_view(&view, budget, options)?;
    let build_watch = Stopwatch::start();
    let index = ActiveSetIndex::build_sharded_threaded(
        population.shards(),
        bound.alpha_over_r(),
        options.q_min,
        options.config.n_threads,
    );
    let index_rebuild_ns = build_watch.elapsed_ns();
    let (solution, mut diagnostics) = solve_kkt_view_fast(
        &view,
        bound,
        budget,
        options,
        &index,
        index_rebuild_ns,
        None,
        &NoopRecorder,
    )?;
    diagnostics.index_segments_rebuilt = index.segment_count() as u64;
    Ok((solution, diagnostics))
}

/// [`solve_kkt_sharded_fast`] against a caller-maintained index — the
/// pricing service's warm re-solve entry point, where the index is reused
/// across budget-only updates and only rebuilt on churn.
///
/// The index must have been built over exactly this population at this
/// `α/R` and `q_min`; a stale or mismatched index is detected (length,
/// parameter bits, degeneracy) and demoted to the exact fallback rather
/// than trusted. `hint` warm-starts the model bisection just like the
/// exact solver's hinted entry points.
///
/// # Errors
///
/// Same conditions as [`solve_kkt_columns`].
pub fn solve_kkt_sharded_fast_with_index(
    population: &ShardedPopulation,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    index: &ActiveSetIndex,
    hint: Option<f64>,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let view = ShardView::of(population);
    validate_view(&view, budget, options)?;
    solve_kkt_view_fast(&view, bound, budget, options, index, 0, hint, &NoopRecorder)
}

/// [`solve_kkt_sharded_fast_with_index`] recording solve metrics — the
/// per-mode counters, probe totals, certification-band outcomes and the
/// solve span — into `recorder`. The solve is byte-for-byte the
/// unobserved one for any recorder.
///
/// # Errors
///
/// Same conditions as [`solve_kkt_columns`].
pub fn solve_kkt_sharded_fast_with_index_observed<R: Recorder + ?Sized>(
    population: &ShardedPopulation,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    index: &ActiveSetIndex,
    hint: Option<f64>,
    recorder: &R,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let view = ShardView::of(population);
    validate_view(&view, budget, options)?;
    let watch = Stopwatch::start();
    let (solution, diagnostics) =
        solve_kkt_view_fast(&view, bound, budget, options, index, 0, hint, recorder)?;
    diagnostics.record_solve(recorder, watch.elapsed_ns());
    Ok((solution, diagnostics))
}

/// The certify-or-fallback core of the fast path: model bisection,
/// materialisation at the candidate root, then the one-sided exact
/// certificate of [`solve_kkt_columns_fast`] — the materialised spend is
/// the near end of the bracket, one exact probe per band the far end.
/// `index_rebuild_ns` is reported through the diagnostics untouched
/// (0 = reused index). `recorder` only receives certification outcomes
/// (band hits, failures, residual rejects) — it never influences the
/// solve.
#[allow(clippy::too_many_arguments)]
fn solve_kkt_view_fast<R: Recorder + ?Sized>(
    view: &ShardView<'_>,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    index: &ActiveSetIndex,
    index_rebuild_ns: u64,
    hint: Option<f64>,
    recorder: &R,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let n = view.len();
    let aor = bound.alpha_over_r();
    let threads = options.config.n_threads;
    // A usable index describes exactly this population at exactly these
    // solver knobs; anything else would certify against the wrong curve.
    let index_usable = index.len() == n
        && index.aor().to_bits() == aor.to_bits()
        && index.q_min().to_bits() == options.q_min.to_bits()
        && !index.is_degenerate()
        && index.bracket_hi().is_finite();
    let model_probes = Cell::new(0u64);
    let exact_probes = Cell::new(0u64);

    let fast: Option<(StageOneSolution, BisectStats, f64)> = 'fast: {
        if !index_usable {
            break 'fast None;
        }
        let exact_spend = |t: f64| {
            exact_probes.set(exact_probes.get() + 1);
            path_spend(view, aor, options.q_min, t, threads)
        };
        // Materialise exactly, as the exact solver does. The realised
        // spend is bit-identical to an exact probe at `t` (same
        // per-client term, same chunk tree), so it is one side of every
        // certificate below.
        let mut q = vec![0.0f64; n];
        let mut materialise = |t: f64| {
            fill_path_profile(view, aor, options.q_min, t, &mut q, threads);
            profile_spend(view, aor, &q, threads)
        };
        let t_hi = index.bracket_hi();

        // O(1) saturation screen, certified by the materialised spend.
        let saturated_spent = (index.saturated_spend() <= budget).then(|| materialise(t_hi));
        let (t_used, lambda, saturated, stats, spent) = match saturated_spent {
            Some(spent) if spent <= budget => (t_hi, None, true, BisectStats::default(), spent),
            _ => {
                let model_spend = |t: f64| {
                    model_probes.set(model_probes.get() + 1);
                    index.spend(t)
                };
                let Ok((t_hat, stats)) = bisect_monotone_instrumented(
                    model_spend,
                    budget,
                    0.0,
                    t_hi,
                    options.config.tolerance,
                    options.config.max_iters,
                    hint,
                ) else {
                    break 'fast None;
                };
                let spent = materialise(t_hat);
                if t_hat <= 0.0 {
                    // Floored root: legitimate only if the exact floor
                    // spend already exhausts the budget.
                    if spent >= budget {
                        (t_hat, None, false, stats, spent)
                    } else {
                        break 'fast None;
                    }
                } else {
                    // Exact bracket certificate: monotonicity of the
                    // exact spend pins the exact root between t̂ and one
                    // exact probe ε away on the far side of the budget.
                    let mut certified = false;
                    for (band_no, &band) in CERT_BANDS.iter().enumerate() {
                        let eps = (band * t_hat).max(options.config.tolerance);
                        let closes = match spent.partial_cmp(&budget) {
                            Some(Ordering::Greater) => exact_spend(t_hat - eps) <= budget,
                            Some(_) => exact_spend(t_hat + eps) >= budget,
                            None => false,
                        };
                        if closes {
                            recorder.add(Metric::cert_band_hit(band_no), 1);
                            certified = true;
                            break;
                        }
                    }
                    if !certified {
                        recorder.add(Metric::SolverCertFailures, 1);
                        break 'fast None;
                    }
                    (t_hat, Some(1.0 / t_hat), false, stats, spent)
                }
            }
        };

        let mut prices = vec![0.0f64; n];
        fill_prices(view, aor, &q, &mut prices, threads);
        if prices.iter().any(|p| !p.is_finite()) {
            // Let the exact path produce its own (identical) diagnosis.
            break 'fast None;
        }
        let solution = StageOneSolution {
            q,
            prices,
            spent,
            lambda,
            saturated,
        };
        // Exact Theorem-2 residual gate on the materialised profile.
        let residual_ok = match theorem2_max_residual_view(
            view,
            bound,
            &solution,
            options.q_min,
            FAST_RESIDUAL_SAMPLE,
            FAST_RESIDUAL_SEED,
        ) {
            Some(residual) => residual <= options.config.tolerance.max(1e-9),
            None => true,
        };
        if !residual_ok {
            recorder.add(Metric::SolverResidualRejects, 1);
            break 'fast None;
        }
        Some((solution, stats, t_used))
    };

    let fast_phase_evaluations =
        model_probes.get() * index.probe_cost() + exact_probes.get() * n as u64;
    match fast {
        Some((solution, stats, t_used)) => Ok((
            solution,
            KktDiagnostics {
                t_star: t_used,
                bisect_iterations: stats.iterations,
                bisect_evaluations: (model_probes.get() + exact_probes.get()) as usize,
                warm_start_depth: stats.start_depth,
                solver_mode: SolverMode::ThresholdIndex,
                probe_evaluations: fast_phase_evaluations,
                index_rebuild_ns,
                index_segments_rebuilt: 0,
                index_segments_repaired: 0,
                index_segments_reused: 0,
            },
        )),
        None => {
            let (solution, mut diagnostics) =
                solve_kkt_view_unchecked(view, bound, budget, options, hint)?;
            diagnostics.solver_mode = SolverMode::ThresholdIndexFallback;
            diagnostics.index_rebuild_ns = index_rebuild_ns;
            diagnostics.probe_evaluations += fast_phase_evaluations;
            Ok((solution, diagnostics))
        }
    }
}

/// A cheap closed-form estimate of the KKT path parameter `t* = 1/λ*` at
/// which the path spend meets `budget` — the warm-start hint generator for
/// incremental re-solves.
///
/// Clients are split at the reference parameter `t_ref` (typically the
/// previous solve's [`KktDiagnostics::t_star`]) into cap-saturated and
/// interior sets. Saturated clients contribute their exact, `t`-independent
/// spend `C`; interior clients are modelled by the zero-value form of the
/// path, whose spend is `K · t^(2/3)` (exact for `v = 0`, relatively off by
/// `O(v/t)` otherwise). Solving `C + K·t^(2/3) = budget` in closed form and
/// refining the split once at the estimate costs a few `O(N)` passes —
/// cheap next to an exact bisection, whose every probe is `O(N)` too —
/// and lands within a handful of dyadic levels of the true root under
/// realistic churn. It does not pay off against the threshold-indexed
/// fast path, whose sub-linear model probes cost far less than these
/// passes; the pricing service refines its hint on the exact path only.
///
/// The result is *only a hint*: [`solve_kkt_columns_hinted`] verifies the
/// bracket it implies before trusting it, so a misprediction costs a few
/// probes, never correctness. Returns `None` when the model degenerates
/// (no interior clients at the split, or no budget left after `C`).
pub fn estimate_path_parameter(
    cols: &PopulationColumns,
    bound: &BoundParams,
    budget: f64,
    t_ref: f64,
    n_threads: usize,
) -> Option<f64> {
    estimate_path_parameter_view(&ShardView::single(cols), bound, budget, t_ref, n_threads)
}

/// [`estimate_path_parameter`] over shard column-sets (bit-identical to
/// the flat estimate over the concatenation, for any shard count).
pub fn estimate_path_parameter_sharded(
    population: &ShardedPopulation,
    bound: &BoundParams,
    budget: f64,
    t_ref: f64,
    n_threads: usize,
) -> Option<f64> {
    estimate_path_parameter_view(&ShardView::of(population), bound, budget, t_ref, n_threads)
}

fn estimate_path_parameter_view(
    view: &ShardView<'_>,
    bound: &BoundParams,
    budget: f64,
    t_ref: f64,
    n_threads: usize,
) -> Option<f64> {
    if view.is_empty() || !(t_ref.is_finite() && t_ref > 0.0) {
        return None;
    }
    let aor = bound.alpha_over_r();
    let coef = aor / 4.0;
    let mut t = t_ref;
    let mut estimate = None;
    for _ in 0..8 {
        let saturated_spend = view.sum(n_threads, |cols, range, _offset| {
            let mut acc = 0.0;
            for i in range {
                let t_sat =
                    cols.cost[i] * cols.q_max[i].powi(3) / (coef * cols.a2g2[i]) + cols.value[i];
                if t_sat <= t {
                    let q = cols.q_max[i];
                    acc += 2.0 * cols.cost[i] * q * q - cols.value[i] * aor * cols.a2g2[i] / q;
                }
            }
            acc
        });
        let remaining = budget - saturated_spend;
        if remaining <= 0.0 {
            // The split is too high: the clamped spend alone busts the
            // budget, so the root sits below — halve and retry.
            t *= 0.5;
            continue;
        }
        let interior_coefficient = view.sum(n_threads, |cols, range, _offset| {
            let mut acc = 0.0;
            for i in range {
                let t_sat =
                    cols.cost[i] * cols.q_max[i].powi(3) / (coef * cols.a2g2[i]) + cols.value[i];
                if t_sat > t {
                    let ka = coef * cols.a2g2[i];
                    acc += 2.0 * cols.cost[i].cbrt() * (ka * ka).cbrt();
                }
            }
            acc
        });
        if interior_coefficient.is_nan() || interior_coefficient <= 0.0 {
            // Everyone saturated with budget to spare: the slack regime,
            // where the solver never bisects anyway.
            break;
        }
        let ratio = remaining / interior_coefficient;
        let refined = ratio * ratio.sqrt(); // ratio^{3/2}
        if !(refined.is_finite() && refined > 0.0) {
            break;
        }
        let converged = (refined - t).abs() <= 1e-3 * t;
        estimate = Some(refined);
        t = refined;
        if converged {
            break;
        }
    }
    estimate
}

/// Theorem 2 spot check directly on solver columns: the maximum relative
/// deviation of the invariant `(4R/α)·c_n q_n³/a_n²G_n² + v_n` from `1/λ*`
/// over up to `sample` clients drawn deterministically from `seed` (with
/// replacement), skipping floored/capped clients. `q_min` is the floor
/// the solution was solved at ([`SolverOptions::q_min`]): clients within
/// 1% of it count as floored.
///
/// This is the columns-level counterpart of
/// [`crate::equilibrium::StackelbergEquilibrium::theorem2_max_residual`];
/// the pricing service asserts it after every incremental re-solve. Returns
/// `None` when the solution has no interior KKT multiplier or no sampled
/// client is interior.
pub fn theorem2_max_residual_columns(
    cols: &PopulationColumns,
    bound: &BoundParams,
    solution: &StageOneSolution,
    q_min: f64,
    sample: usize,
    seed: u64,
) -> Option<f64> {
    theorem2_max_residual_view(
        &ShardView::single(cols),
        bound,
        solution,
        q_min,
        sample,
        seed,
    )
}

/// [`theorem2_max_residual_columns`] over shard column-sets — the sampled
/// indices and residuals are identical to the flat check over the
/// concatenation, for any shard count.
pub fn theorem2_max_residual_sharded(
    population: &ShardedPopulation,
    bound: &BoundParams,
    solution: &StageOneSolution,
    q_min: f64,
    sample: usize,
    seed: u64,
) -> Option<f64> {
    theorem2_max_residual_view(
        &ShardView::of(population),
        bound,
        solution,
        q_min,
        sample,
        seed,
    )
}

fn theorem2_max_residual_view(
    view: &ShardView<'_>,
    bound: &BoundParams,
    solution: &StageOneSolution,
    q_min: f64,
    sample: usize,
    seed: u64,
) -> Option<f64> {
    let target = 1.0 / solution.lambda?;
    let coef = 4.0 / bound.alpha_over_r();
    let n = view.len().min(solution.q.len());
    if n == 0 {
        return None;
    }
    let mut rng = fedfl_num::rng::substream(seed, 0x7_4832);
    let mut worst: Option<f64> = None;
    for _ in 0..sample {
        let i = (rand::Rng::random::<u64>(&mut rng) % n as u64) as usize;
        let (cols, local) = view.locate(i);
        let q = solution.q[i];
        if q > q_min * 1.01 && q < cols.q_max[local] * 0.999 {
            let invariant =
                coef * cols.cost[local] * q.powi(3) / cols.a2g2[local] + cols.value[local];
            let residual = (invariant - target).abs() / target.abs().max(1.0);
            worst = Some(worst.map_or(residual, |w| w.max(residual)));
        }
    }
    worst
}

/// Solve Stage I with the paper's literal two-step `M`-search on P1″.
///
/// For each candidate `M` the inner convex problem is solved by a
/// quadratic-penalty projected-gradient method (the CVX substitute of
/// DESIGN.md §3); the outer linear search scans
/// `M ∈ [Σ c_n q_min², Σ c_n q_{n,max}²]` with `options.m_grid_steps` cells
/// and refines the best cell by golden section.
///
/// # Errors
///
/// Returns [`GameError::SolverFailed`] if no feasible `M` exists (e.g. the
/// budget cannot even cover the `q_min` floor).
pub fn solve_m_search(
    population: &Population,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
) -> Result<StageOneSolution, GameError> {
    validate_inputs(population, budget, options)?;
    let cols = population.columns();
    solve_m_search_view(&ShardView::single(&cols), bound, budget, options)
}

/// [`solve_m_search`] over shard column-sets: the P1″ inner loop's
/// reductions and gradient fills run as the same two-level shard merge as
/// the KKT solver, so the search is bit-identical to the flat
/// [`solve_m_search`] over the concatenated population for any shard
/// count.
///
/// # Errors
///
/// Same conditions as [`solve_m_search`].
pub fn solve_m_search_sharded(
    population: &ShardedPopulation,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
) -> Result<StageOneSolution, GameError> {
    let view = ShardView::of(population);
    validate_view(&view, budget, options)?;
    if options.m_grid_steps < 2 {
        return Err(GameError::InvalidParameter {
            name: "m_grid_steps",
            reason: "need at least 2 grid steps".into(),
        });
    }
    solve_m_search_view(&view, bound, budget, options)
}

fn solve_m_search_view(
    view: &ShardView<'_>,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
) -> Result<StageOneSolution, GameError> {
    let n = view.len();
    let threads = options.config.n_threads;
    let aor = bound.alpha_over_r();
    // Precomputed intrinsic gains `K_n = v_n (α/R) a_n²G_n²`: every inner
    // pass below is a shard-merged reduction or fill over the view's
    // columns, so one PGD iteration strides each column once and allocates
    // no per-client vectors.
    let mut gains = vec![0.0f64; n];
    view.fill(&mut gains, threads, |cols, local_start, _offset, slice| {
        for (k, g) in slice.iter_mut().enumerate() {
            let i = local_start + k;
            *g = cols.value[i] * aor * cols.a2g2[i];
        }
    });
    let lo: Vec<f64> = vec![options.q_min; n];
    let mut hi = vec![0.0f64; n];
    view.fill(&mut hi, threads, |cols, local_start, _offset, slice| {
        slice.copy_from_slice(&cols.q_max[local_start..local_start + slice.len()]);
    });
    let bounds_box = BoxConstraints::new(lo.clone(), hi.clone())?;
    // `M(q) = Σ c_n q_n²` and the realised spend, as shard-merged
    // reductions.
    let m_of = |q: &[f64]| {
        view.sum(threads, |cols, range, offset| {
            let mut acc = 0.0;
            for i in range {
                let qn = q[offset + i];
                acc += cols.cost[i] * qn * qn;
            }
            acc
        })
    };
    let spend_of = |q: &[f64]| profile_spend(view, aor, q, threads);
    let variance_of = |q: &[f64]| {
        view.sum(threads, |cols, range, offset| {
            let mut acc = 0.0;
            for i in range {
                acc += cols.a2g2[i] * (1.0 / q[offset + i] - 1.0);
            }
            acc
        })
    };
    let m_lo = m_of(&lo);
    let m_hi = m_of(&hi);

    let pgd = PgdConfig {
        max_iter: 8_000,
        tol: options.config.tolerance,
        ..Default::default()
    };
    // Constraints are normalised to O(1), so feasibility is relative.
    let feas_tol = 1e-6;
    let m_scale = m_hi.max(1.0);
    let budget_scale = budget.abs().max(m_hi).max(1.0);

    // Inner solve for a fixed M with an explicit warm start; returns the
    // variance-term value and the solution, or None if infeasible.
    let inner = |m: f64, x0: &[f64]| -> Option<(f64, Vec<f64>)> {
        let mut constraints: Vec<(ConstraintKind, ConstraintFn<'_>)> = vec![
            (
                ConstraintKind::Inequality,
                Box::new(|q: &[f64], g: &mut [f64]| {
                    let gain_term = chunked_sum(n, threads, |range| {
                        let mut acc = 0.0;
                        for i in range {
                            acc += gains[i] / q[i];
                        }
                        acc
                    });
                    chunked_fill(g, threads, |start, slice| {
                        for (k, gi) in slice.iter_mut().enumerate() {
                            let i = start + k;
                            *gi = gains[i] / (q[i] * q[i]) / budget_scale;
                        }
                    });
                    (2.0 * m - budget - gain_term) / budget_scale
                }),
            ),
            (
                ConstraintKind::Equality,
                Box::new(|q: &[f64], g: &mut [f64]| {
                    let val = m_of(q) - m;
                    view.fill(g, threads, |cols, local_start, offset, slice| {
                        for (k, gi) in slice.iter_mut().enumerate() {
                            let i = local_start + k;
                            *gi = 2.0 * cols.cost[i] * q[offset + i] / m_scale;
                        }
                    });
                    val / m_scale
                }),
            ),
        ];
        let result = penalty_minimize(
            |q: &[f64], g: &mut [f64]| {
                let val = variance_of(q);
                view.fill(g, threads, |cols, local_start, offset, slice| {
                    for (k, gi) in slice.iter_mut().enumerate() {
                        let i = local_start + k;
                        let qn = q[offset + i];
                        *gi = -cols.a2g2[i] / (qn * qn);
                    }
                });
                val
            },
            &mut constraints,
            x0,
            &bounds_box,
            &pgd,
            feas_tol,
        )
        .ok()?;
        // Check feasibility of the returned point.
        let q = result.x;
        let m_actual = m_of(&q);
        let spent_actual = spend_of(&q);
        if (m_actual - m).abs() / m_scale > 1e-3 || (spent_actual - budget) / budget_scale > 1e-3 {
            return None;
        }
        Some((variance_of(&q), q))
    };

    // Linear search over M with a fixed step ε₀ (the paper's outer loop),
    // sweeping from large M to small and warm-starting each cell from its
    // neighbour's solution.
    let steps = options.m_grid_steps;
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut warm: Vec<f64> = hi.clone();
    let mut x0 = vec![0.0f64; n];
    for k in (0..=steps).rev() {
        let m = m_lo + (m_hi - m_lo) * k as f64 / steps as f64;
        // Rescale the warm start towards the target M for a feasible-ish x0.
        let m_warm = m_of(&warm);
        let ratio = (m / m_warm.max(1e-300)).sqrt().clamp(0.1, 10.0);
        chunked_fill(&mut x0, threads, |start, slice| {
            for (j, xj) in slice.iter_mut().enumerate() {
                let i = start + j;
                *xj = (warm[i] * ratio).clamp(lo[i], hi[i]);
            }
        });
        if let Some((value, q)) = inner(m, &x0) {
            warm.copy_from_slice(&q);
            if best.as_ref().map(|(v, _)| value < *v).unwrap_or(true) {
                best = Some((value, q));
            }
        }
    }
    let (_, q) = best.ok_or(GameError::SolverFailed {
        solver: "m_search",
        reason: "no feasible M found".into(),
    })?;
    let mut prices = vec![0.0f64; n];
    fill_prices(view, aor, &q, &mut prices, threads);
    if let Some(bad) = prices.iter().position(|p| !p.is_finite()) {
        return Err(GameError::SolverFailed {
            solver: "m_search",
            reason: format!("non-finite price for client {bad}"),
        });
    }
    let spent = spend_of(&q);
    let saturated = q.iter().zip(&hi).all(|(&qi, &cap)| qi >= cap - 1e-6) && spent < budget - 1e-9;
    Ok(StageOneSolution {
        q,
        prices,
        spent,
        lambda: None,
        saturated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> Population {
        Population::builder()
            .weights(vec![0.4, 0.3, 0.2, 0.1])
            .g_squared(vec![9.0, 16.0, 25.0, 36.0])
            .costs(vec![30.0, 50.0, 70.0, 90.0])
            .values(vec![0.0, 2.0, 5.0, 10.0])
            .build()
            .unwrap()
    }

    fn bound() -> BoundParams {
        BoundParams::new(4000.0, 100.0, 1000).unwrap()
    }

    #[test]
    fn kkt_budget_is_tight_in_the_interior() {
        let p = population();
        let b = bound();
        let budget = 10.0;
        let sol = solve_kkt(&p, &b, budget, &SolverOptions::default()).unwrap();
        assert!(!sol.saturated);
        assert!(
            (sol.spent - budget).abs() < 1e-6,
            "spent {} vs budget {budget}",
            sol.spent
        );
        assert!(sol.lambda.unwrap() > 0.0);
        assert!(sol.q.iter().all(|&q| (Q_MIN..=1.0).contains(&q)));
    }

    #[test]
    fn kkt_saturates_with_huge_budget() {
        let p = population();
        let b = bound();
        let sol = solve_kkt(&p, &b, 1e9, &SolverOptions::default()).unwrap();
        assert!(sol.saturated);
        assert!(sol.q.iter().all(|&q| (q - 1.0).abs() < 1e-9));
        assert!(sol.spent < 1e9);
    }

    #[test]
    fn kkt_floors_with_tiny_budget() {
        let p = population();
        let b = bound();
        // Spend at the floor is negative (clients with value pay in), so a
        // deeply negative budget cannot be met: solver floors everyone.
        let sol = solve_kkt(&p, &b, -1e12, &SolverOptions::default()).unwrap();
        assert!(sol.q.iter().all(|&q| q <= Q_MIN * 1.01));
    }

    #[test]
    fn kkt_more_budget_means_more_participation_everywhere() {
        // Proposition 1: both q* and P* increase in B.
        let p = population();
        let b = bound();
        let small = solve_kkt(&p, &b, 4.0, &SolverOptions::default()).unwrap();
        let large = solve_kkt(&p, &b, 16.0, &SolverOptions::default()).unwrap();
        for n in 0..p.len() {
            assert!(
                large.q[n] >= small.q[n] - 1e-9,
                "q[{n}] decreased with budget"
            );
            assert!(
                large.prices[n] >= small.prices[n] - 1e-9,
                "P[{n}] decreased with budget"
            );
        }
        let vt_small = small.variance_term(&p, &b);
        let vt_large = large.variance_term(&p, &b);
        assert!(vt_large < vt_small, "bound did not improve with budget");
    }

    #[test]
    fn kkt_satisfies_theorem2_invariant_for_interior_clients() {
        let p = population();
        let b = bound();
        let sol = solve_kkt(&p, &b, 10.0, &SolverOptions::default()).unwrap();
        // (4R/α) c q³ / (a²G²) + v must be constant over interior clients.
        let coef = 4.0 / b.alpha_over_r();
        let invariants: Vec<f64> = p
            .iter()
            .zip(&sol.q)
            .filter(|(c, &q)| q > Q_MIN * 1.01 && q < c.q_max * 0.999)
            .map(|(c, &q)| coef * c.cost * q.powi(3) / c.a2g2() + c.value)
            .collect();
        assert!(invariants.len() >= 2, "need interior clients for this test");
        let first = invariants[0];
        for inv in &invariants {
            assert!(
                (inv - first).abs() / first.abs().max(1.0) < 1e-6,
                "invariant broken: {invariants:?}"
            );
        }
    }

    #[test]
    fn kkt_prices_implement_q_as_best_responses() {
        use crate::response::best_response;
        let p = population();
        let b = bound();
        let sol = solve_kkt(&p, &b, 10.0, &SolverOptions::default()).unwrap();
        for (n, c) in p.iter().enumerate() {
            let q_br = best_response(c, &b, sol.prices[n]).unwrap();
            // Floored clients may best-respond below the floor; others match.
            if sol.q[n] > Q_MIN * 1.01 {
                assert!(
                    (q_br - sol.q[n]).abs() < 1e-6,
                    "client {n}: br {q_br} vs q* {}",
                    sol.q[n]
                );
            }
        }
    }

    #[test]
    fn m_search_agrees_with_kkt() {
        let p = population();
        let b = bound();
        let budget = 10.0;
        let kkt = solve_kkt(&p, &b, budget, &SolverOptions::default()).unwrap();
        let msearch = solve_m_search(
            &p,
            &b,
            budget,
            &SolverOptions {
                m_grid_steps: 40,
                ..Default::default()
            },
        )
        .unwrap();
        let v_kkt = kkt.variance_term(&p, &b);
        let v_m = msearch.variance_term(&p, &b);
        // The grid search is approximate; it must come close to the KKT
        // optimum and never beat it by more than numerical slack.
        assert!(v_m >= v_kkt - 1e-6, "m-search beat the KKT optimum");
        assert!(
            (v_m - v_kkt) / v_kkt.abs().max(1.0) < 0.05,
            "m-search too far from optimum: {v_m} vs {v_kkt}"
        );
        assert!(msearch.spent <= budget + 1e-3);
    }

    #[test]
    fn solver_rejects_bad_inputs() {
        let p = population();
        let b = bound();
        assert!(solve_kkt(&p, &b, f64::NAN, &SolverOptions::default()).is_err());
        let bad = SolverOptions {
            q_min: 0.0,
            ..Default::default()
        };
        assert!(solve_kkt(&p, &b, 10.0, &bad).is_err());
        let bad = SolverOptions {
            m_grid_steps: 1,
            ..Default::default()
        };
        assert!(solve_m_search(&p, &b, 10.0, &bad).is_err());
    }

    #[test]
    fn columns_solver_matches_population_solver_bitwise() {
        let p = population();
        let b = bound();
        let from_population = solve_kkt(&p, &b, 10.0, &SolverOptions::default()).unwrap();
        let from_columns =
            solve_kkt_columns(&p.columns(), &b, 10.0, &SolverOptions::default()).unwrap();
        assert_eq!(from_population, from_columns);
    }

    #[test]
    fn hinted_solver_is_bit_identical_and_skips_iterations() {
        let p = population();
        let b = bound();
        let cols = p.columns();
        let opts = SolverOptions::default();
        let (cold, cold_diag) = solve_kkt_columns_hinted(&cols, &b, 10.0, &opts, None).unwrap();
        for hint in [
            None,
            Some(cold_diag.t_star),
            Some(cold_diag.t_star * 1.001),
            Some(cold_diag.t_star * 0.5),
            Some(f64::NAN),
            Some(-1.0),
            Some(1e300),
        ] {
            let (warm, diag) = solve_kkt_columns_hinted(&cols, &b, 10.0, &opts, hint).unwrap();
            assert_eq!(warm, cold, "hint {hint:?}");
            assert!(
                diag.bisect_iterations <= cold_diag.bisect_iterations,
                "hint {hint:?}: {} > {}",
                diag.bisect_iterations,
                cold_diag.bisect_iterations
            );
        }
        let (_, exact) =
            solve_kkt_columns_hinted(&cols, &b, 10.0, &opts, Some(cold_diag.t_star)).unwrap();
        assert!(
            exact.warm_start_depth > 10,
            "depth {}",
            exact.warm_start_depth
        );
        assert!(exact.bisect_iterations < cold_diag.bisect_iterations / 2);
    }

    #[test]
    fn columns_solver_validates_inputs() {
        let p = population();
        let b = bound();
        let mut cols = p.columns();
        cols.cost.pop();
        assert!(solve_kkt_columns(&cols, &b, 10.0, &SolverOptions::default()).is_err());
        let mut cols = p.columns();
        cols.cost[1] = 0.0;
        assert!(solve_kkt_columns(&cols, &b, 10.0, &SolverOptions::default()).is_err());
        let mut cols = p.columns();
        cols.q_max[0] = Q_MIN / 2.0;
        assert!(solve_kkt_columns(&cols, &b, 10.0, &SolverOptions::default()).is_err());
        let empty = PopulationColumns {
            a2g2: vec![],
            cost: vec![],
            value: vec![],
            q_max: vec![],
        };
        assert!(solve_kkt_columns(&empty, &b, 10.0, &SolverOptions::default()).is_err());
        assert!(solve_kkt_columns(&p.columns(), &b, f64::NAN, &SolverOptions::default()).is_err());
    }

    #[test]
    fn path_parameter_estimate_lands_near_the_root() {
        use crate::population::{ParamDist, PopulationSpec};
        // A mostly-zero-value synthetic population: the closed-form model
        // is near-exact there, so the estimate must land within a few
        // dyadic levels of the true path parameter.
        let spec = PopulationSpec {
            value: ParamDist::Constant(0.0),
            ..PopulationSpec::table1_like()
        };
        let p = Population::synthesize(500, &spec, 11).unwrap();
        let b = bound();
        let opts = SolverOptions::default();
        let budget = path_budget(&p, &b, &opts, 0.4);
        let cols = p.columns();
        let (_, diag) = solve_kkt_columns_hinted(&cols, &b, budget, &opts, None).unwrap();
        // Start the split from a deliberately wrong reference.
        let estimate = estimate_path_parameter(&cols, &b, budget, diag.t_star * 3.0, 1).unwrap();
        let rel = (estimate - diag.t_star).abs() / diag.t_star;
        assert!(
            rel < 0.05,
            "estimate {estimate} vs t* {} ({rel})",
            diag.t_star
        );
        // Degenerate inputs give no estimate instead of nonsense.
        assert_eq!(
            estimate_path_parameter(&cols, &b, budget, f64::NAN, 1),
            None
        );
        assert_eq!(estimate_path_parameter(&cols, &b, budget, -1.0, 1), None);
        let empty = PopulationColumns {
            a2g2: vec![],
            cost: vec![],
            value: vec![],
            q_max: vec![],
        };
        assert_eq!(estimate_path_parameter(&empty, &b, budget, 1.0, 1), None);
        // A budget below any interior spend (here: deeply negative, while
        // every client's saturated/zero-value spend is non-negative)
        // degenerates the model.
        assert_eq!(
            estimate_path_parameter(&cols, &b, -1e18, diag.t_star, 1),
            None
        );
    }

    #[test]
    fn columns_residual_matches_equilibrium_residual() {
        use crate::equilibrium::StackelbergEquilibrium;
        let p = population();
        let b = bound();
        let sol = solve_kkt(&p, &b, 10.0, &SolverOptions::default()).unwrap();
        let via_columns =
            theorem2_max_residual_columns(&p.columns(), &b, &sol, Q_MIN, 100, 0).unwrap();
        let se = StackelbergEquilibrium::from_stage_one(sol, &p, &b, 10.0);
        let via_equilibrium = se.theorem2_max_residual(&p, &b, 100, 0).unwrap();
        assert_eq!(via_columns.to_bits(), via_equilibrium.to_bits());
        assert!(via_columns < 1e-6);
    }

    #[test]
    fn sharded_solver_is_bit_identical_to_flat_for_any_shard_count() {
        use crate::population::PopulationSpec;
        use fedfl_num::parallel::DEFAULT_CHUNK;
        // Enough clients for several chunks so shard boundaries genuinely
        // partition the reduction.
        let n = DEFAULT_CHUNK * 2 + 531;
        let p = Population::synthesize(n, &PopulationSpec::table1_like(), 5).unwrap();
        let b = bound();
        let budget = path_budget(&p, &b, &SolverOptions::default(), 0.4);
        let cols = p.columns();
        let flat = solve_kkt_columns(&cols, &b, budget, &SolverOptions::default()).unwrap();
        for shard_count in [1, 2, 7, 32] {
            let sharded = ShardedPopulation::from_columns(&cols, shard_count).unwrap();
            assert_eq!(
                path_budget_sharded(&sharded, &b, &SolverOptions::default(), 0.4).to_bits(),
                budget.to_bits(),
                "path budget drifted at shard_count {shard_count}"
            );
            for threads in [1, 3] {
                let opts = SolverOptions::with_threads(threads);
                let sol = solve_kkt_sharded(&sharded, &b, budget, &opts).unwrap();
                assert_eq!(sol, flat, "shard_count {shard_count} threads {threads}");
                let (hinted, diag) = solve_kkt_sharded_hinted(
                    &sharded,
                    &b,
                    budget,
                    &opts,
                    Some(flat.lambda.map(|l| 1.0 / l).unwrap()),
                )
                .unwrap();
                assert_eq!(hinted, flat, "hinted shard_count {shard_count}");
                assert!(diag.warm_start_depth > 0, "exact hint should verify deep");
            }
            // The sampled Theorem 2 check and the hint estimator agree
            // with their flat counterparts bit for bit.
            let flat_res = theorem2_max_residual_columns(&cols, &b, &flat, Q_MIN, 256, 3).unwrap();
            let shard_res =
                theorem2_max_residual_sharded(&sharded, &b, &flat, Q_MIN, 256, 3).unwrap();
            assert_eq!(flat_res.to_bits(), shard_res.to_bits());
            let t_star = 1.0 / flat.lambda.unwrap();
            let flat_est = estimate_path_parameter(&cols, &b, budget, t_star * 2.0, 1);
            let shard_est = estimate_path_parameter_sharded(&sharded, &b, budget, t_star * 2.0, 1);
            assert_eq!(
                flat_est.map(f64::to_bits),
                shard_est.map(f64::to_bits),
                "estimate drifted at shard_count {shard_count}"
            );
        }
    }

    #[test]
    fn materialised_spend_is_an_exact_probe_bit_for_bit() {
        // The fast path's certificate reads the realised spend of the
        // profile materialised at t̂ as the exact spend at t̂: the same
        // per-client term summed over the same chunk tree.
        use crate::population::PopulationSpec;
        let n = 3 * fedfl_num::parallel::DEFAULT_CHUNK + 517;
        let p = Population::synthesize(n, &PopulationSpec::table1_like(), 31).unwrap();
        let cols = p.columns();
        let aor = bound().alpha_over_r();
        let t_hi = saturation_t(&ShardView::single(&cols), aor);
        let mut parts = [false; 3];
        for shard_count in [1usize, 3, 8] {
            let sharded = ShardedPopulation::from_columns(&cols, shard_count).unwrap();
            let view = ShardView::of(&sharded);
            for threads in [1usize, 2] {
                for frac in [0.0, 1e-3, 0.05, 0.5, 1.0] {
                    let t = frac * t_hi;
                    let mut q = vec![0.0f64; n];
                    fill_path_profile(&view, aor, Q_MIN, t, &mut q, threads);
                    let realised = profile_spend(&view, aor, &q, threads);
                    let probed = path_spend(&view, aor, Q_MIN, t, threads);
                    assert_eq!(
                        realised.to_bits(),
                        probed.to_bits(),
                        "shards {shard_count} threads {threads} t {t}"
                    );
                    for (i, &qn) in q.iter().enumerate() {
                        let part = if qn == Q_MIN {
                            0
                        } else if qn == cols.q_max[i] {
                            2
                        } else {
                            1
                        };
                        parts[part] = true;
                    }
                }
            }
        }
        assert_eq!(parts, [true; 3], "floored, interior and saturated covered");
    }

    #[test]
    fn sharded_m_search_matches_flat() {
        let p = population();
        let b = bound();
        let flat = solve_m_search(&p, &b, 10.0, &SolverOptions::default()).unwrap();
        let sharded = ShardedPopulation::from(&p);
        let via_shards =
            solve_m_search_sharded(&sharded, &b, 10.0, &SolverOptions::default()).unwrap();
        assert_eq!(via_shards, flat);
        let bad = SolverOptions {
            m_grid_steps: 1,
            ..Default::default()
        };
        assert!(solve_m_search_sharded(&sharded, &b, 10.0, &bad).is_err());
        assert!(solve_m_search_sharded(&sharded, &b, f64::NAN, &SolverOptions::default()).is_err());
    }

    #[test]
    fn single_client_population_works() {
        let p = Population::builder()
            .weights(vec![1.0])
            .g_squared(vec![4.0])
            .costs(vec![50.0])
            .values(vec![10.0])
            .build()
            .unwrap();
        let b = bound();
        let sol = solve_kkt(&p, &b, 20.0, &SolverOptions::default()).unwrap();
        assert_eq!(sol.q.len(), 1);
        assert!(sol.q[0] > 0.0 && sol.q[0] <= 1.0);
        assert!(sol.spent <= 20.0 + 1e-6);
    }

    #[test]
    fn high_cost_interior_clients_get_higher_prices() {
        // Theorem 3 insight: with identical a²G² and v, the pricier client
        // to incentivise is the one with larger c.
        let p = Population::builder()
            .weights(vec![0.5, 0.5])
            .g_squared(vec![4.0, 4.0])
            .costs(vec![20.0, 80.0])
            .values(vec![10.0, 10.0])
            .build()
            .unwrap();
        let b = bound();
        let sol = solve_kkt(&p, &b, 25.0, &SolverOptions::default()).unwrap();
        assert!(!sol.saturated);
        assert!(
            sol.prices[1] > sol.prices[0],
            "higher-cost client should get the higher price: {:?}",
            sol.prices
        );
        assert!(
            sol.q[1] < sol.q[0],
            "higher-cost client should participate less: {:?}",
            sol.q
        );
    }
}
