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
//! # Entry points
//!
//! * [`solve_kkt`] and [`solve_m_search`] take a [`Population`] — the
//!   paper binaries' entry points.
//! * [`solve_kkt_columns`] is the one solver-column entry point (the
//!   pricing service, the workload replay, the scale harness). It takes
//!   [`PopulationColumns`], an optional warm-start hint, an optional
//!   caller-built [`ActiveSetIndex`] (`None` = the exact bisection,
//!   `Some` = the certified fast path) and a metric recorder, and returns
//!   the solution with its [`KktDiagnostics`].
//! * [`path_budget`], [`estimate_path_parameter`] and
//!   [`theorem2_max_residual`] are the budget, warm-hint and certification
//!   helpers around them.
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
use fedfl_num::parallel::{chunked_fill, chunked_reduce, chunked_sum};
use fedfl_num::solve::{
    bisect_monotone_instrumented, penalty_minimize, BisectStats, BoxConstraints, ConstraintFn,
    ConstraintKind, MonotoneFn, PgdConfig, WarmStart,
};
use fedfl_obs::{Metric, Recorder, Stopwatch};
use serde::{Deserialize, Serialize};
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
    /// (a warm search's replay counts the same levels against it). The
    /// cap remains a backstop against non-terminating spend callbacks, not
    /// a precision knob.
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
}

/// The path parameter `t` at which every client sits at its cap (plus a
/// relative epsilon so the saturated profile is strictly inside).
///
/// A chunked maximum: `f64::max` is exact and order-free, so the result
/// is the serial fold's for any thread count.
fn saturation_t(cols: &PopulationColumns, aor: f64, n_threads: usize) -> f64 {
    let cap_t =
        |i: usize| 4.0 / aor * cols.cost[i] * cols.q_max[i].powi(3) / cols.a2g2[i] + cols.value[i];
    chunked_reduce(
        cols.len(),
        n_threads,
        0.0f64,
        |range| range.map(cap_t).fold(0.0f64, f64::max),
        f64::max,
    ) * (1.0 + 1e-12)
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
    let aor = bound.alpha_over_r();
    let threads = options.config.n_threads;
    let t = frac.clamp(0.0, 1.0) * saturation_t(&cols, aor, threads);
    path_spend(&cols, aor, options.q_min, t, threads)
}

/// Relative margin `m = 2⁻⁴⁰` of [`clamp_screen`].
const CLAMP_SCREEN_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// The bound `x.cbrt().clamp(q_min, q_max)` returns, decided without a
/// cube root when `x` lies past it by a margin: `q_max` for
/// `x >= q_max³·(1 + m)`, `q_min` for `x <= q_min³·(1 − m)`, and `None`
/// in between.
///
/// The margin moves the cube root by ~2⁻⁴¹·⁶ relative (~1400 ulps or
/// more). libm's `cbrt` errs by a few ulps (~2⁻⁵⁰) and the computed cube
/// and margin product by about three more, so past the margin `cbrt(x)`
/// lies on the clamped side of the bound and the clamp returns exactly
/// that bound. Those rounding bounds hold for normal floats only, so a
/// bound whose computed cube is subnormal, zero or infinite is never
/// screened.
#[inline]
fn clamp_screen(x: f64, q_min: f64, q_max: f64) -> Option<f64> {
    let cap_cube = q_max * q_max * q_max;
    if cap_cube.is_normal() && x >= cap_cube * (1.0 + CLAMP_SCREEN_MARGIN) {
        return Some(q_max);
    }
    let floor_cube = q_min * q_min * q_min;
    (floor_cube.is_normal() && x <= floor_cube * (1.0 - CLAMP_SCREEN_MARGIN)).then_some(q_min)
}

/// `x.cbrt().clamp(q_min, q_max)`, bit for bit, with the cube root paid
/// only where [`clamp_screen`] cannot decide the bound.
#[inline]
fn clamped_cbrt(x: f64, q_min: f64, q_max: f64) -> f64 {
    clamp_screen(x, q_min, q_max).unwrap_or_else(|| x.cbrt().clamp(q_min, q_max))
}

/// Client `i`'s participation level on the KKT path at `t = 1/λ`:
/// `clamp(((α/4R)·a²G²·(t − v)/c)^{1/3})`, with `coef = α/4R`.
///
/// The per-client kernel of every exact pass. At the benchmark budgets
/// almost every client sits at its cap, and [`clamped_cbrt`] returns a
/// clamped client's bound without a cube root; interior clients still
/// get libm's `cbrt` bits.
#[inline]
fn path_q(cols: &PopulationColumns, coef: f64, q_min: f64, i: usize, t: f64) -> f64 {
    let slack = (t - cols.value[i]).max(0.0);
    clamped_cbrt(
        coef * cols.a2g2[i] * slack / cols.cost[i],
        q_min,
        cols.q_max[i],
    )
}

/// Client `i`'s payment `P(q)·q = 2cq² − K/q` at participation `q`, with
/// `K = v·(α/R)·a²G²`: the per-client term of every spend sum.
#[inline]
fn payment(cols: &PopulationColumns, aor: f64, i: usize, q: f64) -> f64 {
    2.0 * cols.cost[i] * q * q - cols.value[i] * aor * cols.a2g2[i] / q
}

/// Fused spend along the KKT path: `Σ P(q_n(t)) q_n(t)` evaluated without
/// materialising the profile — the λ-evaluation inside every bisection
/// step.
fn path_spend(cols: &PopulationColumns, aor: f64, q_min: f64, t: f64, n_threads: usize) -> f64 {
    let coef = aor / 4.0;
    chunked_sum(cols.len(), n_threads, |range| {
        let mut acc = 0.0;
        for i in range {
            acc += payment(cols, aor, i, path_q(cols, coef, q_min, i, t));
        }
        acc
    })
}

/// The path spend `S(t)` and its slope `S′(t)` in one chunked pass.
///
/// `S(t)` is accumulated exactly as [`path_spend`] accumulates it (the
/// same per-client term over the same chunk tree), so it is bit for bit
/// an exact probe. Strictly inside its clamps a client moves as
/// `dq/dt = q / (3(t − v))`, so its payment moves as
/// `(4cq² + K/q) / (3(t − v))`; clamped clients do not move.
fn path_spend_and_slope(
    cols: &PopulationColumns,
    aor: f64,
    q_min: f64,
    t: f64,
    n_threads: usize,
) -> (f64, f64) {
    let coef = aor / 4.0;
    chunked_reduce(
        cols.len(),
        n_threads,
        (0.0, 0.0),
        |range| {
            let (mut spend, mut slope) = (0.0, 0.0);
            for i in range {
                let q = path_q(cols, coef, q_min, i, t);
                spend += payment(cols, aor, i, q);
                if q > q_min && q < cols.q_max[i] {
                    let gain = cols.value[i] * aor * cols.a2g2[i] / q;
                    slope += (4.0 * cols.cost[i] * q * q + gain) / (3.0 * (t - cols.value[i]));
                }
            }
            (spend, slope)
        },
        |(s0, d0), (s1, d1)| (s0 + s1, d0 + d1),
    )
}

/// The exact path spend as the budget bisection's monotone function. Each
/// evaluation is one O(N) chunked pass, kept with its result: the solver
/// counts its passes by them and reuses the spend at the root when the
/// search evaluated it there.
struct ExactSpend<'a> {
    cols: &'a PopulationColumns,
    aor: f64,
    q_min: f64,
    threads: usize,
    /// Every evaluated `(t, S(t))`, in evaluation order.
    evaluated: Vec<(f64, f64)>,
}

impl<'a> ExactSpend<'a> {
    fn new(cols: &'a PopulationColumns, aor: f64, q_min: f64, threads: usize) -> Self {
        Self {
            cols,
            aor,
            q_min,
            threads,
            evaluated: Vec::new(),
        }
    }

    /// The exact spend at `t`.
    fn at(&mut self, t: f64) -> f64 {
        let spend = path_spend(self.cols, self.aor, self.q_min, t, self.threads);
        self.evaluated.push((t, spend));
        spend
    }

    /// The spend at `t` if a pass already evaluated it there.
    fn evaluated_at(&self, t: f64) -> Option<f64> {
        self.evaluated
            .iter()
            .find(|(x, _)| x.to_bits() == t.to_bits())
            .map(|&(_, spend)| spend)
    }
}

impl MonotoneFn for &mut ExactSpend<'_> {
    fn value(&mut self, t: f64) -> f64 {
        self.at(t)
    }

    fn value_and_slope(&mut self, t: f64) -> Option<(f64, f64)> {
        let (spend, slope) = path_spend_and_slope(self.cols, self.aor, self.q_min, t, self.threads);
        self.evaluated.push((t, spend));
        Some((spend, slope))
    }
}

/// The threshold index's spend model as the fast path's monotone
/// function: each evaluation is one O(log N) directory walk that also
/// returns the model's slope, so a warm search takes Newton steps.
struct ModelSpend<'a> {
    index: &'a ActiveSetIndex,
    /// Model probes made, Newton steps included.
    probes: u64,
}

impl MonotoneFn for &mut ModelSpend<'_> {
    fn value(&mut self, t: f64) -> f64 {
        self.probes += 1;
        self.index.spend(t)
    }

    fn value_and_slope(&mut self, t: f64) -> Option<(f64, f64)> {
        self.probes += 1;
        Some(self.index.spend_and_slope(t))
    }
}

/// Fill `out` with the KKT-path profile at `t` (parallel, allocation-free).
fn fill_path_profile(
    cols: &PopulationColumns,
    aor: f64,
    q_min: f64,
    t: f64,
    out: &mut [f64],
    n_threads: usize,
) {
    let coef = aor / 4.0;
    chunked_fill(out, n_threads, |start, slice| {
        for (k, q) in slice.iter_mut().enumerate() {
            *q = path_q(cols, coef, q_min, start + k, t);
        }
    });
}

/// Total payment `Σ P_n(q_n) q_n` for an explicit participation profile.
fn profile_spend(cols: &PopulationColumns, aor: f64, q: &[f64], n_threads: usize) -> f64 {
    chunked_sum(cols.len(), n_threads, |range| {
        let mut acc = 0.0;
        for i in range {
            acc += payment(cols, aor, i, q[i]);
        }
        acc
    })
}

/// Fill `prices` with the equation-(17) read-back `P_n = 2 c q − K/q²`.
fn fill_prices(
    cols: &PopulationColumns,
    aor: f64,
    q: &[f64],
    prices: &mut [f64],
    n_threads: usize,
) {
    chunked_fill(prices, n_threads, |start, slice| {
        for (k, p) in slice.iter_mut().enumerate() {
            let i = start + k;
            let qn = q[i];
            *p = 2.0 * cols.cost[i] * qn - cols.value[i] * aor * cols.a2g2[i] / (qn * qn);
        }
    });
}

fn validate_inputs(
    population: &Population,
    budget: f64,
    options: &SolverOptions,
) -> Result<(), GameError> {
    validate_solver_knobs(budget, options)?;
    if options.m_grid_steps < 2 {
        return Err(GameError::InvalidParameter {
            name: "m_grid_steps",
            reason: "need at least 2 grid steps".into(),
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

/// Budget/option checks shared by every entry point.
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

/// Input validation for [`solve_kkt_columns`], mirroring
/// [`validate_inputs`] for callers that never materialise a [`Population`].
fn validate_columns(
    cols: &PopulationColumns,
    budget: f64,
    options: &SolverOptions,
) -> Result<(), GameError> {
    for (len, _name) in [
        (cols.cost.len(), "cost"),
        (cols.value.len(), "value"),
        (cols.q_max.len(), "q_max"),
    ] {
        if len != cols.a2g2.len() {
            return Err(GameError::LengthMismatch {
                expected: cols.a2g2.len(),
                found: len,
            });
        }
    }
    if cols.is_empty() {
        return Err(GameError::InvalidParameter {
            name: "columns",
            reason: "need at least one client".into(),
        });
    }
    validate_solver_knobs(budget, options)?;
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
                    "client {i} invalid: a2g2={}, cost={}, value={}, q_max={} (need positives and q_max > q_min)",
                    cols.a2g2[i], cols.cost[i], cols.value[i], cols.q_max[i]
                ),
            });
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
    Ok(solve_exact_unchecked(&population.columns(), bound, budget, options, None)?.0)
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
    /// Bisection midpoints that needed a spend evaluation (0 for
    /// saturated or endpoint-clamped solves).
    pub bisect_iterations: usize,
    /// Spend-curve passes, counted at the evaluation site. On the exact
    /// path that is every O(N) pass: the saturation screen, the endpoint
    /// probes, the Newton steps, the window probes and the evaluated
    /// midpoints. On the fast path it is every model probe (the Newton
    /// steps on the index's spend slope included) plus the exact
    /// certification probes; the fast path's materialised spend is one
    /// side of its certificate (and its saturation screen) but not a
    /// probe: it is not counted.
    pub bisect_evaluations: usize,
    /// Bisection levels an evaluated point decided without a pass (0 =
    /// cold): with [`KktDiagnostics::bisect_iterations`], the levels the
    /// cold bisection walks.
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
}

impl KktDiagnostics {
    /// Record this solve into `recorder`: the per-mode solve counters,
    /// the probe/iteration totals and the solve wall time.
    fn record_solve<R: Recorder + ?Sized>(&self, recorder: &R, solve_ns: u64) {
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
    }
}

/// Clients sampled by the fast path's exact Theorem-2 residual gate.
const FAST_RESIDUAL_SAMPLE: usize = 1_024;
/// Seed of the residual gate's deterministic sample stream.
const FAST_RESIDUAL_SEED: u64 = 0xFA57;
/// Relative half-widths of the exact bracket-certificate bands, widened
/// ×100 per retry before the fast path gives up and falls back.
const CERT_BANDS: [f64; 3] = [1e-9, 1e-7, 1e-5];

/// Solve Stage I along the KKT path over solver columns — the one
/// column-level entry point.
///
/// Every per-client pass is one chunked reduction or fill over
/// `population` ([`fedfl_num::parallel`]), whose summation tree depends
/// on the client count alone, so the result is **bit-identical** for any
/// thread count.
///
/// `hint` is a guess at the path parameter `t = 1/λ` — typically
/// [`KktDiagnostics::t_star`] of the previous solve of a slightly
/// different population. The exact path moves it to this budget and
/// population with [`estimate_path_parameter`], takes Newton steps on the
/// exact spend from there, and confirms a narrow bracket around the
/// result with one exact probe per side. The budget bisection then
/// replays the cold bisection, evaluating only the midpoints no
/// evaluated point decides ([`fedfl_num::solve::bisect_monotone_instrumented`]),
/// so the exact solution is **bit-identical** for any hint: a good hint
/// leaves a handful of O(N) passes, a useless one costs a few extra. The
/// fast path hands the hint to its model bisection without the estimate;
/// each model probe returns the index's slope too
/// ([`ActiveSetIndex::spend_and_slope`]), so the model bisection takes the
/// same Newton steps, window probes and replay, and lands on the cold
/// model bisection's root bit for bit. Without a hint, either path is its
/// cold bisection, probe for probe.
///
/// `index` selects the solver path:
///
/// * `None` runs the exact chunked bisection ([`SolverMode::Exact`]):
///   O(N) per probe, bit-identical to [`solve_kkt`] over the same
///   clients.
/// * `Some(index)` runs the threshold-indexed fast path
///   ([`SolverMode::ThresholdIndex`]). The caller builds the index over
///   exactly this population at this `α/R` and `q_min`
///   ([`ActiveSetIndex::build`]); a stale or mismatched index is
///   detected (length, parameter bits, degeneracy) and demoted to the
///   exact fallback rather than trusted. The budget bisection probes the
///   index's O(log N) spend *model* instead of the O(N) exact sweep, and
///   the root t̂ it finds is **certified** against the exact solver's
///   ground truth:
///
///   1. an exact monotone bracket certificate. The profile is
///      materialised at t̂ first, and its realised spend is bit for bit
///      the exact spend at t̂ (same per-client term, same chunk tree).
///      One exact probe per certificate band tried (relative half-widths
///      1e-9, 1e-7, 1e-5), on the far side of the budget, closes the
///      bracket: `spend(t̂) ≤ B ≤ spend(t̂ + ε)`,
///      or `spend(t̂ − ε) ≤ B < spend(t̂)`. The saturation screen and a
///      floored root read the same materialised spend instead of probing;
///   2. the exact sampled Theorem-2 residual of the materialised profile
///      must stay within the solver tolerance.
///
///   A solve certified in the first band therefore pays one O(N) exact
///   probe plus the materialisation it needs anyway; a saturated one
///   pays only the materialisation. Any violation demotes the solve to
///   the exact path — the returned solution is then bit-identical to the
///   `None` solve's, flagged [`SolverMode::ThresholdIndexFallback`].
///   Certified fast solutions are *not* bit-pinned to the exact solver:
///   the index's reordered summation and truncated value series land the
///   bisection on a root within the certificate band of the exact root,
///   not on the same bits. The exact solver remains the default and the
///   goldens' reference.
///
/// `recorder` receives the solve's counters and wall-time span once the
/// solve is done, plus the fast path's certification outcomes (band hits,
/// failures, residual rejects). It never influences the solve: the
/// prices are byte-for-byte the same for any recorder.
///
/// # Errors
///
/// Returns [`GameError`] for invalid inputs (mismatched column lengths,
/// an empty population, a non-finite budget, a client with
/// `q_max <= q_min`, or non-positive `a2g2`/`cost` entries), reported
/// with global client indices. The solver itself is total — budgets
/// below the floor spend saturate at `q_min` and budgets above the
/// saturation spend return the all-`q_max` profile with
/// `saturated = true`.
pub fn solve_kkt_columns<R: Recorder + ?Sized>(
    population: &PopulationColumns,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    hint: Option<f64>,
    index: Option<&ActiveSetIndex>,
    recorder: &R,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    validate_columns(population, budget, options)?;
    let watch = Stopwatch::start();
    let (solution, diagnostics) = match index {
        None => solve_exact_unchecked(population, bound, budget, options, hint)?,
        Some(index) => solve_fast(population, bound, budget, options, index, hint, recorder)?,
    };
    diagnostics.record_solve(recorder, watch.elapsed_ns());
    Ok((solution, diagnostics))
}

fn solve_exact_unchecked(
    cols: &PopulationColumns,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    hint: Option<f64>,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let n = cols.len();
    let aor = bound.alpha_over_r();
    let threads = options.config.n_threads;
    // t needed for every client to hit its cap.
    let t_hi = saturation_t(cols, aor, threads);

    // The λ-evaluation: one chunked reduction, O(N / threads) per pass,
    // materialising no per-client buffers. Every pass — the saturation
    // screen, the endpoint probes, Newton steps, window probes and
    // midpoints — is recorded in `spend.evaluated`.
    let mut spend = ExactSpend::new(cols, aor, options.q_min, threads);
    let spend_hi = spend.at(t_hi);
    let (t_used, lambda, saturated, stats) = if spend_hi <= budget {
        // Whole population affordable at the caps: budget slack.
        (t_hi, None, true, BisectStats::default())
    } else {
        // The closed-form spend model first moves a hint to this budget
        // and population; the search's Newton steps on the exact spend
        // start from that estimate, and restart from the raw hint if a
        // step from it leaves the bracket (the model ignores the value
        // term, so it can land far off where valued clients dominate).
        // The screen's pass settles `f(t_hi)`.
        let estimate = hint.and_then(|h| estimate_path_parameter(cols, bound, budget, h, threads));
        let hints: Vec<f64> = estimate.into_iter().chain(hint).collect();
        let known = [(t_hi, spend_hi)];
        let (t_star, stats) = bisect_monotone_instrumented(
            &mut spend,
            budget,
            0.0,
            t_hi,
            options.config.tolerance,
            options.config.max_iters,
            hint.map(|_| WarmStart {
                hints: &hints,
                known: &known,
            }),
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
    fill_path_profile(cols, aor, options.q_min, t_used, &mut q, threads);
    let mut prices = vec![0.0f64; n];
    fill_prices(cols, aor, &q, &mut prices, threads);
    if let Some(bad) = prices.iter().position(|p| !p.is_finite()) {
        return Err(GameError::SolverFailed {
            solver: "kkt",
            reason: format!("non-finite price for client {bad}"),
        });
    }
    // The realised spend of the profile at `t` is bit for bit the exact
    // spend at `t`, so a pass that already evaluated it stands in.
    let spent = spend
        .evaluated_at(t_used)
        .unwrap_or_else(|| profile_spend(cols, aor, &q, threads));
    let passes = spend.evaluated.len();
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
            bisect_evaluations: passes,
            warm_start_depth: stats.start_depth,
            solver_mode: SolverMode::Exact,
            probe_evaluations: (passes * n) as u64,
        },
    ))
}

/// The certify-or-fallback core of the fast path: model bisection,
/// materialisation at the candidate root, then the one-sided exact
/// certificate of [`solve_kkt_columns`] — the materialised spend is the
/// near end of the bracket, one exact probe per band the far end.
/// `recorder` only receives certification outcomes (band hits, failures,
/// residual rejects) — it never influences the solve.
fn solve_fast<R: Recorder + ?Sized>(
    cols: &PopulationColumns,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    index: &ActiveSetIndex,
    hint: Option<f64>,
    recorder: &R,
) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
    let n = cols.len();
    let aor = bound.alpha_over_r();
    let threads = options.config.n_threads;
    // A usable index describes exactly this population at exactly these
    // solver knobs; anything else would certify against the wrong curve.
    let index_usable = index.len() == n
        && index.aor().to_bits() == aor.to_bits()
        && index.q_min().to_bits() == options.q_min.to_bits()
        && !index.is_degenerate()
        && index.bracket_hi().is_finite();
    let mut model = ModelSpend { index, probes: 0 };
    let mut exact = ExactSpend::new(cols, aor, options.q_min, threads);

    let fast: Option<(StageOneSolution, BisectStats, f64)> = 'fast: {
        if !index_usable {
            break 'fast None;
        }
        // Materialise exactly, as the exact solver does. The realised
        // spend is bit-identical to an exact probe at `t` (same
        // per-client term, same chunk tree), so it is one side of every
        // certificate below.
        let mut q = vec![0.0f64; n];
        let mut materialise = |t: f64| {
            fill_path_profile(cols, aor, options.q_min, t, &mut q, threads);
            profile_spend(cols, aor, &q, threads)
        };
        let t_hi = index.bracket_hi();

        // O(1) saturation screen, certified by the materialised spend.
        let saturated_spent = (index.saturated_spend() <= budget).then(|| materialise(t_hi));
        let (t_used, lambda, saturated, stats, spent) = match saturated_spent {
            Some(spent) if spent <= budget => (t_hi, None, true, BisectStats::default(), spent),
            _ => {
                let Ok((t_hat, stats)) = bisect_monotone_instrumented(
                    &mut model,
                    budget,
                    0.0,
                    t_hi,
                    options.config.tolerance,
                    options.config.max_iters,
                    hint.map(|_| WarmStart {
                        hints: hint.as_slice(),
                        known: &[],
                    }),
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
                            Some(Ordering::Greater) => exact.at(t_hat - eps) <= budget,
                            Some(_) => exact.at(t_hat + eps) >= budget,
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
        fill_prices(cols, aor, &q, &mut prices, threads);
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
        let residual_ok = match theorem2_max_residual(
            cols,
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

    let exact_probes = exact.evaluated.len() as u64;
    let fast_phase_evaluations = model.probes * index.probe_cost() + exact_probes * n as u64;
    match fast {
        Some((solution, stats, t_used)) => Ok((
            solution,
            KktDiagnostics {
                t_star: t_used,
                bisect_iterations: stats.iterations,
                bisect_evaluations: (model.probes + exact_probes) as usize,
                warm_start_depth: stats.start_depth,
                solver_mode: SolverMode::ThresholdIndex,
                probe_evaluations: fast_phase_evaluations,
            },
        )),
        None => {
            let (solution, mut diagnostics) =
                solve_exact_unchecked(cols, bound, budget, options, hint)?;
            diagnostics.solver_mode = SolverMode::ThresholdIndexFallback;
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
/// refining the split at the estimate costs one `O(N)` pass per round
/// (both sums in one pass) and, under realistic churn, lands close enough
/// for Newton steps on the exact spend to converge in about two passes.
/// The exact path of [`solve_kkt_columns`] runs it on every hinted solve;
/// the fast path does not, since its sub-linear model probes cost far
/// less than these passes.
///
/// The result is *only a hint*: [`solve_kkt_columns`] confirms the
/// bracket around it before trusting it, so a misprediction costs a few
/// probes, never correctness. The estimate is bit-identical for any
/// thread count. Returns `None` when the model degenerates (no interior
/// clients at the split, or no budget left after `C`).
pub fn estimate_path_parameter(
    cols: &PopulationColumns,
    bound: &BoundParams,
    budget: f64,
    t_ref: f64,
    n_threads: usize,
) -> Option<f64> {
    if cols.is_empty() || !(t_ref.is_finite() && t_ref > 0.0) {
        return None;
    }
    let aor = bound.alpha_over_r();
    let coef = aor / 4.0;
    let mut t = t_ref;
    let mut estimate = None;
    for _ in 0..8 {
        // Both sums in one pass, each over the chunk tree it would have
        // alone, so the estimate's bits do not depend on the fusion.
        let (saturated_spend, interior_coefficient) = chunked_reduce(
            cols.len(),
            n_threads,
            (0.0, 0.0),
            |range| {
                let (mut saturated, mut interior) = (0.0, 0.0);
                for i in range {
                    let t_sat = cols.cost[i] * cols.q_max[i].powi(3) / (coef * cols.a2g2[i])
                        + cols.value[i];
                    if t_sat <= t {
                        saturated += payment(cols, aor, i, cols.q_max[i]);
                    } else if t_sat > t {
                        let ka = coef * cols.a2g2[i];
                        interior += 2.0 * cols.cost[i].cbrt() * (ka * ka).cbrt();
                    }
                }
                (saturated, interior)
            },
            |(s0, i0), (s1, i1)| (s0 + s1, i0 + i1),
        );
        let remaining = budget - saturated_spend;
        if remaining <= 0.0 {
            // The split is too high: the clamped spend alone busts the
            // budget, so the root sits below — halve and retry.
            t *= 0.5;
            continue;
        }
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
/// This is the solver-column counterpart of
/// [`crate::equilibrium::StackelbergEquilibrium::theorem2_max_residual`];
/// the pricing service asserts it after every incremental re-solve.
/// Returns `None` when the solution has no interior KKT multiplier or no
/// sampled client is interior.
pub fn theorem2_max_residual(
    cols: &PopulationColumns,
    bound: &BoundParams,
    solution: &StageOneSolution,
    q_min: f64,
    sample: usize,
    seed: u64,
) -> Option<f64> {
    let target = 1.0 / solution.lambda?;
    let coef = 4.0 / bound.alpha_over_r();
    let n = cols.len().min(solution.q.len());
    if n == 0 {
        return None;
    }
    let mut rng = fedfl_num::rng::substream(seed, 0x7_4832);
    let mut worst: Option<f64> = None;
    for _ in 0..sample {
        let i = (rand::Rng::random::<u64>(&mut rng) % n as u64) as usize;
        let q = solution.q[i];
        if q > q_min * 1.01 && q < cols.q_max[i] * 0.999 {
            let invariant = coef * cols.cost[i] * q.powi(3) / cols.a2g2[i] + cols.value[i];
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
    let cols = &population.columns();
    let n = cols.len();
    let threads = options.config.n_threads;
    let aor = bound.alpha_over_r();
    // Precomputed intrinsic gains `K_n = v_n (α/R) a_n²G_n²`: every inner
    // pass below is a chunked reduction or fill over the columns, so one
    // PGD iteration strides each column once and allocates no per-client
    // vectors.
    let mut gains = vec![0.0f64; n];
    chunked_fill(&mut gains, threads, |start, slice| {
        for (k, g) in slice.iter_mut().enumerate() {
            let i = start + k;
            *g = cols.value[i] * aor * cols.a2g2[i];
        }
    });
    let lo: Vec<f64> = vec![options.q_min; n];
    let hi = cols.q_max.clone();
    let bounds_box = BoxConstraints::new(lo.clone(), hi.clone())?;
    // `M(q) = Σ c_n q_n²` and the realised spend, as chunked reductions.
    let m_of = |q: &[f64]| {
        chunked_sum(n, threads, |range| {
            let mut acc = 0.0;
            for i in range {
                let qn = q[i];
                acc += cols.cost[i] * qn * qn;
            }
            acc
        })
    };
    let spend_of = |q: &[f64]| profile_spend(cols, aor, q, threads);
    let variance_of = |q: &[f64]| {
        chunked_sum(n, threads, |range| {
            let mut acc = 0.0;
            for i in range {
                acc += cols.a2g2[i] * (1.0 / q[i] - 1.0);
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
                    chunked_fill(g, threads, |start, slice| {
                        for (k, gi) in slice.iter_mut().enumerate() {
                            let i = start + k;
                            *gi = 2.0 * cols.cost[i] * q[i] / m_scale;
                        }
                    });
                    val / m_scale
                }),
            ),
        ];
        let result = penalty_minimize(
            |q: &[f64], g: &mut [f64]| {
                let val = variance_of(q);
                chunked_fill(g, threads, |start, slice| {
                    for (k, gi) in slice.iter_mut().enumerate() {
                        let i = start + k;
                        let qn = q[i];
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
    fill_prices(cols, aor, &q, &mut prices, threads);
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
    use fedfl_obs::NoopRecorder;

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

    /// The exact column-level solve.
    fn solve_flat(
        cols: PopulationColumns,
        budget: f64,
        hint: Option<f64>,
    ) -> Result<(StageOneSolution, KktDiagnostics), GameError> {
        let options = SolverOptions::default();
        solve_kkt_columns(&cols, &bound(), budget, &options, hint, None, &NoopRecorder)
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
        let (from_columns, _) = solve_flat(p.columns(), 10.0, None).unwrap();
        assert_eq!(from_population, from_columns);
    }

    #[test]
    fn hinted_solver_is_bit_identical_and_skips_iterations() {
        let p = population();
        let (cold, cold_diag) = solve_flat(p.columns(), 10.0, None).unwrap();
        for hint in [
            None,
            Some(cold_diag.t_star),
            Some(cold_diag.t_star * 1.001),
            Some(cold_diag.t_star * 0.5),
            Some(f64::NAN),
            Some(-1.0),
            Some(1e300),
        ] {
            let (warm, diag) = solve_flat(p.columns(), 10.0, hint).unwrap();
            assert_eq!(warm, cold, "hint {hint:?}");
            assert!(
                diag.bisect_iterations <= cold_diag.bisect_iterations,
                "hint {hint:?}: {} > {}",
                diag.bisect_iterations,
                cold_diag.bisect_iterations
            );
        }
        let (_, exact) = solve_flat(p.columns(), 10.0, Some(cold_diag.t_star)).unwrap();
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
        let mut cols = p.columns();
        cols.cost.pop();
        assert!(solve_flat(cols, 10.0, None).is_err());
        let mut cols = p.columns();
        cols.cost[1] = 0.0;
        assert!(solve_flat(cols, 10.0, None).is_err());
        let mut cols = p.columns();
        cols.q_max[0] = Q_MIN / 2.0;
        assert!(solve_flat(cols, 10.0, None).is_err());
        let empty = PopulationColumns {
            a2g2: vec![],
            cost: vec![],
            value: vec![],
            q_max: vec![],
        };
        assert!(solve_flat(empty, 10.0, None).is_err());
        assert!(solve_flat(p.columns(), f64::NAN, None).is_err());
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
        let (_, diag) = solve_flat(p.columns(), budget, None).unwrap();
        let cols = p.columns();
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
        let via_columns = theorem2_max_residual(&p.columns(), &b, &sol, Q_MIN, 100, 0).unwrap();
        let se = StackelbergEquilibrium::from_stage_one(sol, &p, &b, 10.0);
        let via_equilibrium = se.theorem2_max_residual(&p, &b, 100, 0).unwrap();
        assert_eq!(via_columns.to_bits(), via_equilibrium.to_bits());
        assert!(via_columns < 1e-6);
    }

    #[test]
    fn column_solver_is_bit_identical_across_thread_counts() {
        use crate::population::PopulationSpec;
        use fedfl_num::parallel::DEFAULT_CHUNK;
        // Five chunks: a worker spawns only when each gets at least two
        // chunks, so threads 2 and 3 run the spawned reductions and fills.
        let n = DEFAULT_CHUNK * 4 + 531;
        let p = Population::synthesize(n, &PopulationSpec::table1_like(), 5).unwrap();
        let b = bound();
        let serial = SolverOptions::with_threads(1);
        let budget = path_budget(&p, &b, &serial, 0.4);
        let reference = solve_kkt(&p, &b, budget, &serial).unwrap();
        let t_star = 1.0 / reference.lambda.unwrap();
        let cols = p.columns();
        let serial_est = estimate_path_parameter(&cols, &b, budget, t_star * 2.0, 1);
        for threads in [1, 2, 3] {
            let opts = SolverOptions::with_threads(threads);
            assert_eq!(
                path_budget(&p, &b, &opts, 0.4).to_bits(),
                budget.to_bits(),
                "path budget drifted at threads {threads}"
            );
            assert_eq!(solve_kkt(&p, &b, budget, &opts).unwrap(), reference);
            for hint in [None, Some(t_star)] {
                let (sol, diag) =
                    solve_kkt_columns(&cols, &b, budget, &opts, hint, None, &NoopRecorder).unwrap();
                assert_eq!(sol, reference, "threads {threads} hint {hint:?}");
                assert_eq!(
                    diag.warm_start_depth > 0,
                    hint.is_some(),
                    "exact hint should verify deep"
                );
            }
            let est = estimate_path_parameter(&cols, &b, budget, t_star * 2.0, threads);
            assert_eq!(
                serial_est.map(f64::to_bits),
                est.map(f64::to_bits),
                "estimate drifted at threads {threads}"
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
        let t_hi = saturation_t(&cols, aor, 1);
        let mut parts = [false; 3];
        for threads in [1usize, 2] {
            for frac in [0.0, 1e-3, 0.05, 0.5, 1.0] {
                let t = frac * t_hi;
                let mut q = vec![0.0f64; n];
                fill_path_profile(&cols, aor, Q_MIN, t, &mut q, threads);
                let realised = profile_spend(&cols, aor, &q, threads);
                let probed = path_spend(&cols, aor, Q_MIN, t, threads);
                assert_eq!(
                    realised.to_bits(),
                    probed.to_bits(),
                    "threads {threads} t {t}"
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
        assert_eq!(parts, [true; 3], "floored, interior and saturated covered");
    }

    #[test]
    fn fused_spend_and_slope_pass_is_an_exact_probe_bit_for_bit() {
        // The Newton steps' pass returns the spend as one more known point
        // of the bisection, so it must be `path_spend`'s bits.
        use crate::population::PopulationSpec;
        let n = 4 * fedfl_num::parallel::DEFAULT_CHUNK + 531;
        let p = Population::synthesize(n, &PopulationSpec::table1_like(), 17).unwrap();
        let cols = p.columns();
        let aor = bound().alpha_over_r();
        let t_hi = saturation_t(&cols, aor, 1);
        for threads in [1usize, 2, 3] {
            assert_eq!(
                saturation_t(&cols, aor, threads).to_bits(),
                t_hi.to_bits(),
                "threads {threads}"
            );
            for frac in [0.0, 1e-4, 0.02, 0.3, 0.7, 1.0] {
                let t = frac * t_hi;
                let (spend, slope) = path_spend_and_slope(&cols, aor, Q_MIN, t, threads);
                let probed = path_spend(&cols, aor, Q_MIN, t, threads);
                assert_eq!(spend.to_bits(), probed.to_bits(), "threads {threads} t {t}");
                // Inside the path, the slope is the derivative of that
                // spend (at the ends the secant is rounding noise).
                if frac > 0.01 && frac < 1.0 {
                    let h = 1e-6 * t;
                    let secant = (path_spend(&cols, aor, Q_MIN, t + h, threads)
                        - path_spend(&cols, aor, Q_MIN, t - h, threads))
                        / (2.0 * h);
                    assert!(
                        (slope - secant).abs() <= 1e-3 * secant.abs(),
                        "threads {threads} t {t}: slope {slope} vs secant {secant}"
                    );
                }
            }
        }
    }

    /// `x` and its `k`-ulp neighbours for `k` in `1..=radius`.
    fn ulp_neighbourhood(x: f64, radius: usize) -> Vec<f64> {
        let mut out = vec![x];
        let (mut up, mut down) = (x, x);
        for _ in 0..radius {
            up = up.next_up();
            down = down.next_down();
            out.extend([up, down]);
        }
        out
    }

    /// Ulps by which a screened cube root must clear its bound: far more
    /// than libm's `cbrt` error, far less than the margin's ~1400.
    const SCREEN_CLEARANCE_ULPS: u64 = 64;

    /// The screened `clamped_cbrt(x, q_min, q_max)` equals the plain
    /// `x.cbrt().clamp(q_min, q_max)` bit for bit, and wherever the screen
    /// skips the cube root, `x.cbrt()` lies at least
    /// `SCREEN_CLEARANCE_ULPS` past the bound it returns, so a libm that
    /// erred by that much would still clamp to the same bits.
    fn assert_screen_matches(x: f64, q_min: f64, q_max: f64) {
        let screened = clamped_cbrt(x, q_min, q_max);
        let root = x.cbrt();
        let plain = root.clamp(q_min, q_max);
        let what = format!("x {x:e} in [{q_min:e}, {q_max:e}]: cbrt {root:e}");
        assert_eq!(screened.to_bits(), plain.to_bits(), "{what}");
        let clears = match clamp_screen(x, q_min, q_max) {
            Some(bound) if bound == q_max => {
                root >= (0..SCREEN_CLEARANCE_ULPS).fold(q_max, |q, _| q.next_up())
            }
            Some(_) => root <= (0..SCREEN_CLEARANCE_ULPS).fold(q_min, |q, _| q.next_down()),
            None => true,
        };
        assert!(
            clears,
            "{what} is screened but within {SCREEN_CLEARANCE_ULPS} ulps of its bound"
        );
    }

    #[test]
    fn clamp_screen_matches_the_cube_root_near_its_bounds() {
        // Bounds whose cubes are ordinary, near the underflow threshold
        // (q³ = MIN_POSITIVE at q ≈ 2.8e-103), subnormal (down to the
        // smallest subnormal at q ≈ 1.7e-108), zero, or overflowing —
        // plus random bounds over the whole range.
        let mut bounds = vec![
            Q_MIN, 0.05, 0.2, 0.5, 0.999, 1.0, 3.0, 1e-100, 1e100, 1e103, 3e-103, 2.8e-103,
            2.5e-103, 1e-104, 1e-106, 1.8e-108, 1.5e-108, 1.2e-108, 1e-110,
        ];
        let mut state = 0x5C2E_u64;
        let mut unit = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        bounds.extend((0..3_000).map(|_| 10f64.powf(-110.0 + 214.0 * unit())));
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            5e-324,
            1e-310,
            f64::MAX,
        ];
        let margins = [1.0, 1.0 + CLAMP_SCREEN_MARGIN, 1.0 - CLAMP_SCREEN_MARGIN];
        for (k, &bound) in bounds.iter().enumerate() {
            // Pair the bound with one above it and one below it.
            let spread = 1.0 + 1e3 * unit() * if k % 2 == 0 { 1.0 } else { 1e-12 };
            for (q_min, q_max) in [(bound, bound * spread), (bound / spread, bound)] {
                if !(q_min < q_max && q_max.is_finite() && q_min > 0.0) {
                    continue;
                }
                for q in [q_min, q_max] {
                    let cube = q * q * q;
                    for margin in margins {
                        for x in ulp_neighbourhood(cube * margin, 6) {
                            assert_screen_matches(x, q_min, q_max);
                        }
                    }
                }
                for x in specials {
                    assert_screen_matches(x, q_min, q_max);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The screened `path_q` is the unscreened kernel bit for bit on
        /// heavy-tailed populations along the whole path, zero slack
        /// (`t ≤ v`) and the floor included.
        #[test]
        fn screened_path_q_matches_the_plain_cube_root_on_heavy_tails(
            seed in 0u64..1_000,
            alpha in 0.3f64..1.5,
            q_min in 1e-4f64..0.2,
        ) {
            use crate::population::{ParamDist, PopulationSpec};
            let spec = PopulationSpec {
                weight: ParamDist::BoundedPareto { lo: 1.0, hi: 1e6, alpha },
                g_squared: ParamDist::Uniform { lo: 4.0, hi: 36.0 },
                cost: ParamDist::BoundedPareto { lo: 1e-4, hi: 1e8, alpha: 0.5 },
                value: ParamDist::Exponential { mean: 4_000.0 },
                q_max: 1.0,
            };
            let p = Population::synthesize(1_500, &spec, seed).unwrap();
            let cols = p.columns();
            let aor = bound().alpha_over_r();
            let coef = aor / 4.0;
            let t_hi = saturation_t(&cols, aor, 1);
            for frac in [0.0, 1e-9, 1e-6, 1e-3, 0.02, 0.2, 0.5, 0.9, 1.0, 2.0] {
                let t = frac * t_hi;
                for i in 0..cols.len() {
                    let slack = (t - cols.value[i]).max(0.0);
                    let plain = (coef * cols.a2g2[i] * slack / cols.cost[i])
                        .cbrt()
                        .clamp(q_min, cols.q_max[i]);
                    proptest::prop_assert_eq!(
                        path_q(&cols, coef, q_min, i, t).to_bits(),
                        plain.to_bits()
                    );
                }
            }
        }
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
