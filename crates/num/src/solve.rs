//! Convex solvers: projected gradient descent on a box, quadratic-penalty
//! treatment of coupling constraints, and monotone bisection.
//!
//! The paper solves the inner problem of P1'' "via a convex optimization
//! tool, e.g., CVX". We replace CVX with a projected-gradient method plus a
//! quadratic-penalty continuation for the two coupling constraints (the
//! budget inequality and the `Σ c_n q_n² = M` equality); the outer
//! budget-tightening searches (Lemma 3) use [`bisect_monotone`].

use crate::error::NumError;

/// Box constraints `lo[i] <= x[i] <= hi[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxConstraints {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoxConstraints {
    /// Create box constraints from per-coordinate bounds.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if the vectors differ in
    /// length and [`NumError::InvalidParameter`] if any `lo[i] > hi[i]` or a
    /// bound is NaN.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self, NumError> {
        if lo.len() != hi.len() {
            return Err(NumError::DimensionMismatch {
                expected: format!("hi of length {}", lo.len()),
                found: format!("length {}", hi.len()),
            });
        }
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            if l.is_nan() || h.is_nan() || l > h {
                return Err(NumError::InvalidParameter {
                    name: "bounds",
                    reason: format!("need lo <= hi at index {i}, got [{l}, {h}]"),
                });
            }
        }
        Ok(Self { lo, hi })
    }

    /// Uniform box `[lo, hi]^dim`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BoxConstraints::new`].
    pub fn uniform(dim: usize, lo: f64, hi: f64) -> Result<Self, NumError> {
        Self::new(vec![lo; dim], vec![hi; dim])
    }

    /// Dimension of the box.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Project `x` onto the box in place.
    pub fn project(&self, x: &mut [f64]) {
        for ((xi, &l), &h) in x.iter_mut().zip(&self.lo).zip(&self.hi) {
            *xi = xi.clamp(l, h);
        }
    }

    /// Whether `x` lies in the box up to tolerance `tol`.
    pub fn contains(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(&self.lo)
                .zip(&self.hi)
                .all(|((&xi, &l), &h)| xi >= l - tol && xi <= h + tol)
    }

    /// Midpoint of the box, a canonical feasible starting iterate.
    pub fn midpoint(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| 0.5 * (l + h))
            .collect()
    }
}

/// Configuration for [`projected_gradient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgdConfig {
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Initial step size tried by the backtracking line search.
    pub initial_step: f64,
    /// Multiplicative backtracking factor in `(0, 1)`.
    pub backtrack: f64,
    /// Convergence tolerance on the projected-gradient step norm.
    pub tol: f64,
}

impl Default for PgdConfig {
    fn default() -> Self {
        Self {
            max_iter: 2_000,
            initial_step: 1.0,
            backtrack: 0.5,
            tol: 1e-10,
        }
    }
}

/// Outcome of a projected-gradient run.
#[derive(Debug, Clone, PartialEq)]
pub struct PgdResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Objective value at the final iterate.
    pub value: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the step-norm tolerance was reached.
    pub converged: bool,
}

/// Minimise a smooth objective over a box by projected gradient descent with
/// Armijo backtracking.
///
/// `fg` evaluates the objective and writes the gradient into its second
/// argument. Convergence to the global minimum is guaranteed for convex
/// objectives; for non-convex ones a stationary point is returned.
///
/// # Errors
///
/// Returns [`NumError::DimensionMismatch`] when `x0` does not match the box
/// dimension and [`NumError::InvalidParameter`] for invalid configuration.
pub fn projected_gradient<F>(
    mut fg: F,
    x0: &[f64],
    bounds: &BoxConstraints,
    config: &PgdConfig,
) -> Result<PgdResult, NumError>
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    if x0.len() != bounds.dim() {
        return Err(NumError::DimensionMismatch {
            expected: format!("x0 of length {}", bounds.dim()),
            found: format!("length {}", x0.len()),
        });
    }
    if !(config.backtrack > 0.0 && config.backtrack < 1.0) {
        return Err(NumError::InvalidParameter {
            name: "backtrack",
            reason: format!("must lie in (0, 1), got {}", config.backtrack),
        });
    }
    if !(config.initial_step > 0.0 && config.initial_step.is_finite()) {
        return Err(NumError::InvalidParameter {
            name: "initial_step",
            reason: format!("must be finite and positive, got {}", config.initial_step),
        });
    }
    let n = x0.len();
    let mut x = x0.to_vec();
    bounds.project(&mut x);
    let mut grad = vec![0.0; n];
    let mut value = fg(&x, &mut grad);
    let mut step = config.initial_step;
    let mut iterations = 0;
    let mut converged = false;
    // Scratch buffers reused across iterations and backtracking trials, so
    // one PGD step allocates nothing proportional to the dimension.
    let mut candidate = vec![0.0; n];
    let mut cand_grad = vec![0.0; n];

    while iterations < config.max_iter {
        iterations += 1;
        // Backtracking: find a step giving sufficient decrease.
        let mut accepted = false;
        let mut trial_step = step;
        for _ in 0..60 {
            for i in 0..n {
                candidate[i] = x[i] - trial_step * grad[i];
            }
            bounds.project(&mut candidate);
            let cand_value = fg(&candidate, &mut cand_grad);
            // Armijo condition w.r.t. the projected step.
            let mut decrease = 0.0;
            for i in 0..n {
                let d = candidate[i] - x[i];
                decrease += grad[i] * d + 0.5 / trial_step.max(1e-300) * d * d;
            }
            if cand_value.is_finite() && cand_value <= value + 1e-4 * decrease.min(0.0) {
                let step_norm: f64 = candidate
                    .iter()
                    .zip(&x)
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                x.copy_from_slice(&candidate);
                std::mem::swap(&mut grad, &mut cand_grad);
                value = cand_value;
                // Allow the step to grow back.
                step = (trial_step / config.backtrack).min(config.initial_step * 1e6);
                accepted = true;
                if step_norm < config.tol {
                    converged = true;
                }
                break;
            }
            trial_step *= config.backtrack;
        }
        if !accepted || converged {
            converged = converged || !accepted;
            break;
        }
    }
    Ok(PgdResult {
        x,
        value,
        iterations,
        converged,
    })
}

/// A coupling constraint handled by quadratic penalty in
/// [`penalty_minimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintKind {
    /// `g(x) = 0`.
    Equality,
    /// `g(x) <= 0`.
    Inequality,
}

/// A boxed constraint callback for [`penalty_minimize`]: evaluates `g(x)`
/// and writes `∇g(x)` into its second argument.
pub type ConstraintFn<'a> = Box<dyn FnMut(&[f64], &mut [f64]) -> f64 + 'a>;

/// Minimise `f` over a box subject to scalar coupling constraints, by
/// quadratic-penalty continuation around [`projected_gradient`].
///
/// Each constraint is a closure returning `(g(x), ∇g(x))`; the penalty
/// weight is escalated geometrically until the worst violation falls below
/// `feas_tol`.
///
/// # Errors
///
/// Propagates [`projected_gradient`] errors; returns
/// [`NumError::NoConvergence`] if feasibility is not reached.
pub fn penalty_minimize<F>(
    mut fg: F,
    constraints: &mut [(ConstraintKind, ConstraintFn<'_>)],
    x0: &[f64],
    bounds: &BoxConstraints,
    config: &PgdConfig,
    feas_tol: f64,
) -> Result<PgdResult, NumError>
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    let n = bounds.dim();
    let mut x = x0.to_vec();
    let mut rho = 10.0;
    let mut last = None;
    for _round in 0..18 {
        let mut cons_grad = vec![0.0; n];
        let result = {
            let constraints = &mut *constraints;
            let fg = &mut fg;
            projected_gradient(
                |y: &[f64], grad: &mut [f64]| {
                    let mut value = fg(y, grad);
                    for (kind, c) in constraints.iter_mut() {
                        cons_grad.iter_mut().for_each(|g| *g = 0.0);
                        let g = c(y, &mut cons_grad);
                        let active = match kind {
                            ConstraintKind::Equality => true,
                            ConstraintKind::Inequality => g > 0.0,
                        };
                        if active {
                            value += 0.5 * rho * g * g;
                            for i in 0..n {
                                grad[i] += rho * g * cons_grad[i];
                            }
                        }
                    }
                    value
                },
                &x,
                bounds,
                config,
            )?
        };
        x.copy_from_slice(&result.x);
        // Measure raw violation.
        let mut worst: f64 = 0.0;
        let mut scratch = vec![0.0; n];
        for (kind, c) in constraints.iter_mut() {
            let g = c(&x, &mut scratch);
            let v = match kind {
                ConstraintKind::Equality => g.abs(),
                ConstraintKind::Inequality => g.max(0.0),
            };
            worst = worst.max(v);
        }
        last = Some(result);
        if worst <= feas_tol {
            return Ok(last.unwrap());
        }
        rho *= 4.0;
    }
    match last {
        Some(r) => Ok(r), // Best effort: caller can check feasibility.
        None => Err(NumError::NoConvergence {
            method: "penalty_minimize",
            iterations: 0,
        }),
    }
}

/// Find `x` in `[lo, hi]` with `f(x) = target` for a nondecreasing `f`,
/// clamping at the endpoints.
///
/// Returns `lo` if `f(lo) >= target` and `hi` if `f(hi) <= target`, which is
/// the behaviour the budget-tightening searches want: if even the cheapest
/// admissible choice overshoots the budget the search saturates at the
/// boundary instead of failing.
///
/// # Errors
///
/// Returns [`NumError::InvalidParameter`] for an invalid interval.
pub fn bisect_monotone<F: FnMut(f64) -> f64>(
    f: F,
    target: f64,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<f64, NumError> {
    bisect_monotone_with(f, target, lo, hi, tol, 200)
}

/// [`bisect_monotone`] with an explicit iteration budget.
///
/// Each iteration halves the bracket, so `max_iters` bounds the number of
/// `f` evaluations after the two endpoint probes; the midpoint of the final
/// bracket is returned if the tolerance is not reached first.
///
/// # Errors
///
/// Returns [`NumError::InvalidParameter`] for an invalid interval or a zero
/// iteration budget.
pub fn bisect_monotone_with<F: FnMut(f64) -> f64>(
    f: F,
    target: f64,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iters: usize,
) -> Result<f64, NumError> {
    Ok(bisect_monotone_instrumented(f, target, lo, hi, tol, max_iters, None)?.0)
}

/// A nondecreasing function searched by [`bisect_monotone_instrumented`].
///
/// Every `FnMut(f64) -> f64` closure is one, without a slope. An evaluator
/// that can also return the slope from the same evaluation overrides
/// [`MonotoneFn::value_and_slope`], and a warm search then refines its
/// hint with Newton steps.
pub trait MonotoneFn {
    /// `f(x)`.
    fn value(&mut self, x: f64) -> f64;

    /// `(f(x), f′(x))` from one evaluation, or `None` — without evaluating
    /// anything — when the function supplies no slope (the default).
    fn value_and_slope(&mut self, x: f64) -> Option<(f64, f64)> {
        let _ = x;
        None
    }
}

impl<F: FnMut(f64) -> f64> MonotoneFn for F {
    fn value(&mut self, x: f64) -> f64 {
        self(x)
    }
}

/// Statistics of one monotone-bisection run — what the warm-start contract
/// of the pricing service is measured by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BisectStats {
    /// Bisection midpoints that needed an evaluation of `f`.
    pub iterations: usize,
    /// Every evaluation of `f` the search made: the endpoint probes, the
    /// Newton steps, the window probes and the evaluated midpoints. The
    /// caller's [`WarmStart::known`] points are not counted.
    pub evaluations: usize,
    /// Bisection levels an already evaluated point decided without an
    /// evaluation (`0` for a cold search). `iterations + start_depth` is
    /// the number of levels the cold search walks.
    pub start_depth: usize,
}

/// Where a warm [`bisect_monotone_instrumented`] search starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStart<'a> {
    /// Guesses at the root, best first — e.g. a model's estimate, then
    /// the root of a slightly different instance. Any values are safe:
    /// those not strictly inside the bracket the endpoints and `known`
    /// imply (NaN and infinities included) are skipped.
    pub hints: &'a [f64],
    /// Points the caller has already evaluated, as `(x, f(x))`.
    pub known: &'a [(f64, f64)],
}

/// Newton passes a warm search spends on its hint at most.
const NEWTON_PASSES: usize = 4;
/// A Newton step shorter than this fraction of its point ends the steps.
const NEWTON_STOP: f64 = 1e-11;
/// Half-width of the first confirmation window, in units of `ε·|x̂|`.
const WINDOW_ULPS: f64 = 64.0;
/// Growth of the window half-width after a side fails to confirm.
const WINDOW_GROWTH: f64 = 16.0;
/// Windows tried before the replay starts from whatever bracket is known.
/// One widening covers a Newton estimate that missed by up to ~1000 ulps;
/// past that a failed probe rarely pays for itself (on the reference
/// traces a third or fourth window saved no exact pass, and cost the
/// fast path's slope-free model bisection a probe per solve).
const WINDOW_TRIES: usize = 2;

/// A search's function and the tightest bracket its evaluated points
/// imply for a nondecreasing `f`: every `x <= below` has `f(x) < target`
/// and every `x >= above` has `f(x) >= target`. A NaN value decides
/// nothing.
struct Search<F> {
    f: F,
    target: f64,
    below: f64,
    above: f64,
    stats: BisectStats,
}

impl<F: MonotoneFn> Search<F> {
    fn record(&mut self, x: f64, fx: f64) {
        if fx < self.target {
            self.below = self.below.max(x);
        } else if fx >= self.target {
            self.above = self.above.min(x);
        }
    }

    fn contains(&self, x: f64) -> bool {
        self.below < x && x < self.above
    }

    /// Evaluate `f(x)` and record it.
    fn probe(&mut self, x: f64) -> f64 {
        self.stats.evaluations += 1;
        let fx = self.f.value(x);
        self.record(x, fx);
        fx
    }

    /// Safeguarded Newton steps, each evaluated with its slope, from the
    /// first hint strictly inside the bracket. A step that would leave the
    /// bracket restarts from the next such hint, or ends the steps.
    /// Returns the last step (the starting hint when `f` supplies no
    /// slope), or `None` when no hint is inside the bracket.
    fn newton(&mut self, hints: &[f64]) -> Option<f64> {
        let mut starts = hints.iter().copied();
        let mut x = starts.find(|&h| self.contains(h))?;
        let mut estimate = x;
        for _ in 0..NEWTON_PASSES {
            let Some((fx, slope)) = self.f.value_and_slope(x) else {
                break;
            };
            self.stats.evaluations += 1;
            self.record(x, fx);
            let next = x + (self.target - fx) / slope;
            if self.contains(next) {
                estimate = next;
                if (next - x).abs() < NEWTON_STOP * x.abs() {
                    break;
                }
                x = next;
            } else if let Some(restart) = starts.find(|&h| self.contains(h)) {
                (x, estimate) = (restart, restart);
            } else {
                break;
            }
        }
        Some(estimate)
    }

    /// Probe each side of a window `±delta` around `estimate` that no
    /// point settles yet, widening the window while a side fails.
    fn confirm_window(&mut self, estimate: f64) {
        let mut delta = (WINDOW_ULPS * f64::EPSILON * estimate.abs()).max(f64::MIN_POSITIVE);
        for _ in 0..WINDOW_TRIES {
            for side in [estimate - delta, estimate + delta] {
                if self.contains(side) {
                    self.probe(side);
                }
            }
            if self.below >= estimate - delta && self.above <= estimate + delta {
                return;
            }
            delta *= WINDOW_GROWTH;
        }
    }
}

/// [`bisect_monotone_with`], instrumented and optionally warm-started.
///
/// A cold search (`warm = None`) evaluates `f(lo)`, then `f(hi)`, then
/// the midpoint `0.5 * (a + b)` of each bracket until the bracket is
/// narrower than `tol`, the midpoint stops moving, or `max_iters` levels
/// have run.
///
/// A warm search first gathers evaluated points:
///
/// 1. the caller's [`WarmStart::known`] points, which can also settle the
///    endpoint tests without evaluating `f(lo)` or `f(hi)`;
/// 2. when `f` supplies a slope ([`MonotoneFn::value_and_slope`]), up to
///    four Newton steps from the first of [`WarmStart::hints`] strictly
///    inside the bracket the points imply. A step that would leave the
///    bracket restarts from the next such hint, or ends the steps; a step
///    below `1e-11` of its point ends them;
/// 3. one probe on each side of a window `±64·ε·|x̂|` around the estimate
///    `x̂` (the last Newton step, or the first usable hint without a
///    slope). A side already settled by a known point costs nothing; a
///    failed side widens the window ×16 once and probes again.
///
/// Then it **replays** the cold search: the same midpoints, the same stop
/// tests, and every level counted against `max_iters`. A midpoint at or
/// below a point with `f < target`, or at or above a point with
/// `f >= target`, is decided without evaluating `f`.
///
/// **Bit-identity contract:** for a nondecreasing `f`, each decided level
/// takes the branch its evaluation would have taken, so the warm result
/// is bit-identical to the cold result for *any* hint, known points and
/// slope, including when `max_iters` ends the search. A good estimate
/// leaves only the midpoints inside the confirmed window to evaluate; a
/// useless hint costs at most the Newton and window probes.
///
/// # Errors
///
/// Returns [`NumError::InvalidParameter`] for an invalid interval or a zero
/// iteration budget.
pub fn bisect_monotone_instrumented<F: MonotoneFn>(
    f: F,
    target: f64,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iters: usize,
    warm: Option<WarmStart<'_>>,
) -> Result<(f64, BisectStats), NumError> {
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(NumError::InvalidParameter {
            name: "interval",
            reason: format!("need finite lo <= hi, got [{lo}, {hi}]"),
        });
    }
    if max_iters == 0 {
        return Err(NumError::InvalidParameter {
            name: "max_iters",
            reason: "need at least one bisection iteration".into(),
        });
    }
    let known = warm.map_or(&[][..], |w| w.known);
    let mut search = Search {
        f,
        target,
        below: f64::NEG_INFINITY,
        above: f64::INFINITY,
        stats: BisectStats::default(),
    };
    for &(x, fx) in known {
        search.record(x, fx);
    }

    // The cold endpoint tests, `f(lo) >= target` and `f(hi) <= target`;
    // a known point on the right side of an endpoint settles its test.
    let settled = |holds: &dyn Fn(f64, f64) -> bool| known.iter().any(|&(x, fx)| holds(x, fx));
    let lo_clamps = if settled(&|x, fx| x <= lo && fx >= target) {
        true
    } else if settled(&|x, fx| x >= lo && fx < target) {
        false
    } else {
        search.probe(lo) >= target
    };
    if lo_clamps {
        return Ok((lo, search.stats));
    }
    let hi_clamps = if settled(&|x, fx| x >= hi && fx <= target) {
        true
    } else if settled(&|x, fx| x <= hi && fx > target) {
        false
    } else {
        search.probe(hi) <= target
    };
    if hi_clamps {
        return Ok((hi, search.stats));
    }
    search.below = search.below.max(lo);
    search.above = search.above.min(hi);

    if let Some(estimate) = warm.and_then(|w| search.newton(w.hints)) {
        search.confirm_window(estimate);
    }

    // The replay: the cold loop, level for level. An evaluated midpoint
    // never settles a later one (those lie strictly inside the halved
    // bracket), so only the points gathered above skip evaluations.
    let (mut a, mut b) = (lo, hi);
    for _ in 0..max_iters {
        let mid = 0.5 * (a + b);
        if (b - a) < tol || mid <= a || mid >= b {
            // Tolerance reached — or f64 resolution exhausted, where the
            // midpoint stops moving and further iterations cannot change
            // the bracket (the monotone invariant pins the branch), so
            // returning now is bit-identical to running out the cap.
            return Ok((mid, search.stats));
        }
        let below = if search.contains(mid) {
            search.stats.iterations += 1;
            search.probe(mid) < target
        } else {
            search.stats.start_depth += 1;
            mid <= search.below
        };
        if below {
            a = mid;
        } else {
            b = mid;
        }
    }
    Ok((0.5 * (a + b), search.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_projection_clamps() {
        let b = BoxConstraints::uniform(3, 0.0, 1.0).unwrap();
        let mut x = vec![-1.0, 0.5, 2.0];
        b.project(&mut x);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
        assert!(b.contains(&x, 0.0));
    }

    #[test]
    fn box_rejects_inverted_bounds() {
        assert!(BoxConstraints::new(vec![1.0], vec![0.0]).is_err());
        assert!(BoxConstraints::new(vec![0.0, 0.0], vec![1.0]).is_err());
        assert!(BoxConstraints::new(vec![f64::NAN], vec![1.0]).is_err());
    }

    #[test]
    fn pgd_solves_quadratic() {
        // min ||x - t||^2 over [0,1]^3 with t = (0.3, -2, 5) -> (0.3, 0, 1).
        let t = [0.3, -2.0, 5.0];
        let b = BoxConstraints::uniform(3, 0.0, 1.0).unwrap();
        let r = projected_gradient(
            |x, g| {
                let mut v = 0.0;
                for i in 0..3 {
                    let d = x[i] - t[i];
                    g[i] = 2.0 * d;
                    v += d * d;
                }
                v
            },
            &[0.5, 0.5, 0.5],
            &b,
            &PgdConfig::default(),
        )
        .unwrap();
        assert!((r.x[0] - 0.3).abs() < 1e-6);
        assert!(r.x[1].abs() < 1e-6);
        assert!((r.x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pgd_handles_ill_conditioned_quadratic() {
        // min x'Dx with D = diag(1, 1000) from a far start.
        let b = BoxConstraints::uniform(2, -10.0, 10.0).unwrap();
        let r = projected_gradient(
            |x, g| {
                g[0] = 2.0 * x[0];
                g[1] = 2000.0 * x[1];
                x[0] * x[0] + 1000.0 * x[1] * x[1]
            },
            &[9.0, 9.0],
            &b,
            &PgdConfig {
                max_iter: 20_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.value < 1e-8, "value {}", r.value);
    }

    #[test]
    fn pgd_dimension_mismatch() {
        let b = BoxConstraints::uniform(2, 0.0, 1.0).unwrap();
        assert!(projected_gradient(|_, _| 0.0, &[0.0], &b, &PgdConfig::default()).is_err());
    }

    #[test]
    fn pgd_rejects_bad_config() {
        let b = BoxConstraints::uniform(1, 0.0, 1.0).unwrap();
        let bad = PgdConfig {
            backtrack: 1.5,
            ..Default::default()
        };
        assert!(projected_gradient(|_, _| 0.0, &[0.5], &b, &bad).is_err());
    }

    #[test]
    fn penalty_enforces_equality() {
        // min sum((x-2)^2) s.t. sum(x) = 1, x in [0, 5]^2 -> x = (0.5, 0.5).
        let b = BoxConstraints::uniform(2, 0.0, 5.0).unwrap();
        let mut constraints: Vec<(ConstraintKind, ConstraintFn<'_>)> = vec![(
            ConstraintKind::Equality,
            Box::new(|x: &[f64], g: &mut [f64]| {
                g[0] = 1.0;
                g[1] = 1.0;
                x[0] + x[1] - 1.0
            }),
        )];
        let r = penalty_minimize(
            |x, g| {
                let mut v = 0.0;
                for i in 0..2 {
                    let d = x[i] - 2.0;
                    g[i] = 2.0 * d;
                    v += d * d;
                }
                v
            },
            &mut constraints,
            &[2.0, 2.0],
            &b,
            &PgdConfig::default(),
            1e-6,
        )
        .unwrap();
        assert!((r.x[0] - 0.5).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] - 0.5).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn penalty_inactive_inequality_is_free() {
        // Constraint x0 <= 10 never binds.
        let b = BoxConstraints::uniform(1, -5.0, 5.0).unwrap();
        let mut constraints: Vec<(ConstraintKind, ConstraintFn<'_>)> = vec![(
            ConstraintKind::Inequality,
            Box::new(|x: &[f64], g: &mut [f64]| {
                g[0] = 1.0;
                x[0] - 10.0
            }),
        )];
        let r = penalty_minimize(
            |x, g| {
                g[0] = 2.0 * (x[0] - 1.0);
                (x[0] - 1.0) * (x[0] - 1.0)
            },
            &mut constraints,
            &[0.0],
            &b,
            &PgdConfig::default(),
            1e-8,
        )
        .unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bisect_monotone_hits_target() {
        let x = bisect_monotone(|x| x * x * x, 8.0, 0.0, 10.0, 1e-12).unwrap();
        assert!((x - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bisect_monotone_clamps_at_boundaries() {
        assert_eq!(bisect_monotone(|x| x, -5.0, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(bisect_monotone(|x| x, 5.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn bisect_monotone_rejects_bad_interval() {
        assert!(bisect_monotone(|x| x, 0.5, 1.0, 0.0, 1e-12).is_err());
        assert!(bisect_monotone_instrumented(|x| x, 0.5, 0.0, 1.0, 1e-12, 0, None).is_err());
    }

    /// A family of strictly increasing test functions for the warm-start
    /// identity checks.
    fn monotone_fn(k: usize) -> impl Fn(f64) -> f64 {
        move |x: f64| match k {
            0 => x * x * x,
            1 => x.exp_m1() + 0.25 * x,
            2 => x / (1.0 + x.abs()) + 1e-3 * x,
            _ => x.atan() + 0.5 * x,
        }
    }

    #[test]
    fn hinted_bisection_is_bit_identical_to_cold_for_any_hint() {
        for k in 0..4 {
            let f = monotone_fn(k);
            for &target in &[0.1, 1.0, 4.7, 7.99] {
                let cold = bisect_monotone_with(&f, target, -3.0, 10.0, 1e-12, 200).unwrap();
                for &hint in &[
                    f64::NAN,
                    f64::INFINITY,
                    -3.0,
                    10.0,
                    -2.999,
                    9.999,
                    cold,
                    cold + 1e-9,
                    cold - 0.5,
                    cold + 2.0,
                    0.0,
                ] {
                    let (warm, stats) = bisect_monotone_instrumented(
                        &f,
                        target,
                        -3.0,
                        10.0,
                        1e-12,
                        200,
                        Some(WarmStart {
                            hints: &[hint],
                            known: &[],
                        }),
                    )
                    .unwrap();
                    assert_eq!(
                        warm.to_bits(),
                        cold.to_bits(),
                        "k={k} target={target} hint={hint}: {warm} vs {cold}"
                    );
                    // The warm start can only remove halvings, never add.
                    let (_, cold_stats) =
                        bisect_monotone_instrumented(&f, target, -3.0, 10.0, 1e-12, 200, None)
                            .unwrap();
                    assert!(
                        stats.iterations <= cold_stats.iterations,
                        "hint={hint}: warm {} > cold {} iterations",
                        stats.iterations,
                        cold_stats.iterations
                    );
                }
            }
        }
    }

    /// A function of `x`: a test function or its slope.
    type Curve = fn(f64) -> f64;

    /// A nondecreasing test function and its slope: smooth (0, 1),
    /// step-like with plateaus exactly at the targets 1.0, 2.0 and 4.5
    /// (2, 3), and the f64-noisy staircase a large sum produces (4).
    fn sloped_fn(k: usize) -> (Curve, Curve) {
        match k {
            0 => (|x| x * x * x, |x| 3.0 * x * x),
            1 => (|x| x.exp_m1() + 0.25 * x, |x| x.exp() + 0.25),
            2 => (|x| (2.0 * x).floor() * 0.5, |_| 0.0),
            3 => (
                |x| x.clamp(1.0, 2.0) + (x - 4.0).max(0.0),
                |x| f64::from(u8::from((1.0..2.0).contains(&x) || x > 4.0)),
            ),
            _ => (
                |x| (x + 1e8) - 1e8 + 1e-3 * x * x * x,
                |x| 1.0 + 3e-3 * x * x,
            ),
        }
    }

    /// A test function with an optional supplied slope.
    struct Sloped {
        f: Curve,
        slope: Option<Curve>,
    }

    impl MonotoneFn for Sloped {
        fn value(&mut self, x: f64) -> f64 {
            (self.f)(x)
        }

        fn value_and_slope(&mut self, x: f64) -> Option<(f64, f64)> {
            self.slope.map(|slope| ((self.f)(x), slope(x)))
        }
    }

    /// Slopes a warm search must survive: none, the exact one, and wrong
    /// ones (zero, negative, NaN, huge).
    fn slope_variants(exact: Curve) -> [Option<Curve>; 6] {
        [
            None,
            Some(exact),
            Some(|_| 0.0),
            Some(|_| -1.0),
            Some(|_| f64::NAN),
            Some(|_| 1e300),
        ]
    }

    /// One search over `[-3, 10]`: test function `k`, a target, and the
    /// stop rule `(tol, max_iters)`.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        k: usize,
        target: f64,
        stop: (f64, usize),
    }

    impl Case {
        fn run(&self, slope: Option<Curve>, warm: Option<WarmStart<'_>>) -> (f64, BisectStats) {
            let f = sloped_fn(self.k).0;
            let (tol, cap) = self.stop;
            bisect_monotone_instrumented(
                Sloped { f, slope },
                self.target,
                -3.0,
                10.0,
                tol,
                cap,
                warm,
            )
            .unwrap()
        }

        /// Check a warm search against the cold one: the same bits, and
        /// the same bisection levels, some decided by known points.
        fn assert_warm_matches_cold(
            &self,
            slope: Option<Curve>,
            hints: &[f64],
            known: &[(f64, f64)],
        ) {
            let (cold, cold_stats) = self.run(None, None);
            let (warm, stats) = self.run(slope, Some(WarmStart { hints, known }));
            let case = format!(
                "{self:?} slope(1.5)={:?} hints={hints:?} known={known:?}",
                slope.map(|s| s(1.5))
            );
            assert_eq!(warm.to_bits(), cold.to_bits(), "{case}: {warm} vs {cold}");
            assert_eq!(
                stats.iterations + stats.start_depth,
                cold_stats.iterations,
                "{case}: a different level count"
            );
        }
    }

    #[test]
    fn warm_search_is_bit_identical_for_any_hint_known_points_and_slope() {
        let stops = [(1e-12, 200), (1e-30, 17), (1e-30, 5), (0.0, 2_200)];
        for k in 0..5 {
            let (f, exact_slope) = sloped_fn(k);
            for &target in &[0.1, 1.0, 2.0, 4.5, 7.99] {
                for stop in stops {
                    let case = Case { k, target, stop };
                    let cold = case.run(None, None).0;
                    let eval =
                        |xs: &[f64]| -> Vec<(f64, f64)> { xs.iter().map(|&x| (x, f(x))).collect() };
                    let known_sets = [
                        vec![],
                        eval(&[cold]),
                        eval(&[cold - 1e-3, cold + 1e-3]),
                        eval(&[cold - 1e-9, cold + 0.25, cold + 1e-9]),
                        eval(&[-3.0, 10.0]),
                        eval(&[-5.0, 20.0]),
                    ];
                    let hints = [
                        f64::NAN,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        -3.0,
                        10.0,
                        -2.999,
                        9.999,
                        cold,
                        cold * 1e20,
                        cold * 1e-20,
                        cold + 1e-9,
                        cold + 0.25,
                        cold - 0.5,
                        cold + 2.0,
                        0.0,
                    ];
                    for known in &known_sets {
                        for slope in slope_variants(exact_slope) {
                            for &hint in &hints {
                                case.assert_warm_matches_cold(slope, &[hint], known);
                            }
                            // A far first hint whose Newton step leaves
                            // the bracket restarts from the second.
                            case.assert_warm_matches_cold(slope, &[cold * 1e6, cold], known);
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        #[test]
        fn warm_search_matches_cold_on_random_hints_and_points(
            k in 0usize..5,
            target in -1.0f64..9.0,
            decades in -25.0f64..25.0,
            offset in -1.0f64..1.0,
            xs in proptest::collection::vec(-6.0f64..13.0, 0..4),
            slope_choice in 0usize..6,
            stop_choice in 0usize..3,
        ) {
            let (f, exact_slope) = sloped_fn(k);
            let stop = [(1e-12, 200), (1e-30, 9), (0.0, 2_200)][stop_choice];
            let case = Case { k, target, stop };
            let cold = case.run(None, None).0;
            let known: Vec<(f64, f64)> = xs.iter().map(|&x| (x, f(x))).collect();
            // Hints from the exact root out to twenty-five decades away.
            let far = cold * 10f64.powf(decades);
            let near = cold + offset * 10f64.powf(-decades.abs());
            let slope = slope_variants(exact_slope)[slope_choice];
            for hints in [[far, near], [near, far]] {
                case.assert_warm_matches_cold(slope, &hints, &known);
            }
        }
    }

    #[test]
    fn newton_steps_leave_few_midpoints_to_evaluate() {
        // With an exact slope, a hint 1e-3 off converges in a few Newton
        // passes and confirms a window whose midpoints are all that is
        // left to evaluate; without a slope the same hint confirms no
        // window and the replay evaluates almost every level.
        let (f, slope) = sloped_fn(1);
        let (cold, cold_stats) =
            bisect_monotone_instrumented(f, 4.7, -3.0, 10.0, 1e-12, 200, None).unwrap();
        let hint = cold * (1.0 + 1e-3);
        let warm = |slope| {
            bisect_monotone_instrumented(
                Sloped { f, slope },
                4.7,
                -3.0,
                10.0,
                1e-12,
                200,
                Some(WarmStart {
                    hints: &[hint],
                    known: &[],
                }),
            )
            .unwrap()
        };
        let (newton, newton_stats) = warm(Some(slope));
        let (plain, plain_stats) = warm(None);
        assert_eq!(newton.to_bits(), cold.to_bits());
        assert_eq!(plain.to_bits(), cold.to_bits());
        assert!(
            newton_stats.evaluations <= 10,
            "newton {newton_stats:?} vs cold {cold_stats:?}"
        );
        assert!(
            plain_stats.evaluations > cold_stats.evaluations / 2,
            "plain {plain_stats:?} vs cold {cold_stats:?}"
        );
    }

    #[test]
    fn known_points_settle_the_endpoint_tests() {
        let f = |x: f64| x;
        // A known point above the root settles `f(hi) > target`: only
        // `f(lo)` is evaluated before the window probes.
        let (x, stats) = bisect_monotone_instrumented(
            f,
            0.5,
            0.0,
            1.0,
            1e-12,
            200,
            Some(WarmStart {
                hints: &[f64::NAN],
                known: &[(0.75, 0.75)],
            }),
        )
        .unwrap();
        let cold = bisect_monotone_with(f, 0.5, 0.0, 1.0, 1e-12, 200).unwrap();
        assert_eq!(x.to_bits(), cold.to_bits());
        assert_eq!(stats.evaluations, 1 + stats.iterations);
        // Known points past either endpoint clamp without any evaluation.
        for (target, known, clamp) in [(-5.0, (-1.0, -1.0), 0.0), (5.0, (2.0, 2.0), 1.0)] {
            let (x, stats) = bisect_monotone_instrumented(
                f,
                target,
                0.0,
                1.0,
                1e-12,
                200,
                Some(WarmStart {
                    hints: &[0.5],
                    known: &[known],
                }),
            )
            .unwrap();
            assert_eq!(x, clamp);
            assert_eq!(stats, BisectStats::default());
        }
    }

    #[test]
    fn good_hints_skip_deep_into_the_bracket_tree() {
        let f = |x: f64| x * x * x;
        let cold = bisect_monotone_with(f, 8.0, 0.0, 10.0, 1e-12, 200).unwrap();
        let (warm, stats) = bisect_monotone_instrumented(
            f,
            8.0,
            0.0,
            10.0,
            1e-12,
            200,
            Some(WarmStart {
                hints: &[cold],
                known: &[],
            }),
        )
        .unwrap();
        assert_eq!(warm.to_bits(), cold.to_bits());
        assert!(
            stats.start_depth > 20,
            "exact hint should verify deep: depth {}",
            stats.start_depth
        );
        let (_, cold_stats) =
            bisect_monotone_instrumented(f, 8.0, 0.0, 10.0, 1e-12, 200, None).unwrap();
        assert!(stats.iterations < cold_stats.iterations / 2);
        assert!(stats.evaluations < cold_stats.evaluations);
    }

    #[test]
    fn hinted_bisection_respects_endpoint_clamps() {
        // Clamping at the endpoints ignores the hint entirely.
        let (x, s) = bisect_monotone_instrumented(
            |x| x,
            -5.0,
            0.0,
            1.0,
            1e-12,
            200,
            Some(WarmStart {
                hints: &[0.5],
                known: &[],
            }),
        )
        .unwrap();
        assert_eq!(x, 0.0);
        assert_eq!(s.evaluations, 1);
        let (x, _) = bisect_monotone_instrumented(
            |x| x,
            5.0,
            0.0,
            1.0,
            1e-12,
            200,
            Some(WarmStart {
                hints: &[0.5],
                known: &[],
            }),
        )
        .unwrap();
        assert_eq!(x, 1.0);
    }

    #[test]
    fn hinted_bisection_agrees_under_a_binding_iteration_cap() {
        // With the cap (not the tolerance) terminating the search, a warm
        // start still stops at the same dyadic depth as a cold run.
        let f = |x: f64| x * x * x;
        let cold = bisect_monotone_with(f, 8.0, 0.0, 10.0, 1e-30, 17).unwrap();
        for &hint in &[1.9, 2.0, 2.2, 7.5] {
            let (warm, _) = bisect_monotone_instrumented(
                f,
                8.0,
                0.0,
                10.0,
                1e-30,
                17,
                Some(WarmStart {
                    hints: &[hint],
                    known: &[],
                }),
            )
            .unwrap();
            assert_eq!(warm.to_bits(), cold.to_bits(), "hint {hint}");
        }
    }
}
