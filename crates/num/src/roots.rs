//! Scalar root finding.
//!
//! The client best response of the CPL game (equation (13) of the paper) is
//! the unique positive root of the cubic
//! `2 c q^3 − P q^2 − K = 0` with `K = v (α/R) a² G² ≥ 0`; the server-side
//! budget-tightening steps need a robust monotone bisection. Both are
//! provided here.

use crate::error::NumError;

/// Default tolerance on the root location.
pub const DEFAULT_TOL: f64 = 1e-12;

/// Default iteration budget of [`bisect`].
pub const DEFAULT_MAX_ITER: usize = 200;

/// Find a root of `f` in `[lo, hi]` by bisection.
///
/// `f(lo)` and `f(hi)` must have opposite signs (a zero at an endpoint is
/// accepted). Converges unconditionally for continuous `f`.
///
/// # Errors
///
/// Returns [`NumError::NoBracket`] if the interval does not bracket a sign
/// change, and [`NumError::InvalidParameter`] if the interval is invalid.
pub fn bisect<F: FnMut(f64) -> f64>(mut f: F, lo: f64, hi: f64, tol: f64) -> Result<f64, NumError> {
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(NumError::InvalidParameter {
            name: "interval",
            reason: format!("need finite lo <= hi, got [{lo}, {hi}]"),
        });
    }
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(NumError::NoBracket { lo, hi });
    }
    // 200 halvings shrink any f64 interval below machine precision.
    for _ in 0..DEFAULT_MAX_ITER {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        if fm == 0.0 || (b - a) < tol {
            return Ok(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Ok(0.5 * (a + b))
}

/// All real roots of the cubic `a3 x^3 + a2 x^2 + a1 x + a0 = 0`, computed
/// analytically (Cardano, trigonometric form for three real roots).
///
/// Degenerate leading coefficients fall back to the quadratic/linear case.
/// Roots are returned in ascending order.
///
/// # Errors
///
/// Returns [`NumError::InvalidParameter`] when all coefficients are zero
/// (identically-zero polynomial) or any coefficient is non-finite.
pub fn cubic_real_roots(a3: f64, a2: f64, a1: f64, a0: f64) -> Result<Vec<f64>, NumError> {
    for (name, v) in [("a3", a3), ("a2", a2), ("a1", a1), ("a0", a0)] {
        if !v.is_finite() {
            return Err(NumError::InvalidParameter {
                name: "coefficients",
                reason: format!("{name} must be finite, got {v}"),
            });
        }
    }
    const EPS: f64 = 1e-300;
    if a3.abs() < EPS {
        // Quadratic a2 x^2 + a1 x + a0.
        if a2.abs() < EPS {
            if a1.abs() < EPS {
                return Err(NumError::InvalidParameter {
                    name: "coefficients",
                    reason: "identically zero polynomial has no isolated roots".into(),
                });
            }
            return Ok(vec![-a0 / a1]);
        }
        let disc = a1 * a1 - 4.0 * a2 * a0;
        if disc < 0.0 {
            return Ok(vec![]);
        }
        let sq = disc.sqrt();
        let mut roots = vec![(-a1 - sq) / (2.0 * a2), (-a1 + sq) / (2.0 * a2)];
        roots.sort_by(|x, y| x.partial_cmp(y).unwrap());
        return Ok(roots);
    }
    // Depressed cubic t^3 + p t + q with x = t - b/(3a).
    let b = a2 / a3;
    let c = a1 / a3;
    let d = a0 / a3;
    let p = c - b * b / 3.0;
    let q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d;
    let shift = -b / 3.0;
    let disc = (q / 2.0) * (q / 2.0) + (p / 3.0) * (p / 3.0) * (p / 3.0);
    let mut roots = if disc > 1e-18 {
        // One real root (Cardano).
        let sq = disc.sqrt();
        let u = cbrt(-q / 2.0 + sq);
        let v = cbrt(-q / 2.0 - sq);
        vec![u + v + shift]
    } else if disc < -1e-18 {
        // Three distinct real roots (trigonometric method).
        let m = 2.0 * (-p / 3.0).sqrt();
        let acos_arg = (3.0 * q / (p * m)).clamp(-1.0, 1.0);
        let theta = acos_arg.acos() / 3.0;
        (0..3)
            .map(|k| m * (theta - 2.0 * std::f64::consts::PI * k as f64 / 3.0).cos() + shift)
            .collect()
    } else {
        // Multiple root boundary.
        if q.abs() < 1e-18 && p.abs() < 1e-18 {
            vec![shift]
        } else {
            let u = cbrt(-q / 2.0);
            vec![2.0 * u + shift, -u + shift]
        }
    };
    roots.sort_by(|x, y| x.partial_cmp(y).unwrap());
    // Polish with one Newton step each to mop up cancellation error.
    for r in roots.iter_mut() {
        let f = |x: f64| ((a3 * x + a2) * x + a1) * x + a0;
        let df = |x: f64| (3.0 * a3 * x + 2.0 * a2) * x + a1;
        let d = df(*r);
        if d.abs() > 1e-12 {
            let step = f(*r) / d;
            if step.is_finite() {
                *r -= step;
            }
        }
    }
    Ok(roots)
}

fn cbrt(x: f64) -> f64 {
    x.signum() * x.abs().powf(1.0 / 3.0)
}

/// Unique positive root of the best-response cubic
/// `2 c q^3 − P q^2 − K = 0` with `c > 0`, `K ≥ 0`.
///
/// This is the first-order condition (13) of the paper rearranged; for
/// `K > 0` the left-hand side is negative at `q = 0` and strictly increasing
/// for `q` past its stationary point, so the positive root is unique. For
/// `K = 0` the equation degenerates to `q²(2cq − P) = 0` whose economically
/// meaningful root is `max(P, 0) / (2c)`.
///
/// # Errors
///
/// Returns [`NumError::InvalidParameter`] if `c ≤ 0`, `K < 0`, or any input
/// is non-finite.
pub fn best_response_cubic(c: f64, p: f64, k: f64) -> Result<f64, NumError> {
    if !c.is_finite() || c <= 0.0 {
        return Err(NumError::InvalidParameter {
            name: "c",
            reason: format!("must be finite and positive, got {c}"),
        });
    }
    if !k.is_finite() || k < 0.0 {
        return Err(NumError::InvalidParameter {
            name: "k",
            reason: format!("must be finite and non-negative, got {k}"),
        });
    }
    if !p.is_finite() {
        return Err(NumError::InvalidParameter {
            name: "p",
            reason: format!("must be finite, got {p}"),
        });
    }
    if k == 0.0 {
        return Ok(p.max(0.0) / (2.0 * c));
    }
    // g(q) = 2c q^3 - P q^2 - K; g(0) = -K < 0 and g -> +inf, and any root
    // has g'(root) > 0, so the positive root is unique.
    let roots = cubic_real_roots(2.0 * c, -p, 0.0, -k)?;
    let root = roots
        .into_iter()
        .filter(|&r| r > 0.0)
        .fold(f64::NAN, |acc, r| if acc.is_nan() { r } else { acc.max(r) });
    if root.is_nan() {
        // Fall back to bracketed search; cannot happen analytically but we
        // keep the solver total.
        let hi = 1.0_f64.max((p.abs() / c).max((k / c).cbrt()) * 4.0 + 1.0);
        return bisect(|q| ((2.0 * c * q - p) * q) * q - k, 0.0, hi, DEFAULT_TOL);
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert_close(r, std::f64::consts::SQRT_2, 1e-10);
    }

    #[test]
    fn bisect_accepts_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_non_bracketing() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12),
            Err(NumError::NoBracket { .. })
        ));
    }

    #[test]
    fn bisect_rejects_bad_interval() {
        assert!(bisect(|x| x, 1.0, 0.0, 1e-12).is_err());
        assert!(bisect(|x| x, f64::NAN, 1.0, 1e-12).is_err());
    }

    #[test]
    fn cubic_three_real_roots() {
        // (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6.
        let roots = cubic_real_roots(1.0, -6.0, 11.0, -6.0).unwrap();
        assert_eq!(roots.len(), 3);
        assert_close(roots[0], 1.0, 1e-9);
        assert_close(roots[1], 2.0, 1e-9);
        assert_close(roots[2], 3.0, 1e-9);
    }

    #[test]
    fn cubic_one_real_root() {
        // x^3 + x + 1 has a single real root near -0.6823.
        let roots = cubic_real_roots(1.0, 0.0, 1.0, 1.0).unwrap();
        assert_eq!(roots.len(), 1);
        assert_close(roots[0], -0.682_327_803_828_019_3, 1e-9);
    }

    #[test]
    fn cubic_triple_root() {
        // (x-2)^3 = x^3 - 6x^2 + 12x - 8.
        let roots = cubic_real_roots(1.0, -6.0, 12.0, -8.0).unwrap();
        assert!(roots.iter().any(|&r| (r - 2.0).abs() < 1e-6), "{roots:?}");
    }

    #[test]
    fn cubic_degenerates_to_quadratic_and_linear() {
        let roots = cubic_real_roots(0.0, 1.0, -3.0, 2.0).unwrap();
        assert_eq!(roots.len(), 2);
        assert_close(roots[0], 1.0, 1e-9);
        assert_close(roots[1], 2.0, 1e-9);
        let roots = cubic_real_roots(0.0, 0.0, 2.0, -4.0).unwrap();
        assert_eq!(roots, vec![2.0]);
        assert!(cubic_real_roots(0.0, 0.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn cubic_rejects_nonfinite() {
        assert!(cubic_real_roots(f64::NAN, 1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn best_response_satisfies_foc() {
        for &(c, p, k) in &[
            (50.0, 10.0, 4.0),
            (20.0, -5.0, 100.0),
            (80.0, 0.0, 0.5),
            (1.0, 100.0, 1e-6),
            (1e3, -50.0, 1e4),
        ] {
            let q = best_response_cubic(c, p, k).unwrap();
            assert!(q > 0.0, "q={q} for (c={c}, p={p}, k={k})");
            let residual = 2.0 * c * q * q * q - p * q * q - k;
            let scale = (2.0 * c * q * q * q).abs().max(k).max(1.0);
            assert!(
                residual.abs() / scale < 1e-8,
                "residual {residual} for (c={c}, p={p}, k={k})"
            );
        }
    }

    #[test]
    fn best_response_zero_k_matches_linear_cost_tradeoff() {
        // Without intrinsic value, q* = max(P,0)/(2c).
        assert_close(best_response_cubic(10.0, 40.0, 0.0).unwrap(), 2.0, 1e-12);
        assert_eq!(best_response_cubic(10.0, -40.0, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn best_response_monotone_in_price() {
        let mut prev = 0.0;
        for i in 0..50 {
            let p = -20.0 + i as f64 * 2.0;
            let q = best_response_cubic(30.0, p, 7.0).unwrap();
            assert!(q >= prev - 1e-12, "not monotone at p={p}");
            prev = q;
        }
    }

    #[test]
    fn best_response_rejects_bad_inputs() {
        assert!(best_response_cubic(0.0, 1.0, 1.0).is_err());
        assert!(best_response_cubic(-1.0, 1.0, 1.0).is_err());
        assert!(best_response_cubic(1.0, 1.0, -1.0).is_err());
        assert!(best_response_cubic(1.0, f64::NAN, 1.0).is_err());
    }
}
