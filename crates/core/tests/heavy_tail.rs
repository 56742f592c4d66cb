//! Heavy-tail regression: the budget bisection and its warm-start
//! containment search must terminate on the tolerance / f64-resolution
//! stop — never on the iteration cap — even when the population's cost
//! spread puts the saturation parameter 50+ decades above the budget root.
//!
//! With the old 200-iteration default cap, a Pareto-like cost spread
//! (`t_hi / t* > 2^200`) silently cap-terminated the cold bisection and
//! truncated the hinted search's containment chain at the cap depth,
//! pinning the returned path parameter to a cap-width bracket instead of
//! the achievable f64 resolution.

use fedfl_core::bound::BoundParams;
use fedfl_core::population::{ParamDist, Population, PopulationSpec};
use fedfl_core::server::{path_budget, solve_kkt_columns, SolverConfig, SolverOptions};
use fedfl_obs::NoopRecorder;

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).unwrap()
}

/// One cheap heavy client plus expensive feather-weight clients: the
/// saturation parameter is ~1e53 while the budget root sits near 1e-7 —
/// a bracket whose dyadic depth (to the 1e-10 tolerance) exceeds 200.
fn extreme_spread_population() -> Population {
    Population::builder()
        .weights(vec![1.0 - 1e-19, 5e-20, 5e-20])
        .g_squared(vec![4.0, 4.0, 4.0])
        .costs(vec![1e-6, 1e15, 1e15])
        .values(vec![0.0, 0.0, 0.0])
        .build()
        .unwrap()
}

#[test]
fn resolution_stop_not_the_cap_terminates_on_extreme_cost_spreads() {
    let p = extreme_spread_population();
    let b = bound();
    let opts = SolverOptions::default();
    // A budget whose root lies ~60 decades below the saturation parameter.
    let budget = path_budget(&p, &b, &opts, 1e-60);
    let cols = p.columns();
    let (cold, diag) =
        solve_kkt_columns(&cols, &b, budget, &opts, None, None, &NoopRecorder).unwrap();
    assert!(
        diag.bisect_iterations < opts.config.max_iters,
        "cold bisection cap-terminated: {} iterations at the {} cap",
        diag.bisect_iterations,
        opts.config.max_iters
    );
    // The pre-fix cap (200) sat below this bracket's dyadic depth.
    assert!(
        diag.bisect_iterations > 200,
        "expected a bracket deeper than the old 200-iteration cap, got {}",
        diag.bisect_iterations
    );
    assert!(!cold.saturated);
    assert!(diag.t_star.is_finite() && diag.t_star > 0.0);
    assert!(
        (cold.spent - budget).abs() <= 1e-6 * budget.abs().max(1.0),
        "budget not tight: spent {} vs {budget}",
        cold.spent
    );

    // Warm starts — exact, perturbed, wildly stale, and near-zero hints —
    // stay bit-identical and never run more iterations than the cold
    // solve, and the containment chain no longer stagnates at the cap.
    for hint in [
        diag.t_star,
        diag.t_star * 2.0,
        diag.t_star * 1e20,
        1e-30,
        f64::MIN_POSITIVE,
    ] {
        let (warm, wd) =
            solve_kkt_columns(&cols, &b, budget, &opts, Some(hint), None, &NoopRecorder).unwrap();
        assert_eq!(warm, cold, "hint {hint:e} diverged");
        assert!(
            wd.bisect_iterations <= diag.bisect_iterations,
            "hint {hint:e}: warm {} > cold {} iterations",
            wd.bisect_iterations,
            diag.bisect_iterations
        );
        assert!(
            wd.bisect_iterations + wd.warm_start_depth < opts.config.max_iters,
            "hint {hint:e}: search cap-terminated ({} + {})",
            wd.bisect_iterations,
            wd.warm_start_depth
        );
    }
}

#[test]
fn f64_resolution_stop_terminates_below_any_tolerance() {
    // With a tolerance far below f64 resolution, only the resolution
    // stagnation stop can end the search — assert it does, well under the
    // cap, and that hints keep the bit-identity contract there.
    let p = extreme_spread_population();
    let b = bound();
    let opts = SolverOptions {
        config: SolverConfig {
            tolerance: 1e-300,
            ..SolverConfig::default()
        },
        ..SolverOptions::default()
    };
    let budget = path_budget(&p, &b, &opts, 1e-60);
    let cols = p.columns();
    let (cold, diag) =
        solve_kkt_columns(&cols, &b, budget, &opts, None, None, &NoopRecorder).unwrap();
    assert!(
        diag.bisect_iterations < opts.config.max_iters,
        "resolution stop never fired: {} iterations",
        diag.bisect_iterations
    );
    let (warm, wd) = solve_kkt_columns(
        &cols,
        &b,
        budget,
        &opts,
        Some(diag.t_star),
        None,
        &NoopRecorder,
    )
    .unwrap();
    assert_eq!(warm, cold);
    assert!(wd.warm_start_depth > 100, "depth {}", wd.warm_start_depth);
    assert!(wd.bisect_iterations + wd.warm_start_depth < opts.config.max_iters);
}

#[test]
fn pareto_cost_spread_churns_stay_bit_identical_under_hints() {
    // A synthesized Pareto-like cost spread (12 decades) across a real
    // population: every stale hint must reproduce the cold solve exactly
    // and terminate off-cap.
    let spec = PopulationSpec {
        weight: ParamDist::BoundedPareto {
            lo: 1.0,
            hi: 1e6,
            alpha: 0.8,
        },
        g_squared: ParamDist::Uniform { lo: 4.0, hi: 36.0 },
        cost: ParamDist::BoundedPareto {
            lo: 1e-4,
            hi: 1e8,
            alpha: 0.5,
        },
        value: ParamDist::Exponential { mean: 4_000.0 },
        q_max: 1.0,
    };
    let p = Population::synthesize(2_000, &spec, 11).unwrap();
    let b = bound();
    let opts = SolverOptions::default();
    for frac in [1e-9, 1e-3, 0.3, 0.9] {
        let budget = path_budget(&p, &b, &opts, frac);
        let cols = p.columns();
        let (cold, diag) =
            solve_kkt_columns(&cols, &b, budget, &opts, None, None, &NoopRecorder).unwrap();
        assert!(
            diag.bisect_iterations < opts.config.max_iters,
            "frac {frac}"
        );
        for factor in [1.0, 1.001, 0.5, 2.0, 1e-6, 1e6, 1e-12] {
            let (warm, wd) = solve_kkt_columns(
                &cols,
                &b,
                budget,
                &opts,
                Some(diag.t_star * factor),
                None,
                &NoopRecorder,
            )
            .unwrap();
            assert_eq!(warm, cold, "frac {frac} factor {factor}");
            assert!(
                wd.bisect_iterations <= diag.bisect_iterations,
                "frac {frac} factor {factor}: warm {} > cold {}",
                wd.bisect_iterations,
                diag.bisect_iterations
            );
        }
    }
}
