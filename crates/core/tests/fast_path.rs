//! Certification contract of the threshold-indexed fast path.
//!
//! The fast solver is allowed to land on a *different-bits* root than the
//! exact solver — its probes run over a reordered, series-truncated spend
//! model — but every certified solve must agree with the exact solver to
//! within the certification bands:
//!
//! * relative price error ≤ 1e-6 against the exact solution;
//! * exact sampled Theorem-2 residual of the fast profile ≤ 1e-6;
//! * saturation/floored classification identical.
//!
//! And every *fallback* solve must be **bit-identical** to the exact
//! solver — the fallback is the exact solver.
//!
//! Pinned across threads {1, 2, 3} on a population large enough to spawn
//! workers, the proptest population variants of `scale_properties`, and
//! the heavy-tail Pareto spreads of `heavy_tail`.

use fedfl_core::active_set::{grid_segments, ActiveSetIndex, IndexColumns};
use fedfl_core::bound::BoundParams;
use fedfl_core::population::{
    ClientProfile, ParamDist, Population, PopulationColumns, PopulationSpec,
};
use fedfl_core::server::{
    path_budget, solve_kkt_columns, theorem2_max_residual, KktDiagnostics, SolverMode,
    SolverOptions, StageOneSolution,
};
use fedfl_obs::{NoopRecorder, Registry};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::ops::Range;

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).unwrap()
}

/// The index a standalone fast solve builds: normalised columns at
/// `scale = 1`, in positional segments.
fn positional_index(cols: &PopulationColumns, options: &SolverOptions) -> ActiveSetIndex {
    ActiveSetIndex::build(
        &IndexColumns::from_population(cols),
        &grid_segments(cols.len()),
        None,
        bound().alpha_over_r(),
        options.q_min,
        1.0,
        options.config.n_threads,
    )
    .0
}

/// Segment `k` holds the rows whose key is `k` modulo `count`, one range
/// per row, in row order.
fn keyed_segments(keys: &[u32], count: usize) -> Vec<Vec<Range<usize>>> {
    let mut segments = vec![Vec::new(); count];
    for (i, &key) in keys.iter().enumerate() {
        segments[key as usize % count].push(i..i + 1);
    }
    segments
}

/// The exact solve (`index: None`) or the fast one (`Some`).
fn solve(
    population: &PopulationColumns,
    budget: f64,
    options: &SolverOptions,
    hint: Option<f64>,
    index: Option<&ActiveSetIndex>,
) -> (StageOneSolution, KktDiagnostics) {
    solve_kkt_columns(
        population,
        &bound(),
        budget,
        options,
        hint,
        index,
        &NoopRecorder,
    )
    .unwrap()
}

fn spec_for(variant: u8) -> PopulationSpec {
    let mut spec = PopulationSpec::table1_like();
    match variant % 3 {
        0 => {}
        1 => {
            spec.weight = ParamDist::Constant(1.0);
            spec.value = ParamDist::BoundedPareto {
                lo: 1.0,
                hi: 50_000.0,
                alpha: 1.1,
            };
        }
        _ => {
            spec.weight = ParamDist::LogNormal {
                median: 10.0,
                sigma: 1.0,
            };
            spec.value = ParamDist::Constant(0.0);
            spec.cost = ParamDist::Uniform {
                lo: 10.0,
                hi: 200.0,
            };
        }
    }
    spec
}

/// Fast solve must either certify (and then agree with the exact solver
/// within the bands) or fall back (and then equal the exact solver bit
/// for bit). Returns the mode for callers that pin one or the other.
fn assert_fast_agrees(p: &Population, budget: f64, options: &SolverOptions) -> SolverMode {
    let cols = p.columns();
    let index = positional_index(&cols, options);
    let (exact, exact_diag) = solve(&cols, budget, options, None, None);
    let (fast, diag) = solve(&cols, budget, options, None, Some(&index));
    match diag.solver_mode {
        SolverMode::ThresholdIndex => {
            assert_eq!(fast.saturated, exact.saturated, "saturation flag diverged");
            assert_eq!(
                fast.lambda.is_some(),
                exact.lambda.is_some(),
                "interior/corner classification diverged"
            );
            let worst_price = fast
                .prices
                .iter()
                .zip(&exact.prices)
                .map(|(f, e)| (f - e).abs() / e.abs().max(1.0))
                .fold(0.0f64, f64::max);
            assert!(
                worst_price <= 1e-6,
                "certified fast prices off by {worst_price:e}"
            );
            assert!(
                (fast.spent - exact.spent).abs() <= 1e-6 * exact.spent.abs().max(1.0),
                "spent diverged: fast {} vs exact {}",
                fast.spent,
                exact.spent
            );
            if let Some(residual) =
                theorem2_max_residual(&cols, &bound(), &fast, options.q_min, 2_048, 7)
            {
                assert!(residual <= 1e-6, "fast Theorem-2 residual {residual:e}");
            }
        }
        SolverMode::ThresholdIndexFallback => {
            assert_eq!(
                fast, exact,
                "fallback must be the exact solver, bit for bit"
            );
            assert_eq!(diag.t_star.to_bits(), exact_diag.t_star.to_bits());
        }
        SolverMode::Exact => panic!("fast entry point reported Exact mode"),
    }
    diag.solver_mode
}

#[test]
fn certified_fast_solves_are_thread_count_invariant() {
    // Five chunks: a worker spawns only when each gets at least two
    // chunks, so threads 2 and 3 run the spawned passes.
    let n = 4 * fedfl_num::parallel::DEFAULT_CHUNK + 531;
    let p = Population::synthesize(n, &PopulationSpec::table1_like(), 5).unwrap();
    let b = bound();
    let options = SolverOptions::with_threads(1);
    let budget = path_budget(&p, &b, &options, 0.4);
    let cols = p.columns();
    let (exact, _) = solve(&cols, budget, &options, None, None);
    let serial_index = positional_index(&cols, &options);
    let (serial_fast, serial_diag) = solve(&cols, budget, &options, None, Some(&serial_index));
    assert_eq!(
        serial_diag.solver_mode,
        SolverMode::ThresholdIndex,
        "table1-like population should certify"
    );
    for threads in [1usize, 2, 3] {
        let opts = SolverOptions::with_threads(threads);
        // The exact solve the fast path certifies against (and falls back
        // to) is thread-invariant too.
        let (exact_t, _) = solve(&cols, budget, &opts, None, None);
        assert_eq!(exact_t, exact, "threads {threads} changed exact bits");
        let index = positional_index(&cols, &opts);
        let (fast, diag) = solve(&cols, budget, &opts, None, Some(&index));
        assert_eq!(diag.solver_mode, SolverMode::ThresholdIndex);
        // The index build is thread-count independent and the probes and
        // materialisation share the exact solver's fixed chunk tree, so
        // the fast solve itself is thread-invariant bit for bit.
        assert_eq!(fast, serial_fast, "threads {threads} changed fast bits");
        let worst = fast
            .prices
            .iter()
            .zip(&exact.prices)
            .map(|(f, e)| (f - e).abs() / e.abs().max(1.0))
            .fold(0.0f64, f64::max);
        assert!(worst <= 1e-6, "price error {worst:e}");
    }
}

#[test]
fn reused_index_solves_match_and_hint_cuts_iterations() {
    let p = Population::synthesize(4_000, &PopulationSpec::table1_like(), 9).unwrap();
    let b = bound();
    let options = SolverOptions::default();
    let budget = path_budget(&p, &b, &options, 0.5);
    let cols = p.columns();
    let index = positional_index(&cols, &options);
    let (cold, cold_diag) = solve(&cols, budget, &options, None, Some(&index));
    assert_eq!(cold_diag.solver_mode, SolverMode::ThresholdIndex);
    let (warm, warm_diag) = solve(
        &cols,
        budget,
        &options,
        Some(cold_diag.t_star),
        Some(&index),
    );
    assert_eq!(warm_diag.solver_mode, SolverMode::ThresholdIndex);
    assert_eq!(warm, cold, "hinted fast solve changed bits");
    assert!(
        warm_diag.bisect_iterations <= cold_diag.bisect_iterations,
        "hint increased iterations: {} > {}",
        warm_diag.bisect_iterations,
        cold_diag.bisect_iterations
    );
    // A stale index (wrong population) is detected, not trusted.
    let other = Population::synthesize(4_001, &PopulationSpec::table1_like(), 10).unwrap();
    let other_cols = other.columns();
    let (fb, fb_diag) = solve(&other_cols, budget, &options, None, Some(&index));
    assert_eq!(fb_diag.solver_mode, SolverMode::ThresholdIndexFallback);
    let (exact_other, _) = solve(&other_cols, budget, &options, None, None);
    assert_eq!(fb, exact_other);
}

#[test]
fn same_length_stale_index_fails_the_certificate_and_falls_back_exactly() {
    // An index over another population of the *same* length passes the
    // usability screen (length, knobs, degeneracy), so the certificate
    // itself must reject its root — whether the model root lands above
    // the exact root (cheaper stale costs model a lower spend) or below
    // it (dearer ones model a higher spend).
    let b = bound();
    let options = SolverOptions::default();
    let n = 3_000;
    let p = Population::synthesize(n, &PopulationSpec::table1_like(), 21).unwrap();
    let cols = p.columns();
    let budget = path_budget(&p, &b, &options, 0.01);
    let (exact, exact_diag) = solve(&cols, budget, &options, None, None);
    let keys: Vec<u32> = (0..n as u32).map(|i| (i / 32) % 16).collect();
    let segments = keyed_segments(&keys, 16);
    // Model spend at the exact root below the budget puts the model
    // root above the exact root, and vice versa.
    for (cost_factor, model_at_exact_root) in [(0.9, Ordering::Less), (1.1, Ordering::Greater)] {
        let mut stale = cols.clone();
        stale.cost.iter_mut().for_each(|c| *c *= cost_factor);
        let (index, _) = ActiveSetIndex::build(
            &IndexColumns::from_population(&stale),
            &segments,
            None,
            b.alpha_over_r(),
            options.q_min,
            1.0,
            1,
        );
        assert_eq!(index.len(), n);
        assert!(
            index.saturated_spend() > budget,
            "the stale model must bisect, not take the saturation screen"
        );
        assert_eq!(
            index.spend(exact_diag.t_star).partial_cmp(&budget),
            Some(model_at_exact_root),
            "cost factor {cost_factor}"
        );
        let registry = Registry::new();
        let (fallback, diag) =
            solve_kkt_columns(&cols, &b, budget, &options, None, Some(&index), &registry).unwrap();
        assert_eq!(diag.solver_mode, SolverMode::ThresholdIndexFallback);
        assert_eq!(
            fallback, exact,
            "fallback must be the exact solver, bit for bit"
        );
        assert_eq!(diag.t_star.to_bits(), exact_diag.t_star.to_bits());
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("fedfl_solver_cert_failures_total"),
            Some(1),
            "cost factor {cost_factor}"
        );
        assert_eq!(
            snapshot.counter("fedfl_solver_residual_rejects_total"),
            Some(0)
        );
    }
}

#[test]
fn fast_probes_are_sublinear_on_moderate_instances() {
    let n = 20_000;
    let p = Population::synthesize(n, &PopulationSpec::table1_like(), 2023).unwrap();
    let b = bound();
    let options = SolverOptions::default();
    let budget = path_budget(&p, &b, &options, 0.5);
    let cols = p.columns();
    let index = positional_index(&cols, &options);
    let (_, exact_diag) = solve(&cols, budget, &options, None, None);
    let (_, fast_diag) = solve(&cols, budget, &options, None, Some(&index));
    assert_eq!(fast_diag.solver_mode, SolverMode::ThresholdIndex);
    assert!(
        fast_diag.probe_evaluations * 10 <= exact_diag.probe_evaluations,
        "fast {} vs exact {} spend evaluations — expected ≥10× fewer",
        fast_diag.probe_evaluations,
        exact_diag.probe_evaluations
    );
}

#[test]
fn extreme_spread_population_stays_correct() {
    // One cheap heavy client plus feather-weights spanning 21 decades of
    // cost: whether or not the model certifies here, the result must obey
    // the contract (certified-close or fallback-bit-identical).
    let p = Population::builder()
        .weights(vec![1.0 - 1e-19, 5e-20, 5e-20])
        .g_squared(vec![4.0, 4.0, 4.0])
        .costs(vec![1e-6, 1e15, 1e15])
        .values(vec![0.0, 0.0, 0.0])
        .build()
        .unwrap();
    let options = SolverOptions::default();
    for frac in [1e-60, 1e-9, 0.5] {
        let budget = path_budget(&p, &bound(), &options, frac);
        assert_fast_agrees(&p, budget, &options);
    }
}

#[test]
fn pareto_spread_fast_solves_respect_the_contract() {
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
    let options = SolverOptions::default();
    for frac in [1e-9, 1e-3, 0.3, 0.9] {
        let budget = path_budget(&p, &bound(), &options, frac);
        assert_fast_agrees(&p, budget, &options);
    }
}

#[test]
fn corner_budgets_classify_identically() {
    let p = Population::synthesize(600, &PopulationSpec::table1_like(), 4).unwrap();
    let b = bound();
    let options = SolverOptions::default();
    let cols = p.columns();
    let index = positional_index(&cols, &options);
    // Saturated: budget above the all-caps spend.
    let generous = path_budget(&p, &b, &options, 1.0) * 2.0;
    let (fast, diag) = solve(&cols, generous, &options, None, Some(&index));
    let (exact, _) = solve(&cols, generous, &options, None, None);
    assert!(fast.saturated);
    assert_eq!(fast.q, exact.q, "saturated profile must match exactly");
    assert_eq!(diag.bisect_iterations, 0);
    // Floored: budget below the floor spend (negative here — values make
    // the floor spend negative-capable, so go far below).
    let stingy = -1e12;
    let (fast, _) = solve(&cols, stingy, &options, None, Some(&index));
    let (exact, _) = solve(&cols, stingy, &options, None, None);
    assert_eq!(fast.q, exact.q, "floored profile must match exactly");
    assert!(!fast.saturated);
}

/// One synthetic client row of the keyed-index churn model.
#[derive(Clone)]
struct ChurnRow {
    w_raw: f64,
    g2: f64,
    cost: f64,
    value: f64,
    q_max: f64,
    key: u32,
}

/// splitmix64 step mapped to `[0, 1)` — a tiny deterministic stream so
/// the churn trace is reproducible from the proptest-chosen seed alone.
fn next_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn churn_row(rng: &mut u64, key: u32) -> ChurnRow {
    ChurnRow {
        w_raw: 0.5 + 4.5 * next_unit(rng),
        g2: 4.0 + 32.0 * next_unit(rng),
        cost: 10.0_f64.powf(-2.0 + 6.0 * next_unit(rng)),
        value: if next_unit(rng) < 0.3 {
            0.0
        } else {
            5_000.0 * next_unit(rng)
        },
        q_max: 0.2 + 0.8 * next_unit(rng),
        key,
    }
}

/// Raw-weight keyed-index inputs assembled the way the service does it:
/// `w2g2 = w_raw² · g2` with `scale = W²` for the current population.
struct ChurnCols {
    w2g2: Vec<f64>,
    cost: Vec<f64>,
    value: Vec<f64>,
    q_max: Vec<f64>,
    keys: Vec<u32>,
    scale: f64,
}

impl ChurnCols {
    fn from_rows(rows: &[ChurnRow]) -> Self {
        let total_w: f64 = rows.iter().map(|r| r.w_raw).sum();
        ChurnCols {
            w2g2: rows.iter().map(|r| r.w_raw * r.w_raw * r.g2).collect(),
            cost: rows.iter().map(|r| r.cost).collect(),
            value: rows.iter().map(|r| r.value).collect(),
            q_max: rows.iter().map(|r| r.q_max).collect(),
            keys: rows.iter().map(|r| r.key).collect(),
            scale: total_w * total_w,
        }
    }

    fn view(&self) -> IndexColumns<'_> {
        IndexColumns {
            w2g2: &self.w2g2,
            cost: &self.cost,
            value: &self.value,
            q_max: &self.q_max,
        }
    }
}

/// The normalised population of churn rows, as the service assembles it.
fn churn_population(rows: &[ChurnRow]) -> Population {
    Population::from_raw(
        rows.iter()
            .map(|r| ClientProfile {
                weight: r.w_raw,
                g_squared: r.g2,
                cost: r.cost,
                value: r.value,
                q_max: r.q_max,
            })
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The warm fast solve's Newton steps on the index's spend slope only
    /// skip work: over a churning population, with the previous root
    /// rescaled for the weight total as the service's hint, the warm
    /// model bisection lands on the cold one's root bit for bit, and the
    /// whole solution matches.
    #[test]
    fn warm_newton_model_root_is_the_cold_model_root_under_churn(
        seed in 0u64..1_000,
        frac in 0.05f64..0.95,
        threads in 1usize..4,
    ) {
        let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0xFA57);
        let options = SolverOptions::with_threads(threads);
        let aor = bound().alpha_over_r();
        let mut rows: Vec<ChurnRow> = (0..2_000)
            .map(|i| churn_row(&mut rng, i / 32))
            .collect();
        let mut next_key = 2_000 / 32;
        let mut previous: Option<(f64, f64)> = None;
        let (mut cold_iterations, mut warm_iterations, mut certified) = (0, 0, 0);
        for step in 0..6 {
            if step > 0 {
                // A churn batch: ~2% departures, then a block of arrivals.
                for _ in 0..40 {
                    let victim = (next_unit(&mut rng) * rows.len() as f64) as usize % rows.len();
                    rows.remove(victim);
                }
                rows.extend((0..32).map(|_| churn_row(&mut rng, next_key)));
                next_key += 1;
            }
            let p = churn_population(&rows);
            let budget = path_budget(&p, &bound(), &options, frac);
            let cols = p.columns();
            let churn = ChurnCols::from_rows(&rows);
            let (index, _) = ActiveSetIndex::build(
                &churn.view(),
                &keyed_segments(&churn.keys, 32),
                None,
                aor,
                options.q_min,
                churn.scale,
                threads,
            );
            let total_weight = churn.scale.sqrt();
            let (cold, cold_diag) = solve(&cols, budget, &options, None, Some(&index));
            if let Some((t_star, weight)) = previous {
                let ratio = total_weight / weight;
                let hint = t_star * ratio * ratio;
                let (warm, warm_diag) = solve(&cols, budget, &options, Some(hint), Some(&index));
                prop_assert_eq!(warm_diag.solver_mode, cold_diag.solver_mode);
                prop_assert_eq!(warm_diag.t_star.to_bits(), cold_diag.t_star.to_bits());
                prop_assert_eq!(&warm, &cold);
                cold_iterations += cold_diag.bisect_iterations;
                warm_iterations += warm_diag.bisect_iterations;
                certified += usize::from(warm_diag.solver_mode == SolverMode::ThresholdIndex);
            }
            previous = Some((cold_diag.t_star, total_weight));
        }
        prop_assert!(certified > 0, "no warm solve certified");
        prop_assert!(
            warm_iterations * 2 <= cold_iterations,
            "warm {} vs cold {} model midpoints",
            warm_iterations,
            cold_iterations
        );
    }

    #[test]
    fn fast_solves_agree_on_random_populations(
        n in 2usize..300,
        seed in 0u64..1_000,
        variant in 0u8..3,
        frac in 1e-6f64..1.0,
        threads in 1usize..4,
    ) {
        let p = Population::synthesize(n, &spec_for(variant), seed).unwrap();
        let options = SolverOptions::with_threads(threads);
        let budget = path_budget(&p, &bound(), &options, frac);
        assert_fast_agrees(&p, budget, &options);
    }

    /// The incremental-patch contract: after any churn batch, patching the
    /// previous keyed index with only the dirty segments flagged is
    /// **bit-identical** to a cold keyed build of the new population —
    /// same thresholds, same prefix moments (structural `PartialEq`), and
    /// same probe bits — across segment counts {1, 2, 7, 32} × threads
    /// {1, 3}. The trace deliberately includes a remove-heavy batch that
    /// empties one segment and a flash-crowd batch that grows one.
    #[test]
    fn patched_index_is_bit_identical_to_cold_keyed_builds_under_churn(
        seed in 0u64..1_000,
        seg_choice in 0usize..4,
        threads in 1usize..4,
    ) {
        let segment_count = [1usize, 2, 7, 32][seg_choice];
        let mut rng = seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x14057B7E);
        let aor = bound().alpha_over_r();
        let q_min = SolverOptions::default().q_min;
        let mut rows: Vec<ChurnRow> = (0..120)
            .map(|_| {
                let key = (next_unit(&mut rng) * 64.0) as u32 % 64;
                churn_row(&mut rng, key)
            })
            .collect();
        let cols = ChurnCols::from_rows(&rows);
        let segments = keyed_segments(&cols.keys, segment_count);
        let (mut index, _) = ActiveSetIndex::build(
            &cols.view(), &segments, None, aor, q_min, cols.scale, threads,
        );
        for step in 0..6u32 {
            let mut dirty = vec![false; segment_count];
            let touch = |key: u32, dirty: &mut Vec<bool>| {
                dirty[key as usize % segment_count] = true;
            };
            match step % 3 {
                0 => {
                    // Mixed churn: a few random departures, a few arrivals.
                    for _ in 0..8 {
                        if !rows.is_empty() {
                            let victim = (next_unit(&mut rng) * rows.len() as f64) as usize
                                % rows.len();
                            touch(rows[victim].key, &mut dirty);
                            rows.remove(victim);
                        }
                        let key = (next_unit(&mut rng) * 64.0) as u32 % 64;
                        touch(key, &mut dirty);
                        rows.push(churn_row(&mut rng, key));
                    }
                }
                1 => {
                    // Remove-heavy: drain every member of one segment, so
                    // the patch must rebuild it down to zero rows.
                    let target = (next_unit(&mut rng) * segment_count as f64) as usize
                        % segment_count;
                    dirty[target] = true;
                    rows.retain(|r| r.key as usize % segment_count != target);
                    if rows.is_empty() {
                        // Keep the population non-degenerate (W > 0).
                        let key = (target as u32).wrapping_add(1);
                        touch(key, &mut dirty);
                        rows.push(churn_row(&mut rng, key));
                    }
                }
                _ => {
                    // Flash crowd concentrated on one hot key.
                    let hot = (next_unit(&mut rng) * 64.0) as u32 % 64;
                    touch(hot, &mut dirty);
                    for _ in 0..40 {
                        rows.push(churn_row(&mut rng, hot));
                    }
                }
            }
            let cols = ChurnCols::from_rows(&rows);
            let segments = keyed_segments(&cols.keys, segment_count);
            let (cold, _) = ActiveSetIndex::build(
                &cols.view(), &segments, None, aor, q_min, cols.scale, threads,
            );
            let (patched, stats) = ActiveSetIndex::build(
                &cols.view(), &segments, Some((&index, &dirty)), aor, q_min, cols.scale, threads,
            );
            let dirty_count = dirty.iter().filter(|&&d| d).count();
            // Patch re-sorts exactly the dirty segments and accounts for
            // every segment, and the result matches the cold build
            // structurally (thresholds, permutations, prefix moments).
            prop_assert_eq!(stats.rebuilt, dirty_count);
            prop_assert_eq!(stats.rebuilt + stats.repaired + stats.reused, segment_count);
            prop_assert_eq!(&patched, &cold);
            prop_assert_eq!(
                patched.floor_spend().to_bits(),
                cold.floor_spend().to_bits()
            );
            prop_assert_eq!(
                patched.saturated_spend().to_bits(),
                cold.saturated_spend().to_bits()
            );
            let hi = cold.bracket_hi();
            for k in 0..9 {
                let t = hi * (0.05 + 0.95 * f64::from(k) / 8.0);
                prop_assert_eq!(patched.spend(t).to_bits(), cold.spend(t).to_bits());
            }
            index = patched;
        }
    }
}
