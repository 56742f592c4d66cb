//! Scale properties of the Stage-I equilibrium engine.
//!
//! The paper proves its structural results for arbitrary population sizes;
//! this suite pins them across synthesized populations from 1 client to
//! 100k (and a million-client smoke solve), plus the engine's own
//! contract: the parallel chunked solver is **bit-identical** to the
//! sequential one.
//!
//! * Lemma 3 — budget tightness at interior equilibria;
//! * Theorem 2 — the interior invariant equals `1/λ*`;
//! * Theorem 3 — the payment-direction threshold `v_t = 1/(3λ*)`;
//! * `solve_m_search` ≈ `solve_kkt` agreement;
//! * `n_threads = 1` and `n_threads > 1` produce identical bits.
//!
//! The `#[ignore]` tests are the release-mode scale gate run by CI's
//! `cargo test --release -- --ignored` job; each asserts a wall-clock
//! budget so a performance regression fails the build.

use fedfl_core::active_set::{ActiveSetIndex, IndexColumns, GRID_SEGMENT};
use fedfl_core::bound::BoundParams;
use fedfl_core::game::CplGame;
use fedfl_core::population::{ParamDist, Population, PopulationSpec, Q_MIN};
use fedfl_core::server::{
    path_budget, solve_kkt, solve_kkt_columns, solve_m_search, theorem2_max_residual, SolverMode,
    SolverOptions,
};
use fedfl_obs::NoopRecorder;
use proptest::prelude::*;
use std::time::Instant;

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).unwrap()
}

fn spec_for(variant: u8) -> PopulationSpec {
    let mut spec = PopulationSpec::table1_like();
    match variant % 3 {
        0 => {}
        1 => {
            // Homogeneous shards, heavy-tailed values.
            spec.weight = ParamDist::Constant(1.0);
            spec.value = ParamDist::BoundedPareto {
                lo: 1.0,
                hi: 50_000.0,
                alpha: 1.1,
            };
        }
        _ => {
            // Mild log-normal heterogeneity, zero intrinsic value.
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

/// Assert every structural result of the paper on one synthesized game,
/// and that the parallel solver path reproduces the sequential one
/// bit-for-bit.
fn assert_scale_invariants(n: usize, seed: u64, variant: u8, frac: f64) {
    let spec = spec_for(variant);
    let p = Population::synthesize(n, &spec, seed).expect("synthesize");
    let b = bound();
    let sequential = SolverOptions::with_threads(1);
    let budget = path_budget(&p, &b, &sequential, frac);

    // Parallel path must equal the sequential path exactly.
    let sol = solve_kkt(&p, &b, budget, &sequential).expect("solve");
    for threads in [2, 4] {
        let par = solve_kkt(&p, &b, budget, &SolverOptions::with_threads(threads))
            .expect("parallel solve");
        assert_eq!(sol, par, "n={n} seed={seed}: thread count changed bits");
    }

    let game = CplGame::new(p.clone(), b, budget)
        .unwrap()
        .with_options(sequential);
    let se = game.solve().expect("game solve");

    // Lemma 3: the budget is spent exactly (interior by construction).
    assert!(
        se.is_budget_tight(1e-5) || se.is_saturated(),
        "n={n} seed={seed}: spent {} vs budget {budget}",
        se.spent()
    );

    // Theorem 2: the invariant is constant (= 1/λ*) over interior clients.
    if let Some(lambda) = se.lambda() {
        let target = 1.0 / lambda;
        for inv in se.theorem2_invariants(&p, &b) {
            assert!(
                (inv - target).abs() / target.abs().max(1.0) < 1e-6,
                "n={n} seed={seed}: invariant {inv} vs 1/λ {target}"
            );
        }
        // And the sampled variant agrees.
        if let Some(residual) = se.theorem2_max_residual(&p, &b, 64, seed) {
            assert!(residual < 1e-6, "sampled residual {residual}");
        }

        // Theorem 3: v_t = 1/(3λ*) separates payment directions.
        let vt = se.payment_threshold().expect("interior threshold");
        for (i, c) in p.iter().enumerate() {
            let interior = se.q()[i] > Q_MIN * 1.01 && se.q()[i] < c.q_max * 0.999;
            if !interior {
                continue;
            }
            if c.value < vt * (1.0 - 1e-9) {
                assert!(
                    se.prices()[i] > 0.0,
                    "n={n} seed={seed} client {i}: v={} < vt={vt} but P={}",
                    c.value,
                    se.prices()[i]
                );
            }
            if c.value > vt * (1.0 + 1e-9) {
                assert!(
                    se.prices()[i] < 0.0,
                    "n={n} seed={seed} client {i}: v={} > vt={vt} but P={}",
                    c.value,
                    se.prices()[i]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invariants_hold_for_random_populations(
        n in 1usize..400,
        seed in 0u64..1_000_000,
        variant in 0u8..3,
        frac in 0.05f64..0.95,
    ) {
        assert_scale_invariants(n, seed, variant, frac);
    }
}

proptest! {
    // The M-search runs a projected-gradient inner solve per grid cell:
    // a handful of cases keeps the default suite fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn m_search_tracks_kkt_on_random_populations(
        n in 2usize..8,
        seed in 0u64..1_000,
        frac in 0.2f64..0.8,
    ) {
        // The M-search is the paper's slow literal method: small n only,
        // and the zero-value spec so budgets stay positive and the inner
        // convex problems well-scaled.
        let spec = spec_for(2);
        let p = Population::synthesize(n, &spec, seed).expect("synthesize");
        let b = bound();
        let options = SolverOptions {
            m_grid_steps: 40,
            ..SolverOptions::with_threads(1)
        };
        let budget = path_budget(&p, &b, &options, frac);
        let kkt = solve_kkt(&p, &b, budget, &options).expect("kkt");
        let msearch = solve_m_search(&p, &b, budget, &options).expect("m-search");
        let v_kkt = b.variance_term(&p, &kkt.q);
        let v_m = b.variance_term(&p, &msearch.q);
        // The M-search's penalty method may overspend within its 1e-3
        // feasibility slack, which can nominally "beat" the KKT value at
        // the smaller budget. The sound optimality check is against the
        // KKT optimum at the spend the M-search actually realised.
        let kkt_realized = solve_kkt(&p, &b, msearch.spent, &options).expect("kkt at spend");
        let v_kkt_realized = b.variance_term(&p, &kkt_realized.q);
        prop_assert!(
            v_m >= v_kkt_realized * (1.0 - 1e-3) - 1e-9,
            "m-search beat the KKT optimum at its own spend: {v_m} vs {v_kkt_realized}"
        );
        prop_assert!(
            msearch.spent <= budget.abs().max(1.0).mul_add(1e-3, budget),
            "m-search overspent: {} vs {budget}",
            msearch.spent
        );
        // The outer search is a fixed-step grid (the paper's ε₀), so the
        // agreement band reflects the grid resolution, not solver noise.
        prop_assert!(
            (v_m - v_kkt) / v_kkt.abs().max(1.0) < 0.25,
            "m-search too far from optimum: {v_m} vs {v_kkt}"
        );
    }
}

#[test]
fn size_ladder_from_one_to_ten_thousand() {
    for (k, &n) in [1usize, 10, 100, 1_000, 10_000].iter().enumerate() {
        assert_scale_invariants(n, 42 + k as u64, k as u8, 0.4);
    }
}

#[test]
// The regression anchors keep every digit the seed solver printed.
#[allow(clippy::excessive_precision)]
fn optimality_gap_does_not_regress_versus_seed() {
    // Gap values produced by the seed (pre-refactor, sequential) solver on
    // the canonical 4-client fixture; the scalable engine must match them.
    let expected = [
        (4.0, 13.4621964534365954),
        (10.0, 12.9920410520387737),
        (16.0, 12.5329627123358680),
    ];
    let p = Population::builder()
        .weights(vec![0.4, 0.3, 0.2, 0.1])
        .g_squared(vec![9.0, 16.0, 25.0, 36.0])
        .costs(vec![30.0, 50.0, 70.0, 90.0])
        .values(vec![0.0, 2.0, 5.0, 10.0])
        .build()
        .unwrap();
    let b = bound();
    for (budget, seed_gap) in expected {
        let sol = solve_kkt(&p, &b, budget, &SolverOptions::default()).unwrap();
        let gap = b.optimality_gap(&p, &sol.q);
        assert!(
            gap <= seed_gap * (1.0 + 1e-9),
            "budget {budget}: gap {gap} regressed past seed {seed_gap}"
        );
        assert!(
            (gap - seed_gap).abs() <= seed_gap * 1e-9,
            "budget {budget}: gap {gap} drifted from seed {seed_gap}"
        );
    }
}

/// Release-mode scale gate (CI runs these with `--ignored`): the 100k
/// property pass. The wall-clock budget is generous enough for a single
/// CI core but fails on an accidental O(N²) or per-iteration allocation
/// regression.
#[test]
#[ignore = "release-mode scale gate; run with --ignored"]
fn hundred_thousand_clients_keep_the_invariants() {
    let started = Instant::now();
    assert_scale_invariants(100_000, 7, 0, 0.5);
    let elapsed = started.elapsed();
    assert!(
        elapsed.as_secs_f64() < 120.0,
        "100k-client invariant pass took {elapsed:?} (budget 120s)"
    );
}

/// Release-mode scale gate: the million-client smoke solve of the
/// tentpole acceptance criteria — synthesize 1M clients, solve the
/// Stackelberg equilibrium, verify Theorem 2 on a sample, and check the
/// parallel path is bit-identical to the sequential one.
#[test]
#[ignore = "release-mode scale gate; run with --ignored"]
fn million_client_equilibrium_smoke() {
    let spec = PopulationSpec::table1_like();
    let p = Population::synthesize(1_000_000, &spec, 2023).expect("synthesize 1M");
    let b = bound();
    let sequential = SolverOptions::with_threads(1);
    let budget = path_budget(&p, &b, &sequential, 0.5);

    let started = Instant::now();
    let par = solve_kkt(&p, &b, budget, &SolverOptions::with_threads(4)).expect("parallel solve");
    let solve_time = started.elapsed();

    let seq = solve_kkt(&p, &b, budget, &sequential).expect("sequential solve");
    assert_eq!(par, seq, "thread count changed bits at 1M clients");

    let game = CplGame::new(p.clone(), b, budget).unwrap();
    let se = game.solve().expect("game solve");
    assert!(se.is_budget_tight(1e-5), "spent {}", se.spent());
    let residual = se
        .theorem2_max_residual(&p, &b, 10_000, 99)
        .expect("interior clients in a 1M draw");
    assert!(residual < 1e-6, "Theorem 2 residual {residual}");

    assert!(
        solve_time.as_secs_f64() < 120.0,
        "1M-client solve took {solve_time:?} (budget 120s)"
    );
}

/// Release-mode scale gate: the million-client fast-path cross-check of
/// the sub-linear λ-probe acceptance criteria. The certified fast solve
/// must spend ≥10× fewer per-client spend evaluations than the exact
/// probe phase, land within the certification bands, and keep the exact
/// Theorem-2 residual within the solver tolerance. One model probe must
/// also cost at most 1/100 of one exact pass, both timed in this process
/// (a ratio, so it holds on slow and fast hosts alike).
#[test]
#[ignore = "release-mode scale gate; run with --ignored"]
fn million_client_fast_path_cross_check() {
    let spec = PopulationSpec::table1_like();
    let p = Population::synthesize(1_000_000, &spec, 2023).expect("synthesize 1M");
    let b = bound();
    let options = SolverOptions::with_threads(4);
    let budget = path_budget(&p, &b, &options, 0.5);
    let population = p.columns();
    let solve = |index| {
        solve_kkt_columns(
            &population,
            &b,
            budget,
            &options,
            None,
            index,
            &NoopRecorder,
        )
    };

    let (exact, exact_diag) = solve(None).expect("exact solve");

    let started = Instant::now();
    // The positional layout: row `i` keyed `i / GRID_SEGMENT`.
    let cols = &population;
    let keys: Vec<u32> = (0..cols.len()).map(|i| (i / GRID_SEGMENT) as u32).collect();
    let index = ActiveSetIndex::build_keyed(
        &IndexColumns::from_population(cols),
        &keys,
        cols.len().div_ceil(GRID_SEGMENT),
        b.alpha_over_r(),
        options.q_min,
        1.0,
        options.config.n_threads,
    );
    let (fast, fast_diag) = solve(Some(&index)).expect("fast");
    let fast_time = started.elapsed();

    assert_eq!(
        fast_diag.solver_mode,
        SolverMode::ThresholdIndex,
        "table1-like 1M population must certify, not fall back"
    );
    assert!(
        fast_diag.probe_evaluations * 10 <= exact_diag.probe_evaluations,
        "fast {} vs exact {} spend evaluations — expected ≥10× fewer",
        fast_diag.probe_evaluations,
        exact_diag.probe_evaluations
    );
    let worst_price = fast
        .prices
        .iter()
        .zip(&exact.prices)
        .map(|(f, e)| (f - e).abs() / e.abs().max(1.0))
        .fold(0.0f64, f64::max);
    assert!(worst_price <= 1e-6, "certified price error {worst_price:e}");
    assert!(
        (fast.spent - exact.spent).abs() <= 1e-6 * exact.spent.abs().max(1.0),
        "spent diverged: fast {} vs exact {}",
        fast.spent,
        exact.spent
    );
    let residual = theorem2_max_residual(&population, &b, &fast, options.q_min, 10_000, 99)
        .expect("interior clients in a 1M draw");
    assert!(residual < 1e-6, "fast Theorem-2 residual {residual}");
    // Index build + certified solve together must beat the 1.3s exact
    // probe phase by a wide margin; 20s leaves room for a slow CI core
    // while still catching an accidental O(N) probe loop.
    assert!(
        fast_time.as_secs_f64() < 20.0,
        "1M fast solve took {fast_time:?} (budget 20s)"
    );

    let t_hi = index.bracket_hi();
    let probes = 200;
    let started = Instant::now();
    let mut sink = 0.0;
    for k in 0..probes {
        sink += std::hint::black_box(index.spend(t_hi * (k as f64 + 0.5) / probes as f64));
    }
    let probe_time = started.elapsed() / probes;
    let started = Instant::now();
    sink += std::hint::black_box(path_budget(&p, &b, &options, 0.5));
    let exact_pass = started.elapsed();
    assert!(sink.is_finite());
    assert!(
        probe_time * 100 <= exact_pass,
        "model probe {probe_time:?} vs exact pass {exact_pass:?} — expected ≤1/100"
    );
    eprintln!(
        "1M probe-cost ratio: model probe {probe_time:?}, exact pass {exact_pass:?} (1/{:.0})",
        exact_pass.as_secs_f64() / probe_time.as_secs_f64()
    );
}
