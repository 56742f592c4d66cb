//! The service's two load-bearing contracts, property-tested under random
//! churn:
//!
//! 1. **Bit-identity** — after any sequence of add/remove/availability
//!    deltas, the incrementally re-solved prices equal a from-scratch
//!    `solve_kkt` over the same clients (same thread count) *bit for bit*.
//! 2. **Warm-start dominance** — the warm-started λ-bisection never runs
//!    more midpoint iterations than a cold solve of the same instance.
//!
//! Raw weights the service cannot normalise fail every reprice the same
//! way, keep the last priced state, and price bit-identically once the
//! offending client leaves.

use fedfl_core::bound::BoundParams;
use fedfl_core::population::{ClientProfile, Population};
use fedfl_core::server::{path_budget, solve_kkt, solve_kkt_columns, SolverMode, SolverOptions};
use fedfl_num::rng::substream;
use fedfl_obs::NoopRecorder;
use fedfl_service::{
    AvailabilityModel, AvailabilityPattern, ClientId, ClientParams, Command, PricingService,
    ServiceConfig,
};
use proptest::prelude::*;
use rand::Rng;

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).unwrap()
}

/// Effectively unreachable: an availability-aware service excludes it.
const UNREACHABLE: AvailabilityPattern = AvailabilityPattern::Random { probability: 1e-9 };

/// Draw one client from the op stream's RNG.
fn draw_client<R: Rng>(rng: &mut R, availability_mode: u8) -> ClientParams {
    let u = |rng: &mut R, lo: f64, hi: f64| {
        lo + (hi - lo) * (rng.random::<u64>() as f64 / u64::MAX as f64)
    };
    let availability = match availability_mode {
        0 => AvailabilityPattern::AlwaysOn,
        1 => AvailabilityPattern::Random {
            probability: u(rng, 0.3, 1.0),
        },
        _ => match rng.random::<u64>() % 4 {
            0 => AvailabilityPattern::AlwaysOn,
            1 => AvailabilityPattern::Random {
                probability: u(rng, 0.2, 1.0),
            },
            // Exercises the exclusion path.
            2 => UNREACHABLE,
            _ => AvailabilityPattern::DutyCycle {
                period: 1 + (rng.random::<u64>() % 8) as usize,
                on_rounds: 1,
                offset: (rng.random::<u64>() % 8) as usize,
            },
        },
    };
    ClientParams {
        data_size: u(rng, 0.1, 10.0),
        g_squared: u(rng, 1.0, 40.0),
        cost: u(rng, 5.0, 100.0),
        value: if rng.random::<u64>() % 4 == 0 {
            0.0
        } else {
            u(rng, 0.0, 20.0)
        },
        q_max: u(rng, 0.3, 1.0),
        availability,
    }
}

/// The from-scratch reference: rebuild the included sub-population exactly
/// as a fresh deployment would and solve it cold, returning full-length
/// (price, q_eff) vectors plus the cold bisection iteration count.
fn reference_solve(
    mirror: &[(ClientId, ClientParams)],
    config: &ServiceConfig,
) -> (Vec<f64>, Vec<f64>, usize) {
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
    let population = Population::from_raw(profiles).expect("reference population");
    let all_on = rates
        .iter()
        .zip(&included)
        .all(|(&r, &inc)| !inc || r == 1.0);
    let (solution, diag) = if all_on {
        // Exercise the *public* from-scratch path where it applies.
        let sol = solve_kkt(&population, &bound(), config.budget, &config.solver)
            .expect("from-scratch solve");
        let (check, diag) = solve_kkt_columns(
            &population.columns(),
            &bound(),
            config.budget,
            &config.solver,
            None,
            None,
            &NoopRecorder,
        )
        .expect("cold columns solve");
        assert_eq!(sol, check, "columns path drifted from solve_kkt");
        (sol, diag)
    } else {
        let included_rates: Vec<f64> = rates
            .iter()
            .zip(&included)
            .filter(|(_, &inc)| inc)
            .map(|(&r, _)| r)
            .collect();
        let eff = population
            .columns()
            .effective(&included_rates)
            .expect("effective view");
        solve_kkt_columns(
            &eff,
            &bound(),
            config.budget,
            &config.solver,
            None,
            None,
            &NoopRecorder,
        )
        .expect("cold effective solve")
    };
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
    (prices, q_eff, diag.bisect_iterations)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str, step: usize) {
    assert_eq!(a.len(), b.len(), "{what} length at step {step}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}] diverged at step {step}: {x} vs {y}"
        );
    }
}

/// Flip up to three clients of `mirror` between unreachable and reachable
/// patterns through `UpdateAvailability`, so an availability-aware service
/// excludes and re-includes clients mid-history (a re-inclusion is what
/// moves the store's later rows up).
fn flip_availability<R: Rng>(
    rng: &mut R,
    service: &mut PricingService,
    mirror: &mut [(ClientId, ClientParams)],
) {
    if mirror.is_empty() {
        return;
    }
    for _ in 0..rng.random::<u64>() % 4 {
        let pos = (rng.random::<u64>() % mirror.len() as u64) as usize;
        let availability = &mut mirror[pos].1.availability;
        *availability = if *availability == UNREACHABLE {
            AvailabilityPattern::Random {
                probability: 0.3 + 0.7 * (rng.random::<u64>() as f64 / u64::MAX as f64),
            }
        } else {
            UNREACHABLE
        };
    }
    let patterns = mirror.iter().map(|(_, p)| p.availability).collect();
    let model = AvailabilityModel::new(patterns).expect("valid patterns");
    service
        .execute(Command::UpdateAvailability(model))
        .expect("availability update");
}

/// Drive one random churn history through the service, checking both
/// contracts after every re-solve.
fn run_churn(seed: u64, n0: usize, steps: usize, availability_mode: u8, threads: usize) {
    let mut rng = substream(seed, 0xC0FFEE);
    // Availability flips draw from their own stream, so the add/remove
    // history is the same with or without them.
    let mut flips = substream(seed, 0xF11B);
    let mut config = ServiceConfig::new(bound(), 0.0);
    config.solver = SolverOptions::with_threads(threads);
    config.availability_aware = availability_mode > 0;
    let initial: Vec<ClientParams> = (0..n0)
        .map(|_| draw_client(&mut rng, availability_mode))
        .collect();
    // An interior-ish budget derived from the initial always-on population
    // (churn may still drive the solve to its saturated/floored corners —
    // those must stay bit-identical too).
    let budget_pop =
        Population::from_raw(initial.iter().map(ClientParams::raw_profile).collect()).unwrap();
    // A fully-floored tiny population can realise a zero path spend; the
    // service now rejects non-positive budgets, so keep the floored regime
    // with an epsilon budget instead (bit-identical: both floor everyone).
    config.budget = path_budget(&budget_pop, &bound(), &config.solver, 0.45).max(1e-12);

    let (mut service, ids) =
        PricingService::with_clients(config, initial.clone()).expect("service");
    let mut mirror: Vec<(ClientId, ClientParams)> = ids.into_iter().zip(initial).collect();
    let mut warm_total = 0usize;
    let mut cold_total = 0usize;

    for step in 0..=steps {
        if step > 0 {
            // Mutate: a batch of adds, a batch of removes and a few
            // availability flips.
            let n_add = (rng.random::<u64>() % 5) as usize;
            let batch: Vec<ClientParams> = (0..n_add)
                .map(|_| draw_client(&mut rng, availability_mode))
                .collect();
            let new_ids = service.add_clients(batch.clone()).expect("add");
            mirror.extend(new_ids.into_iter().zip(batch));
            let n_rem = ((rng.random::<u64>() % 5) as usize).min(mirror.len().saturating_sub(1));
            let mut doomed = Vec::new();
            for _ in 0..n_rem {
                let pos = (rng.random::<u64>() % mirror.len() as u64) as usize;
                doomed.push(mirror.remove(pos).0);
            }
            service.remove_clients(&doomed).expect("remove");
            flip_availability(&mut flips, &mut service, &mut mirror);
        }
        let snapshot = match service.snapshot() {
            Ok(s) => s,
            Err(fedfl_service::ServiceError::NoPriceableClients { .. }) => {
                // Everyone excluded: the reference has nothing to check.
                continue;
            }
            Err(e) => panic!("step {step}: {e}"),
        };
        let expected_ids: Vec<ClientId> = mirror.iter().map(|(id, _)| *id).collect();
        assert_eq!(snapshot.ids, expected_ids, "id order at step {step}");
        let (ref_prices, ref_q, cold_iters) = reference_solve(&mirror, service.config());
        assert_bits_eq(&snapshot.prices, &ref_prices, "price", step);
        assert_bits_eq(&snapshot.q_eff, &ref_q, "q_eff", step);
        // Warm-start dominance: never more iterations than the cold solve.
        assert!(
            snapshot.report.bisect_iterations <= cold_iters,
            "step {step}: warm {} > cold {cold_iters} iterations",
            snapshot.report.bisect_iterations
        );
        if step > 0 {
            warm_total += snapshot.report.bisect_iterations;
            cold_total += cold_iters;
        }
    }
    // Across a whole history the warm starts must actually save work
    // (equality every step would mean the hint never verified).
    if steps >= 6 && cold_total > 0 {
        assert!(
            warm_total < cold_total,
            "warm starts saved nothing over {steps} steps ({warm_total} vs {cold_total})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_reprice_is_bit_identical_under_churn(
        seed in 0u64..1_000_000,
        n0 in 1usize..40,
        steps in 1usize..10,
        mode in 0u8..3,
    ) {
        run_churn(seed, n0, steps, mode, 1);
    }

    #[test]
    fn incremental_reprice_is_bit_identical_with_threads(
        seed in 0u64..1_000_000,
        n0 in 2usize..30,
        steps in 1usize..6,
        mode in 0u8..3,
    ) {
        run_churn(seed, n0, steps, mode, 3);
    }
}

#[test]
fn long_always_on_history_accumulates_savings() {
    run_churn(2023, 64, 24, 0, 1);
}

#[test]
fn long_availability_aware_history_accumulates_savings() {
    run_churn(7, 64, 24, 2, 1);
}

/// A warm exact re-solve after one churn batch makes at most 16 O(N)
/// spend passes: the saturation screen, the floor probe, about two Newton
/// steps, one or two window probes and the few midpoints inside the
/// window. The population spans five solver chunks, so the passes run on
/// spawned workers; the count is deterministic all the same, since it
/// depends on the spend bits alone.
#[test]
fn warm_exact_resolve_after_one_churn_batch_makes_at_most_16_spend_passes() {
    let mut rng = substream(7, 0xC0DE);
    let n = 4 * fedfl_num::parallel::DEFAULT_CHUNK + 531;
    let clients: Vec<ClientParams> = (0..n).map(|_| draw_client(&mut rng, 0)).collect();
    let mut config = ServiceConfig::new(bound(), 1.0);
    config.solver = SolverOptions::with_threads(2);
    let budget_pop =
        Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect()).unwrap();
    config.budget = path_budget(&budget_pop, &bound(), &config.solver, 0.45);
    let (mut service, ids) = PricingService::with_clients(config, clients).expect("service");
    let cold = service.reprice().expect("cold solve");
    assert!(!cold.warm_started);

    let batch: Vec<ClientParams> = (0..40).map(|_| draw_client(&mut rng, 0)).collect();
    service.add_clients(batch).expect("add");
    let departed: Vec<ClientId> = ids.iter().step_by(1_000).copied().collect();
    service.remove_clients(&departed).expect("remove");
    let warm = service.reprice().expect("warm solve");
    assert!(warm.warm_started);
    assert!(
        warm.bisect_evaluations <= 16,
        "warm re-solve made {} spend passes ({} midpoints, {} levels settled); cold made {}",
        warm.bisect_evaluations,
        warm.bisect_iterations,
        warm.warm_start_depth,
        cold.bisect_evaluations
    );
}

/// The model probes of a fast-path service's warm re-solve after one
/// churn batch: the cold solve, then 40 arrivals and every 1000th client
/// departing. Returns `(warm model probes, cold model probes)`; every
/// solve is certified by one exact probe, which is not counted.
fn fast_warm_and_cold_model_probes(
    clients: Vec<ClientParams>,
    arrivals: Vec<ClientParams>,
) -> (usize, usize) {
    use fedfl_service::{Metric, Registry};
    use std::sync::Arc;

    let mut config = ServiceConfig::new(bound(), 1.0);
    config.solver = SolverOptions::with_threads(2);
    config.fast_path = true;
    let budget_pop =
        Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect()).unwrap();
    config.budget = path_budget(&budget_pop, &bound(), &config.solver, 0.45);
    let (mut service, ids) = PricingService::with_clients(config, clients).expect("service");
    let registry = Arc::new(Registry::new());
    service.set_recorder(Arc::clone(&registry));
    let model_probes = |service: &mut PricingService| {
        let band0 = registry.counter(Metric::SolverCertBand0Hits);
        let report = service.reprice().expect("solve");
        assert_eq!(report.solver_mode, SolverMode::ThresholdIndex);
        assert_eq!(
            registry.counter(Metric::SolverCertBand0Hits),
            band0 + 1,
            "certified by one exact probe"
        );
        (report.warm_started, report.bisect_evaluations - 1)
    };
    let (warm_started, cold) = model_probes(&mut service);
    assert!(!warm_started);
    service.add_clients(arrivals).expect("add");
    let departed: Vec<ClientId> = ids.iter().step_by(1_000).copied().collect();
    service.remove_clients(&departed).expect("remove");
    let (warm_started, warm) = model_probes(&mut service);
    assert!(warm_started);
    (warm, cold)
}

/// A warm fast re-solve after one churn batch makes at most 16 model
/// probes over a Table-I-like population (the benchmark's client
/// distribution) at the workloads' budget: the two endpoint probes (the
/// model bisection starts with no evaluated point), two or three Newton
/// steps on the index's spend slope, one probe per side of the ±64-ulp
/// window, and the midpoints inside that window — the last ~8 of the ~54
/// levels a cold model bisection walks.
///
/// The uniform-weight population of the exact-path test above is the
/// counter-case: at its budget nearly every client saturates, the spend
/// curve is so flat that one churn batch moves the root ~2.4×, and the
/// rescaled hint is useless. A warm solve there may only cost what the
/// search promises for a useless hint: the cold probes plus at most four
/// Newton and four window probes.
#[test]
fn warm_fast_resolve_after_one_churn_batch_makes_at_most_16_model_probes() {
    use fedfl_core::population::PopulationSpec;

    let spec = PopulationSpec::table1_like();
    let draw = |index: usize| {
        let c = spec.draw_client(2023, index).unwrap();
        ClientParams::always_on(c.weight, c.g_squared, c.cost, c.value, c.q_max)
    };
    let n = 4 * fedfl_num::parallel::DEFAULT_CHUNK + 531;
    let (warm, cold) = fast_warm_and_cold_model_probes(
        (0..n).map(draw).collect(),
        (n..n + 40).map(draw).collect(),
    );
    assert!(
        warm <= 16,
        "warm fast re-solve made {warm} model probes; cold made {cold}"
    );

    let mut rng = substream(7, 0xC0DE);
    let clients: Vec<ClientParams> = (0..n).map(|_| draw_client(&mut rng, 0)).collect();
    let arrivals: Vec<ClientParams> = (0..40).map(|_| draw_client(&mut rng, 0)).collect();
    let (warm, cold) = fast_warm_and_cold_model_probes(clients, arrivals);
    assert!(
        warm <= cold + 8,
        "flat-curve warm fast re-solve made {warm} model probes; cold made {cold}"
    );
}

/// Price `initial`, add `arrivals` (whose raw weights the service cannot
/// normalise) and check that every reprice fails with `(name, reason)`
/// and keeps the priced state. Then remove the clients at `departing`
/// (indices into `initial ++ arrivals`): the survivors must price
/// bit-identically to a fresh service.
fn degenerate_weights_fail_until_removed(
    initial: Vec<ClientParams>,
    arrivals: Vec<ClientParams>,
    departing: &[usize],
    name: &str,
    reason: &str,
) {
    use fedfl_core::GameError;
    use fedfl_service::{Response, ServiceError};

    let config = ServiceConfig::new(bound(), 10.0);
    let (mut service, mut ids) = PricingService::with_clients(config, initial.clone()).unwrap();
    let priced = service.snapshot().unwrap();
    match service.execute(Command::AddClients(arrivals.clone())) {
        Ok(Response::Added(added)) => ids.extend(added),
        other => panic!("{other:?}"),
    }
    for _ in 0..2 {
        match service.reprice() {
            Err(ServiceError::Game(GameError::InvalidParameter { name: n, reason: r })) => {
                assert_eq!((n, r.as_str()), (name, reason));
            }
            other => panic!("expected the {name} error, got {other:?}"),
        }
        assert!(service.is_dirty());
        assert_eq!(service.last_report(), Some(&priced.report));
    }
    let doomed: Vec<ClientId> = departing.iter().map(|&i| ids[i]).collect();
    service.remove_clients(&doomed).unwrap();
    let survivors: Vec<ClientParams> = initial
        .into_iter()
        .chain(arrivals)
        .enumerate()
        .filter(|(i, _)| !departing.contains(i))
        .map(|(_, client)| client)
        .collect();
    let (mut fresh, _) = PricingService::with_clients(config, survivors).unwrap();
    let (got, expected) = (service.snapshot().unwrap(), fresh.snapshot().unwrap());
    assert_bits_eq(&got.prices, &expected.prices, "price", 0);
    assert_bits_eq(&got.q_eff, &expected.q_eff, "q_eff", 0);
}

#[test]
fn overflowing_raw_weight_total_fails_the_reprice_until_removed() {
    // Two clients at the largest finite data size overflow the raw total;
    // either one alone normalises to weight 1.
    let heavy = |cost: f64| ClientParams::always_on(f64::MAX, 4.0, cost, 2.0, 1.0);
    degenerate_weights_fail_until_removed(
        vec![heavy(30.0)],
        vec![heavy(50.0)],
        &[0],
        "weights",
        "raw weights must sum to a positive finite total, got inf",
    );
}

#[test]
fn underflowing_normalised_weight_fails_the_reprice_until_removed() {
    // 1e-300 beside 3e300 of raw weight normalises to 0.
    let client = |weight: f64, cost: f64| ClientParams::always_on(weight, 4.0, cost, 2.0, 1.0);
    degenerate_weights_fail_until_removed(
        vec![client(1e300, 30.0), client(2e300, 50.0)],
        vec![client(1e-300, 40.0)],
        &[2],
        "weight",
        "normalised weight must be finite and positive, got 0",
    );
}
