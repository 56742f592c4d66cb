//! The sharded store's contracts, property-tested under random churn:
//!
//! 1. **Shard-count invariance** — replaying one churn history through
//!    services configured with 1, 2, 7 and 32 store shards (and 1 or 3
//!    worker threads) produces **bit-identical** snapshots at every step:
//!    sharding changes which columns are rebuilt, never the prices.
//!    A 33k-client service repeats the check at 1, 7 and 256 shards with
//!    spawned solver workers on the exact and the fast path.
//! 2. **Dirty-shard accounting** — a delta rebuilds only the shards it
//!    touches; with enough shards a small churn batch rebuilds a strict
//!    subset of the columns.
//! 3. **Dynamic budget & bound updates** — `UpdateBudget`/`UpdateBound`
//!    re-solve (warm-started, Theorem-2-certified) to exactly the prices a
//!    fresh deployment at the new parameters would compute, and round-trip
//!    through serde.

use fedfl_core::bound::BoundParams;
use fedfl_core::population::Population;
use fedfl_core::server::{path_budget, SolverOptions};
use fedfl_num::rng::substream;
use fedfl_service::{
    AvailabilityPattern, ClientId, ClientParams, Command, Metric, PricingService, Registry,
    RepriceReport, Response, ServiceConfig, ServiceSnapshot,
};
use proptest::prelude::*;
use rand::Rng;
use std::sync::Arc;

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).unwrap()
}

fn draw_client<R: Rng>(rng: &mut R, availability_mode: u8) -> ClientParams {
    let u = |rng: &mut R, lo: f64, hi: f64| {
        lo + (hi - lo) * (rng.random::<u64>() as f64 / u64::MAX as f64)
    };
    let availability = match availability_mode {
        0 => AvailabilityPattern::AlwaysOn,
        _ => match rng.random::<u64>() % 4 {
            0 => AvailabilityPattern::AlwaysOn,
            1 => AvailabilityPattern::Random {
                probability: u(rng, 0.2, 1.0),
            },
            2 => AvailabilityPattern::Random { probability: 1e-9 },
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

/// One deterministic churn history: the (add batch, remove positions)
/// sequence every service replica replays.
struct History {
    initial: Vec<ClientParams>,
    steps: Vec<(Vec<ClientParams>, Vec<usize>)>,
    budget: f64,
}

fn build_history(seed: u64, n0: usize, steps: usize, availability_mode: u8) -> History {
    let mut rng = substream(seed, 0x5AAD);
    let initial: Vec<ClientParams> = (0..n0)
        .map(|_| draw_client(&mut rng, availability_mode))
        .collect();
    let budget_pop =
        Population::from_raw(initial.iter().map(ClientParams::raw_profile).collect()).unwrap();
    // Tiny adversarial populations can realise a non-positive path spend
    // (floored clients, value-heavy negative prices); the service rejects
    // non-positive budgets, so clamp to an epsilon floored-regime budget.
    let budget = path_budget(&budget_pop, &bound(), &SolverOptions::default(), 0.45).max(1e-12);
    let mut population = n0;
    let steps = (0..steps)
        .map(|_| {
            let n_add = (rng.random::<u64>() % 5) as usize;
            let adds: Vec<ClientParams> = (0..n_add)
                .map(|_| draw_client(&mut rng, availability_mode))
                .collect();
            population += n_add;
            let n_rem = ((rng.random::<u64>() % 5) as usize).min(population.saturating_sub(1));
            let removes: Vec<usize> = (0..n_rem)
                .map(|_| {
                    population -= 1;
                    (rng.random::<u64>() % (population + 1) as u64) as usize
                })
                .collect();
            (adds, removes)
        })
        .collect();
    History {
        initial,
        steps,
        budget,
    }
}

/// Replay `history` through a service with the given shard/thread knobs,
/// returning the (ids, prices, q_eff, report-iteration) trace of every
/// solvable step.
#[allow(clippy::type_complexity)]
fn replay(
    history: &History,
    shards: usize,
    threads: usize,
    availability_mode: u8,
) -> Vec<(Vec<ClientId>, Vec<f64>, Vec<f64>, usize)> {
    let mut config = ServiceConfig::new(bound(), history.budget);
    config.solver = SolverOptions::with_threads(threads);
    config.availability_aware = availability_mode > 0;
    config.shards = shards;
    let (mut service, ids) =
        PricingService::with_clients(config, history.initial.clone()).expect("service");
    let mut live: Vec<ClientId> = ids;
    let mut trace = Vec::new();
    let mut record = |service: &mut PricingService, live: &[ClientId]| match service.snapshot() {
        Ok(s) => {
            assert_eq!(s.ids, live, "live-id order drifted");
            assert_eq!(s.report.shard_count, shards);
            trace.push((s.ids, s.prices, s.q_eff, s.report.bisect_iterations));
        }
        Err(fedfl_service::ServiceError::NoPriceableClients { .. }) => {
            trace.push((live.to_vec(), vec![], vec![], usize::MAX));
        }
        Err(e) => panic!("snapshot failed: {e}"),
    };
    record(&mut service, &live);
    for (adds, removes) in &history.steps {
        let new_ids = service.add_clients(adds.clone()).expect("add");
        live.extend(new_ids);
        let mut doomed = Vec::with_capacity(removes.len());
        for &pos in removes {
            doomed.push(live.remove(pos.min(live.len() - 1)));
        }
        service.remove_clients(&doomed).expect("remove");
        record(&mut service, &live);
    }
    trace
}

fn run_shard_invariance(seed: u64, n0: usize, steps: usize, availability_mode: u8) {
    let history = build_history(seed, n0, steps, availability_mode);
    let reference = replay(&history, 1, 1, availability_mode);
    for &shards in &[2usize, 7, 32] {
        for &threads in &[1usize, 3] {
            let got = replay(&history, shards, threads, availability_mode);
            assert_eq!(got.len(), reference.len());
            for (step, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(r.0, g.0, "ids at step {step} (shards {shards})");
                assert_eq!(
                    r.1.len(),
                    g.1.len(),
                    "price count at step {step} (shards {shards})"
                );
                for (i, (a, b)) in r.1.iter().zip(&g.1).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "price[{i}] at step {step}: shards {shards} threads {threads}: {a} vs {b}"
                    );
                }
                for (i, (a, b)) in r.2.iter().zip(&g.2).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "q_eff[{i}] at step {step}: shards {shards} threads {threads}"
                    );
                }
                // Sharding must not change the solve itself: the bisection
                // runs the same iterations for any (shard, thread) pair.
                assert_eq!(r.3, g.3, "iterations at step {step} (shards {shards})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn snapshots_are_bit_identical_across_shard_and_thread_counts(
        seed in 0u64..1_000_000,
        n0 in 1usize..32,
        steps in 1usize..7,
        mode in 0u8..2,
    ) {
        run_shard_invariance(seed, n0, steps, mode);
    }
}

#[test]
fn long_history_is_shard_count_invariant() {
    run_shard_invariance(2023, 48, 12, 1);
}

/// A snapshot's served bits: ids, prices, levels, and the λ*/spend of
/// the solve behind them (the report's timings are left out).
fn served_bits(s: &ServiceSnapshot) -> (Vec<ClientId>, Vec<u64>, Vec<u64>, u64, u64) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (
        s.ids.clone(),
        bits(&s.prices),
        bits(&s.q_eff),
        s.report.lambda.map_or(0, f64::to_bits),
        s.report.spent.to_bits(),
    )
}

#[test]
fn spawned_solver_workers_keep_snapshots_bit_identical() {
    use fedfl_core::server::SolverMode;
    use fedfl_num::parallel::DEFAULT_CHUNK;

    // Five solver chunks: a worker spawns only when each gets at least two
    // chunks, so two threads run the spawned passes that the small
    // histories above never reach.
    let n = 4 * DEFAULT_CHUNK + 531;
    let mut rng = substream(29, 0x5B0A);
    let clients: Vec<ClientParams> = (0..n).map(|_| draw_client(&mut rng, 1)).collect();
    let budget_pop =
        Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect()).unwrap();
    let budget = path_budget(&budget_pop, &bound(), &SolverOptions::default(), 0.4);
    for fast_path in [false, true] {
        let mut reference = None;
        for threads in [1usize, 2] {
            for shards in [1usize, 7, 256] {
                let mut config = ServiceConfig::new(bound(), budget);
                config.solver = SolverOptions::with_threads(threads);
                config.availability_aware = true;
                config.shards = shards;
                config.fast_path = fast_path;
                let (mut service, ids) =
                    PricingService::with_clients(config, clients.clone()).expect("service");
                let cold = service.snapshot().expect("cold snapshot");
                let doomed: Vec<ClientId> = ids.iter().step_by(97).copied().collect();
                service.remove_clients(&doomed).expect("remove");
                let warm = service.snapshot().expect("warm snapshot");
                let expected_mode = if fast_path {
                    SolverMode::ThresholdIndex
                } else {
                    SolverMode::Exact
                };
                assert_eq!(cold.report.solver_mode, expected_mode);
                assert_eq!(warm.report.solver_mode, expected_mode);
                assert!(warm.report.warm_started);
                let got = (served_bits(&cold), served_bits(&warm));
                match &reference {
                    None => reference = Some(got),
                    Some(first) => assert!(
                        *first == got,
                        "fast_path {fast_path}: threads {threads} × shards {shards} \
                         changed the served bits"
                    ),
                }
            }
        }
    }
}

#[test]
fn dirty_shard_rebuilds_touch_a_strict_subset_of_columns() {
    // 32-client route blocks over 8 shards: a small churn batch must
    // rebuild well under half of a 1024-client population's columns.
    let mut rng = substream(7, 0xD1127);
    let clients: Vec<ClientParams> = (0..1024).map(|_| draw_client(&mut rng, 0)).collect();
    let budget_pop =
        Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect()).unwrap();
    let mut config = ServiceConfig::new(bound(), 0.0);
    config.budget = path_budget(&budget_pop, &bound(), &config.solver, 0.4);
    config.shards = 8;
    let (mut service, ids) = PricingService::with_clients(config, clients).unwrap();
    let first = service.reprice().unwrap();
    assert_eq!(first.shard_count, 8);
    assert_eq!(first.dirty_shards, 8, "cold solve rebuilds everything");
    assert_eq!(first.rebuilt_columns, 1024);
    // A clean re-solve (budget change) rebuilds nothing.
    service
        .update_budget(service.config().budget * 1.1)
        .unwrap();
    let clean = service.reprice().unwrap();
    assert_eq!(clean.dirty_shards, 0);
    assert_eq!(clean.rebuilt_columns, 0);
    assert!(clean.warm_started);
    // One small churn batch rebuilds only the touched shards' columns.
    service
        .add_clients(vec![
            ClientParams::always_on(1.0, 4.0, 30.0, 2.0, 1.0),
            ClientParams::always_on(2.0, 9.0, 40.0, 0.0, 1.0),
        ])
        .unwrap();
    service.remove_clients(&[ids[17]]).unwrap();
    let churned = service.reprice().unwrap();
    assert!(churned.dirty_shards <= 3, "{} shards", churned.dirty_shards);
    assert!(
        churned.rebuilt_columns * 2 < churned.clients,
        "rebuilt {} of {} columns",
        churned.rebuilt_columns,
        churned.clients
    );
}

#[test]
fn update_budget_matches_a_fresh_deployment_bitwise() {
    let mut rng = substream(11, 0xB0D6E7);
    let clients: Vec<ClientParams> = (0..64).map(|_| draw_client(&mut rng, 0)).collect();
    let budget_pop =
        Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect()).unwrap();
    let b0 = path_budget(&budget_pop, &bound(), &SolverOptions::default(), 0.3);
    let b1 = path_budget(&budget_pop, &bound(), &SolverOptions::default(), 0.6);

    let mut config = ServiceConfig::new(bound(), b0);
    config.shards = 4;
    let (mut service, _) = PricingService::with_clients(config, clients.clone()).unwrap();
    let before = service.snapshot().unwrap();
    assert_eq!(before.budget, b0);

    // Raise the budget through the command stream and re-read.
    match service.execute(Command::UpdateBudget(b1)).unwrap() {
        Response::BudgetUpdated => {}
        other => panic!("{other:?}"),
    }
    assert!(service.is_dirty());
    let after = service.snapshot().unwrap();
    assert_eq!(after.budget, b1);
    assert!(after.report.warm_started, "budget update keeps the hint");
    assert!(
        after.report.theorem2_residual.unwrap_or(0.0) < 1e-6,
        "re-solve stays certified"
    );

    // Bit-identical to a fresh deployment at the new budget.
    let mut fresh_config = ServiceConfig::new(bound(), b1);
    fresh_config.shards = 4;
    let (mut fresh, _) = PricingService::with_clients(fresh_config, clients).unwrap();
    let reference = fresh.snapshot().unwrap();
    assert_eq!(after.prices, reference.prices);
    assert_eq!(after.q_eff, reference.q_eff);
    // The warm start may not run more midpoint iterations than the cold
    // solve of the same instance.
    assert!(after.report.bisect_iterations <= reference.report.bisect_iterations);

    // Invalid budgets are rejected without mutating anything.
    assert!(service.update_budget(f64::NAN).is_err());
    assert_eq!(service.config().budget, b1);
    assert!(!service.is_dirty());
}

#[test]
fn update_bound_matches_a_fresh_deployment_bitwise() {
    let mut rng = substream(13, 0xB07D);
    let clients: Vec<ClientParams> = (0..64).map(|_| draw_client(&mut rng, 0)).collect();
    let budget_pop =
        Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect()).unwrap();
    let budget = path_budget(&budget_pop, &bound(), &SolverOptions::default(), 0.4);
    let new_bound = BoundParams::new(6_000.0, 80.0, 1_500).unwrap();

    let mut config = ServiceConfig::new(bound(), budget);
    config.shards = 7;
    let (mut service, _) = PricingService::with_clients(config, clients.clone()).unwrap();
    service.reprice().unwrap();
    match service.execute(Command::UpdateBound(new_bound)).unwrap() {
        Response::BoundUpdated => {}
        other => panic!("{other:?}"),
    }
    let after = service.snapshot().unwrap();
    assert!(after.report.warm_started, "bound update keeps the hint");
    assert_eq!(
        after.report.dirty_shards, 0,
        "bound update dirties no shard"
    );
    assert!(after.report.theorem2_residual.unwrap_or(0.0) < 1e-6);

    let mut fresh_config = ServiceConfig::new(new_bound, budget);
    fresh_config.shards = 7;
    let (mut fresh, _) = PricingService::with_clients(fresh_config, clients).unwrap();
    let reference = fresh.snapshot().unwrap();
    assert_eq!(after.prices, reference.prices);
    assert_eq!(after.q_eff, reference.q_eff);
    assert!(after.report.bisect_iterations <= reference.report.bisect_iterations);

    // Invalid bounds (e.g. smuggled through deserialization) are rejected.
    let bad: BoundParams = serde_json::from_str(
        &serde_json::to_string(&new_bound)
            .unwrap()
            .replace("6000", "-1"),
    )
    .unwrap();
    assert!(service.update_bound(bad).is_err());
    assert_eq!(*service.config(), {
        let mut c = ServiceConfig::new(new_bound, budget);
        c.shards = 7;
        c
    });
}

#[test]
fn fast_path_service_stays_certified_under_churn_and_reuses_the_index() {
    use fedfl_core::server::SolverMode;

    // A certified fast solve is near-exact; a fallback is the exact
    // solver. Either way the fast service must track an exact twin
    // driven through the identical mutation history.
    let assert_agrees = |fast: &[f64], exact: &[f64], mode: SolverMode| {
        assert_ne!(mode, SolverMode::Exact, "fast service ran the plain path");
        for (i, (f, e)) in fast.iter().zip(exact).enumerate() {
            if mode == SolverMode::ThresholdIndex {
                let err = (f - e).abs() / e.abs().max(1.0);
                assert!(err <= 1e-6, "price[{i}] off by {err:e}");
            } else {
                assert_eq!(f.to_bits(), e.to_bits(), "fallback price[{i}] not exact");
            }
        }
    };

    // The store stamps index segments per route block, so churn patches
    // the index whether or not the shard count divides the 256 segments.
    for shards in [8usize, 7] {
        let mut rng = substream(19, 0xFA57);
        let clients: Vec<ClientParams> = (0..512).map(|_| draw_client(&mut rng, 0)).collect();
        let budget_pop =
            Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect()).unwrap();
        let budget = path_budget(&budget_pop, &bound(), &SolverOptions::default(), 0.4);
        let mut config = ServiceConfig::new(bound(), budget);
        config.shards = shards;
        config.fast_path = true;
        let mut exact_config = config;
        exact_config.fast_path = false;
        let (mut service, ids) = PricingService::with_clients(config, clients.clone()).unwrap();
        let (mut exact, _) = PricingService::with_clients(exact_config, clients).unwrap();
        // Segment work lives in the obs counters: a reprice's share is
        // the `[rebuilt, repaired, reused]` delta across it. Every reprice
        // re-sorts exactly the segments the service flagged dirty (all of
        // them for a cold build, none on reuse), whatever the shard count.
        let registry = Arc::new(Registry::new());
        service.set_recorder(Arc::clone(&registry));
        let reprice = |service: &mut PricingService| -> (RepriceReport, [u64; 3]) {
            let segments = || {
                [
                    Metric::SolverIndexSegmentsRebuilt,
                    Metric::SolverIndexSegmentsRepaired,
                    Metric::SolverIndexSegmentsReused,
                    Metric::ServiceDirtySegments,
                ]
                .map(|metric| registry.counter(metric))
            };
            let before = segments();
            let report = service.reprice().unwrap();
            let after = segments();
            let [rebuilt, repaired, reused, dirty] = [0, 1, 2, 3].map(|k| after[k] - before[k]);
            assert_eq!(rebuilt, dirty, "{shards} shards: rebuilt vs dirty segments");
            (report, [rebuilt, repaired, reused])
        };

        let (cold, [segment_total, _, cold_reused]) = reprice(&mut service);
        assert!(cold.index_rebuild_ns > 0, "cold solve builds the index");
        assert!(segment_total > 0, "cold build sorts every segment");
        assert_eq!(cold_reused, 0);
        assert_agrees(
            &service.snapshot().unwrap().prices,
            &exact.snapshot().unwrap().prices,
            cold.solver_mode,
        );

        // Budget-only churn leaves the population untouched: the cached
        // index is reused verbatim and the report says so.
        service.update_budget(budget * 1.07).unwrap();
        exact.update_budget(budget * 1.07).unwrap();
        let (budget_only, [rebuilt, _, reused]) = reprice(&mut service);
        assert_eq!(
            budget_only.index_rebuild_ns, 0,
            "budget update must reuse the cached threshold index"
        );
        assert_eq!(budget_only.dirty_shards, 0);
        assert_eq!(rebuilt, 0);
        assert_eq!(reused, 0);
        assert_agrees(
            &service.snapshot().unwrap().prices,
            &exact.snapshot().unwrap().prices,
            budget_only.solver_mode,
        );

        // Client churn changes the assembled population: patch.
        let adds = vec![
            ClientParams::always_on(1.0, 4.0, 30.0, 2.0, 1.0),
            ClientParams::always_on(2.0, 9.0, 40.0, 0.0, 1.0),
        ];
        service.add_clients(adds.clone()).unwrap();
        exact.add_clients(adds).unwrap();
        service.remove_clients(&[ids[17]]).unwrap();
        exact.remove_clients(&[ids[17]]).unwrap();
        let (churned, [rebuilt, repaired, reused]) = reprice(&mut service);
        assert!(
            churned.index_rebuild_ns > 0,
            "churn must invalidate the cached index"
        );
        // Partial churn patches instead of rebuilding: the removal
        // touched route block 0 and the adds block 16, so exactly their
        // two segments re-sort; the rest are reused (or at most repaired
        // for threshold-order drift from the new weight total) — and the
        // sum accounts for every segment.
        assert_eq!(
            registry.counter(Metric::ServiceIndexRebuilds),
            1,
            "only the cold solve built the whole index"
        );
        assert_eq!(registry.counter(Metric::ServiceIndexPatches), 1);
        assert_eq!(rebuilt, 2);
        assert!(reused > 0, "clean segments reused");
        assert_eq!(rebuilt + repaired + reused, segment_total);
        assert_agrees(
            &service.snapshot().unwrap().prices,
            &exact.snapshot().unwrap().prices,
            churned.solver_mode,
        );

        // A bound update that moves α/R moves every threshold, so the stamp
        // must invalidate the index even though no shard is dirty. (The
        // original bound has α/R = 4; this one has α/R = 6 — a same-ratio
        // update like (6000, 80, 1500) would legitimately keep the index.)
        let new_bound = BoundParams::new(6_000.0, 80.0, 1_000).unwrap();
        service.update_bound(new_bound).unwrap();
        exact.update_bound(new_bound).unwrap();
        let (rebound, [rebuilt, _, reused]) = reprice(&mut service);
        assert_eq!(rebound.dirty_shards, 0, "bound update dirties no shard");
        assert!(
            rebound.index_rebuild_ns > 0,
            "α/R change must rebuild the threshold index"
        );
        assert_eq!(
            rebuilt, segment_total,
            "a solver-knob change re-sorts every segment"
        );
        assert_eq!(reused, 0);
        assert_agrees(
            &service.snapshot().unwrap().prices,
            &exact.snapshot().unwrap().prices,
            rebound.solver_mode,
        );
        if let Some(residual) = rebound.theorem2_residual {
            assert!(residual < 1e-6, "served equilibrium stays certified");
        }
    }
}

#[test]
fn update_commands_round_trip_through_serde() {
    let commands = vec![
        Command::UpdateBudget(42.5),
        Command::UpdateBound(BoundParams::new(6_000.0, 80.0, 1_500).unwrap()),
    ];
    for command in commands {
        let json = serde_json::to_string(&command).expect("serialize command");
        let back: Command = serde_json::from_str(&json).expect("deserialize command");
        assert_eq!(back, command);
    }
    for response in [Response::BudgetUpdated, Response::BoundUpdated] {
        let json = serde_json::to_string(&response).expect("serialize response");
        let back: Response = serde_json::from_str(&json).expect("deserialize response");
        assert_eq!(back, response);
    }
    // A full round trip through the service: deserialized commands drive
    // the same state changes as typed calls.
    let (mut service, _) = PricingService::with_clients(
        ServiceConfig::new(bound(), 10.0),
        (1..=4)
            .map(|k| ClientParams::always_on(k as f64, 9.0, 30.0 * k as f64, 2.0, 1.0))
            .collect(),
    )
    .unwrap();
    let wire: Command =
        serde_json::from_str(&serde_json::to_string(&Command::UpdateBudget(12.0)).unwrap())
            .unwrap();
    service.execute(wire).unwrap();
    assert_eq!(service.config().budget, 12.0);
    assert_eq!(service.snapshot().unwrap().budget, 12.0);
}
