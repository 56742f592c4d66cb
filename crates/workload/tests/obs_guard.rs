//! Instrumentation guard: full observability must not change a single
//! served price bit, and must stay within a small latency overhead.
//!
//! The plain side of each comparison is [`replay_with`] over an
//! uninstrumented [`InProcessDriver`]; the instrumented side is
//! [`replay`], whose service and solver record into the run's registry.
//! The replay loop records its own spans and counts on both sides.
//!
//! The cheap test runs everywhere. The `#[ignore]`d test replays the
//! full 10k-client reference workload in plain/instrumented pairs, the
//! side that runs first alternating from pair to pair, and is run in
//! release mode by CI:
//!
//! ```sh
//! cargo test --release -p fedfl-workload --test obs_guard -- --ignored
//! ```

use fedfl_obs::{Metric, Registry};
use fedfl_workload::{
    generate, replay, replay_config, replay_with, InProcessDriver, ReplayOutcome, Trace,
    WorkloadRecord, WorkloadSpec,
};

/// The pinned checksum of the 10k reference workload's final
/// equilibrium — the same constant the CI workload job asserts.
const REFERENCE_10K_CHECKSUM: u64 = 0xe3ac_8f3c_4683_fe7c;

/// Plain/instrumented pairs the overhead guard compares. The host's speed
/// drifts within seconds, so single back-to-back runs mostly measure the
/// drift; medians over interleaved pairs whose first side alternates do
/// not.
const PAIRS: usize = 9;

fn tiny_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::reference_10k();
    spec.clients = 48;
    spec.steps = 6;
    spec.cohorts = 3;
    spec.arrivals_per_step = 4;
    spec.departures_per_step = 4;
    spec.surge_every = 3;
    spec.surge_size = 12;
    spec.surge_hold = 2;
    spec.budget_every = 2;
    spec.reads_per_step = 2;
    spec.read_batch = 6;
    spec.snapshot_every = 3;
    spec.verify_every = 2;
    spec.min_population = 8;
    spec.shards = 4;
    spec.threads = 1;
    spec
}

/// A replay whose service and solver record nothing.
fn replay_plain(spec: &WorkloadSpec, trace: &Trace) -> ReplayOutcome {
    let config = replay_config(spec, trace).expect("config");
    let mut driver = InProcessDriver::new(config).expect("driver");
    replay_with(spec, trace, &mut driver, &Registry::new()).expect("uninstrumented replay")
}

/// Re-solves, clean quote reads and clean snapshots the replay loop
/// timed.
fn timed_counts(outcome: &ReplayOutcome) -> (u64, u64, u64) {
    let count = |metrics: &[Metric]| -> u64 {
        metrics
            .iter()
            .filter_map(|m| outcome.metrics.histogram(m.name()))
            .map(|h| h.count)
            .sum()
    };
    (
        count(&[
            Metric::WorkloadResolveSteadyNs,
            Metric::WorkloadResolveFlashNs,
        ]),
        count(&[Metric::WorkloadReadSteadyNs, Metric::WorkloadReadFlashNs]),
        count(&[Metric::WorkloadSnapshotNs]),
    )
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

#[test]
fn instrumented_replay_is_bit_identical_and_fully_counted() {
    let spec = tiny_spec();
    let trace = generate(&spec).expect("generate");
    let plain = replay_plain(&spec, &trace);
    let observed = replay(&spec, &trace).expect("observed");

    // Bit-identity: recording never touches solver arithmetic.
    assert_eq!(plain.price_checksum, observed.price_checksum);
    assert_eq!(plain.final_clients, observed.final_clients);
    assert_eq!(plain.solves.len(), observed.solves.len());
    // The loop times the same commands on both sides.
    assert_eq!(timed_counts(&plain), timed_counts(&observed));
    // Only the instrumented side's service recorded.
    assert_eq!(plain.metrics.counter("fedfl_solver_solves_total"), Some(0));

    // The registry saw every layer of the replay.
    let snap = &observed.metrics;
    assert_eq!(
        snap.counter("fedfl_solver_solves_total"),
        Some(observed.solves.len() as u64)
    );
    assert_eq!(
        snap.counter("fedfl_service_reprices_total"),
        Some(observed.solves.len() as u64)
    );
    assert_eq!(
        snap.counter("fedfl_workload_verified_steps_total"),
        Some(observed.verified_steps as u64)
    );
    // Trace ops + verify snapshots + the final checksum snapshot.
    assert_eq!(
        snap.counter("fedfl_workload_commands_total"),
        Some((trace.commands() + observed.verified_steps + 1) as u64)
    );
    // Every absorbed re-solve has a latency sample.
    let (resolves, reads, snapshots) = timed_counts(&observed);
    assert_eq!(resolves, observed.solves.len() as u64);
    assert!(reads > 0 && snapshots > 0);
    // No fallbacks on the exact path, and every solve is accounted for.
    assert_eq!(
        snap.counter(Metric::SolverExactSolves.name()),
        Some(observed.solves.len() as u64)
    );
}

#[test]
#[ignore = "release-mode overhead guard; CI runs it with --ignored"]
fn reference_10k_instrumented_replay_keeps_the_checksum_and_latency() {
    let spec = WorkloadSpec::reference_10k();
    let trace = generate(&spec).expect("generate");
    let mean_resolve_ms =
        |outcome: &ReplayOutcome| WorkloadRecord::new(&spec, &trace, outcome).mean_resolve_ms;

    let plain_run = || {
        let plain = replay_plain(&spec, &trace);
        assert_eq!(
            plain.price_checksum, REFERENCE_10K_CHECKSUM,
            "uninstrumented checksum drifted"
        );
        mean_resolve_ms(&plain)
    };
    let instrumented_run = || {
        let observed = replay(&spec, &trace).expect("instrumented replay");
        assert_eq!(
            observed.price_checksum, REFERENCE_10K_CHECKSUM,
            "instrumentation changed served price bits"
        );
        let snap = &observed.metrics;
        assert_eq!(
            snap.counter("fedfl_solver_solves_total"),
            Some(observed.solves.len() as u64)
        );
        assert!(snap.counter("fedfl_workload_commands_total").unwrap() > 0);
        mean_resolve_ms(&observed)
    };

    // One untimed warm-up replay per side, then pairs whose first side
    // alternates, so neither side always runs on the host state the
    // other left behind.
    plain_run();
    instrumented_run();
    let mut plain_ms = Vec::new();
    let mut instrumented_ms = Vec::new();
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            plain_ms.push(plain_run());
            instrumented_ms.push(instrumented_run());
        } else {
            instrumented_ms.push(instrumented_run());
            plain_ms.push(plain_run());
        }
    }

    // Overhead: the median instrumented mean re-solve latency within 5%
    // of the median uninstrumented one, plus a small absolute epsilon so
    // the guard is not noise-bound at sub-millisecond solve times.
    let base = median(plain_ms.clone());
    let instrumented = median(instrumented_ms.clone());
    assert!(
        instrumented <= base * 1.05 + 0.5,
        "median instrumented mean re-solve {instrumented:.3} ms vs baseline {base:.3} ms \
         exceeds 5% (plain runs {plain_ms:?}, instrumented runs {instrumented_ms:?})"
    );
}
