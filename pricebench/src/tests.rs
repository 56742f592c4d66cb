//! Tests of the benchmark's own code: its inputs, its loop, and its
//! correctness check. Run them with
//! `cargo test --release --manifest-path pricebench/Cargo.toml`.

use crate::host::Reference;
use crate::layers::Traced;
use crate::measure::{checkpoint, run_phase, Length, Observer, Tally, Twin, Untraced};
use crate::stream::{Stream, Write, WriteKind, SEGMENT_STEPS};
use crate::transport::Transport;
use crate::workloads::{insert_budget_only_steps, Built, Workload, DEFAULT_SEED};
use fedfl_obs::Registry;
use fedfl_service::{Command, PricingService, Response};
use fedfl_workload::{generate, TraceOp};
use std::sync::Arc;

/// A transport that remembers every command it forwards.
struct Recording {
    service: PricingService,
    sent: Vec<Command>,
}

impl Transport for Recording {
    fn call(&mut self, command: Command) -> Result<Response, String> {
        self.sent.push(command.clone());
        self.service.call(command)
    }
}

/// Seed a recording service with the stream's set-up commands, then
/// forget them, so `sent` holds only what the loop sends.
fn seeded(built: &Built, registry: Option<Arc<Registry>>) -> Recording {
    let service = match registry {
        Some(registry) => PricingService::with_recorder(built.config, registry),
        None => PricingService::new(built.config),
    }
    .expect("valid config");
    let mut rec = Recording {
        service,
        sent: Vec::new(),
    };
    rec.call(Command::AddClients(built.stream.seeding.clone()))
        .expect("seeding");
    rec.call(Command::GetPrices(built.stream.probe.clone()))
        .expect("probe read");
    rec.sent.clear();
    rec
}

/// Run warm-up plus `measured` segments and return what was sent.
fn replay<O: Observer>(
    built: &Built,
    workload: Workload,
    measured: usize,
    registry: Option<Arc<Registry>>,
    observer: &mut O,
) -> Vec<Command> {
    let mut rec = seeded(built, registry);
    let mut twin = Twin::new(built.config, &built.stream, workload.tolerance()).expect("twin");
    let mut tally = Tally::default();
    let result = run_phase(
        &mut rec,
        &mut twin,
        &built.stream,
        Length::Segments(measured),
        observer,
        &mut Reference::new(),
        &mut tally,
    );
    // A small stream cannot support the tail percentiles; the commands
    // sent are what this test checks.
    if let Err(e) = result {
        assert!(e.contains("do not support"), "{e}");
    }
    assert_eq!(tally.failed, 0);
    rec.sent
}

/// What the loop must send: each segment's commands in order, then the
/// untimed checkpoint snapshot.
fn expected(built: &Built, segments: usize) -> Vec<Command> {
    let mut commands = Vec::new();
    for k in 0..segments {
        for step in built.stream.segment(k) {
            let step = step.commands(built.stream.base_budget);
            commands.extend(step.writes.into_iter().map(|(_, c)| c));
            commands.extend(step.reads);
        }
        commands.push(Command::Snapshot);
    }
    commands
}

#[test]
fn the_measured_loop_sends_exactly_the_workloads_commands() {
    let workload = Workload::DiurnalExact;
    let built = workload.build_scaled(5, 3_000, 3).expect("build");
    let sent = replay(&built, workload, 2, None, &mut Untraced);
    assert_eq!(sent, expected(&built, 3));
}

#[test]
fn traced_and_untraced_runs_send_identical_commands() {
    let workload = Workload::LocalChurnFast;
    let built = workload.build_scaled(9, 12_000, 2).expect("build");
    let untraced = replay(&built, workload, 1, None, &mut Untraced);
    let registry = Arc::new(Registry::new());
    let mut traced = Traced::new(Arc::clone(&registry), false, built.config.shards);
    let traced_sent = replay(&built, workload, 1, Some(registry), &mut traced);
    assert_eq!(untraced, traced_sent);
    assert_eq!(untraced, expected(&built, 2));
    assert_eq!(traced.samples.reprice.len(), SEGMENT_STEPS);
}

#[test]
fn local_churn_dirties_few_shards_and_has_budget_only_steps() {
    let built = Workload::LocalChurnFast
        .build_scaled(DEFAULT_SEED, 20_000, 2)
        .expect("build");
    let mut service = PricingService::new(built.config).expect("service");
    service
        .execute(Command::AddClients(built.stream.seeding.clone()))
        .expect("seed");
    service
        .execute(Command::GetPrices(built.stream.probe.clone()))
        .expect("probe read");
    let mut budget_only = 0;
    for step in &built.stream.steps {
        let commands = step.commands(built.stream.base_budget);
        let only_budget = matches!(
            commands.writes.as_slice(),
            [(WriteKind::Budget, Command::UpdateBudget(_))]
        );
        for (_, command) in commands.writes {
            service.execute(command).expect("write");
        }
        service
            .execute(commands.reads[0].clone())
            .expect("first read");
        let report = service.last_report().expect("re-solved");
        let dirty = report.dirty_shards as f64 / report.shard_count as f64;
        if only_budget {
            budget_only += 1;
            assert_eq!(report.dirty_shards, 0);
            assert_eq!(
                report.index_rebuild_ns, 0,
                "budget-only steps reuse the index"
            );
        } else {
            assert!(dirty <= 0.05, "churn step dirtied {dirty} of the shards");
            assert!(dirty > 0.0);
        }
    }
    assert_eq!(budget_only, built.stream.steps.len() / 4);
}

#[test]
fn availability_palettes_round_trip_the_generated_models() {
    let workload = Workload::DiurnalExact;
    let spec = workload.spec(3, 2_000, 1);
    let trace = generate(&spec).expect("generate");
    let built = workload.build_scaled(3, 2_000, 1).expect("build");
    let mut updates = 0;
    for (generated, step) in trace.steps.iter().zip(&built.stream.steps) {
        let models = generated.ops.iter().filter_map(|op| match op {
            TraceOp::UpdateAvailability(patterns) => Some(patterns),
            _ => None,
        });
        let compact = step
            .writes
            .iter()
            .filter(|w| matches!(w, Write::Availability { .. }));
        for (patterns, write) in models.zip(compact) {
            let Command::UpdateAvailability(model) = write.command(built.stream.base_budget) else {
                panic!("availability write built another command");
            };
            assert_eq!(model.patterns(), patterns.as_slice());
            updates += 1;
        }
    }
    assert!(updates > 0);
}

#[test]
fn fingerprints_pin_inputs_not_solver_outputs() {
    let workload = Workload::WireReadsFast;
    let built = workload.build_scaled(4, 2_000, 1).expect("build").stream;
    let again = workload.build_scaled(4, 2_000, 1).expect("build").stream;
    assert_eq!(built.fingerprint, again.fingerprint);
    let other = workload.build_scaled(5, 2_000, 1).expect("build").stream;
    assert_ne!(built.fingerprint, other.fingerprint);

    // The base budget is the program's output: it does not enter the pin,
    // while the generator's fingerprint and the probe ids do.
    let spec = workload.spec(4, 2_000, 1);
    let trace = generate(&spec).expect("generate");
    let generated = Stream::from_trace(trace.clone(), 1.0);
    assert_eq!(
        generated.fingerprint,
        Stream::from_trace(trace.clone(), 2.0).fingerprint
    );
    assert_ne!(generated.fingerprint, trace.fingerprint);

    // The inserted budget-only steps are pinned by their factors.
    let factors = |stream: &Stream| -> Vec<u64> {
        let writes = stream.steps.iter().flat_map(|s| &s.writes);
        writes
            .filter_map(|w| match w {
                Write::Budget(f) => Some(f.to_bits()),
                _ => None,
            })
            .collect()
    };
    let mut light = generated.clone();
    insert_budget_only_steps(&mut light, &spec).expect("insert");
    assert_eq!(light.fingerprint, built.fingerprint);
    assert!(!factors(&light).is_empty());
    let mut heavier = spec.clone();
    heavier.budget_tail_alpha *= 2.0;
    let mut heavy = generated;
    insert_budget_only_steps(&mut heavy, &heavier).expect("insert");
    assert_ne!(factors(&heavy), factors(&light));
    assert_ne!(heavy.fingerprint, light.fingerprint);
}

#[test]
fn default_seed_streams_match_their_pins() {
    for workload in Workload::ALL {
        let built = workload.build(DEFAULT_SEED).expect("build");
        assert_eq!(
            built.stream.fingerprint,
            workload.pinned_fingerprint(),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn checkpoints_fail_on_a_diverging_price() {
    let workload = Workload::LocalChurnFast;
    let built = workload.build_scaled(2, 9_000, 1).expect("build");
    let mut rec = seeded(&built, None);
    let mut twin = Twin::new(built.config, &built.stream, workload.tolerance()).expect("twin");
    let mut tally = Tally::default();
    // Same writes on both sides: the check passes.
    checkpoint(&mut rec, &mut twin, &built.stream, 0, &mut tally)
        .expect("identical services agree");
    // A budget only the target sees moves every price.
    rec.call(Command::UpdateBudget(built.config.budget * 1.5))
        .expect("budget");
    let verdict = checkpoint(&mut rec, &mut twin, &built.stream, 0, &mut tally);
    assert!(verdict.is_err());
    assert_eq!(tally.failed, 1);
    assert_eq!(tally.attempted, 2);
}

#[test]
fn a_failed_checkpoint_stops_the_phase_and_is_tallied() {
    // The diurnal stream sends no budget updates, so a budget only the
    // target sees persists and the warm-up checkpoint must fail.
    let workload = Workload::DiurnalExact;
    let built = workload.build_scaled(5, 3_000, 3).expect("build");
    let mut rec = seeded(&built, None);
    rec.call(Command::UpdateBudget(built.config.budget * 1.5))
        .expect("budget");
    rec.sent.clear();
    let mut twin = Twin::new(built.config, &built.stream, workload.tolerance()).expect("twin");
    let mut tally = Tally::default();
    let (measures, last) = run_phase(
        &mut rec,
        &mut twin,
        &built.stream,
        Length::Segments(2),
        &mut Untraced,
        &mut Reference::new(),
        &mut tally,
    )
    .expect("a divergence is a result, not an error");
    assert!(last.is_none());
    assert_eq!(tally.failed, 1);
    assert_eq!(measures.segments, 0, "no segment is measured after it");
    assert_eq!(rec.sent, expected(&built, 1));
}
