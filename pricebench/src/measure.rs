//! The closed loop: set-up, warm-up, the measured segments, and the
//! untimed twin checkpoints between them.

use crate::host::{Cpu, Reference, Ticks};
use crate::stats::min_samples;
use crate::stream::{StepCommands, Stream, WriteKind, SEGMENT_STEPS};
use crate::transport::{Target, Transport, Wire};
use fedfl_obs::Registry;
use fedfl_service::{
    ClientParams, Command, PricingService, Response, ServiceConfig, ServiceSnapshot,
};
use std::sync::Arc;
use std::time::Instant;

/// What a timed call was, for attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// The set-up's seeding `AddClients` or probe read.
    Setup,
    /// A write of a step.
    Write(WriteKind),
    /// The first read after a step's writes: it absorbs the re-solve.
    Resolve,
    /// Any later `GetPrices` of the step.
    Read,
    /// A `Snapshot` of the step (always after the step's first read).
    Snapshot,
}

/// Hooks around every timed call. The untraced loop uses [`Untraced`],
/// whose empty hooks compile away; the traced loop reads layer spans.
pub trait Observer {
    /// Just before the clock starts.
    fn before(&mut self) {}
    /// Just after the clock stops, with the call's wall time.
    fn after(&mut self, _call: Call, _ms: f64) {}
}

/// No observation.
pub struct Untraced;
impl Observer for Untraced {}

/// Commands attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Commands sent to the service under test.
    pub attempted: u64,
    /// Commands that returned an error, an unexpected reply, or served
    /// prices that failed a correctness check.
    pub failed: u64,
}

/// Snapshots a run measures at least, so their median is steady.
const MIN_SNAPSHOTS: usize = 20;

/// Raw samples of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Measures {
    /// First-read-after-writes latencies, ms.
    pub resolve: Vec<f64>,
    /// Clean `GetPrices` latencies, ms.
    pub read: Vec<f64>,
    /// Per-step sums of write latencies, ms.
    pub write: Vec<f64>,
    /// Clean `Snapshot` latencies, ms.
    pub snapshot: Vec<f64>,
    /// Steps run.
    pub steps: usize,
    /// Segments run.
    pub segments: usize,
    /// Wall time of the segments (checkpoints excluded), s.
    pub wall_s: f64,
    /// Time inside timed calls, s.
    pub busy_s: f64,
    /// Process CPU time during the segments.
    pub cpu: Cpu,
    /// Host-wide CPU ticks during the segments.
    pub host: Ticks,
}

impl Measures {
    /// Whether every reported percentile has its minimum sample count.
    pub fn sufficient(&self) -> bool {
        self.resolve.len() >= min_samples(0.9) && self.snapshot.len() >= MIN_SNAPSHOTS
    }
}

/// The reply a command must get.
enum Expect {
    Added(usize),
    Removed(usize),
    AvailabilityUpdated,
    BudgetUpdated,
    Prices(usize),
    Snapshot,
}

impl Expect {
    fn of(command: &Command) -> Expect {
        match command {
            Command::AddClients(batch) => Expect::Added(batch.len()),
            Command::RemoveClients(ids) => Expect::Removed(ids.len()),
            Command::UpdateAvailability(_) => Expect::AvailabilityUpdated,
            Command::UpdateBudget(_) => Expect::BudgetUpdated,
            Command::GetPrices(ids) => Expect::Prices(ids.len()),
            Command::Snapshot => Expect::Snapshot,
            other => unreachable!("workloads send no {other:?}"),
        }
    }

    fn matches(&self, reply: &Response) -> bool {
        match (self, reply) {
            (Expect::Added(n), Response::Added(ids)) => ids.len() == *n,
            (Expect::Removed(n), Response::Removed(removed)) => removed == n,
            (Expect::AvailabilityUpdated, Response::AvailabilityUpdated)
            | (Expect::BudgetUpdated, Response::BudgetUpdated)
            | (Expect::Snapshot, Response::Snapshot(_)) => true,
            (Expect::Prices(n), Response::Prices(quotes)) => {
                quotes.len() == *n && quotes.iter().all(|q| q.price.is_finite())
            }
            _ => false,
        }
    }
}

/// Send one command under the clock; returns its wall time in ms.
fn timed<T: Transport, O: Observer>(
    target: &mut T,
    observer: &mut O,
    call: Call,
    command: Command,
    tally: &mut Tally,
) -> f64 {
    let expect = Expect::of(&command);
    observer.before();
    let started = Instant::now();
    let reply = target.call(command);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    observer.after(call, ms);
    tally.attempted += 1;
    match reply {
        Ok(reply) if expect.matches(&reply) => {}
        Ok(reply) => {
            tally.failed += 1;
            eprintln!("{call:?}: unexpected reply {}", summary(&reply));
        }
        Err(e) => {
            tally.failed += 1;
            eprintln!("{call:?}: {e}");
        }
    }
    ms
}

fn summary(reply: &Response) -> String {
    let text = format!("{reply:?}");
    text.chars().take(120).collect()
}

/// Run one step's pre-built commands.
fn run_step<T: Transport, O: Observer>(
    target: &mut T,
    step: StepCommands,
    observer: &mut O,
    measures: &mut Measures,
    tally: &mut Tally,
) {
    let mut write_ms = 0.0;
    for (kind, command) in step.writes {
        write_ms += timed(target, observer, Call::Write(kind), command, tally);
    }
    measures.write.push(write_ms);
    let mut busy_ms = write_ms;
    for (i, command) in step.reads.into_iter().enumerate() {
        let call = match (&command, i) {
            (_, 0) => Call::Resolve,
            (Command::Snapshot, _) => Call::Snapshot,
            _ => Call::Read,
        };
        let ms = timed(target, observer, call, command, tally);
        busy_ms += ms;
        match call {
            Call::Resolve => measures.resolve.push(ms),
            Call::Snapshot => measures.snapshot.push(ms),
            _ => measures.read.push(ms),
        }
    }
    measures.busy_s += busy_ms / 1e3;
}

/// Run one segment of pre-built steps under the wall clock.
pub fn run_segment<T: Transport, O: Observer>(
    target: &mut T,
    steps: Vec<StepCommands>,
    observer: &mut O,
    measures: &mut Measures,
    tally: &mut Tally,
) -> Result<(), String> {
    let cpu = Cpu::now()?;
    let ticks = Ticks::now()?;
    let started = Instant::now();
    let n = steps.len();
    for step in steps {
        run_step(target, step, observer, measures, tally);
    }
    measures.wall_s += started.elapsed().as_secs_f64();
    measures.cpu.add(Cpu::now()?.since(cpu));
    measures.host.add(Ticks::now()?.since(ticks));
    measures.steps += n;
    measures.segments += 1;
    Ok(())
}

/// A fresh service deployed with the workload's configuration.
fn service(
    config: ServiceConfig,
    registry: Option<Arc<Registry>>,
) -> Result<PricingService, String> {
    match registry {
        Some(registry) => PricingService::with_recorder(config, registry),
        None => PricingService::new(config),
    }
    .map_err(|e| e.to_string())
}

/// Create the service (and on the wire, boot its server and connect),
/// seed it and serve the first certified read. Returns the target and
/// the set-up time in seconds.
pub fn setup<O: Observer>(
    config: ServiceConfig,
    over_wire: bool,
    registry: Option<Arc<Registry>>,
    seeding: Vec<ClientParams>,
    stream: &Stream,
    observer: &mut O,
    tally: &mut Tally,
) -> Result<(Target, f64), String> {
    let probe = Command::GetPrices(stream.probe.clone());
    let started = Instant::now();
    let service = service(config, registry)?;
    let mut target = if over_wire {
        Target::Wire(Wire::boot(service)?)
    } else {
        Target::InProcess(Box::new(service))
    };
    timed(
        &mut target,
        observer,
        Call::Setup,
        Command::AddClients(seeding),
        tally,
    );
    timed(&mut target, observer, Call::Setup, probe, tally);
    Ok((target, started.elapsed().as_secs_f64()))
}

/// The reference for correctness: an in-process service fed the same
/// writes as the target with no reads in between, then one read per
/// checkpoint. Its prices depend only on the service's contract that an
/// incrementally maintained equilibrium equals a freshly solved one.
pub struct Twin {
    service: PricingService,
    next_step: usize,
    /// Relative tolerance of the comparison; `None` for bit identity.
    tolerance: Option<f64>,
}

impl Twin {
    /// Deploy and seed the twin (untimed). Served prices must match it
    /// bit for bit (`tolerance` `None`) or within `tolerance` relative.
    pub fn new(
        config: ServiceConfig,
        stream: &Stream,
        tolerance: Option<f64>,
    ) -> Result<Twin, String> {
        let mut service = service(config, None)?;
        service
            .execute(Command::AddClients(stream.seeding.clone()))
            .map_err(|e| format!("twin seeding: {e}"))?;
        Ok(Twin {
            service,
            next_step: 0,
            tolerance,
        })
    }

    /// Feed the writes of every step before `upto`, then read the whole
    /// equilibrium.
    fn snapshot(&mut self, stream: &Stream, upto: usize) -> Result<ServiceSnapshot, String> {
        for step in &stream.steps[self.next_step..upto] {
            for write in &step.writes {
                self.service
                    .execute(write.command(stream.base_budget))
                    .map_err(|e| format!("twin write: {e}"))?;
            }
        }
        self.next_step = upto;
        match self.service.execute(Command::Snapshot) {
            Ok(Response::Snapshot(snapshot)) => Ok(snapshot),
            other => Err(format!("twin snapshot: {other:?}")),
        }
    }
}

/// Untimed checkpoint after step `upto`: the target's full equilibrium
/// must equal the twin's, bit for bit or within the twin's tolerance. A
/// mismatch counts as a failed operation.
pub fn checkpoint<T: Transport>(
    target: &mut T,
    twin: &mut Twin,
    stream: &Stream,
    upto: usize,
    tally: &mut Tally,
) -> Result<ServiceSnapshot, String> {
    tally.attempted += 1;
    let verdict = match target.call(Command::Snapshot) {
        Ok(Response::Snapshot(served)) => {
            let reference = twin.snapshot(stream, upto)?;
            compare(&served, &reference, twin.tolerance).map(|()| served)
        }
        Ok(other) => Err(format!("snapshot answered with {}", summary(&other))),
        Err(e) => Err(e),
    };
    if verdict.is_err() {
        tally.failed += 1;
    }
    verdict.map_err(|e| format!("checkpoint after step {upto}: {e}"))
}

fn compare(
    served: &ServiceSnapshot,
    reference: &ServiceSnapshot,
    tolerance: Option<f64>,
) -> Result<(), String> {
    if served.ids != reference.ids {
        return Err(format!(
            "population differs: {} served vs {} in the twin",
            served.ids.len(),
            reference.ids.len()
        ));
    }
    if served.budget.to_bits() != reference.budget.to_bits() {
        return Err(format!("budget {} vs {}", served.budget, reference.budget));
    }
    let same = |a: f64, b: f64| match tolerance {
        None => a.to_bits() == b.to_bits(),
        Some(tol) => (a - b).abs() <= tol * b.abs().max(1.0),
    };
    for i in 0..served.ids.len() {
        if !same(served.prices[i], reference.prices[i])
            || !same(served.q_eff[i], reference.q_eff[i])
        {
            return Err(format!(
                "client {}: served (price {:?}, q {:?}) vs twin ({:?}, {:?})",
                served.ids[i],
                served.prices[i],
                served.q_eff[i],
                reference.prices[i],
                reference.q_eff[i]
            ));
        }
    }
    Ok(())
}

/// How long the measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Whole segments until this many seconds are measured and every
    /// percentile has its samples.
    Seconds(f64),
    /// Exactly this many measured segments.
    Segments(usize),
}

/// Host reference samples taken in each gap between segments.
const HOST_SAMPLES_PER_GAP: usize = 2;

/// Warm up on segment 0, then run measured segments from 1 on, with a
/// checkpoint and host reference samples after each. Returns the
/// measures and the last full equilibrium a checkpoint accepted, or
/// `None` when a checkpoint failed: that stops the phase, and the failure
/// is already in the tally.
pub fn run_phase<T: Transport, O: Observer>(
    target: &mut T,
    twin: &mut Twin,
    stream: &Stream,
    length: Length,
    observer: &mut O,
    host: &mut Reference,
    tally: &mut Tally,
) -> Result<(Measures, Option<ServiceSnapshot>), String> {
    let mut measures = Measures::default();
    let mut last = None;
    for k in 0..stream.segments() {
        if k == 0 {
            let mut warm = Measures::default();
            run_segment(target, commands(stream, 0), &mut Untraced, &mut warm, tally)?;
        } else {
            let done = match length {
                Length::Seconds(s) => measures.wall_s >= s && measures.sufficient(),
                Length::Segments(n) => measures.segments == n,
            };
            if done {
                break;
            }
            run_segment(target, commands(stream, k), observer, &mut measures, tally)?;
        }
        let upto = (k + 1) * SEGMENT_STEPS;
        match checkpoint(target, twin, stream, upto, tally) {
            Ok(snapshot) => last = Some(snapshot),
            Err(e) => {
                eprintln!("pricebench: {e}");
                return Ok((measures, None));
            }
        }
        host.sample(HOST_SAMPLES_PER_GAP);
    }
    if !measures.sufficient() {
        return Err(format!(
            "the stream ran out after {} segments: {} re-solves, {} reads, {} snapshots \
             do not support every percentile",
            measures.segments,
            measures.resolve.len(),
            measures.read.len(),
            measures.snapshot.len()
        ));
    }
    Ok((measures, last))
}

/// Segment `k`'s commands, built before its clock starts.
fn commands(stream: &Stream, k: usize) -> Vec<StepCommands> {
    stream
        .segment(k)
        .iter()
        .map(|step| step.commands(stream.base_budget))
        .collect()
}
