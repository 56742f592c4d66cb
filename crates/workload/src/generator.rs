//! Deterministic closed-loop trace generation.
//!
//! The generator mirrors the service's id assignment (sequential from 0,
//! never reused) and its insertion-order store layout, so it can emit
//! `RemoveClients`/`GetPrices` ids and full `UpdateAvailability` models
//! without ever observing the service. Every stochastic choice draws from
//! a labelled substream of the master seed, so a spec maps to exactly one
//! trace — byte-identical across runs, machines, and `--shards`/thread
//! settings.

use crate::error::WorkloadError;
use crate::spec::WorkloadSpec;
use fedfl_core::population::PopulationSpec;
use fedfl_num::rng::substream;
use fedfl_service::{AvailabilityPattern, ClientId, ClientParams};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// Ids are grouped into availability cohorts in blocks of this many
/// consecutive ids, matching the store's route-block width.
pub const ROUTE_BLOCK: u64 = 32;

/// Availability probabilities are quantized to this many duty-level
/// buckets before being compared and emitted, so a cohort's pattern only
/// changes when its diurnal probability crosses a bucket boundary — on a
/// 12-step day roughly half the cohorts move per step, which is what
/// keeps the stamped part of the store partial instead of trivially full.
pub const PROBABILITY_GRID: f64 = 8.0;

/// Which traffic regime a step belongs to (latency stats are bucketed per
/// phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Background diurnal churn.
    Steady,
    /// A flash crowd is joining or being held.
    Flash,
}

impl Phase {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Steady => "steady",
            Phase::Flash => "flash",
        }
    }
}

/// One command of the generated trace.
///
/// `UpdateBudgetFactor` carries a multiplier rather than an absolute
/// budget: the base budget is derived from the initial population's
/// saturation path at replay time, which the generator never sees.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Register a batch of arrivals (each carrying its cohort's current
    /// quantized diurnal pattern).
    AddClients(Vec<ClientParams>),
    /// Deregister clients.
    RemoveClients(Vec<ClientId>),
    /// Replace every live client's availability pattern, aligned to
    /// insertion order.
    UpdateAvailability(Vec<AvailabilityPattern>),
    /// Scale the base budget by this heavy-tail factor.
    UpdateBudgetFactor(f64),
    /// Batched price read.
    GetPrices(Vec<ClientId>),
    /// Full equilibrium snapshot.
    Snapshot,
}

/// One step of the trace: its phase tag and its ops in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// 1-based step number (step 0 is the seeding setup).
    pub step: usize,
    /// Traffic regime for latency bucketing.
    pub phase: Phase,
    /// Commands in execution order.
    pub ops: Vec<TraceOp>,
}

/// A complete deterministic workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Seeding ops (initial `AddClients`, initial availability model).
    pub setup: Vec<TraceOp>,
    /// The traffic steps.
    pub steps: Vec<TraceStep>,
    /// FNV-1a fingerprint of the canonical byte encoding of the whole
    /// trace — equal fingerprints mean byte-identical traces.
    pub fingerprint: u64,
}

impl Trace {
    /// Total command count (setup + steps).
    pub fn commands(&self) -> usize {
        self.setup.len() + self.steps.iter().map(|s| s.ops.len()).sum::<usize>()
    }

    /// Canonical byte encoding (the fingerprint preimage). Two traces are
    /// identical iff their encodings are equal.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        for op in &self.setup {
            encode_op(op, &mut bytes);
        }
        for step in &self.steps {
            bytes.push(0xFE);
            bytes.extend_from_slice(&(step.step as u64).to_le_bytes());
            bytes.push(match step.phase {
                Phase::Steady => 0,
                Phase::Flash => 1,
            });
            for op in &step.ops {
                encode_op(op, &mut bytes);
            }
        }
        bytes
    }
}

/// RNG substream labels (stable across releases: changing one silently
/// changes every committed fingerprint).
const LABEL_DEPARTURES: u64 = 1;
const LABEL_BUDGET: u64 = 2;
const LABEL_READS: u64 = 3;

/// Generate the deterministic trace for `spec`.
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidSpec`] if the spec fails
/// [`WorkloadSpec::validate`].
pub fn generate(spec: &WorkloadSpec) -> Result<Trace, WorkloadError> {
    spec.validate()?;
    let population_spec = PopulationSpec::table1_like();
    let mut gen = Generator {
        spec,
        population_spec,
        next_id: 0,
        next_draw: 0,
        live: Vec::new(),
        surge_ids: HashSet::new(),
        active_surges: Vec::new(),
        cohort_patterns: vec![AvailabilityPattern::AlwaysOn; spec.cohorts],
        departure_rng: substream(spec.seed, LABEL_DEPARTURES),
        budget_rng: substream(spec.seed, LABEL_BUDGET),
        read_rng: substream(spec.seed, LABEL_READS),
    };

    let setup = gen.setup()?;
    let mut steps = Vec::with_capacity(spec.steps);
    for step in 1..=spec.steps {
        steps.push(gen.step(step)?);
    }

    let mut trace = Trace {
        setup,
        steps,
        fingerprint: 0,
    };
    trace.fingerprint = fnv1a(&trace.encode());
    Ok(trace)
}

/// The cohort an id belongs to: consecutive 32-id blocks cycle through
/// the cohorts, the same blocks the store routes to shards, so one
/// cohort's diurnal swing touches a coherent set of shard columns.
pub fn cohort_of(id: u64, cohorts: usize) -> usize {
    ((id / ROUTE_BLOCK) % cohorts as u64) as usize
}

struct Generator<'a> {
    spec: &'a WorkloadSpec,
    population_spec: PopulationSpec,
    /// Mirrors the service's id counter.
    next_id: u64,
    /// Index into the arrival parameter stream (decoupled from ids so the
    /// stream is stable even if id policy ever changes).
    next_draw: usize,
    /// Live ids in the service's insertion order.
    live: Vec<ClientId>,
    /// Ids currently held by an active flash crowd (excluded from steady
    /// departures so a surge leaves as the cohesive block it joined as).
    surge_ids: HashSet<ClientId>,
    /// `(departure_step, ids)` of active flash crowds.
    active_surges: Vec<(usize, Vec<ClientId>)>,
    cohort_patterns: Vec<AvailabilityPattern>,
    departure_rng: StdRng,
    budget_rng: StdRng,
    read_rng: StdRng,
}

impl Generator<'_> {
    fn setup(&mut self) -> Result<Vec<TraceOp>, WorkloadError> {
        self.refresh_cohort_patterns(0);
        let batch = self.draw_arrivals(self.spec.clients);
        // Arrivals already carry the round-0 patterns, so no separate
        // UpdateAvailability is needed to seed the model.
        Ok(vec![TraceOp::AddClients(batch)])
    }

    fn step(&mut self, step: usize) -> Result<TraceStep, WorkloadError> {
        let spec = self.spec;
        let mut ops = Vec::new();

        // 1. Diurnal rotation: re-emit the full model only when at least
        //    one cohort's quantized probability actually moved.
        if self.refresh_cohort_patterns(step) && !self.live.is_empty() {
            let model: Vec<AvailabilityPattern> = self
                .live
                .iter()
                .map(|id| self.cohort_patterns[cohort_of(id.0, spec.cohorts)])
                .collect();
            ops.push(TraceOp::UpdateAvailability(model));
        }

        // 2. Departures: an expiring flash crowd leaves together; steady
        //    departures are sampled from the non-surge pool, clamped so
        //    the population never drops below the floor.
        let mut departures: Vec<ClientId> = Vec::new();
        let mut expired = Vec::new();
        self.active_surges.retain(|(leave_step, ids)| {
            if *leave_step == step {
                expired.push(ids.clone());
                false
            } else {
                true
            }
        });
        for ids in expired {
            for id in &ids {
                self.surge_ids.remove(id);
            }
            departures.extend(ids);
        }
        let headroom = (self.live.len() - departures.len()).saturating_sub(spec.min_population);
        let steady_departures = spec.departures_per_step.min(headroom);
        if steady_departures > 0 {
            let leaving: HashSet<ClientId> = departures.iter().copied().collect();
            let mut pool: Vec<ClientId> = self
                .live
                .iter()
                .filter(|id| !self.surge_ids.contains(id) && !leaving.contains(id))
                .copied()
                .collect();
            let k = steady_departures.min(pool.len());
            // Partial Fisher–Yates: the first k slots become the sample.
            for i in 0..k {
                let j = self.departure_rng.random_range(i..pool.len());
                pool.swap(i, j);
            }
            departures.extend(pool[..k].iter().copied());
        }
        if !departures.is_empty() {
            let leaving: HashSet<ClientId> = departures.iter().copied().collect();
            self.live.retain(|id| !leaving.contains(id));
            ops.push(TraceOp::RemoveClients(departures));
        }

        // 3. Steady arrivals.
        if spec.arrivals_per_step > 0 {
            ops.push(TraceOp::AddClients(
                self.draw_arrivals(spec.arrivals_per_step),
            ));
        }

        // 4. Flash crowd: a block of surge_size clients joins together and
        //    is scheduled to leave together surge_hold steps later.
        let mut phase = Phase::Steady;
        if spec.surge_every > 0 && step.is_multiple_of(spec.surge_every) {
            phase = Phase::Flash;
            let first_id = self.next_id;
            let batch = self.draw_arrivals(spec.surge_size);
            let ids: Vec<ClientId> = (first_id..self.next_id).map(ClientId).collect();
            for id in &ids {
                self.surge_ids.insert(*id);
            }
            self.active_surges.push((step + spec.surge_hold, ids));
            ops.push(TraceOp::AddClients(batch));
        } else if !self.surge_ids.is_empty() {
            // A crowd is being held: its read/solve traffic is still
            // flash-phase load.
            phase = Phase::Flash;
        }

        // 5. Heavy-tail budget churn.
        if spec.budget_every > 0 && step.is_multiple_of(spec.budget_every) {
            let tail = spec.budget_tail()?;
            ops.push(TraceOp::UpdateBudgetFactor(
                tail.sample(&mut self.budget_rng),
            ));
        }

        // 6. Reads: the first GetPrices after the writes absorbs the
        //    re-solve; the rest measure pure read latency.
        for _ in 0..spec.reads_per_step {
            let batch: Vec<ClientId> = (0..spec.read_batch)
                .map(|_| self.live[self.read_rng.random_range(0..self.live.len())])
                .collect();
            ops.push(TraceOp::GetPrices(batch));
        }
        if spec.snapshot_every > 0 && step.is_multiple_of(spec.snapshot_every) {
            ops.push(TraceOp::Snapshot);
        }

        Ok(TraceStep { step, phase, ops })
    }

    /// Recompute the quantized per-cohort patterns for `round`; returns
    /// whether any cohort changed.
    fn refresh_cohort_patterns(&mut self, round: usize) -> bool {
        let mut changed = false;
        for (k, slot) in self.cohort_patterns.iter_mut().enumerate() {
            let phase = k as f64 / self.spec.cohorts as f64;
            let p = self.spec.diurnal.probability_at(round, phase);
            let q = (p * PROBABILITY_GRID).round() / PROBABILITY_GRID;
            let pattern = if q >= 1.0 {
                AvailabilityPattern::AlwaysOn
            } else {
                AvailabilityPattern::Random {
                    // The quantized grid can round a valid probability to
                    // 0.0, which the model validator rejects; pin it to
                    // the smallest grid step instead.
                    probability: q.max(1.0 / PROBABILITY_GRID),
                }
            };
            if *slot != pattern {
                *slot = pattern;
                changed = true;
            }
        }
        changed
    }

    /// Draw `k` arrivals from the Table-I-like spec, assign them the next
    /// `k` ids (mirroring the service), and stamp each with its cohort's
    /// current pattern.
    fn draw_arrivals(&mut self, k: usize) -> Vec<ClientParams> {
        let mut batch = Vec::with_capacity(k);
        for _ in 0..k {
            let profile = self
                .population_spec
                .draw_client(self.spec.seed, self.next_draw)
                .expect("spec validated at generate()");
            self.next_draw += 1;
            let id = self.next_id;
            self.next_id += 1;
            self.live.push(ClientId(id));
            batch.push(ClientParams {
                data_size: profile.weight, // raw, pre-normalisation draw
                g_squared: profile.g_squared,
                cost: profile.cost,
                value: profile.value,
                q_max: profile.q_max,
                availability: self.cohort_patterns[cohort_of(id, self.spec.cohorts)],
            });
        }
        batch
    }
}

fn encode_op(op: &TraceOp, bytes: &mut Vec<u8>) {
    match op {
        TraceOp::AddClients(batch) => {
            bytes.push(1);
            bytes.extend_from_slice(&(batch.len() as u64).to_le_bytes());
            for p in batch {
                for x in [p.data_size, p.g_squared, p.cost, p.value, p.q_max] {
                    bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                encode_pattern(&p.availability, bytes);
            }
        }
        TraceOp::RemoveClients(ids) => {
            bytes.push(2);
            bytes.extend_from_slice(&(ids.len() as u64).to_le_bytes());
            for id in ids {
                bytes.extend_from_slice(&id.0.to_le_bytes());
            }
        }
        TraceOp::UpdateAvailability(patterns) => {
            bytes.push(3);
            bytes.extend_from_slice(&(patterns.len() as u64).to_le_bytes());
            for p in patterns {
                encode_pattern(p, bytes);
            }
        }
        TraceOp::UpdateBudgetFactor(factor) => {
            bytes.push(4);
            bytes.extend_from_slice(&factor.to_bits().to_le_bytes());
        }
        TraceOp::GetPrices(ids) => {
            bytes.push(5);
            bytes.extend_from_slice(&(ids.len() as u64).to_le_bytes());
            for id in ids {
                bytes.extend_from_slice(&id.0.to_le_bytes());
            }
        }
        TraceOp::Snapshot => bytes.push(6),
    }
}

fn encode_pattern(pattern: &AvailabilityPattern, bytes: &mut Vec<u8>) {
    match *pattern {
        AvailabilityPattern::AlwaysOn => bytes.push(0),
        AvailabilityPattern::Random { probability } => {
            bytes.push(1);
            bytes.extend_from_slice(&probability.to_bits().to_le_bytes());
        }
        AvailabilityPattern::DutyCycle {
            period,
            on_rounds,
            offset,
        } => {
            bytes.push(2);
            for x in [period, on_rounds, offset] {
                bytes.extend_from_slice(&(x as u64).to_le_bytes());
            }
        }
    }
}

/// FNV-1a over `bytes` — a stable, dependency-free structural hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::reference_10k();
        spec.clients = 64;
        spec.steps = 8;
        spec.cohorts = 4;
        spec.arrivals_per_step = 6;
        spec.departures_per_step = 6;
        spec.surge_every = 4;
        spec.surge_size = 16;
        spec.surge_hold = 2;
        spec.reads_per_step = 2;
        spec.read_batch = 8;
        spec.min_population = 16;
        spec
    }

    #[test]
    fn same_spec_yields_identical_trace() {
        let spec = tiny_spec();
        let a = generate(&spec).expect("generate");
        let b = generate(&spec).expect("generate");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_yield_different_traces() {
        let spec = tiny_spec();
        let mut other = spec.clone();
        other.seed += 1;
        assert_ne!(
            generate(&spec).unwrap().fingerprint,
            generate(&other).unwrap().fingerprint
        );
    }

    #[test]
    fn departures_respect_the_population_floor() {
        let mut spec = tiny_spec();
        spec.clients = 20;
        spec.min_population = 18;
        spec.arrivals_per_step = 0;
        spec.departures_per_step = 50;
        spec.surge_every = 0;
        spec.surge_size = 0;
        spec.surge_hold = 0;
        let trace = generate(&spec).expect("generate");
        let mut live = spec.clients as i64;
        for step in &trace.steps {
            for op in &step.ops {
                match op {
                    TraceOp::AddClients(batch) => live += batch.len() as i64,
                    TraceOp::RemoveClients(ids) => live -= ids.len() as i64,
                    _ => {}
                }
            }
            assert!(live >= spec.min_population as i64, "step {}", step.step);
        }
    }

    #[test]
    fn flash_crowds_join_and_leave_together() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        // Every surge step is tagged Flash and adds a surge_size batch.
        let surge_steps: Vec<&TraceStep> = trace
            .steps
            .iter()
            .filter(|s| s.step.is_multiple_of(spec.surge_every))
            .collect();
        assert!(!surge_steps.is_empty());
        for s in surge_steps {
            assert_eq!(s.phase, Phase::Flash);
            assert!(s
                .ops
                .iter()
                .any(|op| matches!(op, TraceOp::AddClients(b) if b.len() == spec.surge_size)));
            // surge_hold steps later the same number of clients leaves.
            if let Some(leave) = trace
                .steps
                .iter()
                .find(|t| t.step == s.step + spec.surge_hold)
            {
                let removed: usize = leave
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        TraceOp::RemoveClients(ids) => Some(ids.len()),
                        _ => None,
                    })
                    .sum();
                assert!(removed >= spec.surge_size, "step {}", leave.step);
            }
        }
    }

    #[test]
    fn availability_updates_match_live_population_size() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        let mut live: Vec<ClientId> = Vec::new();
        let mut next_id = 0u64;
        let mut apply = |op: &TraceOp, live: &mut Vec<ClientId>| match op {
            TraceOp::AddClients(batch) => {
                for _ in batch {
                    live.push(ClientId(next_id));
                    next_id += 1;
                }
            }
            TraceOp::RemoveClients(ids) => {
                let gone: HashSet<ClientId> = ids.iter().copied().collect();
                live.retain(|id| !gone.contains(id));
            }
            TraceOp::UpdateAvailability(patterns) => {
                assert_eq!(patterns.len(), live.len());
            }
            _ => {}
        };
        for op in &trace.setup {
            apply(op, &mut live);
        }
        for step in &trace.steps {
            for op in &step.ops {
                apply(op, &mut live);
            }
        }
    }

    #[test]
    fn reads_only_name_live_clients() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("generate");
        let mut live: HashSet<ClientId> = HashSet::new();
        let mut next_id = 0u64;
        let mut check = |op: &TraceOp, live: &mut HashSet<ClientId>| match op {
            TraceOp::AddClients(batch) => {
                for _ in batch {
                    live.insert(ClientId(next_id));
                    next_id += 1;
                }
            }
            TraceOp::RemoveClients(ids) => {
                for id in ids {
                    assert!(live.remove(id), "removed unknown id {id:?}");
                }
            }
            TraceOp::GetPrices(ids) => {
                for id in ids {
                    assert!(live.contains(id), "read of dead id {id:?}");
                }
            }
            _ => {}
        };
        for op in &trace.setup {
            check(op, &mut live);
        }
        for step in &trace.steps {
            for op in &step.ops {
                check(op, &mut live);
            }
        }
    }
}
