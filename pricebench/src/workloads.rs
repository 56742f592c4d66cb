//! The named workloads: what each replays, and why.
//!
//! * `diurnal-exact-100k` — the reference traffic model at 100k clients
//!   on the exact solver, with a fixed budget low enough that every
//!   re-solve bisects. Every step moves
//!   timezone cohorts, so about 91%
//!   of shards are dirty per re-solve and the exact λ-bisection dominates;
//!   writes carry O(N) availability models and post-removal reindexing.
//!   The threshold index and `net` are bypassed.
//! * `local-churn-fast-250k` — constant availability, a handful of
//!   arrivals and departures per step and some budget-only steps, on the
//!   fast path. Under 5% of shards are dirty per churn step, so the
//!   incremental mechanisms (dirty-shard caches, segment patching, index
//!   reuse) and the service's O(N) floor are what a re-solve costs.
//! * `wire-reads-fast-100k` — the same localised churn at 100k, served
//!   over loopback TCP to a read-heavy client, so `net`'s codec, framing
//!   and certified-view publication dominate.

use crate::stream::{Step, Stream, Write, SEGMENT_STEPS};
use fedfl_num::rng::substream;
use fedfl_service::{Command, ServiceConfig};
use fedfl_workload::{generate, replay_config, WorkloadSpec};

/// The seed whose stream fingerprints are pinned.
pub const DEFAULT_SEED: u64 = 2023;

/// Segments of the diurnal stream.
const DIURNAL_SEGMENTS: usize = 18;

/// Segments of the localised-churn streams.
const CHURN_SEGMENTS: usize = 40;

/// Solver threads: the host's two cores, fixed so runs do not depend on
/// what `available_parallelism` reports.
pub const SOLVER_THREADS: usize = 2;

/// On the localised-churn workloads every this many steps is
/// budget-only (so index reuse is exercised), the rest churn.
const BUDGET_ONLY_EVERY: usize = 4;

/// RNG label of the budget-only steps' factors (distinct from the
/// generator's labels 1–3).
const LABEL_BUDGET_ONLY: u64 = 0x0B0D_6E70;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reference diurnal traffic, exact solver, in process.
    DiurnalExact,
    /// Localised churn, fast path, in process.
    LocalChurnFast,
    /// Localised churn, fast path, read-heavy, over loopback TCP.
    WireReadsFast,
}

/// A generated workload: the deployment and the stream it replays.
pub struct Built {
    /// The service configuration every run deploys.
    pub config: ServiceConfig,
    /// The commands.
    pub stream: Stream,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::DiurnalExact,
        Workload::LocalChurnFast,
        Workload::WireReadsFast,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiurnalExact => "diurnal-exact-100k",
            Workload::LocalChurnFast => "local-churn-fast-250k",
            Workload::WireReadsFast => "wire-reads-fast-100k",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the service is driven over loopback TCP.
    pub fn over_wire(self) -> bool {
        self == Workload::WireReadsFast
    }

    /// Relative tolerance of the twin comparison: `None` for bit
    /// identity (exact solver), else the replay's certification
    /// tolerance.
    pub fn tolerance(self) -> Option<f64> {
        match self {
            Workload::DiurnalExact => None,
            _ => Some(1e-5),
        }
    }

    /// Initial population.
    fn clients(self) -> usize {
        match self {
            Workload::LocalChurnFast => 250_000,
            _ => 100_000,
        }
    }

    /// Segments generated: one warm-up plus more than a run measures. A
    /// run needs at least ten measured segments (100 re-solves and 20
    /// snapshots on the diurnal stream). The diurnal cap bounds the memory
    /// the generator needs for that stream's full availability models
    /// (about 50 MB per segment while it generates); the churn streams
    /// are cheap to generate.
    fn segments(self) -> usize {
        match self {
            Workload::DiurnalExact => DIURNAL_SEGMENTS,
            _ => CHURN_SEGMENTS,
        }
    }

    /// Fingerprint of the full-size stream for [`DEFAULT_SEED`]: the
    /// generator's trace fingerprint extended with the benchmark's
    /// additions (see [`Stream::fingerprint`]).
    pub fn pinned_fingerprint(self) -> u64 {
        match self {
            Workload::DiurnalExact => 0x041e_7223_0381_1435,
            Workload::LocalChurnFast => 0x8efd_78b7_b6a2_bc6c,
            Workload::WireReadsFast => 0x63a9_9534_f55a_bd8d,
        }
    }

    /// The generator knobs for `segments` segments at `clients` clients.
    pub fn spec(self, seed: u64, clients: usize, segments: usize) -> WorkloadSpec {
        let mut spec = WorkloadSpec::reference_10k();
        spec.clients = clients;
        spec.seed = seed;
        spec.threads = SOLVER_THREADS;
        spec.verify_every = 0;
        match self {
            Workload::DiurnalExact => {
                spec.steps = segments * SEGMENT_STEPS;
                // The reference budget (0.45 of the always-on saturation
                // spend, with heavy-tail churn) saturates the
                // availability-weighted population for part of each day
                // on some seeds. A saturated re-solve skips the bisection
                // (~20 ms instead of ~85 ms), so resolve_p50 followed the
                // seed rather than the program. At 0.15 with no budget
                // churn every re-solve bisects; budget updates are
                // exercised by the fast workloads' budget-only steps.
                spec.budget_frac = 0.15;
                spec.budget_every = 0;
            }
            Workload::LocalChurnFast | Workload::WireReadsFast => {
                spec.steps = segments * SEGMENT_STEPS / BUDGET_ONLY_EVERY * (BUDGET_ONLY_EVERY - 1);
                spec.fast_path = true;
                spec.diurnal.trough = 0.75;
                spec.diurnal.peak = 0.75;
                spec.arrivals_per_step = 4;
                spec.departures_per_step = 4;
                spec.surge_every = 0;
                spec.budget_every = 0;
                spec.snapshot_every = 3;
                spec.reads_per_step = 48;
            }
        }
        spec
    }

    /// Generate the full-size workload for `seed`.
    pub fn build(self, seed: u64) -> Result<Built, String> {
        self.build_scaled(seed, self.clients(), self.segments())
    }

    /// Generate the workload at a chosen size (tests use small ones).
    pub fn build_scaled(self, seed: u64, clients: usize, segments: usize) -> Result<Built, String> {
        let spec = self.spec(seed, clients, segments);
        let trace = generate(&spec).map_err(|e| e.to_string())?;
        let config = replay_config(&spec, &trace).map_err(|e| e.to_string())?;
        let mut stream = Stream::from_trace(trace, config.budget);
        if self != Workload::DiurnalExact {
            insert_budget_only_steps(&mut stream, &spec)?;
        }
        Ok(Built { config, stream })
    }
}

/// After every `BUDGET_ONLY_EVERY - 1` churn steps, insert a step whose
/// only write is a new heavy-tail budget factor and whose reads repeat
/// the previous step's price reads. The inserted positions and factors
/// are folded into the stream's fingerprint.
pub fn insert_budget_only_steps(stream: &mut Stream, spec: &WorkloadSpec) -> Result<(), String> {
    let tail = spec.budget_tail().map_err(|e| e.to_string())?;
    let mut rng = substream(spec.seed, LABEL_BUDGET_ONLY);
    let churn = std::mem::take(&mut stream.steps);
    let mut added = Vec::new();
    let mut factor = 1.0;
    for (i, step) in churn.into_iter().enumerate() {
        let reads: Vec<Command> = step
            .reads
            .iter()
            .filter(|r| matches!(r, Command::GetPrices(_)))
            .cloned()
            .collect();
        stream.steps.push(step);
        if (i + 1) % (BUDGET_ONLY_EVERY - 1) == 0 {
            let next = tail.sample(&mut rng);
            assert_ne!(next, factor, "a budget-only step must change the budget");
            factor = next;
            added.extend((stream.steps.len() as u64).to_le_bytes());
            added.extend(factor.to_bits().to_le_bytes());
            stream.steps.push(Step {
                writes: vec![Write::Budget(factor)],
                reads,
            });
        }
    }
    stream.extend_fingerprint(&added);
    Ok(())
}
