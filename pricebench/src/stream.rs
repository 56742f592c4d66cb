//! The command stream a workload replays.
//!
//! A stream is generated once, before anything is timed, from the
//! workload's seed. It holds the seeding batch, the probe read that ends
//! set-up, and the traffic steps. Availability updates are kept as
//! palette codes (one byte per client instead of a 32-byte pattern) and
//! budget updates as factors of the base budget; both are expanded into
//! real commands one segment at a time, outside the timed loop, so a
//! 100k-client diurnal stream fits in a few tens of MB.

use fedfl_service::{AvailabilityModel, AvailabilityPattern, ClientId, ClientParams, Command};
use fedfl_workload::generator::fnv1a;
use fedfl_workload::{Trace, TraceOp};

/// Steps per segment. The measured phase runs whole segments, so every
/// run measures the same mix of step kinds; twelve steps is one diurnal
/// period and one flash-crowd cycle of the reference knobs.
pub const SEGMENT_STEPS: usize = 12;

/// Ids in the probe read that ends set-up.
const PROBE_IDS: usize = 64;

/// The kind of a write command, for per-kind layer timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// `AddClients`.
    Add,
    /// `RemoveClients`.
    Remove,
    /// `UpdateAvailability`.
    Availability,
    /// `UpdateBudget`.
    Budget,
}

/// One write of a step, as stored in the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// A command stored as is.
    Command(WriteKind, Command),
    /// `UpdateBudget` to this multiple of the base budget.
    Budget(f64),
    /// `UpdateAvailability`: client `i` gets `palette[codes[i]]`.
    Availability {
        /// The distinct patterns of this update.
        palette: Vec<AvailabilityPattern>,
        /// One palette index per live client, in insertion order.
        codes: Vec<u8>,
    },
}

impl Write {
    fn kind(&self) -> WriteKind {
        match self {
            Write::Command(kind, _) => *kind,
            Write::Budget(_) => WriteKind::Budget,
            Write::Availability { .. } => WriteKind::Availability,
        }
    }

    /// The command this write sends, with budget factors scaling
    /// `base_budget`.
    pub fn command(&self, base_budget: f64) -> Command {
        match self {
            Write::Command(_, command) => command.clone(),
            Write::Budget(factor) => Command::UpdateBudget(base_budget * factor),
            Write::Availability { palette, codes } => Command::UpdateAvailability(
                AvailabilityModel::new(codes.iter().map(|&c| palette[usize::from(c)]).collect())
                    .expect("generated availability models are valid"),
            ),
        }
    }
}

/// One traffic step: its writes, then its reads (`GetPrices` batches and
/// at most one `Snapshot`). The first read absorbs the step's re-solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Write commands, in send order.
    pub writes: Vec<Write>,
    /// Read commands, in send order.
    pub reads: Vec<Command>,
}

impl Step {
    /// Materialise the step's commands.
    pub fn commands(&self, base_budget: f64) -> StepCommands {
        StepCommands {
            writes: self
                .writes
                .iter()
                .map(|w| (w.kind(), w.command(base_budget)))
                .collect(),
            reads: self.reads.clone(),
        }
    }
}

/// A step's commands, built before the clock starts so the timed loop
/// only moves them into the API.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCommands {
    /// Writes with their kinds.
    pub writes: Vec<(WriteKind, Command)>,
    /// Reads.
    pub reads: Vec<Command>,
}

/// A workload's complete input.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The initial population (`AddClients` at set-up).
    pub seeding: Vec<ClientParams>,
    /// Ids of the set-up probe read (the first certified read).
    pub probe: Vec<ClientId>,
    /// Traffic steps; segment 0 is warm-up.
    pub steps: Vec<Step>,
    /// The deployment's initial budget, which budget factors scale. The
    /// program derives it from the seeding batch, so it is an output of
    /// the code under test and stays out of the fingerprint.
    pub base_budget: f64,
    /// The generator's `Trace::fingerprint`, extended with the
    /// benchmark's own additions (probe ids, inserted budget-only
    /// steps): equal fingerprints mean the same inputs.
    pub fingerprint: u64,
}

impl Stream {
    /// Convert a generated trace.
    pub fn from_trace(trace: Trace, base_budget: f64) -> Self {
        let mut setup = trace.setup.into_iter();
        let seeding = match setup.next() {
            Some(TraceOp::AddClients(batch)) if setup.next().is_none() => batch,
            _ => panic!("the generator seeds with exactly one AddClients batch"),
        };
        let stride = (seeding.len() / PROBE_IDS).max(1);
        let probe: Vec<ClientId> = (0..seeding.len().min(PROBE_IDS))
            .map(|i| ClientId((i * stride) as u64))
            .collect();
        let steps = trace
            .steps
            .into_iter()
            .map(|step| {
                let mut writes = Vec::new();
                let mut reads = Vec::new();
                for op in step.ops {
                    match op {
                        TraceOp::AddClients(batch) => {
                            writes.push(Write::Command(WriteKind::Add, Command::AddClients(batch)))
                        }
                        TraceOp::RemoveClients(ids) => writes.push(Write::Command(
                            WriteKind::Remove,
                            Command::RemoveClients(ids),
                        )),
                        TraceOp::UpdateAvailability(patterns) => writes.push(palette(&patterns)),
                        TraceOp::UpdateBudgetFactor(factor) => writes.push(Write::Budget(factor)),
                        TraceOp::GetPrices(ids) => reads.push(Command::GetPrices(ids)),
                        TraceOp::Snapshot => reads.push(Command::Snapshot),
                    }
                }
                Step { writes, reads }
            })
            .collect();
        let mut stream = Stream {
            seeding,
            probe,
            steps,
            base_budget,
            fingerprint: trace.fingerprint,
        };
        let probe_bytes: Vec<u8> = stream
            .probe
            .iter()
            .flat_map(|id| id.0.to_le_bytes())
            .collect();
        stream.extend_fingerprint(&probe_bytes);
        stream
    }

    /// Fold `bytes`, an encoding of inputs the benchmark adds to the
    /// generated trace, into [`Stream::fingerprint`] with the generator's
    /// FNV-1a.
    pub fn extend_fingerprint(&mut self, bytes: &[u8]) {
        let mut preimage = self.fingerprint.to_le_bytes().to_vec();
        preimage.extend_from_slice(bytes);
        self.fingerprint = fnv1a(&preimage);
    }

    /// Number of whole segments.
    pub fn segments(&self) -> usize {
        self.steps.len() / SEGMENT_STEPS
    }

    /// The steps of segment `k`.
    pub fn segment(&self, k: usize) -> &[Step] {
        &self.steps[k * SEGMENT_STEPS..(k + 1) * SEGMENT_STEPS]
    }
}

fn palette(patterns: &[AvailabilityPattern]) -> Write {
    let mut palette: Vec<AvailabilityPattern> = Vec::new();
    let codes = patterns
        .iter()
        .map(|pattern| {
            let code = palette
                .iter()
                .position(|p| p == pattern)
                .unwrap_or_else(|| {
                    palette.push(*pattern);
                    palette.len() - 1
                });
            u8::try_from(code).expect("at most 256 distinct patterns per update")
        })
        .collect();
    Write::Availability { palette, codes }
}
