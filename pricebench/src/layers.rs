//! The traced run's per-layer attribution.
//!
//! Every timed call is bracketed by two reads of the registry the
//! program already records into (solver, service and net spans and
//! counters); the deltas are charged to that call. The spans inside a
//! reprice are not split further here: `floor` is what the reprice span
//! leaves after the solve and index spans.

use crate::measure::{Call, Observer};
use crate::stream::WriteKind;
use fedfl_obs::{Metric, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry readings the attribution needs.
#[derive(Debug, Clone, Copy, Default)]
struct Reading {
    reprice_ns: u64,
    solve_ns: u64,
    index_build_ns: u64,
    index_patch_ns: u64,
    request_ns: u64,
    reprices: u64,
    warm: u64,
    dirty_shards: u64,
    rebuilt_columns: u64,
    probe_evaluations: u64,
    bisect_iterations: u64,
    index_reuses: u64,
    index_patches: u64,
    segments_rebuilt: u64,
    segments_repaired: u64,
    segments_reused: u64,
    fallbacks: u64,
    bytes: u64,
    frames: u64,
    replies: u64,
    clients: u64,
}

impl Reading {
    fn take(registry: &Registry) -> Reading {
        let sum = |metric| registry.histogram(metric).sum;
        let count = |metric| registry.counter(metric);
        Reading {
            reprice_ns: sum(Metric::ServiceRepriceNs),
            solve_ns: sum(Metric::SolverSolveNs),
            index_build_ns: sum(Metric::SolverIndexBuildNs),
            index_patch_ns: sum(Metric::SolverIndexPatchNs),
            request_ns: sum(Metric::NetRequestNs),
            reprices: count(Metric::ServiceReprices),
            warm: count(Metric::ServiceWarmSolves),
            dirty_shards: count(Metric::ServiceDirtyShards),
            rebuilt_columns: count(Metric::ServiceRebuiltColumns),
            probe_evaluations: count(Metric::SolverProbeEvaluations),
            bisect_iterations: count(Metric::SolverBisectIterations),
            index_reuses: count(Metric::ServiceIndexReuses),
            index_patches: count(Metric::ServiceIndexPatches),
            segments_rebuilt: count(Metric::SolverIndexSegmentsRebuilt),
            segments_repaired: count(Metric::SolverIndexSegmentsRepaired),
            segments_reused: count(Metric::SolverIndexSegmentsReused),
            fallbacks: count(Metric::SolverFallbackSolves),
            bytes: count(Metric::NetBytesRead) + count(Metric::NetBytesWritten),
            frames: count(Metric::NetFramesRead),
            replies: count(Metric::NetRepliesSent),
            clients: registry.gauge(Metric::ServiceClients),
        }
    }
}

/// Per-call layer samples of one traced phase (times in ms).
#[derive(Debug, Clone, Default)]
pub struct LayerSamples {
    /// Whole reprice span per re-solve.
    pub reprice: Vec<f64>,
    /// Solve span per re-solve.
    pub solve: Vec<f64>,
    /// Reprice minus solve minus index work.
    pub floor: Vec<f64>,
    /// Index patch span, on patching re-solves.
    pub index_patch: Vec<f64>,
    /// Dirty shards / shard count per re-solve.
    pub dirty_frac: Vec<f64>,
    /// Rebuilt columns per re-solve.
    pub rebuilt_columns: Vec<f64>,
    /// Per-client probe evaluations per re-solve.
    pub probe_evals_per_client: Vec<f64>,
    /// Bisection iterations per re-solve.
    pub iterations: Vec<f64>,
    /// Re-solves that started warm.
    pub warm: u64,
    /// Re-solves that reused the index untouched.
    pub index_reuses: u64,
    /// Fast attempts that failed certification.
    pub fallbacks: u64,
    /// Segment counts over all patches: rebuilt, repaired, reused.
    pub segments: [u64; 3],
    /// Service-side time per write kind: add, remove, availability,
    /// budget.
    pub writes: [Vec<f64>; 4],
    /// Service-side time of clean reads.
    pub read_service: Vec<f64>,
    /// Wire: client round trip minus server time, clean reads.
    pub read_transport: Vec<f64>,
    /// Wire: server time of a resolving read minus its reprice.
    pub publish: Vec<f64>,
    /// Wire: snapshot round trip minus server time.
    pub snapshot_transport: Vec<f64>,
    /// Wire: bytes both ways per clean read.
    pub read_bytes: Vec<f64>,
    /// Wire: bytes both ways per snapshot.
    pub snapshot_bytes: Vec<f64>,
    /// Cold index build of the set-up read, ms (0 on the exact path).
    pub index_build_ms: f64,
}

/// Reads the registry around every call of the traced phase.
pub struct Traced {
    registry: Arc<Registry>,
    over_wire: bool,
    shards: f64,
    before: Reading,
    /// Samples so far.
    pub samples: LayerSamples,
}

impl Traced {
    /// Observe calls against a service recording into `registry`.
    pub fn new(registry: Arc<Registry>, over_wire: bool, shards: usize) -> Traced {
        Traced {
            registry,
            over_wire,
            shards: shards as f64,
            before: Reading::default(),
            samples: LayerSamples::default(),
        }
    }

    /// The server counts a reply's bytes just after writing it, so the
    /// client can hold the reply a moment before the count lands; wait
    /// until every request read has its reply counted, so bytes are
    /// charged to the right call.
    fn settle(&self) -> Reading {
        let deadline = Instant::now() + Duration::from_millis(100);
        loop {
            let now = Reading::take(&self.registry);
            // A reply that failed to write is never counted; do not wait
            // for it past the deadline.
            if !self.over_wire || now.replies >= now.frames || Instant::now() > deadline {
                return now;
            }
            std::thread::yield_now();
        }
    }
}

const NS_PER_MS: f64 = 1e6;

impl Observer for Traced {
    fn before(&mut self) {
        self.before = self.settle();
    }

    fn after(&mut self, call: Call, ms: f64) {
        let b = self.before;
        let a = self.settle();
        let d = |f: fn(&Reading) -> u64| (f(&a) - f(&b)) as f64;
        let s = &mut self.samples;
        let server_ms = if self.over_wire {
            d(|r| r.request_ns) / NS_PER_MS
        } else {
            ms
        };
        if call == Call::Setup {
            s.index_build_ms += d(|r| r.index_build_ns) / NS_PER_MS;
            return;
        }
        if d(|r| r.reprices) > 0.0 {
            let reprice = d(|r| r.reprice_ns) / NS_PER_MS;
            let solve = d(|r| r.solve_ns) / NS_PER_MS;
            let patch = d(|r| r.index_patch_ns) / NS_PER_MS;
            let index = patch + d(|r| r.index_build_ns) / NS_PER_MS;
            s.reprice.push(reprice);
            s.solve.push(solve);
            s.floor.push(reprice - solve - index);
            if d(|r| r.index_patches) > 0.0 {
                s.index_patch.push(patch);
            }
            s.dirty_frac.push(d(|r| r.dirty_shards) / self.shards);
            s.rebuilt_columns.push(d(|r| r.rebuilt_columns));
            s.probe_evals_per_client
                .push(d(|r| r.probe_evaluations) / a.clients.max(1) as f64);
            s.iterations.push(d(|r| r.bisect_iterations));
            s.warm += a.warm - b.warm;
            s.index_reuses += a.index_reuses - b.index_reuses;
            s.fallbacks += a.fallbacks - b.fallbacks;
            s.segments[0] += a.segments_rebuilt - b.segments_rebuilt;
            s.segments[1] += a.segments_repaired - b.segments_repaired;
            s.segments[2] += a.segments_reused - b.segments_reused;
            if self.over_wire {
                s.publish.push(server_ms - reprice);
            }
        }
        match call {
            Call::Write(kind) => {
                let slot = match kind {
                    WriteKind::Add => 0,
                    WriteKind::Remove => 1,
                    WriteKind::Availability => 2,
                    WriteKind::Budget => 3,
                };
                s.writes[slot].push(server_ms);
            }
            Call::Read => {
                s.read_service.push(server_ms);
                if self.over_wire {
                    s.read_transport.push(ms - server_ms);
                    s.read_bytes.push(d(|r| r.bytes));
                }
            }
            Call::Snapshot if self.over_wire => {
                s.snapshot_transport.push(ms - server_ms);
                s.snapshot_bytes.push(d(|r| r.bytes));
            }
            _ => {}
        }
    }
}
