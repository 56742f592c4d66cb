//! The summary of a finished replay, read from the run's obs
//! [`MetricsSnapshot`] and its per-solve samples: per-phase latency
//! quantiles, warm/cold iteration means, dirty-shard fractions, the
//! solver mode and the threshold-index work.

use crate::generator::{Phase, Trace};
use crate::replay::{latency_metric, ReplayOutcome};
use crate::spec::WorkloadSpec;
use fedfl_core::server::SolverMode;
use fedfl_obs::{HistogramSnapshot, Metric, MetricsSnapshot};

/// Latency stats for one traffic phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase name (`steady` or `flash`).
    pub phase: String,
    /// Re-solves triggered in this phase.
    pub resolves: usize,
    /// Median re-solve latency, ms.
    pub resolve_p50_ms: f64,
    /// 99th-percentile re-solve latency, ms.
    pub resolve_p99_ms: f64,
    /// Clean reads in this phase.
    pub reads: usize,
    /// Median clean-read latency, ms.
    pub read_p50_ms: f64,
    /// 99th-percentile clean-read latency, ms.
    pub read_p99_ms: f64,
}

/// The summary of one workload run.
///
/// Latency fields are wall-clock and vary run to run; quantiles are the
/// upper bound of the obs histogram bucket holding the ranked sample, at
/// most 1/32 above it. [`WorkloadRecord::deterministic_key`] collects the
/// fields that must match across runs and across `--shards`/thread
/// settings.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    /// Initial population size.
    pub clients: usize,
    /// Clients registered at the end of the trace.
    pub final_clients: usize,
    /// Commands in the trace (setup + steps).
    pub commands: usize,
    /// Base budget the heavy-tail factors multiplied.
    pub base_budget: f64,
    /// FNV-1a fingerprint of the canonical trace encoding (hex).
    pub trace_fingerprint: String,
    /// FNV-1a checksum of the final `(id, price, q_eff)` bits (hex).
    pub price_checksum: String,
    /// Re-solves that started from a warm hint.
    pub warm_solves: usize,
    /// Re-solves that started cold.
    pub cold_solves: usize,
    /// Mean bisection iterations over warm solves.
    pub mean_warm_iterations: f64,
    /// Mean bisection iterations over cold solves.
    pub mean_cold_iterations: f64,
    /// Mean fraction of shards rebuilt per solve.
    pub mean_dirty_shard_fraction: f64,
    /// Worst-case fraction of shards rebuilt in one solve.
    pub max_dirty_shard_fraction: f64,
    /// Mean fraction of client columns recomputed per solve.
    pub mean_rebuilt_column_fraction: f64,
    /// Steps certified against a from-scratch solve (bit-identical under
    /// the exact solver, within the certification tolerance under the
    /// fast path).
    pub verified_steps: usize,
    /// The solver path that served the run: `"exact"` when every solve
    /// ran the exact solver, `"threshold_index"` when every fast solve
    /// certified, `"threshold_index_fallback"` if any fast solve was
    /// demoted to the exact path.
    pub solver_mode: String,
    /// Cold threshold-index builds (zero on exact runs). Excluded from
    /// [`WorkloadRecord::deterministic_key`] together with the other
    /// index fields — they legitimately depend on the shard layout.
    pub index_cold_builds: u64,
    /// Incremental threshold-index patches.
    pub index_patches: u64,
    /// Index segments re-sorted across all solves (cold builds count
    /// every segment).
    pub index_segments_rebuilt: u64,
    /// Clean segments re-sorted by patches because scale drift reordered
    /// their thresholds.
    pub index_segments_repaired: u64,
    /// Segments patches reused verbatim.
    pub index_segments_reused: u64,
    /// Mean wall-clock of cold index builds, ms (`0.0` when none ran).
    pub mean_index_build_ms: f64,
    /// Mean wall-clock of incremental index patches, ms (`0.0` when none
    /// ran).
    pub mean_index_patch_ms: f64,
    /// Mean re-solve latency across all phases, ms (the CI tripwire
    /// metric).
    pub mean_resolve_ms: f64,
    /// 99th-percentile clean-read latency across all phases, ms.
    pub read_p99_ms: f64,
    /// Total replay wall-clock, seconds.
    pub total_wall_seconds: f64,
    /// Per-phase latency buckets (`steady`, then `flash` when surges ran).
    pub phases: Vec<PhaseStats>,
}

impl WorkloadRecord {
    /// Summarise a finished replay.
    pub fn new(spec: &WorkloadSpec, trace: &Trace, outcome: &ReplayOutcome) -> Self {
        let warm: Vec<usize> = outcome
            .solves
            .iter()
            .filter(|s| s.warm)
            .map(|s| s.iterations)
            .collect();
        let cold: Vec<usize> = outcome
            .solves
            .iter()
            .filter(|s| !s.warm)
            .map(|s| s.iterations)
            .collect();
        let dirty_fractions: Vec<f64> = outcome
            .solves
            .iter()
            .map(|s| s.dirty_shards as f64 / s.shard_count.max(1) as f64)
            .collect();
        let rebuilt_fractions: Vec<f64> = outcome
            .solves
            .iter()
            .map(|s| s.rebuilt_columns as f64 / s.clients.max(1) as f64)
            .collect();

        let metrics = &outcome.metrics;
        let histogram = |metric: Metric| {
            metrics
                .histogram(metric.name())
                .cloned()
                .unwrap_or_default()
        };
        let count = |metric: Metric| metrics.counter(metric.name()).unwrap_or(0);
        let mut phases = Vec::new();
        let mut all_resolves = HistogramSnapshot::default();
        let mut all_reads = HistogramSnapshot::default();
        for phase in [Phase::Steady, Phase::Flash] {
            let resolves = histogram(latency_metric(phase, true));
            let reads = histogram(latency_metric(phase, false));
            all_resolves.merge(&resolves);
            all_reads.merge(&reads);
            if resolves.is_empty() && reads.is_empty() {
                continue;
            }
            phases.push(PhaseStats {
                phase: phase.name().to_string(),
                resolves: resolves.count as usize,
                resolve_p50_ms: quantile_ms(&resolves, 0.50),
                resolve_p99_ms: quantile_ms(&resolves, 0.99),
                reads: reads.count as usize,
                read_p50_ms: quantile_ms(&reads, 0.50),
                read_p99_ms: quantile_ms(&reads, 0.99),
            });
        }
        // Every solve adds one to exactly one of the three mode counters;
        // the run's mode is the worst any solve reported.
        let solver_mode = if count(Metric::SolverFallbackSolves) > 0 {
            SolverMode::ThresholdIndexFallback
        } else if count(Metric::SolverFastSolves) > 0 {
            SolverMode::ThresholdIndex
        } else {
            SolverMode::Exact
        };
        let builds = histogram(Metric::SolverIndexBuildNs);
        let patches = histogram(Metric::SolverIndexPatchNs);

        WorkloadRecord {
            clients: spec.clients,
            final_clients: outcome.final_clients,
            commands: trace.commands(),
            base_budget: outcome.base_budget,
            trace_fingerprint: format!("{:016x}", trace.fingerprint),
            price_checksum: format!("{:016x}", outcome.price_checksum),
            warm_solves: warm.len(),
            cold_solves: cold.len(),
            mean_warm_iterations: mean_usize(&warm),
            mean_cold_iterations: mean_usize(&cold),
            mean_dirty_shard_fraction: mean(&dirty_fractions),
            max_dirty_shard_fraction: dirty_fractions.iter().copied().fold(0.0, f64::max),
            mean_rebuilt_column_fraction: mean(&rebuilt_fractions),
            verified_steps: outcome.verified_steps,
            solver_mode: solver_mode.as_str().to_string(),
            index_cold_builds: builds.count,
            index_patches: patches.count,
            index_segments_rebuilt: count(Metric::SolverIndexSegmentsRebuilt),
            index_segments_repaired: count(Metric::SolverIndexSegmentsRepaired),
            index_segments_reused: count(Metric::SolverIndexSegmentsReused),
            mean_index_build_ms: mean_ms(&builds),
            mean_index_patch_ms: mean_ms(&patches),
            mean_resolve_ms: mean_ms(&all_resolves),
            read_p99_ms: quantile_ms(&all_reads, 0.99),
            total_wall_seconds: outcome.total_wall_seconds,
            phases,
        }
    }

    /// The fields that must be identical across runs of the same spec and
    /// across `--shards`/thread settings: the trace identity, the served
    /// equilibrium bits, and the solver's iteration trajectory. Latency
    /// and shard-layout fields (dirty fractions) are excluded — the
    /// former are wall-clock, the latter legitimately depend on `shards`.
    pub fn deterministic_key(&self) -> String {
        format!(
            "trace={} prices={} clients={} final={} commands={} budget={:016x} \
             warm={} cold={} warm_iters={:016x} cold_iters={:016x} verified={}",
            self.trace_fingerprint,
            self.price_checksum,
            self.clients,
            self.final_clients,
            self.commands,
            self.base_budget.to_bits(),
            self.warm_solves,
            self.cold_solves,
            self.mean_warm_iterations.to_bits(),
            self.mean_cold_iterations.to_bits(),
            self.verified_steps,
        )
    }
}

/// The value of counter `name` in `metrics`. `name` may drop the
/// `fedfl_` prefix and/or the `_total` suffix, so a gate can say
/// `net_error_frames=0`.
pub fn counter(metrics: &MetricsSnapshot, name: &str) -> Option<u64> {
    metrics
        .counters
        .iter()
        .find(|entry| {
            let full = entry.name.as_str();
            let stripped = full.strip_prefix("fedfl_").unwrap_or(full);
            let bare = stripped.strip_suffix("_total").unwrap_or(stripped);
            full == name || stripped == name || bare == name
        })
        .map(|entry| entry.value)
}

/// A nanosecond histogram's nearest-rank quantile in milliseconds (`0.0`
/// when empty).
fn quantile_ms(hist: &HistogramSnapshot, p: f64) -> f64 {
    hist.quantile(p) as f64 / 1e6
}

/// A nanosecond histogram's exact mean in milliseconds (`0.0` when
/// empty).
fn mean_ms(hist: &HistogramSnapshot) -> f64 {
    if hist.is_empty() {
        0.0
    } else {
        hist.sum as f64 / hist.count as f64 / 1e6
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn mean_usize(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<usize>() as f64 / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::replay::replay;
    use crate::replay::tests::tiny_spec;
    use fedfl_obs::{Recorder, Registry};

    #[test]
    fn counter_lookup_resolves_prefix_and_suffix_aliases() {
        let registry = Registry::new();
        registry.add(Metric::NetFramesDecoded, 7);
        let snapshot = registry.snapshot();
        assert_eq!(
            counter(&snapshot, "fedfl_net_frames_decoded_total"),
            Some(7)
        );
        assert_eq!(counter(&snapshot, "net_frames_decoded_total"), Some(7));
        assert_eq!(counter(&snapshot, "net_frames_decoded"), Some(7));
        assert_eq!(counter(&snapshot, "fedfl_net_error_frames_total"), Some(0));
        assert_eq!(counter(&snapshot, "no_such_counter"), None);
    }

    #[test]
    fn summary_reads_counts_mode_and_index_work_from_the_snapshot() {
        let mut spec = tiny_spec();
        for fast_path in [false, true] {
            spec.fast_path = fast_path;
            let trace = generate(&spec).expect("generate");
            let outcome = replay(&spec, &trace).expect("replay");
            let record = WorkloadRecord::new(&spec, &trace, &outcome);

            // The loop's latency histograms and the service's reports are
            // two sources: every absorbed re-solve appears in both.
            let resolves: usize = record.phases.iter().map(|p| p.resolves).sum();
            assert_eq!(resolves, outcome.solves.len());
            assert!(record.phases.iter().map(|p| p.reads).sum::<usize>() > 0);
            assert!(record.mean_resolve_ms > 0.0 && record.read_p99_ms > 0.0);
            for stats in &record.phases {
                assert!(stats.resolve_p50_ms <= stats.resolve_p99_ms);
                assert!(stats.read_p50_ms <= stats.read_p99_ms);
            }
            if fast_path {
                // Every step churns availability: one cold build, then a
                // patch per solve, each covering every segment.
                assert_ne!(record.solver_mode, "exact");
                assert_eq!(record.index_cold_builds, 1);
                assert_eq!(record.index_patches, outcome.solves.len() as u64 - 1);
                assert!(record.mean_index_build_ms > 0.0 && record.mean_index_patch_ms > 0.0);
                let segments = record.index_segments_rebuilt
                    + record.index_segments_repaired
                    + record.index_segments_reused;
                assert!(segments > 0);
                assert_eq!(segments % outcome.solves.len() as u64, 0);
            } else {
                assert_eq!(record.solver_mode, "exact");
                assert_eq!((record.index_cold_builds, record.index_patches), (0, 0));
                assert_eq!(record.mean_index_build_ms, 0.0);
            }
        }
    }
}
