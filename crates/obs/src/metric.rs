//! The closed set of metrics the workspace records.
//!
//! Metrics are a compile-time enum rather than runtime-registered strings:
//! every instrument site names a [`Metric`] variant, the [`Registry`]
//! (see [`crate::registry`]) stores one slot per variant indexed by the
//! discriminant, and recording is a single atomic op with no hashing or
//! locking on the hot path.
//!
//! # Naming scheme
//!
//! Exposition names follow `fedfl_<subsystem>_<metric>`:
//!
//! * subsystems are `solver` (fedfl-core Stage-I solves), `service`
//!   (fedfl-service store/reprice), `net` (fedfl-net TCP front-end) and
//!   `workload` (harness-side latency);
//! * monotone counters end in `_total`;
//! * duration histograms end in `_ns` and record nanoseconds.

/// What kind of instrument a [`Metric`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Instantaneous `u64` level (set/add/sub).
    Gauge,
    /// log2 sub-bucketed value distribution (see [`crate::histogram`]).
    Histogram,
}

macro_rules! metrics {
    ($( $variant:ident => ($kind:ident, $name:literal, $help:literal), )*) => {
        /// One named instrument; the closed workspace metric set.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(
                #[doc = $help]
                $variant,
            )*
        }

        impl Metric {
            /// Every metric, in slot order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant,)*];

            /// The instrument kind.
            #[must_use]
            pub fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$variant => MetricKind::$kind,)*
                }
            }

            /// The exposition name (`fedfl_<subsystem>_<metric>`).
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)*
                }
            }

            /// One-line description, used for `# HELP` exposition lines.
            #[must_use]
            pub fn help(self) -> &'static str {
                match self {
                    $(Metric::$variant => $help,)*
                }
            }
        }
    };
}

metrics! {
    // -- solver (fedfl-core Stage-I KKT solves) --------------------------
    SolverSolves => (Counter, "fedfl_solver_solves_total",
        "Stage-I KKT solves completed (any mode)."),
    SolverExactSolves => (Counter, "fedfl_solver_exact_solves_total",
        "Solves answered by the exact bisection path."),
    SolverFastSolves => (Counter, "fedfl_solver_fast_solves_total",
        "Solves answered by the certified threshold-index fast path."),
    SolverFallbackSolves => (Counter, "fedfl_solver_fallback_solves_total",
        "Fast-path attempts that failed certification and fell back to exact."),
    SolverProbeEvaluations => (Counter, "fedfl_solver_probe_evaluations_total",
        "Per-client spend evaluations across all lambda probes."),
    SolverBisectIterations => (Counter, "fedfl_solver_bisect_iterations_total",
        "Lambda bisection iterations across all solves."),
    SolverCertBand0Hits => (Counter, "fedfl_solver_cert_band0_hits_total",
        "Fast-path certifications that passed at the tightest band (1e-9)."),
    SolverCertBand1Hits => (Counter, "fedfl_solver_cert_band1_hits_total",
        "Fast-path certifications that passed at the middle band (1e-7)."),
    SolverCertBand2Hits => (Counter, "fedfl_solver_cert_band2_hits_total",
        "Fast-path certifications that passed at the widest band (1e-5)."),
    SolverCertFailures => (Counter, "fedfl_solver_cert_failures_total",
        "Fast-path candidates rejected by every certification band."),
    SolverResidualRejects => (Counter, "fedfl_solver_residual_rejects_total",
        "Fast-path candidates rejected by the sampled residual gate."),
    SolverIndexBuildNs => (Histogram, "fedfl_solver_index_build_ns",
        "Wall time of threshold-index builds, nanoseconds."),
    SolverIndexSegmentsRebuilt => (Counter, "fedfl_solver_index_segments_rebuilt_total",
        "Threshold-index segments re-sorted because their rows churned (cold builds count every segment)."),
    SolverIndexSegmentsRepaired => (Counter, "fedfl_solver_index_segments_repaired_total",
        "Clean threshold-index segments re-sorted because scale drift reordered their thresholds."),
    SolverIndexSegmentsReused => (Counter, "fedfl_solver_index_segments_reused_total",
        "Threshold-index segments reused verbatim by incremental patches."),
    SolverIndexPatchNs => (Histogram, "fedfl_solver_index_patch_ns",
        "Wall time of incremental threshold-index patches, nanoseconds."),
    SolverSolveNs => (Histogram, "fedfl_solver_solve_ns",
        "Wall time of Stage-I solves, nanoseconds."),

    // -- service (fedfl-service store + reprice) -------------------------
    ServiceCommands => (Counter, "fedfl_service_commands_total",
        "Commands executed by the pricing service (excluding wire-level Metrics scrapes)."),
    ServiceCommandErrors => (Counter, "fedfl_service_command_errors_total",
        "Commands that returned a service error."),
    ServiceReprices => (Counter, "fedfl_service_reprices_total",
        "Successful reprice operations."),
    ServiceWarmSolves => (Counter, "fedfl_service_warm_solves_total",
        "Reprices that started the solver from a warm lambda hint."),
    ServiceColdSolves => (Counter, "fedfl_service_cold_solves_total",
        "Reprices that started the solver cold (no usable hint)."),
    ServiceDirtyShards => (Counter, "fedfl_service_dirty_shards_total",
        "Shards found dirty and reassembled across all reprices."),
    ServiceDirtySegments => (Counter, "fedfl_service_dirty_segments_total",
        "Threshold-index segments flagged dirty across fast-path reprices (cold builds count every segment)."),
    ServiceRebuiltColumns => (Counter, "fedfl_service_rebuilt_columns_total",
        "Per-client solver columns rebuilt across all reprices."),
    ServiceIndexReuses => (Counter, "fedfl_service_index_reuses_total",
        "Fast-path reprices that reused the cached threshold index."),
    ServiceIndexRebuilds => (Counter, "fedfl_service_index_rebuilds_total",
        "Fast-path reprices that had to rebuild the threshold index from scratch."),
    ServiceIndexPatches => (Counter, "fedfl_service_index_patches_total",
        "Fast-path reprices that incrementally patched the cached threshold index."),
    ServiceRepriceNs => (Histogram, "fedfl_service_reprice_ns",
        "Wall time of reprice operations, nanoseconds."),
    ServiceClients => (Gauge, "fedfl_service_clients",
        "Clients currently registered in the store."),
    ServiceExcludedClients => (Gauge, "fedfl_service_excluded_clients",
        "Registered clients excluded from the last solve (infeasible params)."),

    // -- net (fedfl-net TCP front-end) -----------------------------------
    NetConnectionsOpened => (Counter, "fedfl_net_connections_opened_total",
        "TCP connections accepted."),
    NetConnectionsClosed => (Counter, "fedfl_net_connections_closed_total",
        "TCP connections closed."),
    NetAcceptErrors => (Counter, "fedfl_net_accept_errors_total",
        "Failed accepts (e.g. descriptor exhaustion), each followed by a short back-off."),
    NetActiveConnections => (Gauge, "fedfl_net_active_connections",
        "TCP connections currently open."),
    NetFramesRead => (Counter, "fedfl_net_frames_read_total",
        "Request frames read off the wire."),
    NetFramesDecoded => (Counter, "fedfl_net_frames_decoded_total",
        "Request frames that decoded into a valid command."),
    NetErrorFrames => (Counter, "fedfl_net_error_frames_total",
        "Error replies sent (decode failures, oversized frames, service errors)."),
    NetRepliesSent => (Counter, "fedfl_net_replies_sent_total",
        "Reply frames written to the wire."),
    NetBytesRead => (Counter, "fedfl_net_bytes_read_total",
        "Bytes read off the wire, including length prefixes."),
    NetBytesWritten => (Counter, "fedfl_net_bytes_written_total",
        "Bytes written to the wire, including length prefixes."),
    NetMetricsScrapes => (Counter, "fedfl_net_metrics_scrapes_total",
        "Metrics commands served."),
    NetRequestNs => (Histogram, "fedfl_net_request_ns",
        "Wall time from decoded command to computed reply, nanoseconds."),

    // -- workload (harness-side latency) ---------------------------------
    WorkloadCommands => (Counter, "fedfl_workload_commands_total",
        "Trace commands driven through the harness."),
    WorkloadVerifiedSteps => (Counter, "fedfl_workload_verified_steps_total",
        "Replay steps verified against a freshly solved equilibrium."),
    WorkloadResolveSteadyNs => (Histogram, "fedfl_workload_resolve_steady_ns",
        "Re-solve latency during steady phases, nanoseconds."),
    WorkloadResolveFlashNs => (Histogram, "fedfl_workload_resolve_flash_ns",
        "Re-solve latency during flash-crowd phases, nanoseconds."),
    WorkloadReadSteadyNs => (Histogram, "fedfl_workload_read_steady_ns",
        "Read (price-quote batch) latency during steady phases, nanoseconds."),
    WorkloadReadFlashNs => (Histogram, "fedfl_workload_read_flash_ns",
        "Read (price-quote batch) latency during flash-crowd phases, nanoseconds."),
    WorkloadSnapshotNs => (Histogram, "fedfl_workload_snapshot_ns",
        "Full-snapshot read latency (reads that absorbed no re-solve), nanoseconds."),
}

impl Metric {
    /// Slot index of this metric inside a [`crate::registry::Registry`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The certification-band hit counter for `CERT_BANDS[band]`.
    ///
    /// Bands beyond the known three map to the widest band's counter so
    /// the solver never has to bounds-check before recording.
    #[must_use]
    pub fn cert_band_hit(band: usize) -> Metric {
        match band {
            0 => Metric::SolverCertBand0Hits,
            1 => Metric::SolverCertBand1Hits,
            _ => Metric::SolverCertBand2Hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (position, metric) in Metric::ALL.iter().enumerate() {
            assert_eq!(metric.index(), position);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        for metric in Metric::ALL {
            let name = metric.name();
            assert!(name.starts_with("fedfl_"), "{name}: missing fedfl_ prefix");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{name}: invalid exposition name"
            );
            match metric.kind() {
                MetricKind::Counter => {
                    assert!(name.ends_with("_total"), "{name}: counter without _total")
                }
                MetricKind::Histogram => {
                    assert!(name.ends_with("_ns"), "{name}: histogram without _ns")
                }
                MetricKind::Gauge => {}
            }
            assert!(!metric.help().is_empty());
        }
    }
}
