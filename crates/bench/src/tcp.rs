//! Loopback-TCP workload driver: the `--transport tcp` path of the
//! `workload` binary.
//!
//! Boots a [`fedfl_net`] server around the same deployment the in-process
//! replay would own, then drives the identical command stream through a
//! blocking [`PricingClient`]. The replay harness classifies reads and
//! predicts re-solves from its own client-side mirror, so the outcome —
//! price bits, `price_checksum`, warm/cold solve counts — must be
//! bit-identical to `fedfl_workload::replay`; only latencies (now
//! carrying two loopback hops) may differ.

use fedfl_net::{serve, PricingClient, ServerOptions, WireRecorder};
use fedfl_obs::Registry;
use fedfl_service::{Command, PricingService, RepriceReport, Response};
use fedfl_workload::{
    replay_config, replay_with, CommandDriver, ReplayOutcome, Trace, WorkloadError, WorkloadSpec,
};
use std::net::TcpListener;
use std::sync::Arc;

/// A [`CommandDriver`] that sends every command through a TCP connection.
pub struct TcpDriver {
    client: PricingClient,
}

impl TcpDriver {
    /// Wrap an established connection.
    pub fn new(client: PricingClient) -> Self {
        Self { client }
    }
}

impl CommandDriver for TcpDriver {
    fn execute(&mut self, command: Command) -> Result<Response, WorkloadError> {
        self.client
            .call(&command)
            .map_err(|e| WorkloadError::Transport {
                detail: e.to_string(),
            })
    }

    fn observed_dirty(&self) -> Option<bool> {
        // The staleness flag lives on the server; the replay's own
        // client-side prediction is the only classification available.
        None
    }

    fn solve_report(&mut self) -> Result<Option<RepriceReport>, WorkloadError> {
        // An untimed Snapshot: the read that triggered this call already
        // forced the server's re-solve, so this is a pure lookup of the
        // published (certified) equilibrium and its report.
        match self.execute(Command::Snapshot)? {
            Response::Snapshot(snapshot) => Ok(Some(snapshot.report)),
            other => Err(WorkloadError::Transport {
                detail: format!("snapshot request answered with {other:?}"),
            }),
        }
    }
}

/// Replay `trace` through a freshly booted loopback server, returning the
/// same [`ReplayOutcome`] shape as the in-process harness. With
/// `record_wire`, every (command, reply) exchange is appended to a JSONL
/// wire trace at that path.
///
/// The server and the replay loop record into one fresh registry (the
/// loopback server shares the process), and the run ends with one
/// `Metrics` command over the connection: the outcome's metrics are that
/// wire scrape, so every run also exercises the exposition path end to
/// end.
///
/// # Errors
///
/// Returns [`WorkloadError::Transport`] for server-boot, connection,
/// frame or scrape failures, and whatever the replay harness reports
/// otherwise.
pub fn replay_over_tcp(
    spec: &WorkloadSpec,
    trace: &Trace,
    record_wire: Option<&str>,
) -> Result<ReplayOutcome, WorkloadError> {
    let transport = |detail: String| WorkloadError::Transport { detail };
    let config = replay_config(spec, trace)?;
    let registry = Arc::new(Registry::new());
    let service = PricingService::with_recorder(config, Arc::clone(&registry))?;
    let recorder = match record_wire {
        Some(path) => Some(
            WireRecorder::to_file(path)
                .map_err(|e| transport(format!("cannot open wire trace {path}: {e}")))?,
        ),
        None => None,
    };
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| transport(format!("cannot bind loopback listener: {e}")))?;
    let mut handle = serve(service, listener, ServerOptions::default(), recorder)
        .map_err(|e| transport(format!("cannot start server: {e}")))?;
    let client = PricingClient::connect(handle.addr())
        .map_err(|e| transport(format!("cannot connect to {}: {e}", handle.addr())))?;
    let mut driver = TcpDriver::new(client);
    let outcome = replay_with(spec, trace, &mut driver, &registry).and_then(|mut outcome| {
        outcome.metrics = driver
            .client
            .metrics()
            .map_err(|e| transport(format!("metrics scrape failed after replay: {e}")))?
            .snapshot;
        Ok(outcome)
    });
    handle.shutdown();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedfl_workload::{generate, replay};

    fn tiny_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::reference_10k();
        spec.clients = 48;
        spec.steps = 8;
        spec.arrivals_per_step = 6;
        spec.departures_per_step = 4;
        spec.surge_every = 3;
        spec.surge_size = 10;
        spec.surge_hold = 1;
        spec.reads_per_step = 2;
        spec.read_batch = 5;
        spec.snapshot_every = 3;
        spec.verify_every = 2;
        spec.min_population = 10;
        spec.shards = 4;
        spec.threads = 1;
        spec
    }

    #[test]
    fn tcp_replay_is_bit_identical_to_in_process() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("trace");
        let wire = replay_over_tcp(&spec, &trace, None).expect("tcp replay");
        let local = replay(&spec, &trace).expect("in-process replay");
        assert_eq!(wire.price_checksum, local.price_checksum);
        assert_eq!(wire.final_clients, local.final_clients);
        assert_eq!(wire.base_budget.to_bits(), local.base_budget.to_bits());
        assert_eq!(wire.verified_steps, local.verified_steps);
        // Same solve classification: every re-solve fires at the same
        // point with the same warmth and iteration count.
        assert_eq!(wire.solves.len(), local.solves.len());
        for (w, l) in wire.solves.iter().zip(&local.solves) {
            assert_eq!(w.warm, l.warm);
            assert_eq!(w.iterations, l.iterations);
            assert_eq!(w.clients, l.clients);
        }
        let reads = |outcome: &ReplayOutcome| {
            [
                "fedfl_workload_read_steady_ns",
                "fedfl_workload_read_flash_ns",
                "fedfl_workload_snapshot_ns",
            ]
            .map(|name| outcome.metrics.histogram(name).map_or(0, |h| h.count))
        };
        assert_eq!(reads(&wire), reads(&local));
    }

    #[test]
    fn tcp_replay_scrapes_a_report_covering_the_whole_stack() {
        let spec = tiny_spec();
        let trace = generate(&spec).expect("trace");
        let wire = replay_over_tcp(&spec, &trace, None).expect("tcp replay");
        let snap = &wire.metrics;
        // The outcome's metrics are the one wire scrape that ends the run.
        assert_eq!(snap.counter("fedfl_net_metrics_scrapes_total"), Some(1));
        // One shared registry: the scrape sees the solver, service, net
        // and workload layers of the same run.
        assert_eq!(
            snap.counter("fedfl_solver_solves_total"),
            Some(wire.solves.len() as u64)
        );
        assert_eq!(
            snap.counter("fedfl_service_reprices_total"),
            Some(wire.solves.len() as u64)
        );
        assert!(snap.counter("fedfl_net_frames_decoded_total").unwrap() > 0);
        assert_eq!(snap.counter("fedfl_net_error_frames_total"), Some(0));
        assert!(snap.counter("fedfl_workload_commands_total").unwrap() > 0);
        assert_eq!(
            snap.counter("fedfl_workload_verified_steps_total"),
            Some(wire.verified_steps as u64)
        );
    }

    #[test]
    fn tcp_replay_wire_trace_replays_bit_for_bit() {
        let dir = std::env::temp_dir().join("fedfl-tcp-trace-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        for fast_path in [false, true] {
            let mut spec = tiny_spec();
            spec.fast_path = fast_path;
            let trace = generate(&spec).expect("trace");
            let path = dir.join(format!("wire-{fast_path}.jsonl"));
            let path_str = path.to_str().expect("utf-8 temp path");
            replay_over_tcp(&spec, &trace, Some(path_str)).expect("tcp replay");
            let text = std::fs::read_to_string(&path).expect("trace written");
            let records = fedfl_net::load_records(&text).expect("trace parses");
            assert!(!records.is_empty());
            let config = replay_config(&spec, &trace).expect("config");
            let verified =
                fedfl_net::verify_records(config, &records).expect("replays bit-for-bit");
            assert_eq!(verified, records.len());
            std::fs::remove_file(&path).ok();
        }
    }
}
