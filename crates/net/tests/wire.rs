//! End-to-end wire tests: error-frame round-trips for every service
//! error, malformed-input handling, connection lifecycle, concurrent
//! reads against the single writer, and the bit-identity smoke check.

use fedfl_core::bound::BoundParams;
use fedfl_core::GameError;
use fedfl_net::{
    load_records, serve, verify_records, ClientError, CodecViolation, PricingClient, ServerHandle,
    ServerOptions, WireError, WireRecorder, WireReply,
};
use fedfl_service::{
    ClientId, ClientParams, Command, PricingService, Response, ServiceConfig, ServiceError,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).unwrap()
}

fn client(k: usize) -> ClientParams {
    ClientParams::always_on(
        1.0 + k as f64,
        4.0 + k as f64,
        30.0 + 10.0 * k as f64,
        2.0 * k as f64,
        1.0,
    )
}

fn config() -> ServiceConfig {
    ServiceConfig::new(bound(), 10.0)
}

fn seeded_service(n: usize) -> (PricingService, Vec<ClientId>) {
    PricingService::with_clients(config(), (0..n).map(client).collect()).unwrap()
}

fn start_server(
    service: PricingService,
    options: ServerOptions,
    recorder: Option<WireRecorder>,
) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    serve(service, listener, options, recorder).unwrap()
}

#[test]
fn live_server_answers_metrics_covering_every_subsystem() {
    let (service, ids) = seeded_service(4);
    let mut handle = start_server(service, ServerOptions::default(), None);
    let mut conn = PricingClient::connect(handle.addr()).unwrap();

    conn.call(&Command::Reprice).unwrap();
    conn.call(&Command::GetPrices(ids.clone())).unwrap();
    // A known service error: must count as an error frame, not kill the
    // connection.
    assert!(conn.call(&Command::GetPrices(vec![ClientId(999)])).is_err());

    let report = conn.metrics().unwrap();
    let snap = &report.snapshot;
    // Solver, service and net subsystems are all covered by one scrape.
    assert_eq!(snap.counter("fedfl_solver_solves_total"), Some(1));
    assert_eq!(snap.counter("fedfl_service_reprices_total"), Some(1));
    assert_eq!(snap.gauge("fedfl_service_clients"), Some(4));
    // 3 commands before the scrape, plus the scrape's own frame.
    assert_eq!(snap.counter("fedfl_net_frames_read_total"), Some(4));
    assert_eq!(snap.counter("fedfl_net_frames_decoded_total"), Some(4));
    assert_eq!(snap.counter("fedfl_net_error_frames_total"), Some(1));
    assert_eq!(snap.counter("fedfl_net_metrics_scrapes_total"), Some(1));
    assert_eq!(snap.gauge("fedfl_net_active_connections"), Some(1));
    assert!(snap.counter("fedfl_net_bytes_written_total").unwrap() > 0);
    // The scrape's own span closes after the snapshot, so only the three
    // prior requests have latency samples here.
    assert_eq!(snap.histogram("fedfl_net_request_ns").unwrap().count, 3);
    assert!(report
        .exposition
        .contains("# TYPE fedfl_net_request_ns summary"));
    // The server handle exposes the same registry.
    assert_eq!(
        handle
            .metrics()
            .snapshot()
            .counter("fedfl_net_metrics_scrapes_total"),
        Some(1)
    );
    // Scrapes are not service commands, and reads are served from the
    // published view without touching the service: only Reprice counted.
    assert_eq!(snap.counter("fedfl_service_commands_total"), Some(1));
    handle.shutdown();
}

#[test]
fn metrics_scrapes_stay_out_of_wire_traces() {
    let buffer = Arc::new(Mutex::new(Vec::new()));
    let recorder = WireRecorder::to_writer(Box::new(SharedBuf(Arc::clone(&buffer))));
    // Start empty so the trace is self-contained for replay.
    let service = PricingService::new(config()).unwrap();
    let mut handle = start_server(service, ServerOptions::default(), Some(recorder));
    let mut conn = PricingClient::connect(handle.addr()).unwrap();
    let Response::Added(ids) = conn
        .call(&Command::AddClients((0..3).map(client).collect()))
        .unwrap()
    else {
        panic!("AddClients reply");
    };
    conn.call(&Command::Reprice).unwrap();
    conn.metrics().unwrap();
    conn.call(&Command::GetPrices(ids)).unwrap();
    conn.metrics().unwrap();
    handle.shutdown();

    let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let records = load_records(&text).unwrap();
    assert_eq!(
        records.len(),
        3,
        "scrapes must not be recorded: {records:?}"
    );
    assert!(records
        .iter()
        .all(|r| !matches!(r.command, Some(Command::Metrics))));
    // The scrape-free trace replays bit-for-bit.
    let verified = verify_records(config(), &records).unwrap();
    assert_eq!(verified, 3);
}

#[test]
fn fast_path_wire_traces_verify_despite_wall_clock_index_timings() {
    // Fast-path reprice reports carry `index_rebuild_ns`, a wall-clock
    // time no replay reproduces. Verification must still hold every
    // other field of every reply to the in-process service.
    let mut fast = config();
    fast.fast_path = true;
    let buffer = Arc::new(Mutex::new(Vec::new()));
    let recorder = WireRecorder::to_writer(Box::new(SharedBuf(Arc::clone(&buffer))));
    let service = PricingService::new(fast).unwrap();
    let mut handle = start_server(service, ServerOptions::default(), Some(recorder));
    let mut conn = PricingClient::connect(handle.addr()).unwrap();
    let Response::Added(ids) = conn
        .call(&Command::AddClients((0..40).map(client).collect()))
        .unwrap()
    else {
        panic!("AddClients reply");
    };
    conn.call(&Command::Reprice).unwrap();
    conn.call(&Command::RemoveClients(vec![ids[3]])).unwrap();
    conn.call(&Command::AddClients(vec![client(41)])).unwrap();
    conn.call(&Command::Snapshot).unwrap();
    conn.call(&Command::GetPrices(ids[4..8].to_vec())).unwrap();
    handle.shutdown();

    let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let records = load_records(&text).unwrap();
    let timed = records
        .iter()
        .filter(|r| match &r.reply {
            WireReply::Ok(Response::Repriced(report)) => report.index_rebuild_ns > 0,
            WireReply::Ok(Response::Snapshot(snapshot)) => snapshot.report.index_rebuild_ns > 0,
            _ => false,
        })
        .count();
    assert_eq!(timed, 2, "the cold build and the patch are both timed");
    let verified = verify_records(fast, &records).unwrap();
    assert_eq!(verified, records.len());
}

#[test]
fn every_service_error_variant_round_trips_through_error_frames() {
    let variants: Vec<ServiceError> = vec![
        ServiceError::InvalidConfig {
            field: "budget",
            reason: "must be finite and positive, got NaN".into(),
        },
        ServiceError::InvalidClient {
            index: 3,
            reason: "q_max must be positive".into(),
        },
        ServiceError::UnknownClient(ClientId(42)),
        ServiceError::DuplicateRemoval(ClientId(7)),
        ServiceError::AvailabilityMismatch {
            clients: 10,
            patterns: 9,
        },
        ServiceError::NoPriceableClients { registered: 5 },
        ServiceError::InvariantViolated {
            residual: 1.5e-3,
            tolerance: 1e-6,
        },
        ServiceError::Game(GameError::LengthMismatch {
            expected: 4,
            found: 2,
        }),
    ];
    for service_error in &variants {
        let wire: WireError = service_error.into();
        // The wire mirror renders the same message as the in-process
        // error, so logs agree across transports.
        assert_eq!(wire.to_string(), service_error.to_string());
        let frame = WireReply::Err(wire.clone()).encode();
        let decoded = WireReply::decode(&frame).unwrap();
        assert_eq!(
            decoded,
            WireReply::Err(wire),
            "error frame round-trip for {service_error:?}"
        );
    }
}

#[test]
fn commands_round_trip_over_loopback_bit_identically() {
    let (service, _) = seeded_service(4);
    let (mut mirror, ids) = seeded_service(4);
    let mut handle = start_server(service, ServerOptions::default(), None);
    let mut conn = PricingClient::connect(handle.addr()).unwrap();

    // The same command sequence, over the wire and in process.
    let sequence = vec![
        Command::Snapshot,
        Command::UpdateBudget(14.0),
        Command::GetPrices(ids.clone()),
        Command::AddClients(vec![client(9)]),
        Command::Reprice,
        Command::RemoveClients(vec![ids[1]]),
        Command::GetPrices(vec![ids[0], ids[3]]),
        Command::Snapshot,
    ];
    for command in sequence {
        let served = conn.call(&command).unwrap();
        let local = mirror.execute(command).unwrap();
        assert_eq!(served, local, "wire and in-process replies must agree");
    }

    // Served prices are the certified equilibrium, bit for bit.
    let Response::Snapshot(served) = conn.call(&Command::Snapshot).unwrap() else {
        panic!("snapshot reply");
    };
    let local = mirror.snapshot().unwrap();
    let served_bits: Vec<u64> = served.prices.iter().map(|p| p.to_bits()).collect();
    let local_bits: Vec<u64> = local.prices.iter().map(|p| p.to_bits()).collect();
    assert_eq!(served_bits, local_bits);
    assert!(
        served.report.theorem2_residual.unwrap_or(0.0) <= 1e-6,
        "served equilibrium must be certified"
    );
    handle.shutdown();
}

#[test]
fn malformed_input_yields_typed_error_frames_and_the_connection_survives() {
    let (service, ids) = seeded_service(3);
    let mut handle = start_server(service, ServerOptions::default(), None);
    let mut conn = PricingClient::connect(handle.addr()).unwrap();

    // Garbage JSON → typed Malformed error frame.
    let reply = conn.call_raw(b"{\"not json").unwrap();
    assert!(matches!(
        reply,
        WireReply::Err(WireError::Codec {
            violation: CodecViolation::Malformed,
            ..
        })
    ));
    // Unknown command tag → typed Decode error frame naming the tag.
    let reply = conn.call_raw(b"{\"EraseAllClients\":[]}").unwrap();
    match reply {
        WireReply::Err(WireError::Codec {
            violation: CodecViolation::Decode,
            detail,
        }) => assert!(detail.contains("EraseAllClients"), "{detail}"),
        other => panic!("{other:?}"),
    }
    // A NaN budget serializes as null — rejected by the codec gate, so
    // it never reaches the service.
    let nan_payload = serde_json::to_string(&Command::UpdateBudget(f64::NAN)).unwrap();
    let reply = conn.call_raw(nan_payload.as_bytes()).unwrap();
    assert!(matches!(
        reply,
        WireReply::Err(WireError::Codec {
            violation: CodecViolation::NullValue,
            ..
        })
    ));
    // An out-of-range float literal parses to infinity — also rejected.
    let reply = conn.call_raw(b"{\"UpdateBudget\":1e999}").unwrap();
    assert!(matches!(
        reply,
        WireReply::Err(WireError::Codec {
            violation: CodecViolation::NonFinite,
            ..
        })
    ));
    // A service-level rejection comes back as the mirrored error.
    let err = conn
        .call(&Command::GetPrices(vec![ClientId(999)]))
        .unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server(WireError::UnknownClient(999))
    ));

    // After all of that, the same connection still serves reads.
    let Response::Prices(quotes) = conn.call(&Command::GetPrices(ids)).unwrap() else {
        panic!("prices reply");
    };
    assert_eq!(quotes.len(), 3);
    assert!(quotes.iter().all(|q| q.price.is_finite()));
    handle.shutdown();
}

#[test]
fn unknown_ids_come_back_as_typed_error_frames_and_change_nothing() {
    let (mut service, ids) = seeded_service(40);
    let removed = ids[5];
    service.remove_clients(&[removed]).unwrap();
    let mut handle = start_server(service, ServerOptions::default(), None);
    let mut conn = PricingClient::connect(handle.addr()).unwrap();
    let Response::Snapshot(before) = conn.call(&Command::Snapshot).unwrap() else {
        panic!("snapshot reply");
    };

    // Never issued (sharing a route block with live ids), already
    // removed, and far beyond every issued block.
    let never_issued = ClientId(ids.last().unwrap().0 + 1);
    for bad in [never_issued, removed, ClientId(u64::MAX)] {
        for batch in [vec![bad], vec![ids[0], bad]] {
            for command in [
                Command::GetPrices(batch.clone()),
                Command::RemoveClients(batch.clone()),
            ] {
                let err = conn.call(&command).unwrap_err();
                assert!(
                    matches!(err, ClientError::Server(WireError::UnknownClient(id)) if id == bad.0),
                    "{command:?}: {err:?}"
                );
            }
        }
    }
    // The connection keeps serving, and the rejected removals changed
    // nothing.
    let Response::Snapshot(after) = conn.call(&Command::Snapshot).unwrap() else {
        panic!("snapshot reply");
    };
    assert_eq!(after, before);
    let Response::Prices(quotes) = conn.call(&Command::GetPrices(vec![ids[0]])).unwrap() else {
        panic!("prices reply");
    };
    assert_eq!(quotes[0].price.to_bits(), before.prices[0].to_bits());
    handle.shutdown();
}

#[test]
fn oversized_frames_are_reported_then_the_connection_closes() {
    let (service, ids) = seeded_service(3);
    let mut handle = start_server(service, ServerOptions { max_frame: 256 }, None);
    // The client's cap is larger, so it can send what the server rejects.
    let mut conn = PricingClient::connect_with(handle.addr(), 1 << 20).unwrap();
    let big = format!("{{\"padding\":\"{}\"}}", "x".repeat(512));
    let reply = conn.call_raw(big.as_bytes()).unwrap();
    assert!(matches!(
        reply,
        WireReply::Err(WireError::Codec {
            violation: CodecViolation::Frame,
            ..
        })
    ));
    // The stream cannot be resynchronised past the unread payload: the
    // server closes, and the next call fails instead of hanging.
    assert!(conn.call(&Command::GetPrices(vec![ids[0]])).is_err());
    // A fresh connection is unaffected (a one-quote reply fits the cap).
    let mut fresh = PricingClient::connect(handle.addr()).unwrap();
    assert!(fresh.call(&Command::GetPrices(vec![ids[0]])).is_ok());
    handle.shutdown();
}

#[test]
fn truncated_frames_close_cleanly_without_poisoning_the_server() {
    let (service, _) = seeded_service(3);
    let mut handle = start_server(service, ServerOptions::default(), None);
    // Declare 100 payload bytes, deliver 10, then vanish.
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"0123456789").unwrap();
    }
    // And a half-written length prefix.
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(&[0u8, 1u8]).unwrap();
    }
    // The server shrugs both off and keeps serving.
    let mut fresh = PricingClient::connect(handle.addr()).unwrap();
    assert!(fresh.call(&Command::Snapshot).is_ok());
    handle.shutdown();
}

#[test]
fn concurrent_readers_ride_the_single_writer_without_uncertified_prices() {
    let (service, ids) = seeded_service(16);
    let tolerance = service.config().residual_tolerance;
    let mut handle = start_server(service, ServerOptions::default(), None);
    let addr = handle.addr();

    let mut workers = Vec::new();
    // One writer churning the population and the budget.
    {
        let writer_ids = ids.clone();
        workers.push(std::thread::spawn(move || {
            let mut conn = PricingClient::connect(addr).unwrap();
            for round in 0..20 {
                conn.call(&Command::AddClients(vec![client(round)]))
                    .unwrap();
                conn.call(&Command::UpdateBudget(10.0 + round as f64))
                    .unwrap();
                conn.call(&Command::GetPrices(vec![writer_ids[0]])).unwrap();
            }
        }));
    }
    // Several readers hammering prices and snapshots.
    for _ in 0..4 {
        let reader_ids = ids.clone();
        workers.push(std::thread::spawn(move || {
            let mut conn = PricingClient::connect(addr).unwrap();
            for _ in 0..50 {
                match conn.call(&Command::GetPrices(reader_ids.clone())) {
                    Ok(Response::Prices(quotes)) => {
                        assert!(quotes.iter().all(|q| q.price.is_finite()));
                    }
                    Ok(other) => panic!("{other:?}"),
                    Err(e) => panic!("reader failed: {e}"),
                }
                match conn.call(&Command::Snapshot) {
                    Ok(Response::Snapshot(snapshot)) => {
                        // Every served snapshot is certified.
                        assert!(snapshot.report.theorem2_residual.unwrap_or(0.0) <= tolerance);
                    }
                    Ok(other) => panic!("{other:?}"),
                    Err(e) => panic!("snapshot reader failed: {e}"),
                }
            }
        }));
    }
    for worker in workers {
        worker.join().expect("no worker may panic");
    }
    handle.shutdown();
}

/// A `Write` sink tests can read back out of the recorder.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn wire_traces_record_and_verify_against_the_in_process_service() {
    // Start *empty* so the whole population arrives over the wire — the
    // trace is then self-contained and `verify_records` can replay it
    // against a fresh deployment of the same config.
    let service = PricingService::new(config()).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let recorder = WireRecorder::to_writer(Box::new(sink.clone()));
    let mut handle = start_server(service, ServerOptions::default(), Some(recorder));
    let mut conn = PricingClient::connect(handle.addr()).unwrap();

    let Response::Added(ids) = conn
        .call(&Command::AddClients((0..4).map(client).collect()))
        .unwrap()
    else {
        panic!("added reply");
    };
    conn.call(&Command::Snapshot).unwrap();
    conn.call(&Command::UpdateBudget(12.5)).unwrap();
    conn.call(&Command::GetPrices(ids)).unwrap();
    // One codec-rejected frame lands in the trace with no command…
    let _ = conn.call_raw(b"{\"garbage\":").unwrap();
    // …and one service-rejected command lands with its error reply.
    let _ = conn.call(&Command::GetPrices(vec![ClientId(404)]));
    drop(conn);
    handle.shutdown();

    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let records = load_records(&text).unwrap();
    assert_eq!(records.len(), 6);
    assert!(
        records.iter().any(|r| r.command.is_none()),
        "codec reject recorded"
    );
    // JSONL round-trip is lossless.
    let reencoded: String = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    assert_eq!(load_records(&reencoded).unwrap(), records);
    // The recorded replies replay bit-for-bit against a fresh in-process
    // service: 5 command-bearing exchanges, the codec reject skipped.
    let verified = verify_records(config(), &records).unwrap();
    assert_eq!(verified, 5);
}

#[test]
fn recorder_verification_catches_traces_with_out_of_band_state() {
    // This server was seeded *before* recording started, so the trace is
    // not self-contained — verification must flag the divergence rather
    // than pass vacuously.
    let (service, _) = seeded_service(2);
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let recorder = WireRecorder::to_writer(Box::new(sink.clone()));
    let mut handle = start_server(service, ServerOptions::default(), Some(recorder));
    let mut conn = PricingClient::connect(handle.addr()).unwrap();
    conn.call(&Command::Snapshot).unwrap();
    drop(conn);
    handle.shutdown();
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let records = load_records(&text).unwrap();
    assert!(verify_records(config(), &records).is_err());
}

/// Descriptors this process holds on sockets the kernel no longer lists
/// in its TCP tables: sockets closed on the wire but never released. Live
/// sockets of tests running in parallel stay out of the count.
#[cfg(target_os = "linux")]
fn released_socket_descriptors() -> usize {
    let mut listed = std::collections::HashSet::new();
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(text) = std::fs::read_to_string(table) else {
            continue;
        };
        // Columns: sl, local, remote, state, queues, timers, retransmits,
        // uid, timeout, inode, ...
        for line in text.lines().skip(1) {
            if let Some(inode) = line.split_whitespace().nth(9) {
                listed.insert(format!("socket:[{inode}]"));
            }
        }
    }
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
        .map(|target| target.to_string_lossy().into_owned())
        .filter(|target| target.starts_with("socket:") && !listed.contains(target))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    const CYCLES: u64 = 400;
    let (service, _) = seeded_service(4);
    let mut handle = start_server(service, ServerOptions::default(), None);
    let before = released_socket_descriptors();
    for _ in 0..CYCLES {
        let mut conn = PricingClient::connect(handle.addr()).unwrap();
        conn.call(&Command::Snapshot).unwrap();
    }
    // Wait until every connection thread has seen its peer close.
    let metrics = handle.metrics();
    let closed = || {
        metrics
            .snapshot()
            .counter("fedfl_net_connections_closed_total")
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while closed() != Some(CYCLES) && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(closed(), Some(CYCLES));
    let after = released_socket_descriptors();
    assert!(
        after <= before + 8,
        "{CYCLES} closed connections left {after} closed sockets open (was {before})"
    );
    handle.shutdown();
}
