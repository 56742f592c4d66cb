//! The thread-per-connection TCP front-end.
//!
//! Reads (`GetPrices`/`Snapshot`) are served concurrently from the last
//! Theorem-2-certified equilibrium, published behind a [`RwLock`];
//! mutations funnel through the single writer — the [`Mutex`]-owned
//! [`PricingService`] — whose re-solve republishes only after the
//! certification passes. No connection can ever observe an uncertified
//! price: the published view is replaced exclusively with snapshots that
//! the service's own invariant check has accepted, and a failed re-solve
//! leaves the previous certified view in place (and the staleness flag
//! down, so readers keep retrying the solve rather than serving it).

use crate::codec::{decode_command, read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::error::WireError;
use crate::protocol::WireReply;
use crate::recorder::WireRecorder;
use fedfl_obs::{Metric, Recorder as _, Registry, Stopwatch};
use fedfl_service::{ClientId, Command, PriceQuote, PricingService, Response, ServiceSnapshot};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Hard cap on one frame's payload, bytes (both directions).
    pub max_frame: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Batched quotes from a certified snapshot, with the in-process atomicity
/// contract: every id resolves before any quote is built; the first
/// unknown id (in request order) rejects the whole batch. Ids resolve by
/// binary search: a snapshot's ids are strictly ascending (see
/// [`ServiceSnapshot::ids`]).
fn quotes(snapshot: &ServiceSnapshot, ids: &[ClientId]) -> Result<Vec<PriceQuote>, WireError> {
    let positions: Vec<usize> = ids
        .iter()
        .map(|id| {
            snapshot
                .ids
                .binary_search(id)
                .map_err(|_| WireError::UnknownClient(id.0))
        })
        .collect::<Result<_, _>>()?;
    Ok(ids
        .iter()
        .zip(positions)
        .map(|(&id, pos)| PriceQuote {
            id,
            price: snapshot.prices[pos],
            q_eff: snapshot.q_eff[pos],
        })
        .collect())
}

/// Shared state between the writer and every reader connection.
struct Shared {
    /// The single writer: every mutation and every re-solve runs under
    /// this lock.
    service: Mutex<PricingService>,
    /// The last certified equilibrium; readers clone the `Arc` and serve
    /// without touching the service.
    published: RwLock<Option<Arc<ServiceSnapshot>>>,
    /// Whether `published` reflects the service's current state. Cleared
    /// by successful mutations (under the service lock), raised only
    /// after a certified snapshot is published.
    fresh: AtomicBool,
    recorder: Option<WireRecorder>,
    /// The observability registry, shared with the owned service so one
    /// scrape covers solver, service and net counters. `Metrics` scrapes
    /// are served straight from here, without the service lock.
    metrics: Arc<Registry>,
    options: ServerOptions,
    stop: AtomicBool,
}

/// Mutex/RwLock recovery: a panicking holder must not take the server
/// down with it (the server's contract is to never panic).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// A read view of the current equilibrium, re-solving (through the
    /// single writer) first if mutations have accumulated.
    fn read_view(&self) -> Result<Arc<ServiceSnapshot>, WireError> {
        if self.fresh.load(Ordering::Acquire) {
            let published = self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(view) = published.as_ref() {
                return Ok(Arc::clone(view));
            }
        }
        // Stale (or never published): funnel through the single writer.
        let mut service = lock(&self.service);
        // Re-check under the lock — a concurrent reader may have
        // refreshed while this one waited.
        if self.fresh.load(Ordering::Acquire) {
            let published = self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(view) = published.as_ref() {
                return Ok(Arc::clone(view));
            }
        }
        // `snapshot()` re-solves if dirty and only returns equilibria
        // that passed the Theorem 2 certification; on error nothing is
        // published and the previous certified view stays.
        let snapshot = service.snapshot().map_err(WireError::from)?;
        let view = Arc::new(snapshot);
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&view));
        self.fresh.store(true, Ordering::Release);
        Ok(view)
    }

    /// Execute one decoded command, returning the reply frame payload.
    fn handle(&self, command: Command) -> WireReply {
        match command {
            Command::GetPrices(ids) => match self.read_view() {
                Ok(view) => match quotes(&view, &ids) {
                    Ok(quotes) => WireReply::Ok(Response::Prices(quotes)),
                    Err(e) => WireReply::Err(e),
                },
                Err(e) => WireReply::Err(e),
            },
            Command::Snapshot => match self.read_view() {
                Ok(view) => WireReply::Ok(Response::Snapshot((*view).clone())),
                Err(e) => WireReply::Err(e),
            },
            // Lock-free: scrapes must not queue behind the writer.
            Command::Metrics => {
                self.metrics.add(Metric::NetMetricsScrapes, 1);
                WireReply::Ok(Response::Metrics(self.metrics.report()))
            }
            mutation => {
                let mut service = lock(&self.service);
                match service.execute(mutation) {
                    Ok(response) => {
                        // The published view may now be stale; readers
                        // will refresh (and re-certify) on demand. A
                        // failed command leaves the service unchanged,
                        // so freshness is only cleared on success.
                        self.fresh.store(false, Ordering::Release);
                        WireReply::Ok(response)
                    }
                    Err(e) => WireReply::Err(WireError::from(&e)),
                }
            }
        }
    }
}

/// Per-connection bookkeeping: the serving thread plus a tracked clone
/// of its stream, so shutdown can unblock the thread's pending read.
/// The accept loop prunes finished connections before each push.
type ConnectionRegistry = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// Pause after a failed `accept` (or stream clone) before the next one.
const ACCEPT_RETRY_DELAY: std::time::Duration = std::time::Duration::from_millis(10);

/// A running server: its bound address and the shutdown handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    connections: ConnectionRegistry,
}

impl ServerHandle {
    /// The address the server accepts connections on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's observability registry (shared with its service).
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Stop accepting, close every live connection, and join all server
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let connections = std::mem::take(&mut *lock(&self.connections));
        for (handle, stream) in connections {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `service` on `listener`, one thread per connection.
///
/// # Errors
///
/// Returns the listener's error if its local address cannot be read.
pub fn serve(
    mut service: PricingService,
    listener: TcpListener,
    options: ServerOptions,
    recorder: Option<WireRecorder>,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    // One registry covers the whole stack: adopt the service's if it has
    // one, otherwise install a fresh one so the solver/service counters
    // land in the same scrape as the connection counters.
    let metrics = match service.recorder() {
        Some(registry) => Arc::clone(registry),
        None => {
            let registry = Arc::new(Registry::new());
            service.set_recorder(Arc::clone(&registry));
            registry
        }
    };
    let shared = Arc::new(Shared {
        service: Mutex::new(service),
        published: RwLock::new(None),
        fresh: AtomicBool::new(false),
        recorder,
        metrics,
        options,
        stop: AtomicBool::new(false),
    });
    let connections: ConnectionRegistry = Arc::new(Mutex::new(Vec::new()));

    let accept_shared = Arc::clone(&shared);
    let accept_connections = Arc::clone(&connections);
    let accept_thread = std::thread::spawn(move || {
        let mut next_conn = 0u64;
        for incoming in listener.incoming() {
            if accept_shared.stop.load(Ordering::Acquire) {
                break;
            }
            let tracked = incoming.and_then(|stream| Ok((stream.try_clone()?, stream)));
            let Ok((tracked, stream)) = tracked else {
                // Typically descriptor exhaustion: back off instead of
                // spinning on an accept that fails again at once.
                accept_shared.metrics.add(Metric::NetAcceptErrors, 1);
                std::thread::sleep(ACCEPT_RETRY_DELAY);
                continue;
            };
            let conn_id = next_conn;
            next_conn += 1;
            let conn_shared = Arc::clone(&accept_shared);
            let handle =
                std::thread::spawn(move || serve_connection(&conn_shared, stream, conn_id));
            // A finished connection's tracked clone is the last descriptor
            // of its socket; release it now rather than at shutdown. The
            // join returns at once: the thread has already exited.
            let mut connections = lock(&accept_connections);
            for (finished, _tracked) in
                connections.extract_if(.., |(handle, _)| handle.is_finished())
            {
                let _ = finished.join();
            }
            connections.push((handle, tracked));
        }
    });

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        connections,
    })
}

/// One connection's request/reply loop. Never panics: every codec or
/// service failure becomes an error frame (or, for unrecoverable framing
/// violations, a final error frame followed by a close).
fn serve_connection(shared: &Shared, stream: TcpStream, conn_id: u64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let metrics = &*shared.metrics;
    metrics.add(Metric::NetConnectionsOpened, 1);
    metrics.gauge_add(Metric::NetActiveConnections, 1);
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let payload = match read_frame(&mut reader, shared.options.max_frame) {
            Ok(Some(payload)) => payload,
            // Clean EOF between frames: the peer is done.
            Ok(None) => break,
            Err(err @ FrameError::TooLarge { .. }) => {
                // The unread payload cannot be skipped safely; report
                // and close.
                let reply = WireReply::Err(WireError::Codec {
                    violation: crate::error::CodecViolation::Frame,
                    detail: err.to_string(),
                });
                metrics.add(Metric::NetErrorFrames, 1);
                if reply_to(shared, &mut writer, &reply).is_ok() {
                    metrics.add(Metric::NetRepliesSent, 1);
                }
                record(shared, conn_id, None, &reply);
                break;
            }
            // Truncation or transport failure: the peer is gone.
            Err(_) => break,
        };
        metrics.add(Metric::NetFramesRead, 1);
        metrics.add(Metric::NetBytesRead, payload.len() as u64 + 4);
        let (command, reply) = match decode_command(&payload) {
            Ok(command) => {
                metrics.add(Metric::NetFramesDecoded, 1);
                let watch = Stopwatch::start();
                let reply = shared.handle(command.clone());
                watch.record(metrics, Metric::NetRequestNs);
                (Some(command), reply)
            }
            // The framing was intact, so the connection stays usable.
            Err(codec) => (None, WireReply::Err(WireError::from(codec))),
        };
        if matches!(reply, WireReply::Err(_)) {
            metrics.add(Metric::NetErrorFrames, 1);
        }
        record(shared, conn_id, command.as_ref(), &reply);
        if reply_to(shared, &mut writer, &reply).is_err() {
            break;
        }
        metrics.add(Metric::NetRepliesSent, 1);
    }
    // Dropping the handles is not enough to close the socket: the accept
    // registry's tracked clone still holds the descriptor, so the peer
    // would never see EOF. Shut the stream down explicitly.
    let _ = writer.flush();
    let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
    metrics.add(Metric::NetConnectionsClosed, 1);
    metrics.gauge_sub(Metric::NetActiveConnections, 1);
}

/// Encode and write one reply frame, counting the bytes that went out.
fn reply_to(
    shared: &Shared,
    writer: &mut BufWriter<TcpStream>,
    reply: &WireReply,
) -> Result<(), FrameError> {
    let encoded = reply.encode();
    write_frame(writer, &encoded, shared.options.max_frame)?;
    shared
        .metrics
        .add(Metric::NetBytesWritten, encoded.len() as u64 + 4);
    Ok(())
}

fn record(shared: &Shared, conn_id: u64, command: Option<&Command>, reply: &WireReply) {
    if let Some(recorder) = &shared.recorder {
        recorder.record(conn_id, command, reply);
    }
}
