//! The wire-trace recorder: an append-only JSONL log of every (command,
//! reply) pair a server processed, replayable for debugging.

use crate::error::WireError;
use crate::protocol::WireReply;
use fedfl_service::{Command, PricingService, Response, ServiceConfig};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// One request/reply exchange, as the server processed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRecord {
    /// Global sequence number, in processing order across connections.
    pub seq: u64,
    /// Which connection carried the exchange.
    pub conn: u64,
    /// The decoded command; `None` when the codec rejected the frame
    /// (the reply then carries the codec error).
    pub command: Option<Command>,
    /// The reply frame sent back.
    pub reply: WireReply,
}

struct RecorderInner {
    out: Box<dyn Write + Send>,
    seq: u64,
}

/// A shareable, thread-safe JSONL sink the server appends one
/// [`WireRecord`] per processed frame to.
#[derive(Clone)]
pub struct WireRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl WireRecorder {
    /// Record to a file at `path` (truncating an existing one).
    ///
    /// # Errors
    ///
    /// Returns the file creation error.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Record to an arbitrary sink (tests use an in-memory buffer).
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            inner: Arc::new(Mutex::new(RecorderInner { out, seq: 0 })),
        }
    }

    /// Append one exchange. Sink failures are swallowed — recording is
    /// diagnostic and must never take the serving path down.
    ///
    /// `Metrics` scrapes are not recorded: their replies depend on live
    /// counter state (including the scrapes themselves), so they can
    /// never replay bit-for-bit and would poison [`verify_records`].
    pub fn record(&self, conn: u64, command: Option<&Command>, reply: &WireReply) {
        if matches!(command, Some(Command::Metrics)) {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let record = WireRecord {
            seq: inner.seq,
            conn,
            command: command.cloned(),
            reply: reply.clone(),
        };
        inner.seq += 1;
        if let Ok(line) = serde_json::to_string(&record) {
            let _ = writeln!(inner.out, "{line}");
            let _ = inner.out.flush();
        }
    }
}

/// Parse a JSONL wire trace back into records.
///
/// # Errors
///
/// Returns the line number and decoder message of the first bad line.
pub fn load_records(text: &str) -> Result<Vec<WireRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str::<WireRecord>(line)
                .map_err(|e| format!("wire trace line {}: {e}", i + 1))
        })
        .collect()
}

/// Replay a recorded single-connection wire trace against a fresh
/// in-process service deployed with `config`, checking every recorded
/// reply bit-for-bit. Returns the number of verified exchanges.
///
/// The one wall-clock field a reply carries,
/// `RepriceReport::index_rebuild_ns`, is zeroed on both sides before the
/// comparison; every other field must match exactly.
///
/// Codec-rejected records (no command) are skipped: they never reached
/// the service, so they cannot affect its state. So are `Metrics`
/// scrapes from hand-built traces: their replies are live counter reads,
/// inherently unreplayable (the recorder itself never writes them).
///
/// # Errors
///
/// Returns a description of the first diverging exchange.
pub fn verify_records(config: ServiceConfig, records: &[WireRecord]) -> Result<usize, String> {
    let mut service =
        PricingService::new(config).map_err(|e| format!("service deployment failed: {e}"))?;
    let mut verified = 0usize;
    for record in records {
        let Some(command) = &record.command else {
            continue;
        };
        if matches!(command, Command::Metrics) {
            continue;
        }
        let expected = match service.execute(command.clone()) {
            Ok(response) => normalise(WireReply::Ok(response)),
            Err(e) => WireReply::Err(WireError::from(&e)),
        };
        if expected != normalise(record.reply.clone()) {
            return Err(format!(
                "exchange seq {} diverged: recorded {:?}, in-process {:?}",
                record.seq, record.reply, expected
            ));
        }
        verified += 1;
    }
    Ok(verified)
}

/// Zero the wall-clock index build/patch time of a reply's reprice
/// report, so that replies compare on their deterministic fields.
fn normalise(mut reply: WireReply) -> WireReply {
    match &mut reply {
        WireReply::Ok(Response::Repriced(report)) => report.index_rebuild_ns = 0,
        WireReply::Ok(Response::Snapshot(snapshot)) => snapshot.report.index_rebuild_ns = 0,
        _ => {}
    }
    reply
}
