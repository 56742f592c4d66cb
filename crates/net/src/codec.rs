//! The strict wire codec: length-prefixed frames, the columnar reply
//! layout, and typed decode errors.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! payload bytes. Commands, error replies and every reply but two are
//! UTF-8 JSON. The two bulk replies, `Prices` and `Snapshot`, are
//! *columnar* frames: a tag byte, little-endian counts, then one column
//! per field, all integers and floats little-endian.
//!
//! ```text
//! Prices    0x81 | n: u64 | id: n × u64 | price: n × f64 | q_eff: n × f64
//! Snapshot  0x82 | n: u64 | t: u64 | budget: f64
//!                | id: n × u64 | price: n × f64 | q_eff: n × f64
//!                | report: t bytes of RepriceReport JSON
//! ```
//!
//! Both tags are UTF-8 continuation bytes, which cannot begin UTF-8 text,
//! so a JSON payload (it starts with `{`) is never mistaken for a
//! columnar one. A `Prices` frame keeps request order, duplicates
//! included.
//!
//! The codec layer is deliberately separate from the command handler:
//! framing violations (oversized or truncated frames) and payload
//! violations (garbage JSON, unknown command tags, `null` or non-finite
//! floats smuggled into solver inputs) are rejected *here*, with typed
//! errors, before any command reaches the service. Columnar replies are
//! held to the same standard: their declared counts must account for
//! every byte of the frame, and every `price`, `q_eff` and `budget` must
//! be finite.

use fedfl_service::{ClientId, Command, PriceQuote, RepriceReport, ServiceSnapshot};
use serde::de::DeserializeOwned;
use serde::Value;
use std::fmt;
use std::io::{self, Read, Write};

/// Default hard cap on one frame's payload, in bytes. Generous enough
/// for a full 1M-client snapshot reply, small enough that a hostile
/// length prefix cannot make the server allocate unbounded memory.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of the frame length prefix.
pub const LENGTH_PREFIX: usize = 4;

/// A framing violation — the byte stream itself broke the protocol.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds the configured cap. The
    /// stream cannot be resynchronised past an unread payload this
    /// large, so the connection must close after reporting it.
    TooLarge {
        /// Length the prefix declared.
        declared: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "stream ended mid-frame: got {got} of {expected} bytes")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A payload violation — the frame arrived intact but its payload cannot
/// become a solver-safe [`Command`] or a well-formed reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload is not valid UTF-8 or not valid JSON.
    Malformed {
        /// What the parser reported.
        detail: String,
    },
    /// The payload does not decode as a command (unknown tag, missing
    /// field, wrong type), or a JSON reply does not parse or decode.
    Decode {
        /// What the decoder reported.
        detail: String,
    },
    /// The payload carries a JSON `null` — the serializer's encoding of
    /// a non-finite float, which must never smuggle a NaN into the
    /// solver.
    NullValue {
        /// Path of the offending value inside the payload.
        path: String,
    },
    /// The payload carries a float that parsed to a non-finite value
    /// (e.g. an out-of-range literal like `1e999`).
    NonFinite {
        /// Path of the offending value inside the payload.
        path: String,
    },
    /// A columnar frame's length disagrees with the counts it declares:
    /// it is truncated or carries trailing bytes.
    Length {
        /// Bytes the declared counts call for (saturating), or the fixed
        /// header's size when the frame cannot even hold that.
        declared: u64,
        /// Bytes the frame holds.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
            CodecError::Decode { detail } => write!(f, "undecodable command: {detail}"),
            CodecError::NullValue { path } => {
                write!(f, "null value at {path}: non-finite floats are rejected")
            }
            CodecError::NonFinite { path } => {
                write!(f, "non-finite float at {path}")
            }
            CodecError::Length { declared, actual } => write!(
                f,
                "columnar frame of {actual} bytes, its counts declare {declared}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Write one frame: big-endian length prefix, then the payload.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] for a payload over `max` (nothing is
/// written) and [`FrameError::Io`] for transport failures.
pub fn write_frame(writer: &mut impl Write, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::TooLarge {
            declared: payload.len(),
            max,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge {
        declared: payload.len(),
        max,
    })?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Read one frame's payload. `Ok(None)` is a clean EOF *between* frames
/// (the peer closed an idle connection).
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] without consuming the payload (the
/// stream is unrecoverable past it), [`FrameError::Truncated`] for EOF
/// inside a frame, and [`FrameError::Io`] for transport failures.
pub fn read_frame(reader: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; LENGTH_PREFIX];
    match read_exact_or_eof(reader, &mut prefix)? {
        0 => return Ok(None),
        n if n < LENGTH_PREFIX => {
            return Err(FrameError::Truncated {
                expected: LENGTH_PREFIX,
                got: n,
            })
        }
        _ => {}
    }
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared];
    let got = read_exact_or_eof(reader, &mut payload)?;
    if got < declared {
        return Err(FrameError::Truncated {
            expected: declared,
            got,
        });
    }
    Ok(Some(payload))
}

/// Fill `buf` as far as the stream allows, returning the bytes read
/// (short only at EOF).
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}

/// Decode a frame payload into a [`Command`], enforcing the solver-safety
/// gate: the parsed JSON tree must contain no `null` and no non-finite
/// float anywhere. (The serializer encodes non-finite floats as `null`,
/// and the parser accepts out-of-range literals as infinities — both are
/// rejected here so `UpdateBudget(NaN)` can never reach the service,
/// which would reject it anyway, let alone the solver.)
///
/// # Errors
///
/// Returns a typed [`CodecError`] naming the violation; the connection
/// remains usable, since the framing itself was intact.
pub fn decode_command(payload: &[u8]) -> Result<Command, CodecError> {
    let value: Value = serde_json::from_str(utf8(payload)?).map_err(|e| CodecError::Malformed {
        detail: e.to_string(),
    })?;
    check_solver_safe(&value)?;
    value
        .deserialize_into::<Command>()
        .map_err(|e| CodecError::Decode {
            detail: e.to_string(),
        })
}

/// Decode a JSON reply, or a snapshot's report trailer, straight through
/// `serde_json` and without the solver-safety walk: a report's `lambda`
/// and `theorem2_residual` are legitimately `null`. JSON that does not
/// parse is a [`CodecError::Decode`] here too.
pub(crate) fn decode_json<T: DeserializeOwned>(payload: &[u8]) -> Result<T, CodecError> {
    serde_json::from_str(utf8(payload)?).map_err(|e| CodecError::Decode {
        detail: e.to_string(),
    })
}

fn utf8(payload: &[u8]) -> Result<&str, CodecError> {
    std::str::from_utf8(payload).map_err(|e| CodecError::Malformed {
        detail: format!("invalid utf-8: {e}"),
    })
}

/// A value the solver-safety gate rejects.
enum Unsafe {
    Null,
    NonFinite,
}

/// Reject `null` and non-finite floats, naming the first offender by its
/// JSONPath. The walk itself formats nothing: the path is built from the
/// hit back up to the root, only when there is a hit.
fn check_solver_safe(value: &Value) -> Result<(), CodecError> {
    let mut segments = Vec::new();
    let Some(hit) = first_unsafe(value, &mut segments) else {
        return Ok(());
    };
    let path: String = std::iter::once("$".to_string())
        .chain(segments.into_iter().rev())
        .collect();
    Err(match hit {
        Unsafe::Null => CodecError::NullValue { path },
        Unsafe::NonFinite => CodecError::NonFinite { path },
    })
}

/// Depth-first search for a `null` or non-finite float. On a hit,
/// `segments` holds the path to it, innermost segment first.
fn first_unsafe(value: &Value, segments: &mut Vec<String>) -> Option<Unsafe> {
    match value {
        Value::Null => Some(Unsafe::Null),
        Value::F64(x) if !x.is_finite() => Some(Unsafe::NonFinite),
        Value::Seq(items) => items.iter().enumerate().find_map(|(i, item)| {
            let hit = first_unsafe(item, segments)?;
            segments.push(format!("[{i}]"));
            Some(hit)
        }),
        Value::Map(entries) => entries.iter().find_map(|(key, item)| {
            let hit = first_unsafe(item, segments)?;
            segments.push(format!(".{key}"));
            Some(hit)
        }),
        _ => None,
    }
}

/// First byte of a columnar `Prices` reply.
pub(crate) const PRICES_TAG: u8 = 0x81;
/// First byte of a columnar `Snapshot` reply.
pub(crate) const SNAPSHOT_TAG: u8 = 0x82;

/// Bytes per client across the id, price and `q_eff` columns.
const ROW_BYTES: usize = 24;

/// Encode quotes as a columnar `Prices` frame payload, in the given
/// order.
pub(crate) fn encode_prices(quotes: &[PriceQuote]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + quotes.len() * ROW_BYTES);
    out.push(PRICES_TAG);
    out.extend_from_slice(&(quotes.len() as u64).to_le_bytes());
    for quote in quotes {
        out.extend_from_slice(&quote.id.0.to_le_bytes());
    }
    for quote in quotes {
        out.extend_from_slice(&quote.price.to_le_bytes());
    }
    for quote in quotes {
        out.extend_from_slice(&quote.q_eff.to_le_bytes());
    }
    out
}

/// Encode a snapshot as a columnar `Snapshot` frame payload, reading it
/// in place.
pub(crate) fn encode_snapshot(snapshot: &ServiceSnapshot) -> Vec<u8> {
    let report = serde_json::to_string(&snapshot.report).expect("reports serialize infallibly");
    let n = snapshot.ids.len();
    let mut out = Vec::with_capacity(1 + 3 * 8 + n * ROW_BYTES + report.len());
    out.push(SNAPSHOT_TAG);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(report.len() as u64).to_le_bytes());
    out.extend_from_slice(&snapshot.budget.to_le_bytes());
    for id in &snapshot.ids {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
    for column in [&snapshot.prices, &snapshot.q_eff] {
        for x in column {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out.extend_from_slice(report.as_bytes());
    out
}

/// A columnar payload split at its declared counts.
struct Columnar<'a> {
    /// The fixed header words after the tag.
    header: Vec<u64>,
    ids: &'a [u8],
    prices: &'a [u8],
    q_eff: &'a [u8],
    /// What follows the columns: a snapshot's report JSON, empty for
    /// quotes.
    trailer: &'a [u8],
}

/// Split a columnar payload whose tag is followed by `words` header words,
/// the first counting rows and — when `trailer` — the second counting
/// trailer bytes. The counts must account for every byte.
fn split_columnar(payload: &[u8], words: usize, trailer: bool) -> Result<Columnar<'_>, CodecError> {
    let header_len = 1 + 8 * words;
    let Some(header) = payload.get(1..header_len) else {
        return Err(CodecError::Length {
            declared: header_len as u64,
            actual: payload.len(),
        });
    };
    let header: Vec<u64> = header.chunks_exact(8).map(le_u64).collect();
    let rows = header[0];
    let trailer_len = if trailer { header[1] } else { 0 };
    let declared = rows
        .saturating_mul(ROW_BYTES as u64)
        .saturating_add(header_len as u64)
        .saturating_add(trailer_len);
    if declared != payload.len() as u64 {
        return Err(CodecError::Length {
            declared,
            actual: payload.len(),
        });
    }
    // The counts fit the payload, so every split below is in bounds.
    let column = rows as usize * 8;
    let (ids, rest) = payload[header_len..].split_at(column);
    let (prices, rest) = rest.split_at(column);
    let (q_eff, trailer) = rest.split_at(column);
    Ok(Columnar {
        header,
        ids,
        prices,
        q_eff,
        trailer,
    })
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// An `f64` column, every value checked finite; `path` names the column
/// in an error.
fn finite_column(bytes: &[u8], path: &str) -> Result<Vec<f64>, CodecError> {
    let column: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|chunk| f64::from_bits(le_u64(chunk)))
        .collect();
    match column.iter().position(|x| !x.is_finite()) {
        Some(i) => Err(CodecError::NonFinite {
            path: format!("{path}[{i}]"),
        }),
        None => Ok(column),
    }
}

fn id_column(bytes: &[u8]) -> Vec<ClientId> {
    bytes.chunks_exact(8).map(|c| ClientId(le_u64(c))).collect()
}

/// Decode a columnar `Prices` payload (tag included).
///
/// # Errors
///
/// [`CodecError::Length`] when the count does not match the frame length
/// and [`CodecError::NonFinite`] for a non-finite `price` or `q_eff`.
pub(crate) fn decode_prices(payload: &[u8]) -> Result<Vec<PriceQuote>, CodecError> {
    let frame = split_columnar(payload, 1, false)?;
    let prices = finite_column(frame.prices, "$.price")?;
    let q_eff = finite_column(frame.q_eff, "$.q_eff")?;
    Ok(id_column(frame.ids)
        .into_iter()
        .zip(prices)
        .zip(q_eff)
        .map(|((id, price), q_eff)| PriceQuote { id, price, q_eff })
        .collect())
}

/// Decode a columnar `Snapshot` payload (tag included). The report
/// trailer decodes like any JSON reply: its `lambda` and
/// `theorem2_residual` are legitimately `null`.
///
/// # Errors
///
/// [`CodecError::Length`] when the counts do not match the frame length,
/// [`CodecError::NonFinite`] for a non-finite `budget`, `price` or
/// `q_eff`, and [`CodecError::Malformed`]/[`CodecError::Decode`] for a
/// trailer that is not a report.
pub(crate) fn decode_snapshot(payload: &[u8]) -> Result<ServiceSnapshot, CodecError> {
    let frame = split_columnar(payload, 3, true)?;
    let budget = f64::from_bits(frame.header[2]);
    if !budget.is_finite() {
        return Err(CodecError::NonFinite {
            path: "$.budget".into(),
        });
    }
    let prices = finite_column(frame.prices, "$.prices")?;
    let q_eff = finite_column(frame.q_eff, "$.q_eff")?;
    let report: RepriceReport = decode_json(frame.trailer)?;
    Ok(ServiceSnapshot {
        ids: id_column(frame.ids),
        prices,
        q_eff,
        budget,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireReply;
    use fedfl_core::server::SolverMode;
    use fedfl_service::Response;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}", 1024).unwrap();
        write_frame(&mut buf, b"", 1024).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(&b"{\"a\":1}"[..])
        );
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(&b""[..])
        );
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_are_typed() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &[0u8; 32], 16),
            Err(FrameError::TooLarge {
                declared: 32,
                max: 16
            })
        ));
        // A hostile prefix declaring more than the cap.
        let hostile = 0xFFFF_FFFFu32.to_be_bytes();
        let mut cursor = io::Cursor::new(hostile.to_vec());
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::TooLarge { .. })
        ));
        // A frame cut off mid-payload.
        let mut cut = 8u32.to_be_bytes().to_vec();
        cut.extend_from_slice(b"abc");
        let mut cursor = io::Cursor::new(cut);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Truncated {
                expected: 8,
                got: 3
            })
        ));
        // A prefix cut off mid-length.
        let mut cursor = io::Cursor::new(vec![0u8, 0u8]);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Truncated {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn commands_round_trip_through_the_codec() {
        let commands = [
            Command::GetPrices(vec![ClientId(3), ClientId(1)]),
            Command::Snapshot,
            Command::Reprice,
            Command::UpdateBudget(42.5),
            Command::RemoveClients(vec![ClientId(9)]),
        ];
        for command in commands {
            let payload = serde_json::to_string(&command).unwrap();
            let decoded = decode_command(payload.as_bytes()).unwrap();
            assert_eq!(decoded, command);
        }
    }

    #[test]
    fn garbage_and_unknown_tags_are_typed_errors() {
        assert!(matches!(
            decode_command(&[0xFF, 0xFE]),
            Err(CodecError::Malformed { .. })
        ));
        assert!(matches!(
            decode_command(b"{\"not json"),
            Err(CodecError::Malformed { .. })
        ));
        let err = decode_command(b"{\"LaunchMissiles\":[]}").unwrap_err();
        match err {
            CodecError::Decode { detail } => assert!(
                detail.contains("LaunchMissiles"),
                "error should name the unknown tag: {detail}"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn null_and_non_finite_floats_are_rejected_with_paths() {
        // NaN budgets serialize as null — the codec names the path.
        let payload = serde_json::to_string(&Command::UpdateBudget(f64::NAN)).unwrap();
        assert_eq!(payload, "{\"UpdateBudget\":null}");
        assert_eq!(
            decode_command(payload.as_bytes()),
            Err(CodecError::NullValue {
                path: "$.UpdateBudget".into()
            })
        );
        // Out-of-range literals parse to infinity — also rejected.
        assert_eq!(
            decode_command(b"{\"UpdateBudget\":1e999}"),
            Err(CodecError::NonFinite {
                path: "$.UpdateBudget".into()
            })
        );
        // Nested positions are named too.
        assert_eq!(
            decode_command(b"{\"AddClients\":[{\"data_size\":null}]}"),
            Err(CodecError::NullValue {
                path: "$.AddClients[0].data_size".into()
            })
        );
    }

    /// Three quotes in request order, one id repeated. `1.5` and `1.0`
    /// lie in [1, 2), where flipping the exponent's top bit alone makes
    /// the value non-finite.
    fn quotes() -> Vec<PriceQuote> {
        let quote = |id, price, q_eff| PriceQuote {
            id: ClientId(id),
            price,
            q_eff,
        };
        vec![quote(9, 1.5, 0.25), quote(2, 0.0, 0.0), quote(9, 1.5, 1.0)]
    }

    /// A two-client snapshot whose report carries a `null` residual.
    fn snapshot() -> ServiceSnapshot {
        ServiceSnapshot {
            ids: vec![ClientId(1), ClientId(4)],
            prices: vec![1.25, 0.0],
            q_eff: vec![0.5, 1.0],
            budget: 1.75,
            report: RepriceReport {
                clients: 2,
                excluded: 1,
                lambda: Some(0.125),
                spent: 1.75,
                saturated: false,
                theorem2_residual: None,
                warm_started: true,
                warm_start_depth: 3,
                bisect_iterations: 12,
                bisect_evaluations: 14,
                shard_count: 4,
                dirty_shards: 1,
                rebuilt_columns: 2,
                solver_mode: SolverMode::ThresholdIndex,
                probe_evaluations: 40,
                index_rebuild_ns: 0,
            },
        }
    }

    /// A decoded corruption is acceptable only as a reply of the original
    /// kind, with the original counts and every guarded float finite.
    fn well_formed(original: &Response, decoded: &WireReply) -> bool {
        match (original, decoded) {
            (Response::Prices(original), WireReply::Ok(Response::Prices(quotes))) => {
                quotes.len() == original.len()
                    && quotes
                        .iter()
                        .all(|q| q.price.is_finite() && q.q_eff.is_finite())
            }
            (Response::Snapshot(original), WireReply::Ok(Response::Snapshot(s))) => {
                let n = original.ids.len();
                s.ids.len() == n
                    && s.prices.len() == n
                    && s.q_eff.len() == n
                    && s.budget.is_finite()
                    && s.prices.iter().chain(&s.q_eff).all(|x| x.is_finite())
            }
            _ => false,
        }
    }

    #[test]
    fn columnar_replies_round_trip_bit_for_bit() {
        for response in [
            Response::Prices(quotes()),
            Response::Prices(Vec::new()),
            Response::Snapshot(snapshot()),
        ] {
            let reply = WireReply::Ok(response);
            let frame = reply.encode();
            assert!(matches!(frame[0], PRICES_TAG | SNAPSHOT_TAG));
            assert_eq!(WireReply::decode(&frame).unwrap(), reply);
        }
        // 9 header bytes and 24 per quote.
        assert_eq!(encode_prices(&quotes()).len(), 9 + 3 * 24);
        // Every other reply stays JSON.
        let json = WireReply::Ok(Response::Removed(3)).encode();
        assert_eq!(json, b"{\"Ok\":{\"Removed\":3}}");
        assert_eq!(
            WireReply::decode(&json).unwrap(),
            WireReply::Ok(Response::Removed(3))
        );
    }

    #[test]
    fn columnar_length_violations_are_typed() {
        let frame = encode_snapshot(&snapshot());
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(
            WireReply::decode(&long),
            Err(CodecError::Length {
                declared: frame.len() as u64,
                actual: frame.len() + 1,
            })
        );
        // A frame too short for its fixed header.
        assert_eq!(
            WireReply::decode(&[PRICES_TAG, 1, 0]),
            Err(CodecError::Length {
                declared: 9,
                actual: 3
            })
        );
        // A hostile count saturates instead of overflowing or
        // allocating.
        let mut hostile = vec![PRICES_TAG];
        hostile.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            WireReply::decode(&hostile),
            Err(CodecError::Length {
                declared: u64::MAX,
                actual: 9
            })
        );
        // Non-finite values are named by their column and row.
        let mut bad = quotes();
        bad[2].q_eff = f64::NAN;
        assert_eq!(
            decode_prices(&encode_prices(&bad)),
            Err(CodecError::NonFinite {
                path: "$.q_eff[2]".into()
            })
        );
        let mut bad = snapshot();
        bad.budget = f64::INFINITY;
        assert_eq!(
            decode_snapshot(&encode_snapshot(&bad)),
            Err(CodecError::NonFinite {
                path: "$.budget".into()
            })
        );
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_columnar_frame_is_typed_or_well_formed() {
        for original in [Response::Prices(quotes()), Response::Snapshot(snapshot())] {
            let frame = WireReply::Ok(original.clone()).encode();
            for len in 0..frame.len() {
                assert!(
                    WireReply::decode(&frame[..len]).is_err(),
                    "a truncation to {len} of {} bytes decoded",
                    frame.len()
                );
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(decoded) = WireReply::decode(&flipped) {
                    assert!(
                        well_formed(&original, &decoded),
                        "flipping bit {bit} decoded to {decoded:?}"
                    );
                }
            }
        }
    }
}
