//! std-only TCP front-end for the pricing service.
//!
//! The paper's mechanism is a *server* pricing a churning client
//! population; this crate puts [`fedfl_service::PricingService`] on the
//! wire so remote peers can drive it with the existing
//! [`fedfl_service::Command`]/[`fedfl_service::Response`] stream:
//!
//! * [`codec`] — length-prefixed frames (4-byte big-endian length, then
//!   the payload) with a strict decode gate: frame-size caps, typed
//!   errors for garbage payloads and unknown command tags, and rejection
//!   of `null`/non-finite floats so a NaN can never be smuggled into the
//!   solver. Commands and most replies are UTF-8 JSON; the bulk replies,
//!   `Prices` and `Snapshot`, are columnar binary frames (a tag byte,
//!   little-endian counts, then `u64` id and `f64` price and `q_eff`
//!   columns), held to the same gate: counts that match the frame
//!   length exactly and finite floats only;
//! * [`protocol`] — [`WireReply`], one reply frame per request, which
//!   picks the columnar or JSON encoding by reply and tells them apart
//!   by the first byte on decode;
//! * [`server`] — a [`std::net::TcpListener`] thread-per-connection
//!   loop. Reads are served concurrently from the last
//!   Theorem-2-certified equilibrium behind a `RwLock`; mutations funnel
//!   through the single-writer re-solve, so no connection ever observes
//!   an uncertified price. A snapshot reply is encoded straight from the
//!   published view, without copying it;
//! * [`client`] — a small blocking client;
//! * [`recorder`] — a JSONL wire-trace recorder with an in-process
//!   replay verifier, for replayable debugging;
//! * [`error`] — [`WireError`], the serializable mirror of every
//!   [`fedfl_service::ServiceError`] variant that error frames carry.
//!
//! The bit-identity contract: a command stream replayed over loopback
//! TCP serves byte-for-byte the same price bits (and therefore the same
//! workload `price_checksum`) as the same stream executed in process.
//! `crates/bench`'s `workload --transport tcp` asserts this on the 10k
//! reference trace in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod error;
pub mod protocol;
pub mod recorder;
pub mod server;

pub use client::PricingClient;
pub use codec::{CodecError, FrameError, DEFAULT_MAX_FRAME};
pub use error::{ClientError, CodecViolation, WireError};
pub use protocol::WireReply;
pub use recorder::{load_records, verify_records, WireRecord, WireRecorder};
pub use server::{serve, ServerHandle, ServerOptions};
