//! Wire-serializable errors: the error-frame payload and the client's
//! failure type.

use crate::codec::{CodecError, FrameError};
use fedfl_service::{ClientId, ServiceError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which codec rule a rejected frame violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodecViolation {
    /// Payload was not valid UTF-8/JSON.
    Malformed,
    /// JSON did not decode as a command (unknown tag, missing field).
    Decode,
    /// A `null` appeared where a finite value is required.
    NullValue,
    /// A float parsed to a non-finite value.
    NonFinite,
    /// The frame itself broke the protocol: oversized, or a columnar
    /// frame whose length disagrees with its declared counts.
    Frame,
}

/// The error payload of a wire error frame — a serializable mirror of
/// every [`ServiceError`] variant plus the codec layer's rejections.
///
/// `ServiceError` itself carries `&'static str` fields and nested engine
/// errors that cannot be deserialized; this mirror owns all its strings,
/// so any error the handler can produce survives the round trip through
/// an error frame bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// Mirrors [`ServiceError::InvalidConfig`].
    InvalidConfig {
        /// Which config field is invalid.
        field: String,
        /// The violated constraint.
        reason: String,
    },
    /// Mirrors [`ServiceError::InvalidClient`].
    InvalidClient {
        /// Position of the offending client in the submitted batch.
        index: usize,
        /// The violated constraint.
        reason: String,
    },
    /// Mirrors [`ServiceError::UnknownClient`].
    UnknownClient(u64),
    /// Mirrors [`ServiceError::DuplicateRemoval`].
    DuplicateRemoval(u64),
    /// Mirrors [`ServiceError::AvailabilityMismatch`].
    AvailabilityMismatch {
        /// Clients currently registered.
        clients: usize,
        /// Patterns submitted.
        patterns: usize,
    },
    /// Mirrors [`ServiceError::NoPriceableClients`].
    NoPriceableClients {
        /// Total clients registered.
        registered: usize,
    },
    /// Mirrors [`ServiceError::InvariantViolated`]. Both fields are
    /// finite by construction (a non-finite tolerance never validates),
    /// so they survive JSON.
    InvariantViolated {
        /// Maximum sampled relative residual.
        residual: f64,
        /// The configured tolerance it exceeded.
        tolerance: f64,
    },
    /// Mirrors [`ServiceError::Game`], flattened to its message (the
    /// engine error tree carries `&'static str` names).
    Game {
        /// The engine error's rendered message.
        message: String,
    },
    /// The codec rejected the frame before any command existed.
    Codec {
        /// Which rule the frame violated.
        violation: CodecViolation,
        /// The rendered codec error.
        detail: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::InvalidConfig { field, reason } => {
                write!(f, "invalid service config `{field}`: {reason}")
            }
            WireError::InvalidClient { index, reason } => {
                write!(f, "invalid client at batch index {index}: {reason}")
            }
            WireError::UnknownClient(id) => write!(f, "unknown client id {id}"),
            WireError::DuplicateRemoval(id) => {
                write!(f, "client id {id} appears twice in one removal batch")
            }
            WireError::AvailabilityMismatch { clients, patterns } => write!(
                f,
                "availability model has {patterns} patterns for {clients} clients"
            ),
            WireError::NoPriceableClients { registered } => write!(
                f,
                "no priceable clients ({registered} registered, all excluded or none present)"
            ),
            WireError::InvariantViolated {
                residual,
                tolerance,
            } => write!(
                f,
                "theorem 2 invariant violated after re-solve: residual {residual:.3e} > {tolerance:.3e}"
            ),
            WireError::Game { message } => write!(f, "equilibrium engine error: {message}"),
            WireError::Codec { detail, .. } => write!(f, "rejected frame: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<&ServiceError> for WireError {
    fn from(e: &ServiceError) -> Self {
        match e {
            ServiceError::InvalidConfig { field, reason } => WireError::InvalidConfig {
                field: (*field).to_string(),
                reason: reason.clone(),
            },
            ServiceError::InvalidClient { index, reason } => WireError::InvalidClient {
                index: *index,
                reason: reason.clone(),
            },
            ServiceError::UnknownClient(ClientId(id)) => WireError::UnknownClient(*id),
            ServiceError::DuplicateRemoval(ClientId(id)) => WireError::DuplicateRemoval(*id),
            ServiceError::AvailabilityMismatch { clients, patterns } => {
                WireError::AvailabilityMismatch {
                    clients: *clients,
                    patterns: *patterns,
                }
            }
            ServiceError::NoPriceableClients { registered } => WireError::NoPriceableClients {
                registered: *registered,
            },
            ServiceError::InvariantViolated {
                residual,
                tolerance,
            } => WireError::InvariantViolated {
                residual: *residual,
                tolerance: *tolerance,
            },
            ServiceError::Game(game) => WireError::Game {
                message: game.to_string(),
            },
        }
    }
}

impl From<ServiceError> for WireError {
    fn from(e: ServiceError) -> Self {
        WireError::from(&e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        let violation = match &e {
            CodecError::Malformed { .. } => CodecViolation::Malformed,
            CodecError::Decode { .. } => CodecViolation::Decode,
            CodecError::NullValue { .. } => CodecViolation::NullValue,
            CodecError::NonFinite { .. } => CodecViolation::NonFinite,
            CodecError::Length { .. } => CodecViolation::Frame,
        };
        WireError::Codec {
            violation,
            detail: e.to_string(),
        }
    }
}

/// What a [`crate::client::PricingClient`] call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection or framing failed.
    Frame(FrameError),
    /// The server's reply frame did not decode.
    Protocol {
        /// What went wrong with the reply.
        detail: String,
    },
    /// The server answered with an error frame.
    Server(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}
