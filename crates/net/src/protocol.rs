//! The reply frame: one tagged union per request frame.
//!
//! `Prices` and `Snapshot` replies travel as columnar binary frames (see
//! [`crate::codec`] for the layout); every other reply, errors included,
//! is JSON. [`WireReply::decode`] tells the two apart by the first byte.

use crate::codec::{
    decode_json, decode_prices, decode_snapshot, encode_prices, encode_snapshot, CodecError,
    PRICES_TAG, SNAPSHOT_TAG,
};
use crate::error::WireError;
use fedfl_service::Response;
use serde::{Deserialize, Serialize};

/// The server's answer to one request frame — exactly one reply frame
/// per request, success or error, so a client can always correlate by
/// order within its connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireReply {
    /// The command executed; the service's reply.
    Ok(Response),
    /// The command was rejected — by the codec before execution, or by
    /// the service during it. The service state is unchanged either way.
    Err(WireError),
}

impl WireReply {
    /// Encode this reply as a frame payload: columnar for `Prices` and
    /// `Snapshot`, JSON otherwise.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireReply::Ok(Response::Prices(quotes)) => encode_prices(quotes),
            WireReply::Ok(Response::Snapshot(snapshot)) => encode_snapshot(snapshot),
            json => serde_json::to_string(json)
                .expect("replies serialize infallibly")
                .into_bytes(),
        }
    }

    /// Decode a reply frame payload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`] if the payload is not a well-formed
    /// reply: a columnar frame whose counts disagree with its length or
    /// that carries a non-finite float, or JSON that does not parse or
    /// is not a reply.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        match payload.first() {
            Some(&PRICES_TAG) => Ok(WireReply::Ok(Response::Prices(decode_prices(payload)?))),
            Some(&SNAPSHOT_TAG) => Ok(WireReply::Ok(Response::Snapshot(decode_snapshot(payload)?))),
            _ => decode_json(payload),
        }
    }
}
