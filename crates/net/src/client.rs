//! A small blocking client for the TCP front-end.

use crate::codec::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::error::ClientError;
use crate::protocol::WireReply;
use fedfl_obs::MetricsReport;
use fedfl_service::{Command, Response};
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to a pricing server: one in-flight request at a
/// time, one reply frame per request.
pub struct PricingClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: usize,
}

impl PricingClient {
    /// Connect with the default frame cap.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Frame`] for connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, DEFAULT_MAX_FRAME)
    }

    /// Connect with an explicit frame cap (must match the server's to
    /// round-trip large snapshots).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Frame`] for connection failures.
    pub fn connect_with(addr: impl ToSocketAddrs, max_frame: usize) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        let read_half = stream.try_clone().map_err(FrameError::Io)?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            max_frame,
        })
    }

    /// Execute one command, returning the service's reply.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Server`] when the server answers with an
    /// error frame, [`ClientError::Frame`]/[`ClientError::Protocol`] for
    /// transport and decode failures.
    pub fn call(&mut self, command: &Command) -> Result<Response, ClientError> {
        let payload = serde_json::to_string(command).map_err(|e| ClientError::Protocol {
            detail: format!("command failed to serialize: {e}"),
        })?;
        match self.call_raw(payload.as_bytes())? {
            WireReply::Ok(response) => Ok(response),
            WireReply::Err(err) => Err(ClientError::Server(err)),
        }
    }

    /// Scrape the server's metrics: a typed snapshot covering the
    /// solver, service and net subsystems, plus the Prometheus-style
    /// text exposition. Served lock-free — a scrape never queues behind
    /// the single writer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PricingClient::call`], plus
    /// [`ClientError::Protocol`] if the server answers a `Metrics`
    /// command with anything but a metrics report.
    pub fn metrics(&mut self) -> Result<MetricsReport, ClientError> {
        match self.call(&Command::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(ClientError::Protocol {
                detail: format!("Metrics answered with {other:?}"),
            }),
        }
    }

    /// Send a raw frame payload and decode the reply frame — the escape
    /// hatch wire tests use to deliver deliberately malformed payloads.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Frame`] for transport failures and
    /// [`ClientError::Protocol`] if the reply does not decode.
    pub fn call_raw(&mut self, payload: &[u8]) -> Result<WireReply, ClientError> {
        write_frame(&mut self.writer, payload, self.max_frame)?;
        let reply =
            read_frame(&mut self.reader, self.max_frame)?.ok_or_else(|| ClientError::Protocol {
                detail: "server closed the connection before replying".to_string(),
            })?;
        WireReply::decode(&reply).map_err(|e| ClientError::Protocol {
            detail: e.to_string(),
        })
    }
}
