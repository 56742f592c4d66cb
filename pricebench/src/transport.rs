//! How the benchmark reaches the service: in process through
//! `PricingService::execute`, or over one loopback TCP connection
//! through `PricingClient::call`.

use fedfl_net::{serve, PricingClient, ServerHandle, ServerOptions};
use fedfl_service::{Command, PricingService, Response};
use std::net::TcpListener;

/// One command in, one reply out.
pub trait Transport {
    /// Send `command`; a service error, error frame or transport failure
    /// is an `Err` with its message.
    fn call(&mut self, command: Command) -> Result<Response, String>;
}

impl Transport for PricingService {
    fn call(&mut self, command: Command) -> Result<Response, String> {
        self.execute(command).map_err(|e| e.to_string())
    }
}

/// A loopback server in this process and the one client connected to
/// it.
pub struct Wire {
    // Dropped before the server, so the connection closes first.
    client: PricingClient,
    // Held for its lifetime: dropping the handle shuts the server down.
    _server: ServerHandle,
}

impl Wire {
    /// Serve `service` on an ephemeral loopback port and connect to it.
    pub fn boot(service: PricingService) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let server =
            serve(service, listener, ServerOptions::default(), None).map_err(|e| e.to_string())?;
        let client = PricingClient::connect(server.addr()).map_err(|e| e.to_string())?;
        Ok(Wire {
            client,
            _server: server,
        })
    }
}

impl Transport for Wire {
    fn call(&mut self, command: Command) -> Result<Response, String> {
        self.client.call(&command).map_err(|e| e.to_string())
    }
}

/// The system under test.
pub enum Target {
    /// The service, called in process.
    InProcess(Box<PricingService>),
    /// The service behind a loopback server.
    Wire(Wire),
}

impl Transport for Target {
    fn call(&mut self, command: Command) -> Result<Response, String> {
        match self {
            Target::InProcess(service) => service.call(command),
            Target::Wire(wire) => wire.call(command),
        }
    }
}
