//! # fedfl-service — the incremental, availability-aware pricing service
//!
//! The paper's Stage-I Stackelberg solve is a one-shot computation; this
//! crate wraps the equilibrium engine of `fedfl-core` in a long-running
//! [`PricingService`] for a production deployment whose client population
//! churns continuously:
//!
//! * **Command stream** — [`Command::AddClients`], [`Command::RemoveClients`],
//!   [`Command::UpdateAvailability`], [`Command::UpdateBudget`],
//!   [`Command::UpdateBound`], [`Command::Reprice`], and the batched
//!   reads [`Command::GetPrices`] / [`Command::Snapshot`], all through
//!   [`PricingService::execute`] (or the equivalent typed methods).
//! * **Sharded store, dirty-shard rebuilds** — clients are routed to
//!   [`ServiceConfig::shards`] store shards by 32-id block; each shard
//!   caches its clients' solver columns (inclusion masks, the effective
//!   `cost/rate²` and `q_max·rate` transforms) and a delta dirties only
//!   the shards it touches. Ids are issued in sequence and never reused,
//!   so insertion order is id order, and a directory with one live mask
//!   and start position per id block locates any client with one array
//!   index and a popcount. A re-solve rebuilds **only the dirty shards'
//!   columns** — `O(N/S · dirty)` instead of the monolithic `O(N)` — then
//!   gathers them block by block, as slice copies, in insertion order
//!   with the exact `Population::from_raw` normalisation, and solves over
//!   the gathered columns as one population
//!   ([`fedfl_core::server::solve_kkt_columns`]). Prices are
//!   bit-identical for **any** shard count; [`RepriceReport`] records the
//!   dirty-shard accounting.
//! * **Incremental re-solve** — population deltas shift the spend curve of
//!   the KKT path, but the λ\*-bisection can be *warm-started* from the
//!   previous solve's path parameter: the service passes `t* = 1/λ*` as a
//!   hint (rescaled across weight renormalisation and bound updates). The
//!   exact solver refines it with its spend model and Newton steps,
//!   confirms a narrow bracket around the result, and replays the cold
//!   bisection, evaluating only the midpoints inside that bracket. Prices
//!   are therefore **bit-identical** to a from-scratch
//!   [`fedfl_core::server::solve_kkt`] over the same clients at every
//!   step, while warm-started re-solves make far fewer O(N) spend passes
//!   ([`RepriceReport`] records both).
//! * **Availability-aware pricing** — with
//!   [`ServiceConfig::availability_aware`] set, each client is priced
//!   against its *effective* participation `q_eff = q · rate`, where
//!   `rate` is its [`AvailabilityPattern`]'s long-run availability
//!   ([`fedfl_core::population::PopulationColumns::effective`]). Clients
//!   whose effective cap cannot clear the solver floor — including
//!   never-available clients with `rate = 0` — are excluded: they get a
//!   zero effective level and a zero price instead of NaN. With the flag
//!   off the service reproduces the paper's always-on behaviour exactly.
//! * **Certified equilibria** — after every re-solve the service samples
//!   the Theorem 2 invariant `(4R/α)·c q³/(a²G²) + v = 1/λ*` and refuses
//!   to serve prices whose residual exceeds
//!   [`ServiceConfig::residual_tolerance`].
//!
//! # Example
//!
//! ```
//! use fedfl_core::bound::BoundParams;
//! use fedfl_service::{ClientParams, Command, PricingService, Response, ServiceConfig};
//!
//! let config = ServiceConfig::new(BoundParams::new(4_000.0, 100.0, 1_000)?, 10.0);
//! let mut service = PricingService::new(config)?;
//! let clients: Vec<ClientParams> = (1..=4)
//!     .map(|k| ClientParams::always_on(k as f64, 9.0, 30.0 * k as f64, 2.0, 1.0))
//!     .collect();
//! let ids = match service.execute(Command::AddClients(clients))? {
//!     Response::Added(ids) => ids,
//!     _ => unreachable!(),
//! };
//! let report = service.reprice()?;
//! assert!(report.theorem2_residual.unwrap_or(0.0) < 1e-6);
//! let quotes = service.get_prices(&ids)?;
//! assert_eq!(quotes.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod service;
mod store;

use serde::{Deserialize, Serialize};
use std::fmt;

pub use error::ServiceError;
pub use fedfl_obs::{Metric, MetricsReport, MetricsSnapshot, Registry};
pub use fedfl_sim::availability::{AvailabilityModel, AvailabilityPattern};
pub use service::{
    Command, PriceQuote, PricingService, RepriceReport, Response, ServiceConfig, ServiceSnapshot,
};

/// Opaque handle for one registered client. Ids are assigned in sequence
/// by the service at [`Command::AddClients`] time and are never reused,
/// even after the client is removed, so insertion order is id order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Parameters of one client as submitted to the service.
///
/// Unlike [`fedfl_core::population::ClientProfile`], the weight here is the
/// client's *raw* data size `d_n`: the normalised weight `a_n = d_n / Σ d_m`
/// depends on who else is registered, so the service re-derives it at every
/// re-solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientParams {
    /// Raw data size `d_n > 0` (normalised into the weight `a_n`).
    pub data_size: f64,
    /// Squared gradient-norm bound `G_n²`.
    pub g_squared: f64,
    /// Local cost parameter `c_n > 0`.
    pub cost: f64,
    /// Intrinsic-value preference `v_n ≥ 0`.
    pub value: f64,
    /// Maximum feasible participation level `q_{n,max} ∈ (0, 1]`.
    pub q_max: f64,
    /// When the client is reachable (priced in when
    /// [`ServiceConfig::availability_aware`] is set).
    pub availability: AvailabilityPattern,
}

impl ClientParams {
    /// Convenience constructor for an always-available client.
    pub fn always_on(data_size: f64, g_squared: f64, cost: f64, value: f64, q_max: f64) -> Self {
        Self {
            data_size,
            g_squared,
            cost,
            value,
            q_max,
            availability: AvailabilityPattern::AlwaysOn,
        }
    }

    /// Validate the parameters, returning a human-readable reason on
    /// failure.
    pub fn validate(&self) -> Result<(), String> {
        self.raw_profile().validate().map_err(|e| e.to_string())?;
        self.availability.validate().map_err(|e| e.to_string())
    }

    /// The raw-weighted core profile (weight = `data_size`, **not** yet
    /// normalised — feed a batch of these through
    /// [`fedfl_core::population::Population::from_raw`]). Exposed so
    /// from-scratch verifiers share the exact field mapping the service
    /// itself solves with.
    pub fn raw_profile(&self) -> fedfl_core::population::ClientProfile {
        fedfl_core::population::ClientProfile {
            weight: self.data_size,
            g_squared: self.g_squared,
            cost: self.cost,
            value: self.value,
            q_max: self.q_max,
        }
    }
}
