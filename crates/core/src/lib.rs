//! # fedfl-core — the CPL Stackelberg game (the paper's contribution)
//!
//! This crate implements the incentive mechanism of *"Incentive Mechanism
//! Design for Unbiased Federated Learning with Randomized Client
//! Participation"* (Luo et al., ICDCS 2023):
//!
//! * [`population`] — per-client parameters: data weight `a_n`, gradient
//!   heterogeneity `G_n²`, local cost `c_n`, intrinsic value `v_n`.
//! * [`bound`] — the convergence bound of **Theorem 1**, the analytical
//!   surrogate that lets the server price client participation without
//!   training the model.
//! * [`response`] — **Stage II**: each client's best-response participation
//!   level, the unique positive root of the cubic first-order condition
//!   (13), and its inverse price map (17).
//! * [`server`] — **Stage I**: the server's optimal-pricing problem P1′,
//!   solved both by the KKT/λ-bisection derived from (22) and by the
//!   paper's literal two-step `M`-search over P1″. Services that never
//!   build a [`Population`] solve one set of solver columns
//!   ([`population::PopulationColumns`]) with
//!   [`server::solve_kkt_columns`].
//! * [`pricing`] — the three pricing schemes compared in Section VI:
//!   optimal (ours), uniform, and datasize-weighted.
//! * [`equilibrium`] — the Stackelberg equilibrium object with the
//!   property checks of Section V-C (budget tightness, Theorem 2 invariant,
//!   Theorem 3 payment-direction threshold, client utilities).
//! * [`game`] — the [`game::CplGame`] façade tying the stages together.
//! * [`active_set`] — the threshold-indexed active-set structure behind
//!   the opt-in sub-linear λ-probe fast path of the Stage-I solver.
//!
//! Extensions beyond the paper's main text (each named as future work in
//! its Section VII):
//!
//! * [`tau`] — arbitrary cost exponents `τ > 1` (the paper's claim that
//!   its results survive general convex costs, made executable);
//! * [`bayesian`] — incomplete information: prices posted from priors over
//!   `(c_n, v_n)` instead of known types;
//! * [`cost`] — the decoupled computation/communication cost model.
//!
//! # Example
//!
//! ```
//! use fedfl_core::bound::BoundParams;
//! use fedfl_core::game::CplGame;
//! use fedfl_core::population::Population;
//!
//! // Four clients with equal data but different costs/values.
//! let population = Population::builder()
//!     .weights(vec![0.25; 4])
//!     .g_squared(vec![4.0; 4])
//!     .costs(vec![30.0, 50.0, 70.0, 90.0])
//!     .values(vec![0.0, 10.0, 20.0, 40.0])
//!     .build()?;
//! let bound = BoundParams::new(2000.0, 50.0, 100)?;
//! let game = CplGame::new(population, bound, 25.0)?;
//! let se = game.solve()?;
//! assert!(se.is_budget_tight(1e-6) || se.is_saturated());
//! # Ok::<(), fedfl_core::GameError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active_set;
pub mod bayesian;
pub mod bound;
pub mod cost;
pub mod equilibrium;
pub mod error;
pub mod game;
pub mod population;
pub mod pricing;
pub mod response;
pub mod server;
pub mod tau;

pub use bound::BoundParams;
pub use equilibrium::StackelbergEquilibrium;
pub use error::GameError;
pub use game::CplGame;
pub use population::{ClientProfile, Population};
pub use pricing::PricingScheme;
