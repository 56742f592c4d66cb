//! # fedfl-num — numeric substrate for the `fedfl` workspace
//!
//! This crate provides every piece of numerical machinery the paper's
//! reproduction needs but that we deliberately do not pull from external
//! numeric crates:
//!
//! * [`rng`] — seeded, splittable random-number-generator helpers so every
//!   experiment in the workspace is reproducible from a single `u64` seed.
//! * [`dist`] — samplers for the Normal, Exponential, LogNormal,
//!   bounded-Pareto (power-law) and Bernoulli distributions used by the
//!   dataset generators and the system-heterogeneity model.
//! * [`roots`] — scalar root finding (bisection) and an analytic/iterative
//!   cubic solver for the client best-response equation (13) of the paper.
//! * [`search`] — golden-section and grid line search, used for the paper's
//!   one-dimensional search over the auxiliary variable `M` in Problem P1''.
//! * [`solve`] — a projected-gradient solver for smooth convex problems on a
//!   box, plus monotone bisection used for budget-tightening.
//! * [`parallel`] — deterministic chunked parallel reductions and fills:
//!   the per-client passes of the Stage-I solvers run on a worker pool with
//!   a fixed summation tree, so results are bit-identical regardless of
//!   thread count.
//! * [`prefix`] — the stable `total_cmp` argsort behind the
//!   threshold-indexed active-set fast path.
//! * [`linalg`] — dense vector/matrix operations backing the multinomial
//!   logistic-regression substrate.
//! * [`stats`] — descriptive statistics (mean, variance, quantiles, Pearson
//!   and Spearman correlation) used by the experiment harness.
//!
//! # Example
//!
//! ```
//! use fedfl_num::rng::seeded;
//! use fedfl_num::dist::Normal;
//!
//! let mut rng = seeded(7);
//! let normal = Normal::new(0.0, 1.0).expect("valid parameters");
//! let x = normal.sample(&mut rng);
//! assert!(x.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod error;
pub mod linalg;
pub mod parallel;
pub mod prefix;
pub mod rng;
pub mod roots;
pub mod search;
pub mod solve;
pub mod stats;

pub use error::NumError;
