//! # fedfl-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section VI) on the simulated testbed:
//!
//! * [`setups`] — Setups 1–3 of Table I (dataset + budget + cost/value
//!   means), in both paper scale and a scaled-down "quick" profile.
//! * [`experiment`] — the end-to-end pipeline: generate data → estimate
//!   `G_n²`/`σ_n²`/`L` from a warm-up → calibrate the Theorem 1 constants →
//!   solve each pricing scheme → train with the induced participation
//!   levels → collect traces.
//! * [`report`] — plain-text table/series printers shared by the `table*`
//!   and `fig*` binaries.
//! * [`tcp`] — the loopback-TCP workload driver behind
//!   `workload --transport tcp`: boots a `fedfl-net` server, replays the
//!   trace through it, and must reproduce the in-process price bits.
//!
//! Each paper artefact has a binary: `fig4`, `table2`, `table3`, `table4`,
//! `table5`, `fig5`, `fig6`, `fig7`, plus the ablations
//! `ablation_aggregation`, `ablation_solver` and `ablation_bound`. The
//! harness binaries `workload` (closed-loop replay, in process or over
//! TCP) and `scale_equilibrium` (the million-client solve) print their
//! measurements and exit non-zero when a gate fails; the workload's
//! numbers and counter gates all read one obs metrics snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiment;
pub mod report;
pub mod setups;
pub mod tcp;
