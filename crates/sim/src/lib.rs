//! # modb-sim — the simulation testbed (§3.4)
//!
//! Reproduces the paper's evaluation: "for each speed-curve, update
//! policy, and update cost C we execute a simulation run that computes the
//! total cost and the average uncertainty … then, for each policy, we
//! average over all the speed curves."
//!
//! - [`runner::run_policy`]: one (trip, policy) simulation run.
//! - [`workload::Workload`]: seeded sets of one-hour trips.
//! - [`experiments`]: one module per table/figure — the policy sweep
//!   (F1–F3), the 85 %-savings comparison (T1), Example 1 (T2), the
//!   bound-shape curves (F4), and the indexing experiments (F5, T3, F6).
//! - `modb-exp <name> [args…]` runs one experiment and prints its tables;
//!   see EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod experiments;
mod metrics;
mod report;
mod runner;
mod workload;

pub use metrics::{AggregateMetrics, RunMetrics};
pub use report::{fmt, render_table};
pub use runner::{run_policy, DEFAULT_TICK};
pub use workload::{fleet_positions, Workload, WorkloadConfig};
