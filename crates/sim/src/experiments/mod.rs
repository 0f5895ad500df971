//! The experiment suite: one module per paper table/figure (see DESIGN.md
//! §4 for the experiment index).

pub mod ablations;
pub mod bound_shape;
pub mod cost_rate_curve;
pub mod example1;
pub mod indexing;
pub mod policy_sweep;
pub mod savings;
