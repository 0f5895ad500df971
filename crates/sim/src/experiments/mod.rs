//! The experiment suite: one module per paper table/figure (see DESIGN.md
//! §4 for the experiment index).

pub mod ablations;
pub mod bound_shape;
pub mod cost_rate_curve;
pub mod example1;
pub mod failover;
pub mod indexing;
pub mod policy_sweep;
pub mod read_fanout;
pub mod replication;
pub mod savings;
pub mod wal_throughput;
