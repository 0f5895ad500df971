//! Sharded deployment: shard keys, a scatter-gather router, and a
//! cost-modeled shard-key evaluator.
//!
//! One `modb-server` node holds one fleet. Past that, the fleet is
//! *partitioned*: each of N shard servers owns a subset of the moving
//! objects (its own database, WAL, ingest service, and query engine),
//! and three pieces make the partition look like one database:
//!
//! - [`ShardMap`] ([`ShardKey`]): who owns which object — hash of the
//!   object id (uniform, id-routable, no spatial locality) or spatial
//!   regions (local range queries stay local, but objects drift).
//! - [`ClusterRouter`]: the data plane. Updates go to the owning shard
//!   over the remote-ingest frames, where the session thread that reads
//!   one logs, applies and acks it; `;`-batch queries are routed
//!   per statement and the per-shard verdicts merged so the cluster
//!   answers exactly like a single node holding the union fleet (see
//!   the `router` module docs for the merge rules and the one
//!   diagnostics-only exception). Shard failures surface as typed
//!   [`ClusterError`]s, never as silently partial answers.
//! - [`CostModel`]: the design plane. Scores a candidate map against a
//!   [`RecordedWorkload`] on normalized network / disk / temporal-skew
//!   axes (weighted `α`, `β`, `γ`), so "which key fits this fleet?"
//!   is answered by measurement — experiment W6 (`exp_sharding`) runs
//!   exactly that comparison.
//!
//! The paper's cost/imprecision tradeoff (§5) prices one vehicle's
//! radio messages against its deviation bound; a cluster adds a second
//! ledger — interconnect fan-out and per-shard WAL load against
//! placement quality — and this module makes both columns measurable.

mod cost;
mod router;
mod shard_map;

pub use cost::{CostBreakdown, CostModel, RecordedWorkload, WorkloadOp};
pub use router::{ClusterError, ClusterRouter};
pub use shard_map::{ShardKey, ShardMap};
