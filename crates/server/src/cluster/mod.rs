//! Sharded deployment: shard keys and a scatter-gather router.
//!
//! One `modb-server` node holds one fleet. Past that, the fleet is
//! *partitioned*: each of N shard servers owns a subset of the moving
//! objects (its own database, WAL, ingest service, and query engine),
//! and two pieces make the partition look like one database:
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
//!
//! Which key fits a fleet is a measurement, not a decree: experiment W6
//! (`modb-exp w6`) scores hash and spatial maps against generated
//! workloads on network fan-out, per-shard WAL load and temporal skew.

mod router;
mod shard_map;

pub use router::{ClusterError, ClusterRouter};
pub use shard_map::{ShardKey, ShardMap};
