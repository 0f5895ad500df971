//! # modb-server — service façade for the moving-objects database
//!
//! The paper's deployment (§1) has many vehicles sending position updates
//! over wireless links while stationary and mobile users pose queries.
//! This crate provides that service shape on top of `modb-core`:
//!
//! - [`SharedDatabase`]: a cloneable, thread-safe handle (readers–writer
//!   locking via `parking_lot`): the write operations, and
//!   [`SharedDatabase::with_read`] for a read under the lock. Served
//!   statements read through [`QueryEngine`] instead.
//! - [`IngestService`]: the write path for an asynchronous stream of
//!   [`UpdateEnvelope`]s. It owns no thread: [`IngestHandle::send`] logs
//!   and applies an update on the thread that received it, under one of
//!   `n` lock stripes (`id % n`) that keep each object's log order equal
//!   to its apply order, with per-reason accepted/rejected counters —
//!   rejected messages (stale, off-route, unknown sender) are
//!   radio-network business as usual. Built over a `modb-wal` writer it
//!   logs every envelope (batched per stripe, appended after application
//!   so the WAL watermark never runs ahead of the state), and
//!   [`IngestHandle::send_acked`] returns a [`PendingAck`] whose `recv`
//!   waits for the group-commit fsync.
//! - [`DurableDatabase`]: the durable deployment shape — a shared database
//!   whose mutations are write-ahead logged, with pause-free snapshots
//!   ([`SharedDatabase::write_snapshot`]: a clone taken under a brief
//!   read lock, serialized with no database lock held, then dropped) and
//!   crash recovery ([`DurableDatabase::open`] /
//!   [`SharedDatabase::recover`]).
//! - [`QueryEngine`]: statement reads — each statement runs lock-free on
//!   its caller's thread against a clone of the database taken when it
//!   starts (O(1), under a brief read lock), so it sees every write
//!   applied before it began; a `;`-batch runs in order against one
//!   clone, and [`QueryStats`] tracks counts and latency percentiles.
//! - **Replication** ([`DurableDatabase::serve_replication`] /
//!   [`StandbyReplica`]): the leader ships its WAL (bootstrap snapshot +
//!   streamed segments) over a CRC-framed socket protocol to warm standby
//!   followers, which replay it through the recovery seam into their own
//!   database + query engine; follower acknowledgements form the
//!   [`ShipHorizon`] compaction barrier, and replication lag prices into
//!   the paper's deviation bound as `D·dt` (see the `replication` module
//!   docs).
//! - **Query front-end** ([`DurableDatabase::serve_queries`] /
//!   [`QueryClient`]): remote `;`-batches and a one-frame metrics scrape
//!   ([`ServerStatsSnapshot`], with a Prometheus text exposition) over
//!   the same CRC-framed socket protocol, with connection caps, frame
//!   caps, stalled-client deadlines, and drained shutdown (see the `net`
//!   module docs).

#![warn(missing_docs)]

mod durable;
mod framed;
mod ingest;
mod net;
mod query_engine;
mod replication;
mod shared;

pub use durable::DurableDatabase;
pub use ingest::{
    IngestClosed, IngestHandle, IngestService, IngestStats, IngestStatsSnapshot, PendingAck,
    UpdateEnvelope, UpdateOutcome, WAL_BATCH_RECORDS,
};
pub use net::{
    BatchOutcome, FollowerStatus, QueryClient, QueryClientConfig, QueryServer, QueryServerConfig,
    ReadRouter, ReadRouterConfig, RemoteUpdateVerdict, RemoteVerdict, RouterError,
    ServerStatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
};
pub use query_engine::{QueryEngine, QueryEngineConfig, QueryStats, QueryStatsSnapshot};
pub use replication::{
    DivergenceInfo, FailoverConfig, FailoverCoordinator, FailoverError, FailoverOutcome,
    FailoverPlan, ReplicaConfig, ReplicaPhase, ReplicaStatsSnapshot, ReplicaWatch,
    ReplicationConfig, ReplicationServer, ReplicationStatsSnapshot, ShipHorizon, StandbyReplica,
};
pub use shared::SharedDatabase;
