//! # modb-server — service façade for the moving-objects database
//!
//! The paper's deployment (§1) has many vehicles sending position updates
//! over wireless links while stationary and mobile users pose queries.
//! This crate provides that service shape on top of `modb-core`:
//!
//! - [`SharedDatabase`]: a cloneable, thread-safe handle (readers–writer
//!   locking via `parking_lot`): [`SharedDatabase::with_read`] for a read
//!   under the lock, and no public write. A log record becomes state only
//!   through [`modb_wal::apply_record`], which the handle runs under its
//!   write lock for the leader's writes, its ingest sends and a
//!   follower's runs alike — the seam recovery replays through — so no
//!   public call changes a node without logging it. Served statements
//!   read through [`QueryEngine`].
//! - [`IngestService`]: an asynchronous stream of [`UpdateEnvelope`]s
//!   into a [`DurableDatabase`]. It owns no thread:
//!   [`IngestHandle::send`] logs and applies an update on the thread that
//!   received it, through the database's one write path, with per-reason
//!   accepted/rejected counters — rejected messages (stale, off-route,
//!   unknown sender) are radio-network business as usual — and
//!   [`IngestHandle::send_acked`] returns a [`PendingAck`] whose `recv`
//!   waits for the log's group-commit fsync.
//! - [`DurableDatabase`]: the durable deployment shape — a shared database
//!   whose mutations are write-ahead logged through one write path (each
//!   applied and framed under one lock, so the log replays them in the
//!   order they were applied, and appended after application so the WAL
//!   watermark never runs ahead of the state), with pause-free snapshots
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
//!   followers, which replay it through the same apply seam into their own
//!   database + query engine; follower acknowledgements form the
//!   [`ShipHorizon`] compaction barrier, and replication lag prices into
//!   the paper's deviation bound as `D·dt` (see the `replication` module
//!   docs). A leader's [`DurableDatabase`] and a [`StandbyReplica`] are
//!   one node underneath: one database, directory, horizon and epoch
//!   history, and one watermark from which the front-end and the
//!   replication listener — each written once — read the frontier and
//!   the lag, so a standby promoted under them serves as a leader.
//! - **Query front-end** ([`DurableDatabase::serve_queries`] /
//!   [`QueryClient`]): remote `;`-batches and a one-frame metrics scrape
//!   ([`ServerStatsSnapshot`], with a Prometheus text exposition), with
//!   connection caps, frame caps, handshake and stall deadlines, and a
//!   drained shutdown. Its sessions and client, like replication's, are
//!   step functions over one transport's `Link` and `Clock` (`framed`).

#![warn(missing_docs)]

mod durable;
mod framed;
mod ingest;
mod net;
mod node;
mod query_engine;
mod replication;
mod shared;

pub use durable::DurableDatabase;
pub use ingest::{
    IngestClosed, IngestHandle, IngestService, IngestStats, IngestStatsSnapshot, PendingAck,
    UpdateEnvelope, UpdateOutcome, WAL_BATCH_RECORDS,
};
pub use net::{
    BatchOutcome, QueryClient, QueryServer, QueryServerConfig, RemoteUpdateVerdict, RemoteVerdict,
    ServerStatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
};
pub use query_engine::{QueryEngine, QueryEngineConfig, QueryStats, QueryStatsSnapshot};
pub use replication::{
    DivergenceInfo, LagClock, ReplicaConfig, ReplicaPhase, ReplicaStatsSnapshot, ReplicaWatch,
    ReplicationConfig, ReplicationServer, ReplicationStatsSnapshot, ShipHorizon, StandbyReplica,
};
pub use shared::SharedDatabase;
