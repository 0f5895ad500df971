//! The network front-end: remote query batches and a metrics scrape over
//! the transport the replication stream uses (`crate::framed`).
//!
//! The paper's deployment has *queries* arriving over the network, not
//! just position updates; this module is that last wire. A
//! [`QueryServer`] (started with
//! [`crate::DurableDatabase::serve_queries`]) accepts clients, fans
//! their `;`-scripts through the query engine's batch path, and streams
//! back one structurally encoded verdict per statement — a remote batch
//! returns exactly what a local [`crate::QueryEngine::run_batch`] call
//! would. The same connection answers `StatsRequest` with a
//! [`ServerStatsSnapshot`]: query counters and latency percentiles,
//! ingest accept/reject counts and queue depth, WAL bytes/fsyncs, and
//! the replication ship horizon, gathered in one frame so a monitoring
//! scrape sees one instant, with
//! [`ServerStatsSnapshot::prometheus_text`] rendering the conventional
//! text exposition.
//!
//! Front-end overhead is part of the paper's cost story: the update-cost
//! model in §5 prices communication, and the benchmark ledger's
//! `net.query_self_us` row (`modb_ledger`, traced run) measures what the
//! wire adds per statement over the in-process path.

mod client;
mod protocol;
mod server;

pub use client::{BatchOutcome, QueryClient};
pub use protocol::{
    RemoteUpdateVerdict, RemoteVerdict, ServerStatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
};
pub use server::{QueryServer, QueryServerConfig};

#[cfg(test)]
pub(crate) use client::Reply;
#[cfg(test)]
pub(crate) use protocol::{Message, NET_PROTOCOL_VERSION};
#[cfg(test)]
pub(crate) use server::{FrontSession, ServeContext};
