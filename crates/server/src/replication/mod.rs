//! WAL-shipping replication: a leader streams its write-ahead log to
//! warm standby followers over TCP.
//!
//! The log is already a complete, ordered, CRC-framed change stream
//! (every mutation is appended before the paper's imprecision machinery
//! ever answers a query from it), so replication is log shipping plus
//! careful failure handling:
//!
//! - the **leader** ([`crate::DurableDatabase::serve_replication`])
//!   bootstraps each follower from its newest snapshot and then tails
//!   its own segments with [`modb_wal::SegmentTailer`], shipping records
//!   in bounded runs; follower acknowledgements feed the
//!   [`ShipHorizon`], the compaction barrier that keeps unshipped log
//!   alive ([`modb_wal::compact_with_barrier`]);
//! - the **follower** ([`StandbyReplica`]) replays the stream through
//!   [`modb_wal::apply_record`] — the exact seam recovery uses — into
//!   its own database, persists what it applies to a local log, and
//!   tracks an applied watermark so a reconnect (or restart) resumes
//!   incrementally instead of re-bootstrapping;
//! - each side's decisions are an I/O-free state machine (`session.rs`),
//!   driven by the socket thread around it and tested without one.
//!
//! A lagging follower is not wrong, just stale in a *bounded* way: if it
//! lags the leader by `dt` seconds of database time, a position answered
//! from it deviates from the leader's answer by at most `D·dt` where `D`
//! bounds the relative drift rate (§3.3 of the paper; see DESIGN.md §10,
//! and `tests/follower_truth.rs` for the served answers checked against
//! ground truth). The lag is a follower's only staleness: each
//! statement reads a clone of the follower's database taken when it
//! starts.

mod follower;
mod horizon;
mod lag;
mod leader;
mod protocol;
mod session;

pub use follower::{
    DivergenceInfo, ReplicaConfig, ReplicaPhase, ReplicaStatsSnapshot, ReplicaWatch, StandbyReplica,
};
pub use horizon::ShipHorizon;
pub use lag::LagClock;
pub use leader::{ReplicationConfig, ReplicationServer, ReplicationStatsSnapshot};
