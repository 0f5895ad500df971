//! # modb-core — the moving-objects DBMS
//!
//! Ties the workspace together into the database system of Wolfson et al.
//! (ICDE 1998):
//!
//! - [`PositionAttribute`]: the seven sub-attributes of §2, with the
//!   database-position semantics (extrapolation along the route at the
//!   declared speed).
//! - [`PolicyDescriptor`]: what `P.policy` tells the DBMS — enough to
//!   bound the deviation at any time (§3.3).
//! - [`Database`]: update ingestion (§3.1 position updates, route
//!   changes, policy changes), the §4.2 index maintenance, and query
//!   processing — position-with-bound queries, polygon range queries with
//!   may/must semantics (Theorems 5–6), and within-distance queries for
//!   both stationary and moving anchors (§1's taxi and trucking queries).
//!
//! Index-backed range queries and exhaustive-scan range queries return
//! identical answers; the benchmarks measure the sublinearity gap.
//!
//! The database is also a *versioned store*: every mutation is recorded
//! in a bounded change log, and the holder of a [`ChangeCursor`] pulls
//! a stale copy forward in O(changes) with [`Database::sync_from`] —
//! the mechanism behind the epoch publisher in `modb-server`.

#![warn(missing_docs)]

mod attr;
mod changes;
mod database;
mod error;
mod history;
mod nearest;
mod object;
mod query;
mod route_distance_query;
mod update;

pub use attr::{PolicyDescriptor, PositionAttribute};
pub use changes::{ChangeCursor, SyncReport};
pub use database::{Database, DatabaseConfig, MovingObject};
pub use error::CoreError;
pub use history::AttributeHistory;
pub use nearest::{NearestAnswer, Neighbour};
pub use object::{ObjectId, StationaryObject};
pub use query::{Containment, PositionAnswer, RangeAnswer};
pub use update::{UpdateMessage, UpdatePosition};
