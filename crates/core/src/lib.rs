//! # modb-core — the moving-objects DBMS
//!
//! Ties the workspace together into the database system of Wolfson et al.
//! (ICDE 1998):
//!
//! - [`PositionAttribute`]: the seven sub-attributes of §2. The database
//!   keeps each in a compact form, the start position as route + arc
//!   only, and extrapolates it along the route at the declared speed
//!   (the database position).
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
//! One record per vehicle: the object table *is* the time-space index —
//! one entry per moving object, holding the object (its o-plane is
//! derived from it), shared by the id map and the tree's leaf — and the
//! DBMS keeps the attribute in force only, as the paper's does (§2); the
//! past is not served. The table is a *persistent* store in the functional sense: a
//! path-copying tree and map, so [`Database::clone`] is O(1) and a clone
//! shares everything no write has touched since. `modb-server` gives each
//! statement and each snapshot a clone; there is no change log and no
//! second copy to keep in step.

#![warn(missing_docs)]

mod attr;
mod database;
mod error;
mod nearest;
mod object;
mod query;
mod resident;
mod update;

pub use attr::{PolicyDescriptor, PositionAttribute};
pub use database::{
    Database, DatabaseConfig, MovingObject, DEFAULT_HORIZON, MAP_MATCH_TOLERANCE, REFINEMENT_DT,
};
pub use error::CoreError;
pub use nearest::{NearestAnswer, Neighbour};
pub use object::{ObjectId, StationaryObject};
pub use query::{Containment, PositionAnswer, RangeAnswer};
pub use update::{UpdateMessage, UpdatePosition};
