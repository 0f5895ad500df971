//! The surface of the repository this benchmark drives.
//!
//! Every other module imports the repository's items from here and
//! from nowhere else, so this file *is* the list of public names a
//! later refactor must keep (or change together with the benchmark).
//! The functions called on each type are listed in `README.md`.

pub use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    RangeAnswer, UpdateMessage, UpdatePosition,
};
pub use modb_geom::{Point, Polygon};
pub use modb_index::{MovingObjectIndex, OPlane, QueryRegion};
pub use modb_motion::{SpeedCurve, TripProfile};
pub use modb_policy::{BoundKind, Policy, PolicyEngine, PositionUpdate, Quintuple};
pub use modb_query::{execute, parse, Query, QueryResult};
pub use modb_routes::generators::grid_network;
pub use modb_routes::{Direction, Route, RouteId, RouteNetwork};
pub use modb_server::{
    BatchOutcome, DurableDatabase, IngestService, IngestStatsSnapshot, QueryClient, QueryEngine,
    QueryEngineConfig, QueryServer, QueryServerConfig, ReplicaConfig, ReplicaWatch,
    ReplicationConfig, ReplicationServer, ServerStatsSnapshot, StandbyReplica, UpdateEnvelope,
    UpdateOutcome, WAL_BATCH_RECORDS,
};
pub use modb_wal::{list_segments, recover, SharedWal, WalBatch, WalOptions, WalRecord, WalWriter};
