//! Shared fixtures for the replication integration tests.
#![allow(dead_code)]

pub mod replica_harness;

use std::path::PathBuf;

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{ReplicaConfig, ReplicationConfig};
use modb_wal::WalOptions;

/// A unique scratch directory (removed up front, not on exit — kept for
/// post-mortem when a test fails).
pub fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modb-repl-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One long straight route so arc positions are easy to reason about.
pub fn fresh_db() -> Database {
    let route = Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(1000.0, 0.0)],
    )
    .unwrap();
    Database::new(
        RouteNetwork::from_routes([route]).unwrap(),
        DatabaseConfig::default(),
    )
}

pub fn vehicle(id: u64, arc: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        name: format!("veh-{id}"),
        attr: PositionAttribute {
            start_time: 0.0,
            route: RouteId(1),
            start_position: Point::new(arc, 0.0),
            start_arc: arc,
            direction: Direction::Forward,
            speed: 1.0,
            policy: PolicyDescriptor::CostBased {
                kind: BoundKind::Immediate,
                update_cost: 5.0,
            },
        },
        max_speed: 1.5,
        trip_end: None,
    }
}

pub fn update(t: f64, arc: f64) -> UpdateMessage {
    UpdateMessage::basic(t, UpdatePosition::Arc(arc), 1.0)
}

/// Small segments: tests rotate often.
pub fn test_wal_options() -> WalOptions {
    WalOptions {
        max_segment_bytes: 512,
    }
}

/// Leader tuning: small runs, so a catch-up crosses several messages.
pub fn test_replication_config() -> ReplicationConfig {
    ReplicationConfig { chunk_records: 64 }
}

/// Follower tuning to match.
pub fn test_replica_config() -> ReplicaConfig {
    ReplicaConfig {
        wal: test_wal_options(),
        snapshot_every: 0,
    }
}

/// Full logical equality: same objects, same position attributes, same
/// landmark set.
pub fn assert_converged(leader: &Database, follower: &Database) {
    assert_eq!(
        leader.moving_count(),
        follower.moving_count(),
        "moving count"
    );
    assert_eq!(
        leader.stationary_count(),
        follower.stationary_count(),
        "stationary count"
    );
    let mut ids: Vec<ObjectId> = leader.moving_ids().collect();
    ids.sort();
    for id in ids {
        assert_eq!(
            leader.moving(id).unwrap(),
            follower.moving(id).unwrap(),
            "object {id:?}"
        );
    }
}
