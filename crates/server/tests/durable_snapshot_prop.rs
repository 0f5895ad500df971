//! Crash-recovery property tests for the pause-free snapshot path.
//!
//! Contract under test: a snapshot taken at watermark `L` bounds replay
//! exactly — recovery loads it, replays only records with `lsn >= L`,
//! and converges with the live (locked) state at crash time, whatever
//! the workload and wherever the snapshots landed. Each case takes two
//! snapshots, so the property also covers a second capture over a
//! directory that already holds one, and the compaction between them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::DurableDatabase;
use modb_wal::WalOptions;
use proptest::prelude::*;

const ROUTE_LEN: f64 = 100.0;

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("modb-durable-snap-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn vehicle(id: u64, arc: f64) -> MovingObject {
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

fn fresh_db() -> Database {
    let route = Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
    )
    .unwrap();
    Database::new(
        RouteNetwork::from_routes([route]).unwrap(),
        DatabaseConfig::default(),
    )
}

fn update() -> impl Strategy<Value = (u64, f64, f64, f64)> {
    // Ids past the fleet size are legitimate unknown-object rejections;
    // they are logged and must re-reject identically on replay.
    (0u64..32, 0.0f64..30.0, 0.0f64..1.0, 0.1f64..1.4)
}

fn apply_stream(durable: &DurableDatabase, batch: &[(u64, f64, f64, f64)]) {
    for &(id, t, frac, speed) in batch {
        let _ = durable.apply_update(
            ObjectId(id),
            &UpdateMessage::basic(t, UpdatePosition::Arc(frac * ROUTE_LEN), speed),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshot_at_watermark_bounds_replay_and_recovery_converges(
        n_objects in 1u64..25,
        pre in proptest::collection::vec(update(), 0..40),
        mid in proptest::collection::vec(update(), 0..40),
        post in proptest::collection::vec(update(), 0..40),
    ) {
        let dir = tmp();
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        for i in 0..n_objects {
            durable
                .register_moving(vehicle(i, (i as f64 * 7.3) % ROUTE_LEN))
                .unwrap();
        }
        apply_stream(&durable, &pre);
        durable.snapshot().unwrap();
        apply_stream(&durable, &mid);
        let watermark = durable.wal().next_lsn();
        durable.snapshot().unwrap(); // the one recovery must start from
        apply_stream(&durable, &post);

        // "Crash": drop the handles with the log trailing the last
        // snapshot by exactly the `post` records.
        let expected = durable.database().with_read(|db| db.clone());
        drop(durable);

        let (recovered, report) =
            DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        // Replay resumed from the watermark of the latest snapshot and
        // touched exactly the records logged after it.
        prop_assert_eq!(report.snapshot_lsn, watermark);
        prop_assert_eq!(
            (report.replayed + report.rejected) as usize,
            post.len(),
            "replay must cover exactly the post-snapshot records"
        );

        // Recovery converges with the locked live state at crash time.
        let got = recovered.database().with_read(|db| db.clone());
        prop_assert_eq!(got.moving_count(), expected.moving_count());
        for id in 0..32u64 {
            prop_assert_eq!(got.moving(ObjectId(id)).ok(), expected.moving(ObjectId(id)).ok());
            prop_assert_eq!(
                got.position_of(ObjectId(id), 20.0).ok(),
                expected.position_of(ObjectId(id), 20.0).ok()
            );
        }
        // Query answers agree too (must/may; traversal diagnostics may
        // differ between a rebuilt and an incrementally maintained
        // index).
        let a = got
            .within_distance_of_point(Point::new(ROUTE_LEN / 2.0, 0.0), 30.0, 10.0)
            .unwrap();
        let b = expected
            .within_distance_of_point(Point::new(ROUTE_LEN / 2.0, 0.0), 30.0, 10.0)
            .unwrap();
        prop_assert_eq!(a.must, b.must);
        prop_assert_eq!(a.may, b.may);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
