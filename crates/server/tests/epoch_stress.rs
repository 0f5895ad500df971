//! Stress test: epoch publication never yields a torn snapshot.
//!
//! Writers mutate the live database continuously while the background
//! publisher republishes every millisecond and reader threads hammer the
//! snapshot path. Every writer maintains a per-object invariant — the
//! reported arc is a fixed function of the report time — so a reader
//! holding a half-published or half-cloned state would see an attribute
//! violating the function, an index disagreeing with the attribute map,
//! or the epoch counter running backwards. None of these may ever occur.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::{Point, Polygon, Rect};
use modb_index::QueryRegion;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{QueryEngineConfig, SharedDatabase};

const ROUTE_LEN: f64 = 1_000.0;
const N_OBJECTS: u64 = 100;
const N_WRITERS: u64 = 2;
const ROUNDS: u64 = 150;

/// The writers' invariant: an update reported at `time` always places
/// the object at this arc. Checker and writer share the expression, so
/// equality is bit-exact.
fn arc_for(id: u64, time: f64) -> f64 {
    10.0 + (id as f64 * 3.7 + time * 29.0) % (ROUTE_LEN - 20.0)
}

fn shared() -> SharedDatabase {
    let network = RouteNetwork::from_routes([Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
    )
    .unwrap()])
    .unwrap();
    let db = SharedDatabase::new(Database::new(network, DatabaseConfig::default()));
    for i in 0..N_OBJECTS {
        db.register_moving(MovingObject {
            id: ObjectId(i),
            name: format!("veh-{i}"),
            attr: PositionAttribute {
                start_time: 0.0,
                route: RouteId(1),
                start_position: Point::new(arc_for(i, 0.0), 0.0),
                start_arc: arc_for(i, 0.0),
                direction: Direction::Forward,
                speed: 1.0,
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: 5.0,
                },
            },
            max_speed: 1.5,
            trip_end: None,
        })
        .unwrap();
    }
    db
}

/// Checks a snapshot for tears: invariant on every attribute, index and
/// attribute map in agreement, and all objects present.
fn check_snapshot(db: &Database) {
    assert_eq!(db.moving_count(), N_OBJECTS as usize, "object vanished");
    for i in 0..N_OBJECTS {
        let attr = &db.moving(ObjectId(i)).unwrap().attr;
        let expected = arc_for(i, attr.start_time);
        assert_eq!(
            attr.start_arc, expected,
            "torn attribute: object {i} at t={} has arc {} (want {})",
            attr.start_time, attr.start_arc, expected
        );
    }
    // The index was rebuilt/maintained against exactly this attribute
    // map: the indexed filter path and the full scan must agree.
    let g = Polygon::rectangle(&Rect::new(
        Point::new(0.0, -2.0),
        Point::new(ROUTE_LEN * 0.4, 2.0),
    ))
    .unwrap();
    let r = QueryRegion::at_instant(g, 6.0);
    let indexed = db.range_query(&r).unwrap();
    let scanned = db.range_query_scan(&r).unwrap();
    assert_eq!(indexed.must, scanned.must, "index disagrees with scan");
    assert_eq!(indexed.may, scanned.may, "index disagrees with scan");
}

#[test]
fn epoch_publication_never_tears_under_concurrent_writes() {
    let db = shared();
    let engine = db.query_engine(QueryEngineConfig {
        epoch_interval: Some(Duration::from_millis(1)),
    });
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Writers: disjoint object ranges, monotone report times, the
        // arc invariant on every update.
        let writers: Vec<_> = (0..N_WRITERS)
            .map(|w| {
                let db = db.clone();
                let chunk = N_OBJECTS / N_WRITERS;
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        let t = round as f64 * 0.1;
                        for i in (w * chunk)..((w + 1) * chunk) {
                            db.apply_update(
                                ObjectId(i),
                                &UpdateMessage::basic(t, UpdatePosition::Arc(arc_for(i, t)), 1.0),
                            )
                            .unwrap();
                        }
                    }
                })
            })
            .collect();

        // Readers: snapshots must always be whole, and epochs monotone.
        let stop = &stop;
        let engine = &engine;
        for _ in 0..3 {
            s.spawn(move || {
                let mut last_epoch = 0;
                while !stop.load(Ordering::Relaxed) {
                    let snap = engine.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    check_snapshot(snap.database());
                    // The engine's own query path sees the same snapshot
                    // world: exercise it under churn.
                    let g = Polygon::rectangle(&Rect::new(
                        Point::new(0.0, -2.0),
                        Point::new(ROUTE_LEN, 2.0),
                    ))
                    .unwrap();
                    let answer = engine
                        .range_query(&QueryRegion::at_instant(g, 8.0))
                        .unwrap();
                    assert!(answer.candidates <= N_OBJECTS as usize);
                }
            });
        }

        // Join the writers deterministically, then hold the readers
        // until the publisher has sealed the post-write state into an
        // epoch. Epochs advance unconditionally every interval, so
        // waiting for the counter to move past its at-join value is a
        // condition wait on the publisher itself — no wall-clock sleep
        // to be too short on a slow or 1-core runner.
        for h in writers {
            h.join().unwrap();
        }
        let sealed = engine.snapshot().epoch();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.snapshot().epoch() <= sealed {
            assert!(
                std::time::Instant::now() < deadline,
                "publisher stalled: epoch stuck at {sealed}"
            );
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // After the dust settles: a manual publish exposes the final state,
    // unturn and exact.
    engine.publish_now();
    let snap = engine.snapshot();
    check_snapshot(snap.database());
    for i in 0..N_OBJECTS {
        let t = ROUNDS as f64 * 0.1;
        assert_eq!(
            snap.database().moving(ObjectId(i)).unwrap().attr.start_arc,
            arc_for(i, t)
        );
    }
    let stats = engine.shutdown();
    assert!(stats.epoch >= 1, "publisher never ran");
    assert!(stats.queries > 0);
    assert_eq!(stats.errors, 0);
}
