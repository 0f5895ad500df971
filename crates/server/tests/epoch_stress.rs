//! Stress test: the clone a statement reads is never torn.
//!
//! Writers mutate the live database continuously while reader threads
//! take a clone per statement. Every writer maintains a per-object
//! invariant — the reported arc is a fixed function of the report time —
//! and reports with rising times, so a reader holding a half-cloned
//! state would see an attribute violating the function, an index
//! disagreeing with the attribute map, or an object's report time
//! running backwards from one of its clones to the next. None of these
//! may ever occur, and once the writers are done the next statement
//! reads their last writes.

use std::sync::atomic::{AtomicBool, Ordering};

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::{Point, Polygon, Rect};
use modb_index::QueryRegion;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{QueryEngine, SharedDatabase};

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

/// Checks a clone for tears: invariant on every attribute, index and
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
    let engine = QueryEngine::new(db.clone());
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

        // Readers: clones must always be whole, and each object's report
        // time monotone across one reader's successive clones.
        let stop = &stop;
        let engine = &engine;
        for _ in 0..3 {
            s.spawn(move || {
                let mut last_seen = vec![0.0f64; N_OBJECTS as usize];
                // At least one pass each, however early the writers end.
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    let snap = engine.snapshot();
                    for (i, last) in last_seen.iter_mut().enumerate() {
                        let t = snap.moving(ObjectId(i as u64)).unwrap().attr.start_time;
                        assert!(
                            t >= *last,
                            "object {i} went back in time: reported at {t} after {last}"
                        );
                        *last = t;
                    }
                    check_snapshot(&snap);
                    // The engine's own query path reads the same kind of
                    // clone: exercise it under churn.
                    let g = Polygon::rectangle(&Rect::new(
                        Point::new(0.0, -2.0),
                        Point::new(ROUTE_LEN, 2.0),
                    ))
                    .unwrap();
                    let answer = engine
                        .range_query(&QueryRegion::at_instant(g, 8.0))
                        .unwrap();
                    assert!(answer.candidates <= N_OBJECTS as usize);
                    if done {
                        break;
                    }
                }
            });
        }

        // Join the writers, then let the readers go.
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The first statement after the writers are done reads their last
    // writes: nothing has to be published first.
    let snap = engine.snapshot();
    check_snapshot(&snap);
    for i in 0..N_OBJECTS {
        let t = ROUNDS as f64 * 0.1;
        assert_eq!(
            snap.moving(ObjectId(i)).unwrap().attr.start_arc,
            arc_for(i, t)
        );
    }
    let stats = engine.stats();
    assert!(stats.queries > 0);
    assert_eq!(stats.errors, 0);
}
