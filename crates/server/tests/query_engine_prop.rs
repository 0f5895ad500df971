//! Property tests for the epoch-snapshot query engine.
//!
//! The contract under test: a query answered by [`QueryEngine`] equals
//! the answer the locked [`SharedDatabase`] path would have given **at
//! the moment the snapshot was published** — staleness-adjusted
//! equivalence. Updates applied after a publish must not leak into
//! snapshot answers until the next publish.

use std::sync::Arc;

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAnswer,
    PositionAttribute, UpdateMessage, UpdatePosition,
};
use modb_geom::{Point, Polygon, Rect};
use modb_index::QueryRegion;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{QueryEngineConfig, SharedDatabase};
use proptest::prelude::*;

const ROUTE_LEN: f64 = 100.0;

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

fn shared(n_objects: u64) -> SharedDatabase {
    let network = RouteNetwork::from_routes([Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
    )
    .unwrap()])
    .unwrap();
    let db = SharedDatabase::new(Database::new(network, DatabaseConfig::default()));
    for i in 0..n_objects {
        db.register_moving(vehicle(i, (i as f64 * 7.3) % ROUTE_LEN))
            .unwrap();
    }
    db
}

fn apply_stream(db: &SharedDatabase, updates: &[(u64, f64, f64, f64)]) {
    for &(id, time, arc_frac, speed) in updates {
        // Stale / unknown-object updates are legitimate rejections; the
        // equivalence property only needs both sides to see the same
        // final state, which "apply and ignore the verdict" gives us.
        let _ = db.apply_update(
            ObjectId(id),
            &UpdateMessage::basic(time, UpdatePosition::Arc(arc_frac * ROUTE_LEN), speed),
        );
    }
}

fn region(x0: f64, x1: f64, t: f64) -> QueryRegion {
    let (lo, hi) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
    let g =
        Polygon::rectangle(&Rect::new(Point::new(lo, -2.0), Point::new(hi + 0.5, 2.0))).unwrap();
    QueryRegion::at_instant(g, t)
}

#[derive(Debug, Clone)]
struct Spec {
    n_objects: u64,
    before: Vec<(u64, f64, f64, f64)>,
    after: Vec<(u64, f64, f64, f64)>,
    regions: Vec<(f64, f64, f64)>,
}

fn update() -> impl Strategy<Value = (u64, f64, f64, f64)> {
    (0u64..48, 0.0f64..30.0, 0.0f64..1.0, 0.1f64..1.4)
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        1u64..40,
        proptest::collection::vec(update(), 0..60),
        proptest::collection::vec(update(), 1..60),
        proptest::collection::vec((0.0f64..ROUTE_LEN, 0.0f64..ROUTE_LEN, 0.0f64..40.0), 1..6),
    )
        .prop_map(|(n_objects, before, after, regions)| Spec {
            n_objects,
            before,
            after,
            regions,
        })
}

/// One step of an interleaved workload for the shadow-equivalence
/// property. Rejected operations (duplicate register, unknown remove,
/// stale update) are part of the point: they must not desynchronize the
/// shadow.
#[derive(Debug, Clone)]
enum Op {
    Register(u64, f64),
    Update(u64, f64, f64, f64),
    Remove(u64),
    /// Pull the shadow forward mid-stream (partial drains must compose).
    Sync,
}

/// Everything a reader can see of the ids the streams touch: position
/// answers, retained history, and range answers (must and may sets).
type View = (
    Vec<Option<PositionAnswer>>,
    Vec<Vec<PositionAttribute>>,
    Vec<(Vec<ObjectId>, Vec<ObjectId>)>,
);

fn observe(db: &Database) -> View {
    let ids = || (0..48u64).map(ObjectId);
    let ranges = [(0.0, 50.0, 10.0), (20.0, 90.0, 5.0), (0.0, ROUTE_LEN, 25.0)]
        .iter()
        .map(|&(x0, x1, t)| {
            let answer = db.range_query(&region(x0, x1, t)).unwrap();
            (answer.must, answer.may)
        });
    (
        ids().map(|id| db.position_of(id, 15.0).ok()).collect(),
        ids().map(|id| db.history_of(id).to_vec()).collect(),
        ranges.collect(),
    )
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..48, 0.0f64..1.0).prop_map(|(id, frac)| Op::Register(id, frac)),
        update().prop_map(|(id, t, frac, speed)| Op::Update(id, t, frac, speed)),
        (0u64..48).prop_map(Op::Remove),
        Just(Op::Sync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A delta-applied shadow is observably identical to a fresh full
    /// clone after an arbitrary interleaving of register / update /
    /// remove, no matter where the intermediate syncs landed — including
    /// with a tiny change log that forces full resyncs. And a pinned epoch, which shares every object's payload
    /// with the live database, reads exactly as it did when pinned.
    #[test]
    fn shadow_after_deltas_equals_full_clone(
        ops in proptest::collection::vec(op(), 1..80),
        small_log in any::<bool>(),
    ) {
        let network = RouteNetwork::from_routes([Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
        )
        .unwrap()])
        .unwrap();
        let cfg = DatabaseConfig {
            // The tiny log makes cursors fall off constantly, forcing
            // the full-resync fallback to carry its weight too.
            change_log_capacity: if small_log { 3 } else { 4096 },
            ..DatabaseConfig::default()
        };
        let mut live = Database::new(network, cfg);
        for i in 0..8u64 {
            live.register_moving(vehicle(i, (i as f64 * 11.9) % ROUTE_LEN)).unwrap();
        }
        let mut shadow = live.clone();
        let mut cursor = live.change_cursor();
        // The epoch a slow reader holds, pinned mid-stream so it shares
        // histories the second half goes on to extend.
        let mut pinned = None;

        for (step, op) in ops.iter().enumerate() {
            if step == ops.len() / 2 {
                let epoch = Arc::new(live.clone());
                pinned = Some((observe(&epoch), epoch));
            }
            match *op {
                Op::Register(id, frac) => {
                    let _ = live.register_moving(vehicle(id, frac * ROUTE_LEN * 0.99));
                }
                Op::Update(id, t, frac, speed) => {
                    let _ = live.apply_update(
                        ObjectId(id),
                        &UpdateMessage::basic(
                            t,
                            UpdatePosition::Arc(frac * ROUTE_LEN),
                            speed,
                        ),
                    );
                }
                Op::Remove(id) => {
                    let _ = live.remove_moving(ObjectId(id));
                }
                Op::Sync => {
                    cursor = shadow.sync_from(&live, cursor).cursor;
                }
            }
        }
        shadow.sync_from(&live, cursor);
        let clone = live.clone();
        // Copy-on-write isolation: no live write (nor any shadow sync)
        // reached the pinned copy.
        let (at_pin_time, epoch) = pinned.expect("ops is never empty");
        prop_assert_eq!(observe(&epoch), at_pin_time);

        // Observably identical: object state, history, and queries (the
        // shadow's incrementally-maintained index must agree with both
        // the cloned index and the exhaustive scan).
        prop_assert_eq!(shadow.moving_count(), clone.moving_count());
        for id in 0..48u64 {
            prop_assert_eq!(shadow.moving(ObjectId(id)).ok(), clone.moving(ObjectId(id)).ok());
            prop_assert_eq!(shadow.history_of(ObjectId(id)), clone.history_of(ObjectId(id)));
            prop_assert_eq!(
                shadow.position_of(ObjectId(id), 15.0).ok(),
                clone.position_of(ObjectId(id), 15.0).ok()
            );
        }
        for &(x0, x1, t) in &[(0.0, 50.0, 10.0), (20.0, 90.0, 5.0), (0.0, ROUTE_LEN, 25.0)] {
            let r = region(x0, x1, t);
            let via_shadow = shadow.range_query(&r).unwrap();
            let via_clone = clone.range_query(&r).unwrap();
            prop_assert_eq!(&via_shadow.must, &via_clone.must, "must x=[{},{}] t={}", x0, x1, t);
            prop_assert_eq!(&via_shadow.may, &via_clone.may, "may x=[{},{}] t={}", x0, x1, t);
            let scanned = shadow.range_query_scan(&r).unwrap();
            prop_assert_eq!(&via_shadow.must, &scanned.must, "scan must x=[{},{}] t={}", x0, x1, t);
            prop_assert_eq!(&via_shadow.may, &scanned.may, "scan may x=[{},{}] t={}", x0, x1, t);
        }
    }

    /// Snapshot answers equal the locked answers as of publication time,
    /// no matter what happens to the live database afterwards.
    #[test]
    fn snapshot_reads_equal_locked_reads_at_publication(spec in spec()) {
        let db = shared(spec.n_objects);
        apply_stream(&db, &spec.before);
        let engine = db.query_engine(QueryEngineConfig {
            epoch_interval: None,
        });
        // The reference is the locked view frozen at publication time.
        let frozen = db.with_read(|inner| inner.clone());
        engine.publish_now();
        // Updates after the publish must NOT appear in snapshot answers.
        apply_stream(&db, &spec.after);

        for &(x0, x1, t) in &spec.regions {
            let r = region(x0, x1, t);
            let expected = frozen.range_query(&r).unwrap();
            let got = engine.range_query(&r).unwrap();
            prop_assert_eq!(&got, &expected, "region x=[{x0},{x1}] t={t}");

            let expected = frozen
                .within_distance_of_point(Point::new(x0, 0.0), 5.0, t)
                .unwrap();
            let got = engine
                .within_distance_of_point(Point::new(x0, 0.0), 5.0, t)
                .unwrap();
            prop_assert_eq!(&got, &expected, "within x={x0} t={t}");
        }
        for id in 0..spec.n_objects {
            prop_assert_eq!(
                engine.position_of(ObjectId(id), 12.0).unwrap(),
                frozen.position_of(ObjectId(id), 12.0).unwrap()
            );
        }
        // Republishing catches the engine up to the live state. This
        // publish rides the change-log delta, so the snapshot's index
        // was maintained by per-object delete+insert rather than cloned
        // — traversal diagnostics (SearchStats) may differ, but the
        // answers must not.
        engine.publish_now();
        for &(x0, x1, t) in &spec.regions {
            let r = region(x0, x1, t);
            let got = engine.range_query(&r).unwrap();
            let expected = db.range_query(&r).unwrap();
            prop_assert!(got.same_answer(&expected), "{:?} vs {:?}", got, expected);
        }
    }

    /// A text batch through the engine gives the same per-statement
    /// verdicts as running each statement serially on the frozen view.
    #[test]
    fn batched_statements_match_serial_execution(
        spec in spec(),
        t in 0.0f64..40.0,
    ) {
        let db = shared(spec.n_objects);
        apply_stream(&db, &spec.before);
        let engine = db.query_engine(QueryEngineConfig {
            epoch_interval: None,
        });
        let frozen = db.with_read(|inner| inner.clone());
        engine.publish_now();
        apply_stream(&db, &spec.after);

        let script = format!(
            "RETRIEVE OBJECTS INSIDE RECT (0, -2, 50, 2) AT TIME {t};\n\
             RETRIEVE POSITION OF OBJECT 0 AT TIME {t};\n\
             RETRIEVE OBJECTS WITHIN 10 OF POINT (50, 0) AT TIME {t};\n\
             RETRIEVE POSITION OF OBJECT 99999 AT TIME {t}"
        );
        let batched = engine.run_batch(&script);
        let serial = modb_query::run_batch(&frozen, &script);
        prop_assert_eq!(batched.len(), serial.len());
        for (i, (b, s)) in batched.iter().zip(serial.iter()).enumerate() {
            prop_assert_eq!(b, s, "statement {}", i + 1);
        }
    }
}
