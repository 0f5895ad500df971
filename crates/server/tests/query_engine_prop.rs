//! Property tests for the query engine and the clone it reads.
//!
//! The contract under test: a query answered by [`QueryEngine`] equals
//! the answer the locked [`SharedDatabase`] path gives **at the moment
//! the statement starts** — every update applied before it is in its
//! answer, with no publication step in between. And a clone, once
//! taken, is frozen: nothing applied after it leaks in.

use modb_core::{
    Database, DatabaseConfig, MovingObject, NearestAnswer, ObjectId, PolicyDescriptor,
    PositionAnswer, PositionAttribute, UpdateMessage, UpdatePosition,
};
use modb_geom::{Point, Polygon, Rect};
use modb_index::QueryRegion;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{QueryEngine, SharedDatabase};
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

/// One step of an interleaved workload for the clone-isolation
/// property. Rejected operations (duplicate register, unknown remove,
/// stale update) are part of the point: they must not disturb a clone
/// either.
#[derive(Debug, Clone)]
enum Op {
    Register(u64, f64),
    Update(u64, f64, f64, f64),
    Remove(u64),
    /// Clone the live database mid-stream and pin the clone.
    Clone,
}

/// Everything a reader can see of the ids the streams touch: the stored
/// objects, position answers, range answers (must and
/// may sets, by index and by scan) and nearest-neighbour answers.
type View = (
    Vec<Option<MovingObject>>,
    Vec<Option<PositionAnswer>>,
    Vec<(Vec<ObjectId>, Vec<ObjectId>)>,
    Vec<NearestAnswer>,
);

fn observe(db: &Database) -> View {
    let ids = || (0..48u64).map(ObjectId);
    let ranges = [(0.0, 50.0, 10.0), (20.0, 90.0, 5.0), (0.0, ROUTE_LEN, 25.0)]
        .iter()
        .flat_map(|&(x0, x1, t)| {
            let r = region(x0, x1, t);
            [
                db.range_query(&r).unwrap(),
                db.range_query_scan(&r).unwrap(),
            ]
        })
        .map(|answer| (answer.must, answer.may));
    (
        ids().map(|id| db.moving(id).ok()).collect(),
        ids().map(|id| db.position_of(id, 15.0).ok()).collect(),
        ranges.collect(),
        [(10.0, 1, 5.0), (50.0, 3, 15.0), (90.0, 60, 30.0)]
            .iter()
            .map(|&(x, k, t)| db.nearest(Point::new(x, 0.0), k, t).unwrap())
            .collect(),
    )
}

/// A copy of `db` that shares no structure with it: every object
/// re-registered into a fresh database, the way a snapshot restore
/// builds one.
fn deep_copy(db: &Database) -> Database {
    let mut copy = Database::new(db.network().clone(), *db.config());
    for obj in db.moving_objects() {
        copy.register_moving(obj).unwrap();
    }
    copy
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..48, 0.0f64..1.0).prop_map(|(id, frac)| Op::Register(id, frac)),
        update().prop_map(|(id, t, frac, speed)| Op::Update(id, t, frac, speed)),
        update().prop_map(|(id, t, frac, speed)| Op::Update(id, t, frac, speed)),
        (0u64..48).prop_map(Op::Remove),
        Just(Op::Clone),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A clone is a frozen database. Clones taken at random points of a
    /// register / update / remove stream — each sharing its whole
    /// structure with the live copy at that instant — answer every
    /// position, range and nearest query exactly as a deep copy made at
    /// the same instant does, however the live copy is mutated
    /// afterwards and after it is dropped: a clone pinned mid-stream
    /// reads what it read when pinned.
    #[test]
    fn clones_taken_mid_stream_equal_deep_copies_whatever_happens_next(
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        let network = RouteNetwork::from_routes([Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
        )
        .unwrap()])
        .unwrap();
        let mut live = Database::new(network, DatabaseConfig::default());
        for i in 0..8u64 {
            live.register_moving(vehicle(i, (i as f64 * 11.9) % ROUTE_LEN)).unwrap();
        }
        // (clone, deep copy) pairs, one per clone point; the first is
        // taken before the stream starts.
        let mut pinned = vec![(live.clone(), deep_copy(&live))];

        for op in &ops {
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
                Op::Clone => {
                    let clone = live.clone();
                    let (shared, total) = live.shared_with(&clone);
                    prop_assert_eq!(shared, total, "a fresh clone shares everything");
                    pinned.push((clone, deep_copy(&live)));
                }
            }
        }
        // The live copy is itself consistent (index ≡ scan inside
        // `observe`) and equal to a deep copy of its final state.
        prop_assert_eq!(observe(&live), observe(&deep_copy(&live)));
        for (i, (clone, reference)) in pinned.iter().enumerate() {
            prop_assert_eq!(clone.moving_count(), reference.moving_count());
            prop_assert_eq!(observe(clone), observe(reference), "clone {} of {}", i, pinned.len());
        }
        // Dropping the live copy frees what only it held and nothing a
        // clone reads.
        drop(live);
        for (clone, reference) in &pinned {
            prop_assert_eq!(observe(clone), observe(reference));
        }
    }

    /// Engine answers equal the locked answers of the live database,
    /// whatever was applied since the engine was built: the clone a
    /// statement reads is the live tree, so even the traversal
    /// statistics agree.
    #[test]
    fn snapshot_reads_equal_locked_reads_at_publication(spec in spec()) {
        let db = shared(spec.n_objects);
        apply_stream(&db, &spec.before);
        let engine = QueryEngine::new(db.clone());
        // Updates after the engine exists must appear in its answers.
        apply_stream(&db, &spec.after);

        for &(x0, x1, t) in &spec.regions {
            let r = region(x0, x1, t);
            prop_assert_eq!(
                engine.range_query(&r).unwrap(),
                db.with_read(|d| d.range_query(&r)).unwrap(),
                "region x=[{x0},{x1}] t={t}"
            );
            prop_assert_eq!(
                engine.within_distance_of_point(Point::new(x0, 0.0), 5.0, t).unwrap(),
                db.with_read(|d| d.within_distance_of_point(Point::new(x0, 0.0), 5.0, t)).unwrap(),
                "within x={x0} t={t}"
            );
        }
        for id in 0..spec.n_objects {
            prop_assert_eq!(
                engine.position_of(ObjectId(id), 12.0).unwrap(),
                db.with_read(|d| d.position_of(ObjectId(id), 12.0)).unwrap()
            );
        }
    }

    /// A text batch through the engine gives the same per-statement
    /// verdicts as running each statement serially on the locked live
    /// database.
    #[test]
    fn batched_statements_match_serial_execution(
        spec in spec(),
        t in 0.0f64..40.0,
    ) {
        let db = shared(spec.n_objects);
        apply_stream(&db, &spec.before);
        let engine = QueryEngine::new(db.clone());
        apply_stream(&db, &spec.after);

        let script = format!(
            "RETRIEVE OBJECTS INSIDE RECT (0, -2, 50, 2) AT TIME {t};\n\
             RETRIEVE POSITION OF OBJECT 0 AT TIME {t};\n\
             RETRIEVE OBJECTS WITHIN 10 OF POINT (50, 0) AT TIME {t};\n\
             RETRIEVE POSITION OF OBJECT 99999 AT TIME {t}"
        );
        let batched = engine.run_batch(&script);
        let serial = db.with_read(|live| modb_query::run_batch(live, &script));
        prop_assert_eq!(batched.len(), serial.len());
        for (i, (b, s)) in batched.iter().zip(serial.iter()).enumerate() {
            prop_assert_eq!(b, s, "statement {}", i + 1);
        }
    }
}
