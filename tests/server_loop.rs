//! Full production-shape integration: vehicles run policy engines, their
//! updates flow through the logged ingest service of a durable database,
//! and dispatch queries run concurrently against the shared handle — then
//! answers are checked against ground truth, and the log reopens as the
//! live state.

use modb::core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb::geom::Point;
use modb::motion::{Trip, TripProfile};
use modb::policy::{BoundKind, Policy, PolicyEngine, PositionUpdate, Quintuple};
use modb::routes::{Direction, Route, RouteId, RouteNetwork};
use modb::server::{DurableDatabase, UpdateEnvelope};
use modb::wal::WalOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

const C: f64 = 5.0;
const FLEET: usize = 16;
const DT: f64 = 1.0 / 60.0;
const MINUTES: f64 = 12.0;

#[test]
fn vehicles_ingest_and_queries_agree_with_truth() {
    let route = Route::from_vertices(
        RouteId(1),
        "artery",
        vec![Point::new(0.0, 0.0), Point::new(200.0, 0.0)],
    )
    .unwrap();
    let network = RouteNetwork::from_routes([route.clone()]).unwrap();
    let mut fleet = Database::new(network, DatabaseConfig::default());

    let mut rng = StdRng::seed_from_u64(77);
    let mut engines = Vec::new();
    let mut trips = Vec::new();
    for i in 0..FLEET {
        let start_arc = 10.0 * i as f64;
        let curve = TripProfile::ALL[i % 4]
            .generate(&mut rng, MINUTES, DT)
            .unwrap();
        let trip = Trip::new(RouteId(1), Direction::Forward, start_arc, 0.0, curve).unwrap();
        let v0 = trip.speed_at(DT);
        fleet
            .register_moving(MovingObject {
                id: ObjectId(i as u64),
                name: format!("veh-{i}"),
                attr: PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(1),
                    start_position: route.point_at(start_arc),
                    start_arc,
                    direction: Direction::Forward,
                    speed: v0,
                    policy: PolicyDescriptor::CostBased {
                        kind: BoundKind::Immediate,
                        update_cost: C,
                    },
                },
                max_speed: trip.max_speed().max(0.1),
                trip_end: Some(MINUTES),
            })
            .unwrap();
        engines.push(
            PolicyEngine::new(
                Quintuple::ail(C),
                route.length(),
                1.0,
                PositionUpdate {
                    time: 0.0,
                    arc: start_arc,
                    speed: v0,
                },
            )
            .unwrap(),
        );
        trips.push(trip);
    }

    // Drive the fleet; updates go through the ingest service and its log
    // while a reader thread keeps querying.
    let dir = std::env::temp_dir().join(format!("modb-server-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = DurableDatabase::create(&dir, fleet, WalOptions::default()).unwrap();
    let db = durable.database().clone();
    let service = durable.ingest_service(4, 0);
    let handle = service.handle();
    let reader_db = db.clone();
    let reader = std::thread::spawn(move || {
        let mut answered = 0usize;
        for _ in 0..100 {
            let r = reader_db
                .with_read(|d| d.within_distance_of_point(Point::new(80.0, 0.0), 30.0, 6.0))
                .unwrap();
            answered += r.all().len();
            std::thread::yield_now();
        }
        answered
    });
    let n_ticks = (MINUTES / DT).round() as usize;
    let mut sent = 0usize;
    for step in 1..=n_ticks {
        let t = step as f64 * DT;
        for (i, (engine, trip)) in engines.iter_mut().zip(&trips).enumerate() {
            let arc = trip.arc_at(&route, t);
            if let Some(u) = engine.tick(t, arc, trip.speed_at(t)).unwrap() {
                handle
                    .send(UpdateEnvelope {
                        id: ObjectId(i as u64),
                        msg: UpdateMessage::basic(u.time, UpdatePosition::Arc(u.arc), u.speed),
                    })
                    .unwrap();
                sent += 1;
            }
        }
    }
    reader.join().unwrap();
    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.accepted, sent, "all policy updates must be applied");
    assert_eq!(stats.rejected(), 0, "ingest preserves per-object order");

    // The log reopens as the live state, object by object.
    let live = db.with_read(Database::clone);
    drop(durable);
    let (reopened, _) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
    reopened.database().with_read(|d| {
        assert_eq!(d.moving_count(), live.moving_count());
        for id in (0..FLEET as u64).map(ObjectId) {
            assert_eq!(d.moving(id).unwrap(), live.moving(id).unwrap());
        }
    });
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();

    // Post-drive: every DBMS answer is within its advertised bound of the
    // true position.
    for (i, trip) in trips.iter().enumerate().take(FLEET) {
        let ans = db
            .with_read(|d| d.position_of(ObjectId(i as u64), MINUTES))
            .unwrap();
        let true_arc = trip.arc_at(&route, MINUTES);
        let deviation = (true_arc - ans.arc).abs();
        let slack = trip.max_speed() * DT + 1e-9;
        assert!(
            deviation <= ans.bound + slack,
            "veh-{i}: deviation {deviation} > bound {}",
            ans.bound
        );
    }

    // Dispatch via the text language on the shared handle agrees with the
    // native API.
    let via_text = db
        .with_read(|d| {
            modb::query::run(
                d,
                "RETRIEVE OBJECTS INSIDE RECT (50, -1, 120, 1) AT TIME 12",
            )
        })
        .unwrap();
    let region = modb::index::QueryRegion::at_instant(
        modb::geom::Polygon::rectangle(&modb::geom::Rect::new(
            Point::new(50.0, -1.0),
            Point::new(120.0, 1.0),
        ))
        .unwrap(),
        12.0,
    );
    let via_api = db.with_read(|d| d.range_query(&region)).unwrap();
    assert_eq!(via_text.as_range().unwrap(), &via_api);
}
