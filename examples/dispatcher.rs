//! Dispatcher console: the textual query language over a live fleet.
//!
//! Demonstrates `modb::query` — the §5/§6 "query languages for these
//! databases" extension — running every query shape the paper motivates,
//! plus an as-of (transaction-time) position query.
//!
//! Run with: `cargo run --example dispatcher`

use modb::core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb::geom::Point;
use modb::policy::BoundKind;
use modb::query::{run, QueryResult};
use modb::routes::{generators, Direction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // An 8-spoke radial network, 15 vehicles.
    let network = generators::radial_network(Point::new(0.0, 0.0), 20.0, 8, 0).expect("valid");
    let route_ids = network.route_ids();
    let mut db = Database::new(network, DatabaseConfig::default());
    let mut rng = StdRng::seed_from_u64(99);
    for i in 0..15u64 {
        let rid = route_ids[rng.gen_range(0..route_ids.len())];
        let route = db.network().get(rid).expect("route");
        let arc = rng.gen_range(0.0..route.length() / 2.0);
        db.register_moving(MovingObject {
            id: ObjectId(i),
            name: if i == 4 {
                "ABT312".into()
            } else {
                format!("unit-{i:02}")
            },
            attr: PositionAttribute {
                start_time: 0.0,
                route: rid,
                start_position: route.point_at(arc),
                start_arc: arc,
                direction: Direction::Forward,
                speed: rng.gen_range(0.4..1.2),
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: 5.0,
                },
            },
            max_speed: 1.5,
            trip_end: Some(90.0),
        })
        .expect("registered");
    }
    // One mid-trip update: the queries below see the attribute it
    // installed, not the one it replaced.
    db.apply_update(
        ObjectId(4),
        &UpdateMessage::basic(6.0, UpdatePosition::Arc(8.0), 0.9),
    )
    .expect("accepted");

    let queries = [
        "RETRIEVE POSITION OF OBJECT 'ABT312' AT TIME 10",
        "RETRIEVE OBJECTS INSIDE RECT (-5, -5, 5, 5) AT TIME 10",
        "RETRIEVE OBJECTS INSIDE POLYGON ((0,0), (15,0), (15,15), (0,15)) DURING 0 TO 20",
        "RETRIEVE OBJECTS WITHIN 4 OF POINT (6, 0) AT TIME 10",
        "RETRIEVE OBJECTS WITHIN 6 OF OBJECT 'ABT312' AT TIME 10",
        "RETRIEVE 3 NEAREST OBJECTS TO POINT (0, 0) AT TIME 10",
    ];
    for q in queries {
        println!("modb> {q}");
        match run(&db, q) {
            Ok(QueryResult::Position(p)) => println!(
                "  position ({:.2}, {:.2}) ± {:.2} mi, interval miles {:.2}..{:.2}\n",
                p.position.x, p.position.y, p.bound, p.interval.0, p.interval.1
            ),
            Ok(QueryResult::Range(r)) => {
                let names = |ids: &[ObjectId]| {
                    ids.iter()
                        .map(|id| db.moving(*id).map(|o| o.name.clone()).unwrap_or_default())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                println!(
                    "  must: [{}]\n  may:  [{}]  ({} candidates filtered)\n",
                    names(&r.must),
                    names(&r.may),
                    r.candidates
                );
            }
            Ok(QueryResult::Nearest(n)) => {
                for nb in &n.ranked {
                    let name = db.moving(nb.id).map(|o| o.name.clone()).unwrap_or_default();
                    println!(
                        "  {} at {:.2} mi (±{:.2}) — {}",
                        name,
                        nb.distance,
                        nb.bound,
                        if nb.certain { "certain" } else { "possible" }
                    );
                }
                println!("  ({} contenders)\n", n.contenders.len());
            }
            Err(e) => println!("  error: {e}\n"),
        }
    }

    // A malformed query produces a located diagnostic, not a panic.
    let bad = "RETRIEVE OBJECTS INSIDE CIRCLE (0,0,5) AT TIME 1";
    println!("modb> {bad}");
    println!("  error: {}\n", run(&db, bad).unwrap_err());
}
