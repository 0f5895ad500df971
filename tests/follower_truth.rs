//! A lagging follower's range and position answers against ground truth.
//!
//! A fleet of simulated vehicles reports to a leader through onboard
//! policy engines. A follower holds a copy of the leader's database as it
//! stood some minutes earlier and answers range and position statements
//! through the query engine at its lag. Every answer is checked, vehicle
//! by vehicle with none skipped, against where the simulator says the
//! vehicles truly are: may ∪ must ⊇ {truly inside} ⊇ must (Theorems 5–6),
//! and each vehicle truly within its answer's deviation bound of its
//! answered position and inside its uncertainty interval (§3.3), both
//! with the `2·max_speed·Δ` staleness slack of DESIGN §15.
//!
//! Two ways of being behind:
//!
//! - **lagging**: the follower is `Δ` behind and its lag clock says so;
//! - **caught up, then silent**: the follower was current at its last
//!   contact, and the upstream has said nothing since. Its [`LagClock`]
//!   must age with the silence.
//!
//! Each scenario also checks that it has teeth: answered as if the
//! follower were current (no widening), some range answer misses a
//! vehicle that is truly inside and some position answer misses its
//! vehicle; and widened only by demoting every `must` to `may`, some
//! range answer still misses one.

use std::time::{Duration, Instant};

use modb::core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAnswer,
    PositionAttribute, RangeAnswer, UpdateMessage, UpdatePosition,
};
use modb::geom::{Point, Polygon, Rect};
use modb::motion::{Trip, TripProfile};
use modb::policy::{BoundKind, Policy, PolicyEngine, PositionUpdate, Quintuple};
use modb::routes::{Direction, Route, RouteId, RouteNetwork};
use modb::server::{LagClock, QueryEngine, SharedDatabase};
use rand::rngs::StdRng;
use rand::SeedableRng;

const C: f64 = 5.0;
const N: usize = 40;
const DT: f64 = 1.0 / 60.0;
const TRIP_MINUTES: f64 = 60.0;

/// The fleet, its onboard engines and the leader's database.
struct World {
    leader: Database,
    engines: Vec<PolicyEngine>,
    trips: Vec<Trip>,
    route: Route,
    /// Simulated minutes driven so far.
    now: f64,
}

impl World {
    fn new(seed: u64) -> World {
        let route = Route::from_vertices(
            RouteId(1),
            "zigzag",
            vec![
                Point::new(0.0, 0.0),
                Point::new(40.0, 12.0),
                Point::new(80.0, 0.0),
                Point::new(120.0, 12.0),
                Point::new(160.0, 0.0),
            ],
        )
        .unwrap();
        let network = RouteNetwork::from_routes([route.clone()]).unwrap();
        let mut leader = Database::new(network, DatabaseConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut engines, mut trips) = (Vec::new(), Vec::new());
        for i in 0..N {
            let start_arc = 2.0 * i as f64;
            let profile = TripProfile::ALL[i % TripProfile::ALL.len()];
            let curve = profile.generate(&mut rng, TRIP_MINUTES, DT).unwrap();
            let trip = Trip::new(RouteId(1), Direction::Forward, start_arc, 0.0, curve).unwrap();
            let v0 = trip.speed_at(DT);
            leader
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
                    trip_end: Some(TRIP_MINUTES),
                })
                .unwrap();
            let start = PositionUpdate {
                time: 0.0,
                arc: start_arc,
                speed: v0,
            };
            engines.push(PolicyEngine::new(Quintuple::ail(C), route.length(), 1.0, start).unwrap());
            trips.push(trip);
        }
        World {
            leader,
            engines,
            trips,
            route,
            now: 0.0,
        }
    }

    /// Ticks every vehicle up to `t`, forwarding each update its policy
    /// fires to the leader.
    fn drive_until(&mut self, t: f64) {
        let first = (self.now / DT).round() as usize + 1;
        for step in first..=(t / DT).round() as usize {
            let tick = step as f64 * DT;
            for (i, (engine, trip)) in self.engines.iter_mut().zip(&self.trips).enumerate() {
                let arc = trip.arc_at(&self.route, tick);
                if let Some(u) = engine.tick(tick, arc, trip.speed_at(tick)).unwrap() {
                    let msg = UpdateMessage::basic(u.time, UpdatePosition::Arc(u.arc), u.speed);
                    self.leader.apply_update(ObjectId(i as u64), &msg).unwrap();
                }
            }
        }
        self.now = t;
    }

    fn true_arc(&self, id: usize, t: f64) -> f64 {
        self.trips[id].arc_at(&self.route, t)
    }

    fn true_position(&self, id: usize, t: f64) -> Point {
        self.route.point_at(self.true_arc(id, t))
    }
}

/// The range statements asked: rectangles across the route every 4
/// miles, and circles around points of it.
fn statements(t: f64) -> Vec<(String, Polygon)> {
    let mut out = Vec::new();
    for k in 0..38 {
        let (x0, x1) = (4.0 * k as f64, 4.0 * k as f64 + 9.0);
        let rect = Rect::new(Point::new(x0, -2.0), Point::new(x1, 14.0));
        out.push((
            format!("RETRIEVE OBJECTS INSIDE RECT ({x0}, -2, {x1}, 14) AT TIME {t}"),
            Polygon::rectangle(&rect).unwrap(),
        ));
    }
    for k in 0..16 {
        let x = 10.0 * k as f64 + 3.0;
        let y = if ((x / 40.0) as u64).is_multiple_of(2) {
            12.0 * (x % 40.0) / 40.0
        } else {
            12.0 - 12.0 * (x % 40.0) / 40.0
        };
        let circle = modb::index::within_radius(Point::new(x, y), 3.5, t).unwrap();
        out.push((
            format!("RETRIEVE OBJECTS WITHIN 3.5 OF POINT ({x}, {y}) AT TIME {t}"),
            circle.polygon().clone(),
        ));
    }
    out
}

/// Vehicles the answer gets wrong at `t`: truly inside but in neither
/// set, or in `must` but truly outside. Every vehicle is checked.
fn misses(world: &World, polygon: &Polygon, t: f64, answer: &RangeAnswer) -> Vec<String> {
    let mut out = Vec::new();
    for id in 0..N {
        let inside = polygon.contains_point(world.true_position(id, t));
        let object = ObjectId(id as u64);
        let must = answer.must.contains(&object);
        if inside && !must && !answer.may.contains(&object) {
            out.push(format!("veh-{id} inside but unanswered"));
        }
        if must && !inside {
            out.push(format!("veh-{id} in must but outside"));
        }
    }
    out
}

/// What the answer for vehicle `id` gets wrong at `t`: the vehicle
/// truly further from the answered position than the bound, or outside
/// the uncertainty interval (arc coordinates, as the policies measure
/// deviation).
fn position_misses(world: &World, id: usize, t: f64, answer: &PositionAnswer) -> Vec<String> {
    let truth = world.true_arc(id, t);
    let mut out = Vec::new();
    if (truth - answer.arc).abs() > answer.bound {
        out.push(format!(
            "veh-{id} at arc {truth}, answered {} ± {}",
            answer.arc, answer.bound
        ));
    }
    if !(answer.interval.0 <= truth && truth <= answer.interval.1) {
        out.push(format!(
            "veh-{id} at arc {truth}, outside {:?}",
            answer.interval
        ));
    }
    out
}

/// Answers the copy gets wrong when not widened, by kind of statement.
#[derive(Default)]
struct Unwidened {
    /// Range answers answered as if current.
    ranges: usize,
    /// Range answers widened only by demoting every `must` to `may`,
    /// which admits no vehicle whose stale interval lies outside the
    /// region.
    demoted: usize,
    /// Position answers answered as if current.
    positions: usize,
}

/// What the follower `stale` serves at lag `lag` for every statement at
/// time `t`, checked against the truth; adds to `unwidened` how many
/// answers the same copy gets wrong when it does not widen.
fn check_follower(world: &World, stale: &Database, lag: f64, t: f64, unwidened: &mut Unwidened) {
    let engine = QueryEngine::new(SharedDatabase::new(stale.clone()));
    for id in 0..N {
        let statement = format!("RETRIEVE POSITION OF OBJECT 'veh-{id}' AT TIME {t}");
        let served = engine.run_batch_lagging(&statement, lag).remove(0).unwrap();
        let missed = position_misses(world, id, t, served.as_position().unwrap());
        assert!(
            missed.is_empty(),
            "lag {lag} at t={t}: {statement}: {missed:?}"
        );

        let current = engine.run_batch(&statement).remove(0).unwrap();
        let missed = position_misses(world, id, t, current.as_position().unwrap());
        unwidened.positions += usize::from(!missed.is_empty());
    }
    for (statement, polygon) in statements(t) {
        let served = engine.run_batch_lagging(&statement, lag).remove(0).unwrap();
        let served = served.as_range().unwrap();
        let wrong = misses(world, &polygon, t, served);
        assert!(
            wrong.is_empty(),
            "lag {lag} at t={t}: {statement}: {wrong:?}"
        );

        let current = engine.run_batch(&statement).remove(0).unwrap();
        let mut current = current.as_range().unwrap().clone();
        unwidened.ranges += usize::from(!misses(world, &polygon, t, &current).is_empty());
        current.may.append(&mut current.must);
        unwidened.demoted += usize::from(!misses(world, &polygon, t, &current).is_empty());
    }
}

/// Every kind of unwidened answer got something wrong in the scenario.
fn assert_teeth(wrong: &Unwidened) {
    let Unwidened {
        ranges,
        demoted,
        positions,
    } = *wrong;
    assert!(
        ranges > 0 && demoted > 0 && positions > 0,
        "an answer kind never needed the slack \
         ({ranges} ranges unwidened, {demoted} demoted, {positions} positions unwidened)"
    );
}

/// A follower `Δ` behind the leader, its lag clock reading `Δ`.
#[test]
fn a_lagging_follower_answers_contain_the_truth() {
    let mut wrong = Unwidened::default();
    for (seed, t, lag) in [
        (1, 12.0, 1.0),
        (2, 20.0, 3.0),
        (3, 30.0, 6.0),
        (4, 45.0, 2.0),
    ] {
        let mut world = World::new(seed);
        world.drive_until(t - lag);
        let stale = world.leader.clone();
        world.drive_until(t);
        check_follower(&world, &stale, lag, t, &mut wrong);
    }
    assert_teeth(&wrong);
}

/// A follower that was current at its last contact, then heard nothing
/// while the leader took updates. One second of silence on its clock is
/// one minute of simulated time here.
#[test]
fn a_caught_up_then_silent_follower_answers_contain_the_truth() {
    let mut wrong = Unwidened::default();
    for (seed, contact, silence) in [(5, 10.0, 2.0), (6, 25.0, 4.0), (7, 40.0, 1.5)] {
        let mut world = World::new(seed);
        world.drive_until(contact);
        let stale = world.leader.clone();
        let opened = Instant::now();
        let mut clock = LagClock::new(opened);
        clock.contact(7, 7, opened);
        world.drive_until(contact + silence);
        let lag = clock
            .lag_at(opened + Duration::from_secs_f64(silence))
            .as_secs_f64();
        assert_eq!(lag, silence, "the clock ages with the silence");
        check_follower(&world, &stale, lag, contact + silence, &mut wrong);
    }
    assert_teeth(&wrong);
}
