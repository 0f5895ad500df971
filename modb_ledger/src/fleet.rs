//! The seeded generator every workload shares: a grid city, a fleet of
//! vehicles whose update messages come from the paper's own policy
//! engine, and a query script.
//!
//! The deviation an onboard computer tracks is measured along its route,
//! so what the policy engine emits depends on the speed curve alone. The
//! generator therefore draws a pool of speed curves, runs one
//! `PolicyEngine` (`Quintuple::ail(5.0)`, 1 s ticks) over each, and lets
//! every vehicle ride one curve of the pool from its own route, start
//! arc, direction and departure offset. The curves stay in the fleet:
//! they give the *true* position of every vehicle at every instant,
//! which the follower check compares served answers against.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api::{
    grid_network, BoundKind, Direction, MovingObject, ObjectId, Point, Policy, PolicyDescriptor,
    PolicyEngine, Polygon, PositionAttribute, PositionUpdate, QueryRegion, Quintuple, RouteId,
    RouteNetwork, SpeedCurve, TripProfile, UpdateMessage, UpdatePosition,
};

/// One simulated second, in the repository's time unit (minutes).
pub const TICK: f64 = 1.0 / 60.0;
/// The update cost `C` of the ail policy every vehicle runs.
pub const UPDATE_COST: f64 = 5.0;
/// Streets per side of the grid city and their spacing in miles: an
/// 120 × 120 mile square of 122 straight routes.
const GRID_STREETS: usize = 61;
const GRID_SPACING: f64 = 2.0;
/// Vehicles leave within the first twenty simulated minutes, so those
/// that ride one curve are at different points of it at any instant: what
/// a fleet looks like at one instant then depends on the seed through
/// some tens of thousands of independent draws, not through one draw per
/// curve. Every workload starts its traffic after the last departure.
const DEPARTURE_WINDOW: f64 = 20.0;
/// Side lengths (miles) of range-query regions, so selectivity varies.
const REGION_SIDES: [f64; 3] = [0.5, 2.0, 8.0];
/// Query times lie this far (minutes) after the writer's clock at most.
pub const QUERY_LOOKAHEAD: f64 = 0.5;
/// A trip's known end `Z` (§4.2) lies this long after its curve ends, so
/// no query of the run asks about a time past it.
const TRIP_END_SLACK: f64 = 5.0;

/// What a workload asks of the generator.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    pub objects: usize,
    /// Distinct speed curves in the pool.
    pub curves: usize,
    /// Simulated minutes each curve covers.
    pub minutes: f64,
    /// Statements in the query script.
    pub statements: usize,
}

/// One vehicle's ride: which curve, from where, which way, from when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ride {
    pub route: RouteId,
    pub direction: Direction,
    pub start_arc: f64,
    pub departure: f64,
    pub curve: u32,
}

/// One update message of the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Update {
    pub time: f64,
    pub id: u32,
    pub arc: f64,
    pub speed: f64,
}

impl Update {
    pub fn object(&self) -> ObjectId {
        ObjectId(u64::from(self.id))
    }

    pub fn message(&self) -> UpdateMessage {
        UpdateMessage::basic(self.time, UpdatePosition::Arc(self.arc), self.speed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    Range,
    Position,
    Nearest,
}

/// One statement of the query script. The text lacks its time clause:
/// the client appends the simulated time it asks about.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub head: String,
    /// The region of a range statement (for the checks).
    pub polygon: Option<Polygon>,
    /// Offset of the query time from the client's clock, in minutes.
    pub ahead: f64,
    /// `Some(len)` for a `DURING t TO t+len` statement.
    pub during: Option<f64>,
}

impl Stmt {
    /// The time the statement asks about when the client's clock reads
    /// `now`, exactly as the server will parse it from the text.
    fn asks_about(&self, now: f64) -> f64 {
        round4(now + self.ahead)
    }

    /// The statement's text when the client's clock reads `now`, and the
    /// time it asks about.
    pub fn render(&self, now: f64) -> (String, f64) {
        let t = self.asks_about(now);
        match self.during {
            None => (format!("{} AT TIME {t}", self.head), t),
            Some(len) => (
                format!("{} DURING {t} TO {}", self.head, round4(t + len)),
                t,
            ),
        }
    }

    /// The region the rendered statement asks about.
    pub fn region(&self, now: f64) -> Option<QueryRegion> {
        let polygon = self.polygon.clone()?;
        let t = self.asks_about(now);
        Some(match self.during {
            None => QueryRegion::at_instant(polygon, t),
            Some(len) => QueryRegion::during(polygon, t, round4(t + len)),
        })
    }
}

/// Numbers are printed with `{}` (shortest text that reads back to the
/// same `f64`), after rounding so the text stays short.
fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

pub struct Fleet {
    pub network: RouteNetwork,
    pub curves: Vec<SpeedCurve>,
    /// The maximum speed `V` of each curve, which the DBMS is told.
    pub max_speeds: Vec<f64>,
    pub rides: Vec<Ride>,
    /// The update trace, ordered by simulated time.
    pub updates: Vec<Update>,
    pub script: Vec<Stmt>,
    /// Engine ticks run and the time they took (the `policy` layer).
    pub policy_ticks: u64,
    pub policy_ns: u64,
}

impl Fleet {
    pub fn generate(seed: u64, spec: FleetSpec) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = grid_network(GRID_STREETS, GRID_STREETS, GRID_SPACING, 1).expect("grid city");
        let route_ids = network.route_ids();

        // The pool: one speed curve and one policy-engine run each.
        let mut curves = Vec::with_capacity(spec.curves);
        let mut emitted: Vec<Vec<PositionUpdate>> = Vec::with_capacity(spec.curves);
        let (mut policy_ticks, mut policy_ns) = (0u64, 0u64);
        for k in 0..spec.curves {
            let profile = TripProfile::ALL[k % TripProfile::ALL.len()];
            let curve = profile
                .generate(&mut rng, spec.minutes, TICK)
                .expect("speed curve");
            let n_ticks = curve.samples().len();
            let started = Instant::now();
            let mut engine = PolicyEngine::new(
                Quintuple::ail(UPDATE_COST),
                f64::MAX,
                1.0,
                PositionUpdate {
                    time: 0.0,
                    arc: 0.0,
                    speed: curve.speed_at(0.0),
                },
            )
            .expect("policy engine");
            let mut sent = Vec::new();
            for i in 1..n_ticks {
                let t = i as f64 * TICK;
                let update = engine
                    .tick(t, curve.distance_until(t), curve.speed_at(t))
                    .expect("truthful observation");
                sent.extend(update);
            }
            policy_ns += started.elapsed().as_nanos() as u64;
            policy_ticks += n_ticks as u64 - 1;
            curves.push(curve);
            emitted.push(sent);
        }

        // The vehicles, and their messages mapped onto their routes.
        let mut rides = Vec::with_capacity(spec.objects);
        let mut updates = Vec::new();
        for id in 0..spec.objects {
            let curve = rng.gen_range(0..spec.curves);
            let route = route_ids[rng.gen_range(0..route_ids.len())];
            let len = network.get(route).expect("route").length();
            let travelled = curves[curve].total_distance();
            let slack = len - travelled;
            assert!(slack > 0.0, "a ride must fit its route");
            let direction = if rng.gen_bool(0.5) {
                Direction::Forward
            } else {
                Direction::Backward
            };
            let offset = rng.gen_range(0.0..slack);
            let start_arc = match direction {
                Direction::Forward => offset,
                Direction::Backward => len - offset,
            };
            let departure = rng.gen_range(0.0..DEPARTURE_WINDOW);
            for u in &emitted[curve] {
                updates.push(Update {
                    time: departure + u.time,
                    id: id as u32,
                    arc: start_arc + direction.sign() * u.arc,
                    speed: u.speed,
                });
            }
            rides.push(Ride {
                route,
                direction,
                start_arc,
                departure,
                curve: curve as u32,
            });
        }
        updates.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.id.cmp(&b.id)));

        // The mix holds in every block of ten statements, in shuffled
        // order, so a short window sees the same mix as a long one.
        let mut script = Vec::with_capacity(spec.statements);
        while script.len() < spec.statements {
            let mut block = MIX_BLOCK;
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
            for kind in block {
                script.push(draw_statement(&mut rng, spec.objects, kind));
            }
        }
        script.truncate(spec.statements);
        Fleet {
            network,
            max_speeds: curves.iter().map(SpeedCurve::max_speed).collect(),
            curves,
            rides,
            updates,
            script,
            policy_ticks,
            policy_ns,
        }
    }

    /// The vehicle as it registers at departure.
    pub fn object(&self, id: usize) -> MovingObject {
        let ride = &self.rides[id];
        let curve = &self.curves[ride.curve as usize];
        let route = self.network.get(ride.route).expect("route");
        MovingObject {
            id: ObjectId(id as u64),
            name: format!("veh-{id}"),
            attr: PositionAttribute {
                start_time: ride.departure,
                route: ride.route,
                start_position: route.point_at(ride.start_arc),
                start_arc: ride.start_arc,
                direction: ride.direction,
                speed: curve.speed_at(0.0),
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: UPDATE_COST,
                },
            },
            max_speed: self.max_speeds[ride.curve as usize],
            trip_end: Some(self.trip_end(id)),
        }
    }

    /// The upper limit `Z` on the vehicle's trip the DBMS is told: the
    /// o-plane the index holds for it is cut off there (§4.2), not at the
    /// database's default horizon, so index and scan agree all run long.
    pub fn trip_end(&self, id: usize) -> f64 {
        let ride = &self.rides[id];
        ride.departure + self.curves[ride.curve as usize].duration() + TRIP_END_SLACK
    }

    /// Where the vehicle really is at simulated time `t`.
    pub fn true_position(&self, id: usize, t: f64) -> Point {
        let ride = &self.rides[id];
        let travelled = self.curves[ride.curve as usize].distance_until(t - ride.departure);
        self.network
            .get(ride.route)
            .expect("route")
            .point_at(ride.start_arc + ride.direction.sign() * travelled)
    }

    /// How many updates of the trace were sent by simulated minute `t`.
    pub fn updates_until(&self, t: f64) -> usize {
        self.updates.partition_point(|u| u.time <= t)
    }

    /// Update messages per vehicle per simulated hour.
    pub fn msgs_per_object_hour(&self, minutes: f64) -> f64 {
        self.updates.len() as f64 / (self.rides.len() as f64 * minutes / 60.0)
    }
}

/// The query mix: 70 % range (half `RECT`, half 5-vertex `POLYGON`; 90 %
/// `AT TIME`, 10 % `DURING`), 20 % position, 10 % 5-nearest.
const MIX_BLOCK: [StmtKind; 10] = {
    use StmtKind::{Nearest, Position, Range};
    [
        Range, Range, Range, Range, Range, Range, Range, Position, Position, Nearest,
    ]
};

fn draw_statement(rng: &mut StdRng, objects: usize, kind: StmtKind) -> Stmt {
    let extent = (GRID_STREETS - 1) as f64 * GRID_SPACING;
    let ahead = round4(rng.gen_range(0.0..QUERY_LOOKAHEAD));
    if kind == StmtKind::Range {
        let side = REGION_SIDES[rng.gen_range(0..REGION_SIDES.len())];
        let x = round3(rng.gen_range(0.0..extent - side));
        let y = round3(rng.gen_range(0.0..extent - side));
        let (head, vertices) = if rng.gen_bool(0.5) {
            let (x1, y1) = (round3(x + side), round3(y + side));
            (
                format!("RETRIEVE OBJECTS INSIDE RECT ({x}, {y}, {x1}, {y1})"),
                vec![
                    Point::new(x, y),
                    Point::new(x1, y),
                    Point::new(x1, y1),
                    Point::new(x, y1),
                ],
            )
        } else {
            let (cx, cy, r) = (x + side / 2.0, y + side / 2.0, side / 2.0);
            let turn = rng.gen_range(0.0..std::f64::consts::TAU);
            let vertices: Vec<Point> = (0..5)
                .map(|i| {
                    let a = turn + i as f64 * std::f64::consts::TAU / 5.0;
                    Point::new(round3(cx + r * a.cos()), round3(cy + r * a.sin()))
                })
                .collect();
            let text: Vec<String> = vertices
                .iter()
                .map(|p| format!("({}, {})", p.x, p.y))
                .collect();
            (
                format!("RETRIEVE OBJECTS INSIDE POLYGON ({})", text.join(", ")),
                vertices,
            )
        };
        let during = (rng.gen_range(0..10) == 0).then(|| round4(rng.gen_range(0.5..2.0)));
        Stmt {
            kind: StmtKind::Range,
            head,
            polygon: Some(Polygon::new(vertices).expect("query polygon")),
            ahead,
            during,
        }
    } else if kind == StmtKind::Position {
        Stmt {
            kind: StmtKind::Position,
            head: format!("RETRIEVE POSITION OF OBJECT {}", rng.gen_range(0..objects)),
            polygon: None,
            ahead,
            during: None,
        }
    } else {
        let x = round3(rng.gen_range(0.0..extent));
        let y = round3(rng.gen_range(0.0..extent));
        Stmt {
            kind: StmtKind::Nearest,
            head: format!("RETRIEVE 5 NEAREST OBJECTS TO POINT ({x}, {y})"),
            polygon: None,
            ahead,
            during: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FleetSpec = FleetSpec {
        objects: 300,
        curves: 16,
        minutes: 30.0,
        statements: 200,
    };

    /// The bytes a run would put on the wire for the whole trace and the
    /// whole script.
    fn wire(fleet: &Fleet) -> (Vec<u8>, String) {
        let mut trace = Vec::new();
        for u in &fleet.updates {
            trace.extend(u.id.to_le_bytes());
            for field in [u.time, u.arc, u.speed] {
                trace.extend(field.to_bits().to_le_bytes());
            }
        }
        let script: Vec<String> = fleet.script.iter().map(|s| s.render(7.25).0).collect();
        (trace, script.join(";\n"))
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (a, b, c) = (
            Fleet::generate(11, SPEC),
            Fleet::generate(11, SPEC),
            Fleet::generate(12, SPEC),
        );
        assert_eq!(wire(&a), wire(&b));
        assert_eq!(a.rides, b.rides);
        assert_ne!(wire(&a).0, wire(&c).0);
        assert_ne!(wire(&a).1, wire(&c).1);
    }

    #[test]
    fn the_trace_is_ordered_and_truthful() {
        let fleet = Fleet::generate(3, SPEC);
        assert!(!fleet.updates.is_empty());
        assert!(fleet.updates.windows(2).all(|w| w[0].time <= w[1].time));
        for u in &fleet.updates {
            // An update reports where the vehicle really is.
            let ride = &fleet.rides[u.id as usize];
            let route = fleet.network.get(ride.route).unwrap();
            let reported = route.point_at(u.arc);
            let truth = fleet.true_position(u.id as usize, u.time);
            assert!(reported.distance(truth) < 1e-9, "update {u:?}");
            assert!(u.speed <= fleet.max_speeds[ride.curve as usize] + 1e-12);
            assert!(u.time < fleet.trip_end(u.id as usize));
        }
    }

    #[test]
    fn the_script_holds_the_mix_and_parses() {
        let fleet = Fleet::generate(
            5,
            FleetSpec {
                statements: 4000,
                ..SPEC
            },
        );
        let share = |kind| {
            fleet.script.iter().filter(|s| s.kind == kind).count() as f64
                / fleet.script.len() as f64
        };
        assert_eq!(share(StmtKind::Range), 0.7);
        assert_eq!(share(StmtKind::Position), 0.2);
        assert_eq!(share(StmtKind::Nearest), 0.1);
        for stmt in &fleet.script {
            let (text, t) = stmt.render(12.5);
            let query = crate::api::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            // The time the client computes is the time the server reads.
            let parsed = match query {
                crate::api::Query::Range { time, .. } => time.start(),
                crate::api::Query::Position { at, .. } | crate::api::Query::Nearest { at, .. } => {
                    at
                }
                other => panic!("unexpected statement {other:?}"),
            };
            assert_eq!(parsed, t, "{text}");
            assert_eq!(stmt.region(12.5).is_some(), stmt.kind == StmtKind::Range);
        }
    }
}
