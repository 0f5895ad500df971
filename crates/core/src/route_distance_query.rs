//! Route-distance within queries.
//!
//! The paper defines distance between points *along routes* (§2), and its
//! trucking query ("retrieve the trucks that are currently within 1 mile
//! of truck ABT312") is most useful with road distance — a truck across a
//! river is no help. This module adds within-*route*-distance queries:
//! same-route arc distance, with the §2 convention that the distance
//! between points on different routes is infinite.

use crate::database::Database;
use crate::error::CoreError;
use crate::object::ObjectId;
use crate::query::{Containment, RangeAnswer};

impl Database {
    /// "Retrieve the objects currently within `radius` *route*-miles of
    /// moving object `target`" — the trucking query under the paper's
    /// route-distance metric (§2): objects on a different route are at
    /// infinite distance and never qualify.
    ///
    /// Uncertainty handling mirrors the Euclidean variant: with the
    /// target's bound `B_t` and a candidate's bound `B_c`, the candidate
    /// *must* qualify when the pessimistic separation
    /// `|d| + B_t + B_c ≤ radius`, and *may* qualify when the optimistic
    /// separation `|d| − B_t − B_c ≤ radius`, where `d` is the arc
    /// distance between database positions.
    ///
    /// # Errors
    ///
    /// Unknown target, invalid radius; route resolution errors propagate.
    pub fn within_route_distance_of_object(
        &self,
        target: ObjectId,
        radius: f64,
        t: f64,
    ) -> Result<RangeAnswer, CoreError> {
        if !radius.is_finite() || radius <= 0.0 {
            return Err(CoreError::InvalidField("radius", radius));
        }
        let target_obj = self.moving(target)?;
        let target_route = target_obj.attr.route;
        let target_ans = self.position_of(target, t)?;
        let mut answer = RangeAnswer::default();
        for obj in self.moving_objects() {
            let id = obj.id;
            if id == target || obj.attr.route != target_route {
                continue; // itself, or infinite route distance (§2)
            }
            answer.candidates += 1;
            let (_, arc, bound) = self.locate(obj, t)?;
            let d = (arc - target_ans.arc).abs();
            let slack = target_ans.bound + bound;
            let classification = if d + slack <= radius {
                Some(Containment::Must)
            } else if d - slack <= radius {
                Some(Containment::May)
            } else {
                None
            };
            match classification {
                Some(Containment::Must) => answer.must.push(id),
                Some(Containment::May) => answer.may.push(id),
                None => {}
            }
        }
        answer.normalize();
        Ok(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{PolicyDescriptor, PositionAttribute};
    use crate::database::{DatabaseConfig, MovingObject};
    use modb_geom::Point;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};

    fn db() -> Database {
        // Two routes that pass very near each other in Euclidean space:
        // route distance still separates them.
        let net = RouteNetwork::from_routes([
            Route::from_vertices(
                RouteId(1),
                "north-bank",
                vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            )
            .unwrap(),
            Route::from_vertices(
                RouteId(2),
                "south-bank",
                vec![Point::new(0.0, 0.2), Point::new(100.0, 0.2)],
            )
            .unwrap(),
        ])
        .unwrap();
        let mut db = Database::new(net, DatabaseConfig::default());
        let add = |db: &mut Database, id: u64, route: u64, arc: f64, bound: f64| {
            db.register_moving(MovingObject {
                id: ObjectId(id),
                name: format!("truck-{id}"),
                attr: PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(route),
                    start_position: Point::new(arc, if route == 1 { 0.0 } else { 0.2 }),
                    start_arc: arc,
                    direction: Direction::Forward,
                    speed: 0.0,
                    policy: PolicyDescriptor::FixedBound { bound },
                },
                max_speed: 1.0,
                trip_end: None,
            })
            .unwrap();
        };
        add(&mut db, 1, 1, 50.0, 0.1); // the target
        add(&mut db, 2, 1, 52.0, 0.1); // 2 route-miles away: must (≤3)
        add(&mut db, 3, 1, 52.9, 0.1); // 2.9 away, slack 0.4 at t→∞: may
        add(&mut db, 4, 1, 70.0, 0.1); // far: excluded
        add(&mut db, 5, 2, 50.0, 0.1); // Euclidean-near but other route
        db
    }

    #[test]
    fn route_distance_semantics() {
        let d = db();
        // t = 10: fixed bounds are fully in force (kinematic cap passed).
        let a = d
            .within_route_distance_of_object(ObjectId(1), 3.0, 10.0)
            .unwrap();
        assert_eq!(a.must, vec![ObjectId(2)]);
        assert_eq!(a.may, vec![ObjectId(3)]);
        assert!(!a.all().contains(&ObjectId(4)));
        // The cross-river truck is Euclidean-adjacent (0.2 mi!) but at
        // infinite route distance.
        assert!(!a.all().contains(&ObjectId(5)));
        // Contrast: the Euclidean query happily returns it.
        let e = d.within_distance_of_object(ObjectId(1), 3.0, 10.0).unwrap();
        assert!(e.all().contains(&ObjectId(5)));
    }

    #[test]
    fn validation_and_unknown_target() {
        let d = db();
        assert!(d
            .within_route_distance_of_object(ObjectId(1), 0.0, 0.0)
            .is_err());
        assert!(d
            .within_route_distance_of_object(ObjectId(99), 1.0, 0.0)
            .is_err());
    }

    #[test]
    fn target_excluded_from_answer() {
        let d = db();
        let a = d
            .within_route_distance_of_object(ObjectId(1), 50.0, 10.0)
            .unwrap();
        assert!(!a.all().contains(&ObjectId(1)));
    }
}
