//! k-nearest-neighbour queries with uncertainty semantics.
//!
//! The paper's dispatch scenario ("retrieve the free cabs that are
//! currently within 1 mile…", §1) naturally extends to *nearest-cab*
//! queries. Because every position answer carries a deviation bound, the
//! distance from a query point to an object is an **interval**
//! `[d − B, d + B]` around the database-position distance `d`. An object
//! is a *certain* top-k member when its pessimistic distance (`d + B`)
//! beats the optimistic distance (`d − B`) of every non-candidate; it is
//! a *possible* member when its optimistic distance beats at least one
//! candidate's pessimistic distance.

use modb_geom::Point;

use crate::database::Database;
use crate::error::CoreError;
use crate::object::ObjectId;

/// One ranked neighbour.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbour {
    /// The object.
    pub id: ObjectId,
    /// Euclidean distance from the query point to the *database position*.
    pub distance: f64,
    /// The object's deviation bound at query time.
    pub bound: f64,
    /// Whether the object is certainly in the top-k (`true`) or only
    /// possibly (`false`).
    pub certain: bool,
}

impl Neighbour {
    /// Smallest possible true distance.
    pub fn optimistic(&self) -> f64 {
        (self.distance - self.bound).max(0.0)
    }

    /// Largest possible true distance.
    pub fn pessimistic(&self) -> f64 {
        self.distance + self.bound
    }
}

/// Answer to a k-NN query: the `k` nearest by database position, each
/// flagged certain/possible, plus trailing objects that *may* still
/// belong to the true top-k because their optimistic distance undercuts a
/// ranked object's pessimistic distance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NearestAnswer {
    /// The k nearest by database-position distance, ascending.
    pub ranked: Vec<Neighbour>,
    /// Unranked objects that may displace a ranked one.
    pub contenders: Vec<Neighbour>,
}

impl NearestAnswer {
    /// Runs the top-k selection over a full set of distance intervals:
    /// sort by `(distance, id)`, rank the first `k`, keep trailing
    /// objects whose optimistic distance undercuts a ranked object's
    /// pessimistic distance as contenders, and mark a ranked object
    /// certain iff its pessimistic distance is at most the optimistic
    /// distance of every unranked object. Incoming `certain` flags are
    /// ignored (recomputed).
    ///
    /// This is the whole of [`Database::nearest`] after the position
    /// scan.
    fn from_neighbours(mut all: Vec<Neighbour>, k: usize) -> NearestAnswer {
        for n in &mut all {
            n.certain = false;
        }
        let by_distance = |a: &Neighbour, b: &Neighbour| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("distances are finite")
                .then_with(|| a.id.cmp(&b.id))
        };
        // Partition the k nearest to the front in O(n); only they and the
        // (few) contenders are ever sorted, never the whole fleet.
        let split = k.min(all.len());
        if split > 0 && split < all.len() {
            all.select_nth_unstable_by(split - 1, by_distance);
        }
        let (ranked_slice, rest) = all.split_at(split);
        let mut ranked = ranked_slice.to_vec();
        ranked.sort_by(by_distance);
        let mut contenders: Vec<Neighbour> = if ranked.is_empty() {
            Vec::new()
        } else {
            // A trailing object contends when its optimistic distance is
            // within some ranked object's pessimistic distance.
            let worst_ranked_pessimistic = ranked
                .iter()
                .map(|n| n.pessimistic())
                .fold(f64::NEG_INFINITY, f64::max);
            rest.iter()
                .filter(|n| n.optimistic() < worst_ranked_pessimistic)
                .cloned()
                .collect()
        };
        contenders.sort_by(by_distance);
        // A ranked object is certain when no contender (nor a
        // lower-ranked member) could optimistically beat its pessimistic
        // distance... conservatively: certain iff its pessimistic distance
        // is at most the optimistic distance of every object outside the
        // ranked set.
        let min_outside_optimistic = rest
            .iter()
            .map(|n| n.optimistic())
            .fold(f64::INFINITY, f64::min);
        for n in &mut ranked {
            n.certain = n.pessimistic() <= min_outside_optimistic;
        }
        NearestAnswer { ranked, contenders }
    }
}

impl Database {
    /// The `k` moving objects nearest to `center` at time `t`, with
    /// certain/possible classification (see module docs).
    ///
    /// Evaluation is a scan over database positions — k-NN has no o-plane
    /// filter (a nearest query has no fixed region) and fleet sizes up to
    /// ~10⁵ scan in microseconds; an incremental-expansion index search is
    /// an optimisation left documented in DESIGN.md.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidField`] for `k = 0`; route resolution errors
    /// propagate.
    pub fn nearest(&self, center: Point, k: usize, t: f64) -> Result<NearestAnswer, CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidField("k", 0.0));
        }
        let mut all: Vec<Neighbour> = Vec::with_capacity(self.moving_count());
        for (id, obj) in self.residents() {
            let (route, arc, bound) = self.locate(obj, t)?;
            all.push(Neighbour {
                id,
                distance: route.point_at(arc).distance(center),
                bound,
                certain: false,
            });
        }
        Ok(NearestAnswer::from_neighbours(all, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{PolicyDescriptor, PositionAttribute};
    use crate::database::{DatabaseConfig, MovingObject};
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};

    fn db_with_objects(objs: &[(u64, f64, f64)]) -> Database {
        // (id, arc, bound-ish) on one straight route; FixedBound policies
        // make the bounds exact and controllable.
        let route = Route::from_vertices(
            RouteId(1),
            "r",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap();
        let mut db = Database::new(
            RouteNetwork::from_routes([route]).unwrap(),
            DatabaseConfig::default(),
        );
        for &(id, arc, bound) in objs {
            db.register_moving(MovingObject {
                id: ObjectId(id),
                name: format!("veh-{id}"),
                attr: PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(1),
                    start_position: Point::new(arc, 0.0),
                    start_arc: arc,
                    direction: Direction::Forward,
                    speed: 1.0,
                    policy: PolicyDescriptor::FixedBound { bound },
                },
                max_speed: 2.0,
                trip_end: None,
            })
            .unwrap();
        }
        db
    }

    #[test]
    fn ranks_by_database_distance() {
        // At t = 1 (speed 1): positions 11, 31, 61.
        let db = db_with_objects(&[(1, 10.0, 0.1), (2, 30.0, 0.1), (3, 60.0, 0.1)]);
        let a = db.nearest(Point::new(0.0, 0.0), 2, 1.0).unwrap();
        assert_eq!(a.ranked.len(), 2);
        assert_eq!(a.ranked[0].id, ObjectId(1));
        assert_eq!(a.ranked[1].id, ObjectId(2));
        assert!((a.ranked[0].distance - 11.0).abs() < 1e-9);
        // Bounds are tiny: both certain, no contenders.
        assert!(a.ranked.iter().all(|n| n.certain));
        assert!(a.contenders.is_empty());
    }

    #[test]
    fn large_bounds_create_contenders_and_uncertainty() {
        // Positions at t=0: 10, 12, 14 — with ±3-mile kinematic-capped
        // bounds at t→∞; at t = 10 the FixedBound caps them at 3.
        let db = db_with_objects(&[(1, 10.0, 3.0), (2, 12.0, 3.0), (3, 14.0, 3.0)]);
        let a = db.nearest(Point::new(0.0, 0.0), 1, 10.0).unwrap();
        assert_eq!(a.ranked.len(), 1);
        assert_eq!(a.ranked[0].id, ObjectId(1));
        // Object 2's optimistic distance (22−3=19) < object 1's
        // pessimistic (20+3=23): rank is uncertain and 2 contends.
        assert!(!a.ranked[0].certain);
        assert!(a.contenders.iter().any(|n| n.id == ObjectId(2)));
    }

    #[test]
    fn k_larger_than_fleet() {
        let db = db_with_objects(&[(1, 10.0, 0.5)]);
        let a = db.nearest(Point::new(0.0, 0.0), 5, 0.0).unwrap();
        assert_eq!(a.ranked.len(), 1);
        assert!(a.contenders.is_empty());
        assert!(a.ranked[0].certain, "sole object is trivially certain");
    }

    #[test]
    fn k_zero_rejected_and_empty_db() {
        let db = db_with_objects(&[]);
        assert!(db.nearest(Point::new(0.0, 0.0), 0, 0.0).is_err());
        let a = db.nearest(Point::new(0.0, 0.0), 3, 0.0).unwrap();
        assert!(a.ranked.is_empty() && a.contenders.is_empty());
    }

    /// The factored-out selection is insensitive to input order and to
    /// stale incoming `certain` flags.
    #[test]
    fn from_neighbours_is_order_insensitive() {
        let mk = |id: u64, d: f64, b: f64, certain: bool| Neighbour {
            id: ObjectId(id),
            distance: d,
            bound: b,
            certain,
        };
        let a = vec![
            mk(1, 5.0, 1.0, false),
            mk(2, 6.0, 2.0, false),
            mk(3, 20.0, 0.5, false),
            mk(4, 5.0, 0.1, false),
        ];
        let mut b = a.clone();
        b.reverse();
        for n in &mut b {
            n.certain = true; // stale flags must be recomputed
        }
        let ans_a = NearestAnswer::from_neighbours(a, 2);
        let ans_b = NearestAnswer::from_neighbours(b, 2);
        assert_eq!(ans_a, ans_b);
        // Equal distances break ties by id: 1 and 4 both sit at 5.0, so
        // 1 ranks first.
        assert_eq!(ans_a.ranked[0].id, ObjectId(1));
        assert_eq!(ans_a.ranked[1].id, ObjectId(4));
    }

    #[test]
    fn optimistic_distance_clamps_at_zero() {
        let n = Neighbour {
            id: ObjectId(1),
            distance: 0.5,
            bound: 2.0,
            certain: false,
        };
        assert_eq!(n.optimistic(), 0.0);
        assert_eq!(n.pessimistic(), 2.5);
    }

    /// Soundness against ground truth: drawing each object's actual
    /// position anywhere in its uncertainty interval never lets a
    /// non-(ranked ∪ contender) object enter the true top-k.
    #[test]
    fn certain_and_contender_semantics_sound() {
        let objs: Vec<(u64, f64, f64)> = (0..12).map(|i| (i, 5.0 + 7.0 * i as f64, 2.0)).collect();
        let db = db_with_objects(&objs);
        let t = 10.0;
        let k = 3;
        let center = Point::new(0.0, 0.0);
        let a = db.nearest(center, k, t).unwrap();
        let in_answer: Vec<ObjectId> = a
            .ranked
            .iter()
            .chain(a.contenders.iter())
            .map(|n| n.id)
            .collect();
        // Adversarial truth: everyone in the answer set is as far as
        // possible, everyone outside as near as possible. Even then, the
        // true top-k must be within the answer set.
        let mut adversarial: Vec<(ObjectId, f64)> = Vec::new();
        for id in db.moving_ids().collect::<Vec<_>>() {
            let ans = db.position_of(id, t).unwrap();
            let d = ans.position.distance(center);
            let truth = if in_answer.contains(&id) {
                d + ans.bound
            } else {
                (d - ans.bound).max(0.0)
            };
            adversarial.push((id, truth));
        }
        adversarial.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap());
        for (id, _) in adversarial.iter().take(k) {
            assert!(
                in_answer.contains(id),
                "true top-{k} member {id:?} missing from ranked ∪ contenders"
            );
        }
    }
}
