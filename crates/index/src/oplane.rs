//! O-planes: the geometric representation of a position attribute (§4.1.1).
//!
//! Given a position-attribute value, the object's possible positions form a
//! ruled surface in (x, y, t) time-space bounded below by
//! `l(t) = v·t − BS(t)` and above by `u(t) = v·t + BF(t)`, where `BS`/`BF`
//! are the slow/fast deviation bounds of §3.3 for the object's update
//! policy. The *uncertainty interval* at time `t` is the stretch of route
//! between `l(t)` and `u(t)`; the o-plane is the union of those intervals
//! over the plane's time span.
//!
//! For indexing, the o-plane is over-approximated by a set of 3-D boxes,
//! one per time slab (§4.2): each box covers the route sub-polyline spanned
//! by the uncertainty intervals of that slab. Over-approximation is safe —
//! false positives are filtered by exact refinement, false negatives are
//! impossible.

use modb_geom::{Aabb3, GeomError, Point};
use modb_policy::{fast_bound, fast_crossover_time, slow_bound, slow_crossover_time, BoundKind};
use modb_routes::{Direction, Route, RouteId};

use crate::error::IndexError;

/// The o-plane of one position-attribute value.
#[derive(Debug, Clone, PartialEq)]
pub struct OPlane {
    /// The route the object travels (`P.route`).
    pub route: RouteId,
    /// Arc position of the start point (`P.x/y.startposition`).
    pub start_arc: f64,
    /// Travel direction (`P.direction`).
    pub direction: Direction,
    /// Declared speed `v` (`P.speed`).
    pub speed: f64,
    /// Maximum trip speed `V` known to the DBMS.
    pub max_speed: f64,
    /// Update cost `C` of the object's policy.
    pub update_cost: f64,
    /// Bound family of the object's policy (`P.policy`).
    pub kind: BoundKind,
    /// Update timestamp (`P.starttime`), absolute minutes.
    pub start_time: f64,
    /// Cutoff `Z`: "if there is an upper limit Z on the time when o's trip
    /// will end, then [the planes] can be cut off at time Z" (§4.2).
    pub end_time: f64,
}

impl OPlane {
    /// Validates and constructs an o-plane.
    ///
    /// # Errors
    ///
    /// [`IndexError::InvalidParameter`] for bad numbers,
    /// [`IndexError::EmptyTimeSpan`] when `end_time ≤ start_time`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        route: RouteId,
        start_arc: f64,
        direction: Direction,
        speed: f64,
        max_speed: f64,
        update_cost: f64,
        kind: BoundKind,
        start_time: f64,
        end_time: f64,
    ) -> Result<Self, IndexError> {
        if !start_arc.is_finite() || start_arc < 0.0 {
            return Err(IndexError::InvalidParameter("start_arc", start_arc));
        }
        if !speed.is_finite() || speed < 0.0 {
            return Err(IndexError::InvalidParameter("speed", speed));
        }
        if !max_speed.is_finite() || max_speed < 0.0 {
            return Err(IndexError::InvalidParameter("max_speed", max_speed));
        }
        if !update_cost.is_finite() || update_cost <= 0.0 {
            return Err(IndexError::InvalidParameter("update_cost", update_cost));
        }
        if !start_time.is_finite() {
            return Err(IndexError::InvalidParameter("start_time", start_time));
        }
        if !end_time.is_finite() || end_time <= start_time {
            return Err(IndexError::EmptyTimeSpan {
                start: start_time,
                end: end_time,
            });
        }
        Ok(OPlane {
            route,
            start_arc,
            direction,
            speed,
            max_speed,
            update_cost,
            kind,
            start_time,
            end_time,
        })
    }

    /// The uncertainty interval at absolute time `t`, as (signed) distances
    /// from the start position along the travel direction:
    /// `(l(t), u(t))` with `0 ≤ l ≤ u`.
    pub fn lu(&self, t: f64) -> (f64, f64) {
        let tr = (t - self.start_time).max(0.0);
        let bs = slow_bound(self.kind, self.speed, self.update_cost, tr);
        let bf = fast_bound(self.kind, self.speed, self.max_speed, self.update_cost, tr);
        let nominal = self.speed * tr;
        ((nominal - bs).max(0.0), nominal + bf)
    }

    /// The uncertainty interval at absolute time `t` in arc coordinates on
    /// the route, clamped to `[0, route_len]`. Returns `(arc_lo, arc_hi)`
    /// with `arc_lo ≤ arc_hi`.
    pub fn arc_interval(&self, route_len: f64, t: f64) -> (f64, f64) {
        let (l, u) = self.lu(t);
        self.arcs_from_lu(route_len, l, u)
    }

    fn arcs_from_lu(&self, route_len: f64, l: f64, u: f64) -> (f64, f64) {
        match self.direction {
            Direction::Forward => (
                (self.start_arc + l).clamp(0.0, route_len),
                (self.start_arc + u).clamp(0.0, route_len),
            ),
            Direction::Backward => (
                (self.start_arc - u).clamp(0.0, route_len),
                (self.start_arc - l).clamp(0.0, route_len),
            ),
        }
    }

    /// Conservative `(l_min, u_max)` over the time slab `[t0, t1]`.
    ///
    /// `BS`/`BF` are unimodal in `t` (rise, then plateau or decay), so
    /// their slab maximum is attained at an endpoint or at the crossover;
    /// `l` is nondecreasing, so its minimum is at `t0`. The result covers
    /// every uncertainty interval in the slab.
    fn slab_lu(&self, t0: f64, t1: f64) -> (f64, f64) {
        let tr0 = (t0 - self.start_time).max(0.0);
        let tr1 = (t1 - self.start_time).max(0.0);
        let candidates = |cross: f64| -> [f64; 3] { [tr0, tr1, cross.clamp(tr0, tr1)] };
        let bs_cross = slow_crossover_time(self.speed, self.update_cost);
        let bf_cross = fast_crossover_time(self.speed, self.max_speed, self.update_cost);
        let bs_max = candidates(if bs_cross.is_finite() { bs_cross } else { tr1 })
            .iter()
            .map(|&t| slow_bound(self.kind, self.speed, self.update_cost, t))
            .fold(0.0, f64::max);
        let bf_max = candidates(if bf_cross.is_finite() { bf_cross } else { tr1 })
            .iter()
            .map(|&t| fast_bound(self.kind, self.speed, self.max_speed, self.update_cost, t))
            .fold(0.0, f64::max);
        let l_min = (self.speed * tr0 - bs_max).max(0.0);
        let u_max = self.speed * tr1 + bf_max;
        (l_min, u_max)
    }

    /// Validates the slab duration against this plane and lays out its
    /// time slabs.
    fn slab_layout(&self, route: &Route, slab_duration: f64) -> Result<SlabLayout, IndexError> {
        if route.id() != self.route {
            return Err(IndexError::RouteMismatch);
        }
        if !slab_duration.is_finite() || slab_duration <= 0.0 {
            return Err(IndexError::InvalidParameter("slab_duration", slab_duration));
        }
        let span = self.end_time - self.start_time;
        Ok(SlabLayout {
            start: self.start_time,
            slab: slab_duration,
            n: ((span / slab_duration).ceil() as usize).max(1),
            // Not `end_time`: the two can differ in the last bit, and
            // every stored box so far was cut at this one.
            end: self.start_time + span,
        })
    }

    /// The box of the slab `[t0, t1]`: the route sub-polyline its
    /// uncertainty intervals sweep, over that time span.
    fn slab_box(&self, route: &Route, (t0, t1): (f64, f64)) -> Result<Aabb3, IndexError> {
        let (l, u) = self.slab_lu(t0, t1);
        let (arc_lo, arc_hi) = self.arcs_from_lu(route.length(), l, u);
        let rect = route.polyline().interval_bbox(arc_lo, arc_hi)?;
        Ok(Aabb3::from_rect_time(&rect, t0, t1))
    }

    /// Decomposes the o-plane into 3-D boxes covering it, one per time slab
    /// of at most `slab_duration` minutes.
    ///
    /// The index never materialises this list — it files the plane and
    /// asks [`OPlane::union_box`] and [`OPlane::any_slab_intersects`],
    /// which walk the same slabs — so this is the reference the tests
    /// compare those two against.
    ///
    /// # Errors
    ///
    /// [`IndexError::RouteMismatch`] when `route` is not the plane's route;
    /// [`IndexError::InvalidParameter`] for a bad slab duration; geometry
    /// errors propagate.
    pub fn to_boxes(&self, route: &Route, slab_duration: f64) -> Result<Vec<Aabb3>, IndexError> {
        self.slab_layout(route, slab_duration)?
            .spans()
            .map(|span| self.slab_box(route, span))
            .collect()
    }

    /// The union of the boxes [`OPlane::to_boxes`] returns, without
    /// building them — the one box per object the index's tree files.
    ///
    /// # Errors
    ///
    /// Same as [`OPlane::to_boxes`].
    pub fn union_box(&self, route: &Route, slab_duration: f64) -> Result<Aabb3, IndexError> {
        self.slab_layout(route, slab_duration)?
            .spans()
            .try_fold(Aabb3::empty(), |union, span| {
                Ok(union.union(&self.slab_box(route, span)?))
            })
    }

    /// `true` when some box of [`OPlane::to_boxes`] intersects `query` —
    /// the per-hit refinement of the index filter. Only the slabs whose
    /// time span meets the query's are computed: one for a query at an
    /// instant, two when it sits on a slab boundary.
    ///
    /// # Errors
    ///
    /// Same as [`OPlane::to_boxes`], for the slabs computed.
    pub fn any_slab_intersects(
        &self,
        route: &Route,
        slab_duration: f64,
        query: &Aabb3,
    ) -> Result<bool, IndexError> {
        let layout = self.slab_layout(route, slab_duration)?;
        let (q0, q1) = query.time_span();
        for span in layout.meeting(q0, q1) {
            if self.slab_box(route, span)?.intersects(query) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The uncertainty interval at absolute time `t` as the route path
    /// between `l(t)` and `u(t)` — the geometry Theorems 5–6 test against
    /// polygons.
    ///
    /// # Errors
    ///
    /// [`IndexError::RouteMismatch`] for the wrong route; geometry errors
    /// propagate.
    pub fn interval_points(&self, route: &Route, t: f64) -> Result<Vec<Point>, IndexError> {
        if route.id() != self.route {
            return Err(IndexError::RouteMismatch);
        }
        let (lo, hi) = self.arc_interval(route.length(), t);
        route
            .polyline()
            .interval_points(lo, hi)
            .map_err(|e: GeomError| e.into())
    }
}

/// The time slabs of one o-plane (§4.2): `n` slabs of `slab` minutes
/// from `start`, the last cut at `end`. Every consumer of the
/// decomposition takes its slab boundaries from here, so a box computed
/// on demand is the box the full decomposition holds at that index.
#[derive(Debug, Clone, Copy)]
struct SlabLayout {
    start: f64,
    slab: f64,
    n: usize,
    end: f64,
}

impl SlabLayout {
    /// Time spans of all the slabs in order.
    fn spans(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.n).map(|i| self.span(i))
    }

    /// Time span `(t0, t1)` of slab `i`.
    fn span(&self, i: usize) -> (f64, f64) {
        let t0 = self.start + i as f64 * self.slab;
        (t0, (t0 + self.slab).min(self.end))
    }

    /// Spans of exactly the slabs whose box can meet a query over
    /// `[q0, q1]` in time. They are found by division, widened by one
    /// slab each way so rounding in `start + i·slab` cannot lose one,
    /// then each is tested the way [`Aabb3::intersects`] tests the time
    /// axis of its box.
    fn meeting(&self, q0: f64, q1: f64) -> impl Iterator<Item = (f64, f64)> + '_ {
        let last = (self.n - 1) as f64;
        // A NaN bound casts to slab 0, which the exact test then refuses.
        let slab_of = |q: f64, widen: f64| {
            (((q - self.start) / self.slab).floor() + widen).clamp(0.0, last) as usize
        };
        (slab_of(q0, -1.0)..=slab_of(q1, 1.0))
            .map(|i| self.span(i))
            .filter(move |&(t0, t1)| t0.min(t1) <= q1 && q0 <= t0.max(t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_geom::Point;

    const C: f64 = 5.0;

    fn straight_route() -> Route {
        Route::from_vertices(
            RouteId(1),
            "straight",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap()
    }

    fn plane(kind: BoundKind, direction: Direction, start_arc: f64) -> OPlane {
        OPlane::new(
            RouteId(1),
            start_arc,
            direction,
            1.0,
            1.5,
            C,
            kind,
            0.0,
            20.0,
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        let mk = |speed: f64, end: f64| {
            OPlane::new(
                RouteId(1),
                0.0,
                Direction::Forward,
                speed,
                1.5,
                C,
                BoundKind::Delayed,
                0.0,
                end,
            )
        };
        assert!(mk(1.0, 20.0).is_ok());
        assert!(matches!(
            mk(-1.0, 20.0),
            Err(IndexError::InvalidParameter("speed", _))
        ));
        assert!(matches!(
            mk(1.0, 0.0),
            Err(IndexError::EmptyTimeSpan { .. })
        ));
    }

    #[test]
    fn lu_matches_bounds() {
        let p = plane(BoundKind::Delayed, Direction::Forward, 0.0);
        // At t = 2: nominal 2, BS = min(√10, 2) = 2 → l = 0;
        // BF = min(√5, 1) = 1 → u = 3.
        let (l, u) = p.lu(2.0);
        assert!((l - 0.0).abs() < 1e-12);
        assert!((u - 3.0).abs() < 1e-12);
        // At t = 10: BS = √10, BF = √5 (plateaus).
        let (l, u) = p.lu(10.0);
        assert!((l - (10.0 - 10.0_f64.sqrt())).abs() < 1e-12);
        assert!((u - (10.0 + 5.0_f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn lu_immediate_shrinks() {
        let p = plane(BoundKind::Immediate, Direction::Forward, 0.0);
        // Far from the update the immediate bounds decay as 2C/t = 10/t.
        let (l, u) = p.lu(10.0);
        assert!((l - 9.0).abs() < 1e-12);
        assert!((u - 11.0).abs() < 1e-12);
        // Interval width shrinks as t grows past the crossovers.
        let w5 = {
            let (l, u) = p.lu(5.0);
            u - l
        };
        let w15 = {
            let (l, u) = p.lu(15.0);
            u - l
        };
        assert!(w15 < w5);
    }

    #[test]
    fn arc_interval_directions_and_clamping() {
        let route = straight_route();
        let fwd = plane(BoundKind::Delayed, Direction::Forward, 10.0);
        let (lo, hi) = fwd.arc_interval(route.length(), 2.0);
        assert!((lo - 10.0).abs() < 1e-12);
        assert!((hi - 13.0).abs() < 1e-12);
        let bwd = plane(BoundKind::Delayed, Direction::Backward, 10.0);
        let (lo, hi) = bwd.arc_interval(route.length(), 2.0);
        assert!((lo - 7.0).abs() < 1e-12);
        assert!((hi - 10.0).abs() < 1e-12);
        // Clamping at route ends.
        let near_end = OPlane::new(
            RouteId(1),
            99.0,
            Direction::Forward,
            1.0,
            1.5,
            C,
            BoundKind::Delayed,
            0.0,
            20.0,
        )
        .unwrap();
        let (lo, hi) = near_end.arc_interval(route.length(), 10.0);
        assert!(lo >= 0.0 && hi <= 100.0 && lo <= hi);
        assert_eq!(hi, 100.0);
    }

    /// Every box set covers the exact uncertainty interval at every sampled
    /// time — the safety property that makes index filtering sound.
    #[test]
    fn boxes_cover_plane() {
        let route = straight_route();
        for kind in [BoundKind::Delayed, BoundKind::Immediate] {
            for dir in [Direction::Forward, Direction::Backward] {
                let p = plane(kind, dir, 50.0);
                let boxes = p.to_boxes(&route, 2.5).unwrap();
                assert!(!boxes.is_empty());
                let mut t = 0.0;
                while t <= 20.0 {
                    let (lo, hi) = p.arc_interval(route.length(), t);
                    for arc in [lo, 0.5 * (lo + hi), hi] {
                        let pt = route.point_at(arc);
                        let covered = boxes.iter().any(|b| b.contains_point([pt.x, pt.y, t]));
                        assert!(covered, "{kind:?} {dir:?}: arc {arc} at t={t} uncovered");
                    }
                    t += 0.25;
                }
            }
        }
    }

    #[test]
    fn boxes_respect_cutoff() {
        let route = straight_route();
        let p = plane(BoundKind::Delayed, Direction::Forward, 0.0);
        let boxes = p.to_boxes(&route, 4.0).unwrap();
        assert_eq!(boxes.len(), 5); // 20 minutes / 4-minute slabs
        let t_max = boxes.iter().map(|b| b.max[2]).fold(f64::MIN, f64::max);
        assert!((t_max - 20.0).abs() < 1e-12);
        let t_min = boxes.iter().map(|b| b.min[2]).fold(f64::MAX, f64::min);
        assert!((t_min - 0.0).abs() < 1e-12);
    }

    /// The two on-demand readers walk the slabs `to_boxes` lists: the
    /// union is the fold of the list, and a query meets some slab exactly
    /// when it meets some box of the list — at instants, on slab
    /// boundaries, and outside the plane's span.
    #[test]
    fn on_demand_slabs_match_the_decomposition() {
        let route = straight_route();
        for kind in [BoundKind::Delayed, BoundKind::Immediate] {
            for dir in [Direction::Forward, Direction::Backward] {
                let p = plane(kind, dir, 50.0);
                let boxes = p.to_boxes(&route, 2.5).unwrap();
                let union = boxes.iter().fold(Aabb3::empty(), |a, b| a.union(b));
                assert_eq!(p.union_box(&route, 2.5).unwrap(), union);
                let mut t = -3.0;
                while t <= 23.0 {
                    for dt in [0.0, 0.25, 4.0] {
                        for x in [20.0, 45.0, 50.0, 58.0, 80.0] {
                            let q = Aabb3::new([x, -1.0, t], [x + 4.0, 1.0, t + dt]);
                            assert_eq!(
                                p.any_slab_intersects(&route, 2.5, &q).unwrap(),
                                boxes.iter().any(|b| b.intersects(&q)),
                                "{kind:?} {dir:?}: {q:?}"
                            );
                        }
                    }
                    t += 0.25;
                }
                assert!(!p.any_slab_intersects(&route, 2.5, &Aabb3::empty()).unwrap());
            }
        }
    }

    #[test]
    fn to_boxes_rejects_wrong_route_and_bad_slab() {
        let wrong = Route::from_vertices(
            RouteId(9),
            "other",
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
        )
        .unwrap();
        let p = plane(BoundKind::Delayed, Direction::Forward, 0.0);
        assert!(matches!(
            p.to_boxes(&wrong, 1.0),
            Err(IndexError::RouteMismatch)
        ));
        // The on-demand readers validate the same way: the index filter
        // keeps a hit whose slab test errors, so an error must not read
        // as "no slab intersects".
        let q = Aabb3::new([0.0, -1.0, 1.0], [5.0, 1.0, 1.0]);
        assert_eq!(
            p.any_slab_intersects(&wrong, 1.0, &q),
            Err(IndexError::RouteMismatch)
        );
        assert_eq!(p.union_box(&wrong, 1.0), Err(IndexError::RouteMismatch));
        let route = straight_route();
        assert!(p.to_boxes(&route, 0.0).is_err());
        assert!(p.union_box(&route, 0.0).is_err());
        assert!(p.any_slab_intersects(&route, f64::NAN, &q).is_err());
    }

    #[test]
    fn interval_points_are_on_route() {
        let route = straight_route();
        let p = plane(BoundKind::Delayed, Direction::Forward, 10.0);
        let pts = p.interval_points(&route, 2.0).unwrap();
        assert!(pts.len() >= 2);
        assert!(pts[0].approx_eq(Point::new(10.0, 0.0)));
        assert!(pts.last().unwrap().approx_eq(Point::new(13.0, 0.0)));
    }

    /// A zero-speed plane (stopped object, e.g. dl after declaring speed
    /// 0): l = u = 0 — only fast headroom widens it.
    #[test]
    fn stopped_object_plane() {
        let p = OPlane::new(
            RouteId(1),
            10.0,
            Direction::Forward,
            0.0,
            1.5,
            C,
            BoundKind::Delayed,
            0.0,
            20.0,
        )
        .unwrap();
        let (l, u) = p.lu(5.0);
        assert_eq!(l, 0.0);
        assert!(u > 0.0); // fast bound: it may have started moving
    }
}
