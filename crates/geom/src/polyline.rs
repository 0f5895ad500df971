//! Piecewise-linear curves with arc-length parameterisation.
//!
//! The paper models every route as a piecewise-linear curve, and defines the
//! *route-distance* between two points on a route as the distance along the
//! route (§2). [`Polyline`] provides exactly the two primitives the paper
//! calls "straightforward to compute": the route-distance between two points
//! on the route, and the point at a given route-distance from another point.

use crate::bbox::Rect;
use crate::error::GeomError;
use crate::point::{Point, EPS};
use crate::segment::Segment;

/// A piecewise-linear curve with precomputed cumulative arc lengths.
///
/// Positions *on* the polyline are addressed by arc-length distance from the
/// first vertex, in `[0, length]` — this is the paper's route-distance
/// coordinate. Construction validates the vertices once so that every query
/// afterwards is infallible or cheaply checked.
///
/// ```
/// use modb_geom::{Point, Polyline};
/// let route = Polyline::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(10.0, 0.0),
///     Point::new(10.0, 5.0),
/// ])?;
/// assert_eq!(route.length(), 15.0);
/// // The point 12 route-miles from the start is 2 miles up the second leg.
/// assert_eq!(route.point_at_distance(12.0)?, Point::new(10.0, 2.0));
/// // Route-distance between two positions is |Δarc| (paper §2).
/// assert_eq!(route.route_distance(3.0, 12.0), 9.0);
/// # Ok::<(), modb_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    vertices: Vec<Point>,
    /// `cum[i]` is the arc-length from vertex 0 to vertex i; `cum[0] = 0`.
    cum: Vec<f64>,
}

impl Polyline {
    /// Builds a polyline from its vertices.
    ///
    /// # Errors
    ///
    /// - [`GeomError::TooFewVertices`] for fewer than two vertices.
    /// - [`GeomError::NonFiniteCoordinate`] if any coordinate is NaN/∞.
    /// - [`GeomError::ZeroLength`] if all vertices coincide.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() < 2 {
            return Err(GeomError::TooFewVertices {
                got: vertices.len(),
                need: 2,
            });
        }
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        let mut cum = Vec::with_capacity(vertices.len());
        cum.push(0.0);
        for w in vertices.windows(2) {
            let d = w[0].distance(w[1]);
            cum.push(cum.last().unwrap() + d);
        }
        if *cum.last().unwrap() < EPS {
            return Err(GeomError::ZeroLength);
        }
        Ok(Polyline { vertices, cum })
    }

    /// Total arc length of the polyline.
    #[inline]
    pub fn length(&self) -> f64 {
        *self.cum.last().unwrap()
    }

    /// The vertices, in order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Cumulative arc length at each vertex (`cum[0] == 0`).
    #[inline]
    pub fn cumulative(&self) -> &[f64] {
        &self.cum
    }

    /// First vertex.
    #[inline]
    pub fn start(&self) -> Point {
        self.vertices[0]
    }

    /// Last vertex.
    #[inline]
    pub fn end(&self) -> Point {
        *self.vertices.last().unwrap()
    }

    /// Iterator over the constituent segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Axis-aligned bounding box of the whole polyline.
    pub fn bbox(&self) -> Rect {
        Rect::from_points(self.vertices.iter().copied())
    }

    /// Index of the segment containing arc distance `d`, plus the parameter
    /// along that segment. `d` must already be within `[0, length]`.
    fn segment_at(&self, d: f64) -> (usize, f64) {
        // Binary search over cumulative lengths; `partition_point` returns
        // the first index with cum > d, so the containing segment starts at
        // idx - 1.
        let idx = self
            .cum
            .partition_point(|&c| c <= d)
            .min(self.cum.len() - 1);
        let i = idx - 1;
        let seg_len = self.cum[idx] - self.cum[i];
        let t = if seg_len < EPS {
            0.0
        } else {
            (d - self.cum[i]) / seg_len
        };
        (i, t.clamp(0.0, 1.0))
    }

    /// The point at arc-length distance `d` from the start.
    ///
    /// # Errors
    ///
    /// [`GeomError::DistanceOutOfRange`] when `d ∉ [0, length]` (with an
    /// [`EPS`]-sized grace band for accumulated floating-point error).
    pub fn point_at_distance(&self, d: f64) -> Result<Point, GeomError> {
        let len = self.length();
        if !(-EPS..=len + EPS).contains(&d) {
            return Err(GeomError::DistanceOutOfRange {
                requested: d,
                length: len,
            });
        }
        Ok(self.point_at_distance_clamped(d))
    }

    /// The point at arc-length distance `d`, with `d` clamped into
    /// `[0, length]`. Never fails; use when the caller's arithmetic may
    /// slightly overshoot the ends (e.g. extrapolating a database position
    /// past the end of a trip).
    pub fn point_at_distance_clamped(&self, d: f64) -> Point {
        let d = d.clamp(0.0, self.length());
        let (i, t) = self.segment_at(d);
        self.vertices[i].lerp(self.vertices[i + 1], t)
    }

    /// Projects an arbitrary point onto the polyline.
    ///
    /// Returns `(arc_distance, euclidean_distance)` of the closest point on
    /// the polyline. Linear in the number of segments.
    pub fn locate(&self, p: Point) -> (f64, f64) {
        let mut best_d = f64::INFINITY;
        let mut best_arc = 0.0;
        for (i, seg) in self.segments().enumerate() {
            let t = seg.project(p);
            let q = seg.point_at(t);
            let d = q.distance(p);
            if d < best_d {
                best_d = d;
                best_arc = self.cum[i] + t * (self.cum[i + 1] - self.cum[i]);
            }
        }
        (best_arc, best_d)
    }

    /// Route-distance between two arc positions (paper §2): simply the
    /// absolute difference of arc distances along the same route.
    #[inline]
    pub fn route_distance(&self, d0: f64, d1: f64) -> f64 {
        (d1 - d0).abs()
    }

    /// Visits, in order, the points of the path between arc distances
    /// `d0 ≤ d1`: the point at `d0`, the interior vertices, the point at
    /// `d1` (one point for a degenerate interval). The single enumeration
    /// behind [`Polyline::interval_points`] and
    /// [`Polyline::interval_bbox`], so the two cannot disagree.
    fn visit_interval(
        &self,
        d0: f64,
        d1: f64,
        mut visit: impl FnMut(Point),
    ) -> Result<(), GeomError> {
        if d0 > d1 {
            return Err(GeomError::InvertedInterval { lo: d0, hi: d1 });
        }
        let len = self.length();
        for d in [d0, d1] {
            if !(-EPS..=len + EPS).contains(&d) {
                return Err(GeomError::DistanceOutOfRange {
                    requested: d,
                    length: len,
                });
            }
        }
        let d0 = d0.clamp(0.0, len);
        let d1 = d1.clamp(0.0, len);
        let (i0, t0) = self.segment_at(d0);
        visit(self.vertices[i0].lerp(self.vertices[i0 + 1], t0));
        if d1 - d0 >= EPS {
            let (i1, t1) = self.segment_at(d1);
            for i in (i0 + 1)..=i1 {
                // Skip vertices coincident with either endpoint.
                if self.cum[i] - d0 > EPS && d1 - self.cum[i] > EPS {
                    visit(self.vertices[i]);
                }
            }
            visit(self.vertices[i1].lerp(self.vertices[i1 + 1], t1));
        }
        Ok(())
    }

    /// The path along the polyline between arc distances `d0 ≤ d1`:
    /// the point at `d0`, all interior vertices, and the point at `d1`.
    ///
    /// This is the geometry of the paper's *uncertainty interval* — the
    /// stretch of route between the lower bound `l(t)` and upper bound
    /// `u(t)` positions. Degenerate intervals (`d0 == d1`) yield one point.
    ///
    /// # Errors
    ///
    /// [`GeomError::InvertedInterval`] when `d0 > d1`;
    /// [`GeomError::DistanceOutOfRange`] when either endpoint is outside
    /// `[0, length]` (with an EPS grace band).
    pub fn interval_points(&self, d0: f64, d1: f64) -> Result<Vec<Point>, GeomError> {
        let mut pts = Vec::new();
        self.visit_interval(d0, d1, |p| pts.push(p))?;
        Ok(pts)
    }

    /// Bounding box of the path between arc distances `d0 ≤ d1` (clamped)
    /// — `Rect::from_points(self.interval_points(d0, d1)?)` without the
    /// vector: the index filter asks for one per tree hit.
    ///
    /// # Errors
    ///
    /// Same as [`Polyline::interval_points`].
    pub fn interval_bbox(&self, d0: f64, d1: f64) -> Result<Rect, GeomError> {
        let mut rect = Rect::empty();
        self.visit_interval(d0, d1, |p| rect = rect.union(&Rect::new(p, p)))?;
        Ok(rect)
    }

    /// The same polyline traversed in the opposite direction.
    ///
    /// Arc distance `d` on the reversed polyline addresses the same point as
    /// `length - d` on the original — this realises the paper's binary
    /// `P.direction` sub-attribute.
    pub fn reversed(&self) -> Polyline {
        let mut vertices = self.vertices.clone();
        vertices.reverse();
        // Reconstruction cannot fail: reversal preserves vertex count,
        // finiteness, and total length.
        Polyline::new(vertices).expect("reversal preserves validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        // Runs 10 east then 5 north; total length 15.
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 5.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Polyline::new(vec![Point::new(0.0, 0.0)]),
            Err(GeomError::TooFewVertices { got: 1, need: 2 })
        ));
        assert!(matches!(
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 0.0)]),
            Err(GeomError::NonFiniteCoordinate)
        ));
        assert!(matches!(
            Polyline::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]),
            Err(GeomError::ZeroLength)
        ));
    }

    #[test]
    fn length_and_cumulative() {
        let p = l_shape();
        assert_eq!(p.length(), 15.0);
        assert_eq!(p.cumulative(), &[0.0, 10.0, 15.0]);
        assert_eq!(p.start(), Point::new(0.0, 0.0));
        assert_eq!(p.end(), Point::new(10.0, 5.0));
    }

    #[test]
    fn point_at_distance_interior_and_ends() {
        let p = l_shape();
        assert_eq!(p.point_at_distance(0.0).unwrap(), Point::new(0.0, 0.0));
        assert_eq!(p.point_at_distance(4.0).unwrap(), Point::new(4.0, 0.0));
        assert_eq!(p.point_at_distance(10.0).unwrap(), Point::new(10.0, 0.0));
        assert_eq!(p.point_at_distance(12.0).unwrap(), Point::new(10.0, 2.0));
        assert_eq!(p.point_at_distance(15.0).unwrap(), Point::new(10.0, 5.0));
    }

    #[test]
    fn point_at_distance_out_of_range() {
        let p = l_shape();
        assert!(p.point_at_distance(-0.1).is_err());
        assert!(p.point_at_distance(15.1).is_err());
        // Clamped variant accepts anything.
        assert_eq!(p.point_at_distance_clamped(-3.0), p.start());
        assert_eq!(p.point_at_distance_clamped(99.0), p.end());
    }

    #[test]
    fn locate_projects_onto_nearest_segment() {
        let p = l_shape();
        // Above the horizontal leg.
        let (arc, dist) = p.locate(Point::new(4.0, 3.0));
        assert!((arc - 4.0).abs() < 1e-12);
        assert!((dist - 3.0).abs() < 1e-12);
        // Right of the vertical leg.
        let (arc, dist) = p.locate(Point::new(12.0, 2.0));
        assert!((arc - 12.0).abs() < 1e-12);
        assert!((dist - 2.0).abs() < 1e-12);
        // A point exactly on the line.
        let (arc, dist) = p.locate(Point::new(10.0, 5.0));
        assert!((arc - 15.0).abs() < 1e-12);
        assert!(dist < 1e-12);
    }

    #[test]
    fn route_distance_is_absolute_difference() {
        let p = l_shape();
        assert_eq!(p.route_distance(3.0, 12.0), 9.0);
        assert_eq!(p.route_distance(12.0, 3.0), 9.0);
        assert_eq!(p.route_distance(7.0, 7.0), 0.0);
    }

    #[test]
    fn interval_points_spanning_corner() {
        let p = l_shape();
        let pts = p.interval_points(8.0, 12.0).unwrap();
        assert_eq!(
            pts,
            vec![
                Point::new(8.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 2.0)
            ]
        );
    }

    #[test]
    fn interval_points_degenerate_and_errors() {
        let p = l_shape();
        assert_eq!(
            p.interval_points(5.0, 5.0).unwrap(),
            vec![Point::new(5.0, 0.0)]
        );
        assert!(matches!(
            p.interval_points(6.0, 5.0),
            Err(GeomError::InvertedInterval { .. })
        ));
        assert!(p.interval_points(-1.0, 5.0).is_err());
        assert!(p.interval_points(5.0, 16.0).is_err());
    }

    #[test]
    fn interval_points_endpoint_on_vertex_not_duplicated() {
        let p = l_shape();
        let pts = p.interval_points(10.0, 12.0).unwrap();
        assert_eq!(pts, vec![Point::new(10.0, 0.0), Point::new(10.0, 2.0)]);
        let pts = p.interval_points(8.0, 10.0).unwrap();
        assert_eq!(pts, vec![Point::new(8.0, 0.0), Point::new(10.0, 0.0)]);
    }

    #[test]
    fn interval_bbox_covers_corner() {
        let p = l_shape();
        let r = p.interval_bbox(8.0, 12.0).unwrap();
        assert_eq!(r.min, Point::new(8.0, 0.0));
        assert_eq!(r.max, Point::new(10.0, 2.0));
    }

    /// The allocation-free fold is the reference fold, bit for bit:
    /// multi-vertex spans, a reversed polyline, endpoints on vertices,
    /// zero-length intervals, and the same errors.
    #[test]
    fn interval_bbox_equals_bbox_of_interval_points() {
        let zigzag = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(6.0, -1.5),
            Point::new(6.0, 7.25),
            Point::new(-2.0, 7.25),
        ])
        .unwrap();
        for p in [l_shape(), zigzag.clone(), zigzag.reversed()] {
            let len = p.length();
            let stops: Vec<f64> = (0..=40).map(|i| len * f64::from(i) / 40.0).collect();
            for &d0 in stops.iter().chain(p.cumulative()) {
                for &d1 in stops.iter().chain(p.cumulative()) {
                    let reference = p.interval_points(d0, d1).map(Rect::from_points);
                    assert_eq!(p.interval_bbox(d0, d1), reference, "[{d0}, {d1}]");
                }
            }
            assert!(matches!(
                p.interval_bbox(2.0, 1.0),
                Err(GeomError::InvertedInterval { .. })
            ));
            assert!(p.interval_bbox(0.0, len + 1.0).is_err());
            let r = p.interval_bbox(1.0, 1.0).unwrap();
            assert_eq!(r.min, r.max, "zero-length interval is one point");
        }
    }

    #[test]
    fn reversed_addresses_mirror_distances() {
        let p = l_shape();
        let r = p.reversed();
        assert_eq!(r.length(), p.length());
        for d in [0.0, 3.0, 10.0, 15.0] {
            let a = p.point_at_distance(d).unwrap();
            let b = r.point_at_distance(15.0 - d).unwrap();
            assert!(a.approx_eq(b), "d = {d}");
        }
    }

    #[test]
    fn bbox_covers_all_vertices() {
        let p = l_shape();
        let r = p.bbox();
        assert_eq!(r.min, Point::new(0.0, 0.0));
        assert_eq!(r.max, Point::new(10.0, 5.0));
    }

    #[test]
    fn repeated_interior_vertex_is_tolerated() {
        let p = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ])
        .unwrap();
        assert_eq!(p.length(), 10.0);
        assert_eq!(p.point_at_distance(5.0).unwrap(), Point::new(5.0, 0.0));
        assert_eq!(p.point_at_distance(7.5).unwrap(), Point::new(7.5, 0.0));
    }
}
