//! Simple polygons: the query regions of the paper's range queries.
//!
//! A range query (§4) retrieves objects whose current position lies in a
//! polygon `G`. The may/must semantics (Theorems 5–6) reduce to two
//! predicates on the uncertainty-interval path: does it *intersect* the
//! polygon, and does it lie *entirely inside* the polygon. Both are
//! implemented here.

use crate::bbox::Rect;
use crate::error::GeomError;
use crate::point::Point;
use crate::segment::{intersection_params, segments_intersect, Segment};

/// A simple (non-self-intersecting) polygon in the plane.
///
/// Vertices may wind in either direction; the closing edge from the last
/// vertex back to the first is implicit. Containment treats the boundary as
/// inside.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
    bbox: Rect,
}

impl Polygon {
    /// Builds a polygon from its boundary vertices.
    ///
    /// # Errors
    ///
    /// - [`GeomError::DegeneratePolygon`] for fewer than three vertices.
    /// - [`GeomError::NonFiniteCoordinate`] for NaN/∞ coordinates.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::DegeneratePolygon {
                got: vertices.len(),
            });
        }
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        let bbox = Rect::from_points(vertices.iter().copied());
        Ok(Polygon { vertices, bbox })
    }

    /// Axis-aligned rectangle as a polygon — the most common query region.
    pub fn rectangle(rect: &Rect) -> Result<Self, GeomError> {
        Polygon::new(vec![
            rect.min,
            Point::new(rect.max.x, rect.min.y),
            rect.max,
            Point::new(rect.min.x, rect.max.y),
        ])
    }

    /// Regular polygon with `n ≥ 3` vertices approximating a disc — used for
    /// "within `radius` of a point" queries (the paper's taxi-cab example).
    pub fn regular(center: Point, radius: f64, n: usize) -> Result<Self, GeomError> {
        if n < 3 {
            return Err(GeomError::DegeneratePolygon { got: n });
        }
        let vertices = (0..n)
            .map(|i| {
                let theta = 2.0 * std::f64::consts::PI * (i as f64) / (n as f64);
                Point::new(
                    center.x + radius * theta.cos(),
                    center.y + radius * theta.sin(),
                )
            })
            .collect();
        Polygon::new(vertices)
    }

    /// Boundary vertices, in order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Bounding box (precomputed at construction).
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Iterator over the boundary edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area (shoelace formula): positive for counter-clockwise
    /// winding.
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.cross(b);
        }
        acc * 0.5
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Point-in-polygon test (even–odd ray casting). Boundary points count
    /// as inside.
    pub fn contains_point(&self, p: Point) -> bool {
        if !self.bbox.contains_point(p) {
            return false;
        }
        // Boundary counts as inside.
        for e in self.edges() {
            if e.distance_to_point(p) < crate::point::EPS {
                return true;
            }
        }
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Returns `true` when the segment intersects the polygon (its interior
    /// or boundary).
    pub fn intersects_segment(&self, s: &Segment) -> bool {
        if !self.bbox.intersects(&Rect::new(s.a, s.b)) {
            return false;
        }
        if self.contains_point(s.a) || self.contains_point(s.b) {
            return true;
        }
        self.edges().any(|e| segments_intersect(e.a, e.b, s.a, s.b))
    }

    /// Returns `true` when a polyline path (given as its vertex sequence)
    /// touches the polygon anywhere — the *may be in G* predicate of
    /// Theorem 5 applied to an uncertainty interval.
    ///
    /// A single-point path degenerates to point containment.
    pub fn intersects_path(&self, path: &[Point]) -> bool {
        match path {
            [] => false,
            [p] => self.contains_point(*p),
            _ => path
                .windows(2)
                .any(|w| self.intersects_segment(&Segment::new(w[0], w[1]))),
        }
    }

    /// Returns `true` when a polyline path lies entirely inside the (closed)
    /// polygon — the *must be in G* predicate of Theorem 6 applied to an
    /// uncertainty interval.
    ///
    /// Exactness: each path segment is split at every parameter where it
    /// meets a polygon edge; between consecutive split points the segment is
    /// entirely inside or entirely outside, so classifying the midpoint of
    /// each piece decides containment without sampling error.
    pub fn contains_path(&self, path: &[Point]) -> bool {
        if path.is_empty() {
            return false;
        }
        if !path.iter().all(|&p| self.contains_point(p)) {
            return false;
        }
        for w in path.windows(2) {
            let s = Segment::new(w[0], w[1]);
            let mut cuts = vec![0.0, 1.0];
            for e in self.edges() {
                cuts.extend(intersection_params(&s, &e));
            }
            cuts.sort_by(|a, b| a.partial_cmp(b).expect("params are finite"));
            for pair in cuts.windows(2) {
                if pair[1] - pair[0] > crate::point::EPS {
                    let mid = s.point_at((pair[0] + pair[1]) * 0.5);
                    if !self.contains_point(mid) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The least distance from a polyline path (its vertex sequence) to
    /// the polygon's boundary: 0 when the path touches or crosses an
    /// edge, `+∞` for an empty path. With [`Polygon::contains_path`] it
    /// decides whether every point within `d` of the path lies inside
    /// (contained and farther than `d` from the boundary) and whether any
    /// does (contained, or within `d` of the boundary).
    pub fn boundary_distance(&self, path: &[Point]) -> f64 {
        let pieces: Vec<Segment> = match path {
            [p] => vec![Segment::new(*p, *p)],
            _ => path.windows(2).map(|w| Segment::new(w[0], w[1])).collect(),
        };
        let mut least = f64::INFINITY;
        for s in &pieces {
            for e in self.edges() {
                if s.intersects(&e) {
                    return 0.0;
                }
                least = least
                    .min(e.distance_to_point(s.a))
                    .min(e.distance_to_point(s.b))
                    .min(s.distance_to_point(e.a))
                    .min(s.distance_to_point(e.b));
            }
        }
        least
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap()
    }

    fn concave_l() -> Polygon {
        // L-shaped polygon: big square minus top-right quadrant.
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap()
    }

    #[test]
    fn boundary_distance_of_paths() {
        let sq = unit_square();
        let p = |x, y| Point::new(x, y);
        // Inside, 0.25 from the nearest edge; outside, 1.0 away; a single
        // point; a path crossing an edge; a path wholly around a corner.
        assert!((sq.boundary_distance(&[p(0.25, 0.5), p(0.5, 0.5)]) - 0.25).abs() < 1e-12);
        assert!((sq.boundary_distance(&[p(2.0, 0.0), p(2.0, 1.0)]) - 1.0).abs() < 1e-12);
        assert!((sq.boundary_distance(&[p(0.5, 0.6)]) - 0.4).abs() < 1e-12);
        assert_eq!(sq.boundary_distance(&[p(0.5, 0.5), p(1.5, 0.5)]), 0.0);
        let corner = sq.boundary_distance(&[p(2.0, 1.5), p(1.5, 2.0)]);
        assert!((corner - 0.5f64.hypot(1.0).min(0.75f64.hypot(0.75))).abs() < 1e-12);
        assert_eq!(sq.boundary_distance(&[]), f64::INFINITY);
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            Err(GeomError::DegeneratePolygon { got: 2 })
        ));
        assert!(matches!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, f64::INFINITY),
                Point::new(1.0, 1.0)
            ]),
            Err(GeomError::NonFiniteCoordinate)
        ));
    }

    #[test]
    fn area_and_winding() {
        let sq = unit_square();
        assert!((sq.signed_area() - 1.0).abs() < 1e-12); // CCW
        assert!((sq.area() - 1.0).abs() < 1e-12);
        let l = concave_l();
        assert!((l.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn contains_point_interior_exterior_boundary() {
        let sq = unit_square();
        assert!(sq.contains_point(Point::new(0.5, 0.5)));
        assert!(!sq.contains_point(Point::new(1.5, 0.5)));
        assert!(sq.contains_point(Point::new(1.0, 0.5))); // boundary
        assert!(sq.contains_point(Point::new(0.0, 0.0))); // vertex
    }

    #[test]
    fn contains_point_concave() {
        let l = concave_l();
        assert!(l.contains_point(Point::new(0.5, 1.5)));
        assert!(l.contains_point(Point::new(1.5, 0.5)));
        assert!(!l.contains_point(Point::new(1.5, 1.5))); // notch
    }

    #[test]
    fn segment_intersection() {
        let sq = unit_square();
        // Fully inside.
        assert!(sq.intersects_segment(&Segment::new(Point::new(0.2, 0.2), Point::new(0.8, 0.8))));
        // Crossing through.
        assert!(sq.intersects_segment(&Segment::new(Point::new(-1.0, 0.5), Point::new(2.0, 0.5))));
        // Fully outside.
        assert!(!sq.intersects_segment(&Segment::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0))));
    }

    #[test]
    fn path_may_and_must_semantics() {
        let sq = unit_square();
        let inside = [
            Point::new(0.2, 0.2),
            Point::new(0.8, 0.2),
            Point::new(0.8, 0.8),
        ];
        assert!(sq.intersects_path(&inside));
        assert!(sq.contains_path(&inside));

        let crossing = [Point::new(0.5, 0.5), Point::new(1.5, 0.5)];
        assert!(sq.intersects_path(&crossing));
        assert!(!sq.contains_path(&crossing));

        let outside = [Point::new(2.0, 2.0), Point::new(3.0, 2.0)];
        assert!(!sq.intersects_path(&outside));
        assert!(!sq.contains_path(&outside));
    }

    #[test]
    fn path_through_concave_notch_is_not_contained() {
        let l = concave_l();
        // Both endpoints inside the L but the straight line cuts the notch.
        let path = [Point::new(1.8, 0.5), Point::new(0.5, 1.8)];
        assert!(l.intersects_path(&path));
        assert!(!l.contains_path(&path));
    }

    #[test]
    fn path_grazing_reflex_corner_is_contained() {
        let l = concave_l();
        // This diagonal touches the reflex corner (1, 1) exactly; the
        // closed polygon contains it throughout.
        let path = [Point::new(1.5, 0.5), Point::new(0.5, 1.5)];
        assert!(l.contains_path(&path));
    }

    #[test]
    fn single_point_path() {
        let sq = unit_square();
        assert!(sq.intersects_path(&[Point::new(0.5, 0.5)]));
        assert!(sq.contains_path(&[Point::new(0.5, 0.5)]));
        assert!(!sq.intersects_path(&[Point::new(5.0, 5.0)]));
        assert!(!sq.intersects_path(&[]));
        assert!(!sq.contains_path(&[]));
    }

    #[test]
    fn rectangle_and_regular_constructors() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        let pg = Polygon::rectangle(&r).unwrap();
        assert!((pg.area() - 2.0).abs() < 1e-12);
        assert_eq!(pg.bbox(), r);

        let disc = Polygon::regular(Point::new(0.0, 0.0), 1.0, 64).unwrap();
        // Area of a 64-gon approximates π within 1 %.
        assert!((disc.area() - std::f64::consts::PI).abs() < 0.01);
        assert!(disc.contains_point(Point::new(0.0, 0.0)));
        assert!(!disc.contains_point(Point::new(1.1, 0.0)));
        assert!(Polygon::regular(Point::ORIGIN, 1.0, 2).is_err());
    }
}
