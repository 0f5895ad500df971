//! 2-D axis-aligned bounding boxes.

use crate::point::Point;

/// A 2-D axis-aligned rectangle, `[min.x, max.x] × [min.y, max.y]`.
///
/// Used for broad-phase filtering in polygon queries and as the spatial
/// footprint of the 3-D index boxes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalising the order of
    /// the coordinates so `min ≤ max` component-wise.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The empty rectangle: identity for [`Rect::union`], intersects
    /// nothing, contains nothing.
    pub fn empty() -> Self {
        Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Returns `true` for the empty rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Smallest rectangle covering a set of points; empty for no points.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Self {
        points
            .into_iter()
            .fold(Rect::empty(), |r, p| r.union(&Rect::new(p, p)))
    }

    /// Smallest rectangle covering both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Returns `true` when the rectangles overlap (shared boundary counts).
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` when `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (self.min.x <= other.min.x
                && self.min.y <= other.min.y
                && self.max.x >= other.max.x
                && self.max.y >= other.max.y)
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area; zero for the empty rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Center point. Undefined (non-finite) for the empty rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.y + self.max.y) * 0.5,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises_corners() {
        let r = Rect::new(Point::new(5.0, -1.0), Point::new(1.0, 3.0));
        assert_eq!(r.min, Point::new(1.0, -1.0));
        assert_eq!(r.max, Point::new(5.0, 3.0));
    }

    #[test]
    fn empty_behaviour() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(!e.intersects(&e));
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert_eq!(e.union(&r), r);
        assert_eq!(r.union(&e), r);
        assert!(r.contains_rect(&e));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = Rect::new(Point::new(2.0, -1.0), Point::new(3.0, 0.5));
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u.min, Point::new(0.0, -1.0));
        assert_eq!(u.max, Point::new(3.0, 1.0));
    }

    #[test]
    fn intersection_predicate() {
        let a = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = Rect::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        let c = Rect::new(Point::new(2.5, 2.5), Point::new(4.0, 4.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&c));
        assert!(!a.intersects(&c));
        // Shared edge counts.
        let d = Rect::new(Point::new(2.0, 0.0), Point::new(3.0, 2.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn containment() {
        let big = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let small = Rect::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        assert!(big.contains_rect(&small));
        assert!(!small.contains_rect(&big));
        assert!(big.contains_point(Point::new(10.0, 10.0)));
        assert!(!big.contains_point(Point::new(10.1, 5.0)));
    }

    #[test]
    fn from_points_and_measures() {
        let r = Rect::from_points([
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.0),
            Point::new(4.0, 2.0),
        ]);
        assert_eq!(r.min, Point::new(-2.0, 0.0));
        assert_eq!(r.max, Point::new(4.0, 5.0));
        assert_eq!(r.width(), 6.0);
        assert_eq!(r.height(), 5.0);
        assert_eq!(r.area(), 30.0);
        assert_eq!(r.center(), Point::new(1.0, 2.5));
    }
}
