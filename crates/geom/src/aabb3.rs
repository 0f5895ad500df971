//! 3-D axis-aligned boxes in (x, y, t) time-space.
//!
//! The paper's §4 represents moving objects and range queries as geometric
//! bodies in a 3-dimensional space whose axes are the two spatial
//! coordinates plus time. The spatial index (`modb-index`) decomposes this
//! space into boxes; [`Aabb3`] is that box type.

use crate::bbox::Rect;
use crate::point::Point;

/// An axis-aligned box in (x, y, t) time-space.
///
/// `x`/`y` are miles, `t` is minutes (the workspace conventions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb3 {
    /// Minimum corner `(x, y, t)`.
    pub min: [f64; 3],
    /// Maximum corner `(x, y, t)`.
    pub max: [f64; 3],
}

impl Aabb3 {
    /// Creates a box from two opposite corners, normalising per-axis order.
    pub fn new(a: [f64; 3], b: [f64; 3]) -> Self {
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for i in 0..3 {
            min[i] = a[i].min(b[i]);
            max[i] = a[i].max(b[i]);
        }
        Aabb3 { min, max }
    }

    /// Builds a box from a spatial rectangle and a time interval.
    pub fn from_rect_time(rect: &Rect, t0: f64, t1: f64) -> Self {
        Aabb3::new([rect.min.x, rect.min.y, t0], [rect.max.x, rect.max.y, t1])
    }

    /// The empty box: union identity, intersects nothing.
    pub fn empty() -> Self {
        Aabb3 {
            min: [f64::INFINITY; 3],
            max: [f64::NEG_INFINITY; 3],
        }
    }

    /// Returns `true` for the empty box.
    pub fn is_empty(&self) -> bool {
        (0..3).any(|i| self.min[i] > self.max[i])
    }

    /// The spatial (x, y) footprint of the box.
    pub fn rect(&self) -> Rect {
        Rect::new(
            Point::new(self.min[0], self.min[1]),
            Point::new(self.max[0], self.max[1]),
        )
    }

    /// The time extent `[t_min, t_max]` of the box.
    pub fn time_span(&self) -> (f64, f64) {
        (self.min[2], self.max[2])
    }

    /// Smallest box covering both `self` and `other`.
    pub fn union(&self, other: &Aabb3) -> Aabb3 {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for i in 0..3 {
            min[i] = self.min[i].min(other.min[i]);
            max[i] = self.max[i].max(other.max[i]);
        }
        Aabb3 { min, max }
    }

    /// Returns `true` when the boxes overlap (shared boundary counts).
    pub fn intersects(&self, other: &Aabb3) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && (0..3).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// Returns `true` when `other` lies entirely inside `self`.
    pub fn contains(&self, other: &Aabb3) -> bool {
        other.is_empty()
            || (0..3).all(|i| self.min[i] <= other.min[i] && self.max[i] >= other.max[i])
    }

    /// Returns `true` when the point lies inside or on the boundary.
    pub fn contains_point(&self, p: [f64; 3]) -> bool {
        (0..3).all(|i| p[i] >= self.min[i] && p[i] <= self.max[i])
    }

    /// Volume; zero for the empty box.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (0..3).map(|i| self.max[i] - self.min[i]).product()
        }
    }

    /// Surface-area analogue used by the R\*-tree margin heuristic: the sum
    /// of edge lengths along each axis.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (0..3).map(|i| self.max[i] - self.min[i]).sum()
        }
    }

    /// Volume of the intersection with `other` (zero when disjoint).
    pub fn intersection_volume(&self, other: &Aabb3) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let mut v = 1.0;
        for i in 0..3 {
            let lo = self.min[i].max(other.min[i]);
            let hi = self.max[i].min(other.max[i]);
            if hi <= lo {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// How much `self`'s volume would grow to also cover `other`.
    pub fn enlargement(&self, other: &Aabb3) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// Center of the box.
    pub fn center(&self) -> [f64; 3] {
        [
            (self.min[0] + self.max[0]) * 0.5,
            (self.min[1] + self.max[1]) * 0.5,
            (self.min[2] + self.max[2]) * 0.5,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(min: [f64; 3], max: [f64; 3]) -> Aabb3 {
        Aabb3::new(min, max)
    }

    #[test]
    fn new_normalises() {
        let a = Aabb3::new([1.0, 5.0, 2.0], [0.0, 6.0, -2.0]);
        assert_eq!(a.min, [0.0, 5.0, -2.0]);
        assert_eq!(a.max, [1.0, 6.0, 2.0]);
    }

    #[test]
    fn empty_identity() {
        let e = Aabb3::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        let a = b([0.0; 3], [1.0; 3]);
        assert_eq!(e.union(&a), a);
        assert!(!e.intersects(&a));
        assert!(a.contains(&e));
    }

    #[test]
    fn union_and_volume() {
        let a = b([0.0; 3], [1.0; 3]);
        let c = b([2.0; 3], [3.0; 3]);
        let u = a.union(&c);
        assert_eq!(u.min, [0.0; 3]);
        assert_eq!(u.max, [3.0; 3]);
        assert_eq!(u.volume(), 27.0);
        assert_eq!(a.volume(), 1.0);
        assert_eq!(a.enlargement(&c), 26.0);
    }

    #[test]
    fn intersection_tests() {
        let a = b([0.0; 3], [2.0; 3]);
        let c = b([1.0; 3], [3.0; 3]);
        let d = b([2.5; 3], [4.0; 3]);
        assert!(a.intersects(&c));
        assert!(!a.intersects(&d));
        assert_eq!(a.intersection_volume(&c), 1.0);
        assert_eq!(a.intersection_volume(&d), 0.0);
        // Touching boundary intersects but has zero volume.
        let e = b([2.0, 0.0, 0.0], [3.0, 2.0, 2.0]);
        assert!(a.intersects(&e));
        assert_eq!(a.intersection_volume(&e), 0.0);
    }

    #[test]
    fn containment_and_points() {
        let a = b([0.0; 3], [10.0; 3]);
        assert!(a.contains(&b([1.0; 3], [2.0; 3])));
        assert!(!a.contains(&b([1.0; 3], [11.0; 3])));
        assert!(a.contains_point([10.0, 0.0, 5.0]));
        assert!(!a.contains_point([10.1, 0.0, 5.0]));
    }

    #[test]
    fn margin_and_center() {
        let a = b([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]);
        assert_eq!(a.margin(), 6.0);
        assert_eq!(a.center(), [0.5, 1.0, 1.5]);
    }

    #[test]
    fn from_rect_time_round_trip() {
        let r = Rect::new(Point::new(0.0, 1.0), Point::new(2.0, 3.0));
        let a = Aabb3::from_rect_time(&r, 5.0, 7.0);
        assert_eq!(a.rect(), r);
        assert_eq!(a.time_span(), (5.0, 7.0));
    }
}
