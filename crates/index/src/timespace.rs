//! Time-space query regions (§4.1.2).
//!
//! The query "retrieve the objects which are inside polygon G at time t₀"
//! is represented by `R_G(t₀)`: the polygon G lifted to the plane `t = t₀`
//! in (x, y, t) space. Theorem 5: an object *may* be in G at `t₀` iff
//! `R_G(t₀)` intersects its o-plane; Theorem 6 adds the *must* condition.
//! A time-interval extension (`R_G([t0, t1])`) supports "during" queries.

use modb_geom::{Aabb3, Point, Polygon};

/// The geometric form of a range query on position attributes.
#[derive(Debug, Clone)]
pub struct QueryRegion {
    polygon: Polygon,
    t0: f64,
    t1: f64,
}

impl QueryRegion {
    /// `R_G(t₀)`: polygon `G` at the single instant `t₀` — the paper's
    /// query form. `t₀` may be the current time or a future time.
    pub fn at_instant(polygon: Polygon, t0: f64) -> Self {
        QueryRegion {
            polygon,
            t0,
            t1: t0,
        }
    }

    /// Polygon `G` over the closed time interval `[t0, t1]` (an extension:
    /// "which objects are in G at any time during the interval"). The
    /// interval is normalised.
    pub fn during(polygon: Polygon, t0: f64, t1: f64) -> Self {
        QueryRegion {
            polygon,
            t0: t0.min(t1),
            t1: t0.max(t1),
        }
    }

    /// The query polygon `G`.
    #[inline]
    pub fn polygon(&self) -> &Polygon {
        &self.polygon
    }

    /// Query start time.
    #[inline]
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Query end time (equals [`QueryRegion::t0`] for instant queries).
    #[inline]
    pub fn t1(&self) -> f64 {
        self.t1
    }

    /// Returns `true` for a single-instant region.
    #[inline]
    pub fn is_instant(&self) -> bool {
        self.t0 == self.t1
    }

    /// The 3-D box enclosing the region — what is handed to the R\*-tree.
    pub fn aabb(&self) -> Aabb3 {
        Aabb3::from_rect_time(&self.polygon.bbox(), self.t0, self.t1)
    }

    /// How many instants [`QueryRegion::refinement_times`] evaluates at
    /// most for `sample_dt`: one for an instant, else the two endpoints
    /// and a sample every `sample_dt` minutes between them (endpoints
    /// only for a step that is not a positive number). Saturates at
    /// `usize::MAX`, so a caller can bound the work of a span before
    /// asking for its samples.
    pub fn refinement_samples(&self, sample_dt: f64) -> usize {
        if self.is_instant() {
            return 1;
        }
        let steps = if sample_dt.is_finite() && sample_dt > 0.0 {
            ((self.t1 - self.t0) / sample_dt).ceil()
        } else {
            1.0
        };
        (steps as usize).saturating_add(1)
    }

    /// Time instants at which exact refinement should evaluate uncertainty
    /// intervals: the endpoints plus interior samples every
    /// `sample_dt` minutes for interval queries. Sample `i` is
    /// `t0 + i·sample_dt`, so the count is fixed by the span
    /// ([`QueryRegion::refinement_samples`]) at any magnitude of `t0`;
    /// samples that round to the same `f64` are returned once.
    pub fn refinement_times(&self, sample_dt: f64) -> Vec<f64> {
        let mut ts = vec![self.t0];
        if self.is_instant() {
            return ts;
        }
        for i in 1..self.refinement_samples(sample_dt) - 1 {
            let t = self.t0 + i as f64 * sample_dt;
            if t >= self.t1 {
                break;
            }
            if t > ts[ts.len() - 1] {
                ts.push(t);
            }
        }
        ts.push(self.t1);
        ts
    }
}

/// Convenience: a "within `radius` miles of `center`" query region (the
/// paper's taxi-cab example), as a 32-gon at instant `t0`.
pub fn within_radius(center: Point, radius: f64, t0: f64) -> Option<QueryRegion> {
    if !radius.is_finite() || radius <= 0.0 {
        return None;
    }
    Polygon::regular(center, radius, 32)
        .ok()
        .map(|g| QueryRegion::at_instant(g, t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_geom::Rect;

    fn square() -> Polygon {
        Polygon::rectangle(&Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0))).unwrap()
    }

    #[test]
    fn instant_region() {
        let q = QueryRegion::at_instant(square(), 5.0);
        assert!(q.is_instant());
        assert_eq!(q.t0(), 5.0);
        assert_eq!(q.t1(), 5.0);
        let b = q.aabb();
        assert_eq!(b.min, [0.0, 0.0, 5.0]);
        assert_eq!(b.max, [2.0, 2.0, 5.0]);
        assert_eq!(q.refinement_times(0.1), vec![5.0]);
    }

    #[test]
    fn during_region_normalises_and_samples() {
        let q = QueryRegion::during(square(), 8.0, 6.0);
        assert_eq!((q.t0(), q.t1()), (6.0, 8.0));
        assert!(!q.is_instant());
        let ts = q.refinement_times(1.0);
        assert_eq!(ts, vec![6.0, 7.0, 8.0]);
        // Degenerate sample step falls back to endpoints.
        let ts = q.refinement_times(0.0);
        assert_eq!(ts, vec![6.0, 8.0]);
        assert_eq!(q.refinement_samples(0.0), 2);
        // A span that is not a whole number of steps ends on t1.
        let q = QueryRegion::during(square(), 6.0, 8.5);
        assert_eq!(q.refinement_times(1.0), vec![6.0, 7.0, 8.0, 8.5]);
        assert_eq!(q.refinement_samples(1.0), 4);
    }

    /// Near t = 1e17 adjacent floats are 16 apart, so a step of one
    /// minute added to a running time never moves it; counting the
    /// samples from the span ends, and those that round together are
    /// kept once.
    #[test]
    fn sampling_terminates_at_any_magnitude() {
        let q = QueryRegion::during(square(), 1e17, 1e17 + 16.0);
        assert_eq!(q.refinement_samples(1.0), 17);
        let ts = q.refinement_times(1.0);
        assert!(ts.len() <= 18, "{} samples", ts.len());
        assert_eq!((ts[0], ts[ts.len() - 1]), (1e17, 1e17 + 16.0));
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
        // An unbounded span counts as too many to sample.
        let q = QueryRegion::during(square(), 0.0, f64::INFINITY);
        assert_eq!(q.refinement_samples(1.0), usize::MAX);
    }

    #[test]
    fn within_radius_region() {
        let q = within_radius(Point::new(3.0, 3.0), 1.0, 2.0).unwrap();
        assert!(q.polygon().contains_point(Point::new(3.0, 3.0)));
        assert!(!q.polygon().contains_point(Point::new(4.5, 3.0)));
        assert_eq!(q.t0(), 2.0);
        assert!(within_radius(Point::new(0.0, 0.0), -1.0, 0.0).is_none());
    }
}
