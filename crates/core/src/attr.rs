//! The position attribute (§2): the seven sub-attributes of a mobile
//! point object, plus the policy descriptor the DBMS derives bounds from.

use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, RouteId};

use crate::CoreError;

/// What the DBMS knows about an object's update policy (`P.policy`) —
/// enough to bound the deviation at any time (§3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyDescriptor {
    /// One of the paper's cost-based policies (dl / ail / cil): bounds
    /// come from Propositions 2–4 with the policy's update cost `C`.
    CostBased {
        /// Delayed (dl) or immediate (ail/cil) bound family.
        kind: BoundKind,
        /// The update cost `C`.
        update_cost: f64,
    },
    /// A fixed a-priori deviation bound `B` (dead reckoning, §6's
    /// alternative; also the traditional method with its drift tolerance).
    FixedBound {
        /// The bound `B` in miles.
        bound: f64,
    },
    /// No usable bound information (e.g. a purely periodic updater): the
    /// DBMS falls back to the kinematic envelope `D·t`,
    /// `D = max{v, V − v}`.
    Unbounded,
}

impl PolicyDescriptor {
    /// Refuses parameters under which the bound is unsound: an update
    /// cost `C` that is not finite and positive (Props 2–4 divide by and
    /// take roots of it), or a fixed bound `B` that is not finite and
    /// non-negative.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidField`] naming the parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            PolicyDescriptor::CostBased { update_cost: c, .. } if !(c.is_finite() && c > 0.0) => {
                Err(CoreError::InvalidField("update_cost", c))
            }
            PolicyDescriptor::FixedBound { bound } if !(bound.is_finite() && bound >= 0.0) => {
                Err(CoreError::InvalidField("bound", bound))
            }
            _ => Ok(()),
        }
    }

    /// The DBMS-side deviation bound at `t` minutes after the last update,
    /// for declared speed `v` and maximum speed `v_max`.
    pub fn deviation_bound(&self, v: f64, v_max: f64, t: f64) -> f64 {
        let t = t.max(0.0);
        match *self {
            PolicyDescriptor::CostBased { kind, update_cost } => {
                modb_policy::combined_bound(kind, v, v_max, update_cost, t)
            }
            PolicyDescriptor::FixedBound { bound } => {
                // The deviation also cannot outrun kinematics.
                let d = v.max((v_max - v).max(0.0));
                bound.min(d * t)
            }
            PolicyDescriptor::Unbounded => {
                let d = v.max((v_max - v).max(0.0));
                d * t
            }
        }
    }

    /// Slow/fast split of the bound, for uncertainty-interval geometry:
    /// returns `(BS(t), BF(t))`.
    pub fn bounds_split(&self, v: f64, v_max: f64, t: f64) -> (f64, f64) {
        let t = t.max(0.0);
        match *self {
            PolicyDescriptor::CostBased { kind, update_cost } => (
                modb_policy::slow_bound(kind, v, update_cost, t),
                modb_policy::fast_bound(kind, v, v_max, update_cost, t),
            ),
            PolicyDescriptor::FixedBound { bound } => {
                ((v * t).min(bound), ((v_max - v).max(0.0) * t).min(bound))
            }
            PolicyDescriptor::Unbounded => (v * t, (v_max - v).max(0.0) * t),
        }
    }
}

/// The position attribute of a mobile point object — the paper's seven
/// sub-attributes (§2).
#[derive(Debug, Clone, PartialEq)]
pub struct PositionAttribute {
    /// `P.starttime` — time of the last position update.
    pub start_time: f64,
    /// `P.route` — pointer into the route database.
    pub route: RouteId,
    /// `P.x.startposition`, `P.y.startposition` — the position at
    /// `start_time`.
    pub start_position: Point,
    /// The same start position in arc coordinates on `route` (derived at
    /// update time; stored to avoid re-projection on every query).
    pub start_arc: f64,
    /// `P.direction` — travel direction along the route.
    pub direction: Direction,
    /// `P.speed` — declared speed (miles/minute).
    pub speed: f64,
    /// `P.policy` — the update policy in force.
    pub policy: PolicyDescriptor,
}

impl PositionAttribute {
    /// The database position in arc coordinates at time `t` (§2): the
    /// point at route-distance `speed · (t − start_time)` from the start
    /// position, clamped into the route. Queries before `start_time`
    /// answer at `start_time` (the update is the earliest knowledge).
    pub fn database_arc(&self, route_len: f64, t: f64) -> f64 {
        let elapsed = (t - self.start_time).max(0.0);
        let delta = self.direction.sign() * self.speed * elapsed;
        (self.start_arc + delta).clamp(0.0, route_len)
    }

    /// The DBMS-side uncertainty interval in arc coordinates at time `t`:
    /// the stretch of route the object can possibly be on (§4.1.1),
    /// clamped into the route.
    pub fn uncertainty_arcs(&self, route_len: f64, v_max: f64, t: f64) -> (f64, f64) {
        let elapsed = (t - self.start_time).max(0.0);
        let (bs, bf) = self.policy.bounds_split(self.speed, v_max, elapsed);
        let nominal = self.speed * elapsed;
        let l = (nominal - bs).max(0.0);
        let u = nominal + bf;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(policy: PolicyDescriptor) -> PositionAttribute {
        PositionAttribute {
            start_time: 10.0,
            route: RouteId(1),
            start_position: Point::new(0.0, 0.0),
            start_arc: 20.0,
            direction: Direction::Forward,
            speed: 1.0,
            policy,
        }
    }

    const CB: PolicyDescriptor = PolicyDescriptor::CostBased {
        kind: BoundKind::Delayed,
        update_cost: 5.0,
    };

    #[test]
    fn database_arc_extrapolates_and_clamps() {
        let a = attr(CB);
        assert_eq!(a.database_arc(100.0, 10.0), 20.0);
        assert_eq!(a.database_arc(100.0, 15.0), 25.0);
        assert_eq!(a.database_arc(100.0, 500.0), 100.0);
        // Before the update: stays at the start.
        assert_eq!(a.database_arc(100.0, 0.0), 20.0);
        // Backward direction.
        let mut b = attr(CB);
        b.direction = Direction::Backward;
        assert_eq!(b.database_arc(100.0, 15.0), 15.0);
        assert_eq!(b.database_arc(100.0, 500.0), 0.0);
    }

    #[test]
    fn cost_based_bound_matches_policy_crate() {
        let a = attr(CB);
        let t = 14.0; // 4 minutes after the update
        let expected = modb_policy::combined_bound(BoundKind::Delayed, 1.0, 1.5, 5.0, 4.0);
        assert_eq!(a.policy.deviation_bound(1.0, 1.5, 4.0), expected);
        let (lo, hi) = a.uncertainty_arcs(100.0, 1.5, t);
        assert!(lo <= a.database_arc(100.0, t));
        assert!(hi >= a.database_arc(100.0, t));
    }

    #[test]
    fn fixed_bound_caps_and_kinematics() {
        let p = PolicyDescriptor::FixedBound { bound: 2.0 };
        // Early on, kinematics is tighter than B.
        assert_eq!(p.deviation_bound(1.0, 1.5, 1.0), 1.0);
        // Later, B caps it.
        assert_eq!(p.deviation_bound(1.0, 1.5, 10.0), 2.0);
        let (bs, bf) = p.bounds_split(1.0, 1.5, 10.0);
        assert_eq!(bs, 2.0);
        assert_eq!(bf, 2.0);
    }

    #[test]
    fn unbounded_grows_linearly() {
        let p = PolicyDescriptor::Unbounded;
        assert_eq!(p.deviation_bound(1.0, 1.5, 3.0), 3.0);
        assert_eq!(p.deviation_bound(0.2, 1.5, 3.0), 1.3 * 3.0);
    }

    #[test]
    fn uncertainty_interval_clamps_to_route() {
        let a = attr(CB);
        let (lo, hi) = a.uncertainty_arcs(26.0, 1.5, 20.0);
        assert!(lo >= 0.0);
        assert_eq!(hi, 26.0);
        assert!(lo <= hi);
    }
}
