//! Multi-leg journeys: trips that change routes.
//!
//! §3.1: "If during the trip the object changes its route, then it sends a
//! position update message that includes the identification of the new
//! route. … the route distance between two points on different routes
//! [is] infinite, [so] this will trigger a position update whenever the
//! object changes routes." A [`Journey`] is a sequence of [`Trip`] legs on
//! (possibly) different routes; the leg boundaries are exactly the
//! route-change update points.

use crate::error::MotionError;
use crate::trip::Trip;

/// A sequence of trips executed back to back.
#[derive(Debug, Clone, PartialEq)]
pub struct Journey {
    legs: Vec<Trip>,
}

impl Journey {
    /// Builds a journey from consecutive legs.
    ///
    /// # Errors
    ///
    /// [`MotionError::EmptyCurve`] for no legs;
    /// [`MotionError::InvalidTripParameter`] when a leg does not start
    /// when its predecessor ends (within 1e-9 minutes).
    pub fn new(legs: Vec<Trip>) -> Result<Self, MotionError> {
        if legs.is_empty() {
            return Err(MotionError::EmptyCurve);
        }
        for pair in legs.windows(2) {
            if (pair[1].start_time() - pair[0].end_time()).abs() > 1e-9 {
                return Err(MotionError::InvalidTripParameter("leg start_time"));
            }
        }
        Ok(Journey { legs })
    }

    /// The legs, in order.
    pub fn legs(&self) -> &[Trip] {
        &self.legs
    }

    /// Journey start time.
    pub fn start_time(&self) -> f64 {
        self.legs[0].start_time()
    }

    /// Journey end time.
    pub fn end_time(&self) -> f64 {
        self.legs.last().expect("non-empty").end_time()
    }

    /// The leg active at absolute time `t` (the first leg before the
    /// journey, the last after it).
    pub fn leg_at(&self, t: f64) -> &Trip {
        self.legs
            .iter()
            .find(|leg| t < leg.end_time())
            .unwrap_or_else(|| self.legs.last().expect("non-empty"))
    }

    /// The absolute times at which the object changes routes — the §3.1
    /// forced-update instants (leg boundaries where the route differs).
    pub fn route_change_times(&self) -> Vec<f64> {
        self.legs
            .windows(2)
            .filter(|pair| pair[0].route() != pair[1].route())
            .map(|pair| pair[1].start_time())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed_curve::SpeedCurve;
    use modb_routes::{Direction, RouteId};

    fn leg(route: u64, start_arc: f64, start_time: f64, minutes: usize) -> Trip {
        Trip::new(
            RouteId(route),
            Direction::Forward,
            start_arc,
            start_time,
            SpeedCurve::constant(1.0, minutes, 1.0).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_continuity() {
        assert!(matches!(Journey::new(vec![]), Err(MotionError::EmptyCurve)));
        // Gap between legs.
        assert!(Journey::new(vec![leg(1, 0.0, 0.0, 5), leg(2, 0.0, 6.0, 5)]).is_err());
        // Contiguous legs are fine.
        let j = Journey::new(vec![leg(1, 0.0, 0.0, 5), leg(2, 0.0, 5.0, 5)]).unwrap();
        assert_eq!(j.legs().len(), 2);
        assert_eq!(j.start_time(), 0.0);
        assert_eq!(j.end_time(), 10.0);
    }

    #[test]
    fn leg_and_route_lookup() {
        let j = Journey::new(vec![
            leg(1, 0.0, 0.0, 5),
            leg(2, 3.0, 5.0, 5),
            leg(2, 8.0, 10.0, 5),
        ])
        .unwrap();
        assert_eq!(j.leg_at(2.0).route(), RouteId(1));
        assert_eq!(j.leg_at(5.0).route(), RouteId(2));
        assert_eq!(j.leg_at(7.0).route(), RouteId(2));
        assert_eq!(j.leg_at(100.0).route(), RouteId(2)); // after the end
        assert_eq!(j.leg_at(-1.0).route(), RouteId(1)); // before the start
    }

    #[test]
    fn route_change_times_only_at_actual_changes() {
        let j = Journey::new(vec![
            leg(1, 0.0, 0.0, 5),
            leg(2, 3.0, 5.0, 5),
            leg(2, 8.0, 10.0, 5), // same route: no change
            leg(3, 0.0, 15.0, 5),
        ])
        .unwrap();
        assert_eq!(j.route_change_times(), vec![5.0, 15.0]);
    }
}
