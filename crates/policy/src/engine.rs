//! The update-policy engine: the paper's quintuple, executed onboard.
//!
//! A *position-update policy* is the quintuple *(deviation cost function,
//! update cost, estimator function, fitting method, predicted speed)*
//! (§3.1). [`Quintuple`] is that object; [`PolicyEngine`] runs it tick by
//! tick on the moving object's side, deciding when to send a
//! [`PositionUpdate`]. The named policies of the paper — **dl**, **ail**,
//! **cil** — are [`Quintuple`] constructors.

use crate::bounds::{combined_bound, BoundKind};
use crate::cost::DeviationCost;
use crate::error::PolicyError;
use crate::estimator::EstimatorKind;
use crate::fitting::{DeviationTrace, FittingMethod, ZERO_DEVIATION_EPS};
use crate::predictor::{SpeedObservation, SpeedPredictor};
use crate::threshold::{optimal_threshold, optimal_threshold_numeric};

/// A position update sent from the moving object to the database: "values
/// for at least the subattributes P.starttime, P.speed, P.x.startposition
/// and P.y.startposition" (§3.1). Positions are route-relative here; the
/// DBMS layer resolves them to coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionUpdate {
    /// Update timestamp — becomes `P.starttime`.
    pub time: f64,
    /// Arc position on the route — becomes the start-position pair.
    pub arc: f64,
    /// Declared speed — becomes `P.speed`.
    pub speed: f64,
}

/// The paper's policy quintuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quintuple {
    /// Deviation cost function (§3.1; equation 1 for the named policies).
    pub deviation_cost: DeviationCost,
    /// Update cost `C` in deviation-cost units.
    pub update_cost: f64,
    /// Estimator family.
    pub estimator: EstimatorKind,
    /// Fitting method.
    pub fitting: FittingMethod,
    /// Predicted-speed selection.
    pub predictor: SpeedPredictor,
}

impl Quintuple {
    /// The **delayed-linear (dl)** policy: (uniform cost, C,
    /// delayed-linear estimator, simple fitting, current speed).
    pub fn dl(update_cost: f64) -> Self {
        Quintuple {
            deviation_cost: DeviationCost::UNIT_UNIFORM,
            update_cost,
            estimator: EstimatorKind::DelayedLinear,
            fitting: FittingMethod::Simple,
            predictor: SpeedPredictor::Current,
        }
    }

    /// The **average immediate-linear (ail)** policy: (uniform cost, C,
    /// immediate-linear estimator, simple fitting, average speed).
    pub fn ail(update_cost: f64) -> Self {
        Quintuple {
            deviation_cost: DeviationCost::UNIT_UNIFORM,
            update_cost,
            estimator: EstimatorKind::ImmediateLinear,
            fitting: FittingMethod::Simple,
            predictor: SpeedPredictor::AverageSinceUpdate,
        }
    }

    /// The **current immediate-linear (cil)** policy: like ail but
    /// declaring the current speed (§3.4).
    pub fn cil(update_cost: f64) -> Self {
        Quintuple {
            deviation_cost: DeviationCost::UNIT_UNIFORM,
            update_cost,
            estimator: EstimatorKind::ImmediateLinear,
            fitting: FittingMethod::Simple,
            predictor: SpeedPredictor::Current,
        }
    }

    /// Validates the quintuple's numeric parameters.
    ///
    /// # Errors
    ///
    /// [`PolicyError::InvalidUpdateCost`] or
    /// [`PolicyError::InvalidCostParameter`].
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.update_cost <= 0.0 || !self.update_cost.is_finite() {
            return Err(PolicyError::InvalidUpdateCost(self.update_cost));
        }
        self.deviation_cost.validate()
    }

    /// The [`BoundKind`] the DBMS uses for this quintuple's deviation
    /// bounds.
    pub fn bound_kind(&self) -> BoundKind {
        match self.estimator {
            EstimatorKind::DelayedLinear => BoundKind::Delayed,
            EstimatorKind::ImmediateLinear => BoundKind::Immediate,
        }
    }

    /// Short label ("dl", "ail", "cil", or a descriptive composite for
    /// non-canonical quintuples).
    pub fn label(&self) -> String {
        match (self.estimator, self.predictor, self.deviation_cost) {
            (
                EstimatorKind::DelayedLinear,
                SpeedPredictor::Current,
                DeviationCost::Uniform { .. },
            ) => "dl".to_string(),
            (
                EstimatorKind::ImmediateLinear,
                SpeedPredictor::AverageSinceUpdate,
                DeviationCost::Uniform { .. },
            ) => "ail".to_string(),
            (
                EstimatorKind::ImmediateLinear,
                SpeedPredictor::Current,
                DeviationCost::Uniform { .. },
            ) => "cil".to_string(),
            _ => {
                let est = match self.estimator {
                    EstimatorKind::DelayedLinear => "delayed",
                    EstimatorKind::ImmediateLinear => "immediate",
                };
                let cost = match self.deviation_cost {
                    DeviationCost::Uniform { .. } => "uniform",
                    DeviationCost::Step { .. } => "step",
                };
                format!("{est}-{}-{cost}", self.predictor.label())
            }
        }
    }
}

/// Anything that decides when a moving object updates its database
/// position. Implemented by [`PolicyEngine`] (the paper's cost-based
/// policies) and by the baselines in [`crate::baselines`].
pub trait Policy {
    /// Display label for reports.
    fn label(&self) -> String;

    /// The message cost `C` this policy is configured with.
    fn update_cost(&self) -> f64;

    /// Feed one observation: the time, the object's actual route arc, and
    /// its current speed. Returns the update sent now, if any.
    ///
    /// # Errors
    ///
    /// [`PolicyError::TimeWentBackwards`] /
    /// [`PolicyError::InvalidObservation`] on malformed input.
    fn tick(
        &mut self,
        now: f64,
        actual_arc: f64,
        current_speed: f64,
    ) -> Result<Option<PositionUpdate>, PolicyError>;

    /// The database position (arc) the DBMS computes at `now` from the
    /// last update — §2's database-position semantics.
    fn database_arc(&self, now: f64) -> f64;

    /// The last update sent (initially the trip-start update).
    fn last_update(&self) -> PositionUpdate;

    /// DBMS-side bound on the deviation at `now`, given the trip's maximum
    /// speed. `f64::INFINITY` when the policy provides no bound.
    fn uncertainty(&self, now: f64, v_max: f64) -> f64;
}

/// Executes a [`Quintuple`] for one moving object on one route.
///
/// The engine sees exactly what the onboard computer sees: its own GPS arc
/// position and speed each tick, plus the parameters of the last update it
/// sent. It recomputes the database position, tracks the deviation trace,
/// fits the estimator, and applies the optimal-threshold test of
/// Proposition 1.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    quintuple: Quintuple,
    route_len: f64,
    direction_sign: f64,
    first: PositionUpdate,
    last: PositionUpdate,
    trace: DeviationTrace,
    last_seen: f64,
    updates_sent: usize,
}

impl PolicyEngine {
    /// Creates an engine after the trip-start update `initial` (the paper:
    /// "at the beginning of the trip the moving object writes all the
    /// sub-attributes").
    ///
    /// `direction_sign` is `+1.0` for forward travel, `-1.0` for backward
    /// (see `modb_routes::Direction::sign`).
    ///
    /// # Errors
    ///
    /// Propagates quintuple validation failures and rejects a bad route
    /// length.
    pub fn new(
        quintuple: Quintuple,
        route_len: f64,
        direction_sign: f64,
        initial: PositionUpdate,
    ) -> Result<Self, PolicyError> {
        quintuple.validate()?;
        if route_len <= 0.0 || !route_len.is_finite() {
            return Err(PolicyError::InvalidRouteLength(route_len));
        }
        if !initial.arc.is_finite() || initial.arc < 0.0 {
            return Err(PolicyError::InvalidObservation("initial.arc", initial.arc));
        }
        if !initial.speed.is_finite() || initial.speed < 0.0 {
            return Err(PolicyError::InvalidObservation(
                "initial.speed",
                initial.speed,
            ));
        }
        // Simple fitting reads only the newest sample and the scalar
        // last-zero time; least squares fits over a window of samples.
        let window = match quintuple.fitting {
            FittingMethod::Simple => 1,
            FittingMethod::LeastSquares => 8192,
        };
        Ok(PolicyEngine {
            quintuple,
            route_len,
            direction_sign: if direction_sign < 0.0 { -1.0 } else { 1.0 },
            first: initial,
            last: initial,
            trace: DeviationTrace::new(window, ZERO_DEVIATION_EPS),
            last_seen: initial.time,
            updates_sent: 0,
        })
    }

    /// The quintuple this engine executes.
    pub fn quintuple(&self) -> &Quintuple {
        &self.quintuple
    }

    /// Number of updates sent since construction (excluding the initial
    /// trip-start update).
    pub fn updates_sent(&self) -> usize {
        self.updates_sent
    }

    /// Current deviation given the actual arc — available to the onboard
    /// computer at any time (§3.1).
    pub fn deviation(&self, now: f64, actual_arc: f64) -> f64 {
        (actual_arc - self.database_arc(now)).abs()
    }

    fn threshold_for(&self, a: f64, b: f64) -> f64 {
        match self.quintuple.deviation_cost {
            DeviationCost::Uniform { .. } => optimal_threshold(a, b, self.quintuple.update_cost),
            DeviationCost::Step { threshold, .. } => {
                // No closed form: search numerically. The optimum is never
                // far above the step threshold plus the closed-form uniform
                // optimum, so bound the search generously.
                let k_max = (threshold + optimal_threshold(a, b, self.quintuple.update_cost))
                    .max(threshold * 4.0)
                    * 4.0;
                optimal_threshold_numeric(
                    &self.quintuple.deviation_cost,
                    a,
                    b,
                    self.quintuple.update_cost,
                    k_max,
                )
            }
        }
    }
}

impl Policy for PolicyEngine {
    fn label(&self) -> String {
        self.quintuple.label()
    }

    fn update_cost(&self) -> f64 {
        self.quintuple.update_cost
    }

    fn tick(
        &mut self,
        now: f64,
        actual_arc: f64,
        current_speed: f64,
    ) -> Result<Option<PositionUpdate>, PolicyError> {
        if now < self.last_seen {
            return Err(PolicyError::TimeWentBackwards {
                last: self.last_seen,
                now,
            });
        }
        if !actual_arc.is_finite() || actual_arc < 0.0 {
            return Err(PolicyError::InvalidObservation("actual_arc", actual_arc));
        }
        if !current_speed.is_finite() || current_speed < 0.0 {
            return Err(PolicyError::InvalidObservation(
                "current_speed",
                current_speed,
            ));
        }
        self.last_seen = now;

        let k = self.deviation(now, actual_arc);
        let t = now - self.last.time;
        self.trace.push(t, k);

        // §3.2: "if k = 0, then the moving object does not do anything".
        let Some(fit) = self
            .quintuple
            .fitting
            .fit(self.quintuple.estimator, &self.trace)
        else {
            return Ok(None);
        };

        let threshold = self.threshold_for(fit.slope, fit.delay);
        if k + 1e-12 < threshold {
            return Ok(None);
        }

        // Send an update: current position plus the predicted speed.
        let average_since_update = if t > 0.0 {
            (actual_arc - self.last.arc).abs() / t
        } else {
            current_speed
        };
        let trip_elapsed = now - self.first.time;
        let trip_average = if trip_elapsed > 0.0 {
            (actual_arc - self.first.arc).abs() / trip_elapsed
        } else {
            current_speed
        };
        let speed = self.quintuple.predictor.predict(&SpeedObservation {
            current: current_speed,
            average_since_update,
            trip_average,
        });
        let update = PositionUpdate {
            time: now,
            arc: actual_arc,
            speed,
        };
        self.last = update;
        self.trace.reset();
        self.updates_sent += 1;
        Ok(Some(update))
    }

    fn database_arc(&self, now: f64) -> f64 {
        let elapsed = (now - self.last.time).max(0.0);
        (self.last.arc + self.direction_sign * self.last.speed * elapsed).clamp(0.0, self.route_len)
    }

    fn last_update(&self) -> PositionUpdate {
        self.last
    }

    fn uncertainty(&self, now: f64, v_max: f64) -> f64 {
        let t = (now - self.last.time).max(0.0);
        match self.quintuple.fitting {
            // Propositions 2–4 are proved for the simple fitting method:
            // their derivation uses a = k/(t−b), which other fitting
            // methods do not satisfy. For those, only the kinematic
            // envelope D·t is guaranteed.
            FittingMethod::Simple => combined_bound(
                self.quintuple.bound_kind(),
                self.last.speed,
                v_max,
                self.quintuple.update_cost,
                t,
            ),
            _ => {
                let v = self.last.speed;
                let d = v.max((v_max - v).max(0.0));
                d * t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 5.0;
    const ROUTE_LEN: f64 = 1_000.0;
    const DT: f64 = 1.0 / 600.0; // 0.1 s ticks for sharp timing tests

    fn start() -> PositionUpdate {
        PositionUpdate {
            time: 0.0,
            arc: 0.0,
            speed: 1.0,
        }
    }

    fn engine(q: Quintuple) -> PolicyEngine {
        PolicyEngine::new(q, ROUTE_LEN, 1.0, start()).unwrap()
    }

    /// Plays Example 1: drive at exactly 1 mi/min for 2 minutes, then stop.
    /// Returns the time of the first update sent by the engine.
    fn play_example1(mut e: PolicyEngine) -> (f64, PositionUpdate) {
        let mut t = 0.0;
        loop {
            t += DT;
            assert!(t < 30.0, "no update fired in 30 minutes");
            let (arc, speed) = if t <= 2.0 { (t, 1.0) } else { (2.0, 0.0) };
            if let Some(u) = e.tick(t, arc, speed).unwrap() {
                return (t, u);
            }
        }
    }

    /// Example 1 (§3.2): the dl policy updates when the deviation reaches
    /// 1.74 miles — one minute and ~44 seconds into the stop.
    #[test]
    fn example1_dl_fires_at_paper_threshold() {
        let (t, u) = play_example1(engine(Quintuple::dl(C)));
        let expected_t = 2.0 + (14.0_f64.sqrt() - 2.0); // 3.7417 min
        assert!(
            (t - expected_t).abs() < 3.0 * DT,
            "dl fired at {t}, paper says {expected_t}"
        );
        // dl declares the *current* speed: the vehicle is stopped.
        assert_eq!(u.speed, 0.0);
        assert_eq!(u.arc, 2.0);
    }

    /// The ail policy in the same scenario fires when (t−2)·t ≥ 2C, i.e.
    /// at t = 1 + √11 ≈ 4.3166, and declares the average speed.
    #[test]
    fn example1_ail_fires_later_with_average_speed() {
        let (t, u) = play_example1(engine(Quintuple::ail(C)));
        let expected_t = 1.0 + 11.0_f64.sqrt();
        assert!(
            (t - expected_t).abs() < 3.0 * DT,
            "ail fired at {t}, analytic {expected_t}"
        );
        // Average speed since update: 2 miles in ~4.32 min ≈ 0.463.
        assert!((u.speed - 2.0 / expected_t).abs() < 0.01);
    }

    /// cil fires at the same time as ail (same estimator/threshold) but
    /// declares the current (zero) speed.
    #[test]
    fn example1_cil_fires_like_ail_with_current_speed() {
        let (t_ail, _) = play_example1(engine(Quintuple::ail(C)));
        let (t_cil, u) = play_example1(engine(Quintuple::cil(C)));
        assert!((t_ail - t_cil).abs() < 2.0 * DT);
        assert_eq!(u.speed, 0.0);
    }

    /// Simple fitting keeps one sample, and emits bit for bit the updates
    /// it emitted over an 8,192-sample window, through stop-and-go
    /// driving and across the updates that reset the trace.
    #[test]
    fn simple_fitting_keeps_one_sample_and_the_same_updates() {
        let mut one = engine(Quintuple::dl(C));
        let mut wide = one.clone();
        wide.trace = DeviationTrace::new(8192, ZERO_DEVIATION_EPS);
        let mut updates = 0;
        for step in 1..20_000 {
            let t = step as f64 * DT;
            let speed = if (t as u64).is_multiple_of(3) {
                0.0
            } else {
                1.2
            };
            let arc = (t * 0.8 + (t * 1.7).sin() * 0.6).max(0.0);
            let (a, b) = (one.tick(t, arc, speed), wide.tick(t, arc, speed));
            let bits =
                |u: Option<PositionUpdate>| u.map(|u| [u.time, u.arc, u.speed].map(f64::to_bits));
            assert_eq!(bits(a.unwrap()), bits(b.unwrap()), "at t = {t}");
            updates = one.updates_sent();
        }
        assert!(updates > 3, "the drive must emit updates: {updates}");
        assert_eq!(one.trace.len(), 1);
        assert!(wide.trace.len() > 1);
    }

    /// No deviation → never updates, regardless of policy.
    #[test]
    fn exact_travel_never_updates() {
        for q in [Quintuple::dl(C), Quintuple::ail(C), Quintuple::cil(C)] {
            let mut e = engine(q);
            let mut t = 0.0;
            while t < 60.0 {
                t += 0.01;
                assert!(e.tick(t, t, 1.0).unwrap().is_none());
            }
            assert_eq!(e.updates_sent(), 0);
        }
    }

    /// Zero elapsed time since the last update never divides: a deviation
    /// that appears at the very instant of the previous update (the
    /// zero-Δt case a same-timestamp position update produces) either
    /// stays silent — the estimators cannot fit a zero-length ramp — or
    /// fires with a finite declared speed, never NaN/inf.
    #[test]
    fn same_instant_deviation_never_yields_infinite_speed() {
        for q in [Quintuple::dl(C), Quintuple::ail(C), Quintuple::cil(C)] {
            let mut e = engine(q);
            // Tick at t = 0 — the exact time of the trip-start update —
            // with a large instantaneous deviation.
            let fired = e.tick(0.0, 500.0, 1.0).unwrap();
            if let Some(u) = fired {
                assert!(u.speed.is_finite(), "declared speed {}", u.speed);
            }
            // Repeated same-instant ticks are fine too.
            for _ in 0..3 {
                if let Some(u) = e.tick(0.0, 500.0, 1.0).unwrap() {
                    assert!(u.speed.is_finite());
                }
            }
        }
    }

    /// Database position extrapolates at the declared speed and clamps at
    /// the route end.
    #[test]
    fn database_arc_semantics() {
        let e = engine(Quintuple::dl(C));
        assert_eq!(e.database_arc(0.0), 0.0);
        assert_eq!(e.database_arc(5.0), 5.0);
        assert_eq!(e.database_arc(2_000.0), ROUTE_LEN);
        // Backward travel.
        let eb = PolicyEngine::new(
            Quintuple::dl(C),
            ROUTE_LEN,
            -1.0,
            PositionUpdate {
                time: 0.0,
                arc: 10.0,
                speed: 1.0,
            },
        )
        .unwrap();
        assert_eq!(eb.database_arc(4.0), 6.0);
        assert_eq!(eb.database_arc(100.0), 0.0);
    }

    /// After an update the deviation trace resets: deviation is measured
    /// against the new database position.
    #[test]
    fn deviation_resets_after_update() {
        let mut e = engine(Quintuple::cil(C));
        let (t_fire, u) = {
            let mut t = 0.0;
            loop {
                t += DT;
                let (arc, speed) = if t <= 2.0 { (t, 1.0) } else { (2.0, 0.0) };
                if let Some(u) = e.tick(t, arc, speed).unwrap() {
                    break (t, u);
                }
            }
        };
        assert_eq!(e.last_update(), u);
        assert!(e.deviation(t_fire, 2.0) < 1e-9);
        assert_eq!(e.updates_sent(), 1);
    }

    /// Observations must move forward in time.
    #[test]
    fn time_cannot_go_backwards() {
        let mut e = engine(Quintuple::dl(C));
        e.tick(1.0, 1.0, 1.0).unwrap();
        assert!(matches!(
            e.tick(0.5, 1.0, 1.0),
            Err(PolicyError::TimeWentBackwards { .. })
        ));
    }

    #[test]
    fn invalid_observations_rejected() {
        let mut e = engine(Quintuple::dl(C));
        assert!(e.tick(1.0, f64::NAN, 1.0).is_err());
        assert!(e.tick(1.0, -1.0, 1.0).is_err());
        assert!(e.tick(1.0, 1.0, -0.5).is_err());
        assert!(e.tick(1.0, 1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(PolicyEngine::new(Quintuple::dl(0.0), 10.0, 1.0, start()).is_err());
        assert!(PolicyEngine::new(Quintuple::dl(C), 0.0, 1.0, start()).is_err());
        assert!(PolicyEngine::new(
            Quintuple::dl(C),
            10.0,
            1.0,
            PositionUpdate {
                time: 0.0,
                arc: -1.0,
                speed: 1.0
            }
        )
        .is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(Quintuple::dl(C).label(), "dl");
        assert_eq!(Quintuple::ail(C).label(), "ail");
        assert_eq!(Quintuple::cil(C).label(), "cil");
        let custom = Quintuple {
            deviation_cost: DeviationCost::Step {
                threshold: 0.5,
                penalty: 1.0,
            },
            update_cost: C,
            estimator: EstimatorKind::ImmediateLinear,
            fitting: FittingMethod::LeastSquares,
            predictor: SpeedPredictor::TripAverage,
        };
        assert_eq!(custom.label(), "immediate-trip-avg-step");
    }

    /// The engine's uncertainty equals the §3.3 combined bound for its
    /// estimator kind.
    #[test]
    fn uncertainty_matches_bounds_module() {
        use crate::bounds;
        let e = engine(Quintuple::ail(C));
        for t in [0.5, 2.0, 5.0] {
            let expected = bounds::combined_bound(BoundKind::Immediate, 1.0, 1.5, C, t);
            assert_eq!(e.uncertainty(t, 1.5), expected);
        }
        let d = engine(Quintuple::dl(C));
        for t in [0.5, 2.0, 5.0] {
            let expected = bounds::combined_bound(BoundKind::Delayed, 1.0, 1.5, C, t);
            assert_eq!(d.uncertainty(t, 1.5), expected);
        }
    }

    /// Non-simple fitting methods fall back to the kinematic envelope,
    /// because Propositions 2–4 assume simple fitting.
    #[test]
    fn least_squares_uncertainty_is_kinematic() {
        let q = Quintuple {
            fitting: FittingMethod::LeastSquares,
            ..Quintuple::ail(C)
        };
        let e = engine(q);
        // D = max(v, V − v) = max(1, 0.5) = 1 → bound = t.
        for t in [0.5, 2.0, 10.0] {
            assert_eq!(e.uncertainty(t, 1.5), t);
        }
        // Simple fitting keeps the paper bound (decays after crossover).
        let simple = engine(Quintuple::ail(C));
        assert!(simple.uncertainty(10.0, 1.5) < 10.0);
    }

    /// A step-cost quintuple runs end to end and fires eventually.
    #[test]
    fn step_cost_policy_fires() {
        let q = Quintuple {
            deviation_cost: DeviationCost::Step {
                threshold: 0.5,
                penalty: 2.0,
            },
            update_cost: C,
            estimator: EstimatorKind::ImmediateLinear,
            fitting: FittingMethod::Simple,
            predictor: SpeedPredictor::Current,
        };
        let mut e = engine(q);
        let mut t = 0.0;
        let mut fired = None;
        while t < 30.0 {
            t += DT;
            let (arc, speed) = if t <= 2.0 { (t, 1.0) } else { (2.0, 0.0) };
            if let Some(u) = e.tick(t, arc, speed).unwrap() {
                fired = Some((t, u));
                break;
            }
        }
        let (t, _) = fired.expect("step-cost policy should eventually update");
        // Must be past the free zone: deviation at least the step threshold.
        assert!(t - 2.0 >= 0.5);
    }
}
