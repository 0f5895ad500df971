//! Estimator functions (§3.1–3.2).
//!
//! An estimator is a "well-behaved" function `f(t)` with `f(0) = 0` used to
//! approximate the deviation as a function of time since the last update.
//! The paper uses the **delayed linear** family
//!
//! ```text
//! f(t) = a·(t − b)   for t ≥ b
//! f(t) = 0           for 0 ≤ t < b
//! ```
//!
//! with the **immediate linear** (`b = 0`) as the special case used by the
//! ail/cil policies.

/// Which estimator family a policy fits the deviation with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Delayed linear: zero for `b` time units, then slope `a` (dl policy).
    DelayedLinear,
    /// Immediate linear: slope `a` from the instant of the update
    /// (ail/cil policies).
    ImmediateLinear,
}

/// A delayed-linear function with concrete coefficients — the result of
/// fitting an [`EstimatorKind`] to an observed deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedEstimator {
    /// Slope `a ≥ 0` (miles of deviation per minute).
    pub slope: f64,
    /// Delay `b ≥ 0` (minutes of zero deviation after an update).
    pub delay: f64,
}

impl FittedEstimator {
    /// An immediate-linear fit (delay 0).
    pub fn immediate(slope: f64) -> Self {
        FittedEstimator { slope, delay: 0.0 }
    }

    /// Evaluates `f(t)`.
    pub fn eval(&self, t: f64) -> f64 {
        (self.slope * (t - self.delay)).max(0.0)
    }

    /// `∫₀^τ f(t) dt` — the predicted uniform deviation cost over a horizon
    /// of `τ` minutes after an update.
    pub fn integral(&self, tau: f64) -> f64 {
        let ramp = (tau - self.delay).max(0.0);
        0.5 * self.slope * ramp * ramp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_respects_delay() {
        let f = FittedEstimator {
            slope: 2.0,
            delay: 3.0,
        };
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(2.9), 0.0);
        assert_eq!(f.eval(3.0), 0.0);
        assert_eq!(f.eval(4.0), 2.0);
        assert_eq!(f.eval(5.5), 5.0);
    }

    #[test]
    fn immediate_has_zero_delay() {
        let f = FittedEstimator::immediate(1.5);
        assert_eq!(f.delay, 0.0);
        assert_eq!(f.eval(2.0), 3.0);
    }

    #[test]
    fn integral_is_triangle_area() {
        let f = FittedEstimator {
            slope: 2.0,
            delay: 1.0,
        };
        assert_eq!(f.integral(1.0), 0.0);
        // From t=1 to t=3 the ramp rises to 4: area = ½·2·4 = 4.
        assert_eq!(f.integral(3.0), 4.0);
        let g = FittedEstimator::immediate(1.0);
        assert_eq!(g.integral(2.0), 2.0);
    }

    #[test]
    fn integral_matches_numeric() {
        let f = FittedEstimator {
            slope: 0.7,
            delay: 1.3,
        };
        let tau = 6.0;
        let mut acc = 0.0;
        let dt = 1e-5;
        let mut t = 0.0;
        while t < tau {
            acc += f.eval(t) * dt;
            t += dt;
        }
        assert!((acc - f.integral(tau)).abs() < 1e-3);
    }
}
