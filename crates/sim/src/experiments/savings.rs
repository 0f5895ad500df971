//! T1: the 85 % update-savings headline.
//!
//! §1/§6: modelling positions as distance-along-route "reduces the number
//! of updates to 15 % of the number used by the traditional, nontemporal
//! method". The traditional method stores a static point, so a vehicle
//! must refresh it whenever it drifts past the tolerated imprecision.
//!
//! **Matching methodology** (the paper leaves it implicit): for each
//! cost-based policy we first measure the time-average deviation it
//! achieves; we then binary-search the traditional method's drift
//! tolerance until it achieves the same average deviation. At matched
//! imprecision the message-count ratio is the bandwidth saving.

use modb_policy::baselines::TraditionalPolicy;
use modb_policy::{DeviationCost, PolicyEngine, PositionUpdate, Quintuple};

use crate::metrics::{AggregateMetrics, RunMetrics};
use crate::report::{fmt, render_table};
use crate::runner::{run_policy, DEFAULT_TICK};
use crate::workload::{Workload, WorkloadConfig};

/// One row of the savings table.
#[derive(Debug, Clone)]
pub struct SavingsRow {
    /// Cost-based policy label.
    pub policy: String,
    /// Mean messages per trip for the policy.
    pub messages: f64,
    /// Mean messages per trip for the traditional method at matched
    /// imprecision.
    pub traditional_messages: f64,
    /// `messages / traditional_messages` — the paper claims ≈ 0.15.
    pub ratio: f64,
    /// The matched drift tolerance (miles).
    pub matched_tolerance: f64,
    /// The average deviation both methods achieve (miles).
    pub matched_deviation: f64,
    /// Ticks where the policy's deviation exceeded its advertised bound
    /// (Propositions 2–4; expected 0).
    pub bound_violations: usize,
}

/// Runs the savings experiment at update cost `c`.
pub fn run_savings(seed: u64, workload_cfg: WorkloadConfig, c: f64) -> Vec<SavingsRow> {
    let workload = Workload::generate(seed, workload_cfg);
    let cost = DeviationCost::UNIT_UNIFORM;
    let dt = DEFAULT_TICK;

    let run_cost_based = |make: &dyn Fn(f64, PositionUpdate) -> PolicyEngine| -> AggregateMetrics {
        let runs: Vec<RunMetrics> = workload
            .iter()
            .map(|(route, trip)| {
                let initial = PositionUpdate {
                    time: trip.start_time(),
                    arc: trip.start_arc(),
                    speed: trip.speed_at(trip.start_time() + dt),
                };
                let mut p = make(route.length(), initial);
                run_policy(trip, route, &mut p, &cost, dt, trip.max_speed().max(1e-6))
                    .expect("well-formed observations")
            })
            .collect();
        AggregateMetrics::from_runs(&runs)
    };

    let run_traditional = |tolerance: f64| -> AggregateMetrics {
        let runs: Vec<RunMetrics> = workload
            .iter()
            .map(|(route, trip)| {
                let initial = PositionUpdate {
                    time: trip.start_time(),
                    arc: trip.start_arc(),
                    speed: 0.0,
                };
                let mut p =
                    TraditionalPolicy::new(tolerance, c, initial).expect("positive tolerance");
                run_policy(trip, route, &mut p, &cost, dt, trip.max_speed().max(1e-6))
                    .expect("well-formed observations")
            })
            .collect();
        AggregateMetrics::from_runs(&runs)
    };

    // Binary search the tolerance whose average deviation matches the
    // target. Traditional average deviation is monotone increasing in the
    // tolerance.
    let match_tolerance = |target_avg_dev: f64| -> (f64, AggregateMetrics) {
        let mut lo = 1e-3;
        let mut hi = 20.0;
        let mut best = run_traditional(hi);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            let m = run_traditional(mid);
            if m.avg_deviation < target_avg_dev {
                lo = mid;
            } else {
                hi = mid;
            }
            best = m;
            if (m.avg_deviation - target_avg_dev).abs() <= 0.02 * target_avg_dev {
                return (mid, m);
            }
        }
        (0.5 * (lo + hi), best)
    };

    type MakeEngine = Box<dyn Fn(f64, PositionUpdate) -> PolicyEngine>;
    let policies: [(&str, MakeEngine); 3] = [
        (
            "dl",
            Box::new(move |len, init| {
                PolicyEngine::new(Quintuple::dl(c), len, 1.0, init).expect("valid")
            }),
        ),
        (
            "ail",
            Box::new(move |len, init| {
                PolicyEngine::new(Quintuple::ail(c), len, 1.0, init).expect("valid")
            }),
        ),
        (
            "cil",
            Box::new(move |len, init| {
                PolicyEngine::new(Quintuple::cil(c), len, 1.0, init).expect("valid")
            }),
        ),
    ];

    policies
        .iter()
        .map(|(label, make)| {
            let m = run_cost_based(make.as_ref());
            let (tolerance, trad) = match_tolerance(m.avg_deviation.max(1e-6));
            SavingsRow {
                policy: (*label).into(),
                messages: m.messages,
                traditional_messages: trad.messages,
                ratio: if trad.messages > 0.0 {
                    m.messages / trad.messages
                } else {
                    f64::INFINITY
                },
                matched_tolerance: tolerance,
                matched_deviation: m.avg_deviation,
                bound_violations: m.bound_violations,
            }
        })
        .collect()
}

/// Renders the savings table.
pub fn savings_table(rows: &[SavingsRow], c: f64) -> String {
    let title = format!(
        "T1: updates vs the traditional non-temporal method at matched imprecision (C = {c})\n\
         paper claim: cost-based policies need ~15% of traditional's updates"
    );
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                fmt(r.messages),
                fmt(r.traditional_messages),
                format!("{:.1}%", r.ratio * 100.0),
                fmt(r.matched_tolerance),
                fmt(r.matched_deviation),
            ]
        })
        .collect();
    render_table(
        &title,
        &[
            "policy",
            "msgs/trip",
            "traditional msgs/trip",
            "ratio",
            "matched tol (mi)",
            "avg dev (mi)",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_ratio_is_well_below_one() {
        let rows = run_savings(
            5,
            WorkloadConfig {
                n_trips: 6,
                duration: 20.0,
                ..WorkloadConfig::default()
            },
            5.0,
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.ratio < 0.6,
                "{}: ratio {} should show large savings",
                r.policy,
                r.ratio
            );
            assert!(r.traditional_messages > r.messages);
            assert!(r.matched_tolerance > 0.0);
            assert_eq!(r.bound_violations, 0);
        }
        let t = savings_table(&rows, 5.0);
        assert!(t.contains("traditional"));
    }
}
