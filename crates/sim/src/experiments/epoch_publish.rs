//! W3: epoch publication cost — full clone vs change-log delta.
//!
//! PR 3 turned the epoch publisher into a versioned-store consumer: it
//! keeps a private shadow [`Database`], drains the change log since its
//! cursor, and patches only the dirty objects (per-object delete+insert
//! in the o-plane index, the §4.2 maintenance operations) before
//! swapping the published `Arc`. Publication work should therefore
//! scale with the *churn* between epochs, not with the fleet size.
//!
//! This experiment measures exactly that: for a fixed fleet, it applies
//! a churn batch (0.1%, 1%, 10% of the fleet by default), then times
//! `publish_now()` alone — churn application is outside the timed
//! window — against what publishing cost before the change log:
//!
//! - **full**: clone the whole [`Database`] under the read lock and wrap
//!   it in an `Arc` (the pre-PR-3 publisher, which the engine no longer
//!   contains — the experiment takes the clone itself).
//! - **delta**: the engine's `publish_now()`, O(changes) per publish.
//!
//! Two latencies are reported per cell. **visible us** is the
//! publication latency proper: publish start → snapshot swap, i.e. how
//! long a fresh epoch takes to become readable (the engine's
//! `publish_ns` counter; for the full leg, lock + clone + `Arc::new`).
//! **cycle us** is the whole publish: the delta leg additionally catches
//! the just-retired shadow buffer up *after* the swap, the full leg
//! drops the snapshot it replaced — off the visibility path, but still
//! per-publish work. The headline speedup compares visibility
//! latencies; the cycle column keeps the total-cost comparison honest.
//!
//! The publish latency is also the paper's imprecision currency: the
//! snapshot a query answers from is stale by at most the epoch interval
//! plus this latency, and §3.3 bounds the induced deviation by `D·Δt`.
//! Cheaper publishes allow shorter intervals, i.e. tighter `Δt`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use modb_core::{Database, ObjectId, UpdateMessage, UpdatePosition};
use modb_server::{QueryEngineConfig, SharedDatabase};

use crate::experiments::indexing::build_city_db;
use crate::report::{fmt, render_table};

/// One (mode, churn) measurement.
#[derive(Debug, Clone)]
pub struct EpochPublishRow {
    /// Publisher mode label: `full` or `delta`.
    pub label: &'static str,
    /// Objects touched between consecutive publishes.
    pub churn: usize,
    /// Churn as a percentage of the fleet.
    pub churn_pct: f64,
    /// Timed publishes in the measurement.
    pub publishes: u64,
    /// Mean visibility latency (publish start → snapshot swap) in
    /// microseconds.
    pub visible_us: f64,
    /// Mean whole-call `publish_now` latency in microseconds (includes
    /// the delta mode's post-swap shadow catch-up).
    pub cycle_us: f64,
    /// Full-clone visibility latency divided by this row's (1.0 for the
    /// full rows themselves) at the same churn level.
    pub speedup: f64,
}

/// Applies `churn` position updates with monotone per-object times so
/// every one is accepted and lands in the change log.
fn apply_churn(db: &SharedDatabase, round: u64, churn: usize, n_objects: usize) {
    let t = round as f64 * 1e-5;
    for i in 0..churn as u64 {
        let id = (round * churn as u64 + i) % n_objects as u64;
        let _ = db.apply_update(
            ObjectId(id),
            &UpdateMessage::basic(t, UpdatePosition::Arc(0.5), 0.7),
        );
    }
}

/// Times `rounds` calls of `publish`, which reports its own `(visible,
/// cycle)` latencies: churn is applied *outside* the timed window so the
/// measurement is publication cost alone. Returns `(publishes,
/// visible_us, cycle_us)`.
fn time_publishes(
    db: &SharedDatabase,
    n_objects: usize,
    churn: usize,
    rounds: usize,
    mut publish: impl FnMut() -> (Duration, Duration),
) -> (u64, f64, f64) {
    // Untimed rounds first: the delta leg's first publish into a cold
    // shadow buffer is a full clone, and both legs time the same states.
    const WARM_UP: u64 = 2;
    let (mut visible, mut cycle) = (Duration::ZERO, Duration::ZERO);
    for round in 0..WARM_UP + rounds as u64 {
        apply_churn(db, round, churn, n_objects);
        let (shown, whole) = publish();
        if round >= WARM_UP {
            visible += shown;
            cycle += whole;
        }
    }
    let mean_us = |total: Duration| total.as_secs_f64() * 1e6 / rounds.max(1) as f64;
    (rounds as u64, mean_us(visible), mean_us(cycle))
}

/// One mode on a freshly seeded fleet; see [`time_publishes`].
fn run_mode(
    n_objects: usize,
    grid: usize,
    churn: usize,
    rounds: usize,
    incremental: bool,
) -> (u64, f64, f64) {
    let db = SharedDatabase::new(build_city_db(42, n_objects, grid));
    if incremental {
        let engine = db.query_engine(QueryEngineConfig {
            epoch_interval: None,
        });
        time_publishes(&db, n_objects, churn, rounds, || {
            let before = engine.stats().publish_ns;
            let t0 = Instant::now();
            engine.publish_now();
            let cycle = t0.elapsed();
            let visible = Duration::from_nanos(engine.stats().publish_ns - before);
            (visible, cycle)
        })
    } else {
        let mut published = Arc::new(db.with_read(Database::clone));
        time_publishes(&db, n_objects, churn, rounds, || {
            let t0 = Instant::now();
            let next = Arc::new(db.with_read(Database::clone));
            let visible = t0.elapsed();
            drop(std::mem::replace(&mut published, next));
            (visible, t0.elapsed())
        })
    }
}

/// Runs the experiment over the given churn levels; each level measures
/// the full clone and the delta publisher on identically seeded fleets.
pub fn run_epoch_publish(
    n_objects: usize,
    grid: usize,
    churn_levels: &[usize],
    rounds: usize,
) -> Vec<EpochPublishRow> {
    let mut rows = Vec::with_capacity(churn_levels.len() * 2);
    for &churn in churn_levels {
        let churn = churn.clamp(1, n_objects);
        let mut full_visible = 0.0;
        for incremental in [false, true] {
            let (publishes, visible_us, cycle_us) =
                run_mode(n_objects, grid, churn, rounds, incremental);
            if !incremental {
                full_visible = visible_us;
            }
            rows.push(EpochPublishRow {
                label: if incremental { "delta" } else { "full" },
                churn,
                churn_pct: 100.0 * churn as f64 / n_objects as f64,
                publishes,
                visible_us,
                cycle_us,
                speedup: if !incremental || visible_us == 0.0 {
                    1.0
                } else {
                    full_visible / visible_us
                },
            });
        }
    }
    rows
}

/// Renders the W3 report table.
pub fn epoch_publish_table(n_objects: usize, rows: &[EpochPublishRow]) -> String {
    render_table(
        &format!("W3: epoch publication cost at {n_objects} objects (full clone vs delta)"),
        &[
            "mode",
            "churn",
            "churn %",
            "publishes",
            "visible us",
            "cycle us",
            "speedup",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    r.churn.to_string(),
                    fmt(r.churn_pct),
                    r.publishes.to_string(),
                    fmt(r.visible_us),
                    fmt(r.cycle_us),
                    fmt(r.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_paired_rows() {
        let rows = run_epoch_publish(300, 6, &[3, 30], 3);
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].label, "full");
            assert_eq!(pair[1].label, "delta");
            assert_eq!(pair[0].churn, pair[1].churn);
            assert_eq!(pair[0].speedup, 1.0);
            assert!(pair[1].speedup > 0.0);
        }
        for r in &rows {
            assert!(
                r.visible_us > 0.0,
                "{} at churn {} timed nothing",
                r.label,
                r.churn
            );
            assert!(
                r.cycle_us >= r.visible_us,
                "{} at churn {}: the whole call cannot be faster than its pre-swap part",
                r.label,
                r.churn
            );
            assert_eq!(r.publishes, 3);
        }
        let table = epoch_publish_table(300, &rows);
        assert!(table.contains("delta"));
        assert!(table.contains("visible us"));
    }
}
