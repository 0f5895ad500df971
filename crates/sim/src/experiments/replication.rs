//! W4: follower lag vs update rate, and the lag-widened deviation bound.
//!
//! A warm standby answers queries from its applied watermark, so its
//! answers are stale by the replication lag. The paper's imprecision
//! argument (§3.3) prices that staleness the same way it prices update
//! policies: if every update is *truthful* (the reported position lies on
//! a trajectory with speed ≤ `v_max`) and predictions also move at
//! ≤ `v_max`, then a follower whose attribute for an object is `Δ`
//! seconds older than the leader's can deviate from the leader's answer
//! by at most `D·Δ` with `D = 2·v_max` — the leader's estimate and the
//! follower's estimate each drift at most `v_max` from the true
//! trajectory over the staleness window (DESIGN.md §10).
//!
//! This experiment drives a leader with truthful variable-speed updates
//! at several rates, with a live [`modb_server::StandbyReplica`]
//! attached. While the stream is hot it samples:
//!
//! - **lag** in records (leader WAL frontier − follower applied
//!   watermark), the steady-state shipping debt at that rate;
//! - **deviation**: for each object, the follower's attribute is read
//!   *first*, then the leader's (so the staleness `Δ` is never
//!   understated), both estimates are evaluated at the leader
//!   attribute's report time — the latest instant at which the leader's
//!   answer is exact — and the measured deviation is checked against
//!   `2·v_max·Δ`.
//!
//! The property reported in the `in bound` column is the per-sample
//! check — every measured deviation inside its own lag-widened bound.

use std::path::PathBuf;
use std::time::Duration;

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{DurableDatabase, ReplicaConfig, ReplicationConfig, StandbyReplica};
use modb_wal::{FsyncPolicy, WalOptions};

use crate::report::{fmt, render_table};

/// One straight route long enough that no trajectory ever clamps.
const ROUTE_LEN: f64 = 1_000_000.0;
/// Simulated seconds between update batches.
const BATCH_DT: f64 = 0.5;

/// One update-rate phase of the W4 experiment.
#[derive(Debug, Clone)]
pub struct ReplicationLagRow {
    /// Updates per batch (the phase's offered load).
    pub rate: usize,
    /// Batches driven.
    pub batches: u64,
    /// Leader WAL frontier at the end of the phase (records written).
    pub records: u64,
    /// Mean of the per-batch lag samples, in records.
    pub mean_lag: f64,
    /// Largest lag sample, in records.
    pub max_lag: u64,
    /// Per-object deviation samples taken while the stream was hot.
    pub samples: u64,
    /// Largest attribute staleness `Δ` observed, in simulated seconds.
    pub max_delta_s: f64,
    /// Largest measured leader-vs-follower deviation, in arc units.
    pub max_dev: f64,
    /// Largest lag-widened bound `2·v_max·Δ` across the samples.
    pub max_bound: f64,
    /// `true` iff every sample satisfied `dev ≤ 2·v_max·Δ` (+ float
    /// tolerance).
    pub within_bound: bool,
}

fn fresh_db() -> Database {
    let route = Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
    )
    .expect("straight route");
    Database::new(
        RouteNetwork::from_routes([route]).expect("singleton network"),
        DatabaseConfig::default(),
    )
}

fn vehicle(id: u64, arc: f64, v_max: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        name: format!("veh-{id}"),
        attr: PositionAttribute {
            start_time: 0.0,
            route: RouteId(1),
            start_position: Point::new(arc, 0.0),
            start_arc: arc,
            direction: Direction::Forward,
            speed: v_max * 0.5,
            policy: PolicyDescriptor::CostBased {
                kind: BoundKind::Immediate,
                update_cost: 5.0,
            },
        },
        max_speed: v_max,
        trip_end: None,
    }
}

/// Dead-reckoned arc of an attribute at query time `q` (forward travel
/// on the single long route; nothing ever clamps).
fn estimate(attr: &PositionAttribute, q: f64) -> f64 {
    attr.start_arc + attr.speed * (q - attr.start_time).max(0.0)
}

/// The simulated fleet: piecewise-constant-speed trajectories with all
/// speeds ≤ `v_max`. Every update reports the object's *true* position
/// at the report time (truthfulness), plus the speed for the next leg —
/// dead reckoning from a stale attribute then drifts, which is exactly
/// what the `2·v_max·Δ` bound prices.
struct Fleet {
    arcs: Vec<f64>,
    speeds: Vec<f64>,
    last_t: Vec<f64>,
    v_max: f64,
}

impl Fleet {
    fn new(n: usize, v_max: f64) -> Fleet {
        Fleet {
            arcs: (0..n).map(|i| 10.0 + i as f64 * 3.0).collect(),
            speeds: vec![v_max * 0.5; n],
            last_t: vec![0.0; n],
            v_max,
        }
    }

    /// Advances object `id` to time `t` — by its *actual* elapsed time
    /// since its previous update, so the trajectory's speed never
    /// exceeds `v_max` no matter how often (or rarely) the driver picks
    /// this object — and returns its truthful update: the integrated
    /// position and the (deterministically varying) speed for the next
    /// leg.
    fn truthful_update(&mut self, id: usize, t: f64) -> UpdateMessage {
        let dt = (t - self.last_t[id]).max(0.0);
        self.arcs[id] += self.speeds[id] * dt;
        self.last_t[id] = t;
        // Speeds swing between v_max/4 and v_max so stale predictions
        // genuinely drift, per-object phase-shifted so batches are not
        // lockstep.
        self.speeds[id] = if ((t / BATCH_DT) as usize + id).is_multiple_of(3) {
            self.v_max
        } else {
            self.v_max * 0.25
        };
        UpdateMessage::basic(t, UpdatePosition::Arc(self.arcs[id]), self.speeds[id])
    }
}

/// Samples per-object deviation: follower attribute first, leader
/// second (`Δ` is then never understated), both estimated at the
/// leader attribute's report time `τ_l` — the latest instant at which
/// the leader's answer is exact, so the gap there is pure replication
/// staleness. (Past `τ_l` both sides extrapolate and the difference of
/// their *predicted* speeds adds drift the `2·v_max·Δ` bound does not
/// price.) Returns `(samples, max_delta, max_dev, max_bound, ok)`.
fn sample_deviation(
    leader: &DurableDatabase,
    replica: &StandbyReplica,
    n_objects: usize,
    v_max: f64,
) -> (u64, f64, f64, f64, bool) {
    let mut samples = 0u64;
    let (mut max_delta, mut max_dev, mut max_bound) = (0.0f64, 0.0f64, 0.0f64);
    let mut ok = true;
    for id in 0..n_objects as u64 {
        let follower_attr = replica
            .database()
            .with_read(|db| db.moving(ObjectId(id)).map(|o| o.attr.clone()).ok());
        let Some(f) = follower_attr else {
            continue; // not shipped yet: bootstrap in progress
        };
        let leader_attr = leader
            .database()
            .with_read(|db| db.moving(ObjectId(id)).map(|o| o.attr.clone()).ok());
        let Some(l) = leader_attr else { continue };
        let delta = (l.start_time - f.start_time).max(0.0);
        let q = l.start_time;
        let dev = (estimate(&l, q) - estimate(&f, q)).abs();
        let bound = 2.0 * v_max * delta;
        samples += 1;
        max_delta = max_delta.max(delta);
        max_dev = max_dev.max(dev);
        max_bound = max_bound.max(bound);
        if dev > bound + 1e-9 {
            ok = false;
        }
    }
    (samples, max_delta, max_dev, max_bound, ok)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modb-exp-w4-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one phase: a fresh leader + follower pair, `batches` update
/// batches of `rate` updates each, lag sampled per batch and deviation
/// sampled four times mid-stream.
fn run_phase(n_objects: usize, rate: usize, batches: u64, v_max: f64) -> ReplicationLagRow {
    let ldir = scratch_dir(&format!("leader-{rate}"));
    let fdir = scratch_dir(&format!("follower-{rate}"));
    let wal = WalOptions {
        fsync: FsyncPolicy::Never,
        max_segment_bytes: 64 * 1024,
    };
    let leader = DurableDatabase::create(&ldir, fresh_db(), wal).expect("leader");
    for i in 0..n_objects as u64 {
        leader
            .register_moving(vehicle(i, 10.0 + i as f64 * 3.0, v_max))
            .expect("register");
    }
    let server = leader
        .serve_replication(
            "127.0.0.1:0",
            ReplicationConfig {
                poll_interval: Duration::from_millis(1),
                heartbeat_interval: Duration::from_millis(20),
                ..ReplicationConfig::default()
            },
        )
        .expect("serve");
    let replica = StandbyReplica::open(
        &fdir,
        server.local_addr().to_string(),
        ReplicaConfig {
            wal,
            read_timeout: Duration::from_millis(2),
            ..ReplicaConfig::default()
        },
    )
    .expect("replica");
    // Let the bootstrap land before offering load, so every phase
    // measures steady-state shipping rather than initial copy time —
    // and so mid-stream deviation samples always find the fleet.
    assert!(
        replica.wait_for_lsn(leader.wal().next_lsn(), Duration::from_secs(120)),
        "rate {rate}: bootstrap never completed ({})",
        replica.stats()
    );

    let mut fleet = Fleet::new(n_objects, v_max);
    let (mut lag_sum, mut lag_n, mut max_lag) = (0u128, 0u64, 0u64);
    let (mut samples, mut max_delta, mut max_dev, mut max_bound) = (0u64, 0.0f64, 0.0f64, 0.0f64);
    let mut within = true;
    let measure_every = (batches / 4).max(1);
    for batch in 1..=batches {
        for u in 0..rate {
            let id = (batch as usize * rate + u) % n_objects;
            // Sub-batch timestamps: strictly increasing per object even
            // when the rate exceeds the fleet size (an object updated
            // twice in one batch must not report two positions at one
            // instant — that is an infinite-speed trajectory and the
            // truthfulness premise of the bound is gone).
            let t = (batch - 1) as f64 * BATCH_DT + (u as f64 + 1.0) / rate as f64 * BATCH_DT;
            let msg = fleet.truthful_update(id, t);
            leader
                .apply_update(ObjectId(id as u64), &msg)
                .expect("update");
        }
        let lag = leader
            .wal()
            .next_lsn()
            .saturating_sub(replica.applied_lsn());
        lag_sum += lag as u128;
        lag_n += 1;
        max_lag = max_lag.max(lag);
        if batch % measure_every == 0 {
            let (s, d, dev, b, ok) = sample_deviation(&leader, &replica, n_objects, v_max);
            samples += s;
            max_delta = max_delta.max(d);
            max_dev = max_dev.max(dev);
            max_bound = max_bound.max(b);
            within = within && ok;
        }
        // The 1-core case: give the shipper and the follower a slice.
        std::thread::yield_now();
    }
    // Drain, then check exact convergence as a sanity floor.
    let frontier = leader.wal().next_lsn();
    assert!(
        replica.wait_for_lsn(frontier, Duration::from_secs(120)),
        "rate {rate}: follower never drained ({})",
        replica.stats()
    );
    // One quiescent sample: Δ = 0 here, so any nonzero deviation now
    // would be a convergence bug, not lag.
    let (s, d, dev, b, ok) = sample_deviation(&leader, &replica, n_objects, v_max);
    samples += s;
    max_delta = max_delta.max(d);
    max_dev = max_dev.max(dev);
    max_bound = max_bound.max(b);
    within = within && ok;
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
    ReplicationLagRow {
        rate,
        batches,
        records: frontier,
        mean_lag: lag_sum as f64 / lag_n.max(1) as f64,
        max_lag,
        samples,
        max_delta_s: max_delta,
        max_dev,
        max_bound,
        within_bound: within,
    }
}

/// Runs the experiment: one leader/follower phase per update rate.
pub fn run_replication_lag(
    n_objects: usize,
    rates: &[usize],
    batches: u64,
    v_max: f64,
) -> Vec<ReplicationLagRow> {
    rates
        .iter()
        .map(|&rate| run_phase(n_objects, rate.max(1), batches.max(4), v_max))
        .collect()
}

/// Renders the W4 report table.
pub fn replication_lag_table(n_objects: usize, v_max: f64, rows: &[ReplicationLagRow]) -> String {
    render_table(
        &format!(
            "W4: follower lag vs update rate at {n_objects} objects \
             (deviation vs the 2·v_max·Δ bound, v_max = {v_max})"
        ),
        &[
            "rate/batch",
            "batches",
            "records",
            "mean lag",
            "max lag",
            "samples",
            "max Δ s",
            "max dev",
            "max 2VΔ",
            "in bound",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.rate.to_string(),
                    r.batches.to_string(),
                    r.records.to_string(),
                    fmt(r.mean_lag),
                    r.max_lag.to_string(),
                    r.samples.to_string(),
                    fmt(r.max_delta_s),
                    fmt(r.max_dev),
                    fmt(r.max_bound),
                    if r.within_bound { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_stays_inside_the_lag_widened_bound() {
        let rows = run_replication_lag(20, &[5, 40], 12, 2.0);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.records > 0);
            assert!(r.samples > 0, "rate {}: no deviation samples", r.rate);
            assert!(
                r.within_bound,
                "rate {}: deviation {} exceeded bound {}",
                r.rate, r.max_dev, r.max_bound
            );
            assert!(r.max_dev <= r.max_bound + 1e-9);
        }
        let table = replication_lag_table(20, 2.0, &rows);
        assert!(table.contains("in bound"));
        assert!(table.contains("W4"));
    }
}
