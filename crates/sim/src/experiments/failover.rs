//! W10: leader failover — the write-availability gap across kill →
//! promote → first ack, with a zero-acked-loss contract.
//!
//! The paper's cost model prices the update stream; a deployment also
//! has to price the moments the update stream has nowhere to go. This
//! experiment builds the replication chain from DESIGN.md §16 — leader
//! and two chained standbys — then kills the leader and clocks the
//! operator's recovery, as the REPL's `\replica promote` runs it:
//!
//! - **promote**: kill → the standby with the highest applied LSN
//!   (`f1`) has sealed a new epoch and the other (`f2`) is repointed at
//!   it;
//! - **first ack**: kill → the first post-failover position update is
//!   acknowledged by the new leader. This is the write-availability gap
//!   a vehicle fleet actually experiences, less the time it takes to
//!   notice the leader is gone — a deadman probe's
//!   `probe_failures × probe_interval`, a setting rather than a cost of
//!   the mechanism.
//!
//! The correctness columns are the contract and must hold everywhere:
//! **acked loss** is the count of leader-acknowledged WAL records
//! missing from the promotee's applied prefix (must be 0 — the promotee
//! had every shipped write), **parity** means the promotee's object
//! state equals the leader's state at the kill point bit for bit, and
//! **survivor** means the repointed standby converged on the new epoch
//! without re-bootstrapping. The millisecond columns are the headline;
//! CI asserts only the contract.

use std::path::PathBuf;
use std::time::{Duration, Instant};

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
/// Chain-drain deadline; generous for loaded CI runners.
const DRAIN: Duration = Duration::from_secs(120);

/// One kill-and-recover trial of the W10 experiment.
#[derive(Debug, Clone)]
pub struct FailoverRow {
    /// Trial index (fresh cluster each time).
    pub trial: usize,
    /// Leader WAL frontier at the kill (acked records).
    pub records: u64,
    /// Kill → freshest standby promoted + survivor repointed.
    pub promote_ms: f64,
    /// Kill → first acked write on the new leader (the availability gap).
    pub first_ack_ms: f64,
    /// Acked records missing from the promotee's applied prefix (MUST be 0).
    pub acked_loss: u64,
    /// Promotee state equals the leader's state at the kill point.
    pub parity: bool,
    /// Repointed survivor converged on the new epoch, no re-bootstrap.
    pub survivor_ok: bool,
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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modb-exp-w10-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Full logical equality as a verdict (the experiment counterpart of the
/// test suite's `assert_converged`): same objects, same attributes.
fn same_state(a: &Database, b: &Database) -> bool {
    if a.moving_count() != b.moving_count() || a.stationary_count() != b.stationary_count() {
        return false;
    }
    a.moving_ids().all(|id| a.moving(id) == b.moving(id))
}

/// Runs one kill-and-recover trial. See the module docs for the legs.
fn run_trial(trial: usize, n_objects: usize, batches: u64) -> FailoverRow {
    let v_max = 2.0;
    let wal = WalOptions {
        fsync: FsyncPolicy::Never,
        max_segment_bytes: 64 * 1024,
    };
    let ldir = scratch_dir(&format!("t{trial}-leader"));
    let leader = DurableDatabase::create(&ldir, fresh_db(), wal).expect("leader");
    for i in 0..n_objects as u64 {
        leader
            .register_moving(vehicle(i, 10.0 + i as f64 * 3.0, v_max))
            .expect("register");
    }
    let repl_config = ReplicationConfig {
        poll_interval: Duration::from_millis(1),
        heartbeat_interval: Duration::from_millis(10),
        ..ReplicationConfig::default()
    };
    let leader_server = leader
        .serve_replication("127.0.0.1:0", repl_config.clone())
        .expect("serve replication");

    // The chain: f1 follows the leader, f2 follows f1; f1 re-ships, so
    // it can be f2's upstream after the promotion.
    let replica_config = ReplicaConfig {
        wal,
        reconnect_backoff: Duration::from_millis(5),
        read_timeout: Duration::from_millis(2),
        ..ReplicaConfig::default()
    };
    let f1dir = scratch_dir(&format!("t{trial}-f1"));
    let f1 = StandbyReplica::open(
        &f1dir,
        leader_server.local_addr().to_string(),
        replica_config.clone(),
    )
    .expect("f1");
    let f1_ship = f1
        .serve_replication("127.0.0.1:0", repl_config.clone())
        .expect("f1 ship");
    let f2dir = scratch_dir(&format!("t{trial}-f2"));
    let f1_ship_addr = f1_ship.local_addr().to_string();
    let f2 = StandbyReplica::open(&f2dir, &f1_ship_addr, replica_config).expect("f2");

    // Churn: truthful variable-speed updates through the leader.
    let mut arcs: Vec<f64> = (0..n_objects).map(|i| 10.0 + i as f64 * 3.0).collect();
    let mut speeds = vec![v_max * 0.5; n_objects];
    let mut last_t = vec![0.0f64; n_objects];
    for batch in 1..=batches {
        for u in 0..n_objects {
            let t = (batch - 1) as f64 * BATCH_DT + (u as f64 + 1.0) / n_objects as f64 * BATCH_DT;
            let dt = (t - last_t[u]).max(0.0);
            arcs[u] += speeds[u] * dt;
            last_t[u] = t;
            speeds[u] = if ((batch as usize) + u).is_multiple_of(3) {
                v_max
            } else {
                v_max * 0.25
            };
            leader
                .apply_update(
                    ObjectId(u as u64),
                    &UpdateMessage::basic(t, UpdatePosition::Arc(arcs[u]), speeds[u]),
                )
                .expect("update");
        }
    }
    let acked = leader.wal().next_lsn();
    let expected = leader.database().with_read(|db| db.clone());
    assert!(
        f1.wait_for_lsn(acked, DRAIN),
        "f1 never drained: {}",
        f1.stats()
    );
    assert!(
        f2.wait_for_lsn(acked, DRAIN),
        "f2 never drained: {}",
        f2.stats()
    );
    let f2_bootstraps = f2.stats().bootstraps;

    // Kill the leader: ship server and handle both gone.
    let t_kill = Instant::now();
    leader_server.shutdown();
    drop(leader);

    // Promote the freshest standby (both drained to `acked`; f1 is the
    // chain's head) and repoint the survivor at its re-ship address —
    // the address f2 already follows, so the repoint is a reconnect that
    // resumes from f2's watermark.
    assert!(
        f1.applied_lsn() >= f2.applied_lsn(),
        "f1 must be the freshest standby"
    );
    let promoted = f1.promote().expect("promote f1");
    f2.repoint(f1_ship_addr);
    let promote_ms = t_kill.elapsed().as_secs_f64() * 1e3;
    // Applied prefix = everything below the epoch seal.
    let applied_prefix = promoted.wal().next_lsn().saturating_sub(1);
    let acked_loss = acked.saturating_sub(applied_prefix);
    let parity = promoted
        .database()
        .with_read(|db| same_state(&expected, db));

    // The write path is back: first ack on the new leader closes the gap.
    promoted
        .apply_update(
            ObjectId(0),
            &UpdateMessage::basic(
                batches as f64 * BATCH_DT + 1.0,
                UpdatePosition::Arc(arcs[0] + 1.0),
                v_max * 0.5,
            ),
        )
        .expect("first post-failover ack");
    let first_ack_ms = t_kill.elapsed().as_secs_f64() * 1e3;

    // The survivor follows the promotee into the new epoch — streamed
    // from its watermark, not re-bootstrapped.
    let frontier = promoted.wal().next_lsn();
    let survivor_ok = f2.wait_for_lsn(frontier, DRAIN)
        && f2.epoch() == promoted.epoch()
        && f2.stats().bootstraps == f2_bootstraps
        && promoted
            .database()
            .with_read(|a| f2.database().with_read(|b| same_state(a, b)));

    f2.shutdown();
    f1_ship.shutdown();
    drop(promoted);
    for dir in [&ldir, &f1dir, &f2dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    FailoverRow {
        trial,
        records: acked,
        promote_ms,
        first_ack_ms,
        acked_loss,
        parity,
        survivor_ok,
    }
}

/// Runs the experiment: `trials` independent kill-and-recover rounds.
pub fn run_failover(n_objects: usize, trials: usize, batches: u64) -> Vec<FailoverRow> {
    (0..trials.max(1))
        .map(|t| run_trial(t, n_objects.max(4), batches.max(2)))
        .collect()
}

/// `true` iff every trial held the contract: zero acked loss, state
/// parity, survivor converged.
pub fn failover_contract(rows: &[FailoverRow]) -> bool {
    rows.iter()
        .all(|r| r.acked_loss == 0 && r.parity && r.survivor_ok)
}

/// Renders the W10 report table.
pub fn failover_table(n_objects: usize, rows: &[FailoverRow]) -> String {
    render_table(
        &format!(
            "W10: leader failover at {n_objects} objects \
             (kill → promote → first ack; zero acked loss is the contract)"
        ),
        &[
            "trial",
            "records",
            "promote ms",
            "first ack ms",
            "acked loss",
            "parity",
            "survivor",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.trial.to_string(),
                    r.records.to_string(),
                    fmt(r.promote_ms),
                    fmt(r.first_ack_ms),
                    r.acked_loss.to_string(),
                    if r.parity { "yes" } else { "NO" }.to_string(),
                    if r.survivor_ok { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_trial_holds_the_contract() {
        // Correctness only — the millisecond columns are hardware-bound.
        let rows = run_failover(8, 1, 4);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.records > 0);
        assert_eq!(r.acked_loss, 0, "an acked write went missing");
        assert!(r.parity, "promotee state diverged from the dead leader");
        assert!(r.survivor_ok, "survivor never converged on the new epoch");
        assert!(r.promote_ms > 0.0 && r.first_ack_ms >= r.promote_ms);
        assert!(failover_contract(&rows));
        let table = failover_table(8, &rows);
        assert!(table.contains("W10"));
        assert!(table.contains("acked loss"));
    }
}
