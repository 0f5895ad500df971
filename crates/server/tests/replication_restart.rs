//! Follower crash-restart: a standby that goes down restarts from its
//! *local* snapshot + cursor and resumes incrementally — no
//! re-bootstrap. The follower-side mirror of `durable_snapshot_prop.rs`.
//! The decisions behind the resume (resume at the watermark, duplicates
//! below it skipped) are unit tests of the session machines, in
//! `replication/session.rs`.

mod common;

use std::time::Duration;

use common::*;
use modb_core::ObjectId;
use modb_server::{DurableDatabase, ReplicaPhase, StandbyReplica};

const WAIT: Duration = Duration::from_secs(30);

#[test]
fn restart_resumes_from_local_snapshot_without_rebootstrap() {
    let ldir = tmp("restart-leader");
    let fdir = tmp("restart-follower");
    let leader = DurableDatabase::create(&ldir, fresh_db(), test_wal_options()).unwrap();
    for i in 1..=10u64 {
        leader.register_moving(vehicle(i, 10.0 * i as f64)).unwrap();
    }
    let server = leader
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let addr = server.local_addr().to_string();

    // ---- Session 1: bootstrap, stream, snapshot locally, then "crash".
    let mut config = test_replica_config();
    config.snapshot_every = 16; // local snapshots during catch-up
    let replica = StandbyReplica::open(&fdir, &addr, config.clone()).unwrap();
    for round in 1..=60u64 {
        for i in 1..=10u64 {
            leader
                .apply_update(
                    ObjectId(i),
                    &update(round as f64, 10.0 * i as f64 + round as f64),
                )
                .unwrap();
        }
    }
    let frontier = leader.wal().next_lsn();
    assert!(replica.wait_for_lsn(frontier, WAIT), "catch-up timed out");
    let stats = replica.shutdown(); // down — but its directory survives
    assert_eq!(stats.bootstraps, 1, "first contact bootstraps");
    assert!(stats.snapshots_taken >= 1, "local snapshots were taken");
    assert_eq!(stats.applied_lsn, frontier);

    // ---- Leader keeps moving while the follower is down.
    for round in 61..=90u64 {
        for i in 1..=10u64 {
            leader
                .apply_update(
                    ObjectId(i),
                    &update(round as f64, 10.0 * i as f64 + round as f64),
                )
                .unwrap();
        }
    }

    // ---- Session 2: restart from the local directory.
    let replica = StandbyReplica::open(&fdir, &addr, config.clone()).unwrap();
    assert!(
        replica.applied_lsn() >= stats.applied_lsn.saturating_sub(1),
        "local recovery restored the cursor (got {}, had {})",
        replica.applied_lsn(),
        stats.applied_lsn,
    );
    let frontier = leader.wal().next_lsn();
    assert!(replica.wait_for_lsn(frontier, WAIT), "resume timed out");
    assert_eq!(
        replica.stats().bootstraps,
        0,
        "restart must not re-bootstrap"
    );
    // Steady is declared on the next heartbeat after catch-up.
    let deadline = std::time::Instant::now() + WAIT;
    while replica.phase() != ReplicaPhase::Steady {
        assert!(std::time::Instant::now() < deadline, "never went steady");
        std::thread::sleep(Duration::from_millis(2));
    }

    let expected = leader.database().with_read(|db| db.clone());
    replica
        .database()
        .with_read(|db| assert_converged(&expected, db));
    replica.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&ldir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}
