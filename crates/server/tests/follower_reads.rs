//! Follower-served reads over real sockets: a chained follower
//! (leader → f1 → f2) keeps converging and serving the leader's verdicts,
//! bit for bit, after the leader restarts mid-stream on the same address.
//! It is the one run of that story through TCP listeners, a recovered
//! log and rebinding; the verdict parity, `Stale` floor, session-token
//! and serving-link fault rules run on the crate's deterministic cluster
//! driver, `replication::sim`.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::replica_harness::WAIT;
use common::*;
use modb_server::{
    BatchOutcome, DurableDatabase, QueryClient, QueryEngine, QueryServer, QueryServerConfig,
    ReplicationServer, StandbyReplica,
};

/// A script touching every query kind plus an error statement (error
/// strings must match too — parity covers the failure side).
const SCRIPT: &str = "RETRIEVE POSITION OF OBJECT 1 AT TIME 20; \
     RETRIEVE OBJECTS INSIDE RECT (0, -1, 1000, 1) AT TIME 20; \
     RETRIEVE 3 NEAREST OBJECTS TO POINT (30, 0) AT TIME 20; \
     RETRIEVE POSITION OF OBJECT 99 AT TIME 20";

fn engine(db: &modb_server::SharedDatabase) -> Arc<QueryEngine> {
    Arc::new(QueryEngine::new(db.clone()))
}

/// Starts a query front-end on the replica.
fn follower_front_end(replica: &StandbyReplica) -> QueryServer {
    let engine = engine(replica.database());
    replica
        .serve_queries(engine, "127.0.0.1:0", QueryServerConfig)
        .unwrap()
}

/// Leader-side reference verdicts for `script`, as of now.
fn leader_verdicts(
    leader: &DurableDatabase,
    script: &str,
) -> Vec<Result<modb_query::QueryResult, String>> {
    engine(leader.database())
        .run_batch(script)
        .into_iter()
        .map(|v| v.map_err(|e| e.to_string()))
        .collect()
}

/// Statement-for-statement equality, errors compared by display string.
fn assert_bit_identical(
    remote: &[Result<modb_query::QueryResult, String>],
    local: &[Result<modb_query::QueryResult, String>],
    who: &str,
) {
    assert_eq!(remote.len(), local.len(), "{who}: verdict count");
    for (i, (r, l)) in remote.iter().zip(local).enumerate() {
        assert_eq!(r, l, "{who}: statement {i} diverged");
    }
}

/// Rebinds a replication server on a fixed address, retrying while the
/// OS releases the old listener's port.
fn rebind_replication(leader: &DurableDatabase, addr: &str) -> ReplicationServer {
    let deadline = Instant::now() + WAIT;
    loop {
        match leader.serve_replication(addr, test_replication_config()) {
            Ok(server) => return server,
            Err(e) => {
                assert!(Instant::now() < deadline, "rebind on {addr} failed: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn chained_follower_serves_after_midstream_leader_restart() {
    let ldir = tmp("reads-chain-leader");
    let f1dir = tmp("reads-chain-f1");
    let f2dir = tmp("reads-chain-f2");
    let leader = DurableDatabase::create(&ldir, fresh_db(), test_wal_options()).unwrap();
    for i in 1..=4u64 {
        leader.register_moving(vehicle(i, 10.0 * i as f64)).unwrap();
    }
    let server = leader
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let leader_addr = server.local_addr().to_string();

    // The chain: f1 follows the leader and re-ships its log; f2 follows
    // f1 and serves queries.
    let f1 = StandbyReplica::open(&f1dir, &leader_addr, test_replica_config()).unwrap();
    let f1_ship = f1
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let f2 = StandbyReplica::open(
        &f2dir,
        f1_ship.local_addr().to_string(),
        test_replica_config(),
    )
    .unwrap();
    let front = follower_front_end(&f2);

    // Phase 1: churn, then kill the leader mid-stream — without waiting
    // for the chain to drain first.
    for round in 1..=20u64 {
        for i in 1..=4u64 {
            leader
                .apply_update(
                    modb_core::ObjectId(i),
                    &update(round as f64, 10.0 * i as f64 + round as f64 * 0.1),
                )
                .unwrap();
        }
    }
    server.shutdown();
    drop(leader);

    // Restart on the same address: both follower sessions reconnect and
    // resume from their watermarks against the recovered log.
    let (leader, _report) = DurableDatabase::open(&ldir, test_wal_options()).unwrap();
    let server = rebind_replication(&leader, &leader_addr);

    // Phase 2: more churn through the restarted leader.
    for round in 21..=40u64 {
        for i in 1..=4u64 {
            leader
                .apply_update(
                    modb_core::ObjectId(i),
                    &update(round as f64, 10.0 * i as f64 + round as f64 * 0.1),
                )
                .unwrap();
        }
    }

    // The whole chain converges on the restarted leader's frontier...
    let frontier = leader.wal().next_lsn();
    assert!(
        f1.wait_for_lsn(frontier, WAIT),
        "f1 never converged: {}",
        f1.stats()
    );
    assert!(
        f2.wait_for_lsn(frontier, WAIT),
        "f2 never converged: {}",
        f2.stats()
    );
    leader
        .database()
        .with_read(|ldb| f2.database().with_read(|fdb| assert_converged(ldb, fdb)));

    // ...and the chain tail serves the leader's verdicts, bit for bit.
    let mut client = QueryClient::connect(front.local_addr()).unwrap();
    let remote = match client.batch_attempt(SCRIPT, frontier).unwrap() {
        BatchOutcome::Done(verdicts) => verdicts,
        BatchOutcome::Stale { applied, required } => {
            panic!("converged chain refused: applied {applied}, required {required}")
        }
    };
    assert_bit_identical(&remote, &leader_verdicts(&leader, SCRIPT), "chain tail");

    client.close();
    front.shutdown();
    f2.shutdown();
    f1_ship.shutdown();
    f1.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&ldir).unwrap();
    std::fs::remove_dir_all(&f1dir).unwrap();
    std::fs::remove_dir_all(&f2dir).unwrap();
}
