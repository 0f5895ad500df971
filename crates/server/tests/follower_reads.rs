//! Follower-served reads: a standby answers the query protocol itself.
//! The contract under test:
//!
//! - at equal applied LSN (quiescent chain, zero lag clock) a follower's
//!   verdicts are **bit-identical** to the leader's;
//! - a read-your-writes floor the follower cannot reach within its wait
//!   deadline comes back as the typed `Stale { applied, required }`
//!   refusal — bounded, never a hang — and the session survives it;
//! - a chained follower (leader → f1 → f2) keeps converging and serving
//!   after the leader restarts mid-stream;
//! - byte-level faults on the follower's *serving* socket end the
//!   offending session without wedging the front-end.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::replica_harness::{
    assert_closed, batch_payload, frame, raw_handshake, wait_until, Fault, FaultProxy, Scenario,
    WAIT,
};
use common::*;
use modb_core::ObjectId;
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

/// Starts a query front-end on the replica with the given config.
fn follower_front_end(replica: &StandbyReplica, config: QueryServerConfig) -> QueryServer {
    replica
        .serve_queries(engine(replica.database()), "127.0.0.1:0", config)
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

#[test]
fn follower_verdicts_are_bit_identical_at_equal_applied_lsn() {
    let s = Scenario::start("reads-parity", 4);
    let replica = s.follower();
    s.churn(1..=30, 4);

    let frontier = s.leader.wal().next_lsn();
    assert!(
        replica.wait_for_lsn(frontier, WAIT),
        "follower never drained"
    );

    let server = follower_front_end(&replica, QueryServerConfig::default());
    let mut client = QueryClient::connect(server.local_addr()).unwrap();
    // Floored at the frontier the follower has applied: the server
    // answers at once; quiescent and caught up, the lag clock is zero,
    // no widening applies, and every verdict — the error string
    // included — is the leader's, bit for bit.
    let remote = match client.batch_attempt(SCRIPT, frontier).unwrap() {
        BatchOutcome::Done(verdicts) => verdicts,
        BatchOutcome::Stale { applied, required } => {
            panic!("reachable floor refused: applied {applied}, required {required}")
        }
    };
    assert_bit_identical(&remote, &leader_verdicts(&s.leader, SCRIPT), "follower");

    client.close();
    server.shutdown();
    s.finish(replica);
}

/// A name several vehicles share resolves to the same vehicle — the one
/// with the smallest id — on the leader and on a follower bootstrapped
/// from the leader's snapshot. The follower's object table hashes with a
/// seed of its own, so a rule that followed iteration order would answer
/// the same statement about different vehicles at the same LSN.
#[test]
fn a_shared_name_resolves_to_the_same_vehicle_on_leader_and_follower() {
    let s = Scenario::start("reads-names", 0);
    for id in (5..=20).rev() {
        let mut dup = vehicle(id, 10.0 * id as f64);
        dup.name = "dup".into();
        s.leader.register_moving(dup).unwrap();
    }
    s.leader.snapshot().unwrap();
    let replica = s.follower();
    let frontier = s.leader.wal().next_lsn();
    assert!(
        replica.wait_for_lsn(frontier, WAIT),
        "follower never drained"
    );
    assert_eq!(
        replica.stats().bootstraps,
        1,
        "the follower started from a snapshot"
    );

    let script = "RETRIEVE POSITION OF OBJECT 'dup' AT TIME 20; \
         RETRIEVE POSITION OF OBJECT 5 AT TIME 20; \
         RETRIEVE OBJECTS WITHIN 25 OF OBJECT 'dup' AT TIME 20";
    let server = follower_front_end(&replica, QueryServerConfig::default());
    let mut client = QueryClient::connect(server.local_addr()).unwrap();
    let remote = match client.batch_attempt(script, frontier).unwrap() {
        BatchOutcome::Done(verdicts) => verdicts,
        BatchOutcome::Stale { applied, required } => {
            panic!("reachable floor refused: applied {applied}, required {required}")
        }
    };
    let local = leader_verdicts(&s.leader, script);
    assert_bit_identical(&remote, &local, "follower");
    assert_eq!(local[0], local[1], "'dup' is object 5, the smallest id");
    let near = local[2].as_ref().unwrap().as_range().unwrap().all();
    assert!(near.contains(&ObjectId(6)) && !near.contains(&ObjectId(5)));

    client.close();
    server.shutdown();
    s.finish(replica);
}

/// The start position a lookup reports is the point its arc names,
/// `route.point_at(start_arc)`, bit for bit — whatever point the
/// registration sent within the map-matching tolerance, after an `Arc`
/// update and after a map-matched `Coordinates` update — on the leader,
/// on a follower bootstrapped from the leader's snapshot, and on a copy
/// recovered from that snapshot. The arcs are ones whose point is not
/// `(arc, 0)` on this route, and the registered point is 0.1 mi off it.
#[test]
fn the_reported_start_position_is_the_point_its_arc_names() {
    let s = Scenario::start("reads-start-point", 0);
    let network = fresh_db().network_arc();
    let route = network.get(modb_routes::RouteId(1)).unwrap();
    assert_ne!(route.point_at(63.7).x, 63.7);
    let mut off = vehicle(1, 63.7);
    off.attr.start_position = modb_geom::Point::new(63.7, 0.1);
    s.leader.register_moving(off.clone()).unwrap();
    s.leader.register_moving(vehicle(2, 10.0)).unwrap();
    s.leader.register_moving(vehicle(3, 20.0)).unwrap();
    s.leader
        .apply_update(ObjectId(2), &update(1.0, 127.4))
        .unwrap();
    let fix = modb_core::UpdatePosition::Coordinates(modb_geom::Point::new(254.3, 0.2));
    s.leader
        .apply_update(ObjectId(3), &modb_core::UpdateMessage::basic(1.0, fix, 1.0))
        .unwrap();
    let check = |db: &modb_core::Database, who: &str| {
        for (id, arc) in [(1, Some(63.7)), (2, Some(127.4)), (3, None)] {
            let attr = db.moving(ObjectId(id)).unwrap().attr;
            if let Some(arc) = arc {
                assert_eq!(attr.start_arc, arc, "{who}: vehicle {id}");
            }
            assert_eq!(
                attr.start_position,
                route.point_at(attr.start_arc),
                "{who}: vehicle {id}"
            );
        }
        assert_ne!(
            db.moving(ObjectId(1)).unwrap(),
            off,
            "{who}: echoed the sent point"
        );
    };
    s.leader.database().with_read(|db| check(db, "leader"));

    s.leader.snapshot().unwrap();
    let replica = s.follower();
    assert!(
        replica.wait_for_lsn(s.leader.wal().next_lsn(), WAIT),
        "follower never drained"
    );
    assert_eq!(
        replica.stats().bootstraps,
        1,
        "bootstrapped from the snapshot"
    );
    replica.database().with_read(|db| check(db, "follower"));
    s.assert_converges(&replica);

    replica.shutdown();
    let Scenario {
        leader,
        server,
        proxy,
        ldir,
        fdir,
    } = s;
    drop(proxy);
    server.shutdown();
    drop(leader);
    let recovered = modb_wal::recover(&ldir).unwrap();
    assert_eq!(recovered.report.replayed, 0, "all of it from the snapshot");
    check(&recovered.database, "recovered");
    std::fs::remove_dir_all(&ldir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

#[test]
fn unreachable_floor_is_a_typed_stale_refusal_not_a_hang() {
    let s = Scenario::start("reads-stale", 4);
    let replica = s.follower();
    s.churn(1..=10, 4);
    let frontier = s.leader.wal().next_lsn();
    assert!(
        replica.wait_for_lsn(frontier, WAIT),
        "follower never drained"
    );

    let server = follower_front_end(
        &replica,
        QueryServerConfig {
            stale_deadline: Duration::from_millis(100),
            ..QueryServerConfig::default()
        },
    );
    let mut client = QueryClient::connect(server.local_addr()).unwrap();

    // A floor past anything the leader has written: the follower must
    // wait out its deadline and refuse with the typed Stale — carrying
    // its applied watermark and echoing the floor — instead of hanging
    // or answering stale data as if it were fresh.
    let floor = frontier + 50;
    let t0 = Instant::now();
    match client.batch_attempt(SCRIPT, floor).unwrap() {
        BatchOutcome::Stale { applied, required } => {
            assert_eq!(required, floor, "refusal must echo the floor");
            assert!(
                applied >= frontier && applied < floor,
                "refusal watermark {applied} out of range [{frontier}, {floor})"
            );
        }
        BatchOutcome::Done(_) => panic!("unreachable floor was answered"),
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(80),
        "refused before the wait deadline ({elapsed:?}) — floors must get their grace period"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "refusal took {elapsed:?} — Stale must be bounded"
    );

    // The session survives the refusal: the same connection answers a
    // satisfiable floor immediately...
    match client.batch_attempt(SCRIPT, frontier).unwrap() {
        BatchOutcome::Done(verdicts) => assert_eq!(verdicts.len(), 4),
        BatchOutcome::Stale { .. } => panic!("satisfiable floor refused after a Stale"),
    }
    // ...and once the leader crosses the old floor, the very floor that
    // was refused gets answered.
    s.churn(11..=30, 4);
    assert!(
        replica.wait_for_lsn(floor, WAIT),
        "follower never crossed the refused floor"
    );
    match client.batch_attempt(SCRIPT, floor).unwrap() {
        BatchOutcome::Done(verdicts) => assert_eq!(verdicts.len(), 4),
        BatchOutcome::Stale { applied, required } => {
            panic!("crossed floor still refused: applied {applied}, required {required}")
        }
    }

    client.close();
    server.shutdown();
    s.finish(replica);
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
    let front = follower_front_end(&f2, QueryServerConfig::default());

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

#[test]
fn byte_faults_on_the_serving_socket_do_not_wedge_the_follower() {
    let s = Scenario::start("reads-faults", 4);
    let replica = s.follower();
    s.churn(1..=10, 4);
    let frontier = s.leader.wal().next_lsn();
    assert!(
        replica.wait_for_lsn(frontier, WAIT),
        "follower never drained"
    );

    let server = follower_front_end(
        &replica,
        QueryServerConfig {
            request_deadline: Duration::from_millis(200),
            ..QueryServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // The server still answers a healthy floored batch — the wedge
    // check, re-run after every fault below.
    let healthy = |what: &str| {
        let mut client = QueryClient::connect(addr).unwrap();
        match client.batch_attempt(SCRIPT, frontier).unwrap() {
            BatchOutcome::Done(verdicts) => {
                assert_eq!(verdicts.len(), 4, "{what}");
                assert!(verdicts[0].is_ok(), "{what}: {:?}", verdicts[0]);
            }
            BatchOutcome::Stale { .. } => panic!("{what}: healthy floor refused"),
        }
        client.close();
    };
    healthy("before any fault");

    // Garbage header: framing is unrecoverable, the session must end.
    let mut vandal = TcpStream::connect(addr).unwrap();
    vandal
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    vandal.write_all(&[0xffu8; 16]).unwrap();
    assert_closed(&mut vandal);
    wait_until("garbage slot released", || server.active_connections() == 0);
    healthy("after garbage header");

    // Half a frame, then silence: reaped at the request deadline.
    let mut staller = raw_handshake(addr);
    let full = frame(&batch_payload(SCRIPT));
    staller.write_all(&full[..full.len() / 2]).unwrap();
    assert_closed(&mut staller);
    wait_until("staller slot released", || server.active_connections() == 0);
    healthy("after stalled half-frame");

    // A proxy corrupting server→client bytes: the client sees a CRC
    // mismatch and fails, the server sees a dead peer and cleans up.
    let proxy = FaultProxy::start(addr);
    proxy.push(Fault::CorruptByteAt(12));
    // Corruption may hit the HelloAck itself (refused at connect) or
    // land past the handshake — then the batch must still return (with
    // whatever error), never hang.
    if let Ok(mut through_proxy) = QueryClient::connect(proxy.socket_addr()) {
        let _ = through_proxy.batch_attempt(SCRIPT, frontier);
    }
    drop(proxy);
    wait_until("proxied slot released", || server.active_connections() == 0);
    healthy("after corrupted reply stream");

    server.shutdown();
    s.finish(replica);
}
