//! Read-your-writes property through a leader → f1 → f2 chain: under a
//! random fleet and a random interleaving of write bursts, floored
//! reads, and quiescent checkpoints,
//!
//! - every read floored at the writer's acked frontier (the session
//!   token) observes the writer's own updates — the served position is
//!   the leader's position, never a pre-write state;
//! - every served answer's uncertainty *contains* the leader's: bounds
//!   and intervals only ever widen (by the lag clock's `2·v_max·Δ`),
//!   `must` only ever drains into `may`, and a `certain` neighbour is
//!   certain on the leader too;
//! - at quiescent checkpoints the whole chain converges and both
//!   followers' floored verdicts match the leader's.
//!
//! A typed `Stale` refusal is a legal transient (the chain may be
//! behind); the property retries it — what it must never see is a
//! pre-write answer, a dropped session, or a hang.

mod common;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use common::replica_harness::WAIT;
use common::*;
use modb_core::ObjectId;
use modb_query::QueryResult;
use modb_server::{
    BatchOutcome, DurableDatabase, QueryClient, QueryEngine, QueryServerConfig, StandbyReplica,
};
use proptest::prelude::*;

const EPS: f64 = 1e-9;

/// One step of the workload.
#[derive(Debug, Clone)]
enum Op {
    /// A write burst through the leader: every object gets one update,
    /// advancing the shared clock. The burst's acked frontier becomes
    /// the session token for the reads that follow.
    Write,
    /// A floored read on follower `which % 2`, querying object
    /// `id_hint % fleet`: must observe the latest write burst.
    Read(u8, u8),
    /// Quiesce the chain and compare both followers' verdicts with the
    /// leader's.
    Checkpoint,
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored proptest has no weighted prop_oneof; duplicate
    // entries weight reads over writes over checkpoints.
    prop_oneof![
        Just(Op::Write),
        Just(Op::Write),
        (any::<u8>(), any::<u8>()).prop_map(|(w, id)| Op::Read(w, id)),
        (any::<u8>(), any::<u8>()).prop_map(|(w, id)| Op::Read(w, id)),
        (any::<u8>(), any::<u8>()).prop_map(|(w, id)| Op::Read(w, id)),
        Just(Op::Checkpoint),
    ]
}

/// Served uncertainty must contain the leader's. Equality is the
/// quiescent case (zero slack); a nonzero lag clock only ever widens.
fn contains_widened(remote: &QueryResult, local: &QueryResult) -> Result<(), String> {
    match (remote, local) {
        (QueryResult::Position(r), QueryResult::Position(l)) => {
            if r.position != l.position || r.arc != l.arc {
                return Err(format!(
                    "position moved: served {:?}/{} vs leader {:?}/{}",
                    r.position, r.arc, l.position, l.arc
                ));
            }
            if r.bound + EPS < l.bound
                || r.interval.0 > l.interval.0 + EPS
                || r.interval.1 + EPS < l.interval.1
            {
                return Err(format!(
                    "uncertainty shrank: served ±{} {:?} vs leader ±{} {:?}",
                    r.bound, r.interval, l.bound, l.interval
                ));
            }
            Ok(())
        }
        (QueryResult::Range(r), QueryResult::Range(l)) => {
            let (rm, rmay): (BTreeSet<ObjectId>, BTreeSet<ObjectId>) = (
                r.must.iter().copied().collect(),
                r.may.iter().copied().collect(),
            );
            let (lm, lmay): (BTreeSet<ObjectId>, BTreeSet<ObjectId>) = (
                l.must.iter().copied().collect(),
                l.may.iter().copied().collect(),
            );
            if !rm.is_subset(&lm) {
                return Err(format!("served must {rm:?} not within leader must {lm:?}"));
            }
            let rall: BTreeSet<ObjectId> = rm.union(&rmay).copied().collect();
            let lall: BTreeSet<ObjectId> = lm.union(&lmay).copied().collect();
            if rall != lall {
                return Err(format!(
                    "answer set changed: served {rall:?} vs leader {lall:?}"
                ));
            }
            Ok(())
        }
        (QueryResult::Nearest(r), QueryResult::Nearest(l)) => {
            if r.ranked.len() != l.ranked.len() {
                return Err(format!(
                    "ranking length changed: {} vs {}",
                    r.ranked.len(),
                    l.ranked.len()
                ));
            }
            for (rn, ln) in r.ranked.iter().zip(&l.ranked) {
                if rn.id != ln.id || (rn.distance - ln.distance).abs() > EPS {
                    return Err(format!("ranking changed: {rn:?} vs {ln:?}"));
                }
                if rn.bound + EPS < ln.bound {
                    return Err(format!("neighbour bound shrank: {rn:?} vs {ln:?}"));
                }
                if rn.certain && !ln.certain {
                    return Err(format!(
                        "served claims certainty the leader does not have: {rn:?}"
                    ));
                }
            }
            Ok(())
        }
        _ => Err("verdict kind changed".to_string()),
    }
}

/// Retries a floored batch through transient `Stale` refusals until the
/// follower answers (bounded by [`WAIT`]). Refusing is legal while the
/// chain catches up; hanging or erroring is not.
fn floored_read(
    client: &mut QueryClient,
    script: &str,
    floor: u64,
    who: &str,
) -> Vec<Result<QueryResult, String>> {
    let deadline = Instant::now() + WAIT;
    loop {
        match client.batch_attempt(script, floor).unwrap() {
            BatchOutcome::Done(verdicts) => return verdicts,
            BatchOutcome::Stale { applied, required } => {
                assert_eq!(required, floor, "{who}: refusal must echo the floor");
                assert!(
                    Instant::now() < deadline,
                    "{who}: still stale after {WAIT:?} (applied {applied}, floor {floor})"
                );
            }
        }
    }
}

fn engine(db: &modb_server::SharedDatabase) -> std::sync::Arc<QueryEngine> {
    std::sync::Arc::new(QueryEngine::new(db.clone()))
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn session_token_reads_observe_own_writes_through_the_chain(
        fleet in 2u64..6,
        ops in proptest::collection::vec(op(), 10..50),
    ) {
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let ldir = tmp(&format!("rprop-{case}-leader"));
        let f1dir = tmp(&format!("rprop-{case}-f1"));
        let f2dir = tmp(&format!("rprop-{case}-f2"));
        let leader = DurableDatabase::create(&ldir, fresh_db(), test_wal_options()).unwrap();
        for i in 1..=fleet {
            leader.register_moving(vehicle(i, 10.0 * i as f64)).unwrap();
        }
        let leader_engine = engine(leader.database());

        let server = leader
            .serve_replication("127.0.0.1:0", test_replication_config())
            .unwrap();
        let f1 = StandbyReplica::open(
            &f1dir,
            server.local_addr().to_string(),
            test_replica_config(),
        )
        .unwrap();
        let f1_ship = f1
            .serve_replication("127.0.0.1:0", test_replication_config())
            .unwrap();
        let f2 = StandbyReplica::open(
            &f2dir,
            f1_ship.local_addr().to_string(),
            test_replica_config(),
        )
        .unwrap();
        let fronts = [
            f1.serve_queries(
                engine(f1.database()),
                "127.0.0.1:0",
                QueryServerConfig {
                    stale_deadline: Duration::from_millis(50),
                    ..QueryServerConfig::default()
                },
            )
            .unwrap(),
            f2.serve_queries(
                engine(f2.database()),
                "127.0.0.1:0",
                QueryServerConfig {
                    stale_deadline: Duration::from_millis(50),
                    ..QueryServerConfig::default()
                },
            )
            .unwrap(),
        ];
        let mut clients = [
            QueryClient::connect(fronts[0].local_addr()).unwrap(),
            QueryClient::connect(fronts[1].local_addr()).unwrap(),
        ];

        let mut clock = 0.0f64;
        let mut token = leader.wal().next_lsn();
        for op in &ops {
            match *op {
                Op::Write => {
                    clock += 1.0;
                    for i in 1..=fleet {
                        let _ = leader.apply_update(
                            ObjectId(i),
                            &update(clock, 10.0 * i as f64 + clock * 0.5),
                        );
                    }
                    // The writer's session token: its acked frontier.
                    token = leader.wal().next_lsn();
                }
                Op::Read(which, id_hint) => {
                    let id = 1 + u64::from(id_hint) % fleet;
                    let script = format!(
                        "RETRIEVE POSITION OF OBJECT {id} AT TIME {clock}; \
                         RETRIEVE OBJECTS INSIDE RECT (0, -1, 1000, 1) AT TIME {clock}; \
                         RETRIEVE 2 NEAREST OBJECTS TO POINT (20, 0) AT TIME {clock}"
                    );
                    let who = format!("case {case}: follower {}", which % 2);
                    let remote = floored_read(
                        &mut clients[(which % 2) as usize],
                        &script,
                        token,
                        &who,
                    );
                    // The leader is quiescent between ops, so its local
                    // verdicts at this instant are what the writer's
                    // session must observe.
                    let local: Vec<Result<QueryResult, String>> = leader_engine
                        .run_batch(&script)
                        .into_iter()
                        .map(|v| v.map_err(|e| e.to_string()))
                        .collect();
                    prop_assert_eq!(remote.len(), local.len());
                    for (i, (r, l)) in remote.iter().zip(&local).enumerate() {
                        match (r, l) {
                            (Ok(r), Ok(l)) => {
                                if let Err(why) = contains_widened(r, l) {
                                    prop_assert!(
                                        false,
                                        "{} statement {}: {}", who, i, why
                                    );
                                }
                            }
                            (Err(r), Err(l)) => prop_assert_eq!(r, l),
                            other => prop_assert!(false, "{} statement {}: {:?}", who, i, other),
                        }
                    }
                }
                Op::Checkpoint => {
                    let w = leader.wal().next_lsn();
                    prop_assert!(f1.wait_for_lsn(w, WAIT), "case {case}: f1 stuck");
                    prop_assert!(f2.wait_for_lsn(w, WAIT), "case {case}: f2 stuck");
                    let expected = leader.database().with_read(|db| db.clone());
                    f1.database().with_read(|db| assert_converged(&expected, db));
                    f2.database().with_read(|db| assert_converged(&expected, db));
                }
            }
        }

        // Closing checkpoint: the chain always ends converged.
        let w = leader.wal().next_lsn();
        prop_assert!(f1.wait_for_lsn(w, WAIT), "case {case}: f1 never drained");
        prop_assert!(f2.wait_for_lsn(w, WAIT), "case {case}: f2 never drained");
        let expected = leader.database().with_read(|db| db.clone());
        f1.database().with_read(|db| assert_converged(&expected, db));
        f2.database().with_read(|db| assert_converged(&expected, db));

        let [c1, c2] = clients;
        c1.close();
        c2.close();
        let [q1, q2] = fronts;
        q1.shutdown();
        q2.shutdown();
        f2.shutdown();
        f1_ship.shutdown();
        f1.shutdown();
        server.shutdown();
        std::fs::remove_dir_all(&ldir).unwrap();
        std::fs::remove_dir_all(&f1dir).unwrap();
        std::fs::remove_dir_all(&f2dir).unwrap();
    }
}
