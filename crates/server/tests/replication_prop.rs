//! Convergence property for WAL-shipping replication: under an arbitrary
//! interleaving of registers / updates / removes — with random
//! disconnects and leader-side snapshot+compaction passes thrown in —
//! the follower's state at watermark W is logically identical to a
//! leader clone taken at W. Checkpoints quiesce the leader, wait the
//! follower to the frontier, and compare the full object state; the last
//! one also recovers the follower's own log, which must end at W in the
//! same state.
//!
//! Setup rides on `common::replica_harness::Scenario` (the follower
//! connects through the byte proxy, here always clean — the faulty
//! variants live in `replication_faults`).

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use common::replica_harness::Scenario;
use common::*;
use modb_core::ObjectId;
use modb_server::StandbyReplica;
use proptest::prelude::*;

const WAIT: Duration = Duration::from_secs(30);

/// One step of the replicated workload. Rejected operations (duplicate
/// register, unknown remove, stale update) are part of the property:
/// whatever the leader's verdict, the follower must land on the same
/// state.
#[derive(Debug, Clone)]
enum Op {
    Register(u64, f64),
    Update(u64, f64, f64),
    Remove(u64),
    /// Drop the session mid-stream; the follower reconnects and resumes
    /// (or re-bootstraps) from its watermark.
    Disconnect,
    /// Leader-side snapshot + compaction (retention 2) — the ship
    /// barrier and the resume/bootstrap decision both get exercised.
    Compact,
    /// Quiesce and compare: follower at watermark W vs leader clone at W.
    Checkpoint,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..10, 0.0f64..1.0).prop_map(|(id, frac)| Op::Register(id, frac)),
        (1u64..10, 0.0f64..60.0, 0.0f64..1.0).prop_map(|(id, t, frac)| Op::Update(id, t, frac)),
        (1u64..10, 0.0f64..60.0, 0.0f64..1.0).prop_map(|(id, t, frac)| Op::Update(id, t, frac)),
        (1u64..10, 0.0f64..60.0, 0.0f64..1.0).prop_map(|(id, t, frac)| Op::Update(id, t, frac)),
        (1u64..10).prop_map(Op::Remove),
        Just(Op::Disconnect),
        Just(Op::Compact),
        Just(Op::Checkpoint),
    ]
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn follower_at_watermark_equals_leader_clone(
        ops in proptest::collection::vec(op(), 10..80),
    ) {
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let s = Scenario::start(&format!("prop-{case}"), 0);
        let mut config = test_replica_config();
        config.snapshot_every = 16;
        let replica = StandbyReplica::open(&s.fdir, s.proxy.addr(), config).unwrap();

        let mut checkpoints = 0u32;
        for op in &ops {
            match *op {
                Op::Register(id, frac) => {
                    let _ = s.leader.register_moving(vehicle(id, frac * 900.0));
                }
                Op::Update(id, t, frac) => {
                    let _ = s.leader.apply_update(ObjectId(id), &update(t, frac * 900.0));
                }
                Op::Remove(id) => {
                    let _ = s.leader.remove_moving(ObjectId(id));
                }
                Op::Disconnect => replica.repoint(s.proxy.addr()),
                Op::Compact => {
                    s.leader.snapshot_with_retention(2).unwrap();
                }
                Op::Checkpoint => {
                    checkpoints += 1;
                    let w = s.leader.wal().next_lsn();
                    let at_w = s.leader.database().with_read(|db| db.clone());
                    prop_assert!(
                        replica.wait_for_lsn(w, WAIT),
                        "case {}: checkpoint at W={} timed out: {}",
                        case, w, replica.stats()
                    );
                    // The leader is quiescent and the follower cannot run
                    // past the leader's log, so applied == W exactly.
                    prop_assert_eq!(replica.applied_lsn(), w);
                    replica.database().with_read(|db| assert_converged(&at_w, db));
                }
            }
        }

        // Always close with a checkpoint so every interleaving is judged.
        let w = s.leader.wal().next_lsn();
        let at_w = s.leader.database().with_read(|db| db.clone());
        prop_assert!(
            replica.wait_for_lsn(w, WAIT),
            "case {}: final checkpoint at W={} timed out: {}",
            case, w, replica.stats()
        );
        prop_assert_eq!(replica.applied_lsn(), w);
        replica.database().with_read(|db| assert_converged(&at_w, db));
        let _ = checkpoints;

        // The follower's log holds the leader's records at the leader's
        // LSNs: recovered on its own, it ends at W, in the leader's state.
        replica.shutdown();
        let recovered = modb_wal::recover(&s.fdir).unwrap();
        prop_assert_eq!(recovered.report.next_lsn, w);
        assert_converged(&at_w, &recovered.database);
        s.cleanup();
    }
}
