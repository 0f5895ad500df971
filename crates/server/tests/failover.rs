//! Leader failover: follower promotion and divergence refusal
//! (DESIGN.md §16), over real sockets. The operator promotes the standby
//! with the highest applied LSN and repoints the others at it.
//!
//! The invariants under test:
//!
//! - a promoted standby becomes a full acked-write leader whose state is
//!   exactly the applied prefix it acknowledged, and reopens sealed;
//! - kill → promote → repoint on a chain loses no acked write, and the
//!   survivor resumes from its watermark on the promotee (the one
//!   real-socket run of the whole story);
//! - a revived old leader whose log tail passed the promotion point is
//!   refused with a typed `Diverged` answer and its local log is left
//!   intact — never silently truncated or overwritten; nor can it be
//!   promoted itself;
//! - the leadership history lives in the log and nowhere else: a data
//!   directory holds segments and snapshots only, a snapshot's head
//!   keeps every epoch whose seal record compaction deleted, and a torn
//!   seal record means the promotion never happened.
//!
//! The same chain story with the dying leader's last session severed
//! mid-byte, a fresher survivor repointed at a staler promotee, and a
//! writer's session token read across the swap run on the crate's
//! deterministic cluster driver, `replication::sim`.

mod common;

use std::collections::BTreeMap;
use std::path::Path;

use common::replica_harness::{wait_until, Scenario, WAIT};
use common::{
    assert_converged, fresh_db, test_replica_config, test_replication_config, test_wal_options,
    tmp, update, vehicle,
};
use modb_core::ObjectId;
use modb_server::{DurableDatabase, ReplicaPhase, StandbyReplica};

/// The history has no file of its own: a data directory holds log
/// segments and snapshots, nothing else.
fn assert_log_files_only(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let log = name.starts_with("wal-") && name.ends_with(".log");
        let snap = name.starts_with("snap-") && name.ends_with(".snap");
        assert!(log || snap, "{} holds {name}", dir.display());
    }
}

/// Every file of a data directory, by name, byte for byte.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

/// A leader on epoch 1 whose last shipped record is `shipped`, with an
/// unshipped tail past it up to `old_frontier`; and the follower that
/// applied exactly the shipped prefix.
struct Fork {
    ldir: std::path::PathBuf,
    fdir: std::path::PathBuf,
    follower: StandbyReplica,
    shipped: u64,
    old_frontier: u64,
}

/// Builds a [`Fork`]: the leader ships three rounds of updates, then
/// stops shipping and logs `tail` more updates nobody else has.
fn fork(name: &str, tail: u64) -> Fork {
    let ldir = tmp(&format!("{name}-leader"));
    let fdir = tmp(&format!("{name}-follower"));
    let leader = DurableDatabase::create(&ldir, fresh_db(), test_wal_options()).unwrap();
    for i in 1..=4u64 {
        leader.register_moving(vehicle(i, 10.0 * i as f64)).unwrap();
    }
    let server = leader
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let follower = StandbyReplica::open(
        &fdir,
        server.local_addr().to_string(),
        test_replica_config(),
    )
    .unwrap();
    for round in 1..=3u64 {
        for i in 1..=4u64 {
            leader
                .apply_update(
                    ObjectId(i),
                    &update(round as f64, 10.0 * i as f64 + round as f64),
                )
                .unwrap();
        }
    }
    let shipped = leader.wal().next_lsn();
    assert!(
        follower.wait_for_lsn(shipped, WAIT),
        "follower never caught up"
    );
    server.shutdown();
    for n in 0..tail {
        leader
            .apply_update(ObjectId(1 + n % 4), &update(100.0 + n as f64, 500.0))
            .unwrap();
    }
    let old_frontier = leader.wal().next_lsn();
    Fork {
        ldir,
        fdir,
        follower,
        shipped,
        old_frontier,
    }
}

/// The basic promotion contract: the promotee seals a new epoch, keeps
/// every acked write it applied, and accepts (and acks) new writes.
#[test]
fn promotion_seals_an_epoch_and_accepts_acked_writes() {
    let s = Scenario::start("promote-basic", 4);
    let replica = s.follower();
    s.churn(1..=3, 4);
    s.assert_converges(&replica);
    let frontier = s.leader.wal().next_lsn();
    let expected = s.leader.database().with_read(|db| db.clone());

    // The leader dies: proxy and server gone, handle dropped.
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

    assert_eq!(replica.epoch(), 1, "no promotion seen yet");
    let promoted = replica.promote().unwrap();
    assert_eq!(promoted.epoch(), 2, "promotion opened epoch 2");
    assert_eq!(
        promoted.wal().next_lsn(),
        frontier + 1,
        "exactly one seal record on top of the applied prefix"
    );
    promoted
        .database()
        .with_read(|db| assert_converged(&expected, db));

    // The promotee is a real leader now: acked ingest lands in its log.
    promoted
        .apply_update(ObjectId(1), &update(10.0, 15.0))
        .unwrap();
    assert_eq!(promoted.wal().next_lsn(), frontier + 2);

    // And it is durable: reopen from disk sees the sealed epoch and the
    // post-promotion write.
    drop(promoted);
    let (reopened, report) = DurableDatabase::open(&fdir, test_wal_options()).unwrap();
    assert_eq!(reopened.epoch(), 2);
    assert_eq!(report.next_lsn, frontier + 2);
    assert_eq!(reopened.wal().next_lsn(), frontier + 2);
    drop(reopened);
    for dir in [&ldir, &fdir] {
        assert_log_files_only(dir);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// A standby that never completed a bootstrap has no state to lead from:
/// promotion is refused, typed.
#[test]
fn promoting_an_empty_replica_is_refused() {
    let dir = tmp("promote-empty");
    // Nothing listens at the upstream; the replica stays in Connecting.
    let replica = StandbyReplica::open(&dir, "127.0.0.1:1", test_replica_config()).unwrap();
    match replica.promote() {
        Err(modb_wal::WalError::NoSnapshot(_)) => {}
        other => panic!("expected NoSnapshot, got {other:?}"),
    }
    assert_log_files_only(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full story over real sockets: the leader killed, the freshest of
/// two chained followers promoted, the (deliberately frozen, staler)
/// other repointed at the promotee, and the chain converges on the new
/// epoch with every acked write intact. The same story with the
/// leader's last session to f1 cut mid-frame, stepped deterministically
/// in one thread, is `replication::sim`'s test of this name in the
/// crate.
#[test]
fn failover_promotes_freshest_and_repoints_survivor_with_zero_acked_loss() {
    let s = Scenario::start("failover-chain", 4);
    let f1 = s.follower();
    let f1_ship = f1
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let f1_ship_addr = f1_ship.local_addr().to_string();
    let f2dir = tmp("failover-chain-f2");
    let f2 = StandbyReplica::open(&f2dir, &f1_ship_addr, test_replica_config()).unwrap();

    s.churn(1..=4, 4);
    let acked = s.leader.wal().next_lsn();
    assert!(f1.wait_for_lsn(acked, WAIT), "f1 never converged");
    assert!(f2.wait_for_lsn(acked, WAIT), "f2 never converged");

    // Freeze f2 behind a dead upstream so the two standbys have a strict
    // freshness order, then keep writing: f1 advances alone.
    f2.repoint("127.0.0.1:1");
    wait_until("f2 to drop its session", || {
        f2.phase() == ReplicaPhase::Connecting
    });
    s.churn(5..=6, 4);
    let frontier = s.leader.wal().next_lsn();
    assert!(f1.wait_for_lsn(frontier, WAIT), "{}", f1.stats());
    let expected = s.leader.database().with_read(|db| db.clone());
    // The leader dies.
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

    // The operator's rule: promote the highest applied LSN, repoint the
    // rest at its re-ship address.
    assert!(
        f1.applied_lsn() > f2.applied_lsn(),
        "f1 ({}) must be fresher than f2 ({})",
        f1.applied_lsn(),
        f2.applied_lsn()
    );
    let promoted = f1.promote().unwrap();
    assert_eq!(promoted.epoch(), 2);
    assert_eq!(
        promoted.wal().next_lsn(),
        frontier + 1,
        "every acked write plus the seal"
    );
    promoted
        .database()
        .with_read(|db| assert_converged(&expected, db));
    f2.repoint(&f1_ship_addr);

    // New-epoch writes flow: the promotee acks them, the repointed
    // survivor streams them (seal record included) from its applied
    // watermark — no re-bootstrap.
    let bootstraps_before = f2.stats().bootstraps;
    for round in 7..=9u64 {
        for i in 1..=4u64 {
            promoted
                .apply_update(
                    ObjectId(i),
                    &update(round as f64, 10.0 * i as f64 + round as f64),
                )
                .unwrap();
        }
    }
    let frontier = promoted.wal().next_lsn();
    assert!(
        f2.wait_for_lsn(frontier, WAIT),
        "survivor never converged on the promotee: {}",
        f2.stats()
    );
    assert_eq!(f2.epoch(), 2, "survivor observed the sealed epoch");
    assert_eq!(
        f2.stats().bootstraps,
        bootstraps_before,
        "repoint resumed incrementally, no re-bootstrap"
    );
    let expected = promoted.database().with_read(|db| db.clone());
    f2.database()
        .with_read(|db| assert_converged(&expected, db));

    f2.shutdown();
    f1_ship.shutdown();
    drop(promoted);
    for dir in [&ldir, &fdir, &f2dir] {
        assert_log_files_only(dir);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// The divergence guard: a revived old leader whose log ran past the
/// promotion point is refused with a typed answer — phase `Diverged`,
/// the refusal's coordinates exposed — and its local log survives
/// untouched for forensics.
#[test]
fn revived_divergent_leader_is_refused_and_never_truncated() {
    // The doomed leader keeps acking writes after shipping stopped: its
    // log grows a tail nobody else has.
    let Fork {
        ldir,
        fdir,
        follower: f1,
        shipped,
        old_frontier,
    } = fork("diverge", 4);
    assert!(old_frontier > shipped);

    // Promote the follower (its re-ship server stays up across the
    // switch) and seal epoch 2 at the shipped watermark.
    let f1_ship = f1
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let f1_ship_addr = f1_ship.local_addr().to_string();
    let promoted = f1.promote().unwrap();
    assert_eq!(promoted.epoch(), 2);

    // The old leader comes back as a would-be follower of the promotee.
    let old = StandbyReplica::open(&ldir, &f1_ship_addr, test_replica_config()).unwrap();
    assert_eq!(old.applied_lsn(), old_frontier, "local recovery first");
    wait_until("typed divergence refusal", || {
        old.phase() == ReplicaPhase::Diverged
    });
    let info = old.divergence().expect("refusal coordinates recorded");
    assert_eq!(info.leader_epoch, 2);
    assert_eq!(info.boundary_lsn, shipped, "fork point = promotion point");
    assert_eq!(info.local_next_lsn, old_frontier);
    // Refusal is terminal, not destructive: watermark and log intact.
    assert_eq!(old.applied_lsn(), old_frontier);
    old.shutdown();
    let recovered = modb_wal::recover(&ldir).unwrap();
    assert_eq!(
        recovered.report.next_lsn, old_frontier,
        "the divergent tail is still on disk, byte for byte"
    );

    f1_ship.shutdown();
    drop(promoted);
    for dir in [&ldir, &fdir] {
        assert_log_files_only(dir);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// A diverged replica cannot lead. Sealing `current() + 1` on the
/// revived old leader's own history would be epoch 2 on a second
/// timeline — the number its successor already holds, which the epoch
/// check takes for the same history. `promote` refuses, naming the
/// refusing epoch and the boundary, and writes nothing.
#[test]
fn promoting_a_diverged_replica_is_refused_and_writes_nothing() {
    let Fork {
        ldir,
        fdir,
        follower: f1,
        shipped,
        old_frontier,
    } = fork("diverged-promote", 4);
    let f1_ship = f1
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let promoted = f1.promote().unwrap();
    let old = StandbyReplica::open(
        &ldir,
        f1_ship.local_addr().to_string(),
        test_replica_config(),
    )
    .unwrap();
    wait_until("typed divergence refusal", || {
        old.phase() == ReplicaPhase::Diverged
    });
    let before = dir_bytes(&ldir);

    let err = match old.promote() {
        Ok(_) => panic!("a diverged replica was promoted"),
        Err(e) => e.to_string(),
    };
    assert!(
        err.contains("epoch 2") && err.contains(&format!("lsn {shipped}")),
        "{err}"
    );
    assert_eq!(dir_bytes(&ldir), before, "the refusal wrote to the log");
    let recovered = modb_wal::recover(&ldir).unwrap();
    assert_eq!(
        (recovered.report.next_lsn, recovered.epochs.current()),
        (old_frontier, 1)
    );

    f1_ship.shutdown();
    drop(promoted);
    for dir in [&ldir, &fdir] {
        assert_log_files_only(dir);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Compaction does not lose a seal: once the segment holding the
/// `LeaderEpoch` record is deleted, the snapshot past it is the only
/// place epoch 2's start is written — in its head. Reopening still
/// reports epoch 2, and a follower bootstrapped from that snapshot holds
/// the boundary: a revived epoch-1 peer past it is refused `Diverged`.
#[test]
fn compaction_past_the_seal_keeps_the_epoch_in_the_snapshot_head() {
    let Fork {
        ldir,
        fdir,
        follower,
        shipped,
        old_frontier,
    } = fork("compact-seal", 4);
    let promoted = follower.promote().unwrap();
    assert_eq!(promoted.epoch(), 2);
    // Enough new-epoch writes to rotate well past the seal's segment,
    // then a snapshot and a compaction down to it.
    for round in 10..40u64 {
        for i in 1..=4u64 {
            promoted
                .apply_update(ObjectId(i), &update(round as f64, 10.0 * i as f64))
                .unwrap();
        }
    }
    promoted.snapshot_with_retention(1).unwrap();
    let segments = modb_wal::list_segments(&fdir).unwrap();
    assert!(
        segments[0].0 > shipped,
        "the seal at lsn {shipped} must be compacted away: log from {}",
        segments[0].0
    );
    let frontier = promoted.wal().next_lsn();
    drop(promoted);
    assert_log_files_only(&fdir);

    let (reopened, report) = DurableDatabase::open(&fdir, test_wal_options()).unwrap();
    assert_eq!(
        reopened.epoch(),
        2,
        "the history came from the snapshot head"
    );
    assert_eq!(report.next_lsn, frontier);

    // A follower bootstrapped from the reopened leader (the only snapshot
    // is past the seal) learns epoch 2 from the head, and re-ships.
    let server = reopened
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let f3dir = tmp("compact-seal-f3");
    let f3 = StandbyReplica::open(
        &f3dir,
        server.local_addr().to_string(),
        test_replica_config(),
    )
    .unwrap();
    assert!(f3.wait_for_lsn(frontier, WAIT), "f3 never caught up");
    assert_eq!((f3.stats().bootstraps, f3.epoch()), (1, 2));
    let f3_ship = f3
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();

    // The revived epoch-1 leader, past the boundary, follows f3.
    let old = StandbyReplica::open(
        &ldir,
        f3_ship.local_addr().to_string(),
        test_replica_config(),
    )
    .unwrap();
    wait_until("typed divergence refusal", || {
        old.phase() == ReplicaPhase::Diverged
    });
    let info = old.divergence().expect("refusal coordinates recorded");
    assert_eq!(
        (info.leader_epoch, info.boundary_lsn, info.local_next_lsn),
        (2, shipped, old_frontier)
    );
    old.shutdown();
    f3_ship.shutdown();
    f3.shutdown();
    server.shutdown();
    drop(reopened);
    for dir in [&ldir, &fdir, &f3dir] {
        assert_log_files_only(dir);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// The seal record's sync is the promotion's commit point. Tear it — cut
/// the promotee's last frame, which is the seal — and the node reopens
/// on epoch 1 at the pre-seal frontier, as if never promoted: the old
/// leader, on epoch 1 at that same frontier, resumes from it cleanly.
#[test]
fn a_torn_seal_reopens_on_the_old_epoch() {
    let Fork {
        ldir,
        fdir,
        follower,
        shipped,
        old_frontier,
    } = fork("torn-seal", 0);
    assert_eq!(old_frontier, shipped);
    let promoted = follower.promote().unwrap();
    assert_eq!(
        (promoted.epoch(), promoted.wal().next_lsn()),
        (2, shipped + 1)
    );
    drop(promoted);

    // Crash mid-append: the seal's frame loses its last byte.
    let (_, last) = modb_wal::list_segments(&fdir).unwrap().pop().unwrap();
    let bytes = std::fs::read(&last).unwrap();
    let scan = modb_wal::scan_segment(&last).unwrap();
    assert_eq!(
        scan.records.last(),
        Some(&modb_wal::WalRecord::LeaderEpoch { epoch: 2 })
    );
    std::fs::write(&last, &bytes[..bytes.len() - 1]).unwrap();

    let (reopened, report) = DurableDatabase::open(&fdir, test_wal_options()).unwrap();
    assert!(report.torn.is_some(), "{report}");
    assert_eq!((reopened.epoch(), report.next_lsn), (1, shipped));

    // The epoch-1 peer at that frontier is clean: it resumes, no
    // refusal, no bootstrap, and follows a new write.
    let server = reopened
        .serve_replication("127.0.0.1:0", test_replication_config())
        .unwrap();
    let old = StandbyReplica::open(
        &ldir,
        server.local_addr().to_string(),
        test_replica_config(),
    )
    .unwrap();
    reopened
        .apply_update(ObjectId(1), &update(50.0, 20.0))
        .unwrap();
    assert!(old.wait_for_lsn(shipped + 1, WAIT), "{}", old.stats());
    let stats = old.shutdown();
    assert_eq!(
        (stats.bootstraps, stats.rejected_messages),
        (0, 0),
        "{stats}"
    );
    assert_ne!(stats.phase, ReplicaPhase::Diverged);
    server.shutdown();
    drop(reopened);
    for dir in [&ldir, &fdir] {
        assert_log_files_only(dir);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
