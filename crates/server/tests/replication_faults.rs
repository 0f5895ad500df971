//! Fault injection for the replication stream: a byte-level proxy sits
//! between leader and follower and truncates frames mid-byte, corrupts
//! CRCs, duplicates whole messages, stalls the stream, and drops the
//! connection at every protocol state. The invariant under every fault:
//! the follower either rejects cleanly and re-syncs or converges — it
//! **never** applies a torn record and never ends in a diverged state.
//!
//! The proxy and scenario plumbing live in
//! `common::replica_harness`, shared with the front-end and
//! follower-read fault suites.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::replica_harness::{wait_until, Fault, Scenario};
use common::{assert_converged, test_replica_config};
use modb_server::StandbyReplica;

#[test]
fn truncated_frames_at_every_offset_never_apply_torn_records() {
    let s = Scenario::start("cut", 5);
    // Offsets chosen to land in every protocol state: inside the first
    // frame header (1, 7), on the header boundary (8), inside the
    // bootstrap snapshot payload (9, 64, 300), and inside later Records
    // frames (1000, 3000). Each cut drops the connection with a partial
    // frame on the wire; the follower must discard the partial bytes,
    // reconnect, and converge without ever applying a torn record.
    for cut in [1usize, 7, 8, 9, 64, 300, 1000, 3000] {
        s.proxy.push(Fault::CutAfterBytes(cut));
    }
    s.proxy.push(Fault::None); // final clean session
    let replica = s.follower();
    s.churn(1..=60, 5);
    s.assert_converges(&replica);
    let stats = replica.stats();
    assert!(stats.connects >= 9, "every cut forced a reconnect: {stats}");
    s.finish(replica);
}

/// A flipped bit inside a frame: the outer CRC (or the per-record inner
/// CRC) must catch it, the session must end in a re-sync, and the
/// follower must converge on the retry — rejected cleanly, never
/// applied.
#[test]
fn corrupted_bytes_are_rejected_and_resynced() {
    let s = Scenario::start("corrupt", 5);
    // Corruption landing in the outer CRC field (4) and at several
    // depths of the bootstrap snapshot payload. (Offsets are chosen to
    // miss the 4-byte length prefix: a corrupted *length* doesn't fail
    // fast, it makes the reader wait for phantom bytes — a different
    // hazard, covered by the cut tests when the stream then dies.)
    for target in [4usize, 9, 64, 200] {
        s.proxy.push(Fault::CorruptByteAt(target));
    }
    s.proxy.push(Fault::None);
    let replica = s.follower();
    s.churn(1..=60, 5);
    s.assert_converges(&replica);
    let stats = replica.stats();
    assert!(
        stats.resyncs + stats.rejected_messages >= 1,
        "corruption must surface as a clean reject: {stats}"
    );
    s.finish(replica);
}

/// Every message delivered twice (frame-aligned). Duplicate `Records`
/// runs land below the applied watermark and are skipped idempotently;
/// a duplicate bootstrap snapshot re-installs the same state. The
/// follower converges with no double-applied update.
#[test]
fn duplicated_messages_are_absorbed_by_the_watermark() {
    let s = Scenario::start("dup", 5);
    s.proxy.push(Fault::DuplicateMessages);
    let replica = s.follower();
    s.churn(1..=60, 5);
    s.assert_converges(&replica);
    let stats = replica.stats();
    assert!(
        stats.records_skipped > 0 || stats.bootstraps > 1,
        "duplicates must have been delivered and absorbed: {stats}"
    );
    s.finish(replica);
}

/// Connection dropped at every protocol state, including before a
/// single byte flows (cut at 0: the follower's Hello gets no answer).
/// Reconnect-and-resume must hold the watermark monotonic throughout.
#[test]
fn disconnects_at_every_protocol_state_resume_incrementally() {
    let s = Scenario::start("drop", 5);
    s.proxy.push(Fault::CutAfterBytes(0)); // before the handshake answer
    s.proxy.push(Fault::None); // bootstrap succeeds
    let replica = s.follower();
    s.churn(1..=20, 5);
    s.assert_converges(&replica);
    let after_bootstrap = replica.applied_lsn();
    let bootstraps = replica.stats().bootstraps;

    // Now drop repeatedly mid-stream: each session forwards a little
    // further, then dies; the follower must resume from its watermark
    // (no re-bootstrap — its log position is still on the leader's
    // disk, pinned by the barrier while connected and by retention
    // while briefly between sessions).
    for cut in [200usize, 500, 900] {
        s.proxy.push(Fault::CutAfterBytes(cut));
    }
    s.proxy.push(Fault::None);
    // Leave the live clean session so the queued faults get their turn.
    replica.force_reconnect();
    s.churn(21..=80, 5);
    s.assert_converges(&replica);
    let stats = replica.stats();
    assert!(stats.applied_lsn > after_bootstrap);
    assert_eq!(
        stats.bootstraps, bootstraps,
        "mid-stream drops must resume, not re-bootstrap: {stats}"
    );
    s.finish(replica);
}

/// A live-but-stalled follower pins compaction: while the stream is
/// held, the leader churns and aggressively compacts (retention 1).
/// The ship barrier must keep every segment past the follower's
/// acknowledged watermark, so when the stall lifts the session simply
/// continues — no orphaning, no re-bootstrap. (Without
/// `compact_with_barrier` the leader would delete those segments; see
/// the regression test in `modb-wal`.)
#[test]
fn stalled_follower_is_not_orphaned_by_compaction() {
    let s = Scenario::start("stall", 5);
    let hold = Arc::new(AtomicBool::new(false));
    // Several identical stall faults: if anything drops the session, the
    // reconnect lands on a stalled stream too instead of a clean one.
    for _ in 0..4 {
        s.proxy.push(Fault::Stall {
            hold: Arc::clone(&hold),
        });
    }
    let replica = s.follower();
    // Catch up first so the follower's watermark is meaningful.
    s.churn(1..=10, 5);
    s.assert_converges(&replica);
    assert_eq!(replica.stats().bootstraps, 1);

    // Stall the stream and let in-flight chunks (and their acks) drain,
    // freezing the follower's watermark at W.
    hold.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(50));
    let w = replica.applied_lsn();

    // Churn enough to rotate many segments and compact with retention 1
    // several times while the follower is silent-but-live.
    for batch in 0..4u64 {
        s.churn(11 + batch * 20..=30 + batch * 20, 5);
        assert!(
            s.server.stats().followers >= 1,
            "stalled session must stay registered: {}",
            s.server.stats()
        );
        s.leader.snapshot_with_retention(1).unwrap();
    }
    // The barrier pinned the log at (or below) the follower's ack.
    let oldest = modb_wal::list_segments(s.leader.dir()).unwrap()[0].0;
    assert!(
        oldest <= w,
        "compaction deleted log the stalled follower still needs \
         (oldest surviving segment starts at {oldest}, follower acked {w})"
    );

    // Lift the stall: the same session drains the backlog.
    hold.store(false, Ordering::SeqCst);
    s.assert_converges(&replica);
    let stats = replica.stats();
    assert_eq!(stats.bootstraps, 1, "never re-bootstrapped: {stats}");
    s.finish(replica);
}

/// Every file of a directory, by name.
fn files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

/// A bootstrap snapshot of several messages, re-shipped to a follower
/// that already has state of its own, under cuts between and inside
/// the messages, a flipped byte, duplicated messages and two swapped. Until the last
/// frame validates, the follower keeps its previous database, watermark
/// and files (a half-received snapshot is dropped with its session); a
/// duplicated or reordered run is refused, never appended; and the
/// follower converges on the leader's snapshot, byte for byte.
#[test]
fn a_multi_message_bootstrap_leaves_the_previous_state_until_its_last_frame() {
    let s = Scenario::start("multi", 5);
    for id in 6..=2_000 {
        let arc = (id % 900) as f64;
        s.leader.register_moving(common::vehicle(id, arc)).unwrap();
    }
    s.leader.snapshot_with_retention(1).unwrap();
    let replica = s.follower();
    s.assert_converges(&replica);
    let watermark = replica.applied_lsn();
    replica.shutdown();

    // While the follower is away the leader moves on and compacts the
    // log it would resume from: its next session must re-bootstrap.
    s.churn(1..=40, 5);
    let snapshot = std::fs::read(s.leader.snapshot_with_retention(1).unwrap()).unwrap();
    let oldest = modb_wal::list_segments(&s.ldir).unwrap()[0].0;
    assert!(
        oldest > watermark,
        "log from {oldest}, follower at {watermark}"
    );

    // A stateless probe bootstraps from the same snapshot and shows
    // where the messages of that session fall: the snapshot's runs
    // (tag 9) open it.
    let seen = Arc::new(Mutex::new(Vec::new()));
    s.proxy.push(Fault::Record(Arc::clone(&seen)));
    let probe_dir = common::tmp("faults-multi-probe");
    let probe = StandbyReplica::open(&probe_dir, s.proxy.addr(), test_replica_config()).unwrap();
    s.assert_converges(&probe);
    assert_eq!(probe.shutdown().bootstraps, 1);
    std::fs::remove_dir_all(&probe_dir).unwrap();
    let seen = seen.lock().unwrap().clone();
    let runs = seen.iter().filter(|&&(tag, _)| tag == 9).count();
    assert!(runs >= 3, "{runs} snapshot runs");
    assert!(seen[..runs].iter().all(|&(tag, _)| tag == 9));
    let largest = seen.iter().map(|&(_, len)| len).max().unwrap();
    assert!(
        snapshot.len() >= 3 * largest,
        "a {}-byte snapshot, messages up to {largest} bytes",
        snapshot.len()
    );
    // Where each of the first runs ends in the session's byte stream.
    let ends: Vec<usize> = seen
        .iter()
        .scan(0, |at, &(_, len)| {
            *at += len;
            Some(*at)
        })
        .collect();

    let before = files(&s.fdir);
    let hold = Arc::new(AtomicBool::new(true));
    s.proxy.push(Fault::CutAfterBytes(ends[0])); // between runs 1 and 2
    s.proxy.push(Fault::CutAfterBytes((ends[0] + ends[1]) / 2)); // inside run 2
    s.proxy.push(Fault::CorruptByteAt(ends[1] + 64)); // inside run 3
    s.proxy.push(Fault::DuplicateMessages); // run 1 twice
    s.proxy.push(Fault::SwapMessages(1)); // run 3 before run 2
    s.proxy.push(Fault::Stall {
        hold: Arc::clone(&hold),
    });
    let replica = s.follower();
    let expected_before = replica.database().with_read(|db| db.clone());
    wait_until("the five faulty sessions", || replica.stats().connects >= 6);
    let stats = replica.stats();
    assert_eq!(
        (stats.applied_lsn, stats.bootstraps),
        (watermark, 0),
        "{stats}"
    );
    assert!(
        stats.resyncs >= 3 && stats.rejected_messages >= 2,
        "the flipped byte, the duplicated run and the reordered one: {stats}"
    );
    assert_eq!(files(&s.fdir), before, "the previous files are untouched");
    replica
        .database()
        .with_read(|db| assert_converged(&expected_before, db));

    // Let the last session through: the snapshot installs whole.
    hold.store(false, Ordering::SeqCst);
    s.assert_converges(&replica);
    let stats = replica.stats();
    assert_eq!(stats.bootstraps, 1, "{stats}");
    let installed: Vec<Vec<u8>> = files(&s.fdir)
        .into_iter()
        .filter(|(name, _)| name.ends_with(".snap"))
        .map(|(_, bytes)| bytes)
        .collect();
    assert_eq!(installed, [snapshot], "the leader's snapshot, once");
    s.finish(replica);
}

/// Snapshots the leader cannot ship whole are passed over for the next
/// one down, as recovery passes over them: one with a flipped byte (a
/// frame fails its CRC) and one cut at a block boundary (every frame
/// whole, but fewer records than its head promises). The follower
/// bootstraps from the older snapshot and catches up from there.
#[test]
fn a_damaged_newest_snapshot_ships_the_older_one() {
    let s = Scenario::start("ladder", 5);
    let older = std::fs::read(s.leader.snapshot_with_retention(3).unwrap()).unwrap();
    let mut damaged = Vec::new();
    for round in [1, 2] {
        s.churn(round..=round, 5);
        damaged.push(s.leader.snapshot_with_retention(3).unwrap());
    }
    let mut flipped = std::fs::read(&damaged[0]).unwrap();
    let n = flipped.len();
    flipped[n - 3] ^= 0x10;
    std::fs::write(&damaged[0], flipped).unwrap();
    let bytes = std::fs::read(&damaged[1]).unwrap();
    let (_, head) = modb_wal::split_frame(&bytes[20..]).unwrap().unwrap();
    std::fs::write(&damaged[1], &bytes[..20 + head]).unwrap();

    let replica = s.follower();
    s.assert_converges(&replica);
    let installed: Vec<Vec<u8>> = files(&s.fdir)
        .into_iter()
        .filter(|(name, _)| name.ends_with(".snap"))
        .map(|(_, bytes)| bytes)
        .collect();
    assert_eq!(installed, [older]);
    s.finish(replica);
}
