//! Fault injection for the replication stream over real sockets: a
//! byte-level proxy sits between leader and follower and drops the
//! connection at every protocol state, and a leader whose newest
//! snapshots are damaged ships an older one. The
//! invariant under every fault: the follower either rejects cleanly and
//! re-syncs or converges — it **never** applies a torn record and never
//! ends in a diverged state.
//!
//! The byte-level schedules that need no socket — frames cut at every
//! offset, flipped bytes, duplicated messages, a stalled follower pinned
//! against compaction, and a multi-message bootstrap cut, corrupted,
//! duplicated, reordered and stalled — run on
//! the deterministic cluster driver (`replication::sim` in the crate),
//! one thread on in-memory links. The proxy and scenario plumbing live
//! in `common::replica_harness`, shared with the front-end and
//! follower-read fault suites.

mod common;

use std::collections::BTreeMap;

use common::replica_harness::{Fault, Scenario};

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
    replica.repoint(s.proxy.addr());
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
