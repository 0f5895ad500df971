//! W7: the block log format and group commit, measured.
//!
//! Three questions, three sections:
//!
//! 1. **Bytes per update** — one striped ingest run on the log format
//!    (`v3-lz`: delta-coded blocks, LZ where it pays), measured live,
//!    beside two *accountings* of the very blocks that run wrote: what
//!    they would weigh with one CRC frame per record (`v1`, the retired
//!    layout, framed as today) and as delta-coded blocks with the LZ
//!    stage off (`v3-plain`). The paper prices every update message;
//!    this prices what each one costs on disk.
//! 2. **Fsync collapse** — concurrent producers on the *acknowledged*
//!    ingest path, every envelope waiting for durability through the
//!    shared group-commit ticket. `tickets / commits` is the number of
//!    would-be fsyncs each real fsync absorbed.
//! 3. **The wire** — the same log shipped to a follower. Compressed
//!    blocks travel verbatim (`Blocks`), so wire bytes are compared
//!    against an accounting of what shipping the decoded records one
//!    frame each (the retired `Records` message) would have sent, and a
//!    live [`modb_server::StandbyReplica`] is timed to convergence.

use std::time::Instant;

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_server::{
    DurableDatabase, IngestService, ReplicaConfig, ReplicationConfig, SharedDatabase,
    StandbyReplica, UpdateEnvelope,
};
use modb_wal::segment::SEGMENT_HEADER_BYTES;
use modb_wal::{
    decode_block, decode_block_frames, encode_block, frame_len, split_frame, FsyncPolicy,
    SegmentTailer, SharedWal, WalOptions, WalRecord, WalWriter,
};

use crate::experiments::indexing::build_city_db;
use crate::report::{fmt, render_table};

/// One log encoding's row (section 1). Only `v3-lz` is a live run; `v1`
/// and `v3-plain` are size accountings of that run's blocks, so their
/// timing and fsync fields are 0 — nothing was written, nothing timed.
#[derive(Debug, Clone)]
pub struct WalFormatRow {
    /// Format label: `v1`, `v3-plain`, or `v3-lz`.
    pub label: &'static str,
    /// Updates sent and applied.
    pub updates: usize,
    /// Wall-clock seconds for the full run (live row only).
    pub seconds: f64,
    /// Updates per second (live row only).
    pub per_sec: f64,
    /// Log footprint (all segments, headers included): on disk for the
    /// live row, summed from re-encoded blocks for an accounted one.
    pub log_bytes: u64,
    /// `log_bytes / updates`.
    pub bytes_per_update: f64,
    /// Segment files the live run produced.
    pub segments: usize,
    /// Fsyncs issued under policy `EveryN(256)` (live row only).
    pub fsyncs: u64,
}

/// The group-commit measurement (section 2).
#[derive(Debug, Clone)]
pub struct GroupCommitRow {
    /// Acked updates applied (each one waited for durability).
    pub updates: usize,
    /// Concurrent producers issuing them.
    pub producers: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Acked updates per second.
    pub per_sec: f64,
    /// Commit tickets taken (durability waits not already covered on
    /// arrival).
    pub tickets: u64,
    /// Fsyncs issued for them.
    pub commits: u64,
    /// `tickets / commits`: mean fsyncs collapsed into one.
    pub mean_batch: f64,
    /// Largest single collapse observed.
    pub max_batch: u64,
    /// Total fsyncs on the log (policy `Never`: the group commits plus
    /// the shutdown sync).
    pub fsyncs: u64,
}

/// The wire measurement (section 3).
#[derive(Debug, Clone)]
pub struct WireRow {
    /// Records in the shipped log (registrations + updates).
    pub records: u64,
    /// Bytes a session ships (verbatim segment frames).
    pub blocks_bytes: u64,
    /// Bytes the same records would take shipped decoded, one CRC frame
    /// each (an accounting).
    pub records_bytes: u64,
    /// `records_bytes / blocks_bytes`.
    pub wire_ratio: f64,
    /// Seconds for a live standby to converge to the leader frontier.
    pub converge_seconds: f64,
    /// Records the standby applied (equals `records` on convergence).
    pub applied: u64,
}

/// Everything W7 measured, one run.
#[derive(Debug, Clone)]
pub struct WalThroughputReport {
    /// W7a rows, one per log encoding.
    pub formats: Vec<WalFormatRow>,
    /// W7b: the group-commit collapse row.
    pub group_commit: GroupCommitRow,
    /// W7c: the replication wire-bytes row.
    pub wire: WireRow,
}

impl WalThroughputReport {
    /// `v1 bytes/update ÷ v3-lz bytes/update` — the headline reduction.
    pub fn disk_ratio(&self) -> f64 {
        let per = |label: &str| {
            self.formats
                .iter()
                .find(|r| r.label == label)
                .map(|r| r.bytes_per_update)
                .unwrap_or(f64::NAN)
        };
        per("v1") / per("v3-lz")
    }
}

fn wal_options(fsync: FsyncPolicy) -> WalOptions {
    WalOptions {
        fsync,
        ..WalOptions::default()
    }
}

/// What `records` weigh with one CRC frame (a length varint and a CRC)
/// around each record's payload.
fn framed_singly_bytes(records: &[WalRecord]) -> u64 {
    let mut payload = Vec::new();
    records
        .iter()
        .map(|rec| {
            payload.clear();
            rec.encode_payload(&mut payload);
            frame_len(payload.len()) as u64
        })
        .sum()
}

/// The W1 drive: `rounds` monotone updates per object from `producers`
/// threads, round-robined over the fleet, through `service` to its
/// shutdown.
fn drive(service: IngestService, n_objects: usize, rounds: usize, producers: usize) -> f64 {
    let handle = service.handle();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for p in 0..producers {
            let handle = handle.clone();
            s.spawn(move || {
                for round in 1..=rounds {
                    for i in (p..n_objects).step_by(producers) {
                        handle
                            .send(UpdateEnvelope {
                                id: ObjectId(i as u64),
                                msg: UpdateMessage::basic(
                                    round as f64 * 0.01,
                                    UpdatePosition::Arc(0.5),
                                    0.7,
                                ),
                            })
                            .expect("service alive");
                    }
                }
            });
        }
    });
    drop(handle);
    let stats = service.shutdown();
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(stats.wal_errors, 0, "log writes must succeed");
    assert_eq!(stats.accepted, rounds * n_objects, "all applied");
    seconds
}

fn log_footprint(dir: &std::path::Path) -> (u64, usize) {
    let segments = modb_wal::list_segments(dir).expect("listable");
    let bytes = segments
        .iter()
        .map(|(_, p)| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    (bytes, segments.len())
}

/// A fresh directory per call: sections run concurrently inside one
/// process under `cargo test`, so the process id alone does not keep two
/// runs of a section out of each other's logs.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("modb-exp-w7-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Section 1: one live run on the log format, then the two accountings
/// over the blocks it wrote.
pub fn run_format_comparison(n_objects: usize, rounds: usize, workers: usize) -> Vec<WalFormatRow> {
    let db = SharedDatabase::new(build_city_db(42, n_objects, 20));
    let dir = scratch_dir("formats");
    let writer =
        WalWriter::create(&dir, wal_options(FsyncPolicy::EveryN(256))).expect("fresh log dir");
    let wal = SharedWal::new(writer);
    let service = IngestService::with_wal(db, wal.clone(), workers);
    let seconds = drive(service, n_objects, rounds, 4);
    let (log_bytes, segments) = log_footprint(&dir);
    let (_, fsyncs) = wal.io_counters();
    let updates = n_objects * rounds;

    // Walk the frames of the cleanly shut log, so each block is
    // re-encoded with the batch boundaries the run chose.
    let headers = segments as u64 * SEGMENT_HEADER_BYTES;
    let (mut per_record_bytes, mut plain_bytes) = (headers, headers);
    let mut payload = Vec::new();
    for (_, path) in modb_wal::list_segments(&dir).expect("listable") {
        let bytes = std::fs::read(path).expect("readable segment");
        let mut body = &bytes[SEGMENT_HEADER_BYTES as usize..];
        while let Some((frame, len)) = split_frame(body).expect("clean log") {
            let block = decode_block(frame).expect("clean log");
            per_record_bytes += framed_singly_bytes(&block);
            payload.clear();
            encode_block(&block, false, &mut payload);
            plain_bytes += frame_len(payload.len()) as u64;
            body = &body[len..];
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let accounted = |label, log_bytes: u64| WalFormatRow {
        label,
        updates,
        seconds: 0.0,
        per_sec: 0.0,
        log_bytes,
        bytes_per_update: log_bytes as f64 / updates as f64,
        segments,
        fsyncs: 0,
    };
    vec![
        accounted("v1", per_record_bytes),
        accounted("v3-plain", plain_bytes),
        WalFormatRow {
            label: "v3-lz",
            updates,
            seconds,
            per_sec: updates as f64 / seconds,
            log_bytes,
            bytes_per_update: log_bytes as f64 / updates as f64,
            segments,
            fsyncs,
        },
    ]
}

/// Section 2: concurrent acked producers through the group committer.
/// The policy is `Never`, so every fsync on the log is one a waiting
/// producer decided to pay — `tickets / commits` is the collapse factor.
pub fn run_group_commit(
    n_objects: usize,
    rounds: usize,
    producers: usize,
    workers: usize,
) -> GroupCommitRow {
    let db = SharedDatabase::new(build_city_db(42, n_objects, 20));
    let dir = scratch_dir("group");
    let writer = WalWriter::create(&dir, wal_options(FsyncPolicy::Never)).expect("fresh log dir");
    let wal = SharedWal::new(writer);
    let service = IngestService::with_wal(db, wal.clone(), workers);
    let handle = service.handle();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for p in 0..producers {
            let handle = handle.clone();
            s.spawn(move || {
                for round in 1..=rounds {
                    for i in (p..n_objects).step_by(producers) {
                        let rx = handle
                            .send_acked(UpdateEnvelope {
                                id: ObjectId(i as u64),
                                msg: UpdateMessage::basic(
                                    round as f64 * 0.01,
                                    UpdatePosition::Arc(0.5),
                                    0.7,
                                ),
                            })
                            .expect("service alive");
                        let outcome = rx.recv().expect("acked before shutdown");
                        assert!(outcome.lsn > 0, "durable lsn token");
                    }
                }
            });
        }
    });
    let seconds = t0.elapsed().as_secs_f64();
    let gc = service
        .group_commit_stats()
        .expect("wal-backed service has a commit point");
    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.wal_errors, 0, "log writes must succeed");
    let (_, fsyncs) = wal.io_counters();
    let updates = n_objects * rounds;
    let _ = std::fs::remove_dir_all(&dir);
    GroupCommitRow {
        updates,
        producers,
        seconds,
        per_sec: updates as f64 / seconds,
        tickets: gc.tickets,
        commits: gc.commits,
        mean_batch: gc.tickets as f64 / gc.commits.max(1) as f64,
        max_batch: gc.max_batch,
        fsyncs,
    }
}

/// Section 3: ship the log. Wire bytes are measured offline with the
/// same [`SegmentTailer`] the leader uses (and the one-frame-per-record
/// alternative accounted from its output), then a live standby follows
/// the leader to convergence.
pub fn run_wire_comparison(n_objects: usize, rounds: usize, workers: usize) -> WireRow {
    let leader_dir = scratch_dir("wire-leader");
    let follower_dir = scratch_dir("wire-follower");
    let durable = DurableDatabase::create(
        &leader_dir,
        build_city_db(42, n_objects, 20),
        wal_options(FsyncPolicy::EveryN(256)),
    )
    .expect("fresh leader dir");
    let service = durable.ingest_service(workers, 0);
    drive(service, n_objects, rounds, 4);
    let frontier = durable.wal().next_lsn();

    // Offline: what the ship path puts on the wire for this log, and
    // what its records would weigh decoded and framed one by one.
    let mut blocks_bytes = 0u64;
    let mut records_bytes = 0u64;
    let mut records = 0u64;
    let mut tailer = SegmentTailer::new(&leader_dir, 0);
    while let Some(chunk) = tailer.poll_blocks(4_096).expect("static log") {
        blocks_bytes += chunk.frames.len() as u64;
        records_bytes += framed_singly_bytes(&decode_block_frames(&chunk.frames).0);
        records += chunk.records;
        if chunk.end_lsn() >= frontier {
            break;
        }
    }

    // Live: a standby bootstraps and catches up to the frontier.
    let server = durable
        .serve_replication("127.0.0.1:0", ReplicationConfig::default())
        .expect("bind");
    let t0 = Instant::now();
    let replica = StandbyReplica::open(
        &follower_dir,
        server.local_addr().to_string(),
        ReplicaConfig {
            wal: wal_options(FsyncPolicy::Never),
            ..ReplicaConfig::default()
        },
    )
    .expect("standby opens");
    assert!(
        replica.wait_for_lsn(frontier, std::time::Duration::from_secs(60)),
        "standby must converge"
    );
    let converge_seconds = t0.elapsed().as_secs_f64();
    let applied = replica.applied_lsn();
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
    WireRow {
        records,
        blocks_bytes,
        records_bytes,
        wire_ratio: records_bytes as f64 / blocks_bytes.max(1) as f64,
        converge_seconds,
        applied,
    }
}

/// Runs all three sections.
pub fn run_wal_throughput(
    n_objects: usize,
    rounds: usize,
    workers: usize,
    producers: usize,
) -> WalThroughputReport {
    WalThroughputReport {
        formats: run_format_comparison(n_objects, rounds, workers),
        group_commit: run_group_commit(n_objects, rounds, producers, workers),
        wire: run_wire_comparison(n_objects, rounds, workers),
    }
}

/// Renders the W7 report tables.
pub fn wal_throughput_tables(report: &WalThroughputReport) -> String {
    let mut out = render_table(
        "W7a: log bytes per update by encoding (v3-lz measured live, fsync every 256; \
         v1 and v3-plain accounted from its blocks)",
        &[
            "format",
            "updates",
            "seconds",
            "updates/s",
            "log KiB",
            "bytes/update",
            "segments",
            "fsyncs",
        ],
        &report
            .formats
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    r.updates.to_string(),
                    fmt(r.seconds),
                    fmt(r.per_sec),
                    fmt(r.log_bytes as f64 / 1024.0),
                    fmt(r.bytes_per_update),
                    r.segments.to_string(),
                    r.fsyncs.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    out.push('\n');
    let g = &report.group_commit;
    out.push_str(&render_table(
        "W7b: group commit under concurrent acked ingest (fsync policy Never)",
        &[
            "updates",
            "producers",
            "seconds",
            "acked/s",
            "tickets",
            "commits",
            "mean batch",
            "max batch",
            "fsyncs",
        ],
        &[vec![
            g.updates.to_string(),
            g.producers.to_string(),
            fmt(g.seconds),
            fmt(g.per_sec),
            g.tickets.to_string(),
            g.commits.to_string(),
            fmt(g.mean_batch),
            g.max_batch.to_string(),
            g.fsyncs.to_string(),
        ]],
    ));
    out.push('\n');
    let w = &report.wire;
    out.push_str(&render_table(
        "W7c: replication wire bytes, Blocks vs records framed singly (accounted), \
         plus live convergence",
        &[
            "records",
            "blocks KiB",
            "records KiB",
            "wire ratio",
            "converge s",
            "applied",
        ],
        &[vec![
            w.records.to_string(),
            fmt(w.blocks_bytes as f64 / 1024.0),
            fmt(w.records_bytes as f64 / 1024.0),
            fmt(w.wire_ratio),
            fmt(w.converge_seconds),
            w.applied.to_string(),
        ]],
    ));
    out.push_str(&format!(
        "\ndisk bytes/update reduction, v1 over v3-lz: {:.2}x\n",
        report.disk_ratio()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_rank_as_designed() {
        let rows = run_format_comparison(100, 8, 2);
        assert_eq!(rows.len(), 3);
        let per = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap()
                .bytes_per_update
        };
        // Delta coding alone shrinks the log; LZ shrinks it further, and
        // the combination clears the 2x acceptance bar even at this size.
        assert!(per("v3-plain") < per("v1"), "{rows:?}");
        assert!(per("v3-lz") < per("v3-plain"), "{rows:?}");
        assert!(per("v1") / per("v3-lz") >= 2.0, "{rows:?}");
        for r in &rows {
            assert!(r.log_bytes > 0 && r.segments >= 1, "{r:?}");
            // Only the live row carries a throughput.
            assert_eq!(r.per_sec > 0.0, r.label == "v3-lz", "{r:?}");
        }
    }

    #[test]
    fn group_commit_collapses_fsyncs() {
        let row = run_group_commit(64, 4, 8, 4);
        assert_eq!(row.updates, 256);
        assert!(row.tickets >= 1, "{row:?}");
        assert!(row.commits <= row.tickets, "{row:?}");
        // Policy is Never, so steady-state fsyncs are all group commits;
        // shutdown adds its one final wal.sync(), after the stats
        // snapshot.
        assert_eq!(row.fsyncs, row.commits + 1, "{row:?}");
    }

    #[test]
    fn wire_ships_fewer_bytes_than_records_and_converges() {
        let row = run_wire_comparison(100, 8, 2);
        assert_eq!(row.applied, row.records, "standby converged");
        assert!(
            row.blocks_bytes * 2 < row.records_bytes,
            "compressed blocks must at least halve the wire: {row:?}"
        );
    }

    #[test]
    fn report_renders_tables() {
        let report = run_wal_throughput(50, 4, 2, 4);
        let tables = wal_throughput_tables(&report);
        assert!(tables.contains("W7a"));
        assert!(tables.contains("W7b"));
        assert!(tables.contains("W7c"));
    }
}
