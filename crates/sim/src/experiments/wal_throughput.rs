//! W7: the block log format and its replication wire, accounted.
//!
//! One run writes one log: `rounds` monotone updates per object from a
//! single producer through a striped
//! [`modb_server::DurableDatabase::ingest_service`]. With one producer
//! the stripes fill and flush in a fixed order, so the block boundaries —
//! and every byte column below — are fixed by the arguments. Two sections,
//! printed as tables W7a and W7c, read that log:
//!
//! 1. **Bytes per update** — the log as written (`v3-lz`: delta-coded
//!    blocks, LZ where it pays) beside two *accountings* of its blocks:
//!    what they would weigh with one CRC frame per record (`v1`, the
//!    retired layout, framed as today) and as delta-coded blocks with the
//!    LZ stage off (`v3-plain`). The paper prices every update message;
//!    this prices what each one costs on disk.
//! 2. **The wire** — the same log shipped to a follower. Compressed
//!    blocks travel verbatim (`Blocks`), so wire bytes are compared
//!    against an accounting of what shipping the decoded records one
//!    frame each (the retired `Records` message) would have sent, and a
//!    live [`modb_server::StandbyReplica`] is timed to convergence.
//!
//! What an update costs the log in time — append, fsync, group-commit
//! collapse — is measured by the cost ledger (`wal.*` rows), not here.

use std::path::Path;
use std::time::Instant;

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_server::{
    DurableDatabase, IngestService, ReplicaConfig, ReplicationConfig, StandbyReplica,
    UpdateEnvelope,
};
use modb_wal::segment::SEGMENT_HEADER_BYTES;
use modb_wal::{
    decode_block, decode_block_frames, encode_block, frame_len, split_frame, FsyncPolicy,
    SegmentTailer, WalOptions, WalRecord,
};

use crate::experiments::indexing::build_city_db;
use crate::report::{fmt, render_table};

/// One log encoding's row (section 1). `v3-lz` is the log on disk; `v1`
/// and `v3-plain` are size accountings of its blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFormatRow {
    /// Format label: `v1`, `v3-plain`, or `v3-lz`.
    pub label: &'static str,
    /// Updates sent and applied.
    pub updates: usize,
    /// Log footprint (all segments, headers included): on disk for
    /// `v3-lz`, summed from re-encoded blocks for an accounted row.
    pub log_bytes: u64,
    /// `log_bytes / updates`.
    pub bytes_per_update: f64,
    /// Segment files the log occupies.
    pub segments: usize,
}

/// The wire measurement (section 2).
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

/// `rounds` monotone updates per object, round-robin over the fleet from
/// one producer, through `service` to its shutdown.
fn drive(service: IngestService, n_objects: usize, rounds: usize) {
    let handle = service.handle();
    for round in 1..=rounds {
        for i in 0..n_objects {
            handle
                .send(UpdateEnvelope {
                    id: ObjectId(i as u64),
                    msg: UpdateMessage::basic(round as f64 * 0.01, UpdatePosition::Arc(0.5), 0.7),
                })
                .expect("service alive");
        }
    }
    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.wal_errors, 0, "log writes must succeed");
    assert_eq!(stats.accepted, rounds * n_objects, "all applied");
}

/// A fresh directory per call: runs go concurrently inside one process
/// under `cargo test`, so the process id alone does not keep two of them
/// out of each other's logs.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("modb-exp-w7-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Section 1: the cleanly shut log in `dir` as written, and the two
/// accountings of its blocks, re-encoded with the batch boundaries the
/// run chose.
fn format_rows(dir: &Path, updates: usize) -> Vec<WalFormatRow> {
    let segments = modb_wal::list_segments(dir).expect("listable");
    let headers = segments.len() as u64 * SEGMENT_HEADER_BYTES;
    let (mut lz_bytes, mut per_record_bytes, mut plain_bytes) = (0, headers, headers);
    let mut payload = Vec::new();
    for (_, path) in &segments {
        let bytes = std::fs::read(path).expect("readable segment");
        lz_bytes += bytes.len() as u64;
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
    [
        ("v1", per_record_bytes),
        ("v3-plain", plain_bytes),
        ("v3-lz", lz_bytes),
    ]
    .into_iter()
    .map(|(label, log_bytes)| WalFormatRow {
        label,
        updates,
        log_bytes,
        bytes_per_update: log_bytes as f64 / updates as f64,
        segments: segments.len(),
    })
    .collect()
}

/// Section 2: ship the log. Wire bytes are measured offline with the
/// same [`SegmentTailer`] the leader uses (and the one-frame-per-record
/// alternative accounted from its output), then a live standby follows
/// the leader to convergence.
fn wire_row(durable: &DurableDatabase) -> WireRow {
    let frontier = durable.wal().next_lsn();
    let mut blocks_bytes = 0u64;
    let mut records_bytes = 0u64;
    let mut records = 0u64;
    let mut tailer = SegmentTailer::new(durable.dir(), 0);
    while let Some(chunk) = tailer.poll_blocks(4_096).expect("static log") {
        blocks_bytes += chunk.frames.len() as u64;
        records_bytes += framed_singly_bytes(&decode_block_frames(&chunk.frames).0);
        records += chunk.records;
        if chunk.end_lsn() >= frontier {
            break;
        }
    }

    let follower_dir = scratch_dir("follower");
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

/// Writes the one log, then reads both sections from it.
pub fn run_wal_throughput(n_objects: usize, rounds: usize, workers: usize) -> WalThroughputReport {
    let leader_dir = scratch_dir("leader");
    let durable = DurableDatabase::create(
        &leader_dir,
        build_city_db(42, n_objects, 20),
        wal_options(FsyncPolicy::EveryN(256)),
    )
    .expect("fresh leader dir");
    drive(durable.ingest_service(workers, 0), n_objects, rounds);
    let report = WalThroughputReport {
        formats: format_rows(&leader_dir, n_objects * rounds),
        wire: wire_row(&durable),
    };
    drop(durable);
    let _ = std::fs::remove_dir_all(&leader_dir);
    report
}

/// Renders the W7 report tables.
pub fn wal_throughput_tables(report: &WalThroughputReport) -> String {
    let mut out = render_table(
        "W7a: log bytes per update by encoding (v3-lz as written; \
         v1 and v3-plain accounted from its blocks)",
        &["format", "updates", "log KiB", "bytes/update", "segments"],
        &report
            .formats
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    r.updates.to_string(),
                    fmt(r.log_bytes as f64 / 1024.0),
                    fmt(r.bytes_per_update),
                    r.segments.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
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
        let rows = run_wal_throughput(100, 8, 2).formats;
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
        }
    }

    #[test]
    fn wire_ships_fewer_bytes_than_records_and_converges() {
        let row = run_wal_throughput(100, 8, 2).wire;
        assert_eq!(row.applied, row.records, "standby converged");
        assert!(
            row.blocks_bytes * 2 < row.records_bytes,
            "compressed blocks must at least halve the wire: {row:?}"
        );
    }

    #[test]
    fn byte_columns_are_fixed_by_the_arguments() {
        let bytes = |report: WalThroughputReport| {
            let w = report.wire;
            (report.formats, w.records, w.blocks_bytes, w.records_bytes)
        };
        let first = bytes(run_wal_throughput(50, 4, 2));
        assert_eq!(first, bytes(run_wal_throughput(50, 4, 2)));
    }

    #[test]
    fn report_renders_tables() {
        let report = run_wal_throughput(50, 4, 2);
        let tables = wal_throughput_tables(&report);
        assert!(tables.contains("W7a"));
        assert!(tables.contains("W7c"));
    }
}
