//! Crash recovery: latest snapshot + log replay + torn-tail repair.
//!
//! Recovery rebuilds the database a crash (or clean shutdown) left
//! behind:
//!
//! 1. Load the newest readable snapshot (`snap-*.snap`); its LSN
//!    high-water mark says which log prefix is already reflected in it.
//!    A snapshot is itself a log prefix in the segment layout, replayed
//!    by the same walk as step 2 ([`crate::snapshot`]). Its head carries
//!    the leadership history below that LSN ([`EpochHistory`]).
//! 2. Walk the segments in LSN order, skipping any that lie entirely
//!    below the snapshot, and replay every record with
//!    `lsn ≥ snapshot_lsn` through the ordinary `Database` mutation
//!    methods — so replayed state is re-validated and re-indexed exactly
//!    like live state; each replayed `LeaderEpoch` seal extends the
//!    history at its own LSN, and one that contradicts it is refused as
//!    corruption. The walk (`block::walk_blocks`) decodes and applies
//!    one block at a time; no file becomes a list of records. The
//!    segments must continue the snapshot: a first segment that starts
//!    past the snapshot LSN, a gap between segments, or a segment whose
//!    header disagrees with its file name is refused, never replayed
//!    around.
//! 3. Repair the tail: a torn frame in the *last* segment is the
//!    expected signature of a crash mid-append, so the file is truncated
//!    back to its last whole frame and appending can resume. Damage
//!    anywhere else (an interior segment, an interior frame followed by a
//!    later segment) means records the writer had durably acknowledged
//!    are gone, and recovery refuses with [`WalError::CorruptSegment`]
//!    rather than silently dropping them. A crash mid-snapshot leaves a
//!    `snap-<lsn>.snap.tmp` that no reader looks at; it is removed.
//!
//! Replay re-derives update acceptance: the stale / off-route /
//! unknown-object checks depend only on the receiving object's own state
//! and the static route network, and the log preserves per-object order,
//! so an update the live system rejected is rejected again on replay
//! (and counted in [`RecoveryReport::rejected`]).
//!
//! Replay also tolerates *overlap*: a pause-free snapshot may capture
//! mutations at or past its watermark LSN, so those records get replayed
//! against state that already contains them. Re-delivering an applied
//! update is a no-op in `Database::apply_update` (identical attribute),
//! older ones re-reject as stale, and duplicate registrations / removals
//! re-reject — state converges to the live outcome either way.

use std::fmt;
use std::path::{Path, PathBuf};

use modb_core::{CoreError, Database};

use crate::block::walk_blocks;
use crate::epoch::EpochHistory;
use crate::error::WalError;
use crate::record::{FrameEnd, WalRecord};
use crate::segment::{list_named, list_segments, read_segment_file, SEGMENT_HEADER_BYTES};
use crate::snapshot::{list_snapshots, read_snapshot, SNAPSHOT_TMP_NAME};

/// What recovery did, for operator logs and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot the rebuild started from.
    pub snapshot_path: PathBuf,
    /// Its LSN high-water mark.
    pub snapshot_lsn: u64,
    /// Records replayed and accepted.
    pub replayed: u64,
    /// Records replayed and rejected by the database (stale / off-route /
    /// duplicate / unknown — the same verdicts the live system gave).
    pub rejected: u64,
    /// Records skipped because the snapshot already reflected them.
    pub skipped_records: u64,
    /// Whole segments skipped without scanning (entirely below the
    /// snapshot).
    pub skipped_segments: u64,
    /// Bytes cut from the last segment's torn tail (0 for a clean log).
    pub truncated_bytes: u64,
    /// Why the tail was torn, when it was.
    pub torn: Option<&'static str>,
    /// The LSN the log continues at (pass to `WalWriter::resume`).
    pub next_lsn: u64,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered from {} (lsn {}): {} replayed, {} rejected, {} skipped; ",
            self.snapshot_path.display(),
            self.snapshot_lsn,
            self.replayed,
            self.rejected,
            self.skipped_records,
        )?;
        match self.torn {
            Some(reason) => write!(
                f,
                "truncated {} torn bytes ({reason}); ",
                self.truncated_bytes
            )?,
            None => write!(f, "clean tail; ")?,
        }
        write!(f, "next lsn {}", self.next_lsn)
    }
}

/// A recovered database, its leadership history, and the report
/// describing how they were rebuilt.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt database.
    pub database: Database,
    /// The snapshot head's leadership history plus every `LeaderEpoch`
    /// seal replayed after it.
    pub epochs: EpochHistory,
    /// What recovery did.
    pub report: RecoveryReport,
}

/// Turns one logged record into the database change it stands for,
/// through the database's ordinary mutation methods, and returns the
/// database's verdict: `Ok` when the mutation applied, the rejection
/// (stale / off-route / duplicate / unknown) when it did not. A
/// `LeaderEpoch` seal changes no state and applies; a `SnapshotHead`
/// founds the database a snapshot load builds (`crate::snapshot`) and is
/// rejected anywhere else.
///
/// This is the one seam through which a record becomes state: recovery
/// ([`recover`]), a snapshot load, a leader's live writes and a
/// replication follower's runs all apply through it, so every copy of the
/// state is validated and indexed alike, and replay re-derives the
/// verdicts the live writer got. Re-delivery at or past a watermark is
/// idempotent: an already-applied update is a no-op, older ones re-reject
/// as stale, and duplicate registrations / removals re-reject.
///
/// # Errors
///
/// The database's rejection of the mutation.
pub fn apply_record(db: &mut Database, rec: WalRecord) -> Result<(), CoreError> {
    match rec {
        WalRecord::RegisterMoving(obj) => db.register_moving(obj),
        WalRecord::InsertStationary(obj) => db.insert_stationary(obj),
        WalRecord::Update { id, msg } => db.apply_update(id, &msg),
        WalRecord::RemoveMoving(id) => db.remove_moving(id).map(drop),
        WalRecord::InsertRoute(route) => db.insert_route(route),
        // A leadership change carries no state mutation — its LSN is the
        // divergence boundary, which the log's reader folds into its
        // epoch history, not the database.
        WalRecord::LeaderEpoch { .. } => Ok(()),
        WalRecord::SnapshotHead { records, .. } => {
            Err(CoreError::InvalidField("snapshot head", records as f64))
        }
    }
}

/// Recovers the database state persisted in `dir`.
///
/// See the module docs for the procedure. After this returns, resume
/// appending with `WalWriter::resume(dir, opts, report.next_lsn)` — any
/// torn tail has already been truncated away, so the writer continues on
/// a frame boundary.
///
/// # Errors
///
/// - [`WalError::NoSnapshot`] when `dir` holds no readable snapshot (the
///   log alone cannot seed the route network and config).
/// - [`WalError::CorruptSegment`] for damage outside the last segment's
///   tail, an unreadable segment header that is not itself a torn tail,
///   a segment whose header names another start LSN than its file, or a
///   `LeaderEpoch` record that contradicts the history.
/// - [`WalError::SegmentGap`] when the first segment replayed starts
///   past the snapshot LSN, or consecutive segments do not join up.
/// - I/O failures.
pub fn recover(dir: &Path) -> Result<Recovered, WalError> {
    // Newest readable snapshot wins; older ones are the fallback if the
    // newest is damaged or misnamed (its write was atomic, but disks rot).
    let (mut db, mut epochs, snapshot_lsn, snapshot_path) = list_snapshots(dir)?
        .into_iter()
        .rev()
        .find_map(|(_, path)| {
            let (db, epochs, lsn) = read_snapshot(&path).ok()?;
            Some((db, epochs, lsn, path))
        })
        .ok_or_else(|| WalError::NoSnapshot(dir.to_path_buf()))?;

    let segments = list_segments(dir)?;
    let mut report = RecoveryReport {
        snapshot_path,
        snapshot_lsn,
        replayed: 0,
        rejected: 0,
        skipped_records: 0,
        skipped_segments: 0,
        truncated_bytes: 0,
        torn: None,
        next_lsn: snapshot_lsn,
    };

    // A segment lies entirely below the snapshot exactly when its
    // successor starts at or below the snapshot LSN (the successor's
    // start is the segment's end).
    let first_needed = segments
        .iter()
        .position(|&(start, _)| start > snapshot_lsn)
        .map(|i| i.saturating_sub(1))
        .unwrap_or_else(|| segments.len().saturating_sub(1));
    report.skipped_segments = first_needed as u64;

    // The log must continue the snapshot: the first replayed segment
    // starts at or below its LSN, and each later one where the previous
    // ended.
    let mut lsn = snapshot_lsn;
    for (i, (_, path)) in segments.iter().enumerate().skip(first_needed) {
        let last = i + 1 == segments.len();
        let (start_lsn, bytes) = match read_segment_file(path) {
            Ok(read) => read,
            // A crash between creating a segment file and syncing its
            // header leaves a short header in the *last* file: that is a
            // torn tail, not corruption. Anything else is.
            Err(WalError::CorruptSegment {
                reason: "short header",
                ..
            }) if last => {
                std::fs::remove_file(path)?;
                report.torn = Some("short header");
                break;
            }
            Err(e) => return Err(e),
        };
        let joins = if i == first_needed {
            start_lsn <= snapshot_lsn
        } else {
            start_lsn == lsn
        };
        if !joins {
            return Err(WalError::SegmentGap {
                expected: lsn,
                found: start_lsn,
            });
        }
        lsn = start_lsn;
        let walked = walk_blocks(&bytes[SEGMENT_HEADER_BYTES as usize..], |block, at| {
            for rec in block {
                if lsn < snapshot_lsn {
                    report.skipped_records += 1;
                    lsn += 1;
                    continue;
                }
                if let WalRecord::LeaderEpoch { epoch } = rec {
                    epochs.observe(epoch, lsn).map_err(|_| at)?;
                }
                match apply_record(&mut db, rec) {
                    Ok(()) => report.replayed += 1,
                    Err(_) => report.rejected += 1,
                }
                lsn += 1;
            }
            Ok(())
        });
        let (clean, end) = walked.map_err(|at: usize| {
            let reason = "leader epoch contradicts the history";
            WalError::corrupt(path, SEGMENT_HEADER_BYTES + at as u64, reason)
        })?;
        if let FrameEnd::Torn { reason } = end {
            let clean_bytes = SEGMENT_HEADER_BYTES + clean as u64;
            if !last {
                return Err(WalError::corrupt(path, clean_bytes, reason));
            }
            report.truncated_bytes = bytes.len() as u64 - clean_bytes;
            report.torn = Some(reason);
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(clean_bytes)?;
            file.sync_data()?;
        }
    }
    report.next_lsn = lsn.max(snapshot_lsn);
    for (_, leftover) in list_named(dir, SNAPSHOT_TMP_NAME)? {
        std::fs::remove_file(leftover)?;
    }

    Ok(Recovered {
        database: db,
        epochs,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;
    use crate::writer::{WalOptions, WalWriter};
    use modb_core::{
        DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, StationaryObject, UpdateMessage,
        UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("modb-wal-recovery-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn network() -> modb_routes::RouteNetwork {
        modb_routes::RouteNetwork::from_routes([Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap()])
        .unwrap()
    }

    fn vehicle(id: u64, arc: f64) -> MovingObject {
        MovingObject {
            id: ObjectId(id),
            name: format!("veh-{id}"),
            attr: modb_core::PositionAttribute {
                start_time: 0.0,
                route: RouteId(1),
                start_position: Point::new(arc, 0.0),
                start_arc: arc,
                direction: Direction::Forward,
                speed: 1.0,
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: 5.0,
                },
            },
            max_speed: 1.5,
            trip_end: None,
        }
    }

    /// Applies `rec` to `db` and logs it, mirroring the live system.
    fn apply_and_log(db: &mut Database, w: &mut WalWriter, rec: WalRecord) {
        w.append(&rec).unwrap();
        let _ = apply_record(db, rec);
    }

    /// A scripted workload: returns the reference database, with the log
    /// (and a snapshot at `snapshot_after` records) written into `dir`.
    fn scripted(dir: &Path, snapshot_after: usize, opts: WalOptions) -> Database {
        let mut db = Database::new(network(), DatabaseConfig::default());
        let mut w = WalWriter::create(dir, opts).unwrap();
        write_snapshot(dir, &db, &EpochHistory::new(), 0).unwrap(); // genesis snapshot
        let records: Vec<WalRecord> = vec![
            WalRecord::RegisterMoving(vehicle(1, 10.0)),
            WalRecord::RegisterMoving(vehicle(2, 40.0)),
            WalRecord::InsertStationary(StationaryObject::new(
                ObjectId(100),
                "depot",
                Point::new(12.0, 0.0),
            )),
            WalRecord::Update {
                id: ObjectId(1),
                msg: UpdateMessage::basic(5.0, UpdatePosition::Arc(14.0), 0.5),
            },
            // A stale update: rejected live, rejected again on replay.
            WalRecord::Update {
                id: ObjectId(1),
                msg: UpdateMessage::basic(4.0, UpdatePosition::Arc(15.0), 0.5),
            },
            WalRecord::InsertRoute(
                Route::from_vertices(
                    RouteId(2),
                    "spur",
                    vec![Point::new(0.0, 10.0), Point::new(100.0, 10.0)],
                )
                .unwrap(),
            ),
            WalRecord::Update {
                id: ObjectId(2),
                msg: UpdateMessage::route_change(
                    6.0,
                    RouteId(2),
                    UpdatePosition::Arc(40.0),
                    Direction::Backward,
                    0.8,
                ),
            },
            WalRecord::RemoveMoving(ObjectId(2)),
            WalRecord::RegisterMoving(vehicle(3, 70.0)),
            WalRecord::Update {
                id: ObjectId(3),
                msg: UpdateMessage::basic(8.0, UpdatePosition::Arc(72.0), 1.2),
            },
        ];
        for (i, rec) in records.into_iter().enumerate() {
            apply_and_log(&mut db, &mut w, rec);
            if i + 1 == snapshot_after {
                w.sync().unwrap();
                write_snapshot(dir, &db, &EpochHistory::new(), w.next_lsn()).unwrap();
            }
        }
        w.sync().unwrap();
        db
    }

    fn assert_same_answers(a: &Database, b: &Database) {
        assert_eq!(a.moving_count(), b.moving_count());
        assert_eq!(a.stationary_count(), b.stationary_count());
        let mut ids: Vec<ObjectId> = a.moving_ids().collect();
        ids.sort_unstable();
        let mut b_ids: Vec<ObjectId> = b.moving_ids().collect();
        b_ids.sort_unstable();
        assert_eq!(ids, b_ids);
        for &id in &ids {
            assert_eq!(a.moving(id).unwrap(), b.moving(id).unwrap());
            for t in [0.0, 5.0, 10.0] {
                assert_eq!(a.position_of(id, t).unwrap(), b.position_of(id, t).unwrap());
            }
        }
        // Index answers too, not just stored state.
        use modb_geom::{Polygon, Rect};
        use modb_index::QueryRegion;
        for t in [0.0, 6.0, 12.0] {
            let g = Polygon::rectangle(&Rect::new(Point::new(0.0, -20.0), Point::new(100.0, 20.0)))
                .unwrap();
            let ra = a
                .range_query(&QueryRegion::at_instant(g.clone(), t))
                .unwrap();
            let rb = b.range_query(&QueryRegion::at_instant(g, t)).unwrap();
            assert_eq!(ra.must, rb.must);
            assert_eq!(ra.may, rb.may);
        }
    }

    #[test]
    fn recovers_from_genesis_snapshot_plus_full_replay() {
        let dir = tmp("full-replay");
        let reference = scripted(&dir, usize::MAX, WalOptions::default());
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.snapshot_lsn, 0);
        assert_eq!(rec.report.replayed, 9, "10 logged, 1 stale rejected");
        assert_eq!(rec.report.rejected, 1);
        assert_eq!(rec.report.next_lsn, 10);
        assert!(rec.report.torn.is_none());
        assert_same_answers(&rec.database, &reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_snapshot_skips_reflected_records() {
        let dir = tmp("mid-snapshot");
        let reference = scripted(&dir, 6, WalOptions::default());
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.snapshot_lsn, 6);
        assert_eq!(rec.report.skipped_records, 6);
        assert_eq!(rec.report.replayed, 4);
        assert_eq!(rec.report.next_lsn, 10);
        assert_same_answers(&rec.database, &reference);
        // The report prints without panicking and mentions the lsn.
        assert!(rec.report.to_string().contains("next lsn 10"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotated_segments_replay_in_order() {
        let dir = tmp("rotated");
        let opts = WalOptions {
            max_segment_bytes: 200, // force many segments
        };
        let reference = scripted(&dir, 4, opts);
        assert!(list_segments(&dir).unwrap().len() > 1);
        let rec = recover(&dir).unwrap();
        assert!(rec.report.skipped_segments > 0, "early segments skippable");
        assert_same_answers(&rec.database, &reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncated_and_resumable() {
        let dir = tmp("torn-tail");
        let reference = scripted(&dir, usize::MAX, WalOptions::default());
        // Crash mid-append: garbage bytes after the last whole frame.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let clean_len = std::fs::metadata(&last).unwrap().len();
        let mut bytes = std::fs::read(&last).unwrap();
        // A two-byte length varint (151) and three of the four CRC bytes:
        // the tear falls inside the frame header.
        bytes.extend_from_slice(&[0x97, 0x01, 0xde, 0xad, 0xbe]);
        std::fs::write(&last, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.torn, Some("truncated frame header"));
        assert_eq!(rec.report.truncated_bytes, 5);
        assert_eq!(std::fs::metadata(&last).unwrap().len(), clean_len);
        assert_same_answers(&rec.database, &reference);

        // The log resumes on the repaired boundary and stays readable.
        let mut w = WalWriter::resume(&dir, WalOptions::default(), rec.report.next_lsn).unwrap();
        w.append(&WalRecord::RemoveMoving(ObjectId(3))).unwrap();
        w.sync().unwrap();
        let rec2 = recover(&dir).unwrap();
        assert_eq!(rec2.report.next_lsn, rec.report.next_lsn + 1);
        assert!(rec2.database.moving(ObjectId(3)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_refused() {
        let dir = tmp("interior");
        let opts = WalOptions {
            max_segment_bytes: 200,
        };
        scripted(&dir, usize::MAX, opts);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2);
        // Corrupt a frame in the middle segment: acknowledged records are
        // unrecoverable, so recovery must refuse.
        let mid = &segments[segments.len() / 2].1;
        let mut bytes = std::fs::read(mid).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xff;
        std::fs::write(mid, &bytes).unwrap();
        assert!(matches!(
            recover(&dir),
            Err(WalError::CorruptSegment { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_is_a_gap() {
        let dir = tmp("gap");
        let opts = WalOptions {
            max_segment_bytes: 200,
        };
        scripted(&dir, usize::MAX, opts);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2);
        std::fs::remove_file(&segments[segments.len() / 2].1).unwrap();
        assert!(matches!(recover(&dir), Err(WalError::SegmentGap { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_header_last_segment_deleted() {
        let dir = tmp("short-header");
        let reference = scripted(&dir, usize::MAX, WalOptions::default());
        // Crash between creating the next segment and writing its header.
        std::fs::write(dir.join(crate::segment::segment_file_name(10)), b"MODB").unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.torn, Some("short header"));
        assert!(!dir.join(crate::segment::segment_file_name(10)).exists());
        assert_eq!(rec.report.next_lsn, 10);
        assert_same_answers(&rec.database, &reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash between a snapshot's create and its rename leaves its temp
    /// file; recovery removes it, and leaves every other file alone.
    #[test]
    fn a_leftover_snapshot_temp_file_is_removed() {
        let dir = tmp("snapshot-tmp");
        let reference = scripted(&dir, 3, WalOptions::default());
        let leftover = dir.join("snap-00000000000000000009.snap.tmp");
        std::fs::write(&leftover, b"half a snapshot").unwrap();
        let files = |dir: &Path| std::fs::read_dir(dir).unwrap().count();
        let before = files(&dir);
        let rec = recover(&dir).unwrap();
        assert!(!leftover.exists(), "the temp file survived recovery");
        assert_eq!(files(&dir), before - 1, "only the temp file went");
        assert_same_answers(&rec.database, &reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_snapshot_is_an_error() {
        let dir = tmp("no-snapshot");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        w.append(&WalRecord::RemoveMoving(ObjectId(1))).unwrap();
        drop(w);
        assert!(matches!(recover(&dir), Err(WalError::NoSnapshot(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_latest_snapshot_falls_back_to_older() {
        let dir = tmp("fallback");
        let reference = scripted(&dir, usize::MAX, WalOptions::default());
        let w_next = 10;
        write_snapshot(&dir, &reference, &EpochHistory::new(), w_next).unwrap();
        // Damage the newest snapshot; the genesis one still works.
        let snaps = list_snapshots(&dir).unwrap();
        let newest = &snaps.last().unwrap().1;
        let mut bytes = std::fs::read(newest).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(newest, &bytes).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.snapshot_lsn, 0, "fell back to genesis");
        assert_eq!(rec.report.next_lsn, 10);
        assert_same_answers(&rec.database, &reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_idempotent() {
        let dir = tmp("idempotent");
        let reference = scripted(&dir, 3, WalOptions::default());
        let a = recover(&dir).unwrap();
        let b = recover(&dir).unwrap();
        assert_eq!(a.report, b.report);
        assert_same_answers(&a.database, &b.database);
        assert_same_answers(&a.database, &reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
