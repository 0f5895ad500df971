//! Log compaction: prune old snapshots to a retention count and delete
//! segments every retained snapshot already covers.
//!
//! A snapshot at LSN *s* makes every record with `lsn < s` dead weight
//! for recovery — but only if that snapshot is readable. Recovery
//! ([`crate::recover`]) deliberately falls back to *older* snapshots when
//! the newest is damaged, so compaction must preserve that ladder: a
//! segment is deletable only when it is covered by the **oldest
//! retained** snapshot, and snapshots are pruned to a retention count
//! before that cover point is computed. The newest segment is never
//! deleted — it is the writer's active tail (and after a rotation the
//! next segment's header is the only record of the current LSN).
//!
//! A pass is safe while a [`crate::WalWriter`] holds the directory open
//! only if it is serialised with rotation, so its one entry point is
//! [`crate::SharedWal::compact`], which runs it under the writer lock —
//! right after a snapshot is written (see `DurableDatabase::snapshot`).

use std::fmt;
use std::fs;
use std::path::Path;

use crate::error::WalError;
use crate::segment::list_segments;
use crate::snapshot::list_snapshots;

/// Snapshots kept by default when compaction runs after
/// `DurableDatabase::snapshot`: the newest for fast recovery, two older
/// ones as the corruption-fallback ladder.
pub const DEFAULT_SNAPSHOT_RETENTION: usize = 3;

/// What one compaction pass ([`crate::SharedWal::compact`]) removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Snapshot files deleted (oldest-first beyond the retention count).
    pub snapshots_removed: usize,
    /// Segment files deleted (fully covered by the oldest retained
    /// snapshot).
    pub segments_removed: usize,
    /// Bytes of log reclaimed by the deleted segments.
    pub segment_bytes_reclaimed: u64,
    /// The cover point: every deleted segment held only records with
    /// `lsn <` this (the oldest retained snapshot's LSN, further lowered
    /// to the ship barrier when one is in force).
    pub cover_lsn: u64,
}

impl fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "removed {} snapshot(s), {} segment(s) ({} bytes) below lsn {}",
            self.snapshots_removed,
            self.segments_removed,
            self.segment_bytes_reclaimed,
            self.cover_lsn,
        )
    }
}

/// Prunes `dir` to the newest `retention` snapshots (clamped to ≥ 1) and
/// deletes every log segment fully covered by the oldest snapshot that
/// remains, never one holding records at or above a **ship barrier**
/// `Some(lsn)`. A directory with no snapshot is left untouched — without
/// a base state every record is still needed. The barrier is the
/// replication horizon: a leader streaming segments to a follower must
/// not delete log the follower has not acknowledged yet, or a
/// slow-but-live follower would be orphaned mid-stream and forced to
/// re-bootstrap from a full snapshot. Snapshot pruning ignores it
/// (followers bootstrap from fresh snapshots; old ones are only the
/// local corruption ladder).
///
/// # Errors
///
/// I/O failures listing or deleting files; a partially applied pass
/// leaves the directory recoverable (deletion order is oldest-first, and
/// nothing recovery needs is ever deleted).
pub(crate) fn compact_with_barrier(
    dir: &Path,
    retention: usize,
    barrier: Option<u64>,
) -> Result<CompactionReport, WalError> {
    let retention = retention.max(1);
    let mut report = CompactionReport::default();
    let snapshots = list_snapshots(dir)?;
    if snapshots.is_empty() {
        return Ok(report);
    }
    let keep_from = snapshots.len().saturating_sub(retention);
    for (_, path) in &snapshots[..keep_from] {
        fs::remove_file(path)?;
        report.snapshots_removed += 1;
    }
    // Recovery may fall back past a damaged newest snapshot, so segments
    // survive until the *oldest retained* snapshot covers them — and a
    // ship barrier lowers the cover point further: an unshipped record is
    // live for replication even when recovery no longer needs it.
    report.cover_lsn = match barrier {
        Some(b) => snapshots[keep_from].0.min(b),
        None => snapshots[keep_from].0,
    };

    let segments = list_segments(dir)?;
    // A segment holds the records [start_lsn, next segment's start_lsn);
    // it is dead iff that end is at or below the cover point. The final
    // segment has no successor and is the active tail — never deleted.
    for pair in segments.windows(2) {
        let (_, path) = &pair[0];
        let (next_start, _) = &pair[1];
        if *next_start <= report.cover_lsn {
            report.segment_bytes_reclaimed += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(path)?;
            report.segments_removed += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalRecord;
    use crate::segment::segment_file_name;
    use crate::snapshot::write_snapshot;
    use crate::writer::{WalOptions, WalWriter};
    use crate::EpochHistory;
    use modb_core::{
        Database, DatabaseConfig, MovingObject, ObjectId, UpdateMessage, UpdatePosition,
    };
    use modb_core::{PolicyDescriptor, PositionAttribute};
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("modb-compact-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_db() -> Database {
        let route = Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap();
        Database::new(
            RouteNetwork::from_routes([route]).unwrap(),
            DatabaseConfig::default(),
        )
    }

    fn vehicle(id: u64, arc: f64) -> MovingObject {
        MovingObject {
            id: ObjectId(id),
            name: format!("veh-{id}"),
            attr: PositionAttribute {
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

    fn compact(dir: &Path, retention: usize) -> Result<CompactionReport, WalError> {
        compact_with_barrier(dir, retention, None)
    }

    /// Tiny segments so a handful of records forces rotations.
    fn small_segments() -> WalOptions {
        WalOptions {
            max_segment_bytes: 256,
        }
    }

    /// Builds a directory with several segments and a snapshot per
    /// `snapshot_every` records; returns the final database state.
    fn populate(dir: &Path, rounds: u64, snapshot_every: u64) -> Database {
        let mut db = fresh_db();
        let mut wal = WalWriter::create(dir, small_segments()).unwrap();
        write_snapshot(dir, &db, &EpochHistory::new(), wal.next_lsn()).unwrap();
        db.register_moving(vehicle(1, 10.0)).unwrap();
        wal.append(&WalRecord::RegisterMoving(vehicle(1, 10.0)))
            .unwrap();
        for round in 1..=rounds {
            let msg = UpdateMessage::basic(
                round as f64,
                UpdatePosition::Arc(10.0 + (round as f64 * 0.1) % 80.0),
                0.9,
            );
            wal.append(&WalRecord::Update {
                id: ObjectId(1),
                msg,
            })
            .unwrap();
            db.apply_update(ObjectId(1), &msg).unwrap();
            if round % snapshot_every == 0 {
                wal.sync().unwrap();
                write_snapshot(dir, &db, &EpochHistory::new(), wal.next_lsn()).unwrap();
            }
        }
        wal.sync().unwrap();
        db
    }

    #[test]
    fn no_snapshot_is_a_noop() {
        let dir = tmp("noop");
        let mut wal = WalWriter::create(&dir, small_segments()).unwrap();
        for i in 0..50u64 {
            wal.append(&WalRecord::Update {
                id: ObjectId(1),
                msg: UpdateMessage::basic(i as f64, UpdatePosition::Arc(1.0), 1.0),
            })
            .unwrap();
        }
        let before = list_segments(&dir).unwrap().len();
        assert!(before > 1, "rotation expected");
        let report = compact(&dir, 1).unwrap();
        assert_eq!(report, CompactionReport::default());
        assert_eq!(list_segments(&dir).unwrap().len(), before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prunes_snapshots_and_covered_segments_keeping_recovery_intact() {
        let dir = tmp("prune");
        let expected = populate(&dir, 60, 15);
        let snaps_before = list_snapshots(&dir).unwrap();
        let segs_before = list_segments(&dir).unwrap();
        assert!(snaps_before.len() >= 4, "{snaps_before:?}");
        assert!(segs_before.len() > 2, "{segs_before:?}");

        let report = compact(&dir, 2).unwrap();
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 2);
        assert_eq!(report.snapshots_removed, snaps_before.len() - 2);
        // The oldest retained snapshot is the cover point.
        assert_eq!(report.cover_lsn, snaps[0].0);
        assert!(report.segments_removed > 0, "covered segments deleted");
        assert!(report.segment_bytes_reclaimed > 0);
        assert!(report.to_string().contains("segment"));
        // Every surviving segment still holds records >= cover_lsn, save
        // the active tail which always survives.
        let segs = list_segments(&dir).unwrap();
        for pair in segs.windows(2) {
            assert!(pair[1].0 > report.cover_lsn, "uncovered segment deleted");
        }
        assert_eq!(
            segs.last().unwrap().0,
            segs_before.last().unwrap().0,
            "active tail untouched"
        );

        // Recovery after compaction reproduces the exact same state.
        let recovered = crate::recover(&dir).unwrap();
        assert_eq!(
            recovered.database.moving(ObjectId(1)).unwrap(),
            expected.moving(ObjectId(1)).unwrap()
        );

        // …and the log stays appendable-and-recoverable across the
        // compaction point.
        let next_lsn = recovered.report.next_lsn;
        let mut wal = WalWriter::resume(&dir, small_segments(), next_lsn).unwrap();
        wal.append(&WalRecord::RemoveMoving(ObjectId(1))).unwrap();
        wal.sync().unwrap();
        let recovered = crate::recover(&dir).unwrap();
        assert_eq!(recovered.report.next_lsn, next_lsn + 1);
        assert!(recovered.database.moving(ObjectId(1)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fallback_ladder_survives_damaged_newest_snapshot() {
        let dir = tmp("ladder");
        let expected = populate(&dir, 40, 10);
        compact(&dir, 3).unwrap();
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 3);
        // Damage the newest snapshot: recovery must fall back to the
        // next-oldest and replay from there — which requires exactly the
        // segments compaction retained.
        let (_, newest) = snaps.last().unwrap();
        let bytes = fs::read(newest).unwrap();
        let mut damaged = bytes.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0xFF;
        fs::write(newest, &damaged).unwrap();
        let recovered = crate::recover(&dir).unwrap();
        assert_eq!(
            recovered.database.moving(ObjectId(1)).unwrap(),
            expected.moving(ObjectId(1)).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a slow follower's unshipped horizon must pin segments.
    /// Without the barrier, `compact` below deletes every
    /// segment the retained snapshot covers — including the ones a
    /// replication stream positioned at `horizon` still has to read —
    /// which is exactly the orphaned-follower bug the barrier fixes.
    #[test]
    fn ship_barrier_pins_unshipped_segments() {
        let dir = tmp("barrier");
        let expected = populate(&dir, 60, 15);
        let segs_before = list_segments(&dir).unwrap();
        assert!(segs_before.len() > 3, "{segs_before:?}");
        // A follower is still reading from early in the log.
        let horizon = segs_before[1].0;

        // Sanity (the bug this guards against): an unbarriered compaction
        // on an identical directory WOULD delete the follower's segment.
        let shadow = tmp("barrier-shadow");
        std::fs::create_dir_all(&shadow).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), shadow.join(entry.file_name())).unwrap();
        }
        let unbarriered = compact(&shadow, 1).unwrap();
        assert!(unbarriered.cover_lsn > horizon, "scenario not exercised");
        assert!(
            !shadow.join(segment_file_name(horizon)).exists(),
            "without a barrier the follower's segment is GC'd"
        );
        fs::remove_dir_all(&shadow).unwrap();

        // With the barrier, every segment holding records >= horizon
        // survives, and the follower can keep streaming.
        let report = compact_with_barrier(&dir, 1, Some(horizon)).unwrap();
        assert_eq!(report.cover_lsn, horizon, "barrier lowers the cover");
        assert!(report.segments_removed > 0, "segments below it still go");
        let segs = list_segments(&dir).unwrap();
        assert!(
            segs.iter().any(|&(start, _)| start == horizon),
            "the follower's segment survived"
        );
        for pair in segs.windows(2) {
            assert!(pair[1].0 > horizon, "segment holding >= horizon deleted");
        }
        // Recovery still works (the barrier only ever keeps more).
        let recovered = crate::recover(&dir).unwrap();
        assert_eq!(
            recovered.database.moving(ObjectId(1)).unwrap(),
            expected.moving(ObjectId(1)).unwrap()
        );
        // Once the follower catches up (barrier past the tail), the
        // previously pinned segments become reclaimable again…
        let tail_lsn = list_segments(&dir).unwrap().last().unwrap().0;
        let caught_up = compact_with_barrier(&dir, 1, Some(tail_lsn + 1_000)).unwrap();
        assert!(caught_up.segments_removed > 0, "pinned segments released");
        assert!(caught_up.cover_lsn > horizon);
        // …and a further pass is idempotent.
        let again = compact_with_barrier(&dir, 1, Some(tail_lsn + 1_000)).unwrap();
        assert_eq!(again.segments_removed, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_clamps_to_one_and_single_segment_survives() {
        let dir = tmp("clamp");
        let expected = populate(&dir, 20, 5);
        let report = compact(&dir, 0).unwrap();
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1, "clamped to 1");
        assert!(report.cover_lsn > 0);
        assert!(!list_segments(&dir).unwrap().is_empty(), "tail kept");
        let recovered = crate::recover(&dir).unwrap();
        assert_eq!(
            recovered.database.moving(ObjectId(1)).unwrap(),
            expected.moving(ObjectId(1)).unwrap()
        );
        // Idempotent: a second pass removes nothing further.
        let again = compact(&dir, 1).unwrap();
        assert_eq!(again.snapshots_removed, 0);
        assert_eq!(again.segments_removed, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
