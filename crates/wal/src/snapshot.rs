//! Point-in-time snapshots of full [`modb_core::Database`] state.
//!
//! A snapshot bounds recovery time: recovery loads the latest valid
//! snapshot and replays only the records logged after it. It also carries
//! what the log alone cannot reconstruct — the route network seeded at
//! construction, the [`modb_core::DatabaseConfig`], and the leadership
//! history ([`EpochHistory`]) of every epoch begun below its LSN, whose
//! seal records compaction may have deleted.
//!
//! **A snapshot is a log prefix**: `snap-<lsn>.snap` is a sealed file of
//! the segment layout ([`crate::segment`]) whose records rebuild the state
//! through [`apply_record`], read by the walk that replays segments
//! ([`walk_blocks`]):
//!
//! ```text
//! [segment header: "MODBWAL1", SEGMENT_VERSION, start_lsn = snapshot lsn]
//! [frame: one block holding the SnapshotHead record — config, record
//!        count, epoch spans]
//! [frame]*  blocks of SNAPSHOT_BLOCK_RECORDS records: InsertRoute (network
//!           order), InsertStationary, RegisterMoving (each in id order)
//! ```
//!
//! Every record with `lsn < snapshot_lsn` is reflected in it. The head's
//! count seals the file: one that ends early (cut at a block boundary) or
//! runs on is refused, as is one with a torn frame, a rejected record or
//! a start LSN other than its file name's. Writes are atomic (tmp, fsync,
//! rename, dir fsync): a crash leaves the old state or the new, never a
//! half-written snapshot under the real name.
//!
//! **Memory.** [`write_snapshot`] holds the id-sorted entry references
//! [`Database::moving_objects`] iterates by (8 bytes a vehicle) and one
//! block of records at a time;
//! [`read_snapshot`] holds the file's bytes once and applies them block
//! by block; a bootstrapping follower feeds each run it receives to a
//! [`SnapshotLoad`]. Neither direction holds a second copy of the fleet.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use modb_core::{Database, StationaryObject};
use modb_routes::RouteNetwork;

use crate::block::{walk_blocks, Sealer};
use crate::epoch::EpochHistory;
use crate::error::WalError;
use crate::record::{FrameEnd, WalRecord};
use crate::recovery::apply_record;
use crate::segment::{encode_header, read_segment_file, SEGMENT_HEADER_BYTES};
use crate::writer::sync_dir;

/// Records per block of a snapshot's body: enough for the LZ stage to
/// find the fleet's repeats (512 shrank the ledger's snapshot by 3 %
/// more), few enough that the block the writer holds leaves no heap
/// growth behind (512 left ≈ 0.17 MiB more resident after a set-up
/// snapshot) and every frame stays far below [`crate::MAX_RECORD_BYTES`].
pub(crate) const SNAPSHOT_BLOCK_RECORDS: usize = 128;

/// File name for the snapshot taken at `lsn` (zero-padded so
/// lexicographic order equals LSN order).
pub fn snapshot_file_name(lsn: u64) -> String {
    format!("snap-{lsn:020}.snap")
}

/// Inverse of [`snapshot_file_name`]; `None` for non-snapshot files.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Lists the snapshot files in `dir`, sorted by LSN. Non-snapshot files
/// (including in-flight `.tmp` files) are ignored.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut snapshots = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(lsn) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            snapshots.push((lsn, entry.path()));
        }
    }
    snapshots.sort_unstable_by_key(|&(lsn, _)| lsn);
    Ok(snapshots)
}

/// Streams the snapshot of `db` and `epochs` at `lsn` into `file` —
/// header, head block, then one sealed block per
/// [`SNAPSHOT_BLOCK_RECORDS`] records — and syncs it.
fn stream_snapshot(
    mut file: File,
    db: &Database,
    epochs: &EpochHistory,
    lsn: u64,
) -> Result<(), WalError> {
    // Sorted by id, so the same state always produces the same bytes
    // whatever order its tables iterate in (`moving_objects` yields id
    // order).
    let mut stationary = Vec::with_capacity(db.stationary_count());
    stationary.extend(db.stationary_objects());
    stationary.sort_unstable_by_key(|o: &&StationaryObject| o.id);
    let head = WalRecord::SnapshotHead {
        config: *db.config(),
        records: (db.network().len() + stationary.len() + db.moving_count()) as u64,
        epochs: epochs.clone(),
    };
    let mut body = db
        .network()
        .iter()
        .map(|route| WalRecord::InsertRoute(route.clone()))
        .chain(
            stationary
                .into_iter()
                .map(|o| WalRecord::InsertStationary(o.clone())),
        )
        .chain(db.moving_objects().map(WalRecord::RegisterMoving));

    let mut sealer = Sealer::default();
    file.write_all(&encode_header(lsn))?;
    file.write_all(sealer.seal(&[head])?)?;
    let mut block = Vec::with_capacity(SNAPSHOT_BLOCK_RECORDS);
    loop {
        block.clear();
        block.extend(body.by_ref().take(SNAPSHOT_BLOCK_RECORDS));
        if block.is_empty() {
            break;
        }
        file.write_all(sealer.seal(&block)?)?;
    }
    file.sync_data()?;
    Ok(())
}

/// Writes a snapshot of `db`, under the leadership history `epochs`, into
/// `dir` with `lsn` as its high-water mark, atomically and streamed (see
/// the module docs). Returns the final path. An existing snapshot at the
/// same LSN is replaced — the content is necessarily identical.
///
/// Watermark contract: `db` must reflect **at least** every record with
/// `lsn < snapshot_lsn` — capturing later mutations too is fine, because
/// replay from the watermark re-applies the overlap idempotently
/// (re-delivered updates are no-ops, duplicate registrations re-reject).
/// `DurableDatabase::snapshot` in `modb-server` establishes this by
/// applying mutations before logging them and reading `next_lsn` under
/// the writer lock before capturing state. The same holds for `epochs`:
/// it must hold every epoch begun below `lsn`, and one begun at or past
/// it is observed again, idempotently, when its seal is replayed.
///
/// # Errors
///
/// I/O failures, and [`WalError::FrameTooLarge`] for a block no reader
/// would accept. Either way the `.tmp` file is removed and nothing is
/// replaced.
pub fn write_snapshot(
    dir: &Path,
    db: &Database,
    epochs: &EpochHistory,
    lsn: u64,
) -> Result<PathBuf, WalError> {
    fs::create_dir_all(dir)?;
    let final_path = dir.join(snapshot_file_name(lsn));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(lsn)));
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp_path)?;
    if let Err(e) = stream_snapshot(file, db, epochs, lsn) {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// A snapshot being replayed, fed its frames in order — a whole file by
/// [`read_snapshot`], one replication message at a time by a
/// bootstrapping follower — and applied block by block: the head founds
/// the database and names the history, every later record must be
/// accepted.
#[derive(Debug)]
pub struct SnapshotLoad {
    /// Names the file in errors.
    path: PathBuf,
    /// Bytes of the file validated so far, header included.
    offset: u64,
    /// The database the head founded and the history it carried.
    state: Option<(Database, EpochHistory)>,
    /// Records the head promised that have not been applied yet.
    remaining: u64,
}

impl SnapshotLoad {
    /// A load of the snapshot file at `path` (named in errors), ready for
    /// the frames after its header.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        SnapshotLoad {
            path: path.into(),
            offset: SEGMENT_HEADER_BYTES,
            state: None,
            remaining: 0,
        }
    }

    /// Where the next frames start in the snapshot file.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Applies the next run of whole frames. Returns the database and
    /// the head's leadership history once the head and every record it
    /// promised have been applied (the load is spent then), `None` while
    /// records are still to come.
    ///
    /// # Errors
    ///
    /// [`WalError::CorruptSegment`] at the offending frame: a torn or
    /// undecodable frame, a first block that is not the head alone, a
    /// record past the head's count, or a record the database rejects.
    pub fn feed(&mut self, frames: &[u8]) -> Result<Option<(Database, EpochHistory)>, WalError> {
        let walked = walk_blocks(frames, |block, at| {
            self.apply(block).map_err(|reason| (at, reason))
        });
        let (at, reason) = match walked {
            Ok((clean, FrameEnd::Clean)) => {
                self.offset += clean as u64;
                let done = self.state.is_some() && self.remaining == 0;
                return Ok(if done { self.state.take() } else { None });
            }
            Ok((clean, FrameEnd::Torn { reason })) => (clean, reason),
            Err(broken) => broken,
        };
        Err(self.corrupt(at as u64, reason))
    }

    fn apply(&mut self, block: Vec<WalRecord>) -> Result<(), &'static str> {
        let Some((db, _)) = self.state.as_mut() else {
            let Ok(
                [WalRecord::SnapshotHead {
                    config,
                    records,
                    epochs,
                }],
            ) = <[WalRecord; 1]>::try_from(block)
            else {
                return Err("snapshot does not open with its head");
            };
            self.state = Some((Database::new(RouteNetwork::new(), config), epochs));
            self.remaining = records;
            return Ok(());
        };
        self.remaining = (self.remaining)
            .checked_sub(block.len() as u64)
            .ok_or("records past the snapshot's end")?;
        for rec in block {
            if !apply_record(db, rec) {
                return Err("snapshot record rejected");
            }
        }
        Ok(())
    }

    fn corrupt(&self, at: u64, reason: &'static str) -> WalError {
        WalError::CorruptSegment {
            path: self.path.clone(),
            offset: self.offset + at,
            reason,
        }
    }
}

/// Reads and validates a snapshot file, rebuilding the database record
/// by record (every one re-validated and re-indexed, as on first insert).
/// Returns the database, the leadership history its head carries and the
/// snapshot's LSN high-water mark.
///
/// # Errors
///
/// I/O failures; [`WalError::CorruptSegment`] for a header that is not
/// the current segment header (a snapshot of the retired container
/// format reads as `"bad magic"`), a start LSN other than the file
/// name's, a file that ends before the head's count is met, and whatever
/// [`SnapshotLoad::feed`] refuses — a head of the retired layout without
/// a leadership history among it, as an `"undecodable block"` at byte
/// 20.
pub fn read_snapshot(path: &Path) -> Result<(Database, EpochHistory, u64), WalError> {
    let (lsn, bytes) = read_segment_file(path)?;
    let mut load = SnapshotLoad::new(path);
    let named = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_snapshot_name);
    if named != Some(lsn) {
        let reason = "start lsn disagrees with the file name";
        let path = path.to_path_buf();
        return Err(WalError::CorruptSegment {
            path,
            offset: 12,
            reason,
        });
    }
    match load.feed(&bytes[SEGMENT_HEADER_BYTES as usize..])? {
        Some((db, epochs)) => Ok((db, epochs, lsn)),
        None => Err(load.corrupt(0, "snapshot ends early")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{encode_block, frame_block};
    use crate::record::split_frame;
    use modb_core::{
        DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, UpdateMessage, UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("modb-wal-snapshot-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> Database {
        let network = RouteNetwork::from_routes([Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap()])
        .unwrap();
        let mut db = Database::new(network, DatabaseConfig::default());
        db.insert_stationary(StationaryObject::new(
            ObjectId(100),
            "depot",
            Point::new(12.0, 0.0),
        ))
        .unwrap();
        for id in 1..=3u64 {
            db.register_moving(MovingObject {
                id: ObjectId(id),
                name: format!("veh-{id}"),
                attr: modb_core::PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(1),
                    start_position: Point::new(10.0 * id as f64, 0.0),
                    start_arc: 10.0 * id as f64,
                    direction: Direction::Forward,
                    speed: 1.0,
                    policy: PolicyDescriptor::CostBased {
                        kind: BoundKind::Immediate,
                        update_cost: 5.0,
                    },
                },
                max_speed: 1.5,
                trip_end: None,
            })
            .unwrap();
        }
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(14.0), 0.5),
        )
        .unwrap();
        db
    }

    /// `sample_db` plus 2000 copies of vehicle 1, a body of several
    /// blocks, and its moving ids in order.
    fn many_blocks_db() -> (Database, Vec<u64>) {
        let mut db = sample_db();
        let ids: Vec<u64> = (1..=3).chain(1_000..3_000).collect();
        for &id in &ids[3..] {
            let mut obj = db.moving(ObjectId(1)).unwrap();
            obj.id = ObjectId(id);
            obj.name = format!("vehicle number {id}");
            db.register_moving(obj).unwrap();
        }
        (db, ids)
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_snapshot_name(&snapshot_file_name(42)), Some(42));
        assert_eq!(parse_snapshot_name("snap-42.snap"), None);
        assert_eq!(parse_snapshot_name("wal-00000000000000000042.log"), None);
        assert_eq!(
            parse_snapshot_name("snap-00000000000000000042.snap.tmp"),
            None,
            "in-flight tmp files are not snapshots"
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_queries() {
        let dir = tmp("round-trip");
        let db = sample_db();
        let mut epochs = EpochHistory::new();
        epochs.begin(4).unwrap();
        let path = write_snapshot(&dir, &db, &epochs, 7).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            snapshot_file_name(7)
        );
        let (restored, restored_epochs, lsn) = read_snapshot(&path).unwrap();
        assert_eq!((lsn, restored_epochs), (7, epochs));
        assert_eq!(restored.config(), db.config());
        assert_eq!(restored.network().route_ids(), db.network().route_ids());
        assert_eq!(restored.moving_count(), db.moving_count());
        assert_eq!(restored.stationary_count(), db.stationary_count());
        for t in [0.0, 5.0, 9.0] {
            for id in 1..=3u64 {
                assert_eq!(restored.moving(ObjectId(id)), db.moving(ObjectId(id)));
                assert_eq!(
                    restored.position_of(ObjectId(id), t).unwrap(),
                    db.position_of(ObjectId(id), t).unwrap()
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A name is kept inline up to 14 bytes and boxed past that; either
    /// way it comes back byte for byte from a lookup, from a snapshot of
    /// the state and from recovery of that snapshot — an empty name, 14
    /// and 15 bytes, a 15-byte name that 14 bytes would cut in the middle
    /// of a character, and longer ones.
    #[test]
    fn names_of_every_length_round_trip_through_a_snapshot() {
        let dir = tmp("name-lengths");
        let mut db = sample_db();
        let names = [
            String::new(),
            "n".repeat(14),
            "n".repeat(15),
            "n".repeat(13) + "é",
            "ü".repeat(7),
            "n".repeat(23),
            "🚕 cab 4711 · Zürich Hauptbahnhof".to_owned(),
        ];
        let template = db.moving(ObjectId(1)).unwrap();
        for (i, name) in names.iter().enumerate() {
            let id = ObjectId(10 + i as u64);
            let obj = MovingObject {
                id,
                name: name.clone(),
                ..template.clone()
            };
            db.register_moving(obj.clone()).unwrap();
            assert_eq!(db.moving(id).unwrap(), obj, "{name:?}");
        }
        write_snapshot(&dir, &db, &EpochHistory::new(), 7).unwrap();
        let recovered = crate::recover(&dir).unwrap().database;
        for (i, name) in names.iter().enumerate() {
            let id = ObjectId(10 + i as u64);
            assert_eq!(recovered.moving(id).unwrap().name, *name);
            assert_eq!(recovered.moving(id), db.moving(id));
        }
        assert_eq!(
            recovered.find_moving_by_name(&names[6]).map(|o| o.id),
            Some(ObjectId(16))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_finds_latest() {
        let dir = tmp("list");
        let db = sample_db();
        write_snapshot(&dir, &db, &EpochHistory::new(), 3).unwrap();
        write_snapshot(&dir, &db, &EpochHistory::new(), 11).unwrap();
        // A stray tmp file (simulated crash mid-write) is ignored.
        std::fs::write(dir.join("snap-00000000000000000099.snap.tmp"), b"junk").unwrap();
        let listed = list_snapshots(&dir).unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].0, 3);
        assert_eq!(listed[1].0, 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every way a snapshot can be damaged is a typed refusal at the
    /// offending byte: `(file bytes, expected offset, expected reason)`.
    #[test]
    fn corruption_detected() {
        let dir = tmp("corrupt");
        let path = write_snapshot(&dir, &many_blocks_db().0, &EpochHistory::new(), 0).unwrap();
        let good = std::fs::read(&path).unwrap();
        let mut ends = vec![SEGMENT_HEADER_BYTES as usize];
        while let Some((_, len)) = split_frame(&good[*ends.last().unwrap()..]).unwrap() {
            ends.push(ends.last().unwrap() + len);
        }
        assert!(ends.len() > 4, "a head and several blocks: {ends:?}");
        let last = ends[ends.len() - 2] as u64;
        let flip = |at: usize| {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            bad
        };
        let mut headless = encode_header(0);
        let mut payload = Vec::new();
        let route = sample_db().network().iter().next().unwrap().clone();
        encode_block(&[WalRecord::InsertRoute(route)], true, &mut payload);
        frame_block(&payload, &mut headless);
        let cases: Vec<(Vec<u8>, u64, &str)> = vec![
            (
                good[..good.len() - 1].to_vec(),
                last,
                "truncated frame payload",
            ),
            // Every frame whole, but the head's count is not met.
            (
                good[..ends[2]].to_vec(),
                ends[2] as u64,
                "snapshot ends early",
            ),
            (
                [&good[..], &good[ends[2]..ends[3]]].concat(),
                good.len() as u64,
                "records past the snapshot's end",
            ),
            (flip(good.len() - 5), last, "crc mismatch"),
            (flip(0), 0, "bad magic"),
            (b"MODB".to_vec(), 0, "short header"),
            (headless, 20, "snapshot does not open with its head"),
        ];
        for (bytes, offset, reason) in cases {
            std::fs::write(&path, bytes).unwrap();
            match read_snapshot(&path) {
                Err(WalError::CorruptSegment {
                    offset: o,
                    reason: r,
                    ..
                }) => {
                    assert_eq!((o, r), (offset, reason));
                }
                other => panic!("{reason}: got {:?}", other.map(|(.., lsn)| lsn)),
            }
        }
        // Whole and valid, but under another LSN's name.
        std::fs::write(dir.join(snapshot_file_name(5)), &good).unwrap();
        assert!(matches!(
            read_snapshot(&dir.join(snapshot_file_name(5))),
            Err(WalError::CorruptSegment {
                offset: 12,
                reason: "start lsn disagrees with the file name",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deterministic_bytes() {
        let db = sample_db();
        let (a, b) = (tmp("deterministic-a"), tmp("deterministic-b"));
        let first =
            std::fs::read(write_snapshot(&a, &db, &EpochHistory::new(), 5).unwrap()).unwrap();
        let second =
            std::fs::read(write_snapshot(&b, &db.clone(), &EpochHistory::new(), 5).unwrap())
                .unwrap();
        assert_eq!(first, second);
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    /// A body of several blocks streams to the bytes a one-shot encoding
    /// gives: the header, the head block, then each run of
    /// `SNAPSHOT_BLOCK_RECORDS` records as a block of its own.
    #[test]
    fn a_payload_of_many_chunks_is_the_one_shot_encoding() {
        let (db, ids) = many_blocks_db();
        let route = db.network().iter().next().unwrap().clone();
        let landmark = db.stationary(ObjectId(100)).unwrap().clone();
        let mut records = vec![
            WalRecord::InsertRoute(route),
            WalRecord::InsertStationary(landmark),
        ];
        for &id in &ids {
            let obj = db.moving(ObjectId(id)).unwrap();
            records.push(WalRecord::RegisterMoving(obj));
        }
        assert!(records.len() > 3 * SNAPSHOT_BLOCK_RECORDS);
        let head = [WalRecord::SnapshotHead {
            config: *db.config(),
            records: records.len() as u64,
            epochs: EpochHistory::new(),
        }];
        let mut expected = encode_header(9);
        for block in std::iter::once(&head[..]).chain(records.chunks(SNAPSHOT_BLOCK_RECORDS)) {
            let mut payload = Vec::new();
            encode_block(block, true, &mut payload);
            frame_block(&payload, &mut expected);
        }

        let dir = tmp("many-chunks");
        let path = write_snapshot(&dir, &db, &EpochHistory::new(), 9).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(read_snapshot(&path).unwrap().0.moving_count(), ids.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A block no reader would accept is refused before the snapshot
    /// replaces anything: a typed error, no file, no `.tmp` left behind.
    #[test]
    fn a_payload_over_the_length_field_is_refused() {
        let dir = tmp("too-large");
        let mut db = sample_db();
        let mut obj = db.moving(ObjectId(1)).unwrap();
        obj.id = ObjectId(4);
        obj.name = "x".repeat(crate::MAX_RECORD_BYTES as usize);
        db.register_moving(obj).unwrap();
        match write_snapshot(&dir, &db, &EpochHistory::new(), 1) {
            Err(WalError::FrameTooLarge { len, max }) => {
                assert!(len > u64::from(max) && max == crate::MAX_RECORD_BYTES);
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
