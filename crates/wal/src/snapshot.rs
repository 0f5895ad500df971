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
//! through [`apply_record`], read by the walk that replays segments:
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
//! **Shipping.** A leader ships the newest whole snapshot as it sits on
//! disk, cut into runs ([`Shipment`]); a follower feeds them to a
//! [`SnapshotReceiver`] and installs the result in place of its log and
//! snapshots: the old snapshots oldest-first, the old segments, a
//! directory sync, the rename, a directory sync. A crash after any prefix
//! of that list leaves the old state (the newest remaining snapshot and
//! its whole log), none ([`WalError::NoSnapshot`]) or the new one.
//!
//! **Memory.** [`write_snapshot`] holds the id-sorted entry references
//! [`Database::moving_objects`] iterates by (8 bytes a vehicle) and one
//! block of records at a time;
//! [`read_snapshot`] holds the file's bytes once and applies them block
//! by block; a [`SnapshotReceiver`] applies each run as it arrives.
//! Neither direction holds a second copy of the fleet.

use std::fs::{self, File};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use modb_core::{Database, StationaryObject};
use modb_routes::RouteNetwork;

use crate::block::{decode_block, walk_blocks, Sealer};
use crate::epoch::EpochHistory;
use crate::error::WalError;
use crate::record::{split_frame, FrameEnd, WalRecord};
use crate::recovery::apply_record;
use crate::segment::SEGMENT_HEADER_BYTES;
use crate::segment::{encode_header, list_named, list_segments, read_segment_file};
use crate::ship::take_frames;
use crate::writer::sync_dir;

/// Records per block of a snapshot's body: enough for the LZ stage to
/// find the fleet's repeats (512 shrank the ledger's snapshot by 3 %
/// more), few enough that the block the writer holds leaves no heap
/// growth behind (512 left ≈ 0.17 MiB more resident after a set-up
/// snapshot) and every frame stays far below [`crate::MAX_RECORD_BYTES`].
pub(crate) const SNAPSHOT_BLOCK_RECORDS: usize = 128;

/// How a snapshot's file name is formed around its LSN.
pub(crate) const SNAPSHOT_NAME: (&str, &str) = ("snap-", ".snap");

/// How the temp file [`write_snapshot`] renames into place is named.
pub(crate) const SNAPSHOT_TMP_NAME: (&str, &str) = ("snap-", ".snap.tmp");

/// Where a [`SnapshotReceiver`] builds the snapshot it receives.
const INCOMING: &str = "incoming.snap.tmp";

/// File name for the snapshot taken at `lsn` (zero-padded so
/// lexicographic order equals LSN order).
pub fn snapshot_file_name(lsn: u64) -> String {
    format!("snap-{lsn:020}.snap")
}

/// Lists the snapshot files in `dir`, sorted by LSN. Non-snapshot files
/// (including in-flight `.tmp` files) are ignored.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    list_named(dir, SNAPSHOT_NAME)
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
    let file = File::create(&tmp_path)?;
    if let Err(e) = stream_snapshot(file, db, epochs, lsn) {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    publish(dir, &tmp_path, &final_path)?;
    Ok(final_path)
}

/// Gives the synced file `tmp` in `dir` its real name `to` and makes the
/// name durable: how every snapshot file, written or received, appears.
fn publish(dir: &Path, tmp: &Path, to: &Path) -> Result<(), WalError> {
    fs::rename(tmp, to)?;
    sync_dir(dir)
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
/// else the load refuses — a head of the retired layout without a
/// leadership history among it, as an `"undecodable block"` at byte 20.
pub fn read_snapshot(path: &Path) -> Result<(Database, EpochHistory, u64), WalError> {
    let (lsn, bytes) = read_segment_file(path)?;
    let mut load = SnapshotReceiver::new(path.to_path_buf(), lsn, None);
    if !load.feed(&bytes[SEGMENT_HEADER_BYTES as usize..])? {
        return Err(load.corrupt(0, "snapshot ends early"));
    }
    let (db, epochs) = load.state.take().expect("a whole load holds its state");
    Ok((db, epochs, lsn))
}

/// The newest whole snapshot of a directory, read once: the bytes
/// checked are the bytes shipped, whatever compaction does meanwhile.
#[derive(Debug)]
pub struct Shipment {
    lsn: u64,
    bytes: Vec<u8>,
}

impl Shipment {
    /// The newest snapshot in `dir` whose header names its file's LSN,
    /// whose frames pass their CRC and whose head promises the records
    /// its blocks hold (only the head is decoded).
    ///
    /// # Errors
    ///
    /// [`WalError::NoSnapshot`] when none is whole; I/O failures.
    pub fn newest(dir: &Path) -> Result<Self, WalError> {
        for (lsn, path) in list_snapshots(dir)?.into_iter().rev() {
            let Ok((_, bytes)) = read_segment_file(&path) else {
                continue;
            };
            let body = &bytes[SEGMENT_HEADER_BYTES as usize..];
            let all = take_frames(body, usize::MAX);
            let head = split_frame(body).ok().flatten();
            let head = head.and_then(|(payload, _)| decode_block(payload).ok());
            let sealed = matches!(
                head.as_deref(),
                Some([WalRecord::SnapshotHead { records, .. }]) if records + 1 == all.records
            );
            if sealed && all.bytes == body.len() {
                return Ok(Shipment { lsn, bytes });
            }
        }
        Err(WalError::NoSnapshot(dir.to_path_buf()))
    }

    /// The LSN the snapshot was taken at.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// The snapshot in runs of whole frames of `chunk_records` records
    /// (or one block past them), what a [`SnapshotReceiver`] is fed.
    pub fn runs(&self, chunk_records: usize) -> impl Iterator<Item = SnapshotRun> + '_ {
        let mut at = SEGMENT_HEADER_BYTES as usize;
        std::iter::from_fn(move || {
            let run = take_frames(&self.bytes[at..], chunk_records.max(1));
            let (offset, frames) = (at as u64, self.bytes[at..at + run.bytes].to_vec());
            at += run.bytes;
            (run.bytes > 0).then_some(SnapshotRun {
                lsn: self.lsn,
                offset,
                frames,
            })
        })
    }
}

/// A run of a [`Shipment`]: whole frames of the snapshot taken at `lsn`,
/// verbatim, starting `offset` bytes into its file.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRun {
    /// The snapshot's LSN.
    pub lsn: u64,
    /// Where the frames start in the snapshot file.
    pub offset: u64,
    /// The frame bytes as stored.
    pub frames: Vec<u8>,
}

/// A snapshot being loaded block by block: the head founds the database
/// and names the history, every later record must be accepted.
/// [`read_snapshot`] feeds it a whole file; a follower, the runs of a
/// [`Shipment`], each continuing the last and appended to a temp file
/// that a receiver dropped before its install removes.
#[derive(Debug)]
pub struct SnapshotReceiver {
    /// Names the file in errors: the one read, or the temp file.
    path: PathBuf,
    lsn: u64,
    /// Bytes of the file validated so far, header included.
    offset: u64,
    /// The database the head founded and the history it carried.
    state: Option<(Database, EpochHistory)>,
    /// Records the head promised that have not been applied yet.
    remaining: u64,
    /// The temp file of a snapshot being received.
    file: Option<File>,
}

impl SnapshotReceiver {
    /// A load of the snapshot at `lsn` in the file at `path`, ready for
    /// the frames after its header.
    fn new(path: PathBuf, lsn: u64, file: Option<File>) -> Self {
        let (offset, state, remaining) = (SEGMENT_HEADER_BYTES, None, 0);
        SnapshotReceiver {
            path,
            lsn,
            offset,
            state,
            remaining,
            file,
        }
    }

    /// Creates `dir` if it is missing and removes the temp file a crash
    /// left in it; I/O failures are errors.
    pub fn prepare(dir: &Path) -> Result<(), WalError> {
        fs::create_dir_all(dir)?;
        match fs::remove_file(dir.join(INCOMING)) {
            Err(e) if e.kind() != ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// A receiver in `dir` for the snapshot whose first run is `first`.
    ///
    /// # Errors
    ///
    /// [`WalError::Decode`] when `first` is not a first run; I/O failures
    /// creating the temp file.
    pub fn open(dir: &Path, first: &SnapshotRun) -> Result<Self, WalError> {
        if first.offset != SEGMENT_HEADER_BYTES {
            return Err(WalError::Decode("snapshot run with no first run before it"));
        }
        let path = dir.join(INCOMING);
        let mut file = File::create(&path)?;
        file.write_all(&encode_header(first.lsn))?;
        Ok(SnapshotReceiver::new(path, first.lsn, Some(file)))
    }

    /// Takes the next run; `true` once the last record has validated and
    /// the temp file is synced.
    ///
    /// # Errors
    ///
    /// [`WalError::Decode`] for a run that does not continue the last;
    /// [`WalError::CorruptSegment`] for one that does not load; I/O
    /// failures.
    pub fn receive(&mut self, run: &SnapshotRun) -> Result<bool, WalError> {
        if (self.lsn, self.offset) != (run.lsn, run.offset) {
            return Err(WalError::Decode("snapshot run does not continue the last"));
        }
        let whole = self.feed(&run.frames)?;
        let file = self.file.as_mut().expect("a receiver writes its temp file");
        file.write_all(&run.frames)?;
        if whole {
            file.sync_data()?;
        }
        Ok(whole)
    }

    /// Installs the received snapshot in place of the directory's log
    /// and snapshots (see the module docs), which nothing may write
    /// meanwhile, and returns its database and leadership history.
    ///
    /// # Errors
    ///
    /// [`WalError::Decode`] before the last record was received; I/O
    /// failures.
    pub fn install(mut self) -> Result<(Database, EpochHistory), WalError> {
        let whole = self.remaining == 0;
        let received = self.state.take().filter(|_| whole);
        let received = received.ok_or(WalError::Decode("snapshot not received whole"))?;
        let dir = self.path.parent().unwrap_or(Path::new("."));
        carry_out(dir, &install_plan(dir, self.lsn)?)?;
        Ok(received)
    }

    /// Applies the next run of whole frames; `true` once the head and
    /// every record it promised are applied. A torn or undecodable frame,
    /// a first block that is not the head alone, a record past the
    /// head's count or one the database rejects is a
    /// [`WalError::CorruptSegment`] at its frame.
    fn feed(&mut self, frames: &[u8]) -> Result<bool, WalError> {
        let walked = walk_blocks(frames, |block, at| {
            self.apply(block).map_err(|reason| (at, reason))
        });
        let (at, reason) = match walked {
            Ok((clean, FrameEnd::Clean)) => {
                self.offset += clean as u64;
                return Ok(self.state.is_some() && self.remaining == 0);
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
            apply_record(db, rec).map_err(|_| "snapshot record rejected")?;
        }
        Ok(())
    }

    fn corrupt(&self, at: u64, reason: &'static str) -> WalError {
        WalError::corrupt(&self.path, self.offset + at, reason)
    }
}

impl Drop for SnapshotReceiver {
    fn drop(&mut self) {
        // A received file is gone already once installed.
        if self.file.is_some() {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// One file operation of an install.
#[derive(Debug)]
enum FileOp {
    Remove(PathBuf),
    SyncDir,
    Publish { tmp: PathBuf, to: PathBuf },
}

/// The install of the snapshot at `lsn` received in `dir`, in order.
fn install_plan(dir: &Path, lsn: u64) -> Result<Vec<FileOp>, WalError> {
    let old = list_snapshots(dir)?.into_iter().chain(list_segments(dir)?);
    let mut ops: Vec<FileOp> = old.map(|(_, path)| FileOp::Remove(path)).collect();
    let (tmp, to) = (dir.join(INCOMING), dir.join(snapshot_file_name(lsn)));
    ops.extend([FileOp::SyncDir, FileOp::Publish { tmp, to }]);
    Ok(ops)
}

/// Carries out `ops` in `dir`, in order, up to the first failure.
fn carry_out(dir: &Path, ops: &[FileOp]) -> Result<(), WalError> {
    for op in ops {
        match op {
            FileOp::Remove(path) => fs::remove_file(path)?,
            FileOp::SyncDir => sync_dir(dir)?,
            FileOp::Publish { tmp, to } => publish(dir, tmp, to)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{encode_block, frame_block};
    use crate::recovery::recover;
    use crate::writer::{WalOptions, WalWriter};
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
        let parse = |name: &str| crate::segment::parse_name(name, SNAPSHOT_NAME);
        assert_eq!(parse(&snapshot_file_name(42)), Some(42));
        assert_eq!(parse("snap-42.snap"), None);
        assert_eq!(parse("wal-00000000000000000042.log"), None);
        assert_eq!(
            parse("snap-00000000000000000042.snap.tmp"),
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

    /// The files of `dir` by name.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// A receiver opens only on a first run and takes only the run that
    /// continues the last; dropped before its install, it leaves nothing
    /// behind. Fed every run, it installs the snapshot byte for byte, and
    /// a temp file a crash left is removed when the directory is
    /// prepared again.
    #[test]
    fn a_receiver_takes_runs_in_order_and_leaves_nothing_when_dropped() {
        let (leader, dir) = (tmp("receiver-leader"), tmp("receiver"));
        let (db, ids) = many_blocks_db();
        let sent = write_snapshot(&leader, &db, &EpochHistory::new(), 9).unwrap();
        let shipment = Shipment::newest(&leader).unwrap();
        let runs: Vec<SnapshotRun> = shipment.runs(SNAPSHOT_BLOCK_RECORDS).collect();
        assert!(runs.len() >= 3, "{} runs", runs.len());
        SnapshotReceiver::prepare(&dir).unwrap();
        assert!(SnapshotReceiver::open(&dir, &runs[1]).is_err());

        let mut receiver = SnapshotReceiver::open(&dir, &runs[0]).unwrap();
        assert!(!receiver.receive(&runs[0]).unwrap());
        let foreign = SnapshotRun {
            lsn: 10,
            ..runs[1].clone()
        };
        for stray in [&runs[0], &runs[2], &foreign] {
            let refused = receiver.receive(stray);
            assert!(matches!(refused, Err(WalError::Decode(_))), "{stray:?}");
        }
        assert_eq!(names(&dir), [INCOMING]);
        drop(receiver);
        assert_eq!(names(&dir), [] as [&str; 0], "the temp file goes with it");

        let mut receiver = SnapshotReceiver::open(&dir, &runs[0]).unwrap();
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(receiver.receive(run).unwrap(), i + 1 == runs.len());
        }
        let (installed, _) = receiver.install().unwrap();
        assert_eq!(installed.moving_count(), ids.len());
        assert_eq!(names(&dir), [snapshot_file_name(9)]);
        assert_eq!(
            fs::read(dir.join(snapshot_file_name(9))).unwrap(),
            fs::read(&sent).unwrap()
        );

        fs::write(dir.join(INCOMING), b"left by a crash").unwrap();
        SnapshotReceiver::prepare(&dir).unwrap();
        assert_eq!(names(&dir), [snapshot_file_name(9)]);
        fs::remove_dir_all(&leader).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log of several segments with snapshots at 0 and at 20 in `dir`;
    /// returns its frontier.
    fn old_log(dir: &Path) -> u64 {
        let mut db = sample_db();
        let opts = WalOptions {
            max_segment_bytes: 256,
        };
        let mut wal = WalWriter::create(dir, opts).unwrap();
        write_snapshot(dir, &db, &EpochHistory::new(), 0).unwrap();
        for i in 0..40u64 {
            if i == 20 {
                write_snapshot(dir, &db, &EpochHistory::new(), i).unwrap();
            }
            let msg =
                UpdateMessage::basic(6.0 + i as f64, UpdatePosition::Arc(40.0 + i as f64), 1.0);
            let rec = WalRecord::Update {
                id: ObjectId(1 + i % 3),
                msg,
            };
            apply_record(&mut db, rec.clone()).unwrap();
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        wal.next_lsn()
    }

    /// A crash after any prefix of an install's file operations leaves a
    /// directory that recovery reads as the old state (the newest
    /// remaining snapshot and its whole log), as no state at all, or as
    /// the received snapshot with no old record replayed onto it — never
    /// a log that no longer joins its snapshot. The received snapshot
    /// sits in the temp file its receiver synced.
    #[test]
    fn every_prefix_of_an_install_recovers_the_old_state_none_or_the_new() {
        let (template, received, case) = (
            tmp("install-template"),
            tmp("install-received"),
            tmp("install-case"),
        );
        let frontier = old_log(&template);
        assert_eq!(list_snapshots(&template).unwrap().len(), 2);
        assert!(list_segments(&template).unwrap().len() > 3);
        let mut new_db = sample_db();
        let landmark = StationaryObject::new(ObjectId(200), "new", modb_geom::Point::new(3.0, 0.0));
        new_db.insert_stationary(landmark).unwrap();
        let snapshot = write_snapshot(&received, &new_db, &EpochHistory::new(), 7).unwrap();

        let mut prefixes = 0;
        for k in 0.. {
            let _ = fs::remove_dir_all(&case);
            fs::create_dir_all(&case).unwrap();
            for entry in fs::read_dir(&template).unwrap() {
                let entry = entry.unwrap();
                fs::copy(entry.path(), case.join(entry.file_name())).unwrap();
            }
            fs::copy(&snapshot, case.join(INCOMING)).unwrap();
            let ops = install_plan(&case, 7).unwrap();
            if k > ops.len() {
                break;
            }
            carry_out(&case, &ops[..k]).unwrap();
            let snapshots = list_snapshots(&case).unwrap();
            match recover(&case) {
                Err(WalError::NoSnapshot(_)) => assert_eq!(snapshots, [], "prefix {k}"),
                Ok(new) if new.report.snapshot_lsn == 7 => {
                    let report = &new.report;
                    assert_eq!((k, snapshots.len()), (ops.len(), 1));
                    assert_eq!((report.next_lsn, report.replayed + report.rejected), (7, 0));
                    assert_eq!(new.database.stationary_count(), 2);
                }
                Ok(old) => {
                    let newest = snapshots.last().map(|&(lsn, _)| lsn);
                    assert_eq!(Some(old.report.snapshot_lsn), newest, "prefix {k}");
                    assert_eq!(old.report.next_lsn, frontier, "prefix {k}");
                }
                Err(e) => panic!("prefix {k} of {ops:?}: {e}"),
            }
            prefixes += 1;
        }
        assert!(prefixes > 8, "{prefixes} prefixes");
        for dir in [template, received, case] {
            fs::remove_dir_all(dir).unwrap();
        }
    }
}
