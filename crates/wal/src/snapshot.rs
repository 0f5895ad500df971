//! Point-in-time snapshots of full [`modb_core::Database`] state.
//!
//! A snapshot bounds recovery time: instead of replaying the log from LSN
//! 0, recovery loads the latest valid snapshot and replays only the
//! records logged after it. Snapshots also carry what the log alone
//! cannot reconstruct — the route network seeded at construction and the
//! [`DatabaseConfig`].
//!
//! File layout (`snap-<lsn>.snap`):
//!
//! ```text
//! [magic: 8 bytes "MODBSNP1"] [version: u32 LE]
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The payload holds the LSN high-water mark (every record with
//! `lsn < snapshot_lsn` is already reflected in the snapshot), the
//! config, the network, the stationary objects and the moving objects —
//! one record each, the attribute in force. Writes are atomic: the bytes go
//! to a `.tmp` file which is fsynced, renamed over the final name, and
//! the directory is fsynced — a crash mid-write leaves either the old
//! state or the new, never a half-written snapshot under the real name.
//!
//! **Memory.** Neither direction holds a second copy of the fleet.
//! [`write_snapshot`] streams: it writes a 20-byte placeholder, encodes
//! the payload into one reusable 64 KiB chunk, writes each full chunk out
//! and folds it into a running CRC-32 ([`crc32_update`]) and byte count,
//! then writes the real header over the placeholder. Beside the chunk,
//! its one transient is the id-sorted list of object references, 8 bytes
//! a vehicle. [`read_snapshot`] holds the file's bytes once, runs its
//! checks on them, and decodes from them straight into the database, one
//! object at a time.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use modb_core::{Database, DatabaseConfig, MovingObject, StationaryObject};
use modb_routes::RouteNetwork;

use crate::codec::{put_u32, put_u64, ByteReader, WalCodec};
use crate::crc32::{crc32, crc32_update};
use crate::error::WalError;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MODBSNP1";
/// Current snapshot format version, the only one read. Version 4 is
/// version 3 with every retired slot spliced out: the config is four
/// `f64`s (the speed-band list is one slab duration again, and the
/// history-capacity and change-log-capacity words are gone), and a
/// moving object is its record alone, with no attribute-history arm.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Magic, version, payload length and payload CRC.
const HEADER_BYTES: usize = 20;
/// Payload bytes gathered before a write to the file.
const CHUNK_BYTES: usize = 64 * 1024;

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

/// The payload on its way to the file: encoded into one chunk, each full
/// chunk written out and folded into the running CRC and length.
struct PayloadWriter {
    file: File,
    chunk: Vec<u8>,
    crc: u32,
    len: u64,
}

impl PayloadWriter {
    /// Encodes `value` into the chunk; writes the chunk out once full.
    fn put(&mut self, value: &impl WalCodec) -> Result<(), WalError> {
        value.encode(&mut self.chunk);
        if self.chunk.len() >= CHUNK_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// A `u64` count, then each object (the callers sort them by id, so
    /// the same state always produces the same bytes whatever order its
    /// tables iterate in).
    fn put_all<T: WalCodec>(&mut self, objects: &[&T]) -> Result<(), WalError> {
        put_u64(&mut self.chunk, objects.len() as u64);
        for obj in objects {
            self.put(*obj)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), WalError> {
        self.crc = crc32_update(self.crc, &self.chunk);
        self.len += self.chunk.len() as u64;
        self.file.write_all(&self.chunk)?;
        self.chunk.clear();
        Ok(())
    }
}

/// The header's `u32` length field for a payload of `len` bytes, or the
/// typed refusal of a payload too long for it.
fn payload_len(len: u64) -> Result<u32, WalError> {
    u32::try_from(len).map_err(|_| WalError::FrameTooLarge { len, max: u32::MAX })
}

/// Streams the snapshot of `db` at `lsn` into `file` — placeholder
/// header, payload chunk by chunk, real header — and syncs it.
fn stream_snapshot(file: File, db: &Database, lsn: u64) -> Result<(), WalError> {
    let mut out = PayloadWriter {
        file,
        // Headroom for the value that crosses the mark.
        chunk: Vec::with_capacity(CHUNK_BYTES + CHUNK_BYTES / 16),
        crc: 0,
        len: 0,
    };
    out.file.write_all(&[0; HEADER_BYTES])?;
    put_u64(&mut out.chunk, lsn);
    out.put(db.config())?;
    out.put(db.network())?;
    let mut stationary: Vec<&StationaryObject> = db.stationary_objects().collect();
    stationary.sort_unstable_by_key(|o| o.id);
    out.put_all(&stationary)?;
    let mut moving: Vec<&MovingObject> = db.moving_objects().collect();
    moving.sort_unstable_by_key(|o| o.id);
    out.put_all(&moving)?;
    out.flush()?;

    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut header, SNAPSHOT_VERSION);
    put_u32(&mut header, payload_len(out.len)?);
    put_u32(&mut header, out.crc);
    out.file.seek(SeekFrom::Start(0))?;
    out.file.write_all(&header)?;
    out.file.sync_data()?;
    Ok(())
}

fn sync_dir(dir: &Path) -> Result<(), WalError> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Writes a snapshot of `db` into `dir` with `lsn` as its high-water
/// mark, atomically (tmp + fsync + rename + dir fsync). Returns the final
/// path. An existing snapshot at the same LSN is replaced — the content
/// is necessarily identical. The bytes are streamed (see the module
/// docs): the write holds a 64 KiB chunk and 8 bytes a vehicle, not the
/// file.
///
/// Watermark contract: `db` must reflect **at least** every record with
/// `lsn < snapshot_lsn` — capturing later mutations too is fine, because
/// replay from the watermark re-applies the overlap idempotently
/// (re-delivered updates are no-ops, duplicate registrations re-reject).
/// `DurableDatabase::snapshot` in `modb-server` establishes this by
/// applying mutations before logging them and reading `next_lsn` under
/// the writer lock before capturing state.
///
/// # Errors
///
/// I/O failures, and [`WalError::FrameTooLarge`] for a payload longer
/// than the header's `u32` length field can state. Either way the `.tmp`
/// file is removed and nothing is replaced.
pub fn write_snapshot(dir: &Path, db: &Database, lsn: u64) -> Result<PathBuf, WalError> {
    fs::create_dir_all(dir)?;
    let final_path = dir.join(snapshot_file_name(lsn));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(lsn)));
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp_path)?;
    if let Err(e) = stream_snapshot(file, db, lsn) {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Reads and validates a snapshot file, rebuilding the database object by
/// object (every one re-validated and re-indexed, as on first insert).
/// Returns the database and the snapshot's LSN high-water mark. The file
/// is read once; [`decode_snapshot`] does the rest.
///
/// # Errors
///
/// I/O failures, and those of [`decode_snapshot`].
pub fn read_snapshot(path: &Path) -> Result<(Database, u64), WalError> {
    decode_snapshot(path, &fs::read(path)?)
}

/// Validates and decodes the bytes of a snapshot file, checking in this
/// order: header length, magic, version, payload length, CRC — then
/// decodes straight into [`Database::new`] through `insert_stationary` /
/// `register_moving`, in file order. A caller that already holds the bytes
/// (a leader about to ship them, a follower that received them) checks
/// exactly those; `path` only names the file in errors.
///
/// # Errors
///
/// [`WalError::BadSnapshot`] for magic/version/length/CRC/decode
/// failures — a snapshot of an older version is refused as
/// `"unsupported version"`; [`WalError::Core`] when the decoded state
/// fails database validation.
pub fn decode_snapshot(path: &Path, bytes: &[u8]) -> Result<(Database, u64), WalError> {
    let bad = |reason: &'static str| WalError::BadSnapshot {
        path: path.to_path_buf(),
        reason,
    };
    if bytes.len() < HEADER_BYTES {
        return Err(bad("short header"));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(bad("bad magic"));
    }
    let mut r = ByteReader::new(&bytes[8..HEADER_BYTES]);
    let version = r.u32().expect("header length checked");
    let len = r.u32().expect("header length checked") as usize;
    let crc = r.u32().expect("header length checked");
    if version != SNAPSHOT_VERSION {
        return Err(bad("unsupported version"));
    }
    if bytes.len() != HEADER_BYTES + len {
        return Err(bad("length mismatch"));
    }
    let payload = &bytes[HEADER_BYTES..];
    if crc32(payload) != crc {
        return Err(bad("crc mismatch"));
    }

    let undecodable = |_: WalError| bad("undecodable payload");
    let mut r = ByteReader::new(payload);
    let lsn = r.u64().map_err(undecodable)?;
    let config = DatabaseConfig::decode(&mut r).map_err(undecodable)?;
    let network = RouteNetwork::decode(&mut r).map_err(undecodable)?;
    let mut db = Database::new(network, config);
    for _ in 0..r.u64().map_err(undecodable)? {
        db.insert_stationary(StationaryObject::decode(&mut r).map_err(undecodable)?)?;
    }
    for _ in 0..r.u64().map_err(undecodable)? {
        db.register_moving(MovingObject::decode(&mut r).map_err(undecodable)?)?;
    }
    if !r.is_empty() {
        return Err(bad("undecodable payload"));
    }
    Ok((db, lsn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{ObjectId, PolicyDescriptor, UpdateMessage, UpdatePosition};
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
        let path = write_snapshot(&dir, &db, 7).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            snapshot_file_name(7)
        );
        let (restored, lsn) = read_snapshot(&path).unwrap();
        assert_eq!(lsn, 7);
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

    #[test]
    fn list_finds_latest() {
        let dir = tmp("list");
        let db = sample_db();
        write_snapshot(&dir, &db, 3).unwrap();
        write_snapshot(&dir, &db, 11).unwrap();
        // A stray tmp file (simulated crash mid-write) is ignored.
        std::fs::write(dir.join("snap-00000000000000000099.snap.tmp"), b"junk").unwrap();
        let listed = list_snapshots(&dir).unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].0, 3);
        assert_eq!(listed[1].0, 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let dir = tmp("corrupt");
        let db = sample_db();
        let path = write_snapshot(&dir, &db, 0).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Truncated.
        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(WalError::BadSnapshot {
                reason: "length mismatch",
                ..
            })
        ));
        // Flipped payload byte.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 5] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(WalError::BadSnapshot {
                reason: "crc mismatch",
                ..
            })
        ));
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(WalError::BadSnapshot {
                reason: "bad magic",
                ..
            })
        ));
        // Short file.
        std::fs::write(&path, b"MODB").unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(WalError::BadSnapshot {
                reason: "short header",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deterministic_bytes() {
        let db = sample_db();
        let (a, b) = (tmp("deterministic-a"), tmp("deterministic-b"));
        let first = std::fs::read(write_snapshot(&a, &db, 5).unwrap()).unwrap();
        let second = std::fs::read(write_snapshot(&b, &db.clone(), 5).unwrap()).unwrap();
        assert_eq!(first, second);
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    /// A payload spanning several chunks streams to the bytes a one-shot
    /// encoding gives: header, length and CRC included.
    #[test]
    fn a_payload_of_many_chunks_is_the_one_shot_encoding() {
        let mut db = sample_db();
        let ids: Vec<u64> = (1..=3).chain(1_000..3_000).collect();
        for &id in &ids[3..] {
            let mut obj = db.moving(ObjectId(1)).unwrap().clone();
            obj.id = ObjectId(id);
            obj.name = format!("vehicle number {id}");
            db.register_moving(obj).unwrap();
        }
        let mut payload = Vec::new();
        put_u64(&mut payload, 9);
        db.config().encode(&mut payload);
        db.network().encode(&mut payload);
        put_u64(&mut payload, 1);
        db.stationary(ObjectId(100)).unwrap().encode(&mut payload);
        put_u64(&mut payload, ids.len() as u64);
        for &id in &ids {
            db.moving(ObjectId(id)).unwrap().encode(&mut payload);
        }
        assert!(payload.len() > 2 * CHUNK_BYTES, "{} bytes", payload.len());
        let mut expected = SNAPSHOT_MAGIC.to_vec();
        put_u32(&mut expected, SNAPSHOT_VERSION);
        put_u32(&mut expected, payload.len() as u32);
        put_u32(&mut expected, crc32(&payload));
        expected.extend_from_slice(&payload);

        let dir = tmp("many-chunks");
        let path = write_snapshot(&dir, &db, 9).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(read_snapshot(&path).unwrap().0.moving_count(), ids.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The length field is a `u32`: a payload one byte longer is refused
    /// typed instead of wrapping into a file recovery would reject.
    #[test]
    fn a_payload_over_the_length_field_is_refused() {
        assert_eq!(payload_len(0).unwrap(), 0);
        assert_eq!(payload_len(u64::from(u32::MAX)).unwrap(), u32::MAX);
        for len in [u64::from(u32::MAX) + 1, u64::MAX] {
            match payload_len(len) {
                Err(WalError::FrameTooLarge { len: l, max }) => {
                    assert_eq!((l, max), (len, u32::MAX));
                }
                other => panic!("{len}: expected a typed refusal, got {other:?}"),
            }
        }
    }
}
