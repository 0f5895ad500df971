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

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use modb_core::{Database, DatabaseConfig, MovingObject, StationaryObject};
use modb_routes::RouteNetwork;

use crate::codec::{put_u32, put_u64, ByteReader, WalCodec};
use crate::crc32::crc32;
use crate::error::WalError;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MODBSNP1";
/// Current snapshot format version, the only one read. Version 4 is
/// version 3 with every retired slot spliced out: the config is four
/// `f64`s (the speed-band list is one slab duration again, and the
/// history-capacity and change-log-capacity words are gone), and a
/// moving object is its record alone, with no attribute-history arm.
pub const SNAPSHOT_VERSION: u32 = 4;

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

/// Decoded snapshot payload: `(lsn, config, network, stationary,
/// moving)`.
type DecodedSnapshot = (
    u64,
    DatabaseConfig,
    RouteNetwork,
    Vec<StationaryObject>,
    Vec<MovingObject>,
);

fn encode_snapshot(db: &Database, lsn: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4096);
    put_u64(&mut payload, lsn);
    db.config().encode(&mut payload);
    db.network().encode(&mut payload);

    // Sort by id so the same state always produces the same bytes
    // (HashMap iteration order is seeded per process).
    let mut stationary: Vec<&StationaryObject> = db.stationary_objects().collect();
    stationary.sort_unstable_by_key(|o| o.id);
    put_u64(&mut payload, stationary.len() as u64);
    for obj in stationary {
        obj.encode(&mut payload);
    }

    let mut moving: Vec<&MovingObject> = db.moving_objects().collect();
    moving.sort_unstable_by_key(|o| o.id);
    put_u64(&mut payload, moving.len() as u64);
    for obj in moving {
        obj.encode(&mut payload);
    }

    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
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
/// is necessarily identical.
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
/// I/O failures.
pub fn write_snapshot(dir: &Path, db: &Database, lsn: u64) -> Result<PathBuf, WalError> {
    fs::create_dir_all(dir)?;
    let bytes = encode_snapshot(db, lsn);
    let final_path = dir.join(snapshot_file_name(lsn));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(lsn)));
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp_path)?;
    file.write_all(&bytes)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Reads and validates a snapshot file, rebuilding the database through
/// [`Database::from_parts`] (which re-validates and re-indexes every
/// object). Returns the database and the snapshot's LSN high-water mark.
///
/// # Errors
///
/// [`WalError::BadSnapshot`] for magic/version/length/CRC/decode
/// failures — a snapshot of an older version is refused as
/// `"unsupported version"` and the file left as it is; [`WalError::Core`]
/// when the decoded state fails database validation.
pub fn read_snapshot(path: &Path) -> Result<(Database, u64), WalError> {
    let bad = |reason: &'static str| WalError::BadSnapshot {
        path: path.to_path_buf(),
        reason,
    };
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 20 {
        return Err(bad("short header"));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(bad("bad magic"));
    }
    let mut r = ByteReader::new(&bytes[8..20]);
    let version = r.u32().expect("header length checked");
    let len = r.u32().expect("header length checked") as usize;
    let crc = r.u32().expect("header length checked");
    if version != SNAPSHOT_VERSION {
        return Err(bad("unsupported version"));
    }
    if bytes.len() != 20 + len {
        return Err(bad("length mismatch"));
    }
    let payload = &bytes[20..];
    if crc32(payload) != crc {
        return Err(bad("crc mismatch"));
    }

    let mut r = ByteReader::new(payload);
    let parse = (|| -> Result<DecodedSnapshot, WalError> {
        let lsn = r.u64()?;
        let config = DatabaseConfig::decode(&mut r)?;
        let network = RouteNetwork::decode(&mut r)?;
        let n_stationary = r.u64()? as usize;
        let mut stationary = Vec::with_capacity(n_stationary.min(4096));
        for _ in 0..n_stationary {
            stationary.push(StationaryObject::decode(&mut r)?);
        }
        let n_moving = r.u64()? as usize;
        let mut moving = Vec::with_capacity(n_moving.min(4096));
        for _ in 0..n_moving {
            moving.push(MovingObject::decode(&mut r)?);
        }
        if !r.is_empty() {
            return Err(WalError::Decode("trailing bytes in snapshot payload"));
        }
        Ok((lsn, config, network, stationary, moving))
    })();
    let (lsn, config, network, stationary, moving) =
        parse.map_err(|_| bad("undecodable payload"))?;
    let db = Database::from_parts(network, config, stationary, moving)?;
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
        assert_eq!(encode_snapshot(&db, 5), encode_snapshot(&db, 5));
    }
}
