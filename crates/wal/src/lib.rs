//! # modb-wal — durability for the moving-objects database
//!
//! The paper's DBMS ([Wolfson, Chamberlain, Dao, Jiang, Mendez; ICDE
//! 1998]) keeps every position attribute in memory; this crate makes that
//! state survive a crash. A log directory holds `wal-<lsn>.log` segments
//! and `snap-<lsn>.snap` snapshots and nothing else. Three pieces:
//!
//! - **Write-ahead log** ([`WalWriter`] / [`SharedWal`]): every database
//!   mutation — object registration, position update, removal, route
//!   insertion — is a [`WalRecord`], appended (right after it is
//!   applied, and before it is acknowledged — DESIGN §7) as part of a
//!   varint-length-prefixed, CRC32-checksummed frame holding one
//!   LZ-compressed block of records whose position updates are stored
//!   as columns of byte planes ([`block`]; segment format 5,
//!   [`SEGMENT_VERSION`]) — or, for a block of one basic position update
//!   (each acknowledged single update), that record alone: its object id
//!   and raw floats, 31 bytes framed for a small id. The
//!   writer seals every block with one [`block`] sealer whose tables and
//!   buffers it keeps, so an append allocates nothing. Segment
//!   files rotate at a size threshold. A [`SharedWal`] decides when a
//!   record is appended and when it is durable ([`writer`]): its one
//!   write call keeps the tail and cuts its blocks, every fsync advances
//!   its one durable watermark, an acknowledged write waits on its group
//!   commit ([`commit`]), and any I/O failure on it is sticky, so no ack
//!   is issued for a record the log cannot vouch for.
//! - **Snapshots** ([`write_snapshot`] / [`read_snapshot`]): atomic
//!   point-in-time captures of full database state at a log LSN. A
//!   snapshot is a log prefix: a sealed file of the segment layout
//!   holding a head record (config, record count, leadership history),
//!   then the routes, landmarks and vehicles as registration records.
//!   Replication ships both as they sit on disk: the log as
//!   [`RawChunk`]s, a snapshot as a [`Shipment`] a [`SnapshotReceiver`]
//!   loads and installs.
//! - **Recovery** ([`recover`]): loads the newest readable snapshot,
//!   replays newer log records through the ordinary mutation methods
//!   (so restored state re-validates and re-indexes identically), and
//!   truncates a torn tail left by a crash mid-append instead of
//!   failing — while refusing to skip interior corruption or a log that
//!   does not continue the snapshot. Snapshot and segments go through
//!   one replay loop (`block::walk_blocks`), block by block. The leadership
//!   history ([`EpochHistory`]) is read from the log the same way: the
//!   snapshot head's spans plus every `LeaderEpoch` seal replayed after
//!   it.
//!
//! Update records are logged whether or not the database accepts them;
//! acceptance is re-derived deterministically on replay. The log is
//! therefore also a complete, replayable trace of the update stream —
//! useful on its own for the indexing experiments of §4.
//!
//! ```
//! use modb_wal::{recover, apply_record, EpochHistory, WalOptions, WalRecord, WalWriter, write_snapshot};
//! use modb_core::{Database, DatabaseConfig, ObjectId, StationaryObject};
//! # use modb_geom::Point;
//! # use modb_routes::{Route, RouteId, RouteNetwork};
//! # let network = RouteNetwork::from_routes([Route::from_vertices(
//! #     RouteId(1), "main", vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]).unwrap()]).unwrap();
//! let dir = std::env::temp_dir().join(format!("modb-wal-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut db = Database::new(network, DatabaseConfig::default());
//!
//! // Start a log and a genesis snapshot (a head and one `InsertRoute`)…
//! let mut wal = WalWriter::create(&dir, WalOptions::default()).unwrap();
//! write_snapshot(&dir, &db, &EpochHistory::new(), wal.next_lsn()).unwrap();
//!
//! // …apply and log a mutation…
//! let depot = WalRecord::InsertStationary(StationaryObject::new(
//!     ObjectId(7), "depot", Point::new(2.0, 0.0)));
//! assert!(apply_record(&mut db, depot.clone()));
//! wal.append(&depot).unwrap();
//! wal.sync().unwrap();
//!
//! // …crash…  then rebuild exactly what was logged:
//! drop(wal);
//! let recovered = recover(&dir).unwrap();
//! assert_eq!(recovered.report.next_lsn, 1);
//! assert_eq!(recovered.database.stationary_count(), db.stationary_count());
//! assert_eq!(recovered.database.network().len(), 1);
//! assert_eq!(recovered.epochs, EpochHistory::new());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod block;
pub mod codec;
pub mod commit;
pub mod compact;
pub mod crc32;
pub mod epoch;
pub mod error;
pub mod lz;
pub mod record;
pub mod recovery;
pub mod segment;
pub mod ship;
pub mod snapshot;
pub mod writer;

pub use block::{
    check_frame, decode_block, decode_block_frames, encode_block, frame_block, peek_block_count,
};
pub use codec::{ByteReader, WalCodec};
pub use commit::GroupCommitStats;
pub use compact::{CompactionReport, DEFAULT_SNAPSHOT_RETENTION};
pub use crc32::crc32;
pub use epoch::{EpochCheck, EpochHistory, GENESIS_EPOCH};
pub use error::WalError;
pub use record::{split_frame, FrameEnd, WalRecord, MAX_RECORD_BYTES};
pub use recovery::{apply_record, recover, Recovered, RecoveryReport};
pub use segment::{list_segments, scan_segment, SegmentScan, SEGMENT_VERSION};
pub use ship::{RawChunk, SegmentTailer};
pub use snapshot::{
    list_snapshots, read_snapshot, write_snapshot, Shipment, SnapshotReceiver, SnapshotRun,
};
pub use writer::{SharedWal, WalBatch, WalOptions, WalWriter, WAL_BATCH_RECORDS};
