//! The append path: [`WalWriter`], fsync policies, segment rotation, and
//! the lock-free-friendly [`WalBatch`] buffer.
//!
//! The intended concurrency shape (used by `modb-server`'s ingest
//! stripes): each stripe owns a [`WalBatch`] and collects records into it
//! without touching the writer; the shared [`SharedWal`] mutex is taken
//! only to hand over a whole batch, which is sealed as one block — the
//! batch is the delta/LZ compression window — and written with a single
//! `write_all`.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::block::seal;
use crate::error::WalError;
use crate::lz::Compressor;
use crate::record::WalRecord;
use crate::segment::{
    encode_header, list_segments, read_segment_header, segment_file_name, SEGMENT_HEADER_BYTES,
};

/// When the writer calls `fsync` on the current segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync once at least `n` records have accumulated since the last
    /// sync. A crash loses at most the unsynced window (`n` treated as 1
    /// when 0).
    EveryN(u64),
    /// Never sync explicitly; the OS flushes on its own schedule. A crash
    /// may lose everything since the last rotation.
    Never,
}

/// Writer tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalOptions {
    /// Fsync policy.
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes (checked between appends; a batch never spans segments).
    pub max_segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::EveryN(256),
            max_segment_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A private per-producer buffer of records. Cheap to fill (no locks, no
/// I/O); handed to [`SharedWal::append_batch`] wholesale, which seals it
/// as one block under the writer lock.
#[derive(Debug, Default)]
pub struct WalBatch {
    recs: Vec<WalRecord>,
}

impl WalBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WalBatch::default()
    }

    /// Buffers one record.
    pub fn push(&mut self, rec: &WalRecord) {
        self.recs.push(rec.clone());
    }

    /// Buffered record count.
    pub fn records(&self) -> u64 {
        self.recs.len() as u64
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Drops the buffered content (keeps the allocation).
    pub fn clear(&mut self) {
        self.recs.clear();
    }
}

pub(crate) fn sync_dir(dir: &Path) -> Result<(), WalError> {
    // Persist the directory entry of a newly created file. Directory
    // fsync is a unix concept; elsewhere rely on the file sync alone.
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Appends framed records to segment files with rotation and a
/// configurable fsync policy. Single-owner; see [`SharedWal`] for the
/// thread-safe handle.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    segment_bytes: u64,
    segment_start_lsn: u64,
    next_lsn: u64,
    unsynced: u64,
    bytes_appended: u64,
    fsyncs: u64,
    /// The LZ stage's hash table, kept from block to block.
    lz: Compressor,
}

impl WalWriter {
    /// Starts a fresh log in `dir` (created if missing) at LSN 0.
    ///
    /// # Errors
    ///
    /// [`WalError::AlreadyExists`] when `dir` already holds segments —
    /// recover and [`WalWriter::resume`] instead of clobbering them.
    pub fn create(dir: impl Into<PathBuf>, opts: WalOptions) -> Result<Self, WalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if !list_segments(&dir)?.is_empty() {
            return Err(WalError::AlreadyExists(dir));
        }
        let (file, segment_bytes) = Self::open_segment(&dir, 0)?;
        Ok(WalWriter {
            dir,
            opts,
            file,
            segment_bytes,
            segment_start_lsn: 0,
            next_lsn: 0,
            unsynced: 0,
            bytes_appended: 0,
            fsyncs: 0,
            lz: Compressor::new(),
        })
    }

    /// Resumes appending after recovery: continues the last segment when
    /// one exists (recovery has already truncated any torn tail), or
    /// starts a new segment at `next_lsn`.
    ///
    /// # Errors
    ///
    /// [`WalError::SegmentGap`] when the last segment starts *after*
    /// `next_lsn` (the directory does not match the recovered state);
    /// [`WalError::CorruptSegment`] when the last segment's header is not
    /// a current-format header — it is left untouched.
    pub fn resume(
        dir: impl Into<PathBuf>,
        opts: WalOptions,
        next_lsn: u64,
    ) -> Result<Self, WalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        match list_segments(&dir)?.last() {
            Some(&(start_lsn, ref path)) => {
                if start_lsn > next_lsn {
                    return Err(WalError::SegmentGap {
                        expected: next_lsn,
                        found: start_lsn,
                    });
                }
                read_segment_header(path)?;
                let file = OpenOptions::new().append(true).open(path)?;
                let segment_bytes = file.metadata()?.len();
                Ok(WalWriter {
                    dir,
                    opts,
                    file,
                    segment_bytes,
                    segment_start_lsn: start_lsn,
                    next_lsn,
                    unsynced: 0,
                    bytes_appended: 0,
                    fsyncs: 0,
                    lz: Compressor::new(),
                })
            }
            None => {
                let (file, segment_bytes) = Self::open_segment(&dir, next_lsn)?;
                Ok(WalWriter {
                    dir,
                    opts,
                    file,
                    segment_bytes,
                    segment_start_lsn: next_lsn,
                    next_lsn,
                    unsynced: 0,
                    bytes_appended: 0,
                    fsyncs: 0,
                    lz: Compressor::new(),
                })
            }
        }
    }

    fn open_segment(dir: &Path, start_lsn: u64) -> Result<(File, u64), WalError> {
        let path = dir.join(segment_file_name(start_lsn));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        file.write_all(&encode_header(start_lsn))?;
        // The header and the directory entry are synced unconditionally:
        // rotation is rare, and a segment whose header never reached disk
        // would strand every record behind it.
        file.sync_data()?;
        sync_dir(dir)?;
        Ok((file, SEGMENT_HEADER_BYTES))
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The writer options.
    pub fn options(&self) -> &WalOptions {
        &self.opts
    }

    /// Appends one record as a one-record block — still self-delimiting,
    /// just without a compression window; batch appends are where the
    /// block format pays off. Returns the record's LSN.
    ///
    /// # Errors
    ///
    /// I/O failures (the record must be assumed unlogged), and
    /// [`WalError::FrameTooLarge`] for a record no reader would accept.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        let frame = seal(std::slice::from_ref(rec), &mut self.lz)?;
        self.maybe_rotate(frame.len())?;
        self.write_bytes(&frame, 1)?;
        Ok(lsn)
    }

    /// Appends a whole batch (see [`WalBatch`]) as **one block** — one
    /// frame, one restart point, the batch as the delta/LZ compression
    /// window — and clears it. For fsync purposes a batch counts
    /// record-by-record (so `EveryN` semantics are unchanged) but is
    /// synced at most once.
    ///
    /// # Errors
    ///
    /// I/O failures and [`WalError::FrameTooLarge`], as for
    /// [`WalWriter::append`]; the batch is left unconsumed so the caller
    /// can retry or count the loss.
    pub fn append_batch(&mut self, batch: &mut WalBatch) -> Result<(), WalError> {
        if batch.is_empty() {
            return Ok(());
        }
        let frame = seal(&batch.recs, &mut self.lz)?;
        self.maybe_rotate(frame.len())?;
        self.write_bytes(&frame, batch.records())?;
        batch.clear();
        Ok(())
    }

    /// Rotates if `incoming` more bytes would overflow the segment.
    fn maybe_rotate(&mut self, incoming: usize) -> Result<(), WalError> {
        if self.segment_bytes > SEGMENT_HEADER_BYTES
            && self.segment_bytes + incoming as u64 > self.opts.max_segment_bytes
        {
            self.rotate()?;
        }
        Ok(())
    }

    fn write_bytes(&mut self, bytes: &[u8], records: u64) -> Result<(), WalError> {
        self.file.write_all(bytes)?;
        self.segment_bytes += bytes.len() as u64;
        self.bytes_appended += bytes.len() as u64;
        self.next_lsn += records;
        self.unsynced += records;
        match self.opts.fsync {
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        // The finished segment is synced regardless of policy: recovery
        // treats interior (non-last) segments as immutable truth and will
        // not truncate them, so they must be durable before a successor
        // exists.
        self.sync()?;
        let (file, segment_bytes) = Self::open_segment(&self.dir, self.next_lsn)?;
        self.file = file;
        self.segment_bytes = segment_bytes;
        self.segment_start_lsn = self.next_lsn;
        Ok(())
    }

    /// Forces an fsync of the current segment.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Total record-payload bytes appended since this writer was opened
    /// (segment headers excluded). Observability counter for the stats
    /// scrape; resets on restart, like the process it describes.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Number of explicit data fsyncs issued since this writer was
    /// opened (policy syncs, rotation syncs, and forced
    /// [`WalWriter::sync`] calls; segment-header creation syncs are not
    /// counted).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

/// A cloneable, thread-safe handle to one [`WalWriter`].
#[derive(Debug, Clone)]
pub struct SharedWal {
    inner: Arc<Mutex<WalWriter>>,
}

impl SharedWal {
    /// Wraps a writer for shared use.
    pub fn new(writer: WalWriter) -> Self {
        SharedWal {
            inner: Arc::new(Mutex::new(writer)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WalWriter> {
        // A panic while holding the lock poisons it; the writer state is
        // still internally consistent (worst case: an un-counted sync),
        // so keep going rather than cascading panics through shutdown.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one record; returns its LSN. See [`WalWriter::append`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn append(&self, rec: &WalRecord) -> Result<u64, WalError> {
        self.lock().append(rec)
    }

    /// Appends and clears a batch. See [`WalWriter::append_batch`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn append_batch(&self, batch: &mut WalBatch) -> Result<(), WalError> {
        self.lock().append_batch(batch)
    }

    /// Forces an fsync of everything appended before the call. The writer
    /// lock is not held while the disk works — the sync runs on a
    /// duplicate of the open segment's handle — so appends proceed
    /// meanwhile: they are what the next group commit collects
    /// ([`crate::commit`]). A rotation that slips in between has synced
    /// the segment it finished itself. The `EveryN` window shrinks to the
    /// records appended since the frontier this sync covered, so a record
    /// a group commit already made durable never counts towards a policy
    /// fsync under the writer lock.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&self) -> Result<(), WalError> {
        let (segment, frontier) = {
            let w = self.lock();
            (w.file.try_clone()?, w.next_lsn)
        };
        segment.sync_data()?;
        let mut w = self.lock();
        w.fsyncs += 1;
        w.unsynced = w.unsynced.min(w.next_lsn - frontier);
        Ok(())
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.lock().next_lsn()
    }

    /// Runs a closure against the locked writer (snapshot coordination).
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut WalWriter) -> R) -> R {
        f(&mut self.lock())
    }

    /// `(bytes_appended, fsyncs)` counters, read under one lock so the
    /// pair is consistent. See [`WalWriter::bytes_appended`] /
    /// [`WalWriter::fsyncs`].
    pub fn io_counters(&self) -> (u64, u64) {
        let w = self.lock();
        (w.bytes_appended(), w.fsyncs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::scan_segment;
    use modb_core::{ObjectId, UpdateMessage, UpdatePosition};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("modb-wal-writer-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn update(i: u64) -> WalRecord {
        WalRecord::Update {
            id: ObjectId(i % 7),
            msg: UpdateMessage::basic(i as f64, UpdatePosition::Arc(i as f64 * 0.5), 1.0),
        }
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tmp("round-trip");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        for i in 0..10 {
            assert_eq!(w.append(&update(i)).unwrap(), i);
        }
        assert_eq!(w.next_lsn(), 10);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        let scan = scan_segment(&segments[0].1).unwrap();
        assert_eq!(scan.start_lsn, 0);
        assert_eq!(scan.records.len(), 10);
        assert!(scan.torn.is_none());
        assert_eq!(scan.records[3], update(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_produces_contiguous_segments() {
        let dir = tmp("rotation");
        let opts = WalOptions {
            fsync: FsyncPolicy::Never,
            max_segment_bytes: 256,
        };
        let mut w = WalWriter::create(&dir, opts).unwrap();
        for i in 0..50 {
            w.append(&update(i)).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "tiny cap must force rotation");
        let mut cursor = 0;
        for (start_lsn, path) in &segments {
            assert_eq!(*start_lsn, cursor, "segments must join up");
            let scan = scan_segment(path).unwrap();
            assert_eq!(scan.start_lsn, cursor);
            assert!(scan.torn.is_none());
            cursor += scan.records.len() as u64;
        }
        assert_eq!(cursor, 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batches_preserve_order_and_lsns() {
        let dir = tmp("batch");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        let mut batch = WalBatch::new();
        for i in 0..5 {
            batch.push(&update(i));
        }
        assert_eq!(batch.records(), 5);
        w.append_batch(&mut batch).unwrap();
        assert!(batch.is_empty(), "append consumes the batch");
        w.append(&update(5)).unwrap();
        assert_eq!(w.next_lsn(), 6);
        let scan = scan_segment(&list_segments(&dir).unwrap()[0].1).unwrap();
        let expected: Vec<WalRecord> = (0..6).map(update).collect();
        assert_eq!(scan.records, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_log() {
        let dir = tmp("existing");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        w.append(&update(0)).unwrap();
        drop(w);
        assert!(matches!(
            WalWriter::create(&dir, WalOptions::default()),
            Err(WalError::AlreadyExists(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_continues_last_segment() {
        let dir = tmp("resume");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        for i in 0..4 {
            w.append(&update(i)).unwrap();
        }
        drop(w);
        let mut w = WalWriter::resume(&dir, WalOptions::default(), 4).unwrap();
        assert_eq!(w.next_lsn(), 4);
        w.append(&update(4)).unwrap();
        drop(w);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "resume appends in place");
        let scan = scan_segment(&segments[0].1).unwrap();
        assert_eq!(scan.records.len(), 5);
        // Resuming into an empty dir starts a fresh segment at the LSN.
        let dir2 = tmp("resume-fresh");
        let w = WalWriter::resume(&dir2, WalOptions::default(), 9).unwrap();
        assert_eq!(w.next_lsn(), 9);
        drop(w);
        assert_eq!(list_segments(&dir2).unwrap()[0].0, 9);
        // A future segment is an inconsistency.
        assert!(matches!(
            WalWriter::resume(&dir2, WalOptions::default(), 3),
            Err(WalError::SegmentGap {
                expected: 3,
                found: 9
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn fsync_policies_all_write_identically() {
        for (name, fsync) in [
            ("every3", FsyncPolicy::EveryN(3)),
            ("every0", FsyncPolicy::EveryN(0)),
            ("never", FsyncPolicy::Never),
        ] {
            let dir = tmp(&format!("fsync-{name}"));
            let mut w = WalWriter::create(
                &dir,
                WalOptions {
                    fsync,
                    ..WalOptions::default()
                },
            )
            .unwrap();
            for i in 0..7 {
                w.append(&update(i)).unwrap();
            }
            w.sync().unwrap();
            let scan = scan_segment(&list_segments(&dir).unwrap()[0].1).unwrap();
            assert_eq!(scan.records.len(), 7, "policy {name}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn io_counters_track_bytes_and_fsyncs() {
        let dir = tmp("io-counters");
        let mut w = WalWriter::create(
            &dir,
            WalOptions {
                fsync: FsyncPolicy::EveryN(3),
                ..WalOptions::default()
            },
        )
        .unwrap();
        assert_eq!((w.bytes_appended(), w.fsyncs()), (0, 0));
        for i in 0..7 {
            w.append(&update(i)).unwrap();
        }
        // EveryN(3) over 7 records: syncs after records 3 and 6.
        assert_eq!(w.fsyncs(), 2);
        let bytes = w.bytes_appended();
        assert!(bytes > 0, "appended payload bytes must be counted");
        w.sync().unwrap();
        assert_eq!(w.fsyncs(), 3, "forced sync counts");
        assert_eq!(w.bytes_appended(), bytes, "sync appends nothing");
        // Rotation syncs the finished segment.
        let mut w = WalWriter::create(
            tmp("io-counters-rotate"),
            WalOptions {
                fsync: FsyncPolicy::Never,
                max_segment_bytes: 128,
            },
        )
        .unwrap();
        for i in 0..20 {
            w.append(&update(i)).unwrap();
        }
        assert!(w.fsyncs() > 0, "rotation must count its segment sync");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_wal_is_cloneable_and_concurrent() {
        let dir = tmp("shared");
        let wal = SharedWal::new(WalWriter::create(&dir, WalOptions::default()).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let wal = wal.clone();
                s.spawn(move || {
                    let mut batch = WalBatch::new();
                    for i in 0..25 {
                        batch.push(&update(t * 100 + i));
                        if batch.records() >= 8 {
                            wal.append_batch(&mut batch).unwrap();
                        }
                    }
                    wal.append_batch(&mut batch).unwrap();
                });
            }
        });
        wal.sync().unwrap();
        assert_eq!(wal.next_lsn(), 100);
        let scan = scan_segment(&list_segments(&dir).unwrap()[0].1).unwrap();
        assert_eq!(scan.records.len(), 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
