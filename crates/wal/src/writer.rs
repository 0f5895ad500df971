//! The append path: [`WalWriter`], segment rotation, the [`WalBatch`]
//! buffer, and the thread-safe [`SharedWal`], which decides when a
//! record is appended and when it is durable.
//!
//! Every write of `modb-server` is one [`SharedWal::write`]: under the
//! *tail lock* the caller applies its mutation and frames its records
//! into the pending tail (no I/O), which is appended as one block — the
//! column/LZ compression window, one `write_all` — when the caller needs
//! an LSN or the tail holds [`WAL_BATCH_RECORDS`] records. A write that
//! leaves 256 appended records unsynced fsyncs the log once it has
//! released its locks: a crash no commit waited for loses at most that
//! window. Every fsync of the open segment — the window's, a rotation's,
//! [`SharedWal::sync`]'s and a commit's ([`crate::commit`]) — advances
//! the log's one durable watermark.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::block::Sealer;
use crate::commit::{CommitPoint, GroupCommitStats};
use crate::compact::CompactionReport;
use crate::error::WalError;
use crate::record::WalRecord;
use crate::segment::{
    encode_header, list_segments, read_segment_header, segment_file_name, SEGMENT_HEADER_BYTES,
};

/// Records the tail holds before it is appended as one block: a record
/// written with no need for its LSN waits there behind at most this many.
pub const WAL_BATCH_RECORDS: u64 = 32;

/// The unsynced window: a [`SharedWal`] fsyncs once it is full.
const SYNC_EVERY_RECORDS: u64 = 256;

/// Writer tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes (checked between appends; a batch never spans segments).
    pub max_segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
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

/// Appends framed records to segment files with rotation, fsyncing a
/// finished segment before its successor exists and otherwise only when
/// asked. Single-owner; see [`SharedWal`] for the thread-safe handle.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    segment_bytes: u64,
    next_lsn: u64,
    /// Every record below it was on disk at this writer's last sync.
    synced_lsn: u64,
    /// Record-payload bytes appended since this writer was opened
    /// (segment headers excluded).
    bytes_appended: u64,
    /// Data fsyncs since this writer was opened (not segment-header
    /// syncs).
    fsyncs: u64,
    /// Seals each append's block, with the LZ table and scratch
    /// buffers it keeps from block to block.
    sealer: Sealer,
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
        Self::resume(dir, opts, 0)
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
        let (file, segment_bytes) = match list_segments(&dir)?.last() {
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
                (file, segment_bytes)
            }
            None => Self::open_segment(&dir, next_lsn)?,
        };
        Ok(WalWriter {
            dir,
            opts,
            file,
            segment_bytes,
            next_lsn,
            synced_lsn: next_lsn,
            bytes_appended: 0,
            fsyncs: 0,
            sealer: Sealer::default(),
        })
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

    /// Appends one record as a one-record block — still self-delimiting,
    /// just without a compression window (a basic update is its own
    /// block format, [`crate::block`]); batch appends are where the
    /// columns and the LZ stage pay off. Returns the record's LSN.
    ///
    /// # Errors
    ///
    /// I/O failures (the record must be assumed unlogged), and
    /// [`WalError::FrameTooLarge`] for a record no reader would accept.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        self.append_block(std::slice::from_ref(rec))?;
        Ok(lsn)
    }

    /// Appends a whole batch (see [`WalBatch`]) as **one block** — one
    /// frame, one restart point, the batch as the column/LZ compression
    /// window — and clears it. A batch too large for one block is sealed
    /// and written as one block per record.
    ///
    /// # Errors
    ///
    /// I/O failures, and [`WalError::FrameTooLarge`] for a record too
    /// large for a block of its own (nothing is written then); the batch
    /// is left unconsumed so the caller can retry or count the loss.
    pub fn append_batch(&mut self, batch: &mut WalBatch) -> Result<(), WalError> {
        if batch.recs.is_empty() {
            return Ok(());
        }
        match self.append_block(&batch.recs) {
            Err(WalError::FrameTooLarge { .. }) if batch.recs.len() > 1 => {
                // Every record must fit before any is written.
                for rec in &batch.recs {
                    self.sealer.seal(std::slice::from_ref(rec))?;
                }
                for rec in &batch.recs {
                    self.append_block(std::slice::from_ref(rec))?;
                }
            }
            result => result?,
        }
        batch.recs.clear();
        Ok(())
    }

    /// Seals `records` as one block and writes its frame, rotating first
    /// when it would overflow the segment.
    fn append_block(&mut self, records: &[WalRecord]) -> Result<(), WalError> {
        let len = self.sealer.seal(records)?.len();
        self.maybe_rotate(len)?;
        self.file.write_all(self.sealer.frame())?;
        self.segment_bytes += len as u64;
        self.bytes_appended += len as u64;
        self.next_lsn += records.len() as u64;
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

    fn rotate(&mut self) -> Result<(), WalError> {
        // The finished segment is synced at once, under the writer lock:
        // recovery treats interior (non-last) segments as immutable truth
        // and will not truncate them, so they must be durable before a
        // successor exists.
        self.sync()?;
        let (file, segment_bytes) = Self::open_segment(&self.dir, self.next_lsn)?;
        self.file = file;
        self.segment_bytes = segment_bytes;
        Ok(())
    }

    /// Forces an fsync of the current segment.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        self.synced_lsn = self.next_lsn;
        self.fsyncs += 1;
        Ok(())
    }
}

#[derive(Debug)]
struct Inner {
    /// The tail lock, over the records applied but not yet appended, in
    /// the order they were applied. Taken before the writer lock.
    tail: Mutex<WalBatch>,
    writer: Mutex<WalWriter>,
    commit: CommitPoint,
}

/// A cloneable, thread-safe handle to one [`WalWriter`], its tail, and
/// the log's one commit point (see the module docs): every clone writes
/// through the same tail to the same writer and requests durability
/// against the same watermark.
#[derive(Debug, Clone)]
pub struct SharedWal {
    inner: Arc<Inner>,
}

impl SharedWal {
    /// Wraps a writer for shared use. The durable watermark starts at the
    /// writer's frontier: a resumed log's records were synced at shutdown
    /// or survived recovery.
    pub fn new(writer: WalWriter) -> Self {
        let commit = CommitPoint::default();
        commit.advance(writer.synced_lsn);
        let (tail, writer) = (Mutex::default(), Mutex::new(writer));
        let inner = Arc::new(Inner {
            tail,
            writer,
            commit,
        });
        SharedWal { inner }
    }

    fn lock(&self) -> MutexGuard<'_, WalWriter> {
        // A panic while holding the lock poisons it; the writer state is
        // still internally consistent (worst case: an un-counted sync),
        // so keep going rather than cascading panics through shutdown.
        self.inner.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs one write against the locked writer, unless the log has
    /// already failed; an I/O failure of this one poisons the log, and a
    /// rotation's fsync advances the durable watermark.
    fn io<R>(&self, f: impl FnOnce(&mut WalWriter) -> Result<R, WalError>) -> Result<R, WalError> {
        let mut w = self.lock();
        self.inner.commit.check()?;
        let result = f(&mut w);
        match &result {
            Ok(_) => self.inner.commit.advance(w.synced_lsn),
            Err(e) => self.inner.commit.poison(e),
        }
        result
    }

    /// Appends and clears a batch; returns the frontier right after it.
    fn append_locked(&self, batch: &mut WalBatch) -> Result<u64, WalError> {
        self.io(|w| {
            w.append_batch(batch)?;
            Ok(w.next_lsn())
        })
    }

    /// The log's one write call. Under the tail lock, `apply` applies its
    /// mutation and returns the records that log it, which join the tail
    /// as they are drawn; the tail is appended as one block — its records
    /// get their LSNs — each time it holds [`WAL_BATCH_RECORDS`] records,
    /// and at the end when `append` is set. A failed append draws no more
    /// records. With the locks released, the log is synced once 256
    /// appended records (`SYNC_EVERY_RECORDS`) are unsynced. Returns
    /// `apply`'s result and the frontier after the last append (`Ok(0)`
    /// when there was none), or the append's or sync's failure.
    ///
    /// # Errors
    ///
    /// The log's sticky failure, once it has failed, with `apply` never
    /// run: a write to a failed log applies nothing (checked under the
    /// tail lock, so no write applies behind a failed append).
    pub fn write<T, R: IntoIterator<Item = WalRecord>>(
        &self,
        append: bool,
        apply: impl FnOnce() -> (T, R),
    ) -> Result<(T, Result<u64, WalError>), WalError> {
        let (applied, appended) = {
            let mut tail = self.inner.tail.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.commit.check()?;
            let (applied, records) = apply();
            let mut appended = Ok(0);
            for rec in records {
                tail.recs.push(rec);
                if tail.records() >= WAL_BATCH_RECORDS {
                    appended = self.append_tail(&mut tail);
                    if appended.is_err() {
                        break;
                    }
                }
            }
            if append && appended.is_ok() && !tail.recs.is_empty() {
                appended = self.append_tail(&mut tail);
            }
            (applied, appended)
        };
        Ok((applied, appended.and_then(|frontier| self.settle(frontier))))
    }

    /// Appends the tail as one block and empties it: only an I/O failure
    /// refuses a tail (callers check a record fits before applying it),
    /// and a failed log takes nothing more.
    fn append_tail(&self, tail: &mut WalBatch) -> Result<u64, WalError> {
        let appended = self.append_locked(tail);
        tail.recs.clear();
        appended
    }

    /// Syncs the log, taking no commit ticket, when `frontier` (an
    /// append's, or 0) is a window past the durable watermark.
    fn settle(&self, frontier: u64) -> Result<u64, WalError> {
        if frontier.saturating_sub(self.durable_lsn()) >= SYNC_EVERY_RECORDS {
            self.sync_appended()?;
        }
        Ok(frontier)
    }

    /// Appends and clears a batch as one block (see
    /// [`WalWriter::append_batch`]), bypassing the tail, and syncs as
    /// [`SharedWal::write`] does; returns the frontier right after it.
    ///
    /// # Errors
    ///
    /// I/O failures (sticky: see [`crate::commit`]) and
    /// [`WalError::FrameTooLarge`] (see [`WalWriter::append_batch`]).
    pub fn append_batch(&self, batch: &mut WalBatch) -> Result<u64, WalError> {
        self.settle(self.append_locked(batch)?)
    }

    /// Appends the tail, then fsyncs everything appended before the sync
    /// starts and returns that frontier, which becomes durable: the
    /// watermark [`SharedWal::commit`] reads advances to it.
    ///
    /// # Errors
    ///
    /// I/O failures (sticky).
    pub fn sync(&self) -> Result<u64, WalError> {
        self.append_tail(&mut self.inner.tail.lock().unwrap_or_else(|e| e.into_inner()))?;
        self.sync_appended()
    }

    /// The fsync of a commit, of the window and of [`SharedWal::sync`],
    /// on a duplicate of the open segment's handle: appends proceed while
    /// the disk works, and a rotation that slips in has synced the
    /// segment it finished itself.
    fn sync_appended(&self) -> Result<u64, WalError> {
        let (segment, frontier) = self.io(|w| Ok((w.file.try_clone()?, w.next_lsn)))?;
        let armed = self.inner.commit.take_armed();
        if let Err(e) = armed.map_or_else(|| segment.sync_data(), Err) {
            let e = WalError::Io(e);
            self.inner.commit.poison(&e);
            return Err(e);
        }
        self.lock().fsyncs += 1;
        self.inner.commit.advance(frontier);
        Ok(frontier)
    }

    /// Blocks until every record below `lsn` (a log frontier, i.e. a
    /// `next_lsn` value) is durable, sharing the fsync with every other
    /// concurrent caller — by riding one in flight, or by issuing the
    /// next one itself ([`crate::commit`]). Returns the durable
    /// frontier, which is ≥ `lsn`.
    ///
    /// # Errors
    ///
    /// The log's sticky I/O failure, for every caller once any write or
    /// sync has failed — even for an LSN that was durable before it.
    pub fn commit(&self, lsn: u64) -> Result<u64, WalError> {
        self.inner.commit.commit(lsn, || self.sync_appended())
    }

    /// The durable-LSN watermark: every record below it is on disk.
    pub fn durable_lsn(&self) -> u64 {
        self.inner.commit.durable_lsn()
    }

    /// A snapshot of the group commit's coalescing counters.
    pub fn commit_stats(&self) -> GroupCommitStats {
        self.inner.commit.stats()
    }

    /// Makes the next sync — a commit's, or a bare [`SharedWal::sync`] —
    /// fail with `msg` as a disk would, which poisons the log: the probe
    /// the acks-never-lie tests assert on.
    #[doc(hidden)]
    pub fn fail_for_test(&self, msg: &str) {
        self.inner.commit.arm_failure(msg);
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.lock().next_lsn()
    }

    /// Runs a closure against the locked writer.
    pub(crate) fn with_writer<R>(&self, f: impl FnOnce(&mut WalWriter) -> R) -> R {
        f(&mut self.lock())
    }

    /// Compacts this log's directory ([`crate::compact`]) under the
    /// writer lock, so it cannot race a segment rotation: compaction's
    /// one entry point.
    ///
    /// # Errors
    ///
    /// I/O failures; they do not poison the log.
    pub fn compact(
        &self,
        retention: usize,
        barrier: Option<u64>,
    ) -> Result<CompactionReport, WalError> {
        self.with_writer(|w| crate::compact::compact_with_barrier(&w.dir, retention, barrier))
    }

    /// The writer's `(bytes_appended, fsyncs)`, read under one lock so
    /// the pair is consistent: counters for the stats scrape, which reset
    /// on restart like the process they describe.
    pub fn io_counters(&self) -> (u64, u64) {
        let w = self.lock();
        (w.bytes_appended, w.fsyncs)
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
        assert_eq!(batch.records(), 0, "append consumes the batch");
        w.append(&update(5)).unwrap();
        assert_eq!(w.next_lsn(), 6);
        let scan = scan_segment(&list_segments(&dir).unwrap()[0].1).unwrap();
        let expected: Vec<WalRecord> = (0..6).map(update).collect();
        assert_eq!(scan.records, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch whose records fit a block each but not one together is
    /// written as one block per record; a batch holding a record no
    /// block can hold writes nothing and is left as it was.
    #[test]
    fn a_batch_too_large_for_one_block_is_split_by_record() {
        let dir = tmp("split");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        let landmark = |id: u64, len: usize| {
            WalRecord::InsertStationary(modb_core::StationaryObject::new(
                ObjectId(id),
                "x".repeat(len),
                modb_geom::Point::new(0.0, 0.0),
            ))
        };
        let half = crate::MAX_RECORD_BYTES as usize / 2 + 64;
        let mut batch = WalBatch::new();
        for rec in [update(0), landmark(1, half), landmark(2, half)] {
            batch.push(&rec);
        }
        w.append_batch(&mut batch).unwrap();
        assert_eq!(batch.records(), 0);
        assert_eq!(w.next_lsn(), 3);
        batch.push(&update(3));
        batch.push(&landmark(4, crate::MAX_RECORD_BYTES as usize));
        assert!(matches!(
            w.append_batch(&mut batch),
            Err(WalError::FrameTooLarge { .. })
        ));
        assert_eq!((batch.records(), w.next_lsn()), (2, 3), "nothing written");
        let scan = scan_segment(&list_segments(&dir).unwrap()[0].1).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(
            scan.records,
            vec![update(0), landmark(1, half), landmark(2, half)]
        );
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

    /// One record through the tail, appended at once; its frontier.
    fn write(wal: &SharedWal, rec: WalRecord) -> u64 {
        wal.write(true, || ((), Some(rec))).unwrap().1.unwrap()
    }

    #[test]
    fn io_counters_track_bytes_and_fsyncs() {
        let dir = tmp("io-counters");
        let wal = SharedWal::new(WalWriter::create(&dir, WalOptions::default()).unwrap());
        assert_eq!(wal.io_counters(), (0, 0));
        for i in 0..2 * SYNC_EVERY_RECORDS + 1 {
            write(&wal, update(i));
        }
        // One periodic sync per 256 records: after records 256 and 512.
        let (bytes, fsyncs) = wal.io_counters();
        assert_eq!(fsyncs, 2);
        assert!(bytes > 0, "appended payload bytes must be counted");
        wal.sync().unwrap();
        assert_eq!(wal.io_counters().1, 3, "forced sync counts");
        assert_eq!(wal.io_counters().0, bytes, "sync appends nothing");
        // Rotation syncs the finished segment.
        let rotated = tmp("io-counters-rotate");
        let wal = SharedWal::new(
            WalWriter::create(
                &rotated,
                WalOptions {
                    max_segment_bytes: 128,
                },
            )
            .unwrap(),
        );
        for i in 0..20 {
            write(&wal, update(i));
        }
        assert!(
            wal.io_counters().1 > 0,
            "rotation must count its segment sync"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&rotated).unwrap();
    }

    /// The window's fsync and a rotation's advance the durable watermark
    /// a commit reads, so a commit at or below it issues no fsync of its
    /// own; and a sync appends the tail before it syncs.
    #[test]
    fn every_fsync_advances_the_durable_watermark() {
        let dir = tmp("watermark");
        let wal = SharedWal::new(WalWriter::create(&dir, WalOptions::default()).unwrap());
        for i in 0..SYNC_EVERY_RECORDS + 40 {
            wal.write(false, || ((), Some(update(i))))
                .unwrap()
                .1
                .unwrap();
        }
        // Nine 32-record blocks are appended; the window synced the eighth.
        assert_eq!((wal.next_lsn(), wal.io_counters().1), (9 * 32, 1));
        assert_eq!(wal.durable_lsn(), SYNC_EVERY_RECORDS);
        assert_eq!(wal.commit(SYNC_EVERY_RECORDS).unwrap(), SYNC_EVERY_RECORDS);
        assert_eq!(
            wal.io_counters().1,
            1,
            "a commit below the watermark syncs nothing"
        );
        // A sync appends the tail's last 8 records first.
        assert_eq!(wal.sync().unwrap(), SYNC_EVERY_RECORDS + 40);
        let scan = scan_segment(&list_segments(&dir).unwrap()[0].1).unwrap();
        assert_eq!(scan.records.len() as u64, SYNC_EVERY_RECORDS + 40);

        let rotated = tmp("watermark-rotate");
        let opts = WalOptions {
            max_segment_bytes: 128,
        };
        let wal = SharedWal::new(WalWriter::create(&rotated, opts).unwrap());
        for i in 0..20 {
            write(&wal, update(i));
        }
        let segments = list_segments(&rotated).unwrap();
        assert!(segments.len() > 2, "a tiny cap rotates");
        let last_start = segments.last().unwrap().0;
        assert_eq!(wal.durable_lsn(), last_start, "the last rotation synced");
        let fsyncs = wal.io_counters().1;
        assert_eq!(fsyncs, segments.len() as u64 - 1, "one per rotation");
        assert_eq!(wal.commit(last_start).unwrap(), last_start);
        assert_eq!(
            wal.io_counters().1,
            fsyncs,
            "a commit at the watermark syncs nothing"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&rotated).unwrap();
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
