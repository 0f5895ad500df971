//! Segment tailing for log shipping: an incremental reader that follows
//! the log as the writer grows it.
//!
//! A [`SegmentTailer`] holds a cursor (the LSN of the next record to
//! deliver) and, on each [`SegmentTailer::poll_blocks`], reads whatever whole
//! frames have appeared past it — including from the writer's **active
//! tail segment**. The subtlety the tailer owns is distinguishing "not
//! written yet" from "corrupt":
//!
//! - A torn frame at the end of the **last** segment is treated as data
//!   in flight (the writer's `write_all` may race our read), so the poll
//!   simply reports nothing new; the rest of the frame is picked up next
//!   time. This is the same judgement recovery makes about a torn tail,
//!   applied online.
//! - A torn frame in a segment that already has a **successor** can never
//!   complete, so it is reported as [`WalError::CorruptSegment`].
//! - A cursor below the oldest segment on disk means compaction got there
//!   first ([`WalError::SegmentGap`]); the consumer must re-bootstrap
//!   from a snapshot. Leaders prevent this for connected followers with
//!   the ship barrier ([`crate::SharedWal::compact`]).
//!
//! [`SegmentTailer::poll_blocks`] delivers the on-disk frame bytes
//! **verbatim** as a [`RawChunk`], peeking only the per-frame record
//! counts for LSN accounting. Compressed blocks cross the replication
//! wire as-is and the follower decompresses on apply — the disk-format
//! savings are the wire-format savings.
//!
//! Reads are incremental: the tailer remembers its byte offset in the
//! current segment and only reads the suffix on each poll, so following
//! a hot log costs O(new bytes), not O(segment).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;

use crate::block::peek_block_count;
use crate::error::WalError;
use crate::record::split_frame;
use crate::segment::{list_segments, read_segment_file, SEGMENT_HEADER_BYTES};

/// A run of whole on-disk frames delivered by
/// [`SegmentTailer::poll_blocks`] — CRC-validated but not decoded, ready
/// to ship verbatim. A chunk never spans segments.
#[derive(Debug, Clone, PartialEq)]
pub struct RawChunk {
    /// LSN of the first record in the first frame.
    pub start_lsn: u64,
    /// Total records across the frames (peeked from block headers).
    pub records: u64,
    /// The frame bytes exactly as stored (`len + crc + payload`, …).
    pub frames: Vec<u8>,
}

impl RawChunk {
    /// LSN one past the last record in the chunk.
    pub fn end_lsn(&self) -> u64 {
        self.start_lsn + self.records
    }
}

/// Byte position within the segment currently being tailed.
#[derive(Debug, Clone)]
struct Position {
    start_lsn: u64,
    path: PathBuf,
    /// Offset of the next unread frame (≥ the header length); everything
    /// before it has been validated and delivered.
    offset: u64,
}

/// An incremental, CRC-validating reader over a live log directory. See
/// the module docs for torn-tail semantics.
#[derive(Debug)]
pub struct SegmentTailer {
    dir: PathBuf,
    next_lsn: u64,
    pos: Option<Position>,
}

impl SegmentTailer {
    /// A tailer positioned at `start_lsn` in `dir`. Positioning is lazy:
    /// the directory is not touched until the first poll, so the cursor
    /// may point at log that does not exist yet.
    ///
    /// The cursor may land *inside* a block; blocks are indivisible on
    /// the wire, so the tailer rewinds to the enclosing
    /// block boundary and re-delivers the block's earlier records —
    /// consumers already skip below their applied watermark.
    pub fn new(dir: impl Into<PathBuf>, start_lsn: u64) -> Self {
        SegmentTailer {
            dir: dir.into(),
            next_lsn: start_lsn,
            pos: None,
        }
    }

    /// The LSN of the next record a poll would deliver.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Reads up to `max_records` records' worth of whole frames at the
    /// cursor and delivers their on-disk bytes verbatim (CRC-validated,
    /// record counts peeked, payloads *not* decoded) for shipping; a
    /// block is indivisible, so the cap can overshoot by one block.
    /// `Ok(None)` means caught up: nothing new is on disk yet (including
    /// the in-flight-write case of a torn tail on the last segment).
    ///
    /// # Errors
    ///
    /// - [`WalError::SegmentGap`] when the cursor's segment no longer
    ///   exists (compacted away) — re-bootstrap from a snapshot.
    /// - [`WalError::CorruptSegment`] for a torn frame in a non-final
    ///   segment, a cursor pointing past a finished segment's content,
    ///   or a segment header of an unsupported version.
    /// - I/O failures.
    pub fn poll_blocks(&mut self, max_records: usize) -> Result<Option<RawChunk>, WalError> {
        if max_records == 0 {
            return Ok(None);
        }
        // Two passes at most: one at the current position and, when it
        // ends exactly on a finished segment boundary, one on the
        // successor segment.
        for _ in 0..2 {
            if self.pos.is_none() && !self.locate()? {
                return Ok(None);
            }
            let pos = self.pos.as_mut().expect("located above");
            let mut file = File::open(&pos.path)?;
            file.seek(SeekFrom::Start(pos.offset))?;
            let mut frames = Vec::new();
            file.read_to_end(&mut frames)?;
            let run = take_frames(&frames, max_records);
            if run.records > 0 {
                frames.truncate(run.bytes);
                pos.offset += run.bytes as u64;
                let chunk = RawChunk {
                    start_lsn: self.next_lsn,
                    records: run.records,
                    frames,
                };
                self.next_lsn = chunk.end_lsn();
                return Ok(Some(chunk));
            }
            if !self.advance_past_empty(run.torn)? {
                return Ok(None);
            }
        }
        Ok(None)
    }

    /// After a read that yielded no records: decides whether to retry on
    /// a successor segment (`Ok(true)`), report caught-up (`Ok(false)`),
    /// or fail.
    fn advance_past_empty(&mut self, torn: Option<&'static str>) -> Result<bool, WalError> {
        let pos = self.pos.as_ref().expect("positioned");
        // Nothing whole at the cursor: either the segment is finished
        // and the log continues in a successor, or we are caught up.
        let segments = list_segments(&self.dir)?;
        let is_last = segments
            .last()
            .is_some_and(|&(start, _)| start == pos.start_lsn);
        if let Some(reason) = torn {
            if is_last {
                return Ok(false); // write in flight; retry later
            }
            return Err(WalError::CorruptSegment {
                path: pos.path.clone(),
                offset: pos.offset,
                reason,
            });
        }
        if segments
            .iter()
            .any(|&(start, _)| start == self.next_lsn && start > pos.start_lsn)
        {
            // The current segment ended exactly at the cursor and a
            // successor picks up there: switch and read it.
            self.pos = None;
            return Ok(true);
        }
        // Caught up — or our file read raced a rotation (the final
        // frames of this segment landed after the read but before
        // the listing). Either way the next poll re-reads the suffix
        // and makes progress, so report nothing new rather than
        // misdiagnose the race.
        Ok(false)
    }

    /// Finds the segment containing `next_lsn` and the byte offset of
    /// that record within it (rounded down to a block boundary,
    /// rewinding `next_lsn` to match). Returns `false` when
    /// the log has not grown to the cursor yet.
    fn locate(&mut self) -> Result<bool, WalError> {
        let segments = list_segments(&self.dir)?;
        let Some(idx) = segments
            .iter()
            .rposition(|&(start, _)| start <= self.next_lsn)
        else {
            if let Some(&(found, _)) = segments.first() {
                // Everything on disk starts after the cursor: the log
                // below it has been compacted away.
                return Err(WalError::SegmentGap {
                    expected: self.next_lsn,
                    found,
                });
            }
            return Ok(false); // empty directory; the log may appear later
        };
        let (start_lsn, ref path) = segments[idx];
        let last = idx + 1 == segments.len();
        // One validating walk to find the frame boundary of the cursor
        // record; from then on reads are incremental.
        let bytes = match read_segment_file(path) {
            Ok((_, bytes)) => bytes,
            // A rotating writer creates the successor file before its
            // header write lands on disk; a short header on the *last*
            // segment is that write in flight, not corruption — wait,
            // exactly as for a torn tail frame. (A full-length header
            // with bad magic or version stays a hard error: the 20-byte
            // header is written in one call and never rewritten.)
            Err(WalError::CorruptSegment {
                reason: "short header",
                ..
            }) if last => return Ok(false),
            Err(e) => return Err(e),
        };
        let body = &bytes[SEGMENT_HEADER_BYTES as usize..];
        let whole = take_frames(body, usize::MAX);
        let skip = self.next_lsn - start_lsn;
        if skip > whole.records {
            // The cursor points past this segment's content.
            if last {
                if whole.torn.is_some() {
                    // The missing records may be mid-write; wait.
                    return Ok(false);
                }
                // A clean final segment that is short of the cursor: the
                // cursor is from a different timeline (e.g. a follower
                // ahead of a restored leader). Report it as a gap.
                return Err(WalError::SegmentGap {
                    expected: self.next_lsn,
                    found: start_lsn + whole.records,
                });
            }
            return Err(WalError::CorruptSegment {
                path: path.clone(),
                offset: SEGMENT_HEADER_BYTES + whole.bytes as u64,
                reason: whole.torn.unwrap_or("segment ends before successor"),
            });
        }
        // The whole frames below the cursor, one at a time, stopping
        // short of a block that holds it.
        let (mut offset, mut skipped) = (0, 0);
        while skipped < skip {
            let frame = take_frames(&body[offset..], 1);
            if frame.bytes == 0 || skipped + frame.records > skip {
                // Cursor inside a block: blocks are indivisible, so back
                // up to the boundary and re-deliver (consumers dedupe by
                // watermark).
                self.next_lsn = start_lsn + skipped;
                break;
            }
            offset += frame.bytes;
            skipped += frame.records;
        }
        self.pos = Some(Position {
            start_lsn,
            path: path.clone(),
            offset: SEGMENT_HEADER_BYTES + offset as u64,
        });
        Ok(true)
    }
}

/// A run of whole frames at the front of a buffer, measured by
/// [`take_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRun {
    /// Bytes of the run.
    pub bytes: usize,
    /// Records its blocks carry.
    pub records: u64,
    /// Why the run stopped short of the cap at an invalid frame, if it
    /// did.
    pub torn: Option<&'static str>,
}

/// The run of whole, CRC-valid frames at the front of `buf` that holds
/// `max_records` records or the first block to reach past them (a block
/// is indivisible), or everything valid when fewer are there. Frames are
/// checked ([`split_frame`]) and their record counts peeked, never
/// decoded: how a leader cuts both the log's tail and a bootstrap
/// snapshot into messages.
pub fn take_frames(buf: &[u8], max_records: usize) -> FrameRun {
    let mut run = FrameRun {
        bytes: 0,
        records: 0,
        torn: None,
    };
    while run.bytes < buf.len() && run.records < max_records as u64 {
        match split_frame(&buf[run.bytes..]) {
            Ok(None) => break,
            Ok(Some((payload, frame_len))) => match peek_block_count(payload) {
                Ok(n) => {
                    run.records += n;
                    run.bytes += frame_len;
                }
                Err(_) => {
                    run.torn = Some("undecodable block");
                    break;
                }
            },
            Err(reason) => {
                run.torn = Some(reason);
                break;
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{decode_block_frames, encode_block, frame_block};
    use crate::record::{frame_len, FrameEnd, WalRecord};
    use crate::writer::{WalBatch, WalOptions, WalWriter};
    use modb_core::{ObjectId, UpdateMessage, UpdatePosition};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("modb-wal-ship-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn update(i: u64) -> WalRecord {
        WalRecord::Update {
            id: ObjectId(i % 7),
            msg: UpdateMessage::basic(i as f64, UpdatePosition::Arc(i as f64 * 0.5), 1.0),
        }
    }

    fn small() -> WalOptions {
        WalOptions {
            max_segment_bytes: 256,
        }
    }

    /// A framed one-record block, as the writer would produce it.
    fn block_frame(rec: &WalRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_block(std::slice::from_ref(rec), true, &mut payload);
        let mut frame = Vec::new();
        frame_block(&payload, &mut frame);
        frame
    }

    /// What a follower does with a shipped chunk: decode its frames,
    /// all of which must be whole.
    fn decode(chunk: &RawChunk) -> Vec<WalRecord> {
        let (records, clean, end) = decode_block_frames(&chunk.frames);
        assert_eq!(end, FrameEnd::Clean);
        assert_eq!(clean, chunk.frames.len());
        assert_eq!(records.len() as u64, chunk.records);
        records
    }

    /// Drains the tailer completely; asserts chunk LSNs are contiguous.
    fn drain(tailer: &mut SegmentTailer, max: usize) -> Vec<WalRecord> {
        let mut out = Vec::new();
        while let Some(chunk) = tailer.poll_blocks(max).unwrap() {
            assert_eq!(chunk.end_lsn(), tailer.next_lsn());
            out.extend(decode(&chunk));
        }
        out
    }

    #[test]
    fn follows_appends_across_rotations() {
        let dir = tmp("follow");
        let mut w = WalWriter::create(&dir, small()).unwrap();
        let mut tailer = SegmentTailer::new(&dir, 0);
        assert!(tailer.poll_blocks(64).unwrap().is_none(), "nothing yet");
        let mut shipped = Vec::new();
        for round in 0..6u64 {
            for i in 0..10u64 {
                w.append(&update(round * 10 + i)).unwrap();
            }
            shipped.extend(drain(&mut tailer, 7));
            assert_eq!(tailer.next_lsn(), (round + 1) * 10, "round {round}");
        }
        let expected: Vec<WalRecord> = (0..60).map(update).collect();
        assert_eq!(shipped, expected);
        assert!(list_segments(&dir).unwrap().len() > 1, "rotation happened");
        assert!(tailer.poll_blocks(64).unwrap().is_none(), "caught up");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn starts_mid_log_and_mid_segment() {
        let dir = tmp("mid");
        let mut w = WalWriter::create(&dir, small()).unwrap();
        for i in 0..40u64 {
            w.append(&update(i)).unwrap();
        }
        for start in [0u64, 1, 17, 39, 40] {
            let mut tailer = SegmentTailer::new(&dir, start);
            let got = drain(&mut tailer, 1000);
            let expected: Vec<WalRecord> = (start..40).map(update).collect();
            assert_eq!(got, expected, "start {start}");
            assert_eq!(tailer.next_lsn(), 40);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_inside_a_block_rewinds_to_its_boundary() {
        let dir = tmp("mid-block");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        let mut batch = WalBatch::new();
        for i in 0..10u64 {
            batch.push(&update(i));
        }
        w.append_batch(&mut batch).unwrap(); // one 10-record block
        for i in 10..13u64 {
            w.append(&update(i)).unwrap();
        }
        // A cursor at LSN 4 lands inside the block: the tailer rewinds
        // to 0 and re-delivers; the consumer's watermark dedupes.
        let mut tailer = SegmentTailer::new(&dir, 4);
        let chunk = tailer.poll_blocks(1000).unwrap().unwrap();
        assert_eq!(chunk.start_lsn, 0);
        assert_eq!(chunk.records, 13);
        // A cursor on the boundary does not rewind.
        let mut tailer = SegmentTailer::new(&dir, 10);
        let chunk = tailer.poll_blocks(1000).unwrap().unwrap();
        assert_eq!(chunk.start_lsn, 10);
        assert_eq!(decode(&chunk), (10..13).map(update).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log of one-update blocks — what acknowledged single updates
    /// write — ships one record per frame: the tailer counts each frame
    /// (format 2 or 3) as 1, every chunk holds exactly the cap's records
    /// from exactly where the last one ended, and a cursor on any record
    /// starts there, with no block to rewind into.
    #[test]
    fn one_update_blocks_ship_one_record_per_frame() {
        let dir = tmp("one-update");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        let records: Vec<WalRecord> = (0..23u64)
            .map(|i| match i % 3 {
                0 => WalRecord::Update {
                    id: ObjectId(i),
                    msg: UpdateMessage::basic(
                        i as f64,
                        UpdatePosition::Coordinates(modb_geom::Point::new(1.0, i as f64)),
                        1.0,
                    ),
                },
                _ => update(i),
            })
            .collect();
        for rec in &records {
            w.append(rec).unwrap();
        }
        let mut tailer = SegmentTailer::new(&dir, 0);
        let (mut shipped, mut next) = (Vec::new(), 0u64);
        while let Some(chunk) = tailer.poll_blocks(5).unwrap() {
            assert_eq!((chunk.start_lsn, chunk.records), (next, 5.min(23 - next)));
            let (mut rest, mut frames) = (&chunk.frames[..], 0u64);
            while let Some((payload, len)) = split_frame(rest).unwrap() {
                assert!(matches!(payload[0], 2 | 3), "a one-update block");
                assert_eq!(peek_block_count(payload).unwrap(), 1);
                rest = &rest[len..];
                frames += 1;
            }
            assert_eq!(frames, chunk.records);
            next = chunk.end_lsn();
            shipped.extend(decode(&chunk));
        }
        assert_eq!((next, tailer.next_lsn()), (23, 23));
        assert_eq!(shipped, records);
        for start in [1u64, 7, 22] {
            let chunk = SegmentTailer::new(&dir, start)
                .poll_blocks(3)
                .unwrap()
                .unwrap();
            assert_eq!((chunk.start_lsn, chunk.records), (start, 3.min(23 - start)));
            assert_eq!(
                decode(&chunk),
                records[start as usize..][..chunk.records as usize]
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_of_last_segment_means_wait() {
        let dir = tmp("torn-wait");
        let mut w = WalWriter::create(&dir, small()).unwrap();
        for i in 0..3u64 {
            w.append(&update(i)).unwrap();
        }
        // Simulate a write in flight: half a frame at the end.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&last).unwrap();
        let frame = block_frame(&update(3));
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(&last, &bytes).unwrap();

        let mut tailer = SegmentTailer::new(&dir, 0);
        let chunk = tailer.poll_blocks(64).unwrap().unwrap();
        assert_eq!(chunk.records, 3, "whole frames delivered");
        assert!(
            tailer.poll_blocks(64).unwrap().is_none(),
            "torn tail = wait"
        );
        // The rest of the frame arrives: the record is delivered.
        bytes.extend_from_slice(&frame[frame.len() / 2..]);
        std::fs::write(&last, &bytes).unwrap();
        let chunk = tailer.poll_blocks(64).unwrap().unwrap();
        assert_eq!(chunk.start_lsn, 3);
        assert_eq!(decode(&chunk), vec![update(3)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression for a race found by the replication fault harness: a
    /// rotating writer creates the successor segment file before its
    /// header hits the disk. A tailer that lists-then-opens in that
    /// window must wait, not report corruption (which would kill a
    /// perfectly healthy replication session).
    #[test]
    fn half_written_successor_header_means_wait() {
        use crate::segment::{encode_header, segment_file_name};
        let dir = tmp("half-header");
        let mut w = WalWriter::create(&dir, small()).unwrap();
        for i in 0..10u64 {
            w.append(&update(i)).unwrap();
        }
        w.sync().unwrap();
        let mut tailer = SegmentTailer::new(&dir, 0);
        assert_eq!(drain(&mut tailer, 64).len(), 10);

        // Mid-rotation: the successor exists with only part of its
        // header written.
        let header = encode_header(10);
        let successor = dir.join(segment_file_name(10));
        std::fs::write(&successor, &header[..7]).unwrap();
        assert!(
            tailer.poll_blocks(64).unwrap().is_none(),
            "header in flight = wait"
        );
        // An empty just-created file is the same case.
        std::fs::write(&successor, []).unwrap();
        assert!(
            tailer.poll_blocks(64).unwrap().is_none(),
            "empty successor = wait"
        );

        // The rotation completes and records land: the tailer resumes.
        let mut bytes = header;
        for i in 10..13u64 {
            bytes.extend_from_slice(&block_frame(&update(i)));
        }
        std::fs::write(&successor, &bytes).unwrap();
        let chunk = tailer.poll_blocks(64).unwrap().unwrap();
        assert_eq!(chunk.start_lsn, 10);
        assert_eq!(decode(&chunk), (10..13).map(update).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_interior_segment_is_corruption() {
        let dir = tmp("torn-interior");
        let mut w = WalWriter::create(&dir, small()).unwrap();
        for i in 0..40u64 {
            w.append(&update(i)).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2);
        let mid = &segments[segments.len() / 2].1;
        let mut bytes = std::fs::read(mid).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xff;
        std::fs::write(mid, &bytes).unwrap();
        let mut tailer = SegmentTailer::new(&dir, 0);
        let err = loop {
            match tailer.poll_blocks(4) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("interior corruption must not read as caught-up"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, WalError::CorruptSegment { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compacted_cursor_is_a_gap() {
        let dir = tmp("gap");
        let mut w = WalWriter::create(&dir, small()).unwrap();
        for i in 0..40u64 {
            w.append(&update(i)).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2);
        std::fs::remove_file(&segments[0].1).unwrap();
        let mut tailer = SegmentTailer::new(&dir, 0);
        assert!(matches!(
            tailer.poll_blocks(64),
            Err(WalError::SegmentGap { expected: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_past_the_log_waits_then_gaps() {
        let dir = tmp("future");
        // Empty directory: the log may simply not exist yet.
        std::fs::create_dir_all(&dir).unwrap();
        let mut tailer = SegmentTailer::new(&dir, 5);
        assert!(tailer.poll_blocks(64).unwrap().is_none());
        // A clean log shorter than the cursor is a different timeline.
        let mut w = WalWriter::create(&dir, small()).unwrap();
        w.append(&update(0)).unwrap();
        w.sync().unwrap();
        assert!(matches!(
            tailer.poll_blocks(64),
            Err(WalError::SegmentGap {
                expected: 5,
                found: 1
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_cap_bounds_delivery() {
        let dir = tmp("cap");
        let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
        for i in 0..10u64 {
            w.append(&update(i)).unwrap();
        }
        let mut tailer = SegmentTailer::new(&dir, 0);
        let chunk = tailer.poll_blocks(4).unwrap().unwrap();
        assert_eq!(chunk.records, 4);
        assert_eq!(chunk.end_lsn(), 4);
        assert!(
            tailer.poll_blocks(0).unwrap().is_none(),
            "zero cap reads nothing"
        );
        let rest = drain(&mut tailer, 4);
        assert_eq!(rest.len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn raw_blocks_decode_to_the_log_and_stay_compressed() {
        let dir = tmp("raw");
        let mut w = WalWriter::create(&dir, small()).unwrap();
        let mut batch = WalBatch::new();
        let mut framed_singly = 0usize; // what one CRC frame per record costs
        for i in 0..50u64 {
            let rec = update(i);
            let mut payload = Vec::new();
            rec.encode_payload(&mut payload);
            framed_singly += frame_len(payload.len());
            batch.push(&rec);
            if batch.records() == 10 {
                w.append_batch(&mut batch).unwrap();
            }
        }
        w.append_batch(&mut batch).unwrap();
        let mut raw = SegmentTailer::new(&dir, 0);
        let mut shipped_bytes = 0usize;
        let mut records = Vec::new();
        while let Some(chunk) = raw.poll_blocks(8).unwrap() {
            shipped_bytes += chunk.frames.len();
            records.extend(decode(&chunk));
        }
        assert_eq!(records, (0..50).map(update).collect::<Vec<_>>());
        assert!(
            shipped_bytes * 2 < framed_singly,
            "wire bytes must at least halve: {shipped_bytes} vs {framed_singly}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
