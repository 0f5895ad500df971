//! Log segment files: naming, headers, and scanning.
//!
//! The log is a sequence of segment files `wal-<start_lsn>.log`, where the
//! LSN (log sequence number) of a record is its ordinal position in the
//! whole log, starting at 0. A segment holds the records
//! `start_lsn, start_lsn + 1, …` in order; the writer rotates to a new
//! segment once the current one exceeds the configured size.
//!
//! Segment layout:
//!
//! ```text
//! [magic: 8 bytes "MODBWAL1"] [version: u32 LE] [start_lsn: u64 LE]
//! [frame]*                 — [len varint][crc32 u32 LE][block], see
//!                            crate::record and crate::block
//! ```
//!
//! The version is [`SEGMENT_VERSION`], 5: a block's first byte names its
//! format — a stream of any number of records, plain (0) or LZ (1), whose
//! basic updates are stored as columns of byte planes, or exactly one
//! basic update (2: an arc, 3: coordinates), which is its record's id and
//! raw floats and nothing else. A one-update block on an arc therefore
//! weighs `5 + 1 + varint(id) + 24` bytes framed.
//!
//! A snapshot (`snap-<lsn>.snap`, [`crate::snapshot`]) is a sealed file of
//! the same layout whose start LSN is the snapshot's: both are read with
//! `read_segment_file` and replayed with `block::walk_blocks`.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::block::decode_block_frames;
use crate::codec::{put_u32, put_u64, ByteReader};
use crate::error::WalError;
use crate::record::{FrameEnd, WalRecord};
use crate::snapshot::SNAPSHOT_NAME;

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"MODBWAL1";
/// The segment format version: one (optionally compressed) *block* of
/// records per CRC frame — see [`crate::block`]. Version 5 stores the
/// basic updates of a block of many records as a column section of byte
/// planes after its record tags, where version 4 delta-coded each against
/// a per-object context; a block with no basic update, a one-update
/// block (its object id and raw floats, since version 4) and the
/// `[len varint][crc32]` frame are as in version 4. Versions 4, 3
/// (one-update blocks in the delta-stream layout), 2 (a fixed `u32`
/// length, every float a delta) and 1 (one record per frame) are
/// retired. A header naming any other version is refused, never guessed
/// at.
pub const SEGMENT_VERSION: u32 = 5;
/// Segment header length in bytes.
pub const SEGMENT_HEADER_BYTES: u64 = 20;

/// File name for the segment starting at `start_lsn` (zero-padded so
/// lexicographic order equals LSN order).
pub fn segment_file_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:020}.log")
}

/// How a segment's file name is formed around its LSN.
pub(crate) const SEGMENT_NAME: (&str, &str) = ("wal-", ".log");

/// The LSN a file `name` of the form `(prefix, suffix)` gives — a
/// segment's ([`SEGMENT_NAME`]) or a snapshot's — as 20 digits between
/// the two; `None` for any other name.
pub(crate) fn parse_name(name: &str, (prefix, suffix): (&str, &str)) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The encoded segment header.
pub(crate) fn encode_header(start_lsn: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
    out.extend_from_slice(&SEGMENT_MAGIC);
    put_u32(&mut out, SEGMENT_VERSION);
    put_u64(&mut out, start_lsn);
    out
}

/// Validates the header at the front of `bytes` (length, magic, version)
/// and returns its start LSN.
fn parse_header(path: &Path, bytes: &[u8]) -> Result<u64, WalError> {
    let corrupt = |offset, reason| WalError::corrupt(path, offset, reason);
    if bytes.len() < SEGMENT_HEADER_BYTES as usize {
        return Err(corrupt(0, "short header"));
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(corrupt(0, "bad magic"));
    }
    let mut r = ByteReader::new(&bytes[8..SEGMENT_HEADER_BYTES as usize]);
    if r.u32().expect("header length checked") != SEGMENT_VERSION {
        return Err(corrupt(8, "unsupported version"));
    }
    Ok(r.u64().expect("header length checked"))
}

/// Reads and validates just a segment's header, returning its start LSN
/// — what [`crate::WalWriter::resume`] needs before it appends to an
/// existing tail segment.
///
/// # Errors
///
/// [`WalError::CorruptSegment`] for a short header, bad magic, or an
/// unsupported version; I/O failures.
pub(crate) fn read_segment_header(path: &Path) -> Result<u64, WalError> {
    let mut head = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
    fs::File::open(path)?
        .take(SEGMENT_HEADER_BYTES)
        .read_to_end(&mut head)?;
    parse_header(path, &head)
}

/// Lists the files in `dir` whose names have the form `form` (see
/// [`parse_name`]), sorted by LSN. Other files are ignored.
pub(crate) fn list_named(dir: &Path, form: (&str, &str)) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut named = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(lsn) = entry.file_name().to_str().and_then(|n| parse_name(n, form)) {
            named.push((lsn, entry.path()));
        }
    }
    named.sort_unstable_by_key(|&(lsn, _)| lsn);
    Ok(named)
}

/// Lists the segment files in `dir`, sorted by start LSN. Non-segment
/// files are ignored.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    list_named(dir, SEGMENT_NAME)
}

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Start LSN from the header.
    pub start_lsn: u64,
    /// Records decoded from the valid prefix, in order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + whole frames).
    pub clean_bytes: u64,
    /// Present when the file extends past the valid prefix (torn tail
    /// write or corruption); carries the reason.
    pub torn: Option<&'static str>,
}

/// Reads a whole file of the segment layout (a log segment or a
/// snapshot): its start LSN and its bytes, header included.
///
/// # Errors
///
/// [`WalError::CorruptSegment`] for a short header, bad magic, an
/// unsupported version, or a start LSN other than the one a segment's or
/// a snapshot's file name gives; I/O failures.
pub(crate) fn read_segment_file(path: &Path) -> Result<(u64, Vec<u8>), WalError> {
    let bytes = fs::read(path)?;
    let lsn = parse_header(path, &bytes)?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let named = parse_name(name, SEGMENT_NAME).or(parse_name(name, SNAPSHOT_NAME));
    if named.is_some_and(|named| named != lsn) {
        let reason = "start lsn disagrees with the file name";
        return Err(WalError::corrupt(path, 12, reason));
    }
    Ok((lsn, bytes))
}

/// Reads and validates a whole segment file. Header failures are reported
/// as errors (the caller decides whether the segment is the rewritable
/// tail of the log); frame failures are reported as a torn tail.
pub fn scan_segment(path: &Path) -> Result<SegmentScan, WalError> {
    let (start_lsn, bytes) = read_segment_file(path)?;
    let (records, clean, end) = decode_block_frames(&bytes[SEGMENT_HEADER_BYTES as usize..]);
    Ok(SegmentScan {
        start_lsn,
        records,
        clean_bytes: SEGMENT_HEADER_BYTES + clean as u64,
        torn: match end {
            FrameEnd::Clean => None,
            FrameEnd::Torn { reason } => Some(reason),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sort() {
        assert_eq!(segment_file_name(0), "wal-00000000000000000000.log");
        let parse = |name: &str| parse_name(name, SEGMENT_NAME);
        assert_eq!(parse(&segment_file_name(12345)), Some(12345));
        assert_eq!(parse("wal-abc.log"), None);
        assert_eq!(parse("snap-00000000000000000000.snap"), None);
        assert_eq!(parse("wal-123.log"), None, "unpadded rejected");
        assert!(segment_file_name(9) < segment_file_name(10));
        assert!(segment_file_name(99) < segment_file_name(100));
    }

    #[test]
    fn header_encodes_magic_version_lsn() {
        let h = encode_header(77);
        assert_eq!(h.len() as u64, SEGMENT_HEADER_BYTES);
        assert_eq!(&h[..8], &SEGMENT_MAGIC);
        let mut r = ByteReader::new(&h[8..]);
        assert_eq!(r.u32().unwrap(), SEGMENT_VERSION);
        assert_eq!(r.u64().unwrap(), 77);
    }

    #[test]
    fn header_peek_matches_header() {
        let dir = std::env::temp_dir().join(format!("modb-wal-segver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_file_name(5));
        std::fs::write(&path, encode_header(5)).unwrap();
        assert_eq!(read_segment_header(&path).unwrap(), 5);
        // Neither the retired per-record format (1), the retired
        // fixed-length frames (2), the retired one-update blocks in the
        // delta-stream layout (3), the retired per-object delta streams
        // (4) nor a future one is guessed at.
        for foreign in [1u32, 2, 3, 4, 9] {
            let mut header = encode_header(5);
            header[8..12].copy_from_slice(&foreign.to_le_bytes());
            std::fs::write(&path, &header).unwrap();
            for result in [
                read_segment_header(&path).map(|_| ()),
                scan_segment(&path).map(|_| ()),
            ] {
                assert!(matches!(
                    result,
                    Err(WalError::CorruptSegment {
                        reason: "unsupported version",
                        ..
                    })
                ));
            }
        }
        std::fs::write(&path, &encode_header(5)[..7]).unwrap();
        assert!(matches!(
            read_segment_header(&path),
            Err(WalError::CorruptSegment {
                reason: "short header",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
