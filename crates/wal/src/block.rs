//! Log blocks: record groups stored as columns, optionally LZ-compressed.
//!
//! A segment stores **blocks**: each CRC frame's payload is one block,
//! and its first byte is the block's format:
//!
//! ```text
//! [0][record_count: varint][stream]                    plain stream
//! [1][record_count: varint][uncompressed_len: varint]
//!    [stream]                                          LZ-compressed stream
//! [2][object id: varint][time][arc][speed]             one update, arc
//! [3][object id: varint][time][x][y][speed]            one update, coords
//! ```
//!
//! **One-update blocks.** A block of exactly one basic `Update` (no
//! route / direction / policy change) — every acknowledged single
//! update, the paper's unit of cost (§3) — is written as formats 2 and
//! 3: the record itself, its object id as a plain varint and each float
//! as its raw 8-byte little-endian bit pattern, with no record count, no
//! record tag and no LZ pass. Every other block is format 0 or 1.
//!
//! **The stream.** A basic `Update` is stored as a *compact* record,
//! every other record (registrations, route inserts, complex updates)
//! *verbatim*: its record's own payload ([`WalRecord::encode_payload`]).
//! The stream is a record section, then — only when the block holds a
//! compact record — a column section over its `n` compact records:
//!
//! ```text
//! record section  one tag per record, in order:
//!                 [0][len: varint][payload]   verbatim
//!                 [1]                         compact, arc
//!                 [2]                         compact, coordinates
//! column section  [w][object ids: n × w bytes]
//!                 [first time: 8 bytes][w][time deltas: (n − 1) × w bytes]
//!                 [p0: n × 8 bytes][p1: 8 bytes per coordinate record]
//!                 [speed: n × 8 bytes]
//! ```
//!
//! A width byte `w` (0–8) is the fewest bytes that hold every value of
//! its column. A time delta is the zigzag of the wrapping difference of
//! two consecutive times' IEEE-754 **bit patterns**, and every other
//! float is its raw bit pattern, so the round trip is exact — NaN
//! payloads and out-of-order times included. Every column is stored as
//! byte planes, least significant first: plane `k` holds byte `k` of
//! every value (Parquet's `BYTE_STREAM_SPLIT`, Blosc's shuffle). A
//! fleet's consecutive records belong to different vehicles, so no float
//! is a small delta from the one before it, but the floats of one column
//! share their sign-and-exponent bytes, and in planes those bytes sit
//! side by side, where the LZ stage finds them. A block with no compact
//! record (every snapshot block) is its record section alone.
//!
//! **Restart points.** A block is decoded with nothing from an earlier
//! one: every block boundary is a restart point. Recovery, compaction,
//! and the replication wire can therefore treat a block as a
//! self-contained unit — decode it with zero history, truncate a torn
//! tail at a frame (= block) boundary, or ship the frame bytes verbatim
//! to a follower that decompresses on apply. A snapshot is blocks too
//! ([`crate::snapshot`]), so one walk (`walk_blocks`) replays both.
//!
//! **Sealing.** A log's writer owns one `Sealer`: the LZ table and the
//! scratch buffers the compact records, stream, payload and frame are
//! built in, all kept from block to block — so once they have grown,
//! sealing a block allocates nothing.

use std::convert::Infallible;

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};

use crate::codec::{put_varint, read_varint, unzigzag, zigzag, ByteReader};
use crate::crc32::crc32;
use crate::error::WalError;
use crate::lz;
use crate::record::{split_frame, FrameEnd, WalRecord, MAX_RECORD_BYTES};

/// Block body is a plain stream.
pub(crate) const BLOCK_FORMAT_PLAIN: u8 = 0;
/// Block body is an LZ-compressed stream (see [`crate::lz`]).
pub(crate) const BLOCK_FORMAT_LZ: u8 = 1;
/// Block is one basic update whose position is an arc.
pub(crate) const BLOCK_FORMAT_ONE_ARC: u8 = 2;
/// Block is one basic update whose position is coordinates.
pub(crate) const BLOCK_FORMAT_ONE_COORDS: u8 = 3;

const REC_VERBATIM: u8 = 0;
const REC_COMPACT_ARC: u8 = 1;
const REC_COMPACT_COORDS: u8 = 2;

/// Scratch bytes (per buffer) and compact records a [`Sealer`] keeps
/// between blocks; a larger block's are given back when the next one is
/// sealed.
const KEEP_BYTES: usize = 1 << 16;
const KEEP_RECORDS: usize = 1 << 10;

/// A basic update (no route, direction or policy change): what a compact
/// record and a one-update block store, its floats as bit patterns.
#[derive(Debug, Clone, Copy)]
struct Basic {
    id: u64,
    /// The position is coordinates `(p0, p1)`, not an arc `p0`.
    coords: bool,
    time: u64,
    p0: u64,
    /// 0 for an arc.
    p1: u64,
    speed: u64,
}

/// `record` as a [`Basic`]; `None` for every other record.
fn basic(record: &WalRecord) -> Option<Basic> {
    let WalRecord::Update { id, msg } = record else {
        return None;
    };
    if msg.route.is_some() || msg.direction.is_some() || msg.policy.is_some() {
        return None;
    }
    let (coords, p0, p1) = match msg.position {
        UpdatePosition::Arc(arc) => (false, arc.to_bits(), 0),
        UpdatePosition::Coordinates(p) => (true, p.x.to_bits(), p.y.to_bits()),
    };
    Some(Basic {
        id: id.0,
        coords,
        time: msg.time.to_bits(),
        p0,
        p1,
        speed: msg.speed.to_bits(),
    })
}

/// The record [`basic`] took apart.
fn basic_record(b: Basic) -> WalRecord {
    let position = if b.coords {
        UpdatePosition::Coordinates(modb_geom::Point::new(
            f64::from_bits(b.p0),
            f64::from_bits(b.p1),
        ))
    } else {
        UpdatePosition::Arc(f64::from_bits(b.p0))
    };
    WalRecord::Update {
        id: ObjectId(b.id),
        msg: UpdateMessage::basic(f64::from_bits(b.time), position, f64::from_bits(b.speed)),
    }
}

/// Appends `values` as `width` byte planes, least significant first.
fn put_planes(out: &mut Vec<u8>, values: impl Iterator<Item = u64> + Clone, width: u32) {
    for k in 0..width {
        out.extend(values.clone().map(|v| (v >> (8 * k)) as u8));
    }
}

/// Appends a width byte, the fewest bytes that hold every one of
/// `values`, and `values` at that width as byte planes.
fn put_narrow(out: &mut Vec<u8>, values: impl Iterator<Item = u64> + Clone) {
    let bits = values.clone().fold(0, |all, v| all | v);
    let width = (u64::BITS - bits.leading_zeros()).div_ceil(8);
    out.push(width as u8);
    put_planes(out, values, width);
}

/// Appends the column section over `compact`, the block's compact
/// records in order; nothing when there is none.
fn put_columns(compact: &[Basic], out: &mut Vec<u8>) {
    let Some(first) = compact.first() else {
        return;
    };
    let column = |field: fn(&Basic) -> u64| compact.iter().map(field);
    put_narrow(out, column(|b| b.id));
    out.extend_from_slice(&first.time.to_le_bytes());
    let deltas = compact
        .windows(2)
        .map(|t| t[1].time.wrapping_sub(t[0].time));
    put_narrow(out, deltas.map(|d| zigzag(d as i64)));
    put_planes(out, column(|b| b.p0), 8);
    put_planes(out, compact.iter().filter(|b| b.coords).map(|b| b.p1), 8);
    put_planes(out, column(|b| b.speed), 8);
}

/// One column read back: `n` values of `width` bytes, as byte planes.
struct Planes<'a> {
    bytes: &'a [u8],
    n: usize,
    width: usize,
}

impl<'a> Planes<'a> {
    /// Reads `n` values at `width` bytes, or at the width its width byte
    /// gives (a column written by [`put_narrow`]).
    fn read(r: &mut ByteReader<'a>, n: usize, width: Option<usize>) -> Result<Self, WalError> {
        let width = match width {
            Some(width) => width,
            None => usize::from(r.u8()?),
        };
        if width > 8 {
            return Err(WalError::Decode("column wider than 8 bytes"));
        }
        let bytes = r.bytes(n * width)?;
        Ok(Planes { bytes, n, width })
    }

    fn get(&self, i: usize) -> u64 {
        (0..self.width).fold(0, |v, k| {
            v | u64::from(self.bytes[k * self.n + i]) << (8 * k)
        })
    }
}

/// The column section read back, handing out the compact records in
/// order.
struct ColumnReader<'a> {
    ids: Planes<'a>,
    time: u64,
    deltas: Planes<'a>,
    p0: Planes<'a>,
    p1: Planes<'a>,
    speeds: Planes<'a>,
    /// Compact records and coordinate records handed out so far.
    next: usize,
    next_coords: usize,
}

impl<'a> ColumnReader<'a> {
    /// Reads the columns of `n ≥ 1` compact records, `coords` of them on
    /// coordinates.
    fn read(r: &mut ByteReader<'a>, n: usize, coords: usize) -> Result<Self, WalError> {
        Ok(ColumnReader {
            ids: Planes::read(r, n, None)?,
            time: r.u64()?,
            deltas: Planes::read(r, n - 1, None)?,
            p0: Planes::read(r, n, Some(8))?,
            p1: Planes::read(r, coords, Some(8))?,
            speeds: Planes::read(r, n, Some(8))?,
            next: 0,
            next_coords: 0,
        })
    }

    /// The next compact record, whose tag says `coords`.
    fn next(&mut self, coords: bool) -> Basic {
        let i = self.next;
        if i > 0 {
            let delta = unzigzag(self.deltas.get(i - 1)) as u64;
            self.time = self.time.wrapping_add(delta);
        }
        let p1 = if coords {
            self.next_coords += 1;
            self.p1.get(self.next_coords - 1)
        } else {
            0
        };
        self.next += 1;
        Basic {
            id: self.ids.get(i),
            coords,
            time: self.time,
            p0: self.p0.get(i),
            p1,
            speed: self.speeds.get(i),
        }
    }
}

/// Appends the stream form of `records` to `out` (see the module docs),
/// with `compact` and `verbatim` as scratch.
fn encode_stream(
    records: &[WalRecord],
    compact: &mut Vec<Basic>,
    verbatim: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    compact.clear();
    compact.shrink_to(KEEP_RECORDS);
    for rec in records {
        if let Some(b) = basic(rec) {
            out.push(if b.coords {
                REC_COMPACT_COORDS
            } else {
                REC_COMPACT_ARC
            });
            compact.push(b);
        } else {
            verbatim.clear();
            rec.encode_payload(verbatim);
            out.push(REC_VERBATIM);
            put_varint(out, verbatim.len() as u64);
            out.extend_from_slice(verbatim);
        }
    }
    put_columns(compact, out);
}

/// A verbatim record's payload: its length varint and that many bytes.
fn verbatim<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], WalError> {
    let len = read_varint(r)?;
    r.bytes(usize::try_from(len).unwrap_or(usize::MAX))
}

/// Decodes a stream of exactly `count` records.
fn decode_stream(body: &[u8], count: u64) -> Result<Vec<WalRecord>, WalError> {
    // The record section, once to find the columns: every tag checked,
    // every verbatim payload skipped. A record takes a byte at least, so
    // a count the body cannot hold fails here, before it sizes anything.
    let mut r = ByteReader::new(body);
    let (mut compact, mut coords) = (0, 0);
    for _ in 0..count {
        match r.u8()? {
            REC_VERBATIM => {
                verbatim(&mut r)?;
            }
            REC_COMPACT_ARC => compact += 1,
            REC_COMPACT_COORDS => (compact, coords) = (compact + 1, coords + 1),
            _ => return Err(WalError::Decode("unknown block record tag")),
        }
    }
    let section = &body[..body.len() - r.remaining()];
    let mut columns = (compact > 0)
        .then(|| ColumnReader::read(&mut r, compact, coords))
        .transpose()?;
    if !r.is_empty() {
        return Err(WalError::Decode("trailing bytes in block body"));
    }
    // And again, to build the records in order.
    let mut records = Vec::with_capacity(count as usize);
    let mut r = ByteReader::new(section);
    while !r.is_empty() {
        let tag = r.u8()?;
        records.push(match (tag, columns.as_mut()) {
            (REC_VERBATIM, _) => WalRecord::decode_payload(verbatim(&mut r)?)?,
            (tag, Some(columns)) => basic_record(columns.next(tag == REC_COMPACT_COORDS)),
            (_, None) => unreachable!("a compact tag was counted"),
        });
    }
    Ok(records)
}

/// Decodes the body of a one-update block (formats 2 and 3).
fn decode_one_update(r: &mut ByteReader<'_>, coords: bool) -> Result<Vec<WalRecord>, WalError> {
    let id = read_varint(r)?;
    let time = r.u64()?;
    let p0 = r.u64()?;
    let p1 = if coords { r.u64()? } else { 0 };
    let speed = r.u64()?;
    if !r.is_empty() {
        return Err(WalError::Decode("trailing bytes in block body"));
    }
    Ok(vec![basic_record(Basic {
        id,
        coords,
        time,
        p0,
        p1,
        speed,
    })])
}

/// Clears a scratch buffer, giving back what a large block grew it to.
fn reset(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(KEEP_BYTES);
}

/// The one block sealer, for the log's appends and a snapshot's blocks:
/// the LZ table, the columns and the scratch buffers, kept from block to
/// block (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Sealer {
    lz: lz::Compressor,
    /// The compact records of the block being sealed.
    compact: Vec<Basic>,
    /// A verbatim record's payload, before its length is written.
    verbatim: Vec<u8>,
    stream: Vec<u8>,
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl Sealer {
    /// Encodes `records` as one block payload into `self.payload` and
    /// returns the size the limit is checked against: the block's plain
    /// form (a one-update block is its own). With `compress`, the LZ
    /// stage is applied and kept only when it actually shrinks the
    /// stream — the format byte is the pluggability seam.
    fn encode(&mut self, records: &[WalRecord], compress: bool) -> usize {
        for buf in [&mut self.verbatim, &mut self.stream, &mut self.payload] {
            reset(buf);
        }
        if let [record] = records {
            if let Some(b) = basic(record) {
                let payload = &mut self.payload;
                payload.push(if b.coords {
                    BLOCK_FORMAT_ONE_COORDS
                } else {
                    BLOCK_FORMAT_ONE_ARC
                });
                put_varint(payload, b.id);
                payload.extend_from_slice(&b.time.to_le_bytes());
                payload.extend_from_slice(&b.p0.to_le_bytes());
                if b.coords {
                    payload.extend_from_slice(&b.p1.to_le_bytes());
                }
                payload.extend_from_slice(&b.speed.to_le_bytes());
                return payload.len();
            }
        }
        encode_stream(
            records,
            &mut self.compact,
            &mut self.verbatim,
            &mut self.stream,
        );
        let count = records.len() as u64;
        if compress {
            self.payload.push(BLOCK_FORMAT_LZ);
            put_varint(&mut self.payload, count);
            let plain = self.payload.len() + self.stream.len();
            put_varint(&mut self.payload, self.stream.len() as u64);
            let header = self.payload.len();
            self.lz.compress(&self.stream, &mut self.payload);
            // Header overhead of format 1 is the uncompressed_len varint.
            if self.payload.len() - header + 10 < self.stream.len() {
                return plain;
            }
            self.payload.clear();
        }
        self.payload.push(BLOCK_FORMAT_PLAIN);
        put_varint(&mut self.payload, count);
        self.payload.extend_from_slice(&self.stream);
        self.payload.len()
    }

    /// `records` sealed as one framed block (one restart point, the LZ
    /// stage kept only when it shrinks the block), built in the sealer's
    /// own buffer, which the next seal reuses.
    ///
    /// # Errors
    ///
    /// [`WalError::FrameTooLarge`] for a block whose plain form is over
    /// [`MAX_RECORD_BYTES`], which every reader would refuse as torn.
    pub(crate) fn seal(&mut self, records: &[WalRecord]) -> Result<&[u8], WalError> {
        fits(self.encode(records, true))?;
        reset(&mut self.frame);
        frame_block(&self.payload, &mut self.frame);
        Ok(&self.frame)
    }

    /// The frame the last [`Sealer::seal`] built.
    pub(crate) fn frame(&self) -> &[u8] {
        &self.frame
    }
}

/// Encodes `records` as one block payload (no framing), as a log's
/// writer seals it; with `compress`, the LZ stage is tried.
pub fn encode_block(records: &[WalRecord], compress: bool, out: &mut Vec<u8>) {
    let mut sealer = Sealer::default();
    sealer.encode(records, compress);
    out.extend_from_slice(&sealer.payload);
}

/// Refuses, writing nothing, a record an append could not seal as a
/// block of its own: the check for a caller that must know a record can
/// be logged before it applies the mutation. A record whose names and
/// vertices encode to under half the limit passes unmeasured (the rest
/// of any record is a few hundred bytes); a larger one is measured as
/// sealing measures it, by its plain block.
///
/// # Errors
///
/// [`WalError::FrameTooLarge`].
pub fn check_frame(record: &WalRecord) -> Result<(), WalError> {
    let bulk = match record {
        WalRecord::RegisterMoving(obj) => obj.name.len(),
        WalRecord::InsertStationary(obj) => obj.name.len(),
        WalRecord::InsertRoute(route) => {
            route.name().len() + 16 * route.polyline().vertices().len()
        }
        _ => 0,
    };
    if bulk < MAX_RECORD_BYTES as usize / 2 {
        return Ok(());
    }
    fits(Sealer::default().encode(std::slice::from_ref(record), false))
}

/// [`WalError::FrameTooLarge`] for a block measuring over
/// [`MAX_RECORD_BYTES`].
fn fits(len: usize) -> Result<(), WalError> {
    let (len, max) = (len as u64, MAX_RECORD_BYTES);
    if len > u64::from(max) {
        return Err(WalError::FrameTooLarge { len, max });
    }
    Ok(())
}

/// Decodes one block payload back into its records.
///
/// # Errors
///
/// [`WalError::Decode`] on any malformed byte — the caller treats a bad
/// block as a torn tail / corruption.
pub fn decode_block(payload: &[u8]) -> Result<Vec<WalRecord>, WalError> {
    let mut r = ByteReader::new(payload);
    let format = r.u8()?;
    match format {
        BLOCK_FORMAT_ONE_ARC | BLOCK_FORMAT_ONE_COORDS => {
            decode_one_update(&mut r, format == BLOCK_FORMAT_ONE_COORDS)
        }
        BLOCK_FORMAT_PLAIN | BLOCK_FORMAT_LZ => {
            let count = read_varint(&mut r)?;
            let body = &payload[payload.len() - r.remaining()..];
            if format == BLOCK_FORMAT_PLAIN {
                return decode_stream(body, count);
            }
            let mut r = ByteReader::new(body);
            let uncompressed = read_varint(&mut r)? as usize;
            if uncompressed > MAX_RECORD_BYTES as usize {
                return Err(WalError::Decode("implausible block length"));
            }
            let packed = &body[body.len() - r.remaining()..];
            let stream = lz::decompress(packed, uncompressed)?;
            decode_stream(&stream, count)
        }
        _ => Err(WalError::Decode("unknown block format")),
    }
}

/// Reads the record count from a block payload without decompressing it
/// — what the tailer needs to account LSNs while shipping raw frames. A
/// one-update block counts 1.
///
/// # Errors
///
/// [`WalError::Decode`] when the header bytes are malformed.
pub fn peek_block_count(payload: &[u8]) -> Result<u64, WalError> {
    let mut r = ByteReader::new(payload);
    match r.u8()? {
        BLOCK_FORMAT_ONE_ARC | BLOCK_FORMAT_ONE_COORDS => Ok(1),
        BLOCK_FORMAT_PLAIN | BLOCK_FORMAT_LZ => read_varint(&mut r),
        _ => Err(WalError::Decode("unknown block format")),
    }
}

/// Appends the CRC frame (`len varint + crc + payload`, see
/// [`crate::record`]) for one block payload — the one frame writer.
pub fn frame_block(payload: &[u8], out: &mut Vec<u8>) {
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The one replay loop: walks the block frames of `buf` ([`split_frame`]
/// → [`decode_block`]) and hands each whole valid block's records to
/// `apply`, with the byte offset of its frame — one block of records at
/// a time, for recovery, a bootstrapping follower and
/// [`decode_block_frames`] alike. Returns the byte length of the valid
/// prefix and how the walk ended: an invalid frame, or a block that fails
/// to decode behind a valid CRC, ends it as torn.
///
/// # Errors
///
/// Whatever `apply` returns; it stops the walk.
pub(crate) fn walk_blocks<E>(
    buf: &[u8],
    mut apply: impl FnMut(Vec<WalRecord>, usize) -> Result<(), E>,
) -> Result<(usize, FrameEnd), E> {
    let mut pos = 0usize;
    loop {
        match split_frame(&buf[pos..]) {
            Ok(None) => return Ok((pos, FrameEnd::Clean)),
            Ok(Some((payload, frame_len))) => match decode_block(payload) {
                Ok(records) => {
                    apply(records, pos)?;
                    pos += frame_len;
                }
                Err(_) => {
                    let reason = "undecodable block";
                    return Ok((pos, FrameEnd::Torn { reason }));
                }
            },
            Err(reason) => return Ok((pos, FrameEnd::Torn { reason })),
        }
    }
}

/// The block walk (`walk_blocks`), collected: the records of every whole valid block,
/// the byte length of the valid prefix, and how decoding ended.
pub fn decode_block_frames(buf: &[u8]) -> (Vec<WalRecord>, usize, FrameEnd) {
    let mut records = Vec::new();
    let Ok((clean, end)) = walk_blocks(buf, |block, _| {
        records.extend(block);
        Ok::<(), Infallible>(())
    });
    (records, clean, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::frame_len;
    use modb_core::{ObjectId, UpdateMessage, UpdatePosition};

    fn update(id: u64, time: f64, arc: f64, speed: f64) -> WalRecord {
        WalRecord::Update {
            id: ObjectId(id),
            msg: UpdateMessage::basic(time, UpdatePosition::Arc(arc), speed),
        }
    }

    fn round_trip(records: &[WalRecord]) -> usize {
        for compress in [false, true] {
            let mut payload = Vec::new();
            encode_block(records, compress, &mut payload);
            assert_eq!(peek_block_count(&payload).unwrap(), records.len() as u64);
            assert_eq!(decode_block(&payload).unwrap(), records);
        }
        let mut payload = Vec::new();
        encode_block(records, true, &mut payload);
        payload.len()
    }

    #[test]
    fn empty_and_single_record_blocks() {
        round_trip(&[]);
        round_trip(&[update(3, 1.0, 0.5, 0.7)]);
        round_trip(&[WalRecord::RemoveMoving(ObjectId(9))]);
    }

    #[test]
    fn fleet_round_blocks_shrink_hard() {
        // One W1-style round: many objects, identical time/arc/speed.
        let records: Vec<WalRecord> = (0..64).map(|i| update(i, 0.01, 0.5, 0.7)).collect();
        // What one CRC frame per record would cost.
        let framed_singly: usize = records
            .iter()
            .map(|r| {
                let mut payload = Vec::new();
                r.encode_payload(&mut payload);
                frame_len(payload.len())
            })
            .sum();
        let block_bytes = frame_len(round_trip(&records)); // plus its one frame header
        assert!(
            block_bytes * 2 < framed_singly,
            "block must at least halve the bytes: {block_bytes} vs {framed_singly}"
        );
    }

    #[test]
    fn interleaved_objects_round_trip() {
        // Two objects interleaved with different trajectories.
        let mut records = Vec::new();
        for round in 0..10 {
            records.push(update(1, round as f64, round as f64 * 2.0, 1.0));
            records.push(update(2, round as f64 + 0.5, 100.0 - round as f64, 2.0));
        }
        round_trip(&records);
    }

    #[test]
    fn out_of_order_times_and_nan_round_trip_bit_exact() {
        let records = vec![
            update(1, 5.0, 1.0, 1.0),
            update(2, 3.0, 2.0, 1.0), // earlier time, different object
            update(1, f64::NAN, -0.0, f64::INFINITY),
            WalRecord::Update {
                id: ObjectId(1),
                msg: UpdateMessage::basic(
                    6.0,
                    UpdatePosition::Coordinates(modb_geom::Point::new(1.5, -2.5)),
                    0.0,
                ),
            },
        ];
        for compress in [false, true] {
            let mut payload = Vec::new();
            encode_block(&records, compress, &mut payload);
            let back = decode_block(&payload).unwrap();
            match (&back[2], &records[2]) {
                (WalRecord::Update { msg: a, .. }, WalRecord::Update { msg: b, .. }) => {
                    assert_eq!(a.time.to_bits(), b.time.to_bits());
                    assert_eq!(a.speed.to_bits(), b.speed.to_bits());
                }
                _ => unreachable!(),
            }
            assert_eq!(back[3], records[3]);
        }
    }

    #[test]
    fn complex_records_fall_back_to_verbatim() {
        let records = vec![
            update(1, 1.0, 1.0, 1.0),
            WalRecord::Update {
                id: ObjectId(1),
                msg: UpdateMessage {
                    route: Some(modb_routes::RouteId(4)),
                    ..UpdateMessage::basic(2.0, UpdatePosition::Arc(0.0), 1.0)
                },
            },
            update(1, 3.0, 2.0, 1.0),
        ];
        round_trip(&records);
    }

    /// A record far below the limit passes unmeasured; a larger one is
    /// measured as sealing measures it, by its plain block, so the two
    /// agree to the byte: a name whose plain block is exactly the limit
    /// passes both, one byte longer is refused by both.
    #[test]
    fn check_frame_agrees_with_sealing() {
        let landmark = |len: usize| {
            WalRecord::InsertStationary(modb_core::StationaryObject::new(
                ObjectId(1),
                "x".repeat(len),
                modb_geom::Point::new(0.0, 0.0),
            ))
        };
        let plain = |len: usize| {
            let mut payload = Vec::new();
            encode_block(&[landmark(len)], false, &mut payload);
            payload.len()
        };
        let max = MAX_RECORD_BYTES as usize;
        // Near the limit every length varint takes four bytes, so the
        // plain block's overhead over the name is constant there.
        let half = max / 2 + 64;
        let longest = max - (plain(half) - half);
        assert_eq!(plain(longest), max);
        let mut sealer = Sealer::default();
        for (len, fits) in [
            (8, true),
            (half, true),
            (longest, true),
            (longest + 1, false),
        ] {
            let rec = landmark(len);
            let sealed = sealer.seal(std::slice::from_ref(&rec)).map(|_| ());
            assert_eq!(check_frame(&rec).is_ok(), fits, "name of {len} bytes");
            assert_eq!(sealed.is_ok(), fits, "name of {len} bytes");
        }
        let over = u64::from(MAX_RECORD_BYTES) + 1;
        assert!(matches!(
            check_frame(&landmark(longest + 1)),
            Err(WalError::FrameTooLarge { len, .. }) if len == over
        ));
    }

    /// A block of one basic update is the record itself: format 2 (arc)
    /// or 3 (coordinates), the id as a plain varint and the floats' raw
    /// bits, framed in `5 + 1 + varint(id) + 24` bytes on an arc (8 more
    /// with a second coordinate). It counts 1, round-trips bit-exactly,
    /// and a cut or a trailing byte fails to decode.
    #[test]
    fn a_one_update_block_is_its_record() {
        let coords = |id: u64| WalRecord::Update {
            id: ObjectId(id),
            msg: UpdateMessage::basic(
                2.5,
                UpdatePosition::Coordinates(modb_geom::Point::new(-1.0, f64::NAN)),
                0.0,
            ),
        };
        for (id, id_bytes) in [(0, 1), (127, 1), (128, 2), (300, 2), (u64::MAX, 10)] {
            for (rec, format, floats) in [
                (update(id, 9.25, 58.5, 1.25), BLOCK_FORMAT_ONE_ARC, 3),
                (coords(id), BLOCK_FORMAT_ONE_COORDS, 4),
            ] {
                let mut payload = Vec::new();
                encode_block(std::slice::from_ref(&rec), true, &mut payload);
                let b = basic(&rec).unwrap();
                let raw = [b.time, b.p0, b.p1, b.speed];
                let mut expected = vec![format];
                put_varint(&mut expected, id);
                for (i, field) in raw.iter().enumerate() {
                    if i != 2 || floats == 4 {
                        expected.extend_from_slice(&field.to_le_bytes());
                    }
                }
                assert_eq!(payload, expected, "id {id}");
                let mut frame = Vec::new();
                frame_block(&payload, &mut frame);
                assert_eq!(frame.len(), 5 + 1 + id_bytes + 8 * floats, "id {id}");
                assert_eq!(
                    Sealer::default().seal(std::slice::from_ref(&rec)).unwrap(),
                    frame
                );

                assert_eq!(peek_block_count(&payload).unwrap(), 1);
                let back = basic(&decode_block(&payload).unwrap()[0]).unwrap();
                let fields = [back.time, back.p0, back.p1, back.speed];
                assert_eq!((back.id, back.coords, fields), (id, floats == 4, raw));
                for cut in 0..payload.len() {
                    assert!(decode_block(&payload[..cut]).is_err(), "id {id}, cut {cut}");
                }
                payload.push(0);
                assert!(decode_block(&payload).is_err(), "id {id}, trailing byte");
            }
        }
        // Any other single record is a one-record stream (plain here; the
        // LZ stage may shrink it).
        let route_change = WalRecord::Update {
            id: ObjectId(1),
            msg: UpdateMessage {
                route: Some(modb_routes::RouteId(4)),
                ..UpdateMessage::basic(2.0, UpdatePosition::Arc(0.0), 1.0)
            },
        };
        for rec in [route_change, WalRecord::RemoveMoving(ObjectId(9))] {
            let mut payload = Vec::new();
            encode_block(std::slice::from_ref(&rec), false, &mut payload);
            assert_eq!(payload[..3], [BLOCK_FORMAT_PLAIN, 1, REC_VERBATIM]);
        }
    }

    /// One sealer kept across blocks — the writer's — seals every block
    /// exactly as a fresh one would: no column entry, LZ generation or
    /// scratch byte of one block reaches the next, a block larger than the
    /// scratch it keeps included.
    #[test]
    fn a_reused_sealer_seals_as_a_fresh_one() {
        let long = WalRecord::InsertStationary(modb_core::StationaryObject::new(
            ObjectId(4),
            "depot ".repeat(KEEP_BYTES / 4),
            modb_geom::Point::new(0.0, 0.0),
        ));
        let fleet = |t: f64| -> Vec<WalRecord> {
            (0..40).map(|i| update(i % 9, t, i as f64, 0.7)).collect()
        };
        let blocks = [
            fleet(1.0),
            vec![update(3, 2.0, 4.0, 0.7)],
            vec![long.clone(), update(3, 3.0, 5.0, 0.7)],
            fleet(2.0),
            vec![long],
            vec![update(3, 4.0, 6.0, 0.7)],
            fleet(3.0),
        ];
        let mut sealer = Sealer::default();
        for block in &blocks {
            let mut payload = Vec::new();
            encode_block(block, true, &mut payload);
            let mut fresh = Vec::new();
            frame_block(&payload, &mut fresh);
            assert_eq!(sealer.seal(block).unwrap(), fresh);
            assert_eq!(decode_block(&payload).unwrap(), *block);
        }
    }

    #[test]
    fn corrupt_blocks_are_rejected() {
        let records: Vec<WalRecord> = (0..32).map(|i| update(i, 1.0, 0.5, 0.7)).collect();
        for compress in [false, true] {
            let mut payload = Vec::new();
            encode_block(&records, compress, &mut payload);
            for cut in 0..payload.len() {
                assert!(decode_block(&payload[..cut]).is_err(), "cut {cut}");
            }
        }
        assert!(decode_block(&[]).is_err());
        assert!(decode_block(&[9, 1]).is_err(), "unknown format");
        assert!(peek_block_count(&[9, 1]).is_err());
    }

    /// Bytes `k` of every value, for `k` in `0..8`: a column's planes.
    fn planes(values: &[u64]) -> Vec<u8> {
        (0..8)
            .flat_map(|k| values.iter().map(move |v| v.to_le_bytes()[k]))
            .collect()
    }

    /// The stream is the record section — a tag per record, a verbatim
    /// record inline — then the columns of the compact records: the ids
    /// and the time deltas at the fewest bytes that hold them, the first
    /// time and every other float raw, each column as byte planes.
    #[test]
    fn the_stream_is_a_record_section_then_byte_planes() {
        let at = |x: f64, y: f64| UpdatePosition::Coordinates(modb_geom::Point::new(x, y));
        let records = [
            update(5, 2.0, 7.0, 0.25),
            WalRecord::RemoveMoving(ObjectId(9)),
            WalRecord::Update {
                id: ObjectId(0x0102),
                msg: UpdateMessage::basic(1.0, at(3.0, 4.0), 0.5),
            },
        ];
        let mut removal = Vec::new();
        records[1].encode_payload(&mut removal);
        let mut expected = vec![BLOCK_FORMAT_PLAIN, 3, REC_COMPACT_ARC, REC_VERBATIM];
        expected.push(removal.len() as u8);
        expected.extend(&removal);
        expected.push(REC_COMPACT_COORDS);
        // Ids 5 and 0x0102 take two bytes: the low plane, then the high.
        expected.extend([2, 0x05, 0x02, 0x00, 0x01]);
        // The first time raw, then the one delta of bit patterns, which
        // takes seven bytes (one value's planes are its bytes).
        let (t0, t1) = (2.0f64.to_bits(), 1.0f64.to_bits());
        expected.extend(t0.to_le_bytes());
        let delta = zigzag(t1.wrapping_sub(t0) as i64);
        expected.push(7);
        expected.extend(&delta.to_le_bytes()[..7]);
        let bits = |v: &[f64]| planes(&v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
        expected.extend(bits(&[7.0, 3.0]));
        expected.extend(bits(&[4.0]));
        expected.extend(bits(&[0.25, 0.5]));
        let mut payload = Vec::new();
        encode_block(&records, false, &mut payload);
        assert_eq!(payload, expected);
        assert_eq!(decode_block(&payload).unwrap(), records);
    }

    /// A splitmix64 stream: the property test's seeded randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A float a hostile or unlucky log can hold: a NaN with a
        /// payload, −0.0, ±∞, any bit pattern, or an ordinary value.
        fn float(&mut self) -> f64 {
            match self.below(8) {
                0 => f64::from_bits(0x7ff8_0000_dead_beef),
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::from_bits(self.next()),
                _ => self.below(100_000) as f64 / 64.0 - 500.0,
            }
        }

        /// A block of up to 40 records: arc and coordinate updates,
        /// verbatim records among them, ids repeated and at both ends of
        /// the range, times in no order.
        fn block(&mut self) -> Vec<WalRecord> {
            let mut ids = vec![0, u64::MAX];
            (0..self.below(41))
                .map(|_| {
                    let id = match self.below(4) {
                        0 => ids[self.below(ids.len() as u64) as usize],
                        1 => self.next(),
                        _ => self.below(60_000),
                    };
                    ids.push(id);
                    let position = if self.below(3) == 0 {
                        let (x, y) = (self.float(), self.float());
                        UpdatePosition::Coordinates(modb_geom::Point::new(x, y))
                    } else {
                        UpdatePosition::Arc(self.float())
                    };
                    let msg = UpdateMessage::basic(self.float(), position, self.float());
                    let (id, route) = (ObjectId(id), Some(modb_routes::RouteId(4)));
                    match self.below(8) {
                        0 => WalRecord::RemoveMoving(id),
                        1 => WalRecord::LeaderEpoch { epoch: id.0 },
                        2 => WalRecord::Update {
                            id,
                            msg: UpdateMessage { route, ..msg },
                        },
                        _ => WalRecord::Update { id, msg },
                    }
                })
                .collect()
        }
    }

    /// Each record's payload bytes: equal exactly when the records are
    /// equal bit for bit, NaN payloads included.
    fn bit_patterns(records: &[WalRecord]) -> Vec<Vec<u8>> {
        records
            .iter()
            .map(|r| {
                let mut payload = Vec::new();
                r.encode_payload(&mut payload);
                payload
            })
            .collect()
    }

    fn refused(payload: &[u8]) -> bool {
        matches!(decode_block(payload), Err(WalError::Decode(_)))
    }

    /// Random blocks round-trip bit-exactly, plain and through the LZ
    /// stage; every cut, a trailing byte, a width byte above 8 and a
    /// count the body cannot hold are refused as `Decode`, not a panic
    /// or an allocation sized by the count.
    #[test]
    fn random_blocks_round_trip_and_every_malformed_one_is_refused() {
        let mut rng = Rng(0x5eed_0005);
        for case in 0..48 {
            let records = rng.block();
            for compress in [false, true] {
                let mut payload = Vec::new();
                encode_block(&records, compress, &mut payload);
                let count = records.len() as u64;
                assert_eq!(peek_block_count(&payload).unwrap(), count, "case {case}");
                let back = decode_block(&payload).unwrap();
                assert_eq!(bit_patterns(&back), bit_patterns(&records), "case {case}");
                for cut in 0..payload.len() {
                    assert!(refused(&payload[..cut]), "case {case}, cut {cut}");
                }
                payload.push(0);
                assert!(refused(&payload), "case {case}, trailing byte");
            }
            // The width bytes of a plain block's columns, past its count
            // and record section: the ids', then the time deltas'.
            let compact: Vec<Basic> = records.iter().filter_map(basic).collect();
            if compact.is_empty() || records.len() == 1 {
                continue;
            }
            let mut payload = Vec::new();
            encode_block(&records, false, &mut payload);
            let varint_len = |v: usize| {
                let mut bytes = Vec::new();
                put_varint(&mut bytes, v as u64);
                bytes.len()
            };
            let section: usize = (bit_patterns(&records).iter().zip(&records))
                .map(|(bytes, rec)| match basic(rec) {
                    Some(_) => 1,
                    None => 1 + varint_len(bytes.len()) + bytes.len(),
                })
                .sum();
            let ids = 1 + varint_len(records.len()) + section;
            let times = ids + 1 + compact.len() * usize::from(payload[ids]) + 8;
            for at in [ids, times] {
                assert!(payload[at] <= 8, "case {case}");
                let mut wide = payload.clone();
                wide[at] = 9 + rng.below(247) as u8;
                assert!(refused(&wide), "case {case}, width {}", wide[at]);
            }
        }
        for format in [BLOCK_FORMAT_PLAIN, BLOCK_FORMAT_LZ] {
            let mut hostile = vec![format];
            put_varint(&mut hostile, u64::MAX);
            hostile.extend([REC_COMPACT_ARC; 4]);
            assert!(refused(&hostile), "format {format}");
        }
    }

    /// A small framed stream holding every block format — a one-update
    /// block on an arc (2), a verbatim record (0), a one-update block on
    /// coordinates (3), a fleet round the LZ stage shrinks (1) and a
    /// `LeaderEpoch` (0) — with each block's records and the frame
    /// boundaries.
    fn framed_stream() -> (Vec<Vec<WalRecord>>, Vec<u8>, Vec<usize>) {
        let blocks = vec![
            vec![update(1, 1.0, 0.5, 0.7)],
            vec![WalRecord::RemoveMoving(ObjectId(9))],
            vec![WalRecord::Update {
                id: ObjectId(2),
                msg: UpdateMessage::basic(
                    2.0,
                    UpdatePosition::Coordinates(modb_geom::Point::new(1.5, -2.5)),
                    0.7,
                ),
            }],
            (0..12).map(|i| update(i, 3.0, 1.5, 0.7)).collect(),
            vec![WalRecord::LeaderEpoch { epoch: 2 }],
        ];
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        let mut formats = Vec::new();
        for block in &blocks {
            let mut payload = Vec::new();
            encode_block(block, true, &mut payload);
            formats.push(payload[0]);
            frame_block(&payload, &mut buf);
            boundaries.push(buf.len());
        }
        assert_eq!(formats, [2, 0, 3, 1, 0]);
        (blocks, buf, boundaries)
    }

    #[test]
    fn torn_tail_detected_at_every_truncation_point() {
        let (blocks, buf, boundaries) = framed_stream();
        for cut in 0..=buf.len() {
            let (decoded, clean, end) = decode_block_frames(&buf[..cut]);
            // The valid prefix is the largest frame boundary <= cut.
            let expect_n = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded, blocks[..expect_n].concat(), "cut at {cut}");
            assert_eq!(clean, boundaries[expect_n], "cut at {cut}");
            if cut == boundaries[expect_n] {
                assert_eq!(end, FrameEnd::Clean);
            } else {
                assert!(matches!(end, FrameEnd::Torn { .. }), "cut at {cut}");
            }
        }
    }

    #[test]
    fn corrupt_byte_and_zero_filled_tail_end_the_valid_prefix() {
        let (blocks, buf, boundaries) = framed_stream();
        // Flip one payload byte in the third frame: decoding stops there.
        let mut bad = buf.clone();
        bad[boundaries[2] + 9] ^= 0x40;
        let (decoded, clean, end) = decode_block_frames(&bad);
        assert_eq!(decoded, blocks[..2].concat());
        assert_eq!(clean, boundaries[2]);
        assert_eq!(
            end,
            FrameEnd::Torn {
                reason: "crc mismatch"
            }
        );
        // A pre-allocated (zeroed) file tail reads as torn, not as data.
        let mut padded = buf.clone();
        padded.extend_from_slice(&[0u8; 64]);
        let (decoded, clean, end) = decode_block_frames(&padded);
        assert_eq!(decoded, blocks.concat());
        assert_eq!(clean, buf.len());
        assert_eq!(
            end,
            FrameEnd::Torn {
                reason: "implausible frame length"
            }
        );
    }
}
