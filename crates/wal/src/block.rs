//! Log blocks: delta-encoded, optionally LZ-compressed record groups.
//!
//! A segment stores **blocks**: each CRC frame's payload is one block,
//! and its first byte is the block's format:
//!
//! ```text
//! [0][record_count: varint][body]                      plain delta stream
//! [1][record_count: varint][uncompressed_len: varint]
//!    [body]                                            LZ-compressed stream
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
//! **Delta stream.** Position updates dominate the log and are highly
//! repetitive — the same object ids, nearby floats, monotone timestamps
//! (W1 measured ~45 payload bytes each). A basic `Update` is therefore
//! stored as a *compact* record:
//! the object id as a zigzag varint delta against the previous record's
//! id, and `time` / position / `speed` as zigzag varints of the wrapping
//! difference of IEEE-754 **bit patterns** against the encoder context —
//! the last values seen *for that object* in this block, falling back to
//! the last values in the stream for an object's first appearance (fleet
//! updates are temporally correlated across objects, so the stream-level
//! fallback is usually a near-zero delta too). The block's *first*
//! compact record has no context to speak of (all zeros, and the varint
//! of a positive `f64`'s bits is 9–10 bytes), so it stores each of those
//! floats as its raw 8-byte little-endian bit pattern instead.
//! Bit-pattern arithmetic makes the round trip exact, NaN payloads
//! included. Everything else
//! (registrations, route inserts, complex updates) is stored *verbatim*:
//! a tag, a length varint, and the record's own payload
//! ([`WalRecord::encode_payload`]).
//!
//! **Restart points.** The encoder context lives and dies with the
//! block: every block boundary is a restart point. Recovery, compaction,
//! and the replication wire can therefore treat a block as a
//! self-contained unit — decode it with zero history, truncate a torn
//! tail at a frame (= block) boundary, or ship the frame bytes verbatim
//! to a follower that decompresses on apply. A snapshot is blocks too
//! ([`crate::snapshot`]), so one walk ([`walk_blocks`]) replays both.
//!
//! **Sealing.** A log's writer owns one `Sealer`: the LZ table, the
//! per-object context map (cleared per block) and the scratch buffers
//! the stream, payload and frame are built in, all kept from block to
//! block — so once they have grown, sealing a block allocates nothing.

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{BuildHasherDefault, Hasher};

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};

use crate::codec::{put_varint, read_varint, unzigzag, zigzag, ByteReader};
use crate::crc32::crc32;
use crate::error::WalError;
use crate::lz;
use crate::record::{split_frame, FrameEnd, WalRecord, MAX_RECORD_BYTES};

/// Block body is a plain delta stream.
pub const BLOCK_FORMAT_PLAIN: u8 = 0;
/// Block body is an LZ-compressed delta stream (see [`crate::lz`]).
pub const BLOCK_FORMAT_LZ: u8 = 1;
/// Block is one basic update whose position is an arc.
pub const BLOCK_FORMAT_ONE_ARC: u8 = 2;
/// Block is one basic update whose position is coordinates.
pub const BLOCK_FORMAT_ONE_COORDS: u8 = 3;

const REC_VERBATIM: u8 = 0;
const REC_COMPACT_ARC: u8 = 1;
const REC_COMPACT_COORDS: u8 = 2;

/// Scratch bytes (per buffer) and context-map entries a [`Sealer`]
/// keeps between blocks; a larger block's are given back when the next
/// one is sealed.
const KEEP_BYTES: usize = 1 << 16;
const KEEP_OBJECTS: usize = 1 << 10;

/// Per-object (and stream-fallback) delta context: the raw bit patterns
/// of the last time / position / speed values.
#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    time: u64,
    p0: u64,
    p1: u64,
    speed: u64,
}

/// Hashes an object id with one multiply, for the sealer's context map.
/// The map holds one block's records (a database's tail is appended at
/// 32), so ids chosen to collide cost a seal at most a scan of its own
/// block, and SipHash's defence buys nothing there.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The per-object delta contexts of one block being sealed.
type Contexts = HashMap<u64, Ctx, BuildHasherDefault<IdHasher>>;

/// A basic update (no route, direction or policy change) as its object
/// id, whether its position is coordinates, and its floats' bit patterns
/// (`p1` is 0 for an arc) — what a compact record and a one-update block
/// store. `None` for every other record.
fn basic(record: &WalRecord) -> Option<(u64, bool, Ctx)> {
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
    let floats = Ctx {
        time: msg.time.to_bits(),
        p0,
        p1,
        speed: msg.speed.to_bits(),
    };
    Some((id.0, coords, floats))
}

/// The record [`basic`] took apart.
fn basic_record(id: u64, coords: bool, floats: Ctx) -> WalRecord {
    let position = if coords {
        UpdatePosition::Coordinates(modb_geom::Point::new(
            f64::from_bits(floats.p0),
            f64::from_bits(floats.p1),
        ))
    } else {
        UpdatePosition::Arc(f64::from_bits(floats.p0))
    };
    WalRecord::Update {
        id: ObjectId(id),
        msg: UpdateMessage::basic(
            f64::from_bits(floats.time),
            position,
            f64::from_bits(floats.speed),
        ),
    }
}

fn delta(cur: u64, prev: u64) -> u64 {
    zigzag(cur.wrapping_sub(prev) as i64)
}

fn undelta(d: u64, prev: u64) -> u64 {
    prev.wrapping_add(unzigzag(d) as u64)
}

/// Appends one float field: its raw 8-byte LE bit pattern in the block's
/// first compact record (`raw`: the context is all zeros, and the varint
/// of a delta against zero bits takes 9–10 bytes), a zigzag varint delta
/// against `prev` in every later one.
fn put_field(out: &mut Vec<u8>, raw: bool, cur: u64, prev: u64) {
    if raw {
        out.extend_from_slice(&cur.to_le_bytes());
    } else {
        put_varint(out, delta(cur, prev));
    }
}

/// Reads one float field written by [`put_field`].
fn read_field(r: &mut ByteReader<'_>, raw: bool, prev: u64) -> Result<u64, WalError> {
    if raw {
        r.u64()
    } else {
        Ok(undelta(read_varint(r)?, prev))
    }
}

/// Appends the delta-stream form of `records` to `out`, with `contexts`
/// empty on entry and `verbatim` as scratch. The context starts empty:
/// the stream is self-contained (a restart point).
fn encode_stream(
    records: &[WalRecord],
    contexts: &mut Contexts,
    verbatim: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    let mut last_id = 0u64;
    let mut last = Ctx::default();
    let mut raw = true;
    for rec in records {
        let Some((id, coords, cur)) = basic(rec) else {
            verbatim.clear();
            rec.encode_payload(verbatim);
            out.push(REC_VERBATIM);
            put_varint(out, verbatim.len() as u64);
            out.extend_from_slice(verbatim);
            continue;
        };
        let ctx = contexts.get(&id).copied().unwrap_or(last);
        // An arc leaves the context's second coordinate as it was.
        let cur = if coords {
            cur
        } else {
            Ctx { p1: ctx.p1, ..cur }
        };
        out.push(if coords {
            REC_COMPACT_COORDS
        } else {
            REC_COMPACT_ARC
        });
        put_varint(out, delta(id, last_id));
        put_field(out, raw, cur.time, ctx.time);
        put_field(out, raw, cur.p0, ctx.p0);
        if coords {
            put_field(out, raw, cur.p1, ctx.p1);
        }
        put_field(out, raw, cur.speed, ctx.speed);
        contexts.insert(id, cur);
        last = cur;
        last_id = id;
        raw = false;
    }
}

/// Decodes a delta stream of exactly `count` records; mirrors
/// [`encode_stream`]'s context rules.
fn decode_stream(body: &[u8], count: u64) -> Result<Vec<WalRecord>, WalError> {
    let mut records = Vec::with_capacity((count as usize).min(body.len()));
    let mut r = ByteReader::new(body);
    let mut last_id = 0u64;
    let mut last = Ctx::default();
    // Keyed by ids read from outside (a follower decodes its leader's
    // blocks), so this map keeps the default hasher.
    let mut contexts: HashMap<u64, Ctx> = HashMap::new();
    let mut raw = true;
    for _ in 0..count {
        let tag = r.u8()?;
        match tag {
            REC_VERBATIM => {
                let len = read_varint(&mut r)? as usize;
                if len > r.remaining() {
                    return Err(WalError::Decode("verbatim record overrun"));
                }
                let mut payload = vec![0u8; len];
                for b in payload.iter_mut() {
                    *b = r.u8().expect("length checked");
                }
                records.push(WalRecord::decode_payload(&payload)?);
            }
            REC_COMPACT_ARC | REC_COMPACT_COORDS => {
                let coords = tag == REC_COMPACT_COORDS;
                let id = undelta(read_varint(&mut r)?, last_id);
                let ctx = contexts.get(&id).copied().unwrap_or(last);
                let time = read_field(&mut r, raw, ctx.time)?;
                let p0 = read_field(&mut r, raw, ctx.p0)?;
                let p1 = if coords {
                    read_field(&mut r, raw, ctx.p1)?
                } else {
                    ctx.p1
                };
                let speed = read_field(&mut r, raw, ctx.speed)?;
                let cur = Ctx {
                    time,
                    p0,
                    p1,
                    speed,
                };
                records.push(basic_record(id, coords, cur));
                contexts.insert(id, cur);
                last = cur;
                last_id = id;
                raw = false;
            }
            _ => return Err(WalError::Decode("unknown block record tag")),
        }
    }
    if !r.is_empty() {
        return Err(WalError::Decode("trailing bytes in block body"));
    }
    Ok(records)
}

/// Decodes the body of a one-update block (formats 2 and 3).
fn decode_one_update(r: &mut ByteReader<'_>, coords: bool) -> Result<Vec<WalRecord>, WalError> {
    let id = read_varint(r)?;
    let time = r.u64()?;
    let p0 = r.u64()?;
    let p1 = if coords { r.u64()? } else { 0 };
    let floats = Ctx {
        time,
        p0,
        p1,
        speed: r.u64()?,
    };
    if !r.is_empty() {
        return Err(WalError::Decode("trailing bytes in block body"));
    }
    Ok(vec![basic_record(id, coords, floats)])
}

/// Clears a scratch buffer, giving back what a large block grew it to.
fn reset(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(KEEP_BYTES);
}

/// The one block sealer, for the log's appends and a snapshot's blocks:
/// the LZ table, the per-object context map and the scratch buffers,
/// kept from block to block (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Sealer {
    lz: lz::Compressor,
    contexts: Contexts,
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
            if let Some((id, coords, floats)) = basic(record) {
                let payload = &mut self.payload;
                payload.push(if coords {
                    BLOCK_FORMAT_ONE_COORDS
                } else {
                    BLOCK_FORMAT_ONE_ARC
                });
                put_varint(payload, id);
                payload.extend_from_slice(&floats.time.to_le_bytes());
                payload.extend_from_slice(&floats.p0.to_le_bytes());
                if coords {
                    payload.extend_from_slice(&floats.p1.to_le_bytes());
                }
                payload.extend_from_slice(&floats.speed.to_le_bytes());
                return payload.len();
            }
        }
        self.contexts.clear();
        self.contexts.shrink_to(KEEP_OBJECTS);
        encode_stream(
            records,
            &mut self.contexts,
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
pub fn walk_blocks<E>(
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

/// [`walk_blocks`], collected: the records of every whole valid block,
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
    use crate::record::frame_len;
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
    fn per_object_context_and_interleavings() {
        // Two objects interleaved with different trajectories: deltas
        // must track per object, not just the stream tail.
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
                let (_, _, bits) = basic(&rec).unwrap();
                let raw = [bits.time, bits.p0, bits.p1, bits.speed];
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
                let (back_id, back_coords, back) =
                    basic(&decode_block(&payload).unwrap()[0]).unwrap();
                let back = [back.time, back.p0, back.p1, back.speed];
                assert_eq!((back_id, back_coords, back), (id, floats == 4, raw));
                for cut in 0..payload.len() {
                    assert!(decode_block(&payload[..cut]).is_err(), "id {id}, cut {cut}");
                }
                payload.push(0);
                assert!(decode_block(&payload).is_err(), "id {id}, trailing byte");
            }
        }
        // Any other single record is a one-record delta stream, as in v3
        // (plain here; the LZ stage may shrink it).
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
    /// exactly as a fresh one would: no context, LZ generation or scratch
    /// byte of one block reaches the next, a block larger than the
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
