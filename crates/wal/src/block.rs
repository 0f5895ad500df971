//! Log blocks: delta-encoded, optionally LZ-compressed record groups.
//!
//! A segment stores **blocks**: each CRC frame's payload is one block
//! holding `record_count` records. The block payload is
//!
//! ```text
//! [format: u8]                 0 = plain delta stream, 1 = LZ-compressed
//! [record_count: varint]
//! [uncompressed_len: varint]   — format 1 only
//! [body]                       — the (possibly compressed) delta stream
//! ```
//!
//! **Delta stream.** Position updates dominate the log and are highly
//! repetitive — the same object ids, nearby floats, monotone timestamps
//! (W1 measured ~45 payload bytes each). A basic `Update` (no route /
//! direction / policy change) is therefore stored as a *compact* record:
//! the object id as a zigzag varint delta against the previous record's
//! id, and `time` / position / `speed` as zigzag varints of the wrapping
//! difference of IEEE-754 **bit patterns** against the encoder context —
//! the last values seen *for that object* in this block, falling back to
//! the last values in the stream for an object's first appearance (fleet
//! updates are temporally correlated across objects, so the stream-level
//! fallback is usually a near-zero delta too). The block's *first*
//! compact record has no context to speak of (all zeros, and the varint
//! of a positive `f64`'s bits is 9–10 bytes), so it stores each of those
//! floats as its raw 8-byte little-endian bit pattern instead — what a
//! one-update block, the common acked append, is mostly made of.
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

use std::collections::HashMap;
use std::convert::Infallible;

use modb_core::{UpdateMessage, UpdatePosition};

use crate::codec::{put_varint, read_varint, unzigzag, zigzag, ByteReader};
use crate::crc32::crc32;
use crate::error::WalError;
use crate::lz;
use crate::record::{split_frame, FrameEnd, WalRecord, MAX_RECORD_BYTES};

/// Block body is a plain delta stream.
pub const BLOCK_FORMAT_PLAIN: u8 = 0;
/// Block body is an LZ-compressed delta stream (see [`crate::lz`]).
pub const BLOCK_FORMAT_LZ: u8 = 1;

const REC_VERBATIM: u8 = 0;
const REC_COMPACT_ARC: u8 = 1;
const REC_COMPACT_COORDS: u8 = 2;

/// Per-object (and stream-fallback) delta context: the raw bit patterns
/// of the last time / position / speed values.
#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    time: u64,
    p0: u64,
    p1: u64,
    speed: u64,
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

/// Appends the delta-stream form of `records` to `out`. The context
/// starts empty: the stream is self-contained (a restart point).
fn encode_stream(records: &[WalRecord], out: &mut Vec<u8>) {
    let mut last_id = 0u64;
    let mut last = Ctx::default();
    let mut per_object: HashMap<u64, Ctx> = HashMap::new();
    let mut raw = true;
    let mut scratch = Vec::new();
    for rec in records {
        match rec {
            WalRecord::Update { id, msg }
                if msg.route.is_none() && msg.direction.is_none() && msg.policy.is_none() =>
            {
                let ctx = per_object.get(&id.0).copied().unwrap_or(last);
                let (tag, p0, p1) = match msg.position {
                    UpdatePosition::Arc(arc) => (REC_COMPACT_ARC, arc.to_bits(), ctx.p1),
                    UpdatePosition::Coordinates(p) => {
                        (REC_COMPACT_COORDS, p.x.to_bits(), p.y.to_bits())
                    }
                };
                out.push(tag);
                put_varint(out, delta(id.0, last_id));
                put_field(out, raw, msg.time.to_bits(), ctx.time);
                put_field(out, raw, p0, ctx.p0);
                if tag == REC_COMPACT_COORDS {
                    put_field(out, raw, p1, ctx.p1);
                }
                put_field(out, raw, msg.speed.to_bits(), ctx.speed);
                let cur = Ctx {
                    time: msg.time.to_bits(),
                    p0,
                    p1,
                    speed: msg.speed.to_bits(),
                };
                per_object.insert(id.0, cur);
                last = cur;
                last_id = id.0;
                raw = false;
            }
            _ => {
                scratch.clear();
                rec.encode_payload(&mut scratch);
                out.push(REC_VERBATIM);
                put_varint(out, scratch.len() as u64);
                out.extend_from_slice(&scratch);
            }
        }
    }
}

/// Decodes a delta stream of exactly `count` records; mirrors
/// [`encode_stream`]'s context rules.
fn decode_stream(body: &[u8], count: u64) -> Result<Vec<WalRecord>, WalError> {
    let mut records = Vec::with_capacity((count as usize).min(body.len()));
    let mut r = ByteReader::new(body);
    let mut last_id = 0u64;
    let mut last = Ctx::default();
    let mut per_object: HashMap<u64, Ctx> = HashMap::new();
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
                let id = undelta(read_varint(&mut r)?, last_id);
                let ctx = per_object.get(&id).copied().unwrap_or(last);
                let time = read_field(&mut r, raw, ctx.time)?;
                let p0 = read_field(&mut r, raw, ctx.p0)?;
                let p1 = if tag == REC_COMPACT_COORDS {
                    read_field(&mut r, raw, ctx.p1)?
                } else {
                    ctx.p1
                };
                let speed = read_field(&mut r, raw, ctx.speed)?;
                let position = if tag == REC_COMPACT_ARC {
                    UpdatePosition::Arc(f64::from_bits(p0))
                } else {
                    UpdatePosition::Coordinates(modb_geom::Point::new(
                        f64::from_bits(p0),
                        f64::from_bits(p1),
                    ))
                };
                records.push(WalRecord::Update {
                    id: modb_core::ObjectId(id),
                    msg: UpdateMessage::basic(
                        f64::from_bits(time),
                        position,
                        f64::from_bits(speed),
                    ),
                });
                let cur = Ctx {
                    time,
                    p0,
                    p1,
                    speed,
                };
                per_object.insert(id, cur);
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

/// Encodes `records` as one block payload (no framing). With `compress`,
/// the LZ stage is applied and kept only when it actually shrinks the
/// stream — the format byte is the pluggability seam.
pub fn encode_block(records: &[WalRecord], compress: bool, out: &mut Vec<u8>) {
    encode_block_with(records, compress.then(lz::Compressor::new).as_mut(), out);
}

/// [`encode_block`] with the LZ stage's table supplied by the caller, who
/// keeps it from block to block (`None`: no LZ stage). Same bytes.
/// Returns the length of the uncompressed delta stream.
pub(crate) fn encode_block_with(
    records: &[WalRecord],
    lz: Option<&mut lz::Compressor>,
    out: &mut Vec<u8>,
) -> usize {
    let mut stream = Vec::new();
    encode_stream(records, &mut stream);
    if let Some(lz) = lz {
        let mut packed = Vec::new();
        lz.compress(&stream, &mut packed);
        // Header overhead of format 1 is the uncompressed_len varint.
        if packed.len() + 10 < stream.len() {
            out.push(BLOCK_FORMAT_LZ);
            put_varint(out, records.len() as u64);
            put_varint(out, stream.len() as u64);
            out.extend_from_slice(&packed);
            return stream.len();
        }
    }
    out.push(BLOCK_FORMAT_PLAIN);
    put_varint(out, records.len() as u64);
    out.extend_from_slice(&stream);
    stream.len()
}

/// `records` sealed as one framed block (one restart point, the LZ stage
/// kept only when it shrinks the block), with the caller's LZ table: the
/// one block sealer, for the log's appends and a snapshot's blocks.
///
/// # Errors
///
/// [`WalError::FrameTooLarge`] for a payload or delta stream over
/// [`MAX_RECORD_BYTES`], which every reader would refuse as torn.
pub(crate) fn seal(records: &[WalRecord], lz: &mut lz::Compressor) -> Result<Vec<u8>, WalError> {
    let mut payload = Vec::with_capacity(128);
    let stream = encode_block_with(records, Some(lz), &mut payload);
    fits(stream.max(payload.len()))?;
    let mut frame = Vec::with_capacity(crate::record::frame_len(payload.len()));
    frame_block(&payload, &mut frame);
    Ok(frame)
}

/// Refuses, writing nothing, a record an append could not seal as a
/// block of its own: the check for a caller that must know a record can
/// be logged before it applies the mutation. A record whose names and
/// vertices encode to under half the limit passes unmeasured (the rest
/// of any record is a few hundred bytes); a larger one is measured as a
/// plain block, never smaller than what sealing measures.
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
    let mut payload = Vec::new();
    encode_block_with(std::slice::from_ref(record), None, &mut payload);
    fits(payload.len())
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
    let count = read_varint(&mut r)?;
    let body = &payload[payload.len() - r.remaining()..];
    match format {
        BLOCK_FORMAT_PLAIN => decode_stream(body, count),
        BLOCK_FORMAT_LZ => {
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
/// — what the tailer needs to account LSNs while shipping raw frames.
///
/// # Errors
///
/// [`WalError::Decode`] when the header bytes are malformed.
pub fn peek_block_count(payload: &[u8]) -> Result<u64, WalError> {
    let mut r = ByteReader::new(payload);
    let format = r.u8()?;
    if format != BLOCK_FORMAT_PLAIN && format != BLOCK_FORMAT_LZ {
        return Err(WalError::Decode("unknown block format"));
    }
    read_varint(&mut r)
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

    /// A record far below the limit passes unmeasured, one near it is
    /// measured — it passes when it fits and sealing it succeeds — and
    /// one over it is refused exactly as sealing refuses it.
    #[test]
    fn check_frame_agrees_with_sealing() {
        let landmark = |len: usize| {
            WalRecord::InsertStationary(modb_core::StationaryObject::new(
                ObjectId(1),
                "x".repeat(len),
                modb_geom::Point::new(0.0, 0.0),
            ))
        };
        let max = MAX_RECORD_BYTES as usize;
        let mut lz = lz::Compressor::new();
        for (len, fits) in [
            (8, true),
            (max / 2 + 64, true),
            (max - 64, true),
            (max, false),
        ] {
            let rec = landmark(len);
            let sealed = seal(std::slice::from_ref(&rec), &mut lz);
            assert_eq!(check_frame(&rec).is_ok(), fits, "name of {len} bytes");
            assert_eq!(sealed.is_ok(), fits, "name of {len} bytes");
        }
        assert!(matches!(
            check_frame(&landmark(max)),
            Err(WalError::FrameTooLarge { .. })
        ));
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

    /// One framed block per record of a small mixed stream, plus the
    /// frame boundaries.
    fn framed_stream() -> (Vec<WalRecord>, Vec<u8>, Vec<usize>) {
        let records = vec![
            update(1, 1.0, 0.5, 0.7),
            WalRecord::RemoveMoving(ObjectId(9)),
            update(2, 2.0, 1.5, 0.7),
            WalRecord::LeaderEpoch { epoch: 2 },
        ];
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for rec in &records {
            let mut payload = Vec::new();
            encode_block(std::slice::from_ref(rec), true, &mut payload);
            frame_block(&payload, &mut buf);
            boundaries.push(buf.len());
        }
        (records, buf, boundaries)
    }

    #[test]
    fn torn_tail_detected_at_every_truncation_point() {
        let (records, buf, boundaries) = framed_stream();
        for cut in 0..=buf.len() {
            let (decoded, clean, end) = decode_block_frames(&buf[..cut]);
            // The valid prefix is the largest frame boundary <= cut.
            let expect_n = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded, records[..expect_n], "cut at {cut}");
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
        let (records, buf, boundaries) = framed_stream();
        // Flip one payload byte in the third frame: decoding stops there.
        let mut bad = buf.clone();
        bad[boundaries[2] + 9] ^= 0x40;
        let (decoded, clean, end) = decode_block_frames(&bad);
        assert_eq!(decoded, records[..2]);
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
        assert_eq!(decoded, records);
        assert_eq!(clean, buf.len());
        assert_eq!(
            end,
            FrameEnd::Torn {
                reason: "implausible frame length"
            }
        );
    }
}
