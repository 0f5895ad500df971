//! Log records and their on-disk framing.
//!
//! Every mutation of the [`modb_core::Database`] has a record form — the
//! paper's observation that position attributes change rarely (§1, §6: the
//! DBMS sees ~15 % of the traditional update volume) is what makes logging
//! the *entire* mutation stream affordable. A replayed record stream is
//! also a complete workload trace for downstream indexing experiments.
//!
//! Records reach disk grouped into blocks ([`crate::block`]), one block
//! per CRC frame:
//!
//! ```text
//! [len: varint] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The length is an LEB128 varint of at most 5 bytes (one for a payload
//! under 128 bytes — the common one-update block). The CRC makes torn
//! tail writes detectable: a frame whose length is zero, over
//! [`MAX_RECORD_BYTES`], longer than 5 bytes or runs past the file,
//! whose CRC mismatches, or whose payload fails to decode marks the end
//! of the valid prefix.

use modb_core::{DatabaseConfig, MovingObject, ObjectId, StationaryObject, UpdateMessage};
use modb_routes::Route;

use crate::codec::{put_u64, ByteReader, WalCodec};
use crate::crc32::crc32;
use crate::epoch::EpochHistory;
use crate::error::WalError;

/// Upper bound on one record's payload; a corrupt length field beyond this
/// is treated as a torn tail rather than allocated.
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// One logged database mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A moving object registered (trip start, §3.1's initial write of all
    /// sub-attributes).
    RegisterMoving(MovingObject),
    /// A stationary landmark inserted.
    InsertStationary(StationaryObject),
    /// A position-update message addressed to one object. Updates are
    /// logged *before* they are applied; acceptance (stale / off-route /
    /// unknown-object checks) is re-derived deterministically on replay,
    /// so the log doubles as the full update-stream trace.
    Update {
        /// The sending object.
        id: ObjectId,
        /// The update payload.
        msg: UpdateMessage,
    },
    /// A moving object removed (trip over).
    RemoveMoving(ObjectId),
    /// A route added to the route network.
    InsertRoute(Route),
    /// A leadership change sealed into the log at promotion time. The
    /// record is a state no-op on replay (no database mutation); its LSN
    /// marks the first position written under the new epoch, which is
    /// what divergence detection compares against — a revived old
    /// leader whose log extends past this LSN without containing the
    /// epoch record has forked history.
    LeaderEpoch {
        /// The epoch that begins at this record's LSN (monotonic,
        /// starts at 1 for a freshly created log).
        epoch: u64,
    },
    /// The first record of a snapshot ([`crate::snapshot`]), alone in its
    /// block: the configuration its database is built with, how many
    /// records follow (the count seals the file) and the leadership
    /// history below the snapshot's LSN. In a log it changes nothing and
    /// is counted as rejected.
    SnapshotHead {
        /// The snapshot's database configuration.
        config: DatabaseConfig,
        /// Records after this one in the snapshot.
        records: u64,
        /// Every leadership epoch begun below the snapshot's LSN: the
        /// seal records that announced them may be compacted away.
        epochs: EpochHistory,
    },
}

const TAG_REGISTER_MOVING: u8 = 1;
const TAG_INSERT_STATIONARY: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_REMOVE_MOVING: u8 = 4;
const TAG_INSERT_ROUTE: u8 = 5;
const TAG_LEADER_EPOCH: u8 = 6;
// Tag 7 was the head without a leadership history. It stays unassigned:
// a snapshot that opens with it is an undecodable block, refused.
const TAG_SNAPSHOT_HEAD: u8 = 8;

impl WalRecord {
    /// Encodes the record payload (tag + body, no framing).
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::RegisterMoving(obj) => {
                out.push(TAG_REGISTER_MOVING);
                obj.encode(out);
            }
            WalRecord::InsertStationary(obj) => {
                out.push(TAG_INSERT_STATIONARY);
                obj.encode(out);
            }
            WalRecord::Update { id, msg } => {
                out.push(TAG_UPDATE);
                id.encode(out);
                msg.encode(out);
            }
            WalRecord::RemoveMoving(id) => {
                out.push(TAG_REMOVE_MOVING);
                id.encode(out);
            }
            WalRecord::InsertRoute(route) => {
                out.push(TAG_INSERT_ROUTE);
                route.encode(out);
            }
            WalRecord::LeaderEpoch { epoch } => {
                out.push(TAG_LEADER_EPOCH);
                put_u64(out, *epoch);
            }
            WalRecord::SnapshotHead {
                config,
                records,
                epochs,
            } => {
                out.push(TAG_SNAPSHOT_HEAD);
                config.encode(out);
                put_u64(out, *records);
                epochs.encode(out);
            }
        }
    }

    /// Decodes a record payload produced by
    /// [`WalRecord::encode_payload`]. The whole buffer must be consumed.
    pub fn decode_payload(buf: &[u8]) -> Result<Self, WalError> {
        let mut r = ByteReader::new(buf);
        let rec = match r.u8()? {
            TAG_REGISTER_MOVING => WalRecord::RegisterMoving(MovingObject::decode(&mut r)?),
            TAG_INSERT_STATIONARY => WalRecord::InsertStationary(StationaryObject::decode(&mut r)?),
            TAG_UPDATE => WalRecord::Update {
                id: ObjectId::decode(&mut r)?,
                msg: UpdateMessage::decode(&mut r)?,
            },
            TAG_REMOVE_MOVING => WalRecord::RemoveMoving(ObjectId::decode(&mut r)?),
            TAG_INSERT_ROUTE => WalRecord::InsertRoute(Route::decode(&mut r)?),
            TAG_LEADER_EPOCH => WalRecord::LeaderEpoch { epoch: r.u64()? },
            TAG_SNAPSHOT_HEAD => WalRecord::SnapshotHead {
                config: DatabaseConfig::decode(&mut r)?,
                records: r.u64()?,
                epochs: EpochHistory::decode(&mut r)?,
            },
            _ => return Err(WalError::Decode("unknown record tag")),
        };
        if !r.is_empty() {
            return Err(WalError::Decode("trailing bytes in record payload"));
        }
        Ok(rec)
    }
}

/// Why frame decoding stopped at a given offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEnd {
    /// The buffer ended exactly on a frame boundary.
    Clean,
    /// The bytes from the reported offset onward are not a valid frame —
    /// a torn tail write (or corruption).
    Torn {
        /// What failed.
        reason: &'static str,
    },
}

/// The most bytes a frame's length varint may take: five hold any `u32`
/// (and [`MAX_RECORD_BYTES`] needs four).
const MAX_LEN_VARINT_BYTES: usize = 5;

/// Bytes of the CRC that follows the length varint.
const CRC_BYTES: usize = 4;

/// What a frame around a `payload_bytes`-byte payload weighs on disk:
/// the length varint, the CRC and the payload.
pub fn frame_len(payload_bytes: usize) -> usize {
    let bits = usize::BITS - payload_bytes.leading_zeros();
    bits.max(1).div_ceil(7) as usize + CRC_BYTES + payload_bytes
}

/// Splits the first CRC frame off `buf`: `Ok(Some((payload, frame_len)))`
/// for a whole valid frame, `Ok(None)` at end of input, `Err(reason)`
/// when the prefix is not a complete valid frame (a torn tail). The one
/// frame parser: the block walk that replays segments and snapshots
/// ([`crate::block::walk_blocks`]), the tailer and the experiments that
/// walk a log all read frames through it.
///
/// # Errors
///
/// `"truncated frame header"` when the input ends inside the length
/// varint or the CRC, `"implausible frame length"` for a zero length,
/// one over [`MAX_RECORD_BYTES`] or a varint longer than 5 bytes,
/// `"truncated frame payload"` and `"crc mismatch"`.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, &'static str> {
    if buf.is_empty() {
        return Ok(None);
    }
    let mut len = 0u64;
    let mut varint = 0;
    loop {
        if varint == MAX_LEN_VARINT_BYTES {
            return Err("implausible frame length");
        }
        let Some(&b) = buf.get(varint) else {
            return Err("truncated frame header");
        };
        len |= u64::from(b & 0x7f) << (7 * varint);
        varint += 1;
        if b & 0x80 == 0 {
            break;
        }
    }
    if len == 0 || len > u64::from(MAX_RECORD_BYTES) {
        return Err("implausible frame length");
    }
    let header = varint + CRC_BYTES;
    let Some(crc) = buf.get(varint..header) else {
        return Err("truncated frame header");
    };
    let crc = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
    let total = header + len as usize;
    let Some(payload) = buf.get(header..total) else {
        return Err("truncated frame payload");
    };
    if crc32(payload) != crc {
        return Err("crc mismatch");
    }
    Ok(Some((payload, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{PolicyDescriptor, PositionAttribute, UpdatePosition};
    use modb_geom::Point;
    use modb_routes::{Direction, RouteId};

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::RegisterMoving(MovingObject {
                id: ObjectId(1),
                name: "veh-1".into(),
                attr: PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(1),
                    start_position: Point::new(0.0, 0.0),
                    start_arc: 0.0,
                    direction: Direction::Forward,
                    speed: 1.0,
                    policy: PolicyDescriptor::Unbounded,
                },
                max_speed: 1.5,
                trip_end: None,
            }),
            WalRecord::InsertStationary(StationaryObject::new(
                ObjectId(100),
                "depot",
                Point::new(5.0, 5.0),
            )),
            WalRecord::Update {
                id: ObjectId(1),
                msg: UpdateMessage::basic(2.0, UpdatePosition::Arc(3.0), 0.9),
            },
            WalRecord::InsertRoute(
                Route::from_vertices(
                    RouteId(9),
                    "spur",
                    vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)],
                )
                .unwrap(),
            ),
            WalRecord::LeaderEpoch { epoch: 2 },
            WalRecord::RemoveMoving(ObjectId(1)),
            WalRecord::SnapshotHead {
                config: DatabaseConfig::default(),
                records: 3,
                epochs: EpochHistory::new(),
            },
        ]
    }

    #[test]
    fn payloads_round_trip() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode_payload(&mut buf);
            assert_eq!(WalRecord::decode_payload(&buf).unwrap(), rec);
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        crate::block::frame_block(payload, &mut out);
        out
    }

    #[test]
    fn frame_len_is_what_the_writer_writes() {
        for len in [
            1usize, 2, 127, 128, 129, 16_383, 16_384, 2_097_151, 2_097_152,
        ] {
            let frame = framed(&vec![7u8; len]);
            assert_eq!(frame.len(), frame_len(len), "payload of {len}");
            assert_eq!(
                split_frame(&frame),
                Ok(Some((&frame[frame.len() - len..], frame.len())))
            );
        }
        assert_eq!(
            frame_len(27),
            1 + 4 + 27,
            "a one-update block: 5 header bytes"
        );
        assert_eq!(
            frame_len(MAX_RECORD_BYTES as usize),
            4 + 4 + MAX_RECORD_BYTES as usize
        );
    }

    #[test]
    fn malformed_headers_are_torn() {
        let frame = framed(b"block");
        // Every cut inside the varint or the CRC is a truncated header.
        for cut in 1..5 {
            assert_eq!(split_frame(&frame[..cut]), Err("truncated frame header"));
        }
        assert_eq!(split_frame(&frame[..7]), Err("truncated frame payload"));
        let mut bad = frame.clone();
        bad[1] ^= 1;
        assert_eq!(split_frame(&bad), Err("crc mismatch"));
        // Zero, over the cap, and a varint running past five bytes.
        assert_eq!(
            split_frame(&[0, 0, 0, 0, 0]),
            Err("implausible frame length")
        );
        let mut over = Vec::new();
        crate::codec::put_varint(&mut over, u64::from(MAX_RECORD_BYTES) + 1);
        over.extend_from_slice(&[0; 8]);
        assert_eq!(split_frame(&over), Err("implausible frame length"));
        assert_eq!(
            split_frame(&[0x81, 0x80, 0x80, 0x80, 0x80, 0x00, 0, 0, 0, 0]),
            Err("implausible frame length")
        );
        assert_eq!(
            split_frame(&[0x81, 0x80, 0x80]),
            Err("truncated frame header")
        );
        assert_eq!(split_frame(&[]), Ok(None));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(WalRecord::decode_payload(&[99]).is_err());
        let mut buf = Vec::new();
        WalRecord::RemoveMoving(ObjectId(1)).encode_payload(&mut buf);
        buf.push(0); // trailing garbage
        assert!(WalRecord::decode_payload(&buf).is_err());
    }
}
