//! The replication wire protocol.
//!
//! Messages travel in the CRC frames of [`crate::framed`]; the payload is
//! a tag byte followed by the message body. A frame corrupted in flight
//! is rejected whole — the session ends and the follower re-syncs,
//! exactly like recovery refusing a damaged interior record.
//!
//! Messages:
//!
//! | tag | message          | direction          | body                                  |
//! |-----|------------------|--------------------|---------------------------------------|
//! | 1   | `Hello`          | follower → leader  | `version u32, next_lsn u64, have_state u8, epoch u64` |
//! | 4   | `Heartbeat`      | leader → follower  | `leader_next_lsn u64`                 |
//! | 5   | `Ack`            | follower → leader  | `applied_lsn u64`                     |
//! | 6   | `Blocks`         | leader → follower  | `start_lsn u64, count u32, version u32, frames` |
//! | 7   | `Diverged`       | leader → follower  | `leader_epoch u64, boundary_lsn u64`  |
//! | 8   | `Epochs`         | leader → follower  | `count u32, (epoch u64, start_lsn u64) * count` |
//! | 9   | `SnapshotBlocks` | leader → follower  | `lsn u64, offset u64, frames`         |
//!
//! (Tags 2 and 3 are retired and stay unassigned: tag 2 was the
//! one-message bootstrap snapshot of protocol version 3, tag 3 the
//! decoded-records message.)
//!
//! `Blocks` carries a run of *segment* frames shipped verbatim off the
//! leader's disk, each holding one delta-coded, possibly LZ-compressed
//! block, with `version` naming the segment format the frames came from
//! (always [`modb_wal::SEGMENT_VERSION`]; a follower refuses any other).
//! Compression paid once at append time is reused on the wire, and the
//! follower validates every frame's CRC a second time with the same
//! [`modb_wal::walk_blocks`] path recovery uses — a partially delivered
//! or torn run can never be applied.
//!
//! `SnapshotBlocks` bootstraps a follower the same way: a snapshot is a
//! sealed file of the segment layout ([`modb_wal::snapshot`]), and the
//! leader ships its frames verbatim in runs of at most `chunk_records`
//! records, `offset` being where the run starts in the file (the first
//! run starts right after the 20-byte header). The follower applies each
//! run to a fresh database as it arrives and installs the snapshot only
//! once its last record has validated; a run that does not continue the
//! one before it — duplicated, reordered, from another snapshot — ends
//! the session.
//!
//! `Hello` carries the follower's leadership epoch because of the
//! promotion-time divergence guard: a server whose
//! [`modb_wal::EpochHistory`] shows the follower holding records past
//! the birth of an epoch it never saw answers `Diverged` — a typed
//! refusal naming the server's epoch and the first forked LSN — instead
//! of shipping onto a forked log or silently re-bootstrapping it away.
//!
//! `Epochs` transfers the server's full leadership history to an
//! admitted follower, right after the handshake. The in-stream
//! `LeaderEpoch` records only cover epochs born inside the shipped
//! stretch; a follower bootstrapping from a snapshot taken after a
//! promotion would otherwise never learn the older boundaries it needs
//! to refuse (or be refused by) stale peers later.

use modb_wal::codec::{put_u32, put_u64};
use modb_wal::{ByteReader, WalError};

use crate::framed::WireMessage;

/// The protocol version this build speaks; a `Hello` naming any other is
/// refused.
pub(crate) const PROTOCOL_VERSION: u32 = 4;

/// Hard ceiling on one message's payload: four maximal block frames
/// ([`modb_wal::MAX_RECORD_BYTES`]), far above a run of `chunk_records`
/// records of log or snapshot. The sender refuses anything larger; a
/// reader treats it as stream corruption.
pub(crate) const MAX_MESSAGE_BYTES: u32 = 4 * modb_wal::MAX_RECORD_BYTES;

/// One protocol message (see the module table).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Message {
    /// Follower's opening line: who it is, where its log ends, and which
    /// leadership epoch it last lived under.
    Hello {
        version: u32,
        next_lsn: u64,
        have_state: bool,
        epoch: u64,
    },
    /// Leader keepalive carrying its log frontier (lag = frontier −
    /// follower applied watermark).
    Heartbeat { leader_next_lsn: u64 },
    /// Follower's applied watermark; advances the leader's ship barrier.
    Ack { applied_lsn: u64 },
    /// `count` consecutive records starting at `start_lsn`, as verbatim
    /// segment frames (whole, possibly compressed blocks) from a segment
    /// of format `version`.
    Blocks {
        start_lsn: u64,
        count: u32,
        version: u32,
        frames: Vec<u8>,
    },
    /// Typed refusal of a follower whose log tail forked off this
    /// server's timeline: the follower holds records at or past
    /// `boundary_lsn` that were never written under `leader_epoch`'s
    /// history. The session closes after this; the follower must not
    /// retry.
    Diverged {
        leader_epoch: u64,
        boundary_lsn: u64,
    },
    /// The server's full leadership history (oldest span first), sent to
    /// an admitted follower right after the handshake so it knows every
    /// timeline boundary, including those older than its bootstrap
    /// snapshot.
    Epochs { spans: Vec<modb_wal::EpochSpan> },
    /// A run of whole frames of the bootstrap snapshot taken at `lsn`,
    /// verbatim, starting `offset` bytes into the snapshot file.
    SnapshotBlocks {
        lsn: u64,
        offset: u64,
        frames: Vec<u8>,
    },
}

impl WireMessage for Message {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello {
                version,
                next_lsn,
                have_state,
                epoch,
            } => {
                out.push(1);
                put_u32(out, *version);
                put_u64(out, *next_lsn);
                out.push(u8::from(*have_state));
                put_u64(out, *epoch);
            }
            Message::Heartbeat { leader_next_lsn } => {
                out.push(4);
                put_u64(out, *leader_next_lsn);
            }
            Message::Ack { applied_lsn } => {
                out.push(5);
                put_u64(out, *applied_lsn);
            }
            Message::Blocks {
                start_lsn,
                count,
                version,
                frames,
            } => {
                out.push(6);
                put_u64(out, *start_lsn);
                put_u32(out, *count);
                put_u32(out, *version);
                out.extend_from_slice(frames);
            }
            Message::Diverged {
                leader_epoch,
                boundary_lsn,
            } => {
                out.push(7);
                put_u64(out, *leader_epoch);
                put_u64(out, *boundary_lsn);
            }
            Message::Epochs { spans } => {
                out.push(8);
                put_u32(out, spans.len() as u32);
                for span in spans {
                    put_u64(out, span.epoch);
                    put_u64(out, span.start_lsn);
                }
            }
            Message::SnapshotBlocks {
                lsn,
                offset,
                frames,
            } => {
                out.push(9);
                put_u64(out, *lsn);
                put_u64(out, *offset);
                out.extend_from_slice(frames);
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, WalError> {
        let mut r = ByteReader::new(payload);
        let msg = match r.u8()? {
            1 => {
                let version = r.u32()?;
                let next_lsn = r.u64()?;
                let have_state = r.u8()? != 0;
                Message::Hello {
                    version,
                    next_lsn,
                    have_state,
                    epoch: r.u64()?,
                }
            }
            4 => Message::Heartbeat {
                leader_next_lsn: r.u64()?,
            },
            5 => Message::Ack {
                applied_lsn: r.u64()?,
            },
            6 => {
                let start_lsn = r.u64()?;
                let count = r.u32()?;
                let version = r.u32()?;
                // The rest of the payload is the verbatim segment frames.
                return Ok(Message::Blocks {
                    start_lsn,
                    count,
                    version,
                    frames: payload[payload.len() - r.remaining()..].to_vec(),
                });
            }
            7 => Message::Diverged {
                leader_epoch: r.u64()?,
                boundary_lsn: r.u64()?,
            },
            8 => {
                let count = r.u32()? as usize;
                let mut spans = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    spans.push(modb_wal::EpochSpan {
                        epoch: r.u64()?,
                        start_lsn: r.u64()?,
                    });
                }
                Message::Epochs { spans }
            }
            9 => {
                let lsn = r.u64()?;
                let offset = r.u64()?;
                // The rest of the payload is the verbatim snapshot frames.
                return Ok(Message::SnapshotBlocks {
                    lsn,
                    offset,
                    frames: payload[payload.len() - r.remaining()..].to_vec(),
                });
            }
            _ => return Err(WalError::Decode("unknown replication message tag")),
        };
        if !r.is_empty() {
            return Err(WalError::Decode("trailing bytes in replication message"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::{decode_frame, encode_frame};

    /// One instance of every message, in the order of
    /// `tests/golden/replication-v4.frames`.
    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                next_lsn: 42,
                have_state: true,
                epoch: 3,
            },
            Message::Heartbeat {
                leader_next_lsn: 11,
            },
            Message::Ack { applied_lsn: 10 },
            Message::Blocks {
                start_lsn: 13,
                count: 3,
                version: 2,
                frames: vec![0xca, 0xfe, 0xf0, 0x0d, 0x01],
            },
            Message::Diverged {
                leader_epoch: 4,
                boundary_lsn: 120,
            },
            Message::Epochs {
                spans: vec![
                    modb_wal::EpochSpan {
                        epoch: 1,
                        start_lsn: 0,
                    },
                    modb_wal::EpochSpan {
                        epoch: 2,
                        start_lsn: 57,
                    },
                ],
            },
            Message::SnapshotBlocks {
                lsn: 7,
                offset: 20,
                frames: vec![1, 2, 3, 4, 5],
            },
        ]
    }

    /// The wire compatibility contract (see `tests/golden/README.md`):
    /// `replication-v4.frames` holds one framed instance of every
    /// message; each frame must decode to its sample value and every
    /// sample must re-encode to the identical bytes. Against version 3's
    /// `replication.frames` (commit dfa280f), the frames from `Heartbeat`
    /// to `Epochs` are byte-identical and the retired one-message
    /// `Snapshot` (tag 2, second in that file) is a decode error.
    #[test]
    fn golden_frames_decode_and_re_encode_bit_identically() {
        let golden = include_bytes!("../../tests/golden/replication-v4.frames");
        let mut rest: &[u8] = golden;
        let mut re_encoded = Vec::new();
        for expected in sample_messages() {
            let (msg, consumed) = decode_frame::<Message>(rest, MAX_MESSAGE_BYTES)
                .unwrap()
                .expect("a whole frame per message");
            assert_eq!(msg, expected);
            re_encoded.extend(encode_frame(&expected, MAX_MESSAGE_BYTES).unwrap());
            rest = &rest[consumed..];
        }
        assert!(rest.is_empty(), "a golden frame no sample accounts for");
        assert_eq!(re_encoded, golden);

        let v3 = include_bytes!("../../tests/golden/replication.frames");
        let frame_end =
            |at: usize| at + 8 + u32::from_le_bytes(v3[at..at + 4].try_into().unwrap()) as usize;
        let (hello, snapshot) = (frame_end(0), frame_end(frame_end(0)));
        assert_eq!(v3[hello + 8], 2, "the retired Snapshot tag");
        assert!(decode_frame::<Message>(&v3[hello..], MAX_MESSAGE_BYTES).is_err());
        assert_eq!(v3[snapshot..], golden[hello..hello + v3.len() - snapshot]);
    }

    /// The retired shapes: a `Hello` that stops before the epoch (what a
    /// pre-epoch peer sent) and the decoded-records message (tag 3) are
    /// decode errors, not silently defaulted or skipped (tag 2 is checked
    /// against its golden frame above).
    #[test]
    fn epoch_less_hello_and_retired_records_tag_are_rejected() {
        let mut payload = vec![1u8];
        put_u32(&mut payload, 2);
        put_u64(&mut payload, 42);
        payload.push(1);
        assert!(Message::decode_payload(&payload).is_err());
        let mut payload = vec![3u8];
        put_u64(&mut payload, 9);
        put_u32(&mut payload, 0);
        assert!(Message::decode_payload(&payload).is_err());
    }
}
