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
//! | 9   | `SnapshotBlocks` | leader → follower  | `lsn u64, offset u64, frames`         |
//!
//! (Tags 2, 3 and 8 are retired and stay unassigned: tag 2 was the
//! one-message bootstrap snapshot of protocol version 3, tag 3 the
//! decoded-records message, tag 8 the leadership-history message of
//! version 4.)
//!
//! `Blocks` carries a [`modb_wal::RawChunk`]: a run of *segment* frames
//! shipped verbatim off the leader's disk, each holding one possibly
//! LZ-compressed block, with `version` naming their segment format.
//! Compression paid once at append time is reused on the wire, and the
//! follower decodes the run whole or not at all
//! ([`modb_wal::RawChunk::decode`]) — a torn run can never be applied.
//!
//! `SnapshotBlocks` bootstraps a follower the same way: the leader ships
//! its newest snapshot file verbatim ([`modb_wal::Shipment`]) in runs of
//! at most `chunk_records` records, `offset` being where the run starts
//! in the file. The follower applies each run as it arrives
//! ([`modb_wal::SnapshotReceiver`]) and installs the snapshot only once
//! its last record has validated; a run that does not continue the one
//! before it — duplicated, reordered, from another snapshot — ends the
//! session. Neither side reads the file layout.
//!
//! `Hello` carries the follower's leadership epoch because of the
//! promotion-time divergence guard: a server whose
//! [`modb_wal::EpochHistory`] shows the follower holding records past
//! the birth of an epoch it never saw answers `Diverged` — a typed
//! refusal naming the server's epoch and the first forked LSN — instead
//! of shipping onto a forked log or silently re-bootstrapping it away.
//! Every log starts on epoch 1, so a `Hello` naming epoch 0 is refused
//! as malformed.
//!
//! No message carries the history itself: a follower reads it from what
//! it is shipped. A bootstrap snapshot's head holds every epoch begun
//! below its LSN, and an admitted resume lacks only epochs that begin at
//! or past its frontier, whose `LeaderEpoch` seal records are in the
//! shipped stretch.

use std::time::Duration;

use modb_wal::codec::{put_u32, put_u64};
use modb_wal::{ByteReader, RawChunk, SnapshotRun, WalError};

use crate::framed::WireMessage;

/// The protocol version this build speaks; a `Hello` naming any other is
/// refused.
pub(crate) const PROTOCOL_VERSION: u32 = 5;

/// How long either side of a session waits on a silent peer before it
/// ends the session: a leader for the follower's `Hello`, a follower for
/// any message at all (an idle leader heartbeats every 100 ms, so this
/// is 50 missed heartbeats — a leader host that died without a reset).
pub(crate) const SESSION_DEADLINE: Duration = Duration::from_secs(5);

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
    /// A run of the log as the leader's tailer read it: consecutive
    /// records as verbatim segment frames (whole, possibly compressed
    /// blocks) of the format the chunk names.
    Blocks(RawChunk),
    /// Typed refusal of a follower whose log tail forked off this
    /// server's timeline: the follower holds records at or past
    /// `boundary_lsn` that were never written under `leader_epoch`'s
    /// history. The session closes after this; the follower must not
    /// retry.
    Diverged {
        leader_epoch: u64,
        boundary_lsn: u64,
    },
    /// A run of the bootstrap snapshot, verbatim.
    SnapshotBlocks(SnapshotRun),
}

impl WireMessage for Message {
    /// Four maximal block frames ([`modb_wal::MAX_RECORD_BYTES`]), far
    /// above a run of `chunk_records` records of log or snapshot.
    const MAX_FRAME_BYTES: u32 = 4 * modb_wal::MAX_RECORD_BYTES;

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
            Message::Blocks(chunk) => {
                out.push(6);
                put_u64(out, chunk.start_lsn);
                put_u32(out, chunk.records as u32);
                put_u32(out, chunk.version);
                out.extend_from_slice(&chunk.frames);
            }
            Message::Diverged {
                leader_epoch,
                boundary_lsn,
            } => {
                out.push(7);
                put_u64(out, *leader_epoch);
                put_u64(out, *boundary_lsn);
            }
            Message::SnapshotBlocks(run) => {
                out.push(9);
                put_u64(out, run.lsn);
                put_u64(out, run.offset);
                out.extend_from_slice(&run.frames);
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
                let (start_lsn, records, version) = (r.u64()?, r.u32()?.into(), r.u32()?);
                // The rest of the payload is the verbatim segment frames.
                let frames = payload[payload.len() - r.remaining()..].to_vec();
                return Ok(Message::Blocks(RawChunk {
                    start_lsn,
                    records,
                    version,
                    frames,
                }));
            }
            7 => Message::Diverged {
                leader_epoch: r.u64()?,
                boundary_lsn: r.u64()?,
            },
            9 => {
                let (lsn, offset) = (r.u64()?, r.u64()?);
                // The rest of the payload is the verbatim snapshot frames.
                let frames = payload[payload.len() - r.remaining()..].to_vec();
                return Ok(Message::SnapshotBlocks(SnapshotRun {
                    lsn,
                    offset,
                    frames,
                }));
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
    /// `tests/golden/replication-v5.frames`.
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
            Message::Blocks(RawChunk {
                start_lsn: 13,
                records: 3,
                version: 2,
                frames: vec![0xca, 0xfe, 0xf0, 0x0d, 0x01],
            }),
            Message::Diverged {
                leader_epoch: 4,
                boundary_lsn: 120,
            },
            Message::SnapshotBlocks(SnapshotRun {
                lsn: 7,
                offset: 20,
                frames: vec![1, 2, 3, 4, 5],
            }),
        ]
    }

    /// A golden file cut into its frames (`[len u32][crc u32][payload]`).
    fn frames(mut file: &[u8]) -> Vec<&[u8]> {
        let mut frames = Vec::new();
        while !file.is_empty() {
            let len = 8 + u32::from_le_bytes(file[..4].try_into().unwrap()) as usize;
            frames.push(&file[..len]);
            file = &file[len..];
        }
        frames
    }

    /// The wire compatibility contract (see `tests/golden/README.md`):
    /// `replication-v5.frames` holds one framed instance of every
    /// message; each frame must decode to its sample value and every
    /// sample must re-encode to the identical bytes. The retired
    /// versions are the fixtures of their refusal: v4's `Hello` decodes
    /// (the handshake refuses version 4, not the decoder), its `Epochs`
    /// frame (tag 8) is a decode error, and every other v4 frame is
    /// byte-identical to v5's; v3's `Snapshot` (tag 2) and `Epochs` are
    /// decode errors and its frames between them are v5's.
    #[test]
    fn golden_frames_decode_and_re_encode_bit_identically() {
        let golden = include_bytes!("../../tests/golden/replication-v5.frames");
        let v5 = frames(golden);
        let mut re_encoded = Vec::new();
        assert_eq!(v5.len(), sample_messages().len());
        for (frame, expected) in v5.iter().zip(sample_messages()) {
            let decoded = decode_frame::<Message>(frame).unwrap();
            assert_eq!(decoded, Some((expected.clone(), frame.len())));
            re_encoded.extend(encode_frame(&expected).unwrap());
        }
        assert_eq!(re_encoded, golden);

        let decodes = |frame: &[u8]| decode_frame::<Message>(frame).is_ok();
        let v4 = frames(include_bytes!("../../tests/golden/replication-v4.frames"));
        assert!(matches!(
            decode_frame::<Message>(v4[0]),
            Ok(Some((Message::Hello { version: 4, .. }, _)))
        ));
        assert_eq!(v4[5][8], 8, "the retired Epochs tag");
        assert!(!decodes(v4[5]));
        assert_eq!([&v4[1..5], &v4[6..]].concat(), v5[1..]);

        let v3 = frames(include_bytes!("../../tests/golden/replication.frames"));
        assert_eq!(
            (v3[1][8], v3[6][8]),
            (2, 8),
            "the retired Snapshot and Epochs tags"
        );
        assert!(!decodes(v3[1]) && !decodes(v3[6]));
        assert_eq!(v3[2..6], v5[1..5]);
    }

    /// The retired shapes: a `Hello` that stops before the epoch (what a
    /// pre-epoch peer sent) and the decoded-records message (tag 3) are
    /// decode errors, not silently defaulted or skipped (tags 2 and 8 are
    /// checked against their golden frames above).
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
