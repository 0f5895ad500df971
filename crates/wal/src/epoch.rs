//! Leadership epochs — the divergence guard of promotion.
//!
//! Every log lives under a sequence of leadership epochs: epoch 1
//! ([`GENESIS_EPOCH`]) from LSN 0, then one more per promotion, each
//! beginning at the LSN of the [`crate::WalRecord::LeaderEpoch`] record
//! the promotee sealed into its log (PostgreSQL's timeline history,
//! reduced to the essentials). The history is not kept anywhere but the
//! log: a snapshot's head carries the spans of every epoch begun below
//! its LSN ([`crate::snapshot`]), because compaction may delete the
//! segments that held their seal records, and recovery
//! ([`crate::recover`]) folds in each `LeaderEpoch` it replays past the
//! snapshot with [`EpochHistory::observe`].
//!
//! The history is what lets a new leader refuse a revived old one: a
//! peer that connects claiming epoch `e` with a log frontier past the
//! start LSN of any epoch newer than `e` has written records the new
//! timeline never saw — its tail is *divergent*, and shipping it more
//! records would silently fork history. The check is
//! [`EpochHistory::check_follower`]; the refusal travels as a typed
//! replication message, never a bootstrap-and-overwrite.
//!
//! In a snapshot head the history is `count u32 LE`, then
//! `(epoch u64 LE, start_lsn u64 LE) * count`, oldest first.

use crate::codec::{put_u32, put_u64, ByteReader, WalCodec};
use crate::error::WalError;

/// The epoch every log starts on before any promotion.
pub const GENESIS_EPOCH: u64 = 1;

/// One leadership span: `epoch` governs LSNs from `start_lsn` until the
/// next entry's `start_lsn` (or the log frontier for the last entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochSpan {
    /// The epoch number (monotonically increasing across entries).
    pub epoch: u64,
    /// First LSN written under this epoch.
    pub start_lsn: u64,
}

/// Verdict of [`EpochHistory::check_follower`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochCheck {
    /// The peer's log is a prefix of (or equal to) this timeline — safe
    /// to resume shipping from its frontier.
    Clean,
    /// The peer holds records past the birth of an epoch it never saw:
    /// its tail from `boundary_lsn` onward belongs to a dead timeline.
    Diverged {
        /// Start LSN of the first epoch the peer is missing — everything
        /// the peer holds at or past this LSN is forked history.
        boundary_lsn: u64,
    },
    /// The peer claims a *newer* epoch than this node — this node is the
    /// stale one and must not serve (or wipe) the peer.
    PeerAhead {
        /// The epoch the peer announced.
        peer_epoch: u64,
    },
}

/// The ordered list of leadership spans for one log directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochHistory {
    entries: Vec<EpochSpan>,
}

impl Default for EpochHistory {
    fn default() -> Self {
        EpochHistory::new()
    }
}

impl EpochHistory {
    /// The implicit genesis history: epoch 1 from LSN 0.
    pub fn new() -> Self {
        EpochHistory {
            entries: vec![EpochSpan {
                epoch: GENESIS_EPOCH,
                start_lsn: 0,
            }],
        }
    }

    /// Builds a history from the spans a snapshot head carries — the one
    /// validator of a history read from outside.
    ///
    /// # Errors
    ///
    /// [`WalError::Decode`] when the list does not open with genesis
    /// (epoch 1 from LSN 0) or is not strictly monotonic in epoch and
    /// monotonic in start LSN.
    pub(crate) fn from_spans(spans: Vec<EpochSpan>) -> Result<Self, WalError> {
        let genesis = EpochSpan {
            epoch: GENESIS_EPOCH,
            start_lsn: 0,
        };
        if spans.first() != Some(&genesis) {
            return Err(WalError::Decode("epoch history does not open with genesis"));
        }
        for pair in spans.windows(2) {
            if pair[1].epoch <= pair[0].epoch || pair[1].start_lsn < pair[0].start_lsn {
                return Err(WalError::Decode("non-monotonic epoch history"));
            }
        }
        Ok(EpochHistory { entries: spans })
    }

    /// The current (newest) epoch.
    pub fn current(&self) -> u64 {
        self.entries.last().map_or(GENESIS_EPOCH, |s| s.epoch)
    }

    /// The LSN at which the current epoch began.
    pub(crate) fn current_start_lsn(&self) -> u64 {
        self.entries.last().map_or(0, |s| s.start_lsn)
    }

    /// Opens a new epoch at `start_lsn` (a promotion). Returns the new
    /// epoch number.
    ///
    /// # Errors
    ///
    /// [`WalError::Decode`] when `start_lsn` precedes the current
    /// epoch's start — history must stay monotonic.
    pub fn begin(&mut self, start_lsn: u64) -> Result<u64, WalError> {
        if start_lsn < self.current_start_lsn() {
            return Err(WalError::Decode("epoch start_lsn would run backwards"));
        }
        let epoch = self.current() + 1;
        self.entries.push(EpochSpan { epoch, start_lsn });
        Ok(epoch)
    }

    /// Merges an epoch read from the log: a
    /// [`crate::WalRecord::LeaderEpoch`] replayed or shipped at
    /// `start_lsn`. Idempotent (a seal a snapshot head already carries
    /// is replayed again past its LSN); gaps are recorded as announced.
    ///
    /// # Errors
    ///
    /// [`WalError::Decode`] when the observation contradicts recorded
    /// history (same epoch at a different start LSN).
    pub fn observe(&mut self, epoch: u64, start_lsn: u64) -> Result<(), WalError> {
        if let Some(span) = self.entries.iter().find(|s| s.epoch == epoch) {
            if span.start_lsn != start_lsn {
                return Err(WalError::Decode("conflicting epoch start in stream"));
            }
            return Ok(());
        }
        if epoch < self.current() || start_lsn < self.current_start_lsn() {
            return Err(WalError::Decode("epoch observation runs backwards"));
        }
        self.entries.push(EpochSpan { epoch, start_lsn });
        Ok(())
    }

    /// The divergence check run at replication handshake: may a peer on
    /// `peer_epoch` whose log frontier is `peer_next_lsn` resume from
    /// this node's log?
    pub fn check_follower(&self, peer_epoch: u64, peer_next_lsn: u64) -> EpochCheck {
        if peer_epoch > self.current() {
            return EpochCheck::PeerAhead { peer_epoch };
        }
        // The first epoch the peer has never heard of: records the peer
        // holds at or past its start were written on a different
        // timeline (the peer's own dead one).
        match self.entries.iter().find(|s| s.epoch > peer_epoch) {
            Some(span) if peer_next_lsn > span.start_lsn => EpochCheck::Diverged {
                boundary_lsn: span.start_lsn,
            },
            _ => EpochCheck::Clean,
        }
    }
}

impl WalCodec for EpochHistory {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.entries.len() as u32);
        for span in &self.entries {
            put_u64(out, span.epoch);
            put_u64(out, span.start_lsn);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        let count = r.u32()?;
        let spans = (0..count)
            .map(|_| {
                Ok(EpochSpan {
                    epoch: r.u64()?,
                    start_lsn: r.u64()?,
                })
            })
            .collect::<Result<_, WalError>>()?;
        EpochHistory::from_spans(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_encode_decode_round_trip() {
        let mut h = EpochHistory::new();
        assert_eq!((h.current(), h.current_start_lsn()), (GENESIS_EPOCH, 0));
        assert_eq!(h.begin(40).unwrap(), 2);
        assert_eq!(h.begin(90).unwrap(), 3);
        let mut bytes = Vec::new();
        h.encode(&mut bytes);
        assert_eq!(bytes.len(), 4 + 3 * 16);
        let decoded = EpochHistory::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded, h);
        assert_eq!((decoded.current(), decoded.current_start_lsn()), (3, 90));
    }

    #[test]
    fn begin_refuses_backwards_lsn() {
        let mut h = EpochHistory::new();
        h.begin(50).unwrap();
        assert!(h.begin(49).is_err());
    }

    /// A history read from outside must open with genesis and run
    /// forwards: a damaged head is refused, never read as genesis.
    #[test]
    fn corrupt_history_is_an_error_not_genesis() {
        let span = |epoch, start_lsn| EpochSpan { epoch, start_lsn };
        assert!(EpochHistory::from_spans(vec![span(1, 0), span(2, 40)]).is_ok());
        for bad in [
            vec![],
            vec![span(0, 0)],
            vec![span(1, 5)],
            vec![span(2, 40)],
            vec![span(1, 0), span(1, 40)],
            vec![span(1, 0), span(3, 40), span(2, 50)],
            vec![span(1, 0), span(2, 40), span(3, 39)],
        ] {
            assert!(
                matches!(
                    EpochHistory::from_spans(bad.clone()),
                    Err(WalError::Decode(_))
                ),
                "{bad:?}"
            );
        }
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 0);
        assert!(EpochHistory::decode(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn observe_is_idempotent_and_checks_conflicts() {
        let mut h = EpochHistory::new();
        h.observe(2, 40).unwrap();
        let once = h.clone();
        h.observe(2, 40).unwrap();
        assert_eq!(h, once, "re-delivery is a no-op");
        assert!(h.observe(2, 41).is_err(), "conflicting start refused");
        h.observe(4, 60).unwrap();
        assert_eq!(h.current(), 4, "gaps recorded as announced");
    }

    #[test]
    fn check_follower_verdicts() {
        let mut h = EpochHistory::new();
        h.begin(40).unwrap(); // epoch 2 from 40
        h.begin(90).unwrap(); // epoch 3 from 90

        // Same timeline, any frontier: clean.
        assert_eq!(h.check_follower(3, 120), EpochCheck::Clean);
        // Old epoch, at or before the next boundary: clean resume.
        assert_eq!(h.check_follower(1, 40), EpochCheck::Clean);
        assert_eq!(h.check_follower(2, 90), EpochCheck::Clean);
        // Old epoch, past the boundary: divergent tail.
        assert_eq!(
            h.check_follower(1, 41),
            EpochCheck::Diverged { boundary_lsn: 40 }
        );
        assert_eq!(
            h.check_follower(2, 91),
            EpochCheck::Diverged { boundary_lsn: 90 }
        );
        // A peer from the future outranks this node.
        assert_eq!(
            h.check_follower(4, 10),
            EpochCheck::PeerAhead { peer_epoch: 4 }
        );
    }
}
