//! The decisions of a replication session, as two state machines with no
//! I/O: [`LeaderSession`] on the shipping side, [`FollowerSession`] on
//! the replica. Each is driven by `on(event, now)` and answers with the
//! actions its shell carries out. The shells (`leader.rs`,
//! `follower.rs`) own the socket, the log and snapshot files, the
//! snapshot load, the database and the wall clock, and feed back what
//! those did as further events. Time enters only as the event's `now`, so
//! a test sets it instead of sleeping.

use std::time::{Duration, Instant};

use modb_wal::segment::SEGMENT_HEADER_BYTES;
use modb_wal::{
    decode_block_frames, EpochCheck, EpochHistory, FrameEnd, RawChunk, WalRecord, GENESIS_EPOCH,
    SEGMENT_VERSION,
};

use crate::replication::follower::{DivergenceInfo, ReplicaPhase, ReplicaStatsSnapshot};
use crate::replication::lag::LagClock;
use crate::replication::protocol::{Message, PROTOCOL_VERSION};

/// How long a leader waits for a connected follower's `Hello`.
pub(crate) const HELLO_DEADLINE: Duration = Duration::from_secs(5);

/// Where the serving node's log stands as a session opens (read after
/// the session's horizon entry at 0 pins every segment): what the
/// follower's `Hello` is judged against.
#[derive(Debug, Clone)]
pub(crate) struct LogState {
    /// The next LSN the node will write.
    pub(crate) frontier: u64,
    /// Where the oldest surviving segment starts, if there is one.
    pub(crate) oldest_segment: Option<u64>,
    /// The node's leadership history.
    pub(crate) epochs: EpochHistory,
}

/// What happens to a leader's session.
#[derive(Debug)]
pub(crate) enum LeaderEvent {
    /// A message from the follower.
    Message(Message),
    /// The shell shipped the bootstrap snapshot taken at this LSN.
    Bootstrapped(u64),
    /// The tailer handed out the next frames of the log.
    Chunk(RawChunk),
    /// Nothing arrived within the read timeout and, once tailing, the
    /// log had nothing past `frontier`.
    Idle { frontier: u64 },
}

/// What a leader's shell does.
#[derive(Debug, PartialEq)]
pub(crate) enum LeaderAction {
    Send(Message),
    /// Ship the newest whole snapshot, then report its LSN as
    /// [`LeaderEvent::Bootstrapped`].
    Bootstrap,
    /// Tail the log from this LSN.
    Tail(u64),
    /// Move the follower's compaction barrier to this LSN.
    Advance(u64),
    /// End the session; a reason counts it as a session error.
    End(Option<&'static str>),
}

/// The leader's side of one follower session.
#[derive(Debug)]
pub(crate) struct LeaderSession {
    /// Until the `Hello` arrives: the log it is judged against.
    log: Option<LogState>,
    opened: Instant,
    heartbeat_interval: Duration,
    last_heartbeat: Option<Instant>,
    /// Everything this session shipped lies below this LSN.
    shipped_end: u64,
}

impl LeaderSession {
    pub(crate) fn new(log: LogState, heartbeat_interval: Duration, now: Instant) -> Self {
        LeaderSession {
            log: Some(log),
            opened: now,
            heartbeat_interval,
            last_heartbeat: None,
            shipped_end: 0,
        }
    }

    pub(crate) fn on(&mut self, event: LeaderEvent, now: Instant) -> Vec<LeaderAction> {
        use LeaderAction::{Advance, End, Send};
        let Some(log) = self.log.take() else {
            return match event {
                LeaderEvent::Bootstrapped(lsn) => self.start(lsn),
                // An ack past what this session shipped names log the
                // follower never saw: taking it would move the compaction
                // barrier over records the follower still needs.
                LeaderEvent::Message(Message::Ack { applied_lsn })
                    if applied_lsn > self.shipped_end =>
                {
                    vec![End(Some("ack past the shipped log"))]
                }
                LeaderEvent::Message(Message::Ack { applied_lsn }) => vec![Advance(applied_lsn)],
                LeaderEvent::Message(_) => vec![End(Some("unexpected message from a follower"))],
                // Segment frames go out verbatim: compressed blocks
                // exactly as they sit on disk.
                LeaderEvent::Chunk(chunk) => {
                    self.shipped_end = chunk.end_lsn();
                    vec![Send(Message::Blocks {
                        start_lsn: chunk.start_lsn,
                        count: chunk.records as u32,
                        version: SEGMENT_VERSION,
                        frames: chunk.frames,
                    })]
                }
                LeaderEvent::Idle { frontier }
                    if self.last_heartbeat.is_none_or(|at| {
                        now.saturating_duration_since(at) >= self.heartbeat_interval
                    }) =>
                {
                    self.last_heartbeat = Some(now);
                    vec![Send(Message::Heartbeat {
                        leader_next_lsn: frontier,
                    })]
                }
                LeaderEvent::Idle { .. } => vec![],
            };
        };
        match event {
            LeaderEvent::Message(Message::Hello {
                version,
                next_lsn,
                have_state,
                epoch,
            }) => self.hello(&log, version, next_lsn, have_state, epoch),
            LeaderEvent::Idle { .. }
                if now.saturating_duration_since(self.opened) <= HELLO_DEADLINE =>
            {
                self.log = Some(log);
                vec![]
            }
            LeaderEvent::Idle { .. } => vec![End(None)],
            _ => vec![End(Some("expected Hello"))],
        }
    }

    fn hello(
        &mut self,
        log: &LogState,
        version: u32,
        next_lsn: u64,
        have_state: bool,
        epoch: u64,
    ) -> Vec<LeaderAction> {
        use LeaderAction::{End, Send};
        if version != PROTOCOL_VERSION {
            return vec![End(Some("replication protocol version mismatch"))];
        }
        // Every log starts on genesis: epoch 0 names no timeline.
        if epoch < GENESIS_EPOCH {
            return vec![End(Some("hello names epoch 0"))];
        }
        // The divergence gate (the promotion guard). A stateful peer whose
        // log runs past the birth of an epoch it never lived under holds
        // forked history — a revived old leader tailing past the
        // promotion point. It gets a typed refusal, never a silent
        // bootstrap-and-overwrite. A peer on a *newer* epoch means this
        // node is the stale one: close without serving.
        if have_state {
            match log.epochs.check_follower(epoch, next_lsn) {
                EpochCheck::Clean => {}
                EpochCheck::Diverged { boundary_lsn } => {
                    let leader_epoch = log.epochs.current();
                    return vec![
                        Send(Message::Diverged {
                            leader_epoch,
                            boundary_lsn,
                        }),
                        End(Some("follower log diverges from this timeline")),
                    ];
                }
                EpochCheck::PeerAhead { .. } => {
                    return vec![End(Some("follower is on a newer epoch"))];
                }
            }
        }
        // The peer learns the history from what it is shipped: a
        // bootstrap snapshot's head carries every epoch begun below its
        // LSN, and a `Clean` resume lacks only epochs begun at or past its
        // frontier, whose seal records are in the shipped stretch. It
        // resumes when its next record is still in a surviving segment.
        let resumable = have_state
            && next_lsn <= log.frontier
            && log.oldest_segment.is_some_and(|start| start <= next_lsn);
        if resumable {
            self.start(next_lsn)
        } else {
            vec![LeaderAction::Bootstrap]
        }
    }

    fn start(&mut self, cursor: u64) -> Vec<LeaderAction> {
        self.shipped_end = cursor;
        vec![LeaderAction::Advance(cursor), LeaderAction::Tail(cursor)]
    }
}

/// Why a follower session ended. Every end but divergence leads back to
/// connecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEnd {
    /// The replica is stopping.
    Shutdown,
    /// The connection closed or was dropped on purpose.
    Disconnected,
    /// Framing was lost or a record could not be logged: renegotiate
    /// from the watermark (counted as a resync).
    Resync,
    /// A message was refused unapplied — a torn, foreign, out-of-order or
    /// unexpected one (counted as a rejected message and a resync).
    Reject,
    /// The upstream refused this replica's log tail as forked history.
    /// Reconnecting would get the same answer: terminal.
    Diverged(DivergenceInfo),
}

/// What happens to a follower's session.
#[derive(Debug)]
pub(crate) enum FollowerEvent {
    /// A connection opened; `have_state` when the replica has a log to
    /// resume.
    Connected { have_state: bool },
    /// A message from the upstream.
    Message(Message),
    /// The shell took a snapshot run: `Ok(Some(history))` once the
    /// snapshot is installed, `Ok(None)` while runs are to come, `Err`
    /// when the run or the install failed.
    SnapshotRun(Result<Option<EpochHistory>, ()>),
    /// Records are applied and logged below `next_lsn`; not `complete`
    /// when an append failed before the end of the run.
    Applied { next_lsn: u64, complete: bool },
    /// A local snapshot at `lsn` was written, or failed.
    Synced { lsn: u64, ok: bool },
    /// The session ended, by the machine's [`FollowerAction::End`] or the
    /// shell's own finding.
    Ended(SessionEnd),
}

/// Everything a replica publishes, settled together: its stats (the
/// applied watermark, the upstream frontier, the phase, the counters),
/// its lag clock and, once refused, the divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Published {
    pub(crate) stats: ReplicaStatsSnapshot,
    pub(crate) clock: LagClock,
    pub(crate) diverged: Option<DivergenceInfo>,
}

/// What a follower's shell does.
#[derive(Debug, PartialEq)]
pub(crate) enum FollowerAction {
    Send(Message),
    /// Feed a run of the bootstrap snapshot at `lsn` (the `first` opens
    /// it) and install the snapshot once its last record validates.
    SnapshotRun {
        lsn: u64,
        first: bool,
        frames: Vec<u8>,
    },
    /// Apply and log `records`, the first at `lsn`.
    Append {
        lsn: u64,
        records: Vec<WalRecord>,
    },
    /// Take a local snapshot at this LSN.
    Sync(u64),
    /// Publish this leadership history.
    Epochs(EpochHistory),
    Publish(Published),
    /// End the session; the shell reports it back as
    /// [`FollowerEvent::Ended`].
    End(SessionEnd),
}

/// The replica's side of its sessions, one after another.
#[derive(Debug)]
pub(crate) struct FollowerSession {
    /// What the replica last published; its `stats.applied_lsn` is the
    /// watermark.
    out: Published,
    have_state: bool,
    epochs: EpochHistory,
    snapshot_every: u64,
    last_snapshot: u64,
    /// The bootstrap snapshot arriving in this session: its LSN and the
    /// offset its next run must start at.
    incoming: Option<(u64, u64)>,
    /// The run being applied stops short of a conflicting epoch claim.
    conflict: bool,
}

impl FollowerSession {
    /// A replica whose log ends at `applied` under `epochs`, opened at
    /// `now`, taking a local snapshot every `snapshot_every` records (0:
    /// never).
    pub(crate) fn new(
        applied: u64,
        epochs: EpochHistory,
        snapshot_every: u64,
        now: Instant,
    ) -> Self {
        let stats = ReplicaStatsSnapshot {
            applied_lsn: applied,
            ..ReplicaStatsSnapshot::default()
        };
        FollowerSession {
            out: Published {
                stats,
                clock: LagClock::new(now),
                diverged: None,
            },
            have_state: false,
            epochs,
            snapshot_every,
            last_snapshot: applied,
            incoming: None,
            conflict: false,
        }
    }

    /// What the replica publishes now.
    pub(crate) fn published(&self) -> Published {
        self.out
    }

    pub(crate) fn on(&mut self, event: FollowerEvent, now: Instant) -> Vec<FollowerAction> {
        use FollowerAction::{End, Send};
        use ReplicaPhase::{Bootstrapping, CatchingUp, Steady};
        let applied = self.out.stats.applied_lsn;
        match event {
            FollowerEvent::Connected { have_state } => {
                (self.have_state, self.incoming, self.conflict) = (have_state, None, false);
                self.out.stats.connects += 1;
                self.out.stats.phase = if have_state {
                    CatchingUp
                } else {
                    Bootstrapping
                };
                let hello = Message::Hello {
                    version: PROTOCOL_VERSION,
                    next_lsn: applied,
                    have_state,
                    epoch: self.epochs.current(),
                };
                vec![Send(hello), self.publish()]
            }
            FollowerEvent::Message(Message::SnapshotBlocks {
                lsn,
                offset,
                frames,
            }) => {
                let first = self.incoming.is_none() && offset == SEGMENT_HEADER_BYTES;
                if first {
                    self.incoming = Some((lsn, offset));
                }
                // A duplicated, reordered or foreign run, or one with no
                // first run before it, continues nothing.
                match &mut self.incoming {
                    Some((at, next)) if (*at, *next) == (lsn, offset) => {
                        *next += frames.len() as u64;
                        vec![FollowerAction::SnapshotRun { lsn, first, frames }]
                    }
                    _ => vec![End(SessionEnd::Reject)],
                }
            }
            FollowerEvent::SnapshotRun(Ok(None)) => vec![],
            FollowerEvent::SnapshotRun(Ok(Some(epochs))) => {
                let Some((lsn, _)) = self.incoming.take() else {
                    return vec![End(SessionEnd::Reject)];
                };
                (self.last_snapshot, self.have_state) = (lsn, true);
                self.epochs = epochs.clone();
                let stats = &mut self.out.stats;
                (stats.applied_lsn, stats.phase) = (lsn, CatchingUp);
                stats.bootstraps += 1;
                let published = self.contact(now);
                let ack = Send(Message::Ack { applied_lsn: lsn });
                vec![FollowerAction::Epochs(epochs), published, ack]
            }
            FollowerEvent::SnapshotRun(Err(())) => vec![End(SessionEnd::Reject)],
            FollowerEvent::Message(Message::Blocks {
                start_lsn,
                count,
                version,
                frames,
            }) => self.blocks(start_lsn, count, version, &frames),
            FollowerEvent::Applied { next_lsn, complete } => {
                let stats = &mut self.out.stats;
                stats.records_applied += next_lsn - applied;
                stats.applied_lsn = next_lsn;
                let mut out = vec![self.contact(now)];
                if !complete {
                    out.push(End(SessionEnd::Resync));
                } else if std::mem::take(&mut self.conflict) {
                    out.push(End(SessionEnd::Reject));
                } else {
                    if self.snapshot_every > 0
                        && next_lsn.saturating_sub(self.last_snapshot) >= self.snapshot_every
                    {
                        out.push(FollowerAction::Sync(next_lsn));
                    }
                    let applied_lsn = next_lsn;
                    out.push(Send(Message::Ack { applied_lsn }));
                }
                out
            }
            FollowerEvent::Synced { lsn, ok } => {
                if !ok {
                    return vec![];
                }
                self.last_snapshot = lsn;
                self.out.stats.snapshots_taken += 1;
                vec![self.publish()]
            }
            FollowerEvent::Message(Message::Heartbeat { leader_next_lsn }) => {
                let stats = &mut self.out.stats;
                stats.leader_lsn = leader_next_lsn;
                if self.have_state {
                    let caught_up = applied >= leader_next_lsn;
                    stats.phase = if caught_up { Steady } else { CatchingUp };
                }
                vec![
                    self.contact(now),
                    Send(Message::Ack {
                        applied_lsn: applied,
                    }),
                ]
            }
            // The upstream proved this replica's tail belongs to a dead
            // timeline: stop, keeping the local state for inspection.
            FollowerEvent::Message(Message::Diverged {
                leader_epoch,
                boundary_lsn,
            }) => vec![End(SessionEnd::Diverged(DivergenceInfo {
                leader_epoch,
                boundary_lsn,
                local_next_lsn: applied,
            }))],
            // Leaders never send Hello or Ack.
            FollowerEvent::Message(Message::Hello { .. } | Message::Ack { .. }) => {
                vec![End(SessionEnd::Reject)]
            }
            FollowerEvent::Ended(SessionEnd::Shutdown) => vec![],
            FollowerEvent::Ended(end) => {
                let stats = &mut self.out.stats;
                stats.phase = ReplicaPhase::Connecting;
                match end {
                    SessionEnd::Shutdown | SessionEnd::Disconnected => {}
                    SessionEnd::Resync => stats.resyncs += 1,
                    SessionEnd::Reject => {
                        stats.rejected_messages += 1;
                        stats.resyncs += 1;
                    }
                    SessionEnd::Diverged(info) => {
                        stats.phase = ReplicaPhase::Diverged;
                        self.out.diverged = Some(info);
                    }
                }
                vec![self.publish()]
            }
        }
    }

    /// A `Blocks` run applies whole or not at all. It must name the one
    /// segment format, decode clean and complete (wire chunks are whole
    /// frames, so a torn tail is corruption in flight), arrive after the
    /// bootstrap snapshot, and continue the watermark — a gap would
    /// desynchronize the watermark from the stream.
    fn blocks(
        &mut self,
        start: u64,
        count: u32,
        version: u32,
        frames: &[u8],
    ) -> Vec<FollowerAction> {
        let lsn = self.out.stats.applied_lsn;
        let run = (version == SEGMENT_VERSION)
            .then(|| decode_block_frames(frames))
            .filter(|(records, _, end)| {
                matches!(end, FrameEnd::Clean) && records.len() == count as usize
            })
            .filter(|_| self.have_state && self.incoming.is_none() && start <= lsn);
        let Some((records, ..)) = run else {
            return vec![FollowerAction::End(SessionEnd::Reject)];
        };
        // Overlap below the watermark is a duplicate delivery, already
        // applied and logged: skipping it is the idempotent path.
        let skipped = (lsn - start).min(records.len() as u64);
        self.out.stats.records_skipped += skipped;
        let mut records: Vec<WalRecord> = records.into_iter().skip(skipped as usize).collect();
        // An in-stream leadership change joins the history; a conflicting
        // claim in an admitted stream is a protocol violation, so the run
        // applies up to it and the session ends.
        let mut out = Vec::new();
        let cut = records.iter().enumerate().position(|(i, rec)| {
            let WalRecord::LeaderEpoch { epoch } = rec else {
                return false;
            };
            let conflict = self.epochs.observe(*epoch, lsn + i as u64).is_err();
            if !conflict {
                out.push(FollowerAction::Epochs(self.epochs.clone()));
            }
            conflict
        });
        if let Some(cut) = cut {
            records.truncate(cut);
            self.conflict = true;
        }
        out.push(FollowerAction::Append { lsn, records });
        out
    }

    /// A contact with the upstream at `now`, leaving the watermark where
    /// it stands: the clock is settled and everything published.
    fn contact(&mut self, now: Instant) -> FollowerAction {
        let stats = &self.out.stats;
        (self.out.clock).contact(stats.applied_lsn, stats.leader_lsn, now);
        self.publish()
    }

    fn publish(&mut self) -> FollowerAction {
        let stats = &mut self.out.stats;
        stats.lag_records = stats.leader_lsn.saturating_sub(stats.applied_lsn);
        FollowerAction::Publish(self.out)
    }
}

#[cfg(test)]
mod tests {
    //! The two machines driven against each other and alone, in one
    //! thread: no socket, no file, no sleep. Time is the `now` a test
    //! passes.

    use super::*;
    use modb_core::ObjectId;
    use modb_wal::{encode_block, frame_block};
    use std::collections::VecDeque;
    use FollowerAction as F;
    use LeaderAction as L;
    use ReplicaPhase::{Bootstrapping, CatchingUp, Steady};

    const BEAT: Duration = Duration::from_millis(100);
    const REJECT: [FollowerAction; 1] = [F::End(SessionEnd::Reject)];

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn remove(id: u64) -> WalRecord {
        WalRecord::RemoveMoving(ObjectId(id))
    }

    fn removals(n: u64) -> Vec<WalRecord> {
        (0..n).map(remove).collect()
    }

    /// Segment frames of one one-record block per record.
    fn frames_of(records: &[WalRecord]) -> Vec<u8> {
        let mut frames = Vec::new();
        for record in records {
            let mut payload = Vec::new();
            encode_block(std::slice::from_ref(record), true, &mut payload);
            frame_block(&payload, &mut frames);
        }
        frames
    }

    fn chunk(start_lsn: u64, records: u64) -> RawChunk {
        let frames = frames_of(&removals(records));
        RawChunk {
            start_lsn,
            records,
            frames,
        }
    }

    /// A `Blocks` message carrying `records` from `start_lsn` on.
    fn run(start_lsn: u64, records: &[WalRecord]) -> FollowerEvent {
        let (count, version) = (records.len() as u32, SEGMENT_VERSION);
        let frames = frames_of(records);
        FollowerEvent::Message(Message::Blocks {
            start_lsn,
            count,
            version,
            frames,
        })
    }

    fn append(lsn: u64, records: Vec<WalRecord>) -> FollowerAction {
        F::Append { lsn, records }
    }

    fn applied(next_lsn: u64, complete: bool) -> FollowerEvent {
        FollowerEvent::Applied { next_lsn, complete }
    }

    fn heartbeat(leader_next_lsn: u64) -> FollowerEvent {
        FollowerEvent::Message(Message::Heartbeat { leader_next_lsn })
    }

    fn ack(applied_lsn: u64) -> Message {
        Message::Ack { applied_lsn }
    }

    fn hello(next_lsn: u64, have_state: bool, epoch: u64) -> Message {
        let version = PROTOCOL_VERSION;
        Message::Hello {
            version,
            next_lsn,
            have_state,
            epoch,
        }
    }

    /// What the last `Publish` among `actions` published.
    fn published(actions: &[FollowerAction]) -> Published {
        let last = actions.iter().rev().find_map(|a| match a {
            F::Publish(published) => Some(*published),
            _ => None,
        });
        last.unwrap_or_else(|| panic!("nothing published: {actions:?}"))
    }

    fn log(frontier: u64, oldest_segment: Option<u64>) -> LogState {
        let epochs = EpochHistory::new();
        LogState {
            frontier,
            oldest_segment,
            epochs,
        }
    }

    /// A leader session past its handshake, resumed at `cursor`.
    fn shipping(cursor: u64, t0: Instant) -> LeaderSession {
        let mut leader = LeaderSession::new(log(cursor, Some(0)), BEAT, t0);
        let started = leader.on(LeaderEvent::Message(hello(cursor, true, 1)), t0);
        assert_eq!(started, [L::Advance(cursor), L::Tail(cursor)]);
        leader
    }

    /// A replica with its log ending at `applied`, connected.
    fn follower(applied: u64, have_state: bool, every: u64, t0: Instant) -> FollowerSession {
        let mut f = FollowerSession::new(applied, EpochHistory::new(), every, t0);
        f.on(FollowerEvent::Connected { have_state }, t0);
        f
    }

    /// Both shells, played in memory: the leader's tailer hands out
    /// `tail`, a bootstrap ships a one-run snapshot at `snapshot`, and the
    /// follower's shell logs whatever it is asked to append.
    #[derive(Default)]
    struct Wire {
        tail: VecDeque<RawChunk>,
        snapshot: u64,
        bootstraps: u64,
        /// The LSNs the follower logged, in order.
        logged: Vec<u64>,
        horizon: u64,
        leader_end: Option<Option<&'static str>>,
        follower_end: Option<SessionEnd>,
    }

    impl Wire {
        /// Connects `follower` to `leader` and runs both until the tail
        /// is shipped and one idle heartbeat answered, or the session
        /// ends (messages in flight still reach the follower after the
        /// leader has ended). Returns what the follower published last.
        fn run(
            &mut self,
            leader: &mut LeaderSession,
            follower: &mut FollowerSession,
            have_state: bool,
            frontier: u64,
            now: Instant,
        ) -> Published {
            let mut to_leader = VecDeque::new();
            let mut to_follower = VecDeque::from([FollowerEvent::Connected { have_state }]);
            let (mut tailing, mut idle) = (false, false);
            while let Some(event) = to_follower.pop_front() {
                for action in follower.on(event, now) {
                    match action {
                        F::Send(msg) => to_leader.push_back(LeaderEvent::Message(msg)),
                        F::SnapshotRun { .. } => {
                            let installed = Ok(Some(EpochHistory::new()));
                            to_follower.push_back(FollowerEvent::SnapshotRun(installed));
                        }
                        F::Append { lsn, records } => {
                            let next_lsn = lsn + records.len() as u64;
                            self.logged.extend(lsn..next_lsn);
                            to_follower.push_back(applied(next_lsn, true));
                        }
                        F::Sync(lsn) => {
                            to_follower.push_back(FollowerEvent::Synced { lsn, ok: true })
                        }
                        F::Epochs(_) | F::Publish(_) => {}
                        F::End(end) => {
                            self.follower_end = Some(end);
                            to_follower = [FollowerEvent::Ended(end)].into();
                        }
                    }
                }
                while to_follower.is_empty() && self.leader_end.is_none() {
                    let event = match to_leader.pop_front() {
                        Some(event) => event,
                        None if tailing && !idle => match self.tail.pop_front() {
                            Some(chunk) => LeaderEvent::Chunk(chunk),
                            None => {
                                idle = true;
                                LeaderEvent::Idle { frontier }
                            }
                        },
                        None => break,
                    };
                    for action in leader.on(event, now) {
                        match action {
                            L::Send(msg) => to_follower.push_back(FollowerEvent::Message(msg)),
                            L::Bootstrap => {
                                self.bootstraps += 1;
                                let (lsn, offset) = (self.snapshot, SEGMENT_HEADER_BYTES);
                                let frames = vec![];
                                let msg = Message::SnapshotBlocks {
                                    lsn,
                                    offset,
                                    frames,
                                };
                                to_follower.push_back(FollowerEvent::Message(msg));
                                to_leader.push_front(LeaderEvent::Bootstrapped(lsn));
                            }
                            L::Tail(_) => tailing = true,
                            L::Advance(lsn) => self.horizon = self.horizon.max(lsn),
                            L::End(reason) => self.leader_end = Some(reason),
                        }
                    }
                }
            }
            follower.published()
        }
    }

    /// A replica with no state is bootstrapped, then streamed the log
    /// past the snapshot, acking each run; the barrier follows its acks,
    /// and the idle heartbeat finds it steady.
    #[test]
    fn a_fresh_follower_is_bootstrapped_streamed_and_steady() {
        let t0 = Instant::now();
        let mut leader = LeaderSession::new(log(10, Some(0)), BEAT, t0);
        let mut follower = FollowerSession::new(0, EpochHistory::new(), 0, t0);
        let mut wire = Wire {
            snapshot: 4,
            tail: [chunk(4, 3), chunk(7, 3)].into(),
            ..Wire::default()
        };
        let out = wire.run(&mut leader, &mut follower, false, 10, t0);
        assert_eq!((wire.leader_end, wire.follower_end), (None, None));
        assert_eq!((wire.bootstraps, wire.horizon), (1, 10));
        assert_eq!(wire.logged, (4..10).collect::<Vec<_>>());
        let stats = out.stats;
        assert_eq!(
            (stats.applied_lsn, stats.leader_lsn, stats.phase),
            (10, 10, Steady)
        );
        assert_eq!(
            (stats.bootstraps, stats.records_applied, stats.connects),
            (1, 6, 1)
        );
    }

    /// A replica with state resumes at its watermark with no bootstrap,
    /// and a run delivered again, whole or overlapping the watermark, is
    /// skipped record by record instead of applied twice.
    #[test]
    fn a_follower_with_state_resumes_at_its_watermark_and_skips_redelivery() {
        let t0 = Instant::now();
        let mut leader = LeaderSession::new(log(12, Some(0)), BEAT, t0);
        let mut follower = FollowerSession::new(6, EpochHistory::new(), 0, t0);
        let mut wire = Wire {
            tail: [chunk(6, 6)].into(),
            ..Wire::default()
        };
        wire.run(&mut leader, &mut follower, true, 12, t0);
        assert_eq!((wire.bootstraps, wire.horizon), (0, 12));
        assert_eq!(wire.logged, (6..12).collect::<Vec<_>>());
        assert_eq!(follower.on(run(6, &removals(6)), t0), [append(12, vec![])]);
        let overlap = follower.on(run(10, &removals(4)), t0);
        assert_eq!(overlap, [append(12, vec![remove(2), remove(3)])]);
        assert_eq!(follower.published().stats.records_skipped, 8);
    }

    /// A replica resumes only with state whose next record is still on
    /// disk: in a surviving segment, and at most at the frontier.
    #[test]
    fn resume_needs_state_and_a_surviving_next_record() {
        let t0 = Instant::now();
        for (next, have_state, oldest, resumes) in [
            (6, true, Some(0), true),
            (6, true, Some(6), true),
            (12, true, Some(0), true),
            (6, false, Some(0), false),
            (6, true, Some(8), false),
            (6, true, None, false),
            (13, true, Some(0), false),
        ] {
            let mut leader = LeaderSession::new(log(12, oldest), BEAT, t0);
            let expected = match resumes {
                true => vec![L::Advance(next), L::Tail(next)],
                false => vec![L::Bootstrap],
            };
            let opened = leader.on(LeaderEvent::Message(hello(next, have_state, 1)), t0);
            assert_eq!(opened, expected, "{next}, {have_state}, {oldest:?}");
        }
    }

    /// A foreign version, epoch 0, a peer on a newer epoch, or anything
    /// but a `Hello` first ends the session as an error before anything
    /// ships; no `Hello` within the deadline ends it quietly.
    #[test]
    fn a_session_opens_only_on_a_current_hello_in_time() {
        let t0 = Instant::now();
        let open =
            |msg| LeaderSession::new(log(8, Some(0)), BEAT, t0).on(LeaderEvent::Message(msg), t0);
        for version in [0, 1, 4, PROTOCOL_VERSION + 1, u32::MAX] {
            let mut msg = hello(0, false, 1);
            let Message::Hello { version: v, .. } = &mut msg else {
                unreachable!()
            };
            *v = version;
            let refused = [L::End(Some("replication protocol version mismatch"))];
            assert_eq!(open(msg), refused, "{version}");
        }
        assert_eq!(
            open(hello(0, false, 0)),
            [L::End(Some("hello names epoch 0"))]
        );
        let ahead = [L::End(Some("follower is on a newer epoch"))];
        assert_eq!(open(hello(4, true, 2)), ahead);
        assert_eq!(open(ack(0)), [L::End(Some("expected Hello"))]);

        let mut leader = LeaderSession::new(log(8, Some(0)), BEAT, t0);
        let idle = || LeaderEvent::Idle { frontier: 8 };
        assert!(leader.on(idle(), t0 + HELLO_DEADLINE).is_empty());
        let late = t0 + HELLO_DEADLINE + Duration::from_nanos(1);
        assert_eq!(leader.on(idle(), late), [L::End(None)]);

        let again = shipping(4, t0).on(LeaderEvent::Message(hello(4, true, 1)), t0);
        assert_eq!(again, [L::End(Some("unexpected message from a follower"))]);
    }

    /// The operator's mistake, promoting the staler standby: the promotee
    /// sealed epoch 2 at 8, and a fresher epoch-1 replica at 12 is
    /// refused `Diverged` at exactly the seal, logs nothing and stops for
    /// good. An epoch-1 replica no further than the seal resumes.
    #[test]
    fn a_fresher_follower_of_a_staler_promotee_is_refused_at_the_seal() {
        let t0 = Instant::now();
        let mut promotee = log(9, Some(0));
        promotee.epochs.begin(8).unwrap();
        let mut leader = LeaderSession::new(promotee.clone(), BEAT, t0);
        let mut follower = FollowerSession::new(12, EpochHistory::new(), 0, t0);
        let mut wire = Wire::default();
        let out = wire.run(&mut leader, &mut follower, true, 9, t0);
        let refusal = Some(Some("follower log diverges from this timeline"));
        assert_eq!(wire.leader_end, refusal);
        let info = DivergenceInfo {
            leader_epoch: 2,
            boundary_lsn: 8,
            local_next_lsn: 12,
        };
        assert_eq!(wire.follower_end, Some(SessionEnd::Diverged(info)));
        assert!(wire.logged.is_empty());
        assert_eq!(
            (out.stats.phase, out.diverged),
            (ReplicaPhase::Diverged, Some(info))
        );

        let mut leader = LeaderSession::new(promotee, BEAT, t0);
        let resumed = leader.on(LeaderEvent::Message(hello(8, true, 1)), t0);
        assert_eq!(resumed, [L::Advance(8), L::Tail(8)]);
    }

    /// An ack is the follower's watermark, never past what this session
    /// shipped — a resume's cursor, a bootstrap's snapshot, the end of
    /// the last run. The barrier follows acks up to there; one past it
    /// ends the session as an error.
    #[test]
    fn an_ack_past_the_shipped_end_ends_the_session() {
        let t0 = Instant::now();
        let ack = |leader: &mut LeaderSession, lsn| leader.on(LeaderEvent::Message(ack(lsn)), t0);
        let past = [L::End(Some("ack past the shipped log"))];
        for bogus in [9, u64::MAX] {
            let mut leader = shipping(4, t0);
            assert_eq!(ack(&mut leader, 4), [L::Advance(4)]);
            let sent = leader.on(LeaderEvent::Chunk(chunk(4, 4)), t0);
            let [L::Send(Message::Blocks {
                start_lsn: 4,
                count: 4,
                ..
            })] = &sent[..]
            else {
                panic!("{sent:?}");
            };
            assert_eq!(ack(&mut leader, 8), [L::Advance(8)]);
            assert_eq!(ack(&mut leader, bogus), past);
        }
        let mut leader = LeaderSession::new(log(8, Some(0)), BEAT, t0);
        let opened = leader.on(LeaderEvent::Message(hello(0, false, 1)), t0);
        assert_eq!(opened, [L::Bootstrap]);
        let started = leader.on(LeaderEvent::Bootstrapped(5), t0);
        assert_eq!(started, [L::Advance(5), L::Tail(5)]);
        assert_eq!(ack(&mut leader, 6), past);
    }

    /// Heartbeats go out while the tail is idle, at most one per interval,
    /// each carrying the frontier of its moment.
    #[test]
    fn an_idle_tail_heartbeats_once_per_interval() {
        let t0 = Instant::now();
        let mut leader = shipping(4, t0);
        let mut idle = |frontier, at| leader.on(LeaderEvent::Idle { frontier }, t0 + at);
        let beat = |leader_next_lsn| [L::Send(Message::Heartbeat { leader_next_lsn })];
        assert_eq!(idle(4, ms(0)), beat(4));
        assert!(idle(4, ms(99)).is_empty());
        assert_eq!(idle(5, ms(100)), beat(5));
        assert!(idle(5, ms(150)).is_empty());
        assert_eq!(idle(6, ms(250)), beat(6));
    }

    /// The lag clock after a caught-up heartbeat, by `now` alone: zero
    /// for the contact window, then the whole silence; a heartbeat that
    /// finds the replica behind leaves it counting from the last
    /// caught-up contact.
    #[test]
    fn a_caught_up_heartbeat_holds_the_lag_at_zero_for_the_contact_window() {
        let t0 = Instant::now();
        let mut f = follower(8, true, 0, t0);
        let at = t0 + ms(40);
        let actions = f.on(heartbeat(8), at);
        assert_eq!(actions.last(), Some(&F::Send(ack(8))));
        let out = published(&actions);
        assert_eq!(out.stats.phase, Steady);
        let window = LagClock::CONTACT_WINDOW;
        assert_eq!(out.clock.lag_at(at + window), Duration::ZERO);
        assert_eq!(out.clock.lag_at(at + window + ms(1)), window + ms(1));
        assert_eq!(out.clock.lag_at(at + ms(60_000)), ms(60_000));

        let behind = published(&f.on(heartbeat(10), at + ms(200)));
        assert_eq!((behind.stats.leader_lsn, behind.stats.lag_records), (10, 2));
        assert_eq!(behind.stats.phase, CatchingUp);
        assert_eq!(behind.clock.lag_at(at + ms(300)), ms(300));
    }

    /// The `Hello` names the watermark, whether there is state and the
    /// current epoch. A heartbeat sets the phase of a replica with state
    /// and is acked; leaders send no `Hello` or `Ack`.
    #[test]
    fn hello_and_heartbeats_report_the_watermark() {
        let t0 = Instant::now();
        let mut epochs = EpochHistory::new();
        epochs.begin(3).unwrap();
        let mut f = FollowerSession::new(7, epochs, 0, t0);
        let opened = f.on(FollowerEvent::Connected { have_state: true }, t0);
        assert_eq!(opened[0], F::Send(hello(7, true, 2)));
        assert_eq!(published(&opened).stats.phase, CatchingUp);
        assert_eq!(published(&f.on(heartbeat(9), t0)).stats.phase, CatchingUp);

        let mut fresh = FollowerSession::new(0, EpochHistory::new(), 0, t0);
        let opened = fresh.on(FollowerEvent::Connected { have_state: false }, t0);
        assert_eq!(opened[0], F::Send(hello(0, false, 1)));
        assert_eq!(published(&opened).stats.phase, Bootstrapping);
        let beat = fresh.on(heartbeat(5), t0);
        assert_eq!(published(&beat).stats.phase, Bootstrapping);
        assert_eq!(beat.last(), Some(&F::Send(ack(0))));
        for wrong in [ack(0), hello(0, false, 1)] {
            assert_eq!(fresh.on(FollowerEvent::Message(wrong), t0), REJECT);
        }
    }

    /// Bootstrap runs must continue each other. With a snapshot open at
    /// LSN 5, its first run again, a run past a missing one, a run of
    /// another snapshot and a log run are each refused; so is a run that
    /// is not first with no snapshot open. The last run installs the
    /// snapshot with its head's history.
    #[test]
    fn snapshot_runs_continue_each_other_or_are_refused() {
        let t0 = Instant::now();
        let part = |lsn, offset, len| {
            let frames = vec![7; len];
            FollowerEvent::Message(Message::SnapshotBlocks {
                lsn,
                offset,
                frames,
            })
        };
        let feed = |first, len| F::SnapshotRun {
            lsn: 5,
            first,
            frames: vec![7; len],
        };
        let opened = || {
            let mut f = follower(9, true, 0, t0);
            assert_eq!(f.on(part(5, 20, 30), t0), [feed(true, 30)]);
            f
        };
        assert_eq!(follower(9, true, 0, t0).on(part(5, 50, 30), t0), REJECT);
        for stray in [
            part(5, 20, 30),
            part(5, 80, 30),
            part(6, 50, 30),
            run(9, &removals(1)),
        ] {
            assert_eq!(opened().on(stray, t0), REJECT);
        }
        assert_eq!(opened().on(FollowerEvent::SnapshotRun(Err(())), t0), REJECT);

        let mut f = opened();
        assert_eq!(f.on(part(5, 50, 10), t0), [feed(false, 10)]);
        assert!(f.on(FollowerEvent::SnapshotRun(Ok(None)), t0).is_empty());
        let mut epochs = EpochHistory::new();
        epochs.begin(3).unwrap();
        let installed = f.on(FollowerEvent::SnapshotRun(Ok(Some(epochs.clone()))), t0);
        assert_eq!(installed[0], F::Epochs(epochs));
        assert_eq!(installed.last(), Some(&F::Send(ack(5))));
        let stats = published(&installed).stats;
        assert_eq!(
            (stats.applied_lsn, stats.bootstraps, stats.phase),
            (5, 1, CatchingUp)
        );
        assert_eq!(f.on(part(5, 60, 10), t0), REJECT, "the snapshot is spent");
    }

    /// A log run applies whole or not at all: one cut from another
    /// segment format, a short or torn one, one past a gap in the
    /// watermark and one before any state are refused, and none of their
    /// records is appended. The shell reports each refusal back, and the
    /// machine counts it as a rejected message and a resync.
    #[test]
    fn a_log_run_is_refused_whole_unless_clean_complete_and_contiguous() {
        let t0 = Instant::now();
        let records = removals(2);
        let good = follower(4, true, 0, t0).on(run(4, &records), t0);
        assert_eq!(good, [append(4, records.clone())]);
        let frames = frames_of(&records);
        let torn = frames[..frames.len() - 1].to_vec();
        let v = SEGMENT_VERSION;
        for (count, version, frames, applied) in [
            (2, 1, frames.clone(), 4),
            (2, v - 1, frames.clone(), 4),
            (2, v + 1, frames.clone(), 4),
            (3, v, frames.clone(), 4),
            (2, v, torn, 4),
            (2, v, frames.clone(), 3),
        ] {
            let mut f = follower(applied, true, 0, t0);
            let start_lsn = 4;
            let blocks = Message::Blocks {
                start_lsn,
                count,
                version,
                frames,
            };
            let refused = f.on(FollowerEvent::Message(blocks), t0);
            assert_eq!(
                refused, REJECT,
                "count {count}, version {version}, applied {applied}"
            );
            let out = published(&f.on(FollowerEvent::Ended(SessionEnd::Reject), t0)).stats;
            assert_eq!(
                (out.rejected_messages, out.resyncs, out.records_applied),
                (1, 1, 0)
            );
        }
        assert_eq!(follower(0, false, 0, t0).on(run(0, &records), t0), REJECT);
    }

    /// A `LeaderEpoch` record joins the history as it applies. One that
    /// contradicts the history ends the session once the records before
    /// it are applied, with no ack.
    #[test]
    fn a_conflicting_epoch_claim_applies_the_run_up_to_it_then_resyncs() {
        let t0 = Instant::now();
        let mut f = follower(4, true, 0, t0);
        let seal = WalRecord::LeaderEpoch { epoch: 2 };
        let mut sealed = EpochHistory::new();
        sealed.observe(2, 5).unwrap();
        let actions = f.on(run(4, &[remove(1), seal.clone()]), t0);
        assert_eq!(
            actions,
            [F::Epochs(sealed), append(4, vec![remove(1), seal.clone()])]
        );
        assert_eq!(f.on(applied(6, true), t0).last(), Some(&F::Send(ack(6))));

        let actions = f.on(run(6, &[remove(2), seal, remove(3)]), t0);
        assert_eq!(actions, [append(6, vec![remove(2)])]);
        let ended = f.on(applied(7, true), t0);
        assert_eq!(ended.last(), Some(&F::End(SessionEnd::Reject)));
        assert_eq!(published(&ended).stats.applied_lsn, 7);
    }

    /// A local snapshot is due every `snapshot_every` records past the
    /// last one taken, and a failed one is tried again after the next
    /// run. An append that failed partway publishes what was logged and
    /// resyncs, with no ack and no snapshot.
    #[test]
    fn local_snapshots_follow_the_cadence_and_retry_a_failure() {
        let t0 = Instant::now();
        let mut f = follower(0, true, 4, t0);
        let syncs = |f: &mut FollowerSession, next_lsn| -> Vec<FollowerAction> {
            let actions = f.on(applied(next_lsn, true), t0).into_iter();
            actions.filter(|a| matches!(a, F::Sync(_))).collect()
        };
        assert!(syncs(&mut f, 3).is_empty());
        assert_eq!(syncs(&mut f, 4), [F::Sync(4)]);
        assert!(f
            .on(FollowerEvent::Synced { lsn: 4, ok: false }, t0)
            .is_empty());
        assert_eq!(syncs(&mut f, 5), [F::Sync(5)]);
        let taken = f.on(FollowerEvent::Synced { lsn: 5, ok: true }, t0);
        assert_eq!(published(&taken).stats.snapshots_taken, 1);
        assert!(syncs(&mut f, 8).is_empty());
        assert_eq!(syncs(&mut f, 9), [F::Sync(9)]);
        let failed = f.on(applied(12, false), t0);
        assert_eq!(failed.last(), Some(&F::End(SessionEnd::Resync)));
        assert_eq!(published(&failed).stats.applied_lsn, 12);
    }
}
