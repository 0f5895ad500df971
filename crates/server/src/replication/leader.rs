//! Leader side of WAL shipping: accept followers, bootstrap them from a
//! snapshot ([`Shipment`]), then stream log segments as the writer grows
//! them ([`SegmentTailer`]) — bytes and LSNs, never the file layout.
//!
//! Each follower session is a [`LeaderShell`], a step function over a
//! [`Link`] and a [`Clock`] that makes every decision of the session
//! itself: it judges the `Hello` (version, epoch 0, the divergence check),
//! chooses resume or bootstrap, ends a session whose `Hello` is late,
//! heartbeats an idle tail and refuses an `Ack` past what it shipped. One
//! [`LeaderShell::step`] reads what the follower sent without waiting —
//! between sends, so acks drain as they arrive — or else ships the next
//! run of the log from its [`SegmentTailer`], or a heartbeat when one is
//! due. In production the shared [`crate::framed::Listener`] gives each
//! accepted connection a thread that steps its session and sleeps
//! [`POLL_INTERVAL`] whenever a step found nothing to ship or read. Acks
//! move the session's entry in the node's [`crate::ShipHorizon`], at
//! which every compaction of the log
//! ([`crate::DurableDatabase::snapshot_with_retention`]) stops, so it
//! never deletes a segment a connected follower still has to read. The
//! log shipped and its frontier are the node's (`crate::node`): a
//! leader's, a chained standby's and a promotee's are shipped by the
//! same [`ShipContext`], up to the node's watermark.

use std::fmt;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use modb_wal::{list_segments, EpochCheck, SegmentTailer, Shipment, WalError, GENESIS_EPOCH};

use crate::durable::DurableDatabase;
use crate::framed::{Listener, ReadEvent};
use crate::node::Node;
use crate::replication::link::{self, Clock, Link, TcpLink, WallClock};
use crate::replication::protocol::{Message, PROTOCOL_VERSION, SESSION_DEADLINE};

/// How long a caught-up session waits before it looks at the log and
/// the follower again. It is a sleep, not a socket read timeout: a
/// receive timeout waits in whole scheduler ticks (a 2 ms one measured
/// ≈ 8 ms on a 2-vCPU Linux VM) and would slow every record's way to the
/// follower.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Cadence of `Heartbeat` messages while idle. A heartbeat carries the
/// leader's log frontier, so the follower can report lag and keep its lag
/// clock at zero while it is caught up.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Tuning for [`DurableDatabase::serve_replication`].
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Records per `Blocks` message (bounds catch-up burst size).
    pub chunk_records: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig { chunk_records: 512 }
    }
}

#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    snapshots_shipped: AtomicU64,
    records_shipped: AtomicU64,
    session_errors: AtomicU64,
}

/// Point-in-time view of a replication server's activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationStatsSnapshot {
    /// Followers currently connected (live horizon entries).
    pub followers: usize,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// The leader's log frontier (next LSN to be written).
    pub leader_next_lsn: u64,
    /// Lowest acknowledged LSN across connected followers (the ship
    /// barrier), when any are connected.
    pub min_acked_lsn: Option<u64>,
    /// `leader_next_lsn − min_acked_lsn`: the worst follower's lag in
    /// records (0 with no followers).
    pub max_lag_records: u64,
    /// Bootstrap snapshots shipped.
    pub snapshots_shipped: u64,
    /// Log records shipped (re-sends after a reconnect count again).
    pub records_shipped: u64,
    /// Sessions that ended on an error: a protocol violation, a refused
    /// handshake, an unreadable log, a stalled or vanished socket, or a
    /// message over the frame ceiling (which no retry can deliver).
    pub session_errors: u64,
}

impl fmt::Display for ReplicationStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replication: {} follower(s), {} connection(s), frontier lsn {}, \
             max lag {} record(s), {} snapshot(s) + {} record(s) shipped",
            self.followers,
            self.connections,
            self.leader_next_lsn,
            self.max_lag_records,
            self.snapshots_shipped,
            self.records_shipped,
        )
    }
}

/// Handle to a running leader-side replication listener. Dropping (or
/// [`ReplicationServer::shutdown`]) stops the accept loop and all
/// follower sessions.
pub struct ReplicationServer {
    listener: Listener,
    ctx: Arc<ShipContext>,
}

impl fmt::Debug for ReplicationServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReplicationServer({})", self.local_addr())
    }
}

/// Everything a follower session needs, shared across session threads:
/// the node whose log it ships, up to the node's watermark.
pub(crate) struct ShipContext {
    node: Arc<Node>,
    stats: ServerStats,
    config: ReplicationConfig,
    clock: Arc<dyn Clock>,
}

impl ShipContext {
    /// Current activity counters and lag.
    pub(crate) fn stats(&self) -> ReplicationStatsSnapshot {
        let (horizon, stats) = (self.node.horizon(), &self.stats);
        let leader_next_lsn = self.node.watermark().applied();
        let min_acked_lsn = horizon.min();
        ReplicationStatsSnapshot {
            followers: horizon.followers(),
            connections: stats.connections.load(Ordering::Relaxed),
            leader_next_lsn,
            min_acked_lsn,
            max_lag_records: min_acked_lsn.map_or(0, |a| leader_next_lsn.saturating_sub(a)),
            snapshots_shipped: stats.snapshots_shipped.load(Ordering::Relaxed),
            records_shipped: stats.records_shipped.load(Ordering::Relaxed),
            session_errors: stats.session_errors.load(Ordering::Relaxed),
        }
    }
}

impl ReplicationServer {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Current activity counters and lag.
    pub fn stats(&self) -> ReplicationStatsSnapshot {
        self.ctx.stats()
    }

    /// Stops accepting, disconnects followers, and returns the final
    /// stats.
    pub fn shutdown(mut self) -> ReplicationStatsSnapshot {
        let stats = self.stats();
        self.listener.shutdown();
        stats
    }
}

impl DurableDatabase {
    /// Starts serving this database's log to followers on `addr` (use
    /// port 0 for an ephemeral port, then
    /// [`ReplicationServer::local_addr`]). Each accepted follower is
    /// bootstrapped from the newest readable snapshot if its log
    /// position cannot be resumed, then streamed records as they are
    /// appended; its acknowledged watermark pins log compaction via the
    /// ship barrier.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn serve_replication(
        &self,
        addr: impl ToSocketAddrs,
        config: ReplicationConfig,
    ) -> Result<ReplicationServer, WalError> {
        self.node().serve_replication(addr, config)
    }
}

impl Node {
    /// Serves this node's log, up to its watermark, to followers that
    /// connect to `addr`.
    pub(crate) fn serve_replication(
        self: &Arc<Self>,
        addr: impl ToSocketAddrs,
        config: ReplicationConfig,
    ) -> Result<ReplicationServer, WalError> {
        let ctx = Arc::new(self.ship_context(config, Arc::new(WallClock)));
        let session_ctx = Arc::clone(&ctx);
        let listener = link::listen(addr, move |link, stop| {
            handle_follower(link, &session_ctx, stop)
        })?;
        Ok(ReplicationServer { listener, ctx })
    }

    /// What a session shipping this node's log works from, on `clock`.
    pub(crate) fn ship_context(
        self: &Arc<Self>,
        config: ReplicationConfig,
        clock: Arc<dyn Clock>,
    ) -> ShipContext {
        ShipContext {
            node: Arc::clone(self),
            stats: ServerStats::default(),
            config,
            clock,
        }
    }
}

/// One follower session on its own thread: steps the shell until the
/// session ends or the listener stops, sleeping [`POLL_INTERVAL`] after
/// a step that found nothing to do.
fn handle_follower(link: TcpLink, ctx: &ShipContext, stop: &AtomicBool) {
    let mut shell = LeaderShell::open(link, ctx);
    let result = loop {
        if stop.load(Ordering::SeqCst) {
            break Ok(());
        }
        match shell.step(ctx) {
            Ok(Step::Busy) => {}
            Ok(Step::Idle) => ctx.clock.sleep_until(ctx.clock.now() + POLL_INTERVAL),
            Ok(Step::Ended) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    shell.close(ctx, result.is_err());
}

/// What one [`LeaderShell::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// It read or shipped something: step again at once.
    Busy,
    /// Nothing to read or ship.
    Idle,
    /// The session is over.
    Ended,
}

/// One follower session: its link, its horizon entry and, once the
/// `Hello` is admitted, the tail it ships from.
pub(crate) struct LeaderShell<L> {
    link: L,
    /// The session's horizon entry.
    hid: u64,
    /// When the connection was taken: the `Hello` is due within
    /// [`SESSION_DEADLINE`] of it.
    opened: Instant,
    /// The log from the session's cursor on; `None` until the `Hello` is
    /// admitted.
    tailer: Option<SegmentTailer>,
    /// Everything this session shipped lies below this LSN.
    shipped_end: u64,
    last_heartbeat: Option<Instant>,
}

impl<L: Link> LeaderShell<L> {
    /// Takes a new connection. Its horizon entry is registered at 0,
    /// pinning the whole log, *before* the log is read for the handshake.
    pub(crate) fn open(link: L, ctx: &ShipContext) -> Self {
        ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
        LeaderShell {
            link,
            hid: ctx.node.horizon().register(0),
            opened: ctx.clock.now(),
            tailer: None,
            shipped_end: 0,
            last_heartbeat: None,
        }
    }

    /// One step: what the follower sent comes first, taken without
    /// waiting (its `Hello`, then its acks between sends); else the next
    /// run of the log, or a heartbeat when one is due. An `Err` ends the
    /// session as an error.
    pub(crate) fn step(&mut self, ctx: &ShipContext) -> Result<Step, WalError> {
        let now = ctx.clock.now();
        let msg = match self.link.poll(now)? {
            ReadEvent::Message(msg) => msg,
            ReadEvent::Closed => return Ok(Step::Ended),
            ReadEvent::Idle => return self.ship(ctx, now),
        };
        if self.tailer.is_none() {
            return self.hello(ctx, msg).map(|()| Step::Busy);
        }
        match msg {
            // An ack past what this session shipped names log the
            // follower never saw: taking it would move the compaction
            // barrier over records the follower still needs.
            Message::Ack { applied_lsn } if applied_lsn > self.shipped_end => {
                Err(WalError::Decode("ack past the shipped log"))
            }
            Message::Ack { applied_lsn } => {
                ctx.node.horizon().advance(self.hid, applied_lsn);
                Ok(Step::Busy)
            }
            _ => Err(WalError::Decode("unexpected message from a follower")),
        }
    }

    /// Judges the first message, which must be a current `Hello`, and
    /// starts the session: resumed at the follower's cursor, or
    /// bootstrapped from the newest whole snapshot.
    fn hello(&mut self, ctx: &ShipContext, msg: Message) -> Result<(), WalError> {
        let Message::Hello {
            version,
            next_lsn,
            have_state,
            epoch,
        } = msg
        else {
            return Err(WalError::Decode("expected Hello"));
        };
        if version != PROTOCOL_VERSION {
            return Err(WalError::Decode("replication protocol version mismatch"));
        }
        // Every log starts on genesis: epoch 0 names no timeline.
        if epoch < GENESIS_EPOCH {
            return Err(WalError::Decode("hello names epoch 0"));
        }
        // The divergence gate (the promotion guard). A stateful peer whose
        // log runs past the birth of an epoch it never lived under holds
        // forked history — a revived old leader tailing past the
        // promotion point. It gets a typed refusal, never a silent
        // bootstrap-and-overwrite. A peer on a *newer* epoch means this
        // node is the stale one: close without serving.
        if have_state {
            let (check, leader_epoch) = {
                let epochs = ctx.node.epochs();
                (epochs.check_follower(epoch, next_lsn), epochs.current())
            };
            match check {
                EpochCheck::Clean => {}
                EpochCheck::Diverged { boundary_lsn } => {
                    self.link.send(&Message::Diverged {
                        leader_epoch,
                        boundary_lsn,
                    })?;
                    return Err(WalError::Decode("follower log diverges from this timeline"));
                }
                EpochCheck::PeerAhead { .. } => {
                    return Err(WalError::Decode("follower is on a newer epoch"));
                }
            }
        }
        // The peer learns the history from what it is shipped: a
        // bootstrap snapshot's head carries every epoch begun below its
        // LSN, and a `Clean` resume lacks only epochs begun at or past its
        // frontier, whose seal records are in the shipped stretch. It
        // resumes when its next record is still in a surviving segment
        // (read now that the session's horizon entry pins the log).
        let oldest_segment = list_segments(ctx.node.dir())?
            .first()
            .map(|&(start, _)| start);
        let resumable = have_state
            && next_lsn <= ctx.node.watermark().applied()
            && oldest_segment.is_some_and(|start| start <= next_lsn);
        let cursor = if resumable {
            next_lsn
        } else {
            let shipment = Shipment::newest(ctx.node.dir())?;
            for run in shipment.runs(ctx.config.chunk_records) {
                self.link.send(&Message::SnapshotBlocks(run))?;
            }
            ctx.stats.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
            shipment.lsn()
        };
        self.shipped_end = cursor;
        ctx.node.horizon().advance(self.hid, cursor);
        self.tailer = Some(SegmentTailer::new(ctx.node.dir(), cursor));
        Ok(())
    }

    /// Nothing was read: ship the next run of the log, or a heartbeat
    /// when one is due — or, before the `Hello`, wait out its deadline.
    fn ship(&mut self, ctx: &ShipContext, now: Instant) -> Result<Step, WalError> {
        let Some(tailer) = self.tailer.as_mut() else {
            let late = now.saturating_duration_since(self.opened) > SESSION_DEADLINE;
            return Ok(if late { Step::Ended } else { Step::Idle });
        };
        // A gap or interior corruption under a live session ends it: the
        // follower reconnects and re-bootstraps from a snapshot. Segment
        // frames go out verbatim: compressed blocks exactly as they sit
        // on disk.
        if let Some(chunk) = tailer.poll_blocks(ctx.config.chunk_records)? {
            let (records, shipped) = (chunk.records, &ctx.stats.records_shipped);
            self.shipped_end = chunk.end_lsn();
            self.link.send(&Message::Blocks(chunk))?;
            shipped.fetch_add(records, Ordering::Relaxed);
            return Ok(Step::Busy);
        }
        let due = self
            .last_heartbeat
            .is_none_or(|at| now.saturating_duration_since(at) >= HEARTBEAT_INTERVAL);
        if due {
            self.last_heartbeat = Some(now);
            let leader_next_lsn = ctx.node.watermark().applied();
            self.link.send(&Message::Heartbeat { leader_next_lsn })?;
        }
        Ok(Step::Idle)
    }

    /// Ends the session: its horizon entry is released and the link
    /// closed. A session that `failed` is counted; the follower's
    /// reconnect backoff paces any retry.
    pub(crate) fn close(mut self, ctx: &ShipContext, failed: bool) {
        if failed {
            ctx.stats.session_errors.fetch_add(1, Ordering::Relaxed);
        }
        ctx.node.horizon().release(self.hid);
        self.link.shutdown();
    }
}

#[cfg(test)]
mod tests {
    //! Handshake and shipping checks that speak the protocol by hand (the
    //! in-tree [`crate::StandbyReplica`] always says the current version,
    //! so a refused `Hello` is only reachable from here): over a socket,
    //! and over an in-memory link on a virtual clock, where a test plays
    //! the follower and every timing is exact.

    use super::*;
    use crate::framed::{send, FrameReader};
    use crate::node::Watermark;
    use crate::replication::link::mem::{pair, Fault, MemLink, VirtualClock};
    use crate::replication::protocol::MAX_MESSAGE_BYTES;
    use crate::replication::Published;
    use modb_core::{
        Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
        UpdateMessage, UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};
    use modb_wal::{EpochHistory, WalOptions, GENESIS_EPOCH, SEGMENT_VERSION};
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("modb-leader-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn vehicle(id: u64) -> MovingObject {
        MovingObject {
            id: ObjectId(id),
            name: format!("veh-{id}"),
            attr: PositionAttribute {
                start_time: 0.0,
                route: RouteId(1),
                start_position: Point::new(0.0, 0.0),
                start_arc: 0.0,
                direction: Direction::Forward,
                speed: 1.0,
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: 5.0,
                },
            },
            max_speed: 1.5,
            trip_end: None,
        }
    }

    /// A leader with `updates` logged records past the two registrations.
    fn leader(name: &str, updates: u64) -> (DurableDatabase, ReplicationServer) {
        let durable = logged(name, updates);
        let server = durable
            .serve_replication("127.0.0.1:0", ReplicationConfig::default())
            .unwrap();
        (durable, server)
    }

    /// A leader's database with `updates` logged records past the two
    /// registrations, in 512-byte segments.
    fn logged(name: &str, updates: u64) -> DurableDatabase {
        let route = Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(1000.0, 0.0)],
        )
        .unwrap();
        let db = Database::new(
            RouteNetwork::from_routes([route]).unwrap(),
            DatabaseConfig::default(),
        );
        let opts = WalOptions {
            max_segment_bytes: 512,
        };
        let durable = DurableDatabase::create(tmp(name), db, opts).unwrap();
        durable.register_moving(vehicle(1)).unwrap();
        durable.register_moving(vehicle(2)).unwrap();
        for i in 0..updates {
            let id = ObjectId(1 + i % 2);
            let msg = UpdateMessage::basic(i as f64, UpdatePosition::Arc((i % 100) as f64), 1.0);
            durable.apply_update(id, &msg).unwrap();
        }
        durable
    }

    fn dial(
        server: &ReplicationServer,
        version: u32,
        epoch: u64,
    ) -> (TcpStream, FrameReader<Message>) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut tx = stream.try_clone().unwrap();
        send(
            &mut tx,
            &Message::Hello {
                version,
                next_lsn: 0,
                have_state: false,
                epoch,
            },
            MAX_MESSAGE_BYTES,
        )
        .unwrap();
        (tx, FrameReader::new(stream, MAX_MESSAGE_BYTES))
    }

    fn next_message(reader: &mut FrameReader<Message>) -> Option<Message> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match reader.poll() {
                Ok(ReadEvent::Message(m)) => return Some(m),
                Ok(ReadEvent::Idle) if Instant::now() < deadline => continue,
                Ok(ReadEvent::Idle) => panic!("timed out waiting for a message"),
                Ok(ReadEvent::Closed) | Err(_) => return None,
            }
        }
    }

    /// Drains the stream until `expected` records arrived, returning the
    /// decoded records; `assert_shape` sees every data message.
    fn drain(
        reader: &mut FrameReader<Message>,
        expected: u64,
        mut assert_shape: impl FnMut(&Message) -> Vec<modb_wal::WalRecord>,
    ) -> Vec<modb_wal::WalRecord> {
        let mut records = Vec::new();
        while (records.len() as u64) < expected {
            let msg = next_message(reader).expect("leader closed before the stream caught up");
            match msg {
                Message::Heartbeat { .. } => continue,
                Message::SnapshotBlocks { .. } => panic!("second bootstrap"),
                ref data => records.extend(assert_shape(data)),
            }
        }
        assert_eq!(records.len() as u64, expected, "no over-delivery");
        records
    }

    #[test]
    fn hello_is_served_verbatim_blocks() {
        let (durable, server) = leader("blocks", 38);
        let total = 2 + 38;
        let (_tx, mut reader) = dial(&server, PROTOCOL_VERSION, GENESIS_EPOCH);
        // The genesis snapshot (a head and one route) is one run.
        let Some(Message::SnapshotBlocks(first)) = next_message(&mut reader) else {
            panic!("expected the bootstrap snapshot");
        };
        assert_eq!((first.lsn, first.offset), (0, 20), "at lsn 0");
        let records = drain(&mut reader, total, |msg| {
            let Message::Blocks(chunk) = msg else {
                panic!("a follower must never see {msg:?}");
            };
            assert_eq!(chunk.version, SEGMENT_VERSION);
            chunk.decode().unwrap()
        });
        assert_eq!(records.len() as u64, durable.wal().next_lsn());
        server.shutdown();
    }

    #[test]
    fn unknown_hello_version_is_rejected() {
        let (_durable, server) = leader("version-reject", 4);
        let mut hellos = [0, 1, 2, 3, 4, PROTOCOL_VERSION + 1, u32::MAX]
            .map(|version| (version, GENESIS_EPOCH))
            .to_vec();
        // The current version naming epoch 0, a timeline no log is on.
        hellos.push((PROTOCOL_VERSION, 0));
        for &(version, epoch) in &hellos {
            let (_tx, mut reader) = dial(&server, version, epoch);
            assert!(
                next_message(&mut reader).is_none(),
                "version {version}, epoch {epoch} must be disconnected, not served"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.session_errors, hellos.len() as u64);
        assert_eq!(stats.records_shipped, 0);
    }

    /// An ack naming records the session never shipped ends the session
    /// as an error: the compaction barrier must not move past what the
    /// follower was sent.
    #[test]
    fn an_ack_past_the_shipped_log_ends_the_session() {
        let (_durable, server) = leader("ack-past", 4);
        let (mut tx, mut reader) = dial(&server, PROTOCOL_VERSION, GENESIS_EPOCH);
        while !matches!(next_message(&mut reader), Some(Message::Heartbeat { .. })) {}
        let bogus = Message::Ack {
            applied_lsn: u64::MAX,
        };
        send(&mut tx, &bogus, MAX_MESSAGE_BYTES).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while next_message(&mut reader).is_some() {
            assert!(Instant::now() < deadline, "the session outlived the ack");
        }
        let stats = server.shutdown();
        assert_eq!((stats.session_errors, stats.followers), (1, 0));
    }

    /// A `Hello` that stops before the epoch field (what a pre-epoch
    /// peer sent) is not a message of this protocol: the session ends
    /// without the leader shipping anything.
    #[test]
    fn epoch_less_hello_is_rejected() {
        use std::io::Write as _;
        let (_durable, server) = leader("short-hello", 4);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut payload = vec![1u8];
        payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.push(0);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&modb_wal::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        stream.write_all(&frame).unwrap();
        let mut reader = FrameReader::<Message>::new(stream, MAX_MESSAGE_BYTES);
        assert!(next_message(&mut reader).is_none());
        let stats = server.shutdown();
        assert_eq!((stats.session_errors, stats.records_shipped), (1, 0));
    }

    /// A session over an in-memory link on a virtual clock: the shell
    /// taking the connection, and the follower's end for the test to
    /// speak through.
    struct Session {
        ctx: ShipContext,
        clock: Arc<VirtualClock>,
        follower: MemLink,
        shell: LeaderShell<MemLink>,
    }

    impl Session {
        fn open(ctx: ShipContext, clock: Arc<VirtualClock>) -> Self {
            let (follower, acceptor) = pair(Fault::None);
            let shell = LeaderShell::open(acceptor, &ctx);
            Session {
                ctx,
                clock,
                follower,
                shell,
            }
        }

        /// A session shipping `durable`'s log in runs of 4 records.
        fn on(durable: &DurableDatabase) -> Self {
            let clock = Arc::new(VirtualClock::new());
            let config = ReplicationConfig { chunk_records: 4 };
            Session::open(durable.node().ship_context(config, clock.clone()), clock)
        }

        /// The follower sends `msg`, then the shell steps once.
        fn answer(&mut self, msg: Message) -> Result<Step, WalError> {
            self.follower.send(&msg).unwrap();
            self.shell.step(&self.ctx)
        }

        /// One step at `at` past the session's start.
        fn step_at(&mut self, t0: Instant, at: u64) -> Step {
            self.clock.sleep_until(t0 + Duration::from_millis(at));
            self.shell.step(&self.ctx).unwrap()
        }

        /// What the shell sent since last asked.
        fn received(&mut self) -> Vec<Message> {
            let mut got = Vec::new();
            while let ReadEvent::Message(msg) = self.follower.poll(self.clock.now()).unwrap() {
                got.push(msg);
            }
            got
        }

        /// The lowest horizon entry of the shipped log.
        fn horizon(&self) -> Option<u64> {
            self.ctx.node.horizon().min()
        }

        /// Ends the session, releasing its horizon entry.
        fn close(self) {
            self.shell.close(&self.ctx, false);
        }
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

    fn ack(applied_lsn: u64) -> Message {
        Message::Ack { applied_lsn }
    }

    /// Why a step ended the session as an error.
    fn refusal(step: Result<Step, WalError>) -> &'static str {
        match step {
            Err(WalError::Decode(reason)) => reason,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// A foreign version, epoch 0, a peer on a newer epoch, or anything
    /// but a `Hello` first ends the session as an error before anything
    /// ships; no `Hello` within the deadline ends it quietly, to the
    /// nanosecond; a second `Hello` is an error.
    #[test]
    fn a_session_opens_only_on_a_current_hello_in_time() {
        let durable = logged("hello-shell", 6);
        let refused = |first: Message| {
            let mut session = Session::on(&durable);
            let reason = refusal(session.answer(first));
            assert_eq!(session.received(), [], "nothing ships");
            reason
        };
        for version in [0, 1, 4, PROTOCOL_VERSION + 1, u32::MAX] {
            let msg = Message::Hello {
                version,
                next_lsn: 0,
                have_state: false,
                epoch: 1,
            };
            let mismatch = "replication protocol version mismatch";
            assert_eq!(refused(msg), mismatch, "{version}");
        }
        assert_eq!(refused(hello(0, false, 0)), "hello names epoch 0");
        let ahead = "follower is on a newer epoch";
        assert_eq!(refused(hello(4, true, 2)), ahead);
        assert_eq!(refused(ack(0)), "expected Hello");

        let mut session = Session::on(&durable);
        let t0 = session.clock.now();
        session.clock.sleep_until(t0 + SESSION_DEADLINE);
        assert_eq!(session.shell.step(&session.ctx).unwrap(), Step::Idle);
        let late = t0 + SESSION_DEADLINE + Duration::from_nanos(1);
        session.clock.sleep_until(late);
        assert_eq!(session.shell.step(&session.ctx).unwrap(), Step::Ended);

        let mut session = Session::on(&durable);
        assert_eq!(session.answer(hello(4, true, 1)).unwrap(), Step::Busy);
        let again = refusal(session.answer(hello(4, true, 1)));
        assert_eq!(again, "unexpected message from a follower");
    }

    /// A replica resumes only with state whose next record is still on
    /// disk: in a surviving segment, and at most at the frontier. Every
    /// other `Hello` is answered with the newest snapshot, and the
    /// session's horizon entry starts at the cursor it ships from.
    #[test]
    fn resume_needs_state_and_a_surviving_next_record() {
        let durable = logged("resume-shell", 60);
        let snapshot = durable.wal().next_lsn();
        durable.snapshot_with_retention(1).unwrap();
        let oldest = list_segments(durable.dir()).unwrap()[0].0;
        let frontier = durable.wal().next_lsn();
        assert!(0 < oldest && oldest < frontier, "{oldest}, {frontier}");
        for (next, have_state, resumes) in [
            (oldest, true, true),
            (frontier - 1, true, true),
            (frontier, true, true),
            (oldest, false, false),
            (oldest - 1, true, false),
            (frontier + 1, true, false),
        ] {
            let mut session = Session::on(&durable);
            assert_eq!(
                session.answer(hello(next, have_state, 1)).unwrap(),
                Step::Busy
            );
            let (cursor, shipped) = if resumes { (next, 0) } else { (snapshot, 1) };
            let case = format!("{next}, {have_state}");
            assert_eq!(session.horizon(), Some(cursor), "{case}");
            assert_eq!(session.ctx.stats().snapshots_shipped, shipped, "{case}");
            let bootstrapped = session
                .received()
                .iter()
                .any(|msg| matches!(msg, Message::SnapshotBlocks { .. }));
            assert_eq!(bootstrapped, !resumes, "{case}");
            session.close();
        }
    }

    /// An ack is the follower's watermark, never past what this session
    /// shipped — a resume's cursor, a bootstrap's snapshot, the end of
    /// the last run. The barrier follows acks up to there; one past it
    /// ends the session as an error.
    #[test]
    fn an_ack_past_the_shipped_end_ends_the_session() {
        let durable = logged("ack-shell", 8);
        let past = "ack past the shipped log";
        for bogus in [1, u64::MAX] {
            let mut session = Session::on(&durable);
            session.answer(hello(4, true, 1)).unwrap();
            assert_eq!(session.answer(ack(4)).unwrap(), Step::Busy);
            assert_eq!(session.horizon(), Some(4));
            assert_eq!(session.shell.step(&session.ctx).unwrap(), Step::Busy);
            let [Message::Blocks(ref chunk)] = session.received()[..] else {
                panic!("expected one run");
            };
            assert_eq!(chunk.start_lsn, 4, "a run from 4");
            let end = chunk.end_lsn();
            assert_eq!(session.answer(ack(end)).unwrap(), Step::Busy);
            assert_eq!(session.horizon(), Some(end));
            assert_eq!(
                refusal(session.answer(ack(end.saturating_add(bogus)))),
                past
            );
            session.close();
        }
        let mut session = Session::on(&durable);
        session.answer(hello(0, false, 1)).unwrap();
        assert_eq!(session.horizon(), Some(0), "the genesis snapshot");
        assert_eq!(refusal(session.answer(ack(1))), past);
    }

    /// Heartbeats go out while the tail is idle, at most one per
    /// interval, each carrying the frontier of its moment: the watermark
    /// of a follower's node over the log, moved by hand.
    #[test]
    fn an_idle_tail_heartbeats_once_per_interval() {
        let durable = logged("beat-shell", 2);
        let clock = Arc::new(VirtualClock::new());
        let published = Published::new(durable.wal().next_lsn(), clock.now());
        let node = Node::new(
            durable.database().clone(),
            durable.dir().to_path_buf(),
            EpochHistory::new(),
            Watermark::new(published, clock.clone()),
        );
        let ctx = node.ship_context(ReplicationConfig::default(), clock.clone());
        let mut session = Session::open(ctx, clock);
        let t0 = session.clock.now();
        session.answer(hello(4, true, 1)).unwrap();
        let beat = |leader_next_lsn| [Message::Heartbeat { leader_next_lsn }];
        for (at, shows, beats) in [
            (0, 4, true),
            (99, 4, false),
            (100, 5, true),
            (150, 5, false),
            (250, 6, true),
        ] {
            let mut frontier = *node.watermark().published();
            frontier.stats.applied_lsn = shows;
            node.watermark().publish(frontier);
            assert_eq!(session.step_at(t0, at), Step::Idle);
            let expected = if beats { beat(shows).to_vec() } else { vec![] };
            assert_eq!(session.received(), expected, "at {at} ms");
        }
    }
}
