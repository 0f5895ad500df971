//! Leader side of WAL shipping: accept followers, bootstrap them from a
//! snapshot, then stream log segments as the writer grows them.
//!
//! The accept loop is the shared [`crate::framed::Listener`], and each
//! follower gets one session thread. The thread is a shell around a
//! [`LeaderSession`], the I/O-free machine that judges the `Hello`,
//! chooses resume or bootstrap, decides when a heartbeat is due and checks
//! every `Ack`. The shell reads the socket, tails the log with
//! [`SegmentTailer`], ships snapshots and writes `SnapshotBlocks` /
//! `Blocks` / `Heartbeat` messages. It reads the follower's messages
//! without waiting — between sends, so acks drain as they arrive — and
//! sleeps the poll interval when there is nothing to ship or read. Acks
//! move the session's entry in the [`ShipHorizon`], which
//! [`crate::DurableDatabase::snapshot_with_retention`] passes to
//! [`modb_wal::compact_with_barrier`], so compaction never deletes a
//! segment a connected follower still has to read.

use std::collections::VecDeque;
use std::fmt;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use modb_wal::segment::{read_segment_file, SEGMENT_HEADER_BYTES};
use modb_wal::{
    decode_block, list_segments, list_snapshots, split_frame, take_frames, EpochHistory,
    SegmentTailer, WalError, WalRecord,
};

use crate::durable::DurableDatabase;
use crate::framed::{send, FrameReader, Listener, ReadEvent, WRITE_TIMEOUT};
use crate::replication::horizon::ShipHorizon;
use crate::replication::protocol::{Message, MAX_MESSAGE_BYTES};
use crate::replication::session::{LeaderAction, LeaderEvent, LeaderSession, LogState};

/// Where the shipped log ends: a closure yielding the serving node's
/// frontier LSN. On a leader that is the WAL's next LSN; on a chained
/// follower ([`crate::StandbyReplica::serve_replication`]) it is the
/// applied watermark — the ship machinery itself is identical, which is
/// what lets one leader feed a tree of followers through the same seam.
pub(crate) type Frontier = Box<dyn Fn() -> u64 + Send + Sync>;

/// Tuning for [`DurableDatabase::serve_replication`].
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Records per `Blocks` message (bounds catch-up burst size).
    pub chunk_records: usize,
    /// Sleep between log polls when the follower is caught up. A follower
    /// that does not drain its socket for 10 s is disconnected, and its
    /// horizon entry released.
    pub poll_interval: Duration,
    /// Cadence of `Heartbeat` messages while idle (carries the leader's
    /// log frontier, so the follower can report lag).
    pub heartbeat_interval: Duration,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            chunk_records: 512,
            poll_interval: Duration::from_millis(2),
            heartbeat_interval: Duration::from_millis(100),
        }
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

/// Everything a follower session needs, shared across session threads.
struct ShipContext {
    dir: PathBuf,
    frontier: Frontier,
    horizon: Arc<ShipHorizon>,
    epochs: Arc<Mutex<EpochHistory>>,
    stats: ServerStats,
    config: ReplicationConfig,
}

impl ReplicationServer {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Current activity counters and lag.
    pub fn stats(&self) -> ReplicationStatsSnapshot {
        let (horizon, stats) = (&self.ctx.horizon, &self.ctx.stats);
        let leader_next_lsn = (self.ctx.frontier)();
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
        let wal = self.wal().clone();
        serve_replication_from(
            self.dir().to_path_buf(),
            Box::new(move || wal.next_lsn()),
            Arc::clone(self.ship_horizon()),
            Arc::clone(self.epochs()),
            addr,
            config,
        )
    }
}

/// Shared ship-server constructor: tails the segments in `dir` up to
/// `frontier`, feeding acknowledgements into `horizon`. The leader and a
/// chained follower differ only in these three inputs.
pub(crate) fn serve_replication_from(
    dir: PathBuf,
    frontier: Frontier,
    horizon: Arc<ShipHorizon>,
    epochs: Arc<Mutex<EpochHistory>>,
    addr: impl ToSocketAddrs,
    config: ReplicationConfig,
) -> Result<ReplicationServer, WalError> {
    let ctx = Arc::new(ShipContext {
        dir,
        frontier,
        horizon,
        epochs,
        stats: ServerStats::default(),
        config,
    });
    let session_ctx = Arc::clone(&ctx);
    let listener = Listener::spawn(
        addr,
        |_stream, _active| true,
        move |stream, stop| handle_follower(stream, &session_ctx, stop),
    )?;
    Ok(ReplicationServer { listener, ctx })
}

/// One follower session, on its own thread: the horizon entry is
/// registered at 0 (pinning the whole log) *before* the log is read for
/// the handshake, and released on the way out. A session that ends on an
/// error is counted; the socket closes either way and the follower's
/// reconnect backoff paces any retry.
fn handle_follower(stream: TcpStream, ctx: &ShipContext, stop: &AtomicBool) {
    ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let hid = ctx.horizon.register(0);
    if run_session(&stream, ctx, hid, stop).is_err() {
        ctx.stats.session_errors.fetch_add(1, Ordering::Relaxed);
    }
    ctx.horizon.release(hid);
    let _ = stream.shutdown(Shutdown::Both);
}

/// The shell: turns what the socket and the tailer show into events for
/// the session machine and carries out its actions.
fn run_session(
    stream: &TcpStream,
    ctx: &ShipContext,
    hid: u64,
    stop: &AtomicBool,
) -> Result<(), WalError> {
    let mut tx = stream.try_clone()?;
    let mut reader = FrameReader::<Message>::new(stream.try_clone()?, MAX_MESSAGE_BYTES);
    let log = LogState {
        frontier: (ctx.frontier)(),
        oldest_segment: list_segments(&ctx.dir)?.first().map(|&(start, _)| start),
        epochs: ctx.epochs.lock().unwrap_or_else(|e| e.into_inner()).clone(),
    };
    let mut session = LeaderSession::new(log, ctx.config.heartbeat_interval, Instant::now());
    let mut tailer: Option<SegmentTailer> = None;
    while !stop.load(Ordering::SeqCst) {
        // What the follower sent comes first, taken without waiting: its
        // `Hello`, then its acks between sends.
        let read = reader.poll_nowait()?;
        let chunk = match (&read, tailer.as_mut()) {
            // A gap or interior corruption under a live session ends it:
            // the follower reconnects and re-bootstraps from a snapshot.
            (ReadEvent::Idle, Some(tailer)) => tailer.poll_blocks(ctx.config.chunk_records)?,
            _ => None,
        };
        let event = match (read, chunk) {
            (ReadEvent::Message(msg), _) => LeaderEvent::Message(msg),
            (ReadEvent::Closed, _) => return Ok(()),
            (ReadEvent::Idle, Some(chunk)) => LeaderEvent::Chunk(chunk),
            (ReadEvent::Idle, None) => LeaderEvent::Idle {
                frontier: (ctx.frontier)(),
            },
        };
        let idle = matches!(event, LeaderEvent::Idle { .. });
        let mut actions = VecDeque::from(session.on(event, Instant::now()));
        while let Some(action) = actions.pop_front() {
            match action {
                LeaderAction::Send(msg) => {
                    send(&mut tx, &msg, MAX_MESSAGE_BYTES)?;
                    if let Message::Blocks { count, .. } = msg {
                        let shipped = &ctx.stats.records_shipped;
                        shipped.fetch_add(u64::from(count), Ordering::Relaxed);
                    }
                }
                LeaderAction::Bootstrap => {
                    let lsn = ship_snapshot(&mut tx, ctx)?;
                    actions.extend(session.on(LeaderEvent::Bootstrapped(lsn), Instant::now()));
                }
                LeaderAction::Tail(cursor) => tailer = Some(SegmentTailer::new(&ctx.dir, cursor)),
                LeaderAction::Advance(lsn) => ctx.horizon.advance(hid, lsn),
                LeaderAction::End(None) => return Ok(()),
                LeaderAction::End(Some(reason)) => return Err(WalError::Decode(reason)),
            }
        }
        // Nothing to ship or read: wait out the poll interval. A socket
        // read timeout would wait in whole scheduler ticks (a 2 ms one
        // measured ≈ 8 ms on a 2-vCPU Linux VM) and slow every record's
        // way to the follower.
        if idle {
            std::thread::sleep(ctx.config.poll_interval);
        }
    }
    Ok(())
}

/// Ships the newest whole snapshot in `SnapshotBlocks` runs and returns
/// its LSN. The snapshot is read once: the bytes checked are the bytes
/// shipped, and a compaction that removes the file after it was read does
/// not touch them.
fn ship_snapshot(tx: &mut TcpStream, ctx: &ShipContext) -> Result<u64, WalError> {
    let Some(Shipment { lsn, bytes, runs }) =
        shippable_snapshot(&ctx.dir, ctx.config.chunk_records)?
    else {
        return Err(WalError::NoSnapshot(ctx.dir.clone()));
    };
    for run in runs {
        let msg = Message::SnapshotBlocks {
            lsn,
            offset: run.start as u64,
            frames: bytes[run].to_vec(),
        };
        send(tx, &msg, MAX_MESSAGE_BYTES)?;
    }
    ctx.stats.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
    Ok(lsn)
}

/// A bootstrap snapshot ready to ship: its LSN, its bytes, and the runs
/// of whole frames they are cut into.
struct Shipment {
    lsn: u64,
    bytes: Vec<u8>,
    runs: Vec<Range<usize>>,
}

/// The newest snapshot in `dir` whose header names its file's LSN, whose
/// frames all pass their CRC and whose head promises the records its
/// blocks hold, with its bytes cut into runs of whole frames of
/// `chunk_records` records or one block past them ([`take_frames`], as
/// the log's tail is cut). Only the head is decoded: the follower decodes
/// each run as it applies it.
fn shippable_snapshot(dir: &Path, chunk_records: usize) -> Result<Option<Shipment>, WalError> {
    for (lsn, path) in list_snapshots(dir)?.into_iter().rev() {
        let Ok((start_lsn, bytes)) = read_segment_file(&path) else {
            continue;
        };
        let (mut runs, mut records) = (Vec::new(), 0);
        let mut pos = SEGMENT_HEADER_BYTES as usize;
        let whole = loop {
            let run = take_frames(&bytes[pos..], chunk_records.max(1));
            if run.torn.is_some() || run.bytes == 0 {
                break run.torn.is_none() && pos == bytes.len();
            }
            runs.push(pos..pos + run.bytes);
            (pos, records) = (pos + run.bytes, records + run.records);
        };
        let head = split_frame(&bytes[SEGMENT_HEADER_BYTES as usize..])
            .ok()
            .flatten()
            .and_then(|(payload, _)| decode_block(payload).ok());
        let sealed = matches!(
            head.as_deref(),
            Some([WalRecord::SnapshotHead { records: promised, .. }]) if promised + 1 == records
        );
        if whole && sealed && start_lsn == lsn {
            return Ok(Some(Shipment { lsn, bytes, runs }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    //! Wire-level handshake checks: these speak the protocol by hand
    //! (the in-tree [`crate::StandbyReplica`] always says the current
    //! version, so a refused `Hello` is only reachable from here).

    use super::*;
    use crate::replication::protocol::PROTOCOL_VERSION;
    use modb_core::{
        Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
        UpdateMessage, UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};
    use modb_wal::{
        decode_block_frames, FrameEnd, FsyncPolicy, WalOptions, GENESIS_EPOCH, SEGMENT_VERSION,
    };

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
            fsync: FsyncPolicy::Never,
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
        let config = ReplicationConfig {
            poll_interval: Duration::from_millis(1),
            heartbeat_interval: Duration::from_millis(20),
            ..ReplicationConfig::default()
        };
        let server = durable.serve_replication("127.0.0.1:0", config).unwrap();
        (durable, server)
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
        let Some(Message::SnapshotBlocks {
            lsn: 0, offset: 20, ..
        }) = next_message(&mut reader)
        else {
            panic!("expected the bootstrap snapshot at lsn 0");
        };
        let records = drain(&mut reader, total, |msg| {
            let Message::Blocks {
                count,
                version,
                frames,
                ..
            } = msg
            else {
                panic!("a follower must never see {msg:?}");
            };
            assert_eq!(*version, SEGMENT_VERSION);
            let (recs, _, end) = decode_block_frames(frames);
            assert!(matches!(end, FrameEnd::Clean));
            assert_eq!(recs.len(), *count as usize);
            recs
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
}
