//! Leader side of WAL shipping: accept followers, bootstrap them from a
//! snapshot, then stream log segments as the writer grows them.
//!
//! The accept loop is the shared [`crate::framed::Listener`]; each
//! follower gets a session thread pair — a **shipper** (tailing the log
//! with [`SegmentTailer`] and writing `SnapshotBlocks` / `Blocks` /
//! `Heartbeat` messages) and an **ack reader** (draining `Ack` messages
//! into the acknowledged-LSN watermark). The watermark feeds the
//! [`ShipHorizon`], which
//! [`crate::DurableDatabase::snapshot_with_retention`] passes to
//! [`modb_wal::compact_with_barrier`] so compaction never deletes a
//! segment a connected follower still has to read.

use std::fmt;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use modb_wal::segment::{read_segment_file, SEGMENT_HEADER_BYTES};
use modb_wal::{
    decode_block, list_segments, list_snapshots, split_frame, take_frames, EpochCheck,
    EpochHistory, SegmentTailer, WalError, WalRecord, GENESIS_EPOCH, SEGMENT_VERSION,
};

use crate::durable::DurableDatabase;
use crate::framed::{send, FrameReader, Listener, ReadEvent};
use crate::replication::horizon::ShipHorizon;
use crate::replication::protocol::{Message, MAX_MESSAGE_BYTES, PROTOCOL_VERSION};

/// Where the shipped log ends: a closure yielding the serving node's
/// frontier LSN. On a leader that is the WAL's next LSN; on a chained
/// follower ([`crate::StandbyReplica::serve_replication`]) it is the
/// applied watermark — the ship machinery itself is identical, which is
/// what lets one leader feed a tree of followers through the same seam.
#[derive(Clone)]
pub(crate) struct Frontier(Arc<dyn Fn() -> u64 + Send + Sync>);

impl Frontier {
    pub(crate) fn new(f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        Frontier(Arc::new(f))
    }

    fn now(&self) -> u64 {
        (self.0)()
    }
}

impl fmt::Debug for Frontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frontier({})", self.now())
    }
}

/// Tuning for [`DurableDatabase::serve_replication`].
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Records per `Blocks` message (bounds catch-up burst size).
    pub chunk_records: usize,
    /// Sleep between tail polls when the follower is caught up.
    pub poll_interval: Duration,
    /// Cadence of `Heartbeat` messages while idle (carries the leader's
    /// log frontier, so the follower can report lag).
    pub heartbeat_interval: Duration,
    /// Socket write timeout; a follower stalled longer than this is
    /// disconnected (its horizon entry is then released, letting
    /// compaction proceed).
    pub write_timeout: Option<Duration>,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            chunk_records: 512,
            poll_interval: Duration::from_millis(2),
            heartbeat_interval: Duration::from_millis(100),
            write_timeout: Some(Duration::from_secs(10)),
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
#[derive(Debug)]
pub struct ReplicationServer {
    listener: Listener,
    ctx: Arc<ShipContext>,
}

/// Everything a follower session needs, shared across session threads.
#[derive(Debug)]
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
        let leader_next_lsn = self.ctx.frontier.now();
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
            Frontier::new(move || wal.next_lsn()),
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

/// One follower session: handshake, optional bootstrap, then ship until
/// disconnect or shutdown. The horizon entry is registered at 0 (pinning
/// the whole log) *before* the resume point is chosen, and released on
/// the way out. A session that ends on an error is counted; the socket
/// closes either way and the follower's reconnect backoff paces any
/// retry.
fn handle_follower(mut stream: TcpStream, ctx: &ShipContext, stop: &AtomicBool) {
    ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let _ = stream.set_write_timeout(ctx.config.write_timeout);
    let hid = ctx.horizon.register(0);
    if run_session(&mut stream, ctx, hid, stop).is_err() {
        ctx.stats.session_errors.fetch_add(1, Ordering::Relaxed);
    }
    ctx.horizon.release(hid);
    let _ = stream.shutdown(Shutdown::Both);
}

fn run_session(
    stream: &mut TcpStream,
    ctx: &ShipContext,
    hid: u64,
    stop: &AtomicBool,
) -> Result<(), WalError> {
    let ShipContext {
        dir,
        frontier,
        horizon,
        epochs,
        stats,
        config,
    } = ctx;
    // Read side runs on a clone so acks drain while the shipper blocks
    // in writes.
    let reader_stream = stream.try_clone()?;

    // ---- Handshake: wait (bounded) for the follower's Hello.
    let mut reader = FrameReader::<Message>::new(reader_stream, MAX_MESSAGE_BYTES);
    let deadline = Instant::now() + Duration::from_secs(5);
    let hello = loop {
        if stop.load(Ordering::SeqCst) || Instant::now() > deadline {
            return Ok(());
        }
        match reader.poll()? {
            ReadEvent::Message(Message::Hello {
                version,
                next_lsn,
                have_state,
                epoch,
            }) => {
                if version != PROTOCOL_VERSION {
                    return Err(WalError::Decode("replication protocol version mismatch"));
                }
                // Every log starts on genesis: epoch 0 names no timeline.
                if epoch < GENESIS_EPOCH {
                    return Err(WalError::Decode("hello names epoch 0"));
                }
                break (next_lsn, have_state, epoch);
            }
            ReadEvent::Message(_) => {
                return Err(WalError::Decode("expected Hello"));
            }
            ReadEvent::Idle => continue,
            ReadEvent::Closed => return Ok(()),
        }
    };

    // ---- Divergence gate (the promotion guard). A stateful peer whose
    // log frontier runs past the birth of an epoch it never lived under
    // holds forked history — a revived old leader tailing past the
    // promotion point. It gets a typed refusal, never a silent
    // bootstrap-and-overwrite. A peer claiming a *newer* epoch means
    // this server is the stale one: close without serving.
    let (follower_lsn, have_state, peer_epoch) = hello;
    if have_state {
        let check = epochs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .check_follower(peer_epoch, follower_lsn);
        match check {
            EpochCheck::Clean => {}
            EpochCheck::Diverged { boundary_lsn } => {
                let leader_epoch = epochs.lock().unwrap_or_else(|e| e.into_inner()).current();
                let _ = send(
                    stream,
                    &Message::Diverged {
                        leader_epoch,
                        boundary_lsn,
                    },
                    MAX_MESSAGE_BYTES,
                );
                return Err(WalError::Decode("follower log diverges from this timeline"));
            }
            EpochCheck::PeerAhead { .. } => {
                return Err(WalError::Decode("follower is on a newer epoch"));
            }
        }
    }
    // The peer learns the history from what it is shipped: a bootstrap
    // snapshot's head carries every epoch begun below its LSN, and a
    // `Clean` resume means every epoch the peer lacks begins at or past
    // its frontier, so its seal record is in the shipped stretch.

    // ---- Resume or bootstrap. The horizon entry (still at 0) keeps
    // every segment alive while we decide.
    let leader_next = frontier.now();
    let resumable = have_state && follower_lsn <= leader_next && {
        let segments = list_segments(dir)?;
        // The follower's next record must still be on disk — either
        // inside a surviving segment or exactly at the frontier.
        segments
            .first()
            .is_some_and(|&(start, _)| start <= follower_lsn)
    };
    let cursor = if resumable {
        follower_lsn
    } else {
        // Newest snapshot whose container checks out (same fallback
        // ladder as recovery), read once: the bytes checked are the bytes
        // shipped, and a compaction that removes the file after it was
        // read does not touch them.
        let Some(Shipment { lsn, bytes, runs }) = shippable_snapshot(dir, config.chunk_records)?
        else {
            return Err(WalError::NoSnapshot(dir.to_path_buf()));
        };
        for run in runs {
            let msg = Message::SnapshotBlocks {
                lsn,
                offset: run.start as u64,
                frames: bytes[run].to_vec(),
            };
            send(stream, &msg, MAX_MESSAGE_BYTES)?;
        }
        stats.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
        lsn
    };
    horizon.advance(hid, cursor);

    // ---- Ack reader: drains the follower's watermark into `acked`.
    let acked = Arc::new(AtomicU64::new(cursor));
    let done = Arc::new(AtomicBool::new(false));
    let ack_thread = {
        let acked = Arc::clone(&acked);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            loop {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                match reader.poll() {
                    Ok(ReadEvent::Message(Message::Ack { applied_lsn })) => {
                        acked.fetch_max(applied_lsn, Ordering::SeqCst);
                    }
                    Ok(ReadEvent::Idle) => continue,
                    // Anything else — close, garbage, a second Hello —
                    // ends the session.
                    Ok(_) | Err(_) => break,
                }
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    // ---- Ship loop: segment frames go out verbatim (`Blocks` —
    // compressed blocks exactly as they sit on disk).
    let mut tailer = SegmentTailer::new(dir, cursor);
    let mut last_heartbeat: Option<Instant> = None;
    let result = loop {
        if stop.load(Ordering::SeqCst) || done.load(Ordering::SeqCst) {
            break Ok(());
        }
        horizon.advance(hid, acked.load(Ordering::SeqCst));
        match tailer.poll_blocks(config.chunk_records) {
            Ok(Some(chunk)) => {
                let count = chunk.records;
                let msg = Message::Blocks {
                    start_lsn: chunk.start_lsn,
                    count: count as u32,
                    version: SEGMENT_VERSION,
                    frames: chunk.frames,
                };
                if let Err(e) = send(stream, &msg, MAX_MESSAGE_BYTES) {
                    break Err(e);
                }
                stats.records_shipped.fetch_add(count, Ordering::Relaxed);
            }
            Ok(None) => {
                let due = last_heartbeat.is_none_or(|t| t.elapsed() >= config.heartbeat_interval);
                if due {
                    let hb = Message::Heartbeat {
                        leader_next_lsn: frontier.now(),
                    };
                    if let Err(e) = send(stream, &hb, MAX_MESSAGE_BYTES) {
                        break Err(e);
                    }
                    last_heartbeat = Some(Instant::now());
                }
                std::thread::sleep(config.poll_interval);
            }
            // A gap or interior corruption under a live session: give up
            // on this connection; the follower reconnects and
            // re-bootstraps from a snapshot.
            Err(e) => break Err(e),
        }
    };
    done.store(true, Ordering::SeqCst);
    let _ = stream.shutdown(Shutdown::Both);
    let _ = ack_thread.join();
    result
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
    use modb_core::{
        Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
        UpdateMessage, UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};
    use modb_wal::{decode_block_frames, FrameEnd, FsyncPolicy, WalOptions};

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
