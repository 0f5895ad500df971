//! Server side of the query front-end: accept clients, run their
//! `;`-batches on the [`QueryEngine`], and answer stats scrapes.
//!
//! The accept loop is the shared [`crate::framed::Listener`] (the one
//! the replication leader runs); each client gets a session thread that
//! handshakes, then loops over `Batch` / `StatsRequest` messages.
//! Robustness is fail-fast per connection and fail-safe for the server:
//!
//! - **Connection cap**: past [`QueryServerConfig::max_connections`]
//!   live sessions, a new client is sent `Refused` and closed — the
//!   accept loop never blocks on a slow client.
//! - **Frame cap**: a frame above
//!   [`QueryServerConfig::max_frame_bytes`] is stream corruption; the
//!   session ends without reading the body.
//! - **Request deadline**: a client that starts a frame and stalls
//!   (bytes buffered, no complete message) past
//!   [`QueryServerConfig::request_deadline`] is disconnected; its slot
//!   is released. Idle connections with *no* partial frame are fine —
//!   consoles sit at prompts for minutes.
//! - **Drained shutdown**: [`QueryServer::shutdown`] stops accepting and
//!   joins every session; a batch already delivered or executing finishes
//!   and its results are written out before the session exits, so a
//!   client never sees a half-answered batch from a clean shutdown.

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_query::QueryResult;
use modb_wal::{SharedWal, WalError};

use crate::durable::DurableDatabase;
use crate::framed::{send, FrameReader, Listener, ReadEvent};
use crate::ingest::{IngestHandle, UpdateEnvelope};
use crate::net::protocol::{
    Message, RemoteUpdateVerdict, ServerStatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
    NET_PROTOCOL_VERSION,
};
use crate::query_engine::QueryEngine;
use crate::replication::{ReplicaWatch, ShipHorizon};

/// Tuning for [`DurableDatabase::serve_queries`].
#[derive(Debug, Clone)]
pub struct QueryServerConfig {
    /// Live sessions beyond this are refused at accept.
    pub max_connections: usize,
    /// Per-message payload ceiling, both ways: a larger incoming frame
    /// ends the session, a larger reply is refused before it is written.
    pub max_frame_bytes: u32,
    /// How long a partially received request may sit before the client
    /// is declared stalled and disconnected.
    pub request_deadline: Duration,
    /// Socket write timeout; a client not draining its results is
    /// disconnected.
    pub write_timeout: Option<Duration>,
    /// Follower-served reads only: how long a `Batch` whose
    /// read-your-writes token outruns the applied watermark may wait for
    /// replication to catch up before the typed `Stale` answer goes
    /// back. Ignored on a leader (its own tokens never outrun its WAL).
    pub stale_deadline: Duration,
}

impl Default for QueryServerConfig {
    fn default() -> Self {
        QueryServerConfig {
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            request_deadline: Duration::from_secs(10),
            write_timeout: Some(Duration::from_secs(10)),
            stale_deadline: Duration::from_secs(2),
        }
    }
}

/// What the serving node's frontier is read from: the leader reads its
/// own WAL frontier, a standby replica reads its applied watermark (and
/// prices its lag into every answer).
enum Backend {
    Leader { wal: SharedWal },
    Follower { watch: ReplicaWatch },
}

impl Backend {
    /// The LSN every record applied to the serving database is below.
    fn frontier_now(&self) -> u64 {
        match self {
            Backend::Leader { wal } => wal.next_lsn(),
            Backend::Follower { watch } => watch.applied_lsn(),
        }
    }
}

/// Everything a session needs, shared across connection threads.
struct ServeContext {
    engine: Arc<QueryEngine>,
    backend: Backend,
    horizon: Arc<ShipHorizon>,
    ingest: Option<IngestHandle>,
    config: QueryServerConfig,
}

impl ServeContext {
    /// Sends one message to a client under this server's frame ceiling.
    fn reply(&self, stream: &mut TcpStream, msg: &Message) -> Result<(), WalError> {
        send(stream, msg, self.config.max_frame_bytes)
    }

    /// One consistent scrape: every gauge and counter read back to back.
    fn scrape(&self) -> ServerStatsSnapshot {
        // Follower-served nodes report no WAL I/O here: their local log
        // is the replication worker's (its counters live in the replica
        // stats), and what a reader cares about is the watermark + lag.
        let (wal_bytes_written, wal_fsyncs) = match &self.backend {
            Backend::Leader { wal } => wal.io_counters(),
            Backend::Follower { .. } => (0, 0),
        };
        let (replica_applied_lsn, replica_lag) = match &self.backend {
            Backend::Leader { .. } => (None, None),
            Backend::Follower { watch } => (Some(watch.applied_lsn()), Some(watch.lag())),
        };
        let group = self
            .ingest
            .as_ref()
            .and_then(IngestHandle::group_commit_stats)
            .unwrap_or_default();
        ServerStatsSnapshot {
            query: self.engine.stats(),
            ingest: self
                .ingest
                .as_ref()
                .map(|h| h.stats().snapshot())
                .unwrap_or_default(),
            wal_bytes_written,
            wal_fsyncs,
            wal_group_tickets: group.tickets,
            wal_group_commits: group.commits,
            wal_group_last_batch: group.last_batch,
            wal_next_lsn: self.backend.frontier_now(),
            // Ingest has no queue; the field is there for `modb_ledger/`.
            ingest_queue_depth: 0,
            followers: self.horizon.followers() as u64,
            min_acked_lsn: self.horizon.min(),
            // No server sets a shard number; the field stays for the
            // v6 stats frame (`tests/golden/`).
            shard: None,
            // One tree, no bands; the field is there for `modb_ledger/`.
            index_band_migrations: 0,
            replica_applied_lsn,
            replica_lag,
        }
    }

    /// Follower-only gate ahead of a batch: when the token outruns the
    /// applied watermark, wait up to the stale deadline for replication
    /// to deliver; `Some((applied, required))` means it didn't and the
    /// caller must answer `Stale`. A leader's tokens are its own acked
    /// frontiers, so the floor is satisfiable by definition there.
    fn await_floor(&self, min_lsn: u64) -> Option<(u64, u64)> {
        let Backend::Follower { watch } = &self.backend else {
            return None;
        };
        if min_lsn <= watch.applied_lsn() || watch.wait_for_lsn(min_lsn, self.config.stale_deadline)
        {
            return None;
        }
        Some((watch.applied_lsn(), min_lsn))
    }

    /// The `2·v_max·Δ` staleness term priced into every follower-served
    /// answer (0.0 on a leader, and on a caught-up follower where the
    /// lag clock reads zero). `v_max` is the fleet-wide speed cap — the
    /// worst-case drift any object can accumulate while the answer's
    /// clone trails the leader by wall-clock `Δ`.
    fn staleness_slack(&self) -> f64 {
        let Backend::Follower { watch } = &self.backend else {
            return 0.0;
        };
        let lag = watch.lag().as_secs_f64();
        if lag == 0.0 {
            return 0.0;
        }
        let v_max = self
            .engine
            .database()
            .with_read(|db| db.moving_objects().map(|o| o.max_speed).fold(0.0, f64::max));
        2.0 * v_max * lag
    }
}

/// Widens one served verdict by the staleness slack: position answers
/// grow their deviation bound and uncertainty interval, range answers
/// demote every certain member to possible (a `2·v_max·Δ` halo around
/// the query region could move any of them across the boundary), and
/// nearest answers grow each neighbour's bound and drop certainty.
/// `slack == 0` (a leader, or a caught-up follower) leaves the verdict
/// bit-identical.
fn widen_result(result: &mut QueryResult, slack: f64) {
    if slack <= 0.0 {
        return;
    }
    match result {
        QueryResult::Position(p) => {
            p.bound += slack;
            p.interval.0 -= slack;
            p.interval.1 += slack;
        }
        QueryResult::Range(a) => {
            let must = std::mem::take(&mut a.must);
            a.may.extend(must);
        }
        QueryResult::Nearest(a) => {
            for n in a.ranked.iter_mut().chain(a.contenders.iter_mut()) {
                n.bound += slack;
                n.certain = false;
            }
        }
    }
}

/// Refuses non-finite numeric fields, and policy parameters that make
/// the deviation bound unsound, at the protocol boundary. The ingest
/// path logs every envelope, whatever the DBMS makes of it; accepting
/// a NaN here would poison the WAL with a record replay can only
/// reject — so it never reaches the ingest handle.
fn validate_update(msg: &UpdateMessage) -> Result<(), String> {
    if !msg.time.is_finite() {
        return Err(format!("non-finite time {}", msg.time));
    }
    if !msg.speed.is_finite() {
        return Err(format!("non-finite speed {}", msg.speed));
    }
    if let Some(policy) = &msg.policy {
        policy.validate().map_err(|e| e.to_string())?;
    }
    match &msg.position {
        UpdatePosition::Arc(a) if !a.is_finite() => Err(format!("non-finite arc {a}")),
        UpdatePosition::Coordinates(p) if !p.is_finite() => {
            Err(format!("non-finite coordinates ({}, {})", p.x, p.y))
        }
        _ => Ok(()),
    }
}

/// Applies one frame's envelopes on this session's thread, in order, and
/// gathers the ack: the reported LSN is the highest durable frontier — a
/// token covering every acknowledged envelope of the frame, and none
/// that is not in the log.
///
/// Each envelope is waited on before the next is appended — one fsync
/// per envelope. Appending the whole frame first would let one fsync
/// cover it; that is ROADMAP's next write-path item, and it needs a
/// longer `mixed_follower` trace in the benchmark before it can land.
fn apply_updates(
    ctx: &ServeContext,
    updates: Vec<(ObjectId, UpdateMessage)>,
) -> (u64, Vec<RemoteUpdateVerdict>) {
    use RemoteUpdateVerdict::{Accepted, Invalid, Rejected};
    let mut lsn = 0;
    let verdicts = updates
        .into_iter()
        .map(|(id, msg)| {
            let ingest = ctx.ingest.as_ref().ok_or("no ingest service attached")?;
            validate_update(&msg)?;
            let pending = ingest
                .send_acked(UpdateEnvelope { id, msg })
                .map_err(|closed| closed.to_string())?;
            let outcome = pending.recv().map_err(|e| format!("not durable: {e}"))?;
            lsn = lsn.max(outcome.lsn);
            Ok(outcome.verdict)
        })
        .map(|applied: Result<_, String>| match applied {
            Ok(Ok(())) => Accepted,
            Ok(Err(rejected)) => Rejected(rejected.to_string()),
            Err(refused) => Invalid(refused),
        })
        .collect();
    (lsn, verdicts)
}

/// Handle to a running query front-end listener. Dropping (or
/// [`QueryServer::shutdown`]) stops the accept loop and joins every
/// session after its in-flight batch drains.
#[derive(Debug)]
pub struct QueryServer {
    listener: Listener,
}

impl QueryServer {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Sessions currently holding a connection slot. Drops back to 0
    /// once every client has disconnected — the fault tests use this to
    /// prove no slot leaks.
    pub fn active_connections(&self) -> usize {
        self.listener.active()
    }

    /// Stops accepting and joins all sessions (draining their in-flight
    /// batches).
    pub fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

impl DurableDatabase {
    /// Starts serving queries and stats scrapes on `addr` (use port 0
    /// for an ephemeral port, then [`QueryServer::local_addr`]). Batches
    /// run on `engine` exactly as a local
    /// [`QueryEngine::run_batch`] call would; pass an [`IngestHandle`]
    /// to accept remote `Update` frames — each session thread applies
    /// and logs its own — and to include the ingest counters in the
    /// scrape (without one, updates are refused with a typed verdict and
    /// the ingest counters read as zero).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn serve_queries(
        &self,
        engine: Arc<QueryEngine>,
        ingest: Option<IngestHandle>,
        addr: impl ToSocketAddrs,
        config: QueryServerConfig,
    ) -> Result<QueryServer, WalError> {
        serve_with_backend(
            engine,
            Backend::Leader {
                wal: self.wal().clone(),
            },
            Arc::clone(self.ship_horizon()),
            ingest,
            addr,
            config,
        )
    }
}

/// Follower-side query front-end constructor — the seam
/// [`crate::StandbyReplica::serve_queries`] goes through. Followers take
/// no remote ingest (they are read-only; `Update` frames get the typed
/// `Invalid` verdict the no-ingest path already produces), and their
/// scrape carries the applied watermark and lag instead of WAL I/O.
pub(crate) fn serve_follower_queries(
    engine: Arc<QueryEngine>,
    watch: ReplicaWatch,
    horizon: Arc<ShipHorizon>,
    addr: impl ToSocketAddrs,
    config: QueryServerConfig,
) -> Result<QueryServer, WalError> {
    serve_with_backend(
        engine,
        Backend::Follower { watch },
        horizon,
        None,
        addr,
        config,
    )
}

fn serve_with_backend(
    engine: Arc<QueryEngine>,
    backend: Backend,
    horizon: Arc<ShipHorizon>,
    ingest: Option<IngestHandle>,
    addr: impl ToSocketAddrs,
    config: QueryServerConfig,
) -> Result<QueryServer, WalError> {
    let ctx = Arc::new(ServeContext {
        engine,
        backend,
        horizon,
        ingest,
        config,
    });
    let door = Arc::clone(&ctx);
    let listener = Listener::spawn(
        addr,
        move |stream, active| {
            if active < door.config.max_connections {
                return true;
            }
            // A capacity rejection is one small write, made inline.
            let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
            let _ = door.reply(
                stream,
                &Message::Refused {
                    reason: "server at connection capacity".into(),
                },
            );
            let _ = stream.shutdown(Shutdown::Both);
            false
        },
        move |stream, stop| handle_client(stream, &ctx, stop),
    )?;
    Ok(QueryServer { listener })
}

/// One client session: handshake, then serve batches and scrapes until
/// the peer closes, violates the protocol, stalls past the deadline, or
/// the server shuts down.
fn handle_client(mut stream: TcpStream, ctx: &ServeContext, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let _ = stream.set_write_timeout(ctx.config.write_timeout);
    let _ = run_session(&mut stream, ctx, stop);
    let _ = stream.shutdown(Shutdown::Both);
}

fn run_session(
    stream: &mut TcpStream,
    ctx: &ServeContext,
    stop: &AtomicBool,
) -> Result<(), WalError> {
    let reader_stream = stream.try_clone()?;
    let mut reader = FrameReader::<Message>::new(reader_stream, ctx.config.max_frame_bytes);

    // ---- Handshake: wait (bounded) for the client's Hello.
    let deadline = Instant::now() + ctx.config.request_deadline;
    loop {
        if stop.load(Ordering::SeqCst) || Instant::now() > deadline {
            return Ok(());
        }
        match reader.poll()? {
            ReadEvent::Message(Message::Hello { version }) => {
                if version != NET_PROTOCOL_VERSION {
                    let _ = ctx.reply(
                        stream,
                        &Message::Refused {
                            reason: format!(
                                "protocol version mismatch: client {version}, \
                                 server {NET_PROTOCOL_VERSION}"
                            ),
                        },
                    );
                    return Ok(());
                }
                ctx.reply(
                    stream,
                    &Message::HelloAck {
                        version: NET_PROTOCOL_VERSION,
                    },
                )?;
                break;
            }
            ReadEvent::Message(_) => {
                return Err(WalError::Decode("expected Hello"));
            }
            ReadEvent::Idle => continue,
            ReadEvent::Closed => return Ok(()),
        }
    }

    // ---- Serve loop. Shutdown is observed on Idle, not up front: a
    // request already delivered when the stop flag flips is still
    // answered in full (the drain guarantee), and only then does the
    // session exit.
    let mut partial_since: Option<Instant> = None;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        match reader.poll()? {
            ReadEvent::Message(Message::Batch { script, min_lsn }) => {
                partial_since = None;
                // Follower-served reads: a token the watermark cannot
                // satisfy within the deadline gets a typed Stale, never
                // a hang — and the session stays open for a retry.
                if let Some((applied, required)) = ctx.await_floor(min_lsn) {
                    ctx.reply(stream, &Message::Stale { applied, required })?;
                    continue;
                }
                // The batch clones the database as it starts, so it reads
                // every record applied below the token: on a leader each
                // acked LSN was applied before its ack, on a follower the
                // floor was applied before the watermark passed it.
                // Synchronous execution: shutdown observed after this
                // point still lets the full response stream out (the
                // drain guarantee).
                let mut verdicts = ctx.engine.run_batch(&script);
                // Price the staleness of a lagging follower's snapshot
                // into every answer (no-op on a leader or when caught
                // up — served verdicts are then bit-identical to local).
                let slack = ctx.staleness_slack();
                for result in verdicts.iter_mut().flatten() {
                    widen_result(result, slack);
                }
                let count = verdicts.len() as u32;
                for (index, verdict) in verdicts.into_iter().enumerate() {
                    ctx.reply(
                        stream,
                        &Message::Statement {
                            index: index as u32,
                            verdict: verdict.map_err(|e| e.to_string()),
                        },
                    )?;
                }
                ctx.reply(stream, &Message::BatchDone { count })?;
            }
            ReadEvent::Message(Message::StatsRequest) => {
                partial_since = None;
                ctx.reply(stream, &Message::StatsReply(Box::new(ctx.scrape())))?;
            }
            ReadEvent::Message(Message::Update { id, msg }) => {
                partial_since = None;
                let (lsn, verdicts) = apply_updates(ctx, vec![(id, msg)]);
                ctx.reply(stream, &Message::UpdateAck { lsn, verdicts })?;
            }
            ReadEvent::Message(Message::UpdateBatch { updates }) => {
                partial_since = None;
                let (lsn, verdicts) = apply_updates(ctx, updates);
                ctx.reply(stream, &Message::UpdateAck { lsn, verdicts })?;
            }
            ReadEvent::Message(_) => {
                // A server-only message from a client is a protocol
                // violation.
                return Err(WalError::Decode("unexpected client message"));
            }
            ReadEvent::Idle => {
                if stopping {
                    return Ok(());
                }
                if reader.has_partial() {
                    let since = *partial_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > ctx.config.request_deadline {
                        return Err(WalError::Decode("client stalled mid-request"));
                    }
                } else {
                    partial_since = None;
                }
            }
            ReadEvent::Closed => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{NearestAnswer, Neighbour, ObjectId, PositionAnswer, RangeAnswer};
    use modb_geom::Point;
    use modb_index::SearchStats;

    fn sample_verdicts() -> Vec<QueryResult> {
        vec![
            QueryResult::Position(PositionAnswer {
                position: Point::new(3.0, 4.0),
                arc: 12.0,
                bound: 0.5,
                interval: (11.0, 13.0),
                interval_path: vec![Point::new(11.0, 0.0)],
            }),
            QueryResult::Range(RangeAnswer {
                must: vec![ObjectId(1), ObjectId(2)],
                may: vec![ObjectId(3)],
                candidates: 3,
                stats: SearchStats::default(),
            }),
            QueryResult::Nearest(NearestAnswer {
                ranked: vec![Neighbour {
                    id: ObjectId(1),
                    distance: 2.0,
                    bound: 0.25,
                    certain: true,
                }],
                contenders: vec![],
            }),
        ]
    }

    /// Zero slack must leave verdicts bit-identical (the equal-LSN parity
    /// guarantee); positive slack must only ever enlarge uncertainty.
    #[test]
    fn widening_is_identity_at_zero_and_containment_above() {
        for mut v in sample_verdicts() {
            let before = v.clone();
            widen_result(&mut v, 0.0);
            assert_eq!(v, before);
        }
        let slack = 1.5;
        for (mut v, before) in sample_verdicts().into_iter().zip(sample_verdicts()) {
            widen_result(&mut v, slack);
            match (&v, &before) {
                (QueryResult::Position(w), QueryResult::Position(b)) => {
                    assert_eq!(w.position, b.position);
                    assert_eq!(w.arc, b.arc);
                    assert!(w.bound >= b.bound + slack);
                    assert!(w.interval.0 <= b.interval.0 - slack);
                    assert!(w.interval.1 >= b.interval.1 + slack);
                }
                (QueryResult::Range(w), QueryResult::Range(b)) => {
                    // Every certain member is demoted, none is dropped.
                    assert!(w.must.is_empty());
                    for id in b.must.iter().chain(&b.may) {
                        assert!(w.may.contains(id), "{id:?} lost in widening");
                    }
                }
                (QueryResult::Nearest(w), QueryResult::Nearest(b)) => {
                    assert_eq!(w.ranked[0].id, b.ranked[0].id);
                    assert!(w.ranked[0].bound >= b.ranked[0].bound + slack);
                    assert!(!w.ranked[0].certain);
                }
                _ => panic!("verdict kind changed under widening"),
            }
        }
    }
}
