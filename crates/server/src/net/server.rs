//! Server side of the query front-end: accept clients, run their
//! `;`-batches on the [`QueryEngine`], and answer stats scrapes.
//!
//! One front-end serves every kind of node, [`Node::serve_queries`]: a
//! leader ([`DurableDatabase::serve_queries`]) and a standby
//! ([`crate::StandbyReplica::serve_queries`]) differ only in the node's
//! watermark, which each request reads as it comes. A batch waits for
//! the node's frontier to reach its read-your-writes token, up to
//! [`QueryServerConfig::stale_deadline`], and is answered `Stale` past
//! it; its answers are widened by the node's lag (zero on a node that
//! leads its log); and a scrape reports the led log's I/O counters, or a
//! follower's applied watermark and lag. A standby promoted under a
//! running front-end serves as a leader from its next request on.
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
use modb_wal::WalError;

use crate::durable::DurableDatabase;
use crate::framed::{send, FrameReader, Listener, ReadEvent, READ_TIMEOUT, WRITE_TIMEOUT};
use crate::ingest::{IngestHandle, UpdateEnvelope};
use crate::net::protocol::{
    Message, RemoteUpdateVerdict, ServerStatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
    NET_PROTOCOL_VERSION,
};
use crate::node::Node;
use crate::query_engine::QueryEngine;

/// Tuning for [`DurableDatabase::serve_queries`].
#[derive(Debug, Clone)]
pub struct QueryServerConfig {
    /// Live sessions beyond this are refused at accept.
    pub max_connections: usize,
    /// Per-message payload ceiling, both ways: a larger incoming frame
    /// ends the session, a larger reply is refused before it is written.
    pub max_frame_bytes: u32,
    /// How long a partially received request may sit before the client
    /// is declared stalled and disconnected. (A client not draining its
    /// results for 10 s is disconnected too.)
    pub request_deadline: Duration,
    /// How long a `Batch` whose read-your-writes token outruns the
    /// node's frontier — a follower's applied watermark, a leader's log —
    /// may wait for it before the typed `Stale` answer goes back. Every
    /// token a leader acks is within its own frontier.
    pub stale_deadline: Duration,
}

impl Default for QueryServerConfig {
    fn default() -> Self {
        QueryServerConfig {
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            request_deadline: Duration::from_secs(10),
            stale_deadline: Duration::from_secs(2),
        }
    }
}

/// Everything a session needs, shared across connection threads.
struct ServeContext {
    engine: Arc<QueryEngine>,
    /// The node served: its frontier, lag and horizon are read from it.
    node: Arc<Node>,
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
        // A follower reports no WAL I/O here: its local log is the
        // replication worker's (its counters live in the replica stats),
        // and what a reader cares about is the watermark and the lag. A
        // node that leads its log — a promoted standby too — reports the
        // log's.
        let watermark = self.node.watermark();
        let ((wal_bytes_written, wal_fsyncs), group, replica) = match watermark.leads() {
            Some(wal) => (wal.io_counters(), wal.commit_stats(), None),
            None => {
                let replica = (watermark.applied(), watermark.lag());
                (Default::default(), Default::default(), Some(replica))
            }
        };
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
            wal_next_lsn: watermark.applied(),
            // Ingest has no queue; the field is there for `modb_ledger/`.
            ingest_queue_depth: 0,
            followers: self.node.horizon().followers() as u64,
            min_acked_lsn: self.node.horizon().min(),
            // No server sets a shard number; the field stays for the
            // v6 stats frame (`tests/golden/`).
            shard: None,
            // One tree, no bands; the field is there for `modb_ledger/`.
            index_band_migrations: 0,
            replica_applied_lsn: replica.map(|(applied, _)| applied),
            replica_lag: replica.map(|(_, lag)| lag),
        }
    }

    /// The gate ahead of a batch: when the token outruns the node's
    /// frontier, wait up to the stale deadline for it to get there;
    /// `Some((applied, required))` means it didn't and the caller must
    /// answer `Stale`.
    fn await_floor(&self, min_lsn: u64) -> Option<(u64, u64)> {
        let watermark = self.node.watermark();
        if watermark.wait_for_lsn(min_lsn, self.config.stale_deadline) {
            return None;
        }
        Some((watermark.applied(), min_lsn))
    }

    /// The staleness `Δ` priced into served answers: the lag read as
    /// the batch starts (one wall-clock second is one unit of database
    /// time). 0.0 on a node that leads its log, and on a follower within
    /// its contact window of a caught-up contact.
    fn staleness(&self) -> f64 {
        self.node.watermark().lag().as_secs_f64()
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
/// Each envelope is appended as a block of its own and waited on before
/// the next is appended: at most one fsync per envelope (the group
/// commit lets one fsync cover envelopes of concurrent sessions).
/// Appending a frame's envelopes as one block under one fsync was
/// measured (EXPERIMENTS M13): `mixed_follower` then acks over 21 k
/// updates/s against ≈ 4.5 k/s, and exhausts the benchmark's update
/// trace inside its window. It waits for ROADMAP's ledger item, which
/// has to size that trace to the faster rate first.
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
        self.node().serve_queries(engine, ingest, addr, config)
    }
}

impl Node {
    /// The query front-end over this node, for a leader and a standby
    /// alike: the floor gate, the widening and the scrape read the
    /// node's watermark as each request comes.
    pub(crate) fn serve_queries(
        self: &Arc<Self>,
        engine: Arc<QueryEngine>,
        ingest: Option<IngestHandle>,
        addr: impl ToSocketAddrs,
        config: QueryServerConfig,
    ) -> Result<QueryServer, WalError> {
        let ctx = Arc::new(ServeContext {
            engine,
            node: Arc::clone(self),
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
}

/// One client session: handshake, then serve batches and scrapes until
/// the peer closes, violates the protocol, stalls past the deadline, or
/// the server shuts down.
fn handle_client(mut stream: TcpStream, ctx: &ServeContext, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
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
                // A token the frontier cannot satisfy within the
                // deadline gets a typed Stale, never a hang — and the
                // session stays open for a retry.
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
                // drain guarantee). A lagging follower's staleness is
                // priced into every answer as it runs (no-op on a leader
                // or when caught up — served verdicts are then
                // bit-identical to local).
                let verdicts = ctx.engine.run_batch_lagging(&script, ctx.staleness());
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
