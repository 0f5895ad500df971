//! Server side of the query front-end: accept clients, run their
//! `;`-batches on the [`QueryEngine`], and answer stats scrapes.
//!
//! One front-end serves every kind of node, [`Node::serve_queries`]: a
//! leader ([`DurableDatabase::serve_queries`]) and a standby
//! ([`crate::StandbyReplica::serve_queries`]) differ only in the node's
//! watermark, which each request reads as it comes: answers are widened
//! by the node's lag, a scrape reports the led log's counters or a
//! follower's watermark and lag, and a standby promoted under a running
//! front-end serves as a leader from its next request on.
//!
//! A client session is a [`FrontSession`], a step function over a `Link`
//! and a `Clock` (`crate::framed`) that takes at most one request a step
//! and answers it in full. On the session's clock:
//!
//! - a connection that has not said `Hello`, or has left a partial frame
//!   on the link, for [`REQUEST_DEADLINE`] ends (an
//!   idle one may sit for ever: consoles wait at prompts);
//! - a batch whose read-your-writes token outruns the node's frontier is
//!   parked at the floor gate: each step re-reads the watermark, runs
//!   the batch once the frontier reaches the token, or answers `Stale`
//!   at [`STALE_DEADLINE`]. No step blocks on it;
//! - once the server stops, a step answers the request in hand in full,
//!   then ends the session, so a client that sends back to back does not
//!   hold the shutdown up.
//!
//! In production the shared [`crate::framed::Listener`] refuses a client
//! past [`MAX_CONNECTIONS`] with `Refused`, inline,
//! and gives each other one a thread that steps its session: it waits on
//! the watermark while a batch is parked, so a publish wakes it, and
//! else blocks in the socket read. A frame over the protocol's
//! [`MAX_FRAME_BYTES`](crate::MAX_FRAME_BYTES), the ceiling its client
//! dials with too, ends the session unread.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_wal::WalError;

use crate::durable::DurableDatabase;
use crate::framed::{Clock, Link, Listener, ReadEvent, Step, TcpLink, WallClock};
use crate::ingest::{IngestHandle, UpdateEnvelope};
use crate::net::protocol::{
    Message, RemoteUpdateVerdict, ServerStatsSnapshot, NET_PROTOCOL_VERSION,
};
use crate::node::Node;
use crate::query_engine::QueryEngine;

/// Live sessions beyond this are refused at accept.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a connection may go without its `Hello`, or a partially
/// received request may sit, before the client is disconnected. (A
/// client not draining its results for 10 s is disconnected too.)
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// How long a `Batch` whose read-your-writes token outruns the node's
/// frontier — a follower's applied watermark, a leader's log — may wait
/// for it before the typed `Stale` answer goes back. Every token a leader
/// acks is within its own frontier.
pub(crate) const STALE_DEADLINE: Duration = Duration::from_secs(2);

/// The front-end's settings: none is left. Its limits are constants —
/// [`MAX_CONNECTIONS`], the protocol's
/// [`MAX_FRAME_BYTES`](crate::MAX_FRAME_BYTES), a 10-s request deadline
/// and a 2-s stale deadline. The type stays because `modb_ledger/` names
/// it.
#[derive(Debug, Clone, Default)]
pub struct QueryServerConfig;

/// Everything a session needs, shared across connection threads.
pub(crate) struct ServeContext {
    pub(crate) engine: Arc<QueryEngine>,
    /// The node served: its frontier, lag and horizon are read from it.
    pub(crate) node: Arc<Node>,
    pub(crate) ingest: Option<IngestHandle>,
    /// Where the sessions read the time their deadlines key off.
    pub(crate) clock: Arc<dyn Clock>,
}

impl ServeContext {
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
}

/// Refuses non-finite numeric fields, and policy parameters that make
/// the deviation bound unsound, at the protocol boundary: ingest logs
/// every envelope, and a NaN would poison the WAL with a record replay
/// can only reject.
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
/// that is not in the log. Each envelope is a block of its own, waited
/// on before the next: one block per frame under one fsync acks over
/// 21 k updates/s on `mixed_follower` and exhausts the benchmark's
/// update trace (EXPERIMENTS M13), so it waits for ROADMAP's ledger item.
fn apply_updates(ctx: &ServeContext, updates: Vec<(ObjectId, UpdateMessage)>) -> Message {
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
    Message::UpdateAck { lsn, verdicts }
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

    /// Sessions currently holding a connection slot: 0 again once every
    /// client has disconnected.
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
        _config: QueryServerConfig,
    ) -> Result<QueryServer, WalError> {
        self.node().serve_queries(engine, ingest, addr)
    }
}

impl Node {
    /// The query front-end over this node, for a leader and a standby
    /// alike (see the module docs).
    pub(crate) fn serve_queries(
        self: &Arc<Self>,
        engine: Arc<QueryEngine>,
        ingest: Option<IngestHandle>,
        addr: impl ToSocketAddrs,
    ) -> Result<QueryServer, WalError> {
        let ctx = Arc::new(ServeContext {
            engine,
            node: Arc::clone(self),
            ingest,
            clock: Arc::new(WallClock),
        });
        let listener = Listener::spawn(
            addr,
            |link: &mut TcpLink<Message>, active| {
                if active < MAX_CONNECTIONS {
                    return true;
                }
                // A capacity rejection is one small write, made inline.
                let reason = "server at connection capacity".into();
                let _ = link.send(&Message::Refused { reason });
                false
            },
            move |link, stop| serve_client(link, &ctx, stop),
        )?;
        Ok(QueryServer { listener })
    }
}

/// One client session on its own thread: steps it until it ends, waiting
/// on the node's watermark while a batch is parked.
fn serve_client(link: TcpLink<Message>, ctx: &ServeContext, stop: &AtomicBool) {
    let mut session = FrontSession::open(link, ctx);
    while let Ok(step) = session.step(ctx, stop.load(Ordering::SeqCst)) {
        match (step, session.parked_floor()) {
            (Step::Ended, _) => break,
            (Step::Idle, Some((lsn, until))) => {
                let left = until.saturating_duration_since(ctx.clock.now());
                ctx.node.watermark().wait_for_lsn(lsn, left);
            }
            _ => {}
        }
    }
    session.close();
}

/// A batch held at the floor gate until `until`.
struct Parked {
    script: String,
    min_lsn: u64,
    until: Instant,
}

/// One client session: its link, and where it stands — before the
/// `Hello`, parked at the floor gate, or between requests.
pub(crate) struct FrontSession<L> {
    link: L,
    /// When the connection was taken, until its `Hello` is.
    opened: Option<Instant>,
    parked: Option<Parked>,
    /// Since when bytes of an unfinished request have sat on the link.
    partial_since: Option<Instant>,
}

impl<L: Link<Message>> FrontSession<L> {
    /// Takes a new connection: its `Hello` is due.
    pub(crate) fn open(link: L, ctx: &ServeContext) -> Self {
        FrontSession {
            link,
            opened: Some(ctx.clock.now()),
            parked: None,
            partial_since: None,
        }
    }

    /// The token and the `Stale` deadline of a batch parked at the gate.
    pub(crate) fn parked_floor(&self) -> Option<(u64, Instant)> {
        self.parked.as_ref().map(|p| (p.min_lsn, p.until))
    }

    /// One step: a parked batch goes back to the gate; else at most one
    /// request is read (without waiting once `stopping`) and answered in
    /// full. Once `stopping`, a step that answered a request, or found
    /// none, ends the session. An `Err` ends it as a protocol violation.
    pub(crate) fn step(&mut self, ctx: &ServeContext, stopping: bool) -> Result<Step, WalError> {
        let now = ctx.clock.now();
        let step = if self.parked.is_some() {
            self.gate(ctx, now)?
        } else {
            self.read(ctx, now, stopping)?
        };
        if stopping && step == Step::Busy {
            return Ok(Step::Ended);
        }
        Ok(step)
    }

    /// Reads one request and answers it, or parks a batch at the gate.
    fn read(&mut self, ctx: &ServeContext, now: Instant, stopping: bool) -> Result<Step, WalError> {
        let wait = if stopping {
            now
        } else {
            now + REQUEST_DEADLINE
        };
        let msg = match self.link.poll(wait)? {
            ReadEvent::Message(msg) => msg,
            ReadEvent::Idle => return self.idle(now, stopping),
            ReadEvent::Closed => return Ok(Step::Ended),
        };
        self.partial_since = None;
        if self.opened.is_some() {
            return self.hello(msg);
        }
        let reply = match msg {
            Message::Batch { script, min_lsn } => {
                let until = now + STALE_DEADLINE;
                self.parked = Some(Parked {
                    script,
                    min_lsn,
                    until,
                });
                return self.gate(ctx, now);
            }
            Message::StatsRequest => Message::StatsReply(Box::new(ctx.scrape())),
            Message::Update { id, msg } => apply_updates(ctx, vec![(id, msg)]),
            Message::UpdateBatch { updates } => apply_updates(ctx, updates),
            // A server-only message from a client is a protocol violation.
            _ => return Err(WalError::Decode("unexpected client message")),
        };
        self.link.send(&reply)?;
        Ok(Step::Busy)
    }

    /// Judges the first message, which must be a `Hello` at this
    /// protocol's version; another version is answered `Refused`.
    fn hello(&mut self, msg: Message) -> Result<Step, WalError> {
        let Message::Hello { version } = msg else {
            return Err(WalError::Decode("expected Hello"));
        };
        if version != NET_PROTOCOL_VERSION {
            let reason = format!(
                "protocol version mismatch: client {version}, server {NET_PROTOCOL_VERSION}"
            );
            let _ = self.link.send(&Message::Refused { reason });
            return Ok(Step::Ended);
        }
        self.opened = None;
        let version = NET_PROTOCOL_VERSION;
        self.link.send(&Message::HelloAck { version })?;
        Ok(Step::Busy)
    }

    /// Nothing was read: the handshake and stall deadlines.
    fn idle(&mut self, now: Instant, stopping: bool) -> Result<Step, WalError> {
        if stopping {
            return Ok(Step::Ended);
        }
        if let Some(opened) = self.opened {
            let late = now.saturating_duration_since(opened) > REQUEST_DEADLINE;
            return Ok(if late { Step::Ended } else { Step::Idle });
        }
        if !self.link.has_partial() {
            self.partial_since = None;
        } else if now.saturating_duration_since(*self.partial_since.get_or_insert(now))
            > REQUEST_DEADLINE
        {
            return Err(WalError::Decode("client stalled mid-request"));
        }
        Ok(Step::Idle)
    }

    /// The floor gate: the parked batch runs once the node's frontier
    /// has reached its token, and is answered `Stale` — the session
    /// stays open for a retry — once the deadline has passed first.
    fn gate(&mut self, ctx: &ServeContext, now: Instant) -> Result<Step, WalError> {
        let applied = ctx.node.watermark().applied();
        let Some(parked) = self
            .parked
            .take_if(|p| applied >= p.min_lsn || now >= p.until)
        else {
            return Ok(Step::Idle);
        };
        if applied < parked.min_lsn {
            let required = parked.min_lsn;
            self.link.send(&Message::Stale { applied, required })?;
            return Ok(Step::Busy);
        }
        // The batch clones the database as it starts, so it reads every
        // record applied below the token: on a leader each acked LSN was
        // applied before its ack, on a follower the floor was applied
        // before the watermark passed it. The lag read now (one wall-clock
        // second is one unit of database time) is priced into every
        // answer: zero on a node that leads its log, and on a follower
        // within its contact window of a caught-up contact, when served
        // verdicts are bit-identical to local ones.
        let lag = ctx.node.watermark().lag().as_secs_f64();
        let verdicts = ctx.engine.run_batch_lagging(&parked.script, lag);
        let count = verdicts.len() as u32;
        for (index, verdict) in verdicts.into_iter().enumerate() {
            let verdict = verdict.map_err(|e| e.to_string());
            let index = index as u32;
            self.link.send(&Message::Statement { index, verdict })?;
        }
        self.link.send(&Message::BatchDone { count })?;
        Ok(Step::Busy)
    }

    /// Ends the session: the link is closed.
    pub(crate) fn close(mut self) {
        self.link.shutdown();
    }
}

#[cfg(test)]
mod tests {
    //! The session's rules on the cluster driver (`replication::sim`): a
    //! leader's front-end over in-memory links on the virtual clock, so
    //! every deadline is exact and nothing sleeps.

    use super::*;
    use crate::framed::encode_frame;
    use crate::framed::mem::{Fault, MemLink};
    use crate::ingest::IngestService;
    use crate::net::{BatchOutcome, Reply};
    use crate::replication::sim::Cluster;

    const SCRIPT: &str = "RETRIEVE POSITION OF OBJECT 1 AT TIME 3";

    /// A leader of 4 vehicles serving queries and updates at "q"; the
    /// ingest service lives as long as the front-end.
    fn front(name: &str) -> (Cluster, DurableDatabase, IngestService) {
        let mut c = Cluster::new(name, 1);
        let leader = c.leader(4);
        let service = leader.ingest_service(0, 0);
        c.serve_queries("q", leader.node(), Some(service.handle()));
        (c, leader, service)
    }

    /// The front-end still answers a fresh client — the wedge check.
    fn assert_healthy(c: &mut Cluster) {
        let client = c.connect("q");
        let BatchOutcome::Done(verdicts) = c.batch(client, SCRIPT, 0) else {
            panic!("a floor-free batch was refused");
        };
        assert!(verdicts[0].is_ok(), "{verdicts:?}");
    }

    /// Runs the cluster until the front-end holds no session; how long
    /// that took.
    fn until_released(c: &mut Cluster) -> Duration {
        let t0 = c.clock().now();
        c.run_until("the slot to be released", |c| c.front_sessions("q") == 0);
        c.clock().now() - t0
    }

    /// What `raw` reads, in order, up to the close.
    fn read_all(raw: &mut MemLink<Message>, c: &Cluster) -> Vec<Message> {
        let mut got = Vec::new();
        while let ReadEvent::Message(msg) = raw.poll(c.clock().now()).unwrap() {
            got.push(msg);
        }
        got
    }

    /// A connection that never says `Hello` is dropped at the request
    /// deadline, and its slot is free again.
    #[test]
    fn a_silent_connection_is_dropped_at_the_handshake_deadline() {
        let limit = REQUEST_DEADLINE;
        let (mut c, _leader, _service) = front("silent-hello");
        let mut raw = c.dial_queries("q", Fault::None);
        assert_eq!(c.front_sessions("q"), 1);
        let waited = until_released(&mut c);
        assert!(
            limit < waited && waited < limit + Duration::from_millis(10),
            "{waited:?}"
        );
        assert_eq!(read_all(&mut raw, &c), [], "nothing was sent");
        assert!(matches!(raw.poll(c.clock().now()), Ok(ReadEvent::Closed)));
        assert_healthy(&mut c);
    }

    /// Half a frame, then silence: the session ends at the request
    /// deadline, counted from when the partial request was seen, and the
    /// slot is released.
    #[test]
    fn stalled_client_is_disconnected_at_the_request_deadline() {
        let limit = REQUEST_DEADLINE;
        let (mut c, _leader, _service) = front("stall");
        let mut raw = c.dial_queries("q", Fault::None);
        let version = NET_PROTOCOL_VERSION;
        raw.send(&Message::Hello { version }).unwrap();
        let batch = Message::Batch {
            script: SCRIPT.into(),
            min_lsn: 0,
        };
        let frame = encode_frame(&batch).unwrap();
        raw.send_bytes(&frame[..frame.len() / 2]).unwrap();
        let waited = until_released(&mut c);
        assert!(
            limit < waited && waited < limit + Duration::from_millis(10),
            "{waited:?}"
        );
        assert_eq!(read_all(&mut raw, &c), [Message::HelloAck { version }]);
        assert!(matches!(raw.poll(c.clock().now()), Ok(ReadEvent::Closed)));
        assert_healthy(&mut c);
    }

    /// An idle connection with no partial frame may sit past the
    /// deadline: consoles wait at prompts.
    #[test]
    fn idle_connection_without_partial_frame_survives_the_deadline() {
        let limit = REQUEST_DEADLINE;
        let (mut c, _leader, _service) = front("idle");
        let client = c.connect("q");
        c.run_for(3 * limit);
        assert_eq!(c.front_sessions("q"), 1);
        let BatchOutcome::Done(verdicts) = c.batch(client, SCRIPT, 0) else {
            panic!("an idle console was refused");
        };
        assert!(verdicts[0].is_ok(), "{verdicts:?}");
    }

    /// A leader takes the floor gate a follower takes: a token past its
    /// log parks the batch for the stale deadline, then gets the typed
    /// `Stale`, and the session lives on. A token at the frontier — every
    /// token the leader acks is at most that — is answered at once.
    #[test]
    fn a_token_past_the_leaders_log_is_refused_stale_after_the_deadline() {
        let limit = STALE_DEADLINE;
        let (mut c, leader, _service) = front("leader-floor");
        let client = c.connect("q");
        let frontier = leader.wal().next_lsn();
        let asked = c.clock().now();
        let refused = c.batch(client, SCRIPT, frontier + 1);
        let waited = c.clock().now() - asked;
        let stale = BatchOutcome::Stale {
            applied: frontier,
            required: frontier + 1,
        };
        assert_eq!(refused, stale);
        assert!(
            limit <= waited && waited < limit + Duration::from_millis(10),
            "{waited:?}"
        );

        let asked = c.clock().now();
        assert!(matches!(
            c.batch(client, SCRIPT, frontier),
            BatchOutcome::Done(_)
        ));
        assert_eq!(c.clock().now(), asked, "answered without waiting");
        // A write acked on the session raises its token to the new
        // frontier, which reads at once.
        let update = modb_core::UpdateMessage::basic(2.0, UpdatePosition::Arc(15.0), 1.0);
        let verdicts = c.update(client, vec![(ObjectId(1), update)]);
        assert_eq!(verdicts, [RemoteUpdateVerdict::Accepted]);
        assert_eq!(c.token(client), leader.wal().next_lsn());
        let token = c.token(client);
        assert!(matches!(
            c.batch(client, SCRIPT, token),
            BatchOutcome::Done(_)
        ));
        assert_eq!(c.clock().now(), asked, "answered without waiting");
    }

    /// A client that sends its next request as soon as it reads a reply
    /// never leaves its session idle. Once the server stops, the request
    /// in hand is answered in full (the drain guarantee), and the session
    /// ends there: the next request finds the connection closed.
    #[test]
    fn a_back_to_back_client_ends_within_one_request_of_the_stop() {
        let (mut c, _leader, _service) = front("busy-stop");
        let client = c.connect("q");
        let script = [SCRIPT; 8].join("; ");
        let batch = || Message::Batch {
            script: script.clone(),
            min_lsn: 0,
        };
        for _ in 0..3 {
            assert!(matches!(c.call(client, batch()), Ok(Reply::Batch(_))));
        }
        c.request(client, batch()).unwrap();
        c.stop_queries("q");
        let Ok(Reply::Batch(BatchOutcome::Done(verdicts))) = c.reply(client) else {
            panic!("the request in hand was not answered");
        };
        assert_eq!(verdicts.len(), 8);
        assert_eq!(
            c.front_sessions("q"),
            0,
            "the session ended with the answer"
        );
        assert!(c.call(client, batch()).is_err(), "a request past the stop");
    }
}
