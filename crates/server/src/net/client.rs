//! Client side of the query front-end: a small blocking library (and the
//! REPL's `\connect` backend) that speaks the protocol in
//! [`crate::net::protocol`]. Its request/reply logic runs over any `Link`
//! (`crate::framed`): [`QueryClient::connect`] dials TCP and waits on the
//! wall clock, and the cluster driver's tests put clients on in-memory
//! links and step them on a virtual clock.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use modb_core::{ObjectId, UpdateMessage};
use modb_wal::WalError;

use crate::framed::{Clock, Link, ReadEvent, TcpLink, WallClock};
use crate::net::protocol::{
    Message, RemoteUpdateVerdict, RemoteVerdict, ServerStatsSnapshot, NET_PROTOCOL_VERSION,
};

/// How long the client waits for the complete response to one request
/// (handshake, batch, or scrape).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

fn io_error(kind: std::io::ErrorKind, why: String) -> WalError {
    WalError::Io(std::io::Error::new(kind, why))
}

/// How a server answered one `Batch` request: the verdict vector, or a
/// typed staleness refusal (the node's frontier — a follower's applied
/// watermark, a leader's log — had not reached the batch's
/// read-your-writes floor within the server's wait deadline). `Stale`
/// leaves the session usable: retry here later, or send the batch to
/// another endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    /// The batch ran; one verdict per statement in script order.
    Done(Vec<RemoteVerdict>),
    /// The node could not satisfy the floor within its wait deadline.
    Stale {
        /// The node's frontier at the moment of refusal.
        applied: u64,
        /// The read-your-writes floor it could not reach (echoes the
        /// request's `min_lsn`).
        required: u64,
    },
}

/// The request in flight, and what of its answer has arrived.
#[derive(Debug)]
enum Pending {
    Hello,
    Batch(Vec<RemoteVerdict>),
    /// An update frame of this many envelopes.
    Update(usize),
    Stats,
}

/// A whole, checked answer to one request.
#[derive(Debug)]
pub(crate) enum Reply {
    HelloAck,
    Batch(BatchOutcome),
    Update(Vec<RemoteUpdateVerdict>),
    Stats(Box<ServerStatsSnapshot>),
}

/// A blocking connection to a [`crate::net::QueryServer`]. One request
/// runs at a time: [`QueryClient::batch`] sends a `;`-script and
/// collects the per-statement verdicts, [`QueryClient::update`] /
/// [`QueryClient::update_batch`] push position updates through the
/// server's ingest path, and [`QueryClient::stats`] scrapes the
/// server's counters. Each answer is checked as it arrives: statement
/// indices in order, the count, the ack's verdict count.
///
/// **Read your writes.** Every update ack carries the server's WAL
/// frontier; the client keeps the highest as its token
/// ([`QueryClient::token`]) and stamps it on every batch, so a query
/// issued after an acknowledged update on this connection never misses
/// that update, regardless of the server's epoch cadence.
#[derive(Debug)]
pub struct QueryClient {
    link: Box<dyn Link<Message> + Send>,
    addr: SocketAddr,
    pending: Option<Pending>,
    token: u64,
}

impl QueryClient {
    /// Connects and handshakes. Frames are capped at the protocol's
    /// [`MAX_FRAME_BYTES`](crate::MAX_FRAME_BYTES) both ways, as the server's are: a larger reply
    /// ends the connection, a larger request is refused before it is
    /// written.
    ///
    /// # Errors
    ///
    /// Connection failures, a `Refused` server (capacity or version),
    /// or a handshake timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WalError> {
        let link = TcpLink::dial(addr)?;
        let addr = link.peer_addr()?;
        let mut client = QueryClient::open(Box::new(link), addr)?;
        client.reply()?;
        Ok(client)
    }

    /// A client on a fresh `link` to `addr`, its `Hello` in flight.
    pub(crate) fn open(
        link: Box<dyn Link<Message> + Send>,
        addr: SocketAddr,
    ) -> Result<Self, WalError> {
        let mut client = QueryClient {
            link,
            addr,
            pending: None,
            token: 0,
        };
        let version = NET_PROTOCOL_VERSION;
        client.request(Message::Hello { version })?;
        Ok(client)
    }

    /// The server address this client is connected to.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs a `;`-separated script as one server-side batch, returning
    /// one verdict per statement in script order — the same vector a
    /// local [`crate::QueryEngine::run_batch`] would produce, with
    /// errors rendered to their display strings.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations (out-of-order statement
    /// indices, a count mismatch), or a response timeout.
    pub fn batch(&mut self, script: &str) -> Result<Vec<RemoteVerdict>, WalError> {
        self.batch_with_token(script, self.token)
    }

    /// [`QueryClient::batch`] with an explicit read-your-writes floor,
    /// WAL frontier `min_lsn` (0 = no floor). A node waits for its
    /// frontier to reach the floor, or answers `Stale`; a leader's
    /// frontier covers every token it acked, so those never wait there.
    /// Use a token from another connection's update ack to read *its*
    /// writes from a follower; plain [`QueryClient::batch`] already
    /// covers this connection's own.
    ///
    /// # Errors
    ///
    /// As [`QueryClient::batch`].
    pub fn batch_with_token(
        &mut self,
        script: &str,
        min_lsn: u64,
    ) -> Result<Vec<RemoteVerdict>, WalError> {
        match self.batch_attempt(script, min_lsn)? {
            BatchOutcome::Done(verdicts) => Ok(verdicts),
            BatchOutcome::Stale { applied, required } => Err(io_error(
                std::io::ErrorKind::WouldBlock,
                format!("stale: applied {applied} < required {required}"),
            )),
        }
    }

    /// [`QueryClient::batch_with_token`] surfacing a follower's typed
    /// `Stale` refusal instead of folding it into the error side — the
    /// building block for retry-elsewhere routing. The session survives
    /// a `Stale`; the same client can immediately try a lower floor or a
    /// later retry.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, or a response timeout.
    pub fn batch_attempt(&mut self, script: &str, min_lsn: u64) -> Result<BatchOutcome, WalError> {
        let script = script.to_string();
        let Reply::Batch(outcome) = self.call(Message::Batch { script, min_lsn })? else {
            unreachable!("a batch is answered by a batch reply")
        };
        Ok(outcome)
    }

    /// Sends one position update to the server's ingest path and waits
    /// for the ack. The verdict distinguishes applied, rejected by the
    /// DBMS (still logged), and refused by the server (non-finite fields
    /// — never logged — or a log that could not make the update
    /// durable); transport-level failures are the `Err` side. On ack the
    /// client's read-your-writes token advances, so a following
    /// [`QueryClient::batch`] sees the write.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, or a response timeout.
    pub fn update(
        &mut self,
        id: ObjectId,
        msg: &UpdateMessage,
    ) -> Result<RemoteUpdateVerdict, WalError> {
        let mut verdicts = self.updates(Message::Update { id, msg: *msg })?;
        Ok(verdicts.remove(0))
    }

    /// Sends several updates in one frame (one ack, one token advance).
    /// Verdicts come back in input order.
    ///
    /// # Errors
    ///
    /// As [`QueryClient::update`].
    pub fn update_batch(
        &mut self,
        updates: &[(ObjectId, UpdateMessage)],
    ) -> Result<Vec<RemoteUpdateVerdict>, WalError> {
        let updates = updates.to_vec();
        self.updates(Message::UpdateBatch { updates })
    }

    /// The highest acknowledged WAL frontier seen on this connection —
    /// the read-your-writes floor [`QueryClient::batch`] stamps on every
    /// script. Hand it to [`QueryClient::batch_with_token`] on another
    /// connection to make *that* reader see this writer's updates.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Raises the read-your-writes floor to `lsn` (never lowers it).
    /// Use a token minted by a writer connection — e.g. the REPL's
    /// `\session <lsn>` — to make this reader observe that writer's
    /// acknowledged updates even across processes.
    pub fn set_token(&mut self, lsn: u64) {
        self.token = self.token.max(lsn);
    }

    /// Scrapes the server's combined stats frame.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, or a response timeout.
    pub fn stats(&mut self) -> Result<ServerStatsSnapshot, WalError> {
        let Reply::Stats(stats) = self.call(Message::StatsRequest)? else {
            unreachable!("a scrape is answered by a stats reply")
        };
        Ok(*stats)
    }

    /// Closes the connection (also happens on drop).
    pub fn close(mut self) {
        self.hang_up();
    }

    pub(crate) fn hang_up(&mut self) {
        self.link.shutdown();
    }

    /// Sends a request; [`QueryClient::poll`] gives its answer.
    pub(crate) fn request(&mut self, msg: Message) -> Result<(), WalError> {
        let pending = match &msg {
            Message::Hello { .. } => Pending::Hello,
            Message::Batch { .. } => Pending::Batch(Vec::new()),
            Message::Update { .. } => Pending::Update(1),
            Message::UpdateBatch { updates } => Pending::Update(updates.len()),
            Message::StatsRequest => Pending::Stats,
            _ => return Err(WalError::Decode("not a client request")),
        };
        self.link.send(&msg)?;
        self.pending = Some(pending);
        Ok(())
    }

    /// The answer to the request in flight once it is whole; `None`
    /// while it is not. Reads what has arrived, waiting for a message
    /// until `deadline` at most.
    pub(crate) fn poll(&mut self, deadline: Instant) -> Result<Option<Reply>, WalError> {
        loop {
            let msg = match self.link.poll(deadline)? {
                ReadEvent::Message(msg) => msg,
                ReadEvent::Idle => return Ok(None),
                ReadEvent::Closed => {
                    let why = format!("server closed the connection during {}", self.waiting_for());
                    return Err(io_error(std::io::ErrorKind::UnexpectedEof, why));
                }
            };
            let reply = match (self.pending.take(), msg) {
                (Some(Pending::Hello), Message::HelloAck { .. }) => Reply::HelloAck,
                (Some(Pending::Hello), Message::Refused { reason }) => {
                    return Err(io_error(std::io::ErrorKind::ConnectionRefused, reason))
                }
                (Some(Pending::Batch(mut verdicts)), Message::Statement { index, verdict }) => {
                    if index as usize != verdicts.len() {
                        return Err(WalError::Decode("statement results out of order"));
                    }
                    verdicts.push(verdict);
                    self.pending = Some(Pending::Batch(verdicts));
                    continue;
                }
                (Some(Pending::Batch(verdicts)), Message::BatchDone { count }) => {
                    if count as usize != verdicts.len() {
                        return Err(WalError::Decode("batch result count mismatch"));
                    }
                    Reply::Batch(BatchOutcome::Done(verdicts))
                }
                (Some(Pending::Batch(verdicts)), Message::Stale { applied, required })
                    if verdicts.is_empty() =>
                {
                    Reply::Batch(BatchOutcome::Stale { applied, required })
                }
                (Some(Pending::Update(expected)), Message::UpdateAck { lsn, verdicts }) => {
                    if verdicts.len() != expected {
                        return Err(WalError::Decode("update ack verdict count mismatch"));
                    }
                    self.token = self.token.max(lsn);
                    Reply::Update(verdicts)
                }
                (Some(Pending::Stats), Message::StatsReply(stats)) => Reply::Stats(stats),
                _ => return Err(WalError::Decode("unexpected message in a reply")),
            };
            return Ok(Some(reply));
        }
    }

    /// What the request in flight waits for, for an error message.
    fn waiting_for(&self) -> &'static str {
        match self.pending {
            Some(Pending::Hello) => "handshake",
            Some(Pending::Batch(_)) => "batch results",
            Some(Pending::Update(_)) => "update ack",
            _ => "stats reply",
        }
    }

    /// Sends an update frame and waits for its ack.
    fn updates(&mut self, request: Message) -> Result<Vec<RemoteUpdateVerdict>, WalError> {
        let Reply::Update(verdicts) = self.call(request)? else {
            unreachable!("an update frame is answered by an ack")
        };
        Ok(verdicts)
    }

    fn call(&mut self, request: Message) -> Result<Reply, WalError> {
        self.request(request)?;
        self.reply()
    }

    /// The answer to the request in flight, waited for
    /// [`RESPONSE_TIMEOUT`] at most.
    fn reply(&mut self) -> Result<Reply, WalError> {
        let deadline = WallClock.now() + RESPONSE_TIMEOUT;
        loop {
            if let Some(reply) = self.poll(deadline)? {
                return Ok(reply);
            }
            if WallClock.now() > deadline {
                let why = format!("timed out waiting for {}", self.waiting_for());
                return Err(io_error(std::io::ErrorKind::TimedOut, why));
            }
        }
    }
}
