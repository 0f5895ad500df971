//! Client side of the query front-end: a small blocking library (and the
//! REPL's `\connect` backend) that speaks the protocol in
//! [`crate::net::protocol`].

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use modb_core::{ObjectId, UpdateMessage};
use modb_wal::WalError;

use crate::framed::{send, FrameReader, ReadEvent, READ_TIMEOUT};
use crate::net::protocol::{
    Message, RemoteUpdateVerdict, RemoteVerdict, ServerStatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
    NET_PROTOCOL_VERSION,
};

/// How long the client waits for the complete response to one request
/// (handshake, batch, or scrape), and the bound on writing one.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

fn timeout_error(what: &str) -> WalError {
    WalError::Io(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        format!("timed out waiting for {what}"),
    ))
}

/// How a server answered one `Batch` request: the verdict vector, or a
/// typed staleness refusal (the node's frontier — a follower's applied
/// watermark, a leader's log — had not reached the batch's
/// read-your-writes floor within the server's wait deadline). `Stale` leaves the session usable: retry here later, or
/// send the batch to another endpoint.
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

/// A blocking connection to a [`crate::net::QueryServer`]. One request
/// runs at a time: [`QueryClient::batch`] sends a `;`-script and
/// collects the per-statement verdicts, [`QueryClient::update`] /
/// [`QueryClient::update_batch`] push position updates through the
/// server's ingest path, and [`QueryClient::stats`] scrapes the
/// server's counters.
///
/// **Read your writes.** Every update ack carries the server's WAL
/// frontier; the client keeps the highest as its token
/// ([`QueryClient::token`]) and stamps it on every batch, so a query
/// issued after an acknowledged update on this connection never misses
/// that update, regardless of the server's epoch cadence.
#[derive(Debug)]
pub struct QueryClient {
    stream: TcpStream,
    reader: FrameReader<Message>,
    addr: SocketAddr,
    token: u64,
}

impl QueryClient {
    /// Connects and handshakes. Frames are capped at
    /// [`DEFAULT_MAX_FRAME_BYTES`] both ways: a larger reply ends the
    /// connection, a larger request is refused before it is written.
    ///
    /// # Errors
    ///
    /// Connection failures, a `Refused` server (capacity or version),
    /// or a handshake timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WalError> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = FrameReader::new(stream.try_clone()?, DEFAULT_MAX_FRAME_BYTES);
        let mut client = QueryClient {
            stream,
            reader,
            addr: peer,
            token: 0,
        };
        client.request(&Message::Hello {
            version: NET_PROTOCOL_VERSION,
        })?;
        match client.next_message("handshake")? {
            Message::HelloAck { .. } => Ok(client),
            Message::Refused { reason } => Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                reason,
            ))),
            _ => Err(WalError::Decode("unexpected handshake reply")),
        }
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
        let token = self.token;
        self.batch_with_token(script, token)
    }

    /// [`QueryClient::batch`] with an explicit read-your-writes floor,
    /// WAL frontier `min_lsn` (0 = no floor). A node waits for its
    /// frontier to reach the floor, or answers `Stale`; a leader's
    /// frontier covers every token it acked, so those never wait there. Use a token from
    /// another connection's update ack to read *its* writes from a
    /// follower; plain [`QueryClient::batch`] already covers this
    /// connection's own.
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
            BatchOutcome::Stale { applied, required } => Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                format!("stale: applied {applied} < required {required}"),
            ))),
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
        self.request(&Message::Batch {
            script: script.to_string(),
            min_lsn,
        })?;
        let mut verdicts: Vec<RemoteVerdict> = Vec::new();
        loop {
            match self.next_message("batch results")? {
                Message::Statement { index, verdict } => {
                    if index as usize != verdicts.len() {
                        return Err(WalError::Decode("statement results out of order"));
                    }
                    verdicts.push(verdict);
                }
                Message::BatchDone { count } => {
                    if count as usize != verdicts.len() {
                        return Err(WalError::Decode("batch result count mismatch"));
                    }
                    return Ok(BatchOutcome::Done(verdicts));
                }
                Message::Stale { applied, required } if verdicts.is_empty() => {
                    return Ok(BatchOutcome::Stale { applied, required });
                }
                _ => return Err(WalError::Decode("unexpected message in batch reply")),
            }
        }
    }

    /// Sends one position update to the server's ingest path and waits
    /// for the ack. The verdict distinguishes applied, rejected by the
    /// DBMS (still logged), and refused by the server (non-finite fields
    /// — never logged — or a log that could not make the update
    /// durable); transport-level failures are the `Err` side. On ack the client's read-your-writes token
    /// advances, so a following [`QueryClient::batch`] sees the write.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, or a response timeout.
    pub fn update(
        &mut self,
        id: ObjectId,
        msg: &UpdateMessage,
    ) -> Result<RemoteUpdateVerdict, WalError> {
        self.request(&Message::Update { id, msg: *msg })?;
        let (lsn, mut verdicts) = self.recv_update_ack(1)?;
        self.token = self.token.max(lsn);
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
        self.request(&Message::UpdateBatch {
            updates: updates.to_vec(),
        })?;
        let (lsn, verdicts) = self.recv_update_ack(updates.len())?;
        self.token = self.token.max(lsn);
        Ok(verdicts)
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

    fn recv_update_ack(
        &mut self,
        expected: usize,
    ) -> Result<(u64, Vec<RemoteUpdateVerdict>), WalError> {
        match self.next_message("update ack")? {
            Message::UpdateAck { lsn, verdicts } => {
                if verdicts.len() != expected {
                    return Err(WalError::Decode("update ack verdict count mismatch"));
                }
                Ok((lsn, verdicts))
            }
            _ => Err(WalError::Decode("unexpected message in update ack")),
        }
    }

    /// Scrapes the server's combined stats frame.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, or a response timeout.
    pub fn stats(&mut self) -> Result<ServerStatsSnapshot, WalError> {
        self.request(&Message::StatsRequest)?;
        match self.next_message("stats reply")? {
            Message::StatsReply(stats) => Ok(*stats),
            _ => Err(WalError::Decode("unexpected message in stats reply")),
        }
    }

    /// Closes the connection (also happens on drop).
    pub fn close(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Sends one message to the server under the frame ceiling.
    fn request(&mut self, msg: &Message) -> Result<(), WalError> {
        send(&mut self.stream, msg, DEFAULT_MAX_FRAME_BYTES)
    }

    fn next_message(&mut self, what: &str) -> Result<Message, WalError> {
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        loop {
            match self.reader.poll()? {
                ReadEvent::Message(msg) => return Ok(msg),
                ReadEvent::Idle => {
                    if Instant::now() > deadline {
                        return Err(timeout_error(what));
                    }
                }
                ReadEvent::Closed => {
                    return Err(WalError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("server closed the connection during {what}"),
                    )))
                }
            }
        }
    }
}
