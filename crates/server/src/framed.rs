//! The transport: how a session of either wire protocol — the query
//! front-end ([`crate::net`]) or the replication stream
//! ([`crate::replication`]) — reaches its peer and the time. Every
//! session is a step function over a [`Link`], which moves its messages
//! in CRC frames, `[len: u32 LE] [crc32(payload): u32 LE] [payload]`,
//! under its protocol's frame ceiling, and a [`Clock`]. The CRC is
//! checked before a byte of the payload is interpreted, so a frame
//! corrupted in flight is rejected whole and the session ends: a stream
//! cannot be re-synchronized once framing is lost.
//!
//! In production a link is a TCP stream ([`TcpLink`], whose socket
//! options are set here and nowhere else), the clock is the wall clock
//! ([`WallClock`]), and a [`Listener`] gives each accepted connection a
//! thread that steps its session; no other session module names a
//! socket, reads the wall clock or sleeps. The tests swap in an
//! in-memory link and a virtual clock (`mem`), so a whole cluster and
//! its clients run in one thread.

use std::fmt::Debug;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modb_wal::{crc32, WalError};

/// How long a send may block on a peer that does not drain its socket
/// before the session gives up on it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The longest one [`TcpLink::poll`] waits, so a session looks at its
/// stop flag and deadlines again. A shorter one buys nothing: on a 2-vCPU
/// Linux host a 0.5–3 ms socket read timeout waited ≈ 8 ms.
const READ_TIMEOUT: Duration = Duration::from_millis(10);

/// How long a dial waits for each address of its peer: a vanished host
/// answers no SYN, and the kernel's retries (≈ 127 s) would hold up a
/// follower's `promote`, which joins its worker.
pub(crate) const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// A protocol's message set: a tag byte followed by the message body.
pub(crate) trait WireMessage: Sized + Debug {
    /// The protocol's ceiling on one payload, both ways: a sender refuses
    /// a larger message, and a reader takes a larger length for
    /// corruption. Both ends of a link read the one constant.
    const MAX_FRAME_BYTES: u32;
    /// Appends the payload form (no framing).
    fn encode_payload(&self, out: &mut Vec<u8>);
    /// Decodes a payload; the whole buffer must be consumed.
    fn decode_payload(payload: &[u8]) -> Result<Self, WalError>;
}

/// The framed form of `msg`, or [`WalError::FrameTooLarge`] when its
/// payload exceeds [`WireMessage::MAX_FRAME_BYTES`] — the ceiling the
/// peer's reader enforces.
pub(crate) fn encode_frame<M: WireMessage>(msg: &M) -> Result<Vec<u8>, WalError> {
    let mut frame = vec![0u8; 8];
    msg.encode_payload(&mut frame);
    let payload = &frame[8..];
    if payload.len() > M::MAX_FRAME_BYTES as usize {
        return Err(WalError::FrameTooLarge {
            len: payload.len() as u64,
            max: M::MAX_FRAME_BYTES,
        });
    }
    let (len, crc) = (payload.len() as u32, crc32(payload));
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// Splits the first frame off `buf` and decodes it: the message and the
/// frame's byte length, or `None` while the frame is incomplete.
pub(crate) fn decode_frame<M: WireMessage>(buf: &[u8]) -> Result<Option<(M, usize)>, WalError> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > M::MAX_FRAME_BYTES {
        return Err(WalError::Decode("implausible frame length"));
    }
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let total = 8 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[8..total];
    if crc32(payload) != crc {
        return Err(WalError::Decode("frame crc mismatch"));
    }
    Ok(Some((M::decode_payload(payload)?, total)))
}

/// What one [`Link::poll`] observed.
#[derive(Debug)]
pub(crate) enum ReadEvent<M> {
    /// A whole, CRC-valid message.
    Message(M),
    /// No complete frame yet.
    Idle,
    /// The peer closed the connection.
    Closed,
}

/// One connection, as a session sees it.
pub(crate) trait Link<M>: Debug {
    /// Frames and sends one message. A message over its protocol's frame
    /// ceiling is refused before a byte is written, not after the peer
    /// has read the whole frame.
    fn send(&mut self, msg: &M) -> Result<(), WalError>;

    /// The next whole message, waiting for one until `deadline` at most.
    /// A deadline that has passed reads only what already arrived, and
    /// the wait may end early with [`ReadEvent::Idle`]. A length or CRC
    /// violation is a hard [`WalError::Decode`].
    fn poll(&mut self, deadline: Instant) -> Result<ReadEvent<M>, WalError>;

    /// `true` while bytes of an unfinished frame wait on the link — a
    /// stalled-peer deadline keys off this.
    fn has_partial(&self) -> bool;

    /// Closes both directions; the peer reads [`ReadEvent::Closed`].
    fn shutdown(&mut self);
}

/// What one step of a session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// It read, answered or shipped something: step again at once.
    Busy,
    /// Nothing to read or ship.
    Idle,
    /// The session is over.
    Ended,
}

/// Where a session reads the time and waits.
pub(crate) trait Clock: Debug + Send + Sync {
    fn now(&self) -> Instant;
    /// Returns at `deadline` or later.
    fn sleep_until(&self, deadline: Instant);
}

/// The wall clock.
#[derive(Debug)]
pub(crate) struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep_until(&self, deadline: Instant) {
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    }
}

/// A connection over TCP: reads honor the socket's read timeout, so a
/// poll returns [`ReadEvent::Idle`] rather than blocking forever, and
/// the bytes of a partial frame are buffered across polls.
#[derive(Debug)]
pub(crate) struct TcpLink<M> {
    stream: TcpStream,
    buf: Vec<u8>,
    _message: PhantomData<fn() -> M>,
}

impl<M: WireMessage> TcpLink<M> {
    /// A connected stream. Every socket option of the crate is set here.
    fn new(stream: TcpStream) -> Result<Self, WalError> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(TcpLink {
            stream,
            buf: Vec::new(),
            _message: PhantomData,
        })
    }

    /// Connects to `addr`, trying each address it resolves to for at
    /// most [`DIAL_TIMEOUT`].
    pub(crate) fn dial(addr: impl ToSocketAddrs) -> Result<Self, WalError> {
        let mut last = std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address");
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, DIAL_TIMEOUT) {
                Ok(stream) => return TcpLink::new(stream),
                Err(e) => last = e,
            }
        }
        Err(WalError::Io(last))
    }

    /// The peer's address.
    pub(crate) fn peer_addr(&self) -> Result<SocketAddr, WalError> {
        Ok(self.stream.peer_addr()?)
    }

    fn try_decode(&mut self) -> Result<Option<M>, WalError> {
        let Some((msg, consumed)) = decode_frame(&self.buf)? else {
            return Ok(None);
        };
        self.buf.drain(..consumed);
        Ok(Some(msg))
    }
}

impl<M: WireMessage> Link<M> for TcpLink<M> {
    /// Blocks for the socket's write timeout at most.
    fn send(&mut self, msg: &M) -> Result<(), WalError> {
        self.stream.write_all(&encode_frame(msg)?)?;
        Ok(())
    }

    /// Reads once: for one read timeout at most, or — past the deadline
    /// — only bytes already received, the socket nonblocking for the one
    /// read (so no other thread may write meanwhile).
    fn poll(&mut self, deadline: Instant) -> Result<ReadEvent<M>, WalError> {
        if let Some(msg) = self.try_decode()? {
            return Ok(ReadEvent::Message(msg));
        }
        let nowait = deadline <= Instant::now();
        if nowait {
            self.stream.set_nonblocking(true)?;
        }
        let mut tmp = [0u8; 64 * 1024];
        let read = self.stream.read(&mut tmp);
        if nowait {
            self.stream.set_nonblocking(false)?;
        }
        match read {
            Ok(0) => Ok(ReadEvent::Closed),
            Ok(n) => {
                self.buf.extend_from_slice(&tmp[..n]);
                Ok(self
                    .try_decode()?
                    .map_or(ReadEvent::Idle, ReadEvent::Message))
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                Ok(ReadEvent::Idle)
            }
            Err(e) => Err(WalError::Io(e)),
        }
    }

    fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    fn shutdown(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A running listener: one thread accepts connections, each admitted one
/// gets a session thread. Dropping the handle (or [`Listener::shutdown`])
/// raises the stop flag, ends the accept loop and joins every session;
/// each session decides what to finish first.
#[derive(Debug)]
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` and starts accepting links.
    /// `admit` sees each accepted link with the number of live sessions:
    /// a refusal runs inline (it may send a goodbye; the link is closed)
    /// and takes neither a thread nor a slot, so the accept loop never
    /// waits on a slow client. `session` runs on the link's own thread.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub(crate) fn spawn<M: WireMessage + 'static>(
        addr: impl ToSocketAddrs,
        admit: impl Fn(&mut TcpLink<M>, usize) -> bool + Send + 'static,
        session: impl Fn(TcpLink<M>, &AtomicBool) + Send + Sync + 'static,
    ) -> Result<Self, WalError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let accept = {
            let (stop, active, session) =
                (Arc::clone(&stop), Arc::clone(&active), Arc::new(session));
            std::thread::spawn(move || {
                let mut sessions: Vec<JoinHandle<()>> = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let Ok(mut link) = TcpLink::new(stream) else {
                                continue;
                            };
                            if !admit(&mut link, active.load(Ordering::SeqCst)) {
                                link.shutdown();
                                continue;
                            }
                            active.fetch_add(1, Ordering::SeqCst);
                            let (session, active, stop) =
                                (Arc::clone(&session), Arc::clone(&active), Arc::clone(&stop));
                            sessions.push(std::thread::spawn(move || {
                                session(link, &stop);
                                active.fetch_sub(1, Ordering::SeqCst);
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                    sessions.retain(|h| !h.is_finished());
                }
                for h in sessions {
                    let _ = h.join();
                }
            })
        };
        Ok(Listener {
            addr,
            stop,
            active,
            accept: Some(accept),
        })
    }

    /// The bound listen address (useful with port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently holding a connection slot.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins every session.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod mem {
    //! The test half of the transport: an in-memory duplex [`MemLink`]
    //! that a test can cut, corrupt, duplicate, reorder or stall, and a
    //! [`VirtualClock`] that only moves when something waits on it.
    //! Messages cross in the real CRC frames, so a cut or a flipped byte
    //! meets the same decoder a socket's bytes do.

    use std::sync::Mutex;

    use super::*;

    /// A fault on the acceptor → dialer direction of one link (the other
    /// direction always passes clean), as a byte proxy applies it.
    #[derive(Debug, Clone, Default)]
    pub(crate) enum Fault {
        #[default]
        None,
        /// Deliver exactly `n` bytes, then sever the link: the receiver
        /// sees a frame truncated mid-byte, then the close.
        CutAfterBytes(usize),
        /// Flip one bit of byte `n` (0-based) and carry on.
        CorruptByteAt(usize),
        /// Deliver every message twice.
        DuplicateMessages,
        /// Deliver message `n` (0-based) after message `n + 1`.
        SwapMessages(usize),
        /// Deliver nothing while the flag is up; what was sent waits.
        Stall(Arc<AtomicBool>),
    }

    /// One direction: the bytes in flight and the fault they pass.
    #[derive(Debug, Default)]
    struct Pipe {
        bytes: Vec<u8>,
        fault: Fault,
        /// Bytes or messages this pipe has carried so far.
        sent_bytes: usize,
        sent_messages: usize,
        held: Option<Vec<u8>>,
    }

    impl Pipe {
        /// Takes one framed message; `false` once the fault severs the
        /// link.
        fn carry(&mut self, frame: Vec<u8>) -> bool {
            let (at, n) = (self.sent_bytes, self.sent_messages);
            self.sent_bytes += frame.len();
            self.sent_messages += 1;
            match &self.fault {
                Fault::None | Fault::Stall(_) => self.bytes.extend(frame),
                Fault::CutAfterBytes(limit) => {
                    let keep = limit.saturating_sub(at).min(frame.len());
                    self.bytes.extend(&frame[..keep]);
                    return at + frame.len() < *limit;
                }
                Fault::CorruptByteAt(target) => {
                    let mut frame = frame;
                    if let Some(byte) = target.checked_sub(at).and_then(|i| frame.get_mut(i)) {
                        *byte ^= 0x40;
                    }
                    self.bytes.extend(frame);
                }
                Fault::DuplicateMessages => {
                    self.bytes.extend(&frame);
                    self.bytes.extend(frame);
                }
                Fault::SwapMessages(swapped) if n == *swapped => self.held = Some(frame),
                Fault::SwapMessages(_) => {
                    self.bytes.extend(frame);
                    self.bytes.extend(self.held.take().unwrap_or_default());
                }
            }
            true
        }

        fn stalled(&self) -> bool {
            matches!(&self.fault, Fault::Stall(hold) if hold.load(Ordering::SeqCst))
        }
    }

    #[derive(Debug, Default)]
    struct Wire {
        /// Dialer → acceptor, then acceptor → dialer.
        pipes: [Pipe; 2],
        closed: bool,
    }

    /// One end of an in-memory duplex link. Dropping it closes the link.
    #[derive(Debug)]
    pub(crate) struct MemLink<M> {
        wire: Arc<Mutex<Wire>>,
        /// Which pipe this end sends on.
        side: usize,
        _message: PhantomData<fn() -> M>,
    }

    /// A connected pair, `(dialer, acceptor)`; `fault` acts on what the
    /// acceptor sends.
    pub(crate) fn pair<M>(fault: Fault) -> (MemLink<M>, MemLink<M>) {
        let wire = Arc::new(Mutex::new(Wire::default()));
        wire.lock().unwrap().pipes[1].fault = fault;
        let end = |side| MemLink {
            wire: Arc::clone(&wire),
            side,
            _message: PhantomData,
        };
        (end(0), end(1))
    }

    impl<M> MemLink<M> {
        /// Sends raw bytes, as one message for the fault: what a peer
        /// that does not speak the protocol writes.
        pub(crate) fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), WalError> {
            let mut wire = self.wire.lock().unwrap();
            if wire.closed {
                return Err(WalError::Io(std::io::ErrorKind::BrokenPipe.into()));
            }
            if !wire.pipes[self.side].carry(bytes.to_vec()) {
                wire.closed = true;
            }
            Ok(())
        }
    }

    impl<M: WireMessage> Link<M> for MemLink<M> {
        fn send(&mut self, msg: &M) -> Result<(), WalError> {
            self.send_bytes(&encode_frame(msg)?)
        }

        /// Nothing arrives while the one thread is here, so the deadline
        /// is not waited for.
        fn poll(&mut self, _deadline: Instant) -> Result<ReadEvent<M>, WalError> {
            let mut wire = self.wire.lock().unwrap();
            let closed = wire.closed;
            let pipe = &mut wire.pipes[1 - self.side];
            if pipe.stalled() {
                return Ok(ReadEvent::Idle);
            }
            match decode_frame(&pipe.bytes)? {
                Some((msg, len)) => {
                    pipe.bytes.drain(..len);
                    Ok(ReadEvent::Message(msg))
                }
                None if closed => Ok(ReadEvent::Closed),
                None => Ok(ReadEvent::Idle),
            }
        }

        fn has_partial(&self) -> bool {
            let wire = self.wire.lock().unwrap();
            let pipe = &wire.pipes[1 - self.side];
            !pipe.stalled() && !pipe.bytes.is_empty()
        }

        fn shutdown(&mut self) {
            self.wire.lock().unwrap().closed = true;
        }
    }

    impl<M> Drop for MemLink<M> {
        fn drop(&mut self) {
            self.wire.lock().unwrap().closed = true;
        }
    }

    /// A clock that stands still until something sleeps on it; a sleep
    /// moves it to the deadline at once.
    #[derive(Debug)]
    pub(crate) struct VirtualClock {
        origin: Instant,
        elapsed: Mutex<Duration>,
    }

    impl VirtualClock {
        pub(crate) fn new() -> Self {
            VirtualClock {
                origin: Instant::now(),
                elapsed: Mutex::new(Duration::ZERO),
            }
        }

        /// Time since the clock was made: what a trace records.
        pub(crate) fn elapsed(&self) -> Duration {
            *self.elapsed.lock().unwrap()
        }
    }

    impl Clock for VirtualClock {
        fn now(&self) -> Instant {
            self.origin + self.elapsed()
        }

        fn sleep_until(&self, deadline: Instant) {
            let mut elapsed = self.elapsed.lock().unwrap();
            *elapsed = (*elapsed).max(deadline.saturating_duration_since(self.origin));
        }
    }

    mod tests {
        use super::super::tests::Blob;
        use super::*;
        use crate::{net, replication};

        /// A 17-byte frame.
        fn beat(n: u8) -> Blob {
            Blob(vec![n; 9])
        }

        /// Every message `up` sent, as the dialer reads it, until idle or
        /// closed; `Err` once framing is lost.
        fn drain(down: &mut MemLink<Blob>) -> Result<(Vec<Blob>, bool), WalError> {
            let mut got = Vec::new();
            loop {
                match down.poll(Instant::now())? {
                    ReadEvent::Message(m) => got.push(m),
                    ReadEvent::Idle => return Ok((got, false)),
                    ReadEvent::Closed => return Ok((got, true)),
                }
            }
        }

        fn send_beats(fault: Fault, n: u8) -> (MemLink<Blob>, MemLink<Blob>) {
            let (down, mut up) = pair(fault);
            for i in 0..n {
                let _ = up.send(&beat(i));
            }
            (down, up)
        }

        #[test]
        fn each_fault_acts_on_the_acceptors_stream() {
            let (mut down, _up) = send_beats(Fault::None, 3);
            assert_eq!(
                drain(&mut down).unwrap(),
                ((0..3).map(beat).collect(), false)
            );
            let (mut down, _up) = send_beats(Fault::DuplicateMessages, 2);
            let twice = vec![beat(0), beat(0), beat(1), beat(1)];
            assert_eq!(drain(&mut down).unwrap(), (twice, false));
            let (mut down, _up) = send_beats(Fault::SwapMessages(1), 4);
            let swapped = vec![beat(0), beat(2), beat(1), beat(3)];
            assert_eq!(drain(&mut down).unwrap(), (swapped, false));
            // Cut inside the second frame.
            let (mut down, mut up) = send_beats(Fault::CutAfterBytes(20), 3);
            assert!(down.has_partial(), "the cut frame's head arrived");
            assert_eq!(drain(&mut down).unwrap(), (vec![beat(0)], true));
            assert!(up.send(&beat(9)).is_err(), "a severed link refuses sends");
            let (mut down, _up) = send_beats(Fault::CorruptByteAt(4), 1);
            assert!(matches!(drain(&mut down), Err(WalError::Decode(_))));
            let hold = Arc::new(AtomicBool::new(true));
            let (mut down, _up) = send_beats(Fault::Stall(Arc::clone(&hold)), 2);
            assert_eq!(drain(&mut down).unwrap(), (vec![], false));
            assert!(!down.has_partial(), "a stalled stream has not arrived");
            hold.store(false, Ordering::SeqCst);
            assert_eq!(
                drain(&mut down).unwrap(),
                ((0..2).map(beat).collect(), false)
            );
            // The dialer's own messages pass clean, and a drop closes.
            let (down, mut up) = pair(Fault::CorruptByteAt(0));
            let mut down = down;
            down.send(&beat(7)).unwrap();
            assert_eq!(drain(&mut up).unwrap(), (vec![beat(7)], false));
            drop(down);
            assert_eq!(drain(&mut up).unwrap(), (vec![], true));
        }

        fn payload_len<M: WireMessage>(msg: &M) -> usize {
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            payload.len()
        }

        /// A frame header announcing a `len`-byte payload.
        fn header(len: u32) -> Vec<u8> {
            [len.to_le_bytes(), [0; 4]].concat()
        }

        /// `M`'s ceiling holds on both ends of a link. `sized(n)` is a
        /// message whose payload grows one byte with each byte of `n`: at
        /// `M::MAX_FRAME_BYTES` it crosses whole; one byte more is refused
        /// by the sender before a byte is written, and a header announcing
        /// one byte more is refused by the reader, which waits for the
        /// body of a header at the ceiling.
        fn the_ceiling_holds<M: WireMessage + PartialEq>(sized: impl Fn(usize) -> M) {
            let max = M::MAX_FRAME_BYTES;
            let fill = |len: usize| sized(len - payload_len(&sized(0)));
            let (mut down, mut up) = pair::<M>(Fault::None);
            let at = fill(max as usize);
            assert_eq!(payload_len(&at), max as usize);
            up.send(&at).unwrap();
            let ReadEvent::Message(got) = down.poll(Instant::now()).unwrap() else {
                panic!("a message at the ceiling did not cross");
            };
            assert!(got == at, "a message at the ceiling changed on the way");
            drop((at, got));
            let sent = up.send(&fill(max as usize + 1));
            let refused = u64::from(max) + 1;
            assert!(
                matches!(sent, Err(WalError::FrameTooLarge { len, max: m }) if len == refused && m == max),
                "{sent:?}"
            );
            assert!(!down.has_partial(), "bytes of the refused frame arrived");
            up.send_bytes(&header(max)).unwrap();
            assert!(matches!(down.poll(Instant::now()), Ok(ReadEvent::Idle)));
            assert!(
                down.has_partial(),
                "the body of a frame at the ceiling is due"
            );
            let (mut down, mut up) = pair::<M>(Fault::None);
            up.send_bytes(&header(max + 1)).unwrap();
            assert!(matches!(
                down.poll(Instant::now()),
                Err(WalError::Decode(_))
            ));
        }

        /// One ceiling per protocol, which a client and a server read
        /// alike: the front-end's 4 MiB and replication's 64 MiB.
        #[test]
        fn each_protocol_holds_its_ceiling_on_both_ends() {
            assert_eq!(net::Message::MAX_FRAME_BYTES, 4 << 20);
            the_ceiling_holds(|n| net::Message::Batch {
                script: "x".repeat(n),
                min_lsn: 0,
            });
            assert_eq!(replication::Message::MAX_FRAME_BYTES, 64 << 20);
            the_ceiling_holds(|n| {
                replication::Message::SnapshotBlocks(modb_wal::SnapshotRun {
                    lsn: 1,
                    offset: 0,
                    frames: vec![7; n],
                })
            });
        }

        #[test]
        fn the_virtual_clock_moves_only_when_slept_on() {
            let clock = VirtualClock::new();
            let t0 = clock.now();
            assert_eq!(clock.now(), t0);
            clock.sleep_until(t0 + Duration::from_secs(3));
            assert_eq!(clock.elapsed(), Duration::from_secs(3));
            clock.sleep_until(t0);
            assert_eq!(clock.now(), t0 + Duration::from_secs(3), "never backwards");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-variant protocol: the payload is the bytes themselves.
    #[derive(Debug, PartialEq)]
    pub(super) struct Blob(pub(super) Vec<u8>);

    impl WireMessage for Blob {
        const MAX_FRAME_BYTES: u32 = 64;

        fn encode_payload(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn decode_payload(payload: &[u8]) -> Result<Self, WalError> {
            Ok(Blob(payload.to_vec()))
        }
    }

    /// A connected pair: a raw stream, and a link reading it.
    fn pair() -> (TcpStream, TcpLink<Blob>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, TcpLink::new(server).unwrap())
    }

    /// Polls with a future deadline: waits one read timeout at most.
    fn poll(link: &mut TcpLink<Blob>) -> Result<ReadEvent<Blob>, WalError> {
        link.poll(Instant::now() + READ_TIMEOUT)
    }

    fn next(link: &mut TcpLink<Blob>) -> Result<Option<Blob>, WalError> {
        loop {
            match poll(link)? {
                ReadEvent::Message(m) => return Ok(Some(m)),
                ReadEvent::Idle => continue,
                ReadEvent::Closed => return Ok(None),
            }
        }
    }

    /// The sender-side ceiling: a message the peer's reader would refuse
    /// is a typed error here, and not one byte of it reaches the wire.
    #[test]
    fn oversized_send_is_refused_before_a_byte_is_written() {
        let (tx, mut reader) = pair();
        let mut tx = TcpLink::<Blob>::new(tx).unwrap();
        let err = tx.send(&Blob(vec![7; 65])).unwrap_err();
        assert!(
            matches!(err, WalError::FrameTooLarge { len: 65, max: 64 }),
            "{err}"
        );
        assert!(matches!(poll(&mut reader).unwrap(), ReadEvent::Idle));
        assert!(!reader.has_partial(), "bytes of the refused frame arrived");
        // The connection is still good: a message at the ceiling passes.
        tx.send(&Blob(vec![7; 64])).unwrap();
        assert_eq!(next(&mut reader).unwrap(), Some(Blob(vec![7; 64])));
        drop(tx);
        assert_eq!(next(&mut reader).unwrap(), None);
    }

    #[test]
    fn oversized_and_corrupt_frames_are_hard_errors() {
        // A length above the reader's ceiling: rejected from the header
        // alone, before the body is buffered.
        let (mut tx, mut reader) = pair();
        tx.write_all(&65u32.to_le_bytes()).unwrap();
        tx.write_all(&0u32.to_le_bytes()).unwrap();
        assert!(matches!(next(&mut reader), Err(WalError::Decode(_))));
        // A flipped CRC bit.
        let (mut tx, mut reader) = pair();
        let mut bad = encode_frame(&Blob(vec![1, 2, 3])).unwrap();
        bad[4] ^= 1;
        tx.write_all(&bad).unwrap();
        assert!(matches!(next(&mut reader), Err(WalError::Decode(_))));
    }

    /// A partial frame is buffered across polls; a poll past its
    /// deadline reads what has arrived without waiting.
    #[test]
    fn partial_frames_accumulate_across_polls() {
        let (mut tx, mut reader) = pair();
        let frame = encode_frame(&Blob(vec![9; 60])).unwrap();
        tx.write_all(&frame[..30]).unwrap();
        assert!(matches!(poll(&mut reader).unwrap(), ReadEvent::Idle));
        assert!(reader.has_partial());
        let past = Instant::now();
        assert!(matches!(reader.poll(past).unwrap(), ReadEvent::Idle));
        tx.write_all(&frame[30..]).unwrap();
        assert_eq!(next(&mut reader).unwrap(), Some(Blob(vec![9; 60])));
        assert!(!reader.has_partial());
    }

    /// The listener end to end over [`TcpLink`]s: the admission hook sees
    /// the live count and can turn a client away inline, admitted clients
    /// are served on their own threads, and shutdown joins them.
    #[test]
    fn listener_admits_serves_and_drains() {
        let mut listener = Listener::spawn(
            "127.0.0.1:0",
            |_link: &mut TcpLink<Blob>, active| active < 1,
            |mut link, stop| {
                while !stop.load(Ordering::SeqCst) {
                    match link.poll(Instant::now() + READ_TIMEOUT) {
                        Ok(ReadEvent::Message(m)) => link.send(&m).unwrap(),
                        Ok(ReadEvent::Idle) => continue,
                        Ok(ReadEvent::Closed) | Err(_) => return,
                    }
                }
            },
        )
        .unwrap();
        let next = |link: &mut TcpLink<Blob>| loop {
            match link.poll(Instant::now() + READ_TIMEOUT) {
                Ok(ReadEvent::Message(m)) => return Some(m),
                Ok(ReadEvent::Idle) => continue,
                Ok(ReadEvent::Closed) | Err(_) => return None,
            }
        };
        let dial = || TcpLink::<Blob>::dial(listener.local_addr()).unwrap();
        let mut link = dial();
        link.send(&Blob(vec![1])).unwrap();
        assert_eq!(next(&mut link), Some(Blob(vec![1])));
        assert_eq!(listener.active(), 1);
        // The one slot is taken: the next client is dropped at the door.
        let mut refused = dial();
        assert_eq!(next(&mut refused), None);
        assert_eq!(listener.active(), 1);
        // Shutdown joins the live session, which closes its socket.
        listener.shutdown();
        assert_eq!(listener.active(), 0);
        assert_eq!(next(&mut link), None);
    }
}
