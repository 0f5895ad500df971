//! The framed-session kernel: CRC-framed messages over TCP and the
//! listener that serves them.
//!
//! Both wire protocols of this crate — the query front-end
//! ([`crate::net`]) and the replication stream ([`crate::replication`])
//! — move messages in CRC frames with a fixed-width length:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The log frames its blocks the same way except for the length, which
//! there is a varint ([`modb_wal::split_frame`]); a message frame keeps
//! the fixed eight-byte header.
//!
//! The CRC is checked before a byte of the payload is interpreted, so a
//! frame corrupted in flight is rejected whole and the connection ends —
//! a stream cannot be re-synchronized once framing is lost.
//!
//! The kernel owns the framing, the per-frame size ceiling (enforced by
//! the sender *before* it writes and by the reader before it buffers),
//! the read-timeout-driven [`ReadEvent::Idle`] tick that deadlines key
//! off, and the accept / drain machinery of a listener. A protocol owns
//! its messages (a [`WireMessage`] impl), its admission rule, and what a
//! session does.

use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use modb_wal::{crc32, WalError};

/// How long a send may block on a peer that does not drain its socket
/// before the session gives up on it (both protocols' write timeout).
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a session's blocking read waits before it looks at its stop
/// flag, deadlines and forced reconnects again (the query client and
/// server, and a replica's session). A shorter one buys nothing: on a
/// 2-vCPU Linux host a 0.5–3 ms socket read timeout waited ≈ 8 ms
/// whatever it was set to (measured on a socketpair).
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(10);

/// A protocol's message set: a tag byte followed by the message body.
pub(crate) trait WireMessage: Sized {
    /// Appends the payload form (no framing).
    fn encode_payload(&self, out: &mut Vec<u8>);
    /// Decodes a payload; the whole buffer must be consumed.
    fn decode_payload(payload: &[u8]) -> Result<Self, WalError>;
}

/// The framed form of `msg`, or [`WalError::FrameTooLarge`] when its
/// payload exceeds `max_frame_bytes` — the ceiling the peer's
/// [`FrameReader`] enforces.
pub(crate) fn encode_frame<M: WireMessage>(
    msg: &M,
    max_frame_bytes: u32,
) -> Result<Vec<u8>, WalError> {
    let mut frame = vec![0u8; 8];
    msg.encode_payload(&mut frame);
    let payload = &frame[8..];
    if payload.len() > max_frame_bytes as usize {
        return Err(WalError::FrameTooLarge {
            len: payload.len() as u64,
            max: max_frame_bytes,
        });
    }
    let (len, crc) = (payload.len() as u32, crc32(payload));
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// Frames and sends one message (blocking, honoring the stream's write
/// timeout). An oversized message is refused before a byte is written:
/// the peer would reject it as an implausible length after the whole
/// frame had crossed the wire, and a retry would send it again.
pub(crate) fn send<M: WireMessage>(
    stream: &mut TcpStream,
    msg: &M,
    max_frame_bytes: u32,
) -> Result<(), WalError> {
    stream.write_all(&encode_frame(msg, max_frame_bytes)?)?;
    Ok(())
}

/// Splits the first frame off `buf` and decodes it: the message and the
/// frame's byte length, or `None` while the frame is incomplete.
pub(crate) fn decode_frame<M: WireMessage>(
    buf: &[u8],
    max_frame_bytes: u32,
) -> Result<Option<(M, usize)>, WalError> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > max_frame_bytes {
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

/// What one [`FrameReader::poll`] observed.
#[derive(Debug)]
pub(crate) enum ReadEvent<M> {
    /// A whole, CRC-valid message.
    Message(M),
    /// No complete frame yet (read timed out or a frame is partially
    /// buffered).
    Idle,
    /// The peer closed the connection.
    Closed,
}

/// Accumulating frame decoder over a socket, bounded by `max_frame_bytes`
/// per message. Reads honor the stream's read timeout, so a poll returns
/// [`ReadEvent::Idle`] rather than blocking forever; bytes of a partial
/// frame are buffered across polls. A length or CRC violation is a hard
/// [`WalError::Decode`].
#[derive(Debug)]
pub(crate) struct FrameReader<M> {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame_bytes: u32,
    _message: PhantomData<fn() -> M>,
}

impl<M: WireMessage> FrameReader<M> {
    pub(crate) fn new(stream: TcpStream, max_frame_bytes: u32) -> Self {
        FrameReader {
            stream,
            buf: Vec::new(),
            max_frame_bytes,
            _message: PhantomData,
        }
    }

    /// `true` while bytes of an unfinished frame sit in the buffer — a
    /// stalled-peer deadline keys off this.
    pub(crate) fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads once and decodes if a whole frame is available.
    pub(crate) fn poll(&mut self) -> Result<ReadEvent<M>, WalError> {
        if let Some(msg) = self.try_decode()? {
            return Ok(ReadEvent::Message(msg));
        }
        let mut tmp = [0u8; 64 * 1024];
        match self.stream.read(&mut tmp) {
            Ok(0) => Ok(ReadEvent::Closed),
            Ok(n) => {
                self.buf.extend_from_slice(&tmp[..n]);
                match self.try_decode()? {
                    Some(msg) => Ok(ReadEvent::Message(msg)),
                    None => Ok(ReadEvent::Idle),
                }
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

    /// [`FrameReader::poll`] without waiting: reads only bytes already
    /// received. The stream is nonblocking for the one read, which every
    /// clone of it shares, so the caller must not write from another
    /// thread meanwhile.
    pub(crate) fn poll_nowait(&mut self) -> Result<ReadEvent<M>, WalError> {
        self.stream.set_nonblocking(true)?;
        let event = self.poll();
        self.stream.set_nonblocking(false)?;
        event
    }

    fn try_decode(&mut self) -> Result<Option<M>, WalError> {
        let Some((msg, consumed)) = decode_frame(&self.buf, self.max_frame_bytes)? else {
            return Ok(None);
        };
        self.buf.drain(..consumed);
        Ok(Some(msg))
    }
}

/// A running listener: one thread accepts connections, each admitted
/// connection gets a session thread. Dropping the handle (or
/// [`Listener::shutdown`]) raises the stop flag, ends the accept loop and
/// joins every session — sessions watch the flag and decide for
/// themselves what to finish first (the drain guarantee is theirs).
#[derive(Debug)]
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` and starts accepting. `admit` is the admission hook:
    /// it sees each accepted socket with the number of live sessions and
    /// returns whether to serve it — a refusal runs inline (it may write
    /// a short goodbye first) and consumes neither a thread nor a slot,
    /// so the accept loop never waits on a slow client. `session` runs
    /// on the connection's own thread with the listener's stop flag.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub(crate) fn spawn(
        addr: impl ToSocketAddrs,
        admit: impl Fn(&mut TcpStream, usize) -> bool + Send + 'static,
        session: impl Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    ) -> Result<Self, WalError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let accept = {
            let stop = Arc::clone(&stop);
            let active = Arc::clone(&active);
            std::thread::spawn(move || {
                accept_loop(listener, admit, Arc::new(session), active, stop)
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

fn accept_loop<S>(
    listener: TcpListener,
    admit: impl Fn(&mut TcpStream, usize) -> bool,
    session: Arc<S>,
    active: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
) where
    S: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
{
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if !admit(&mut stream, active.load(Ordering::SeqCst)) {
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let session = Arc::clone(&session);
                let active = Arc::clone(&active);
                let stop = Arc::clone(&stop);
                sessions.push(std::thread::spawn(move || {
                    session(stream, &stop);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-variant protocol: the payload is the bytes themselves.
    #[derive(Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl WireMessage for Blob {
        fn encode_payload(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn decode_payload(payload: &[u8]) -> Result<Self, WalError> {
            Ok(Blob(payload.to_vec()))
        }
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        (client, server)
    }

    fn next(reader: &mut FrameReader<Blob>) -> Result<Option<Blob>, WalError> {
        loop {
            match reader.poll()? {
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
        let (mut tx, rx) = pair();
        let mut reader = FrameReader::<Blob>::new(rx, 16);
        let err = send(&mut tx, &Blob(vec![7; 17]), 16).unwrap_err();
        assert!(
            matches!(err, WalError::FrameTooLarge { len: 17, max: 16 }),
            "{err}"
        );
        assert!(matches!(reader.poll().unwrap(), ReadEvent::Idle));
        assert!(!reader.has_partial(), "bytes of the refused frame arrived");
        // The connection is still good: a message at the ceiling passes.
        send(&mut tx, &Blob(vec![7; 16]), 16).unwrap();
        assert_eq!(next(&mut reader).unwrap(), Some(Blob(vec![7; 16])));
        drop(tx);
        assert_eq!(next(&mut reader).unwrap(), None);
    }

    #[test]
    fn oversized_and_corrupt_frames_are_hard_errors() {
        let frame = encode_frame(&Blob(vec![1, 2, 3]), 16).unwrap();
        // A length above the reader's ceiling: rejected from the header
        // alone, before the body is buffered.
        let (mut tx, rx) = pair();
        tx.write_all(&frame[..8]).unwrap();
        let mut reader = FrameReader::<Blob>::new(rx, 2);
        assert!(matches!(next(&mut reader), Err(WalError::Decode(_))));
        // A flipped CRC bit.
        let (mut tx, rx) = pair();
        let mut bad = frame.clone();
        bad[4] ^= 1;
        tx.write_all(&bad).unwrap();
        let mut reader = FrameReader::<Blob>::new(rx, 16);
        assert!(matches!(next(&mut reader), Err(WalError::Decode(_))));
    }

    #[test]
    fn partial_frames_accumulate_across_polls() {
        let (mut tx, rx) = pair();
        let frame = encode_frame(&Blob(vec![9; 300]), 1024).unwrap();
        let mut reader = FrameReader::<Blob>::new(rx, 1024);
        tx.write_all(&frame[..100]).unwrap();
        assert!(matches!(reader.poll().unwrap(), ReadEvent::Idle));
        assert!(reader.has_partial());
        tx.write_all(&frame[100..]).unwrap();
        assert_eq!(next(&mut reader).unwrap(), Some(Blob(vec![9; 300])));
        assert!(!reader.has_partial());
    }

    /// The listener end to end: the admission hook sees the live count
    /// and can turn a client away inline, admitted clients are served on
    /// their own threads, and shutdown joins them.
    #[test]
    fn listener_admits_serves_and_drains() {
        let mut listener = Listener::spawn(
            "127.0.0.1:0",
            |_stream, active| active < 1,
            |stream, stop| {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
                let mut tx = stream.try_clone().unwrap();
                let mut reader = FrameReader::<Blob>::new(stream, 64);
                while !stop.load(Ordering::SeqCst) {
                    match reader.poll() {
                        Ok(ReadEvent::Message(m)) => send(&mut tx, &m, 64).unwrap(),
                        Ok(ReadEvent::Idle) => continue,
                        Ok(ReadEvent::Closed) | Err(_) => return,
                    }
                }
            },
        )
        .unwrap();
        let dial = || {
            let stream = TcpStream::connect(listener.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .unwrap();
            let tx = stream.try_clone().unwrap();
            (tx, FrameReader::<Blob>::new(stream, 64))
        };
        let (mut tx, mut reader) = dial();
        send(&mut tx, &Blob(vec![1]), 64).unwrap();
        assert_eq!(next(&mut reader).unwrap(), Some(Blob(vec![1])));
        assert_eq!(listener.active(), 1);
        // The one slot is taken: the next client is dropped at the door.
        let (_tx2, mut refused) = dial();
        assert_eq!(next(&mut refused).ok().flatten(), None);
        assert_eq!(listener.active(), 1);
        // Shutdown joins the live session, which closes its socket.
        listener.shutdown();
        assert_eq!(listener.active(), 0);
        assert_eq!(next(&mut reader).ok().flatten(), None);
    }
}
