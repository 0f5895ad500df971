//! The seam between a replication session and the world. A [`Link`]
//! moves the protocol's messages to and from the peer, and a [`Clock`]
//! tells the time and waits. The session shells (`leader.rs`,
//! `follower.rs`) are written against the two traits and never name a
//! socket or the wall clock.
//!
//! In production the link is a TCP stream in the framed-session kernel's
//! CRC frames ([`TcpLink`]) and the clock is the wall clock
//! ([`WallClock`]). This is the one module of `replication/` that touches
//! either. The tests swap in an in-memory link and a virtual clock
//! (`mem`), so a leader, chained followers and their faults run in one
//! thread with no socket, sleep or spawned thread.

use std::fmt::Debug;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use modb_wal::WalError;

use crate::framed::{send, FrameReader, Listener, ReadEvent, READ_TIMEOUT, WRITE_TIMEOUT};
use crate::replication::protocol::{Message, MAX_MESSAGE_BYTES};

/// How long a follower's dial waits for each address of its upstream.
/// An upstream whose host vanished without a reset (a partition, a
/// powered-off box) answers no SYN; without a bound the dial waits out
/// the kernel's SYN retries (about 127 s at Linux's default of six), and
/// `promote`, which joins the worker, waits with it.
pub(crate) const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// One replication connection, as the session shells see it.
pub(crate) trait Link {
    /// Frames and sends one message. A message over the frame ceiling is
    /// refused before a byte is written.
    fn send(&mut self, msg: &Message) -> Result<(), WalError>;

    /// The next whole message, waiting for one until `deadline` at most.
    /// A deadline that has passed reads only what already arrived, and
    /// the wait may end early with [`ReadEvent::Idle`]. A length or CRC
    /// violation is a hard [`WalError::Decode`].
    fn poll(&mut self, deadline: Instant) -> Result<ReadEvent<Message>, WalError>;

    /// Closes both directions; the peer reads [`ReadEvent::Closed`].
    fn shutdown(&mut self);
}

/// Where the replication shells read the time and wait.
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

/// A replication connection over TCP.
#[derive(Debug)]
pub(crate) struct TcpLink {
    tx: TcpStream,
    reader: FrameReader<Message>,
}

impl TcpLink {
    fn new(stream: TcpStream) -> Result<Self, WalError> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(TcpLink {
            tx: stream.try_clone()?,
            reader: FrameReader::new(stream, MAX_MESSAGE_BYTES),
        })
    }

    /// Connects to `addr`, trying each address it resolves to for at
    /// most [`DIAL_TIMEOUT`].
    pub(crate) fn dial(addr: &str) -> Result<Self, WalError> {
        let mut last = std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address");
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, DIAL_TIMEOUT) {
                Ok(stream) => return TcpLink::new(stream),
                Err(e) => last = e,
            }
        }
        Err(WalError::Io(last))
    }
}

impl Link for TcpLink {
    fn send(&mut self, msg: &Message) -> Result<(), WalError> {
        send(&mut self.tx, msg, MAX_MESSAGE_BYTES)
    }

    fn poll(&mut self, deadline: Instant) -> Result<ReadEvent<Message>, WalError> {
        if deadline <= Instant::now() {
            self.reader.poll_nowait()
        } else {
            // Waits one read timeout at most.
            self.reader.poll()
        }
    }

    fn shutdown(&mut self) {
        let _ = self.tx.shutdown(Shutdown::Both);
    }
}

/// Serves `session` on every connection accepted at `addr`, each on its
/// own thread with the listener's stop flag.
pub(crate) fn listen(
    addr: impl ToSocketAddrs,
    session: impl Fn(TcpLink, &AtomicBool) + Send + Sync + 'static,
) -> Result<Listener, WalError> {
    Listener::spawn(
        addr,
        |_stream, _active| true,
        move |stream, stop| {
            if let Ok(link) = TcpLink::new(stream) {
                session(link, stop);
            }
        },
    )
}

#[cfg(test)]
pub(crate) mod mem {
    //! The test half of the seam: an in-memory duplex [`MemLink`] that a
    //! test can cut, corrupt, duplicate, reorder or stall, and a
    //! [`VirtualClock`] that only moves when something waits on it.
    //! Messages cross in the real CRC frames, so a cut or a flipped byte
    //! meets the same decoder a socket's bytes do.

    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use std::sync::Mutex;

    use super::*;
    use crate::framed::{decode_frame, encode_frame};

    /// A fault on the upstream → downstream direction of one link (the
    /// other direction always passes clean), as a byte proxy applies it.
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
        Stall(Rc<Cell<bool>>),
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
            matches!(&self.fault, Fault::Stall(hold) if hold.get())
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
    pub(crate) struct MemLink {
        wire: Rc<RefCell<Wire>>,
        /// Which pipe this end sends on.
        side: usize,
    }

    /// A connected pair, `(dialer, acceptor)`; `fault` acts on what the
    /// acceptor sends.
    pub(crate) fn pair(fault: Fault) -> (MemLink, MemLink) {
        let wire = Rc::new(RefCell::new(Wire::default()));
        wire.borrow_mut().pipes[1].fault = fault;
        let acceptor = MemLink {
            wire: Rc::clone(&wire),
            side: 1,
        };
        (MemLink { wire, side: 0 }, acceptor)
    }

    impl Link for MemLink {
        fn send(&mut self, msg: &Message) -> Result<(), WalError> {
            let frame = encode_frame(msg, MAX_MESSAGE_BYTES)?;
            let mut wire = self.wire.borrow_mut();
            if wire.closed {
                return Err(WalError::Io(std::io::ErrorKind::BrokenPipe.into()));
            }
            if !wire.pipes[self.side].carry(frame) {
                wire.closed = true;
            }
            Ok(())
        }

        /// Nothing arrives while the one thread is here, so the deadline
        /// is not waited for.
        fn poll(&mut self, _deadline: Instant) -> Result<ReadEvent<Message>, WalError> {
            let mut wire = self.wire.borrow_mut();
            let closed = wire.closed;
            let pipe = &mut wire.pipes[1 - self.side];
            if pipe.stalled() {
                return Ok(ReadEvent::Idle);
            }
            match decode_frame(&pipe.bytes, MAX_MESSAGE_BYTES)? {
                Some((msg, len)) => {
                    pipe.bytes.drain(..len);
                    Ok(ReadEvent::Message(msg))
                }
                None if closed => Ok(ReadEvent::Closed),
                None => Ok(ReadEvent::Idle),
            }
        }

        fn shutdown(&mut self) {
            self.wire.borrow_mut().closed = true;
        }
    }

    impl Drop for MemLink {
        fn drop(&mut self) {
            self.shutdown();
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
        use super::*;

        fn beat(n: u64) -> Message {
            Message::Heartbeat { leader_next_lsn: n }
        }

        /// Every message `up` sent, as the dialer reads it, until idle or
        /// closed; `Err` once framing is lost.
        fn drain(down: &mut MemLink) -> Result<(Vec<Message>, bool), WalError> {
            let mut got = Vec::new();
            loop {
                match down.poll(Instant::now())? {
                    ReadEvent::Message(m) => got.push(m),
                    ReadEvent::Idle => return Ok((got, false)),
                    ReadEvent::Closed => return Ok((got, true)),
                }
            }
        }

        fn send_beats(fault: Fault, n: u64) -> (MemLink, MemLink) {
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
            // A heartbeat frame is 17 bytes: cut inside the second one.
            let (mut down, mut up) = send_beats(Fault::CutAfterBytes(20), 3);
            assert_eq!(drain(&mut down).unwrap(), (vec![beat(0)], true));
            assert!(up.send(&beat(9)).is_err(), "a severed link refuses sends");
            let (mut down, _up) = send_beats(Fault::CorruptByteAt(4), 1);
            assert!(matches!(drain(&mut down), Err(WalError::Decode(_))));
            let hold = Rc::new(Cell::new(true));
            let (mut down, _up) = send_beats(Fault::Stall(Rc::clone(&hold)), 2);
            assert_eq!(drain(&mut down).unwrap(), (vec![], false));
            hold.set(false);
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
