//! Shared fault-injection plumbing for the replication and front-end
//! integration suites over real sockets: the byte-level [`FaultProxy`],
//! the leader-behind-proxy [`Scenario`], and raw-wire helpers for
//! hitting a query server below the client library.
#![allow(dead_code)]

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modb_core::ObjectId;
use modb_server::{
    DurableDatabase, QueryClient, QueryEngine, QueryServer, QueryServerConfig, StandbyReplica,
};
use modb_wal::crc32;

use super::{
    assert_converged, fresh_db, test_replica_config, test_replication_config, test_wal_options,
    tmp, update, vehicle,
};

/// Outer wait bound for convergence and socket-close assertions.
pub const WAIT: Duration = Duration::from_secs(30);

/// The query protocol version the raw-wire helpers handshake with (keep
/// in sync with `NET_PROTOCOL_VERSION` — the handshake is exact-match).
pub const RAW_NET_VERSION: u32 = 6;

/// Polls `cond` until it holds or [`WAIT`] elapses.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// The fault proxy
// ---------------------------------------------------------------------

/// One fault applied to the upstream→client byte stream of a single
/// proxied connection (client→upstream bytes always pass through).
#[derive(Clone)]
pub enum Fault {
    /// Pass everything through unchanged.
    None,
    /// Forward exactly `n` downstream bytes, then sever the connection —
    /// the receiver sees a frame truncated mid-byte.
    CutAfterBytes(usize),
    /// Flip one bit of downstream byte `n` (0-based), then keep going —
    /// a CRC mismatch the receiver must reject.
    CorruptByteAt(usize),
}

/// TCP proxy that pops one [`Fault`] per accepted connection (empty
/// queue = [`Fault::None`]).
pub struct FaultProxy {
    addr: SocketAddr,
    faults: Arc<Mutex<VecDeque<Fault>>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy in front of `upstream`; connect to
    /// [`FaultProxy::addr`] instead.
    pub fn start(upstream: SocketAddr) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let faults: Arc<Mutex<VecDeque<Fault>>> = Arc::new(Mutex::new(VecDeque::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let faults = Arc::clone(&faults);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let Ok(up) = TcpStream::connect(upstream) else {
                                let _ = client.shutdown(Shutdown::Both);
                                continue;
                            };
                            let fault = faults.lock().unwrap().pop_front().unwrap_or(Fault::None);
                            let stop = Arc::clone(&stop);
                            pumps.push(std::thread::spawn(move || {
                                run_connection(client, up, fault, stop)
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => break,
                    }
                    pumps.retain(|h| !h.is_finished());
                }
                for h in pumps {
                    let _ = h.join();
                }
            })
        };
        FaultProxy {
            addr,
            faults,
            stop,
            accept: Some(accept),
        }
    }

    /// The proxy's listening address, as a connect string.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Queues a fault for the next accepted connection.
    pub fn push(&self, fault: Fault) {
        self.faults.lock().unwrap().push_back(fault);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Pumps one proxied connection: client→upstream verbatim on a side
/// thread, upstream→client through the fault.
fn run_connection(client: TcpStream, upstream: TcpStream, fault: Fault, stop: Arc<AtomicBool>) {
    client
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    upstream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let dead = Arc::new(AtomicBool::new(false));
    let up = {
        // client → upstream: always clean.
        let mut from = client.try_clone().unwrap();
        let mut to = upstream.try_clone().unwrap();
        let stop = Arc::clone(&stop);
        let dead = Arc::clone(&dead);
        std::thread::spawn(move || {
            pump_clean(&mut from, &mut to, &stop, &dead);
        })
    };
    let mut from = upstream.try_clone().unwrap();
    let mut to = client.try_clone().unwrap();
    pump_faulty(&mut from, &mut to, fault, &stop, &dead);
    dead.store(true, Ordering::SeqCst);
    let _ = client.shutdown(Shutdown::Both);
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = up.join();
}

fn read_some(from: &mut TcpStream, buf: &mut [u8]) -> Option<usize> {
    match from.read(buf) {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
                || e.kind() == std::io::ErrorKind::Interrupted =>
        {
            Some(0)
        }
        Err(_) => None,
    }
}

fn pump_clean(from: &mut TcpStream, to: &mut TcpStream, stop: &AtomicBool, dead: &AtomicBool) {
    let mut buf = [0u8; 16 * 1024];
    while !stop.load(Ordering::SeqCst) && !dead.load(Ordering::SeqCst) {
        match read_some(from, &mut buf) {
            Some(0) => continue,
            Some(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            None => break,
        }
    }
    dead.store(true, Ordering::SeqCst);
}

fn pump_faulty(
    from: &mut TcpStream,
    to: &mut TcpStream,
    fault: Fault,
    stop: &AtomicBool,
    dead: &AtomicBool,
) {
    let mut buf = [0u8; 16 * 1024];
    let mut forwarded = 0usize; // downstream bytes already sent
    while !stop.load(Ordering::SeqCst) && !dead.load(Ordering::SeqCst) {
        let n = match read_some(from, &mut buf) {
            Some(0) => continue,
            Some(n) => n,
            None => break,
        };
        let chunk = &mut buf[..n];
        match &fault {
            Fault::None => {
                if to.write_all(chunk).is_err() {
                    break;
                }
            }
            Fault::CutAfterBytes(limit) => {
                let keep = limit.saturating_sub(forwarded).min(chunk.len());
                if keep > 0 && to.write_all(&chunk[..keep]).is_err() {
                    break;
                }
                forwarded += keep;
                if forwarded >= *limit {
                    break; // sever mid-frame
                }
            }
            Fault::CorruptByteAt(target) => {
                if (forwarded..forwarded + chunk.len()).contains(target) {
                    chunk[*target - forwarded] ^= 0x40;
                }
                forwarded += chunk.len();
                if to.write_all(chunk).is_err() {
                    break;
                }
            }
        }
    }
    dead.store(true, Ordering::SeqCst);
}

// ---------------------------------------------------------------------
// Scenario plumbing: a leader behind a fault proxy
// ---------------------------------------------------------------------

/// A leader with a registered fleet, its replication server, and a
/// [`FaultProxy`] in front of it — followers connect through the proxy.
pub struct Scenario {
    /// The leader database.
    pub leader: DurableDatabase,
    /// The leader's replication server.
    pub server: modb_server::ReplicationServer,
    /// The proxy between follower and leader.
    pub proxy: FaultProxy,
    /// The leader's durability directory.
    pub ldir: std::path::PathBuf,
    /// A scratch directory for the follower.
    pub fdir: std::path::PathBuf,
}

impl Scenario {
    /// Creates a leader with `vehicles` registered objects (ids
    /// `1..=vehicles` at arcs `10·i`), serving replication behind a
    /// fresh proxy.
    pub fn start(name: &str, vehicles: u64) -> Scenario {
        let ldir = tmp(&format!("faults-{name}-leader"));
        let fdir = tmp(&format!("faults-{name}-follower"));
        let leader = DurableDatabase::create(&ldir, fresh_db(), test_wal_options()).unwrap();
        for i in 1..=vehicles {
            leader.register_moving(vehicle(i, 10.0 * i as f64)).unwrap();
        }
        let server = leader
            .serve_replication("127.0.0.1:0", test_replication_config())
            .unwrap();
        let proxy = FaultProxy::start(server.local_addr());
        Scenario {
            leader,
            server,
            proxy,
            ldir,
            fdir,
        }
    }

    /// Applies one update per vehicle per round (time = round, arc
    /// drifting by 0.1 per round).
    pub fn churn(&self, rounds: std::ops::RangeInclusive<u64>, vehicles: u64) {
        for round in rounds {
            for i in 1..=vehicles {
                self.leader
                    .apply_update(
                        ObjectId(i),
                        &update(round as f64, 10.0 * i as f64 + round as f64 * 0.1),
                    )
                    .unwrap();
            }
        }
    }

    /// Waits for the follower to reach the leader frontier, then checks
    /// exact logical equality — the "never diverged" post-condition of
    /// every fault scenario.
    pub fn assert_converges(&self, replica: &StandbyReplica) {
        let frontier = self.leader.wal().next_lsn();
        assert!(
            replica.wait_for_lsn(frontier, WAIT),
            "follower never converged: {}",
            replica.stats()
        );
        let expected = self.leader.database().with_read(|db| db.clone());
        replica
            .database()
            .with_read(|db| assert_converged(&expected, db));
    }

    /// Opens a follower through the proxy with the standard test tuning.
    pub fn follower(&self) -> StandbyReplica {
        StandbyReplica::open(&self.fdir, self.proxy.addr(), test_replica_config()).unwrap()
    }

    /// Tears everything down and removes the scratch directories.
    pub fn finish(self, replica: StandbyReplica) {
        replica.shutdown();
        self.cleanup();
    }

    /// Tears down the leader's side once the follower has been shut down,
    /// and removes the scratch directories.
    pub fn cleanup(self) {
        drop(self.proxy);
        self.server.shutdown();
        std::fs::remove_dir_all(&self.ldir).unwrap();
        std::fs::remove_dir_all(&self.fdir).unwrap();
    }
}

// ---------------------------------------------------------------------
// Query front-end plumbing: a serving leader and raw-wire helpers
// ---------------------------------------------------------------------

/// A leader with 4 vehicles (ids `0..4` at arcs `100·i`), its engine,
/// and a query front-end with the given config.
pub fn serve(name: &str, config: QueryServerConfig) -> (DurableDatabase, QueryServer) {
    let durable = DurableDatabase::create(tmp(name), fresh_db(), test_wal_options()).unwrap();
    for i in 0..4u64 {
        durable
            .register_moving(vehicle(i, 100.0 * i as f64))
            .unwrap();
    }
    let engine = Arc::new(QueryEngine::new(durable.database().clone()));
    let server = durable
        .serve_queries(engine, None, "127.0.0.1:0", config)
        .unwrap();
    (durable, server)
}

/// Wraps a payload in the outer framing `[len u32 LE][crc32 u32 LE][payload]`
/// (the protocol encoder is crate-private; tests build frames by hand).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A `Hello` payload at the current protocol version.
pub fn hello_payload() -> Vec<u8> {
    let mut p = vec![1u8]; // Hello tag
    p.extend_from_slice(&RAW_NET_VERSION.to_le_bytes());
    p
}

/// A `Batch` payload with no read-your-writes floor.
pub fn batch_payload(script: &str) -> Vec<u8> {
    batch_payload_with_floor(script, 0)
}

/// A `Batch` payload with an explicit read-your-writes floor.
pub fn batch_payload_with_floor(script: &str, min_lsn: u64) -> Vec<u8> {
    let mut p = vec![2u8]; // Batch tag
    p.extend_from_slice(&(script.len() as u32).to_le_bytes());
    p.extend_from_slice(script.as_bytes());
    p.extend_from_slice(&min_lsn.to_le_bytes());
    p
}

/// Connects raw and completes the handshake by hand, returning the
/// stream positioned after the `HelloAck` frame.
pub fn raw_handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&frame(&hello_payload())).unwrap();
    let mut header = [0u8; 8];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    assert_eq!(body[0], 4, "expected HelloAck, got tag {}", body[0]);
    stream
}

/// Reads until EOF (or error), proving the server closed the session.
pub fn assert_closed(stream: &mut TcpStream) {
    let mut sink = [0u8; 4096];
    let deadline = Instant::now() + WAIT;
    loop {
        assert!(
            Instant::now() < deadline,
            "server never closed the connection"
        );
        match stream.read(&mut sink) {
            Ok(0) => return,   // clean EOF
            Ok(_) => continue, // drain whatever was in flight
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return, // reset also counts as closed
        }
    }
}

/// The server still answers a healthy client — the wedge check.
pub fn assert_healthy(addr: SocketAddr) {
    let mut client = QueryClient::connect(addr).unwrap();
    let verdicts = client
        .batch("RETRIEVE POSITION OF OBJECT 0 AT TIME 3")
        .unwrap();
    assert_eq!(verdicts.len(), 1);
    assert!(verdicts[0].is_ok(), "{:?}", verdicts[0]);
    client.close();
}
