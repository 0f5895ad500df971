//! Fault injection for the query front-end over real sockets, in the
//! style of `replication_faults`: misbehaving clients hit the server at
//! the byte level — garbage headers, a foreign version, oversized
//! frames, disconnects mid-batch. The invariant under every fault: the
//! offending session ends, its connection slot is released (no leak),
//! and the server keeps answering healthy clients — it never wedges.
//!
//! The deadlines — a connection that never says `Hello`, a client that
//! stalls mid-frame, an idle one that must survive — and a follower's
//! serving faults run on the crate's deterministic cluster driver, on
//! the virtual clock (`net::server::tests`, `replication::sim`). The
//! raw-wire helpers (hand-rolled framing, handshake, closed/healthy
//! assertions) live in `common::replica_harness`.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use common::replica_harness::{
    assert_closed, assert_healthy, batch_payload, frame, raw_handshake, serve, wait_until,
    RAW_NET_VERSION,
};
use modb_server::QueryServerConfig;

#[test]
fn garbage_header_ends_the_session_without_leaking_a_slot() {
    let (_durable, server) = serve("fault-garbage", QueryServerConfig::default());
    let addr = server.local_addr();

    let mut vandal = TcpStream::connect(addr).unwrap();
    vandal
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    // 16 bytes that decode to an implausible length — framing is
    // unrecoverable and the server must hang up.
    vandal.write_all(&[0xffu8; 16]).unwrap();
    assert_closed(&mut vandal);
    wait_until("slot released", || server.active_connections() == 0);

    assert_healthy(addr);
    server.shutdown();
}

/// One version is spoken. A `Hello` at any other — the previous one
/// included: nothing falls back to the v5 stats body — is answered with
/// a typed `Refused` naming both versions, then the session ends.
#[test]
fn hello_at_any_other_version_is_refused() {
    let (_durable, server) = serve("fault-version", QueryServerConfig::default());
    let addr = server.local_addr();
    assert_eq!(RAW_NET_VERSION, 6);

    for version in [5u32, 4, 7] {
        let mut old = TcpStream::connect(addr).unwrap();
        old.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut hello = vec![1u8]; // Hello tag
        hello.extend_from_slice(&version.to_le_bytes());
        old.write_all(&frame(&hello)).unwrap();
        let mut header = [0u8; 8];
        old.read_exact(&mut header).unwrap();
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let mut body = vec![0u8; len];
        old.read_exact(&mut body).unwrap();
        assert_eq!(
            body[0], 8,
            "v{version}: expected Refused, got tag {}",
            body[0]
        );
        let reason = String::from_utf8_lossy(&body[5..]);
        assert!(
            reason.contains(&format!("client {version}, server 6")),
            "v{version}: {reason}"
        );
        assert_closed(&mut old);
    }
    wait_until("slots released", || server.active_connections() == 0);

    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_after_handshake() {
    let (_durable, server) = serve(
        "fault-oversize",
        QueryServerConfig {
            max_frame_bytes: 1024,
            ..QueryServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let mut vandal = raw_handshake(addr);
    // A header announcing a payload over the 1 KiB ceiling: the session
    // must end without waiting for (or allocating) the body.
    vandal.write_all(&(64 * 1024u32).to_le_bytes()).unwrap();
    vandal.write_all(&0u32.to_le_bytes()).unwrap();
    assert_closed(&mut vandal);
    wait_until("slot released", || server.active_connections() == 0);

    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn disconnect_mid_batch_does_not_wedge_the_server() {
    let (_durable, server) = serve("fault-disconnect", QueryServerConfig::default());
    let addr = server.local_addr();

    // Deliver a sizable batch, then vanish before reading a single
    // result: the server's writes hit a dead socket and the session must
    // clean up.
    let mut vandal = raw_handshake(addr);
    let script = vec!["RETRIEVE OBJECTS INSIDE RECT (0, -1, 900, 1) AT TIME 3"; 32].join("; ");
    vandal.write_all(&frame(&batch_payload(&script))).unwrap();
    vandal.shutdown(Shutdown::Both).unwrap();
    drop(vandal);
    wait_until("slot released", || server.active_connections() == 0);

    assert_healthy(addr);
    server.shutdown();
}
