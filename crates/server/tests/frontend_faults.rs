//! Fault injection for the query front-end, in the style of
//! `replication_faults`: misbehaving clients hit the server at the byte
//! level — garbage headers, oversized frames, disconnects mid-batch,
//! and stalls mid-frame. The invariant under every fault: the offending
//! session ends, its connection slot is released (no leak), and the
//! server keeps answering healthy clients — it never wedges.
//!
//! The raw-wire helpers (hand-rolled framing, handshake, closed/healthy
//! assertions) live in `common::replica_harness`, shared with the
//! follower-read fault suite.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use common::replica_harness::{
    assert_closed, assert_healthy, batch_payload, frame, raw_handshake, serve, wait_until,
    RAW_NET_VERSION,
};
use modb_server::{QueryClient, QueryServerConfig};

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

#[test]
fn stalled_client_is_disconnected_at_the_request_deadline() {
    let (_durable, server) = serve(
        "fault-stall",
        QueryServerConfig {
            request_deadline: Duration::from_millis(200),
            ..QueryServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // Send half a frame and go silent. An *idle* connection (no partial
    // frame) may sit forever; a half-delivered request may not.
    let mut staller = raw_handshake(addr);
    let full = frame(&batch_payload("RETRIEVE POSITION OF OBJECT 0 AT TIME 3"));
    staller.write_all(&full[..full.len() / 2]).unwrap();
    let stalled_at = Instant::now();
    assert_closed(&mut staller);
    assert!(
        stalled_at.elapsed() >= Duration::from_millis(150),
        "disconnected suspiciously early — deadline not honored?"
    );
    wait_until("slot released", || server.active_connections() == 0);

    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn idle_connection_without_partial_frame_survives_the_deadline() {
    let (_durable, server) = serve(
        "fault-idle",
        QueryServerConfig {
            request_deadline: Duration::from_millis(100),
            ..QueryServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let mut client = QueryClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // 3× the deadline
    let verdicts = client
        .batch("RETRIEVE POSITION OF OBJECT 0 AT TIME 3")
        .expect("an idle console must not be reaped");
    assert!(verdicts[0].is_ok());
    client.close();
    server.shutdown();
}
