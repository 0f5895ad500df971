//! End-to-end tests for the query front-end: remote batches must be
//! byte-for-byte the verdicts a local `run_batch` produces, an acked
//! update must be visible to every connection that reads after the ack,
//! the stats scrape must round-trip every counter, capacity refusals
//! must be clean, a statement too long to refine must be refused without
//! harming the session, an update batch must answer in input order and
//! log no envelope it refuses as invalid, and a shutdown must drain an
//! in-flight batch.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::*;
use modb_core::{ObjectId, PolicyDescriptor, UpdateMessage, UpdatePosition};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_server::{
    DurableDatabase, QueryClient, QueryEngine, QueryServer, QueryServerConfig, RemoteUpdateVerdict,
    UpdateEnvelope,
};

const WAIT: Duration = Duration::from_secs(30);

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A durable database with a handful of vehicles at known arcs, its
/// engine, and a running front-end.
fn serve(
    name: &str,
    config: QueryServerConfig,
) -> (DurableDatabase, Arc<modb_server::QueryEngine>, QueryServer) {
    let durable = DurableDatabase::create(tmp(name), fresh_db(), test_wal_options()).unwrap();
    for i in 0..8u64 {
        durable
            .register_moving(vehicle(i, 100.0 * i as f64))
            .unwrap();
    }
    for i in 0..8u64 {
        durable
            .apply_update(modb_core::ObjectId(i), &update(5.0, 100.0 * i as f64 + 5.0))
            .unwrap();
    }
    let engine = Arc::new(QueryEngine::new(durable.database().clone()));
    let server = durable
        .serve_queries(Arc::clone(&engine), None, "127.0.0.1:0", config)
        .unwrap();
    (durable, engine, server)
}

/// A script covering every result kind plus two distinct error shapes
/// (an exec error and a parse error).
const SCRIPT: &str = "RETRIEVE POSITION OF OBJECT 3 AT TIME 6; \
                      RETRIEVE OBJECTS INSIDE RECT (0, -1, 450, 1) AT TIME 6; \
                      RETRIEVE 3 NEAREST OBJECTS TO POINT (200, 0) AT TIME 6; \
                      RETRIEVE POSITION OF OBJECT 'no-such-vehicle' AT TIME 6; \
                      RETRIEVE NONSENSE";

#[test]
fn remote_batch_matches_local_run_batch() {
    let (_durable, engine, server) = serve("net-parity", QueryServerConfig::default());
    let mut client = QueryClient::connect(server.local_addr()).unwrap();

    let remote = client.batch(SCRIPT).unwrap();
    let local = engine.run_batch(SCRIPT);
    assert_eq!(remote.len(), local.len());
    for (i, (r, l)) in remote.iter().zip(&local).enumerate() {
        match (r, l) {
            (Ok(r), Ok(l)) => assert_eq!(r, l, "statement {i}"),
            (Err(r), Err(l)) => assert_eq!(r, &l.to_string(), "statement {i}"),
            other => panic!("statement {i}: verdict kinds diverge: {other:?}"),
        }
    }

    // A second batch on the same connection (the session loops).
    let again = client
        .batch("RETRIEVE POSITION OF OBJECT 0 AT TIME 6")
        .unwrap();
    assert_eq!(again.len(), 1);
    assert!(again[0].is_ok());
    client.close();
    server.shutdown();
}

/// A `DURING` bound the lexer reads as infinite, or a span of millions of
/// refinement samples, would run the session thread out of memory or
/// time — and a failed allocation aborts the process, every other
/// session with it. Each is an error verdict instead, and the same
/// connection goes on answering.
#[test]
fn an_unsampleable_time_span_is_an_error_verdict_and_the_session_lives() {
    let (_durable, _engine, server) = serve("net-span", QueryServerConfig::default());
    let mut client = QueryClient::connect(server.local_addr()).unwrap();
    for stmt in [
        "RETRIEVE OBJECTS INSIDE RECT (0, -1, 450, 1) DURING 0 TO 1e400",
        "RETRIEVE OBJECTS INSIDE RECT (0, -1, 450, 1) DURING 0 TO 200000000",
    ] {
        let verdicts = client.batch(stmt).unwrap();
        assert_eq!(verdicts.len(), 1, "{stmt}");
        let err = verdicts[0].as_ref().unwrap_err();
        assert!(err.contains("invalid query region"), "{stmt}: {err}");
    }
    let verdicts = client
        .batch("RETRIEVE OBJECTS INSIDE RECT (0, -1, 450, 1) DURING 5 TO 7")
        .unwrap();
    assert!(verdicts[0].as_ref().unwrap().as_range().is_some());
    client.close();
    server.shutdown();
}

#[test]
fn stats_scrape_round_trips_every_counter() {
    let (durable, engine, server) = serve("net-stats", QueryServerConfig::default());
    let service = durable.ingest_service(2, 0);
    // Rewire: serve a second front-end that carries an ingest handle
    // (the helper starts one without).
    let server2 = durable
        .serve_queries(
            Arc::clone(&engine),
            Some(service.handle()),
            "127.0.0.1:0",
            QueryServerConfig::default(),
        )
        .unwrap();

    let handle = service.handle();
    for i in 0..8u64 {
        handle
            .send(UpdateEnvelope {
                id: modb_core::ObjectId(i),
                msg: update(10.0, 100.0 * i as f64 + 10.0),
            })
            .unwrap();
    }
    // One stale rejection: an update older than the applied one.
    handle
        .send(UpdateEnvelope {
            id: modb_core::ObjectId(0),
            msg: update(1.0, 1.0),
        })
        .unwrap();

    let mut client = QueryClient::connect(server2.local_addr()).unwrap();
    client.batch(SCRIPT).unwrap();
    let stats = client.stats().unwrap();

    // Query side: the batch ran 5 statements, 2 of them errors.
    assert_eq!(stats.query.queries, 5);
    assert_eq!(stats.query.errors, 2);
    assert_eq!(stats.query.batches, 1);
    assert!(stats.query.matches <= stats.query.candidates);

    // Ingest side.
    assert_eq!(stats.ingest.accepted, 8);
    assert_eq!(stats.ingest.stale, 1);

    // WAL side: registrations + updates all logged; counters agree with
    // the writer's own view.
    let (bytes, fsyncs) = durable.wal().io_counters();
    assert!(bytes > 0);
    assert_eq!(stats.wal_bytes_written, bytes);
    assert_eq!(stats.wal_fsyncs, fsyncs);
    assert_eq!(stats.wal_next_lsn, durable.wal().next_lsn());
    // Group-commit counters flow through the scrape; the fire-and-forget
    // sends above never wait on a ticket, so only the shape is asserted.
    assert!(stats.wal_group_commits <= stats.wal_group_tickets);

    // No replication attached.
    assert_eq!(stats.followers, 0);
    assert_eq!(stats.min_acked_lsn, None);

    // The text exposition carries the same numbers.
    let text = stats.prometheus_text();
    assert!(text.contains("modb_queries_total 5"), "{text}");
    assert!(text.contains("modb_ingest_accepted_total 8"), "{text}");
    assert!(
        text.contains(&format!("modb_wal_bytes_written_total {bytes}")),
        "{text}"
    );
    assert!(text.contains("modb_wal_group_commit_batch_size"), "{text}");

    client.close();
    service.shutdown();
    server2.shutdown();
    server.shutdown();
}

/// A leader needs no token to read an acked write: every acked LSN was
/// applied before its ack (DESIGN §7), and every statement reads a clone
/// taken when it starts. Connection A acks an update; connection B, which
/// never wrote and so sends floor 0, must read it straight after — every
/// round, with nothing published in between.
#[test]
fn an_acked_update_is_visible_to_another_connection_without_a_token() {
    let (durable, engine, server) = serve("net-ack-visible", QueryServerConfig::default());
    let service = durable.ingest_service(2, 0);
    let ingesting = durable
        .serve_queries(
            engine,
            Some(service.handle()),
            "127.0.0.1:0",
            QueryServerConfig::default(),
        )
        .unwrap();
    let mut writer = QueryClient::connect(ingesting.local_addr()).unwrap();
    let mut reader = QueryClient::connect(ingesting.local_addr()).unwrap();
    for round in 1..=20u64 {
        let (t, arc) = (5.0 + round as f64, 300.0 + round as f64);
        let verdict = writer
            .update(modb_core::ObjectId(3), &update(t, arc))
            .unwrap();
        assert!(verdict.is_accepted(), "round {round}: {verdict:?}");
        let verdicts = reader
            .batch_with_token(&format!("RETRIEVE POSITION OF OBJECT 3 AT TIME {t}"), 0)
            .unwrap();
        let position = verdicts[0].as_ref().unwrap().as_position().unwrap();
        assert_eq!(
            position.arc, arc,
            "round {round}: the acked update is not visible"
        );
    }
    assert_eq!(reader.token(), 0, "the reader never carried a floor");
    writer.close();
    reader.close();
    service.shutdown();
    ingesting.shutdown();
    server.shutdown();
}

/// Acks never lie (DESIGN §13): once the log's commit point has failed,
/// an update is answered with a typed refusal and no read-your-writes
/// token — not `Accepted` with an LSN for a record that is not durable.
#[test]
fn an_update_the_log_cannot_vouch_for_is_not_acknowledged() {
    let (durable, engine, server) = serve("net-not-durable", QueryServerConfig::default());
    let service = durable.ingest_service(2, 0);
    let ingesting = durable
        .serve_queries(
            engine,
            Some(service.handle()),
            "127.0.0.1:0",
            QueryServerConfig::default(),
        )
        .unwrap();
    let mut client = QueryClient::connect(ingesting.local_addr()).unwrap();
    let id = modb_core::ObjectId;

    let verdict = client.update(id(1), &update(10.0, 110.0)).unwrap();
    assert!(verdict.is_accepted(), "{verdict:?}");
    let token = client.token();
    assert_eq!(token, durable.wal().next_lsn());

    service.fail_commits_for_test("disk on fire");
    let verdicts = client
        .update_batch(&[(id(2), update(10.0, 210.0)), (id(3), update(10.0, 310.0))])
        .unwrap();
    for verdict in &verdicts {
        match verdict {
            RemoteUpdateVerdict::Invalid(reason) => {
                assert!(reason.starts_with("not durable: "), "{reason}");
                assert!(reason.contains("disk on fire"), "{reason}");
            }
            other => panic!("acknowledged a write that is not durable: {other:?}"),
        }
    }
    assert_eq!(client.token(), token, "a refused frame raises no token");
    assert_eq!(client.stats().unwrap().ingest.wal_errors, 2);

    client.close();
    service.shutdown();
    ingesting.shutdown();
    server.shutdown();
}

/// One `UpdateBatch` frame carrying every verdict kind — accepted,
/// stale, each non-finite field, and policy parameters that would make
/// the deviation bound unsound — is answered in input order. An
/// envelope refused `Invalid` at the protocol boundary is never logged:
/// the WAL frontier advances by exactly the envelopes that reached
/// ingest, and a refused policy leaves its object as it was.
#[test]
fn an_update_batch_answers_in_input_order_and_logs_no_invalid_envelope() {
    let (durable, engine, server) = serve("net-update-batch", QueryServerConfig::default());
    let service = durable.ingest_service(2, 0);
    let ingesting = durable
        .serve_queries(
            engine,
            Some(service.handle()),
            "127.0.0.1:0",
            QueryServerConfig::default(),
        )
        .unwrap();
    let mut client = QueryClient::connect(ingesting.local_addr()).unwrap();

    let basic = |t, position, speed| UpdateMessage::basic(t, position, speed);
    let with_policy = |arc, policy| UpdateMessage {
        policy: Some(policy),
        ..update(10.0, arc)
    };
    let cost = |update_cost| PolicyDescriptor::CostBased {
        kind: BoundKind::Immediate,
        update_cost,
    };
    let fixed = |bound| PolicyDescriptor::FixedBound { bound };
    // (object, message, "accepted" | "stale" | what the refusal names)
    let frame = [
        (1, update(10.0, 110.0), "accepted"),
        // Earlier than the update every vehicle took at t = 5.
        (2, update(1.0, 210.0), "stale"),
        (
            3,
            basic(f64::NAN, UpdatePosition::Arc(310.0), 1.0),
            "non-finite time",
        ),
        (
            3,
            basic(10.0, UpdatePosition::Arc(310.0), f64::INFINITY),
            "non-finite speed",
        ),
        (
            3,
            basic(10.0, UpdatePosition::Arc(f64::NAN), 1.0),
            "non-finite arc",
        ),
        (
            3,
            basic(
                10.0,
                UpdatePosition::Coordinates(Point::new(f64::NAN, 0.0)),
                1.0,
            ),
            "non-finite coordinates",
        ),
        (4, with_policy(410.0, cost(0.0)), "`update_cost`"),
        (4, with_policy(410.0, cost(-5.0)), "`update_cost`"),
        (4, with_policy(410.0, cost(f64::NAN)), "`update_cost`"),
        (4, with_policy(410.0, cost(f64::INFINITY)), "`update_cost`"),
        (4, with_policy(410.0, fixed(-1.0)), "`bound`"),
        (4, with_policy(410.0, fixed(f64::NAN)), "`bound`"),
        (4, with_policy(410.0, fixed(f64::INFINITY)), "`bound`"),
        (5, update(10.0, 510.0), "accepted"),
        (6, with_policy(610.0, fixed(0.5)), "accepted"),
    ];
    let held = |id| {
        durable
            .database()
            .with_read(|db| db.moving(ObjectId(id)).unwrap().clone())
    };
    let (object_3, object_4) = (held(3), held(4));
    let lsn_before = durable.wal().next_lsn();

    let updates: Vec<_> = frame
        .iter()
        .map(|(id, msg, _)| (ObjectId(*id), *msg))
        .collect();
    let verdicts = client.update_batch(&updates).unwrap();
    assert_eq!(verdicts.len(), frame.len());
    for (i, ((_, _, expect), verdict)) in frame.iter().zip(&verdicts).enumerate() {
        let ok = match (*expect, verdict) {
            ("accepted", RemoteUpdateVerdict::Accepted) => true,
            ("stale", RemoteUpdateVerdict::Rejected(reason)) => reason.contains("stale"),
            (named, RemoteUpdateVerdict::Invalid(reason)) => reason.contains(named),
            _ => false,
        };
        assert!(ok, "envelope {i}: expected {expect}, got {verdict:?}");
    }

    // Three accepted and one stale reached ingest; the eleven refused did not.
    let reached = frame
        .iter()
        .filter(|(_, _, e)| ["accepted", "stale"].contains(e));
    let logged = durable.wal().next_lsn() - lsn_before;
    assert_eq!(
        logged,
        reached.count() as u64,
        "an invalid envelope was logged"
    );
    assert_eq!(client.token(), durable.wal().next_lsn());
    assert_eq!(held(3), object_3);
    assert_eq!(held(4), object_4);
    assert_eq!(held(6).attr.policy, fixed(0.5));

    client.close();
    service.shutdown();
    ingesting.shutdown();
    server.shutdown();
}

#[test]
fn capacity_overflow_is_refused_and_slot_reuse_works() {
    let (_durable, _engine, server) = serve(
        "net-capacity",
        QueryServerConfig {
            max_connections: 1,
            ..QueryServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let first = QueryClient::connect(addr).unwrap();
    wait_until("first session registered", || {
        server.active_connections() == 1
    });

    let err = QueryClient::connect(addr).expect_err("second client must be refused");
    assert!(
        err.to_string().contains("capacity"),
        "refusal should carry the reason, got: {err}"
    );

    // Releasing the slot lets a new client in.
    first.close();
    wait_until("slot released", || server.active_connections() == 0);
    let mut third = QueryClient::connect(addr).unwrap();
    assert!(third
        .batch("RETRIEVE POSITION OF OBJECT 0 AT TIME 6")
        .unwrap()[0]
        .is_ok());
    third.close();
    server.shutdown();
}

#[test]
fn shutdown_drains_a_delivered_batch() {
    let (_durable, engine, server) = serve("net-drain", QueryServerConfig::default());
    let mut client = QueryClient::connect(server.local_addr()).unwrap();
    // Prove the session is established and serving.
    assert_eq!(
        client
            .batch("RETRIEVE POSITION OF OBJECT 0 AT TIME 6")
            .unwrap()
            .len(),
        1
    );

    // Deliver a large batch and immediately shut the server down from
    // another thread: the batch frame is already on the wire, so the
    // drain guarantee says every statement is still answered.
    let statements = 64;
    let script =
        vec!["RETRIEVE OBJECTS INSIDE RECT (0, -1, 900, 1) AT TIME 6"; statements].join("; ");
    let shutdown = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(2));
        server.shutdown();
    });
    let verdicts = client.batch(&script).expect("drained batch must complete");
    assert_eq!(verdicts.len(), statements);
    for v in &verdicts {
        assert!(v.is_ok());
    }
    let expected = engine.run_batch(&script);
    for (v, e) in verdicts.iter().zip(&expected) {
        assert_eq!(v.as_ref().unwrap(), e.as_ref().unwrap());
    }
    shutdown.join().unwrap();
}
