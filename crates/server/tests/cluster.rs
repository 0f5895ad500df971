//! Cluster integration tests: a sharded deployment must be
//! *observationally equivalent* to one node holding the union fleet —
//! same verdicts, same error strings, statement by statement — with
//! typed failures when a shard dies and per-shard read-your-writes.

mod common;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::*;
use modb_core::ObjectId;
use modb_geom::{Point, Rect};
use modb_query::QueryResult;
use modb_server::{
    ClusterError, ClusterRouter, DurableDatabase, IngestService, QueryEngine, QueryServer,
    QueryServerConfig, RemoteUpdateVerdict, RemoteVerdict, ShardMap,
};
use proptest::prelude::*;

/// One shard server: durable database, query engine, ingest service, and
/// a listening front-end.
struct Shard {
    durable: DurableDatabase,
    service: IngestService,
    server: QueryServer,
}

impl Shard {
    fn spawn(name: &str, shard_no: u64) -> Shard {
        let durable = DurableDatabase::create(tmp(name), fresh_db(), test_wal_options()).unwrap();
        let service = durable.ingest_service(2, 0);
        let server = durable
            .serve_queries(
                Arc::new(QueryEngine::new(durable.database().clone())),
                Some(service.handle()),
                "127.0.0.1:0",
                QueryServerConfig {
                    shard: Some(shard_no),
                    ..QueryServerConfig::default()
                },
            )
            .unwrap();
        Shard {
            durable,
            service,
            server,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn shutdown(self) {
        self.server.shutdown();
        self.service.shutdown();
        drop(self.durable);
    }
}

/// A running cluster plus the single-node oracle holding the union
/// fleet.
struct Fixture {
    shards: Vec<Shard>,
    router: ClusterRouter,
    union_durable: DurableDatabase,
    union_engine: Arc<QueryEngine>,
}

impl Fixture {
    /// Spawns `map.shards()` shard servers and the union oracle, then
    /// registers `vehicles` (id, start arc) through the router's
    /// placement on the owning shard and on the oracle.
    fn new(name: &str, map: ShardMap, vehicles: &[(u64, f64)]) -> Fixture {
        let shards: Vec<Shard> = (0..map.shards())
            .map(|i| Shard::spawn(&format!("{name}-s{i}"), i as u64))
            .collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(Shard::addr).collect();
        let mut router = ClusterRouter::connect(&addrs, map).unwrap();

        let union_durable = DurableDatabase::create(
            tmp(&format!("{name}-union")),
            fresh_db(),
            test_wal_options(),
        )
        .unwrap();
        let union_engine = Arc::new(QueryEngine::new(union_durable.database().clone()));

        for &(id, arc) in vehicles {
            let v = vehicle(id, arc);
            let home = router.route_registration(v.id, &v.name, Point::new(arc, 0.0));
            shards[home].durable.register_moving(v.clone()).unwrap();
            union_durable.register_moving(v).unwrap();
        }
        Fixture {
            shards,
            router,
            union_durable,
            union_engine,
        }
    }

    /// Applies the same update through the router (remote ingest) and on
    /// the oracle.
    fn update_everywhere(&mut self, id: u64, t: f64, arc: f64) {
        let verdict = self.router.update(ObjectId(id), &update(t, arc)).unwrap();
        assert_eq!(verdict, RemoteUpdateVerdict::Accepted);
        self.union_durable
            .apply_update(ObjectId(id), &update(t, arc))
            .unwrap();
    }

    /// Runs `script` on the cluster and the oracle and asserts verdict
    /// equivalence.
    fn assert_script_equivalent(&mut self, script: &str) {
        let remote = self.router.run_batch(script).unwrap();
        let local = self.union_engine.run_batch(script);
        assert_eq!(remote.len(), local.len(), "verdict count for {script:?}");
        for (i, (r, l)) in remote.iter().zip(&local).enumerate() {
            assert_equivalent(r, l, &format!("statement {i} of {script:?}"));
        }
    }

    fn shutdown(self) {
        // Close the router before the servers so session threads see a
        // clean EOF rather than a reset.
        self.router.close();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// Equivalence modulo traversal diagnostics: range answers compare
/// may/must only (per-shard trees are shaped differently than the union
/// tree, so `candidates`/`stats` are additive diagnostics); position and
/// nearest answers, and error strings, must match exactly.
fn assert_equivalent(
    remote: &RemoteVerdict,
    local: &Result<QueryResult, modb_query::QueryError>,
    what: &str,
) {
    match (remote, local) {
        (Ok(QueryResult::Range(r)), Ok(QueryResult::Range(l))) => {
            assert_eq!(r.must, l.must, "{what}: must sets");
            assert_eq!(r.may, l.may, "{what}: may sets");
        }
        (Ok(r), Ok(l)) => assert_eq!(r, l, "{what}"),
        (Err(r), Err(l)) => assert_eq!(r, &l.to_string(), "{what}"),
        other => panic!("{what}: verdict kinds diverge: {other:?}"),
    }
}

fn corridor() -> Rect {
    Rect::new(Point::new(0.0, -5.0), Point::new(1000.0, 5.0))
}

/// Every query form plus every error shape the language can produce.
const FULL_SCRIPT: &str = "\
    RETRIEVE POSITION OF OBJECT 3 AT TIME 6; \
    RETRIEVE POSITION OF OBJECT 'veh-5' AT TIME 6; \
    RETRIEVE POSITION OF OBJECT 'no-such-vehicle' AT TIME 6; \
    RETRIEVE POSITION OF OBJECT 99 AT TIME 6; \
    RETRIEVE OBJECTS INSIDE RECT (0, -1, 450, 1) AT TIME 6; \
    RETRIEVE OBJECTS INSIDE RECT (100, -1, 300, 1) DURING 2 TO 9; \
    RETRIEVE OBJECTS INSIDE POLYGON ((50,-2), (600,-2), (600,2), (50,2)) AT TIME 6; \
    RETRIEVE OBJECTS INSIDE RECT (5, 5, 5, 9) AT TIME 6; \
    RETRIEVE OBJECTS WITHIN 120 OF POINT (200, 0) AT TIME 6; \
    RETRIEVE OBJECTS WITHIN -3 OF POINT (200, 0) AT TIME 6; \
    RETRIEVE OBJECTS WITHIN 150 OF OBJECT 2 AT TIME 6; \
    RETRIEVE OBJECTS WITHIN 150 OF OBJECT 'veh-4' AT TIME 6; \
    RETRIEVE OBJECTS WITHIN 0 OF OBJECT 2 AT TIME 6; \
    RETRIEVE OBJECTS WITHIN 150 OF OBJECT 'no-such-vehicle' AT TIME 6; \
    RETRIEVE 3 NEAREST OBJECTS TO POINT (300, 0) AT TIME 6; \
    RETRIEVE 50 NEAREST OBJECTS TO POINT (300, 0) AT TIME 6; \
    RETRIEVE NONSENSE";

fn fleet() -> Vec<(u64, f64)> {
    (0..12u64).map(|i| (i, 75.0 * i as f64 + 10.0)).collect()
}

fn run_full_equivalence(name: &str, map: ShardMap) {
    let mut fx = Fixture::new(name, map, &fleet());
    // Move some of the fleet through the remote-ingest path (the rest
    // keep their registration motion plans).
    for id in [0u64, 2, 3, 5, 7, 11] {
        let arc = 75.0 * id as f64 + 25.0;
        fx.update_everywhere(id, 5.0, arc);
    }
    fx.assert_script_equivalent(FULL_SCRIPT);
    // The whole-script lex failure keeps its single-verdict shape.
    fx.assert_script_equivalent("RETRIEVE POSITION OF OBJECT 'oops AT TIME 1; next");
    // Empty script, empty verdicts.
    fx.assert_script_equivalent("  ;; ");
    fx.shutdown();
}

#[test]
fn hash_cluster_matches_union_node() {
    run_full_equivalence("cluster-hash", ShardMap::hash(3));
}

#[test]
fn spatial_cluster_matches_union_node() {
    run_full_equivalence("cluster-spatial", ShardMap::vertical_strips(corridor(), 3));
}

#[test]
fn update_batch_routes_verdicts_in_input_order() {
    let mut fx = Fixture::new("cluster-batch", ShardMap::hash(3), &fleet());
    let updates = vec![
        (ObjectId(1), update(4.0, 100.0)),
        (ObjectId(2), update(4.0, 180.0)),
        // Stale: earlier than the registration start time.
        (ObjectId(3), update(-1.0, 240.0)),
        // Non-finite speed: refused at the protocol boundary.
        (
            ObjectId(4),
            modb_core::UpdateMessage::basic(5.0, modb_core::UpdatePosition::Arc(310.0), f64::NAN),
        ),
        (ObjectId(5), update(4.0, 400.0)),
    ];
    let verdicts = fx.router.update_batch(&updates).unwrap();
    assert_eq!(verdicts.len(), 5);
    assert_eq!(verdicts[0], RemoteUpdateVerdict::Accepted);
    assert_eq!(verdicts[1], RemoteUpdateVerdict::Accepted);
    assert!(
        matches!(&verdicts[2], RemoteUpdateVerdict::Rejected(m) if m.contains("stale")),
        "{:?}",
        verdicts[2]
    );
    assert!(
        matches!(&verdicts[3], RemoteUpdateVerdict::Invalid(_)),
        "{:?}",
        verdicts[3]
    );
    assert_eq!(verdicts[4], RemoteUpdateVerdict::Accepted);
    fx.shutdown();
}

#[test]
fn read_your_writes_holds_through_the_router() {
    // The router acks an update on its owning shard, then queries: the
    // write and the read must reach the same shard, and the read must
    // start after the ack. A statement reads a clone taken when it
    // starts, so each round's query sees the update it follows — and
    // would not, were the router to answer from a shard the write missed
    // or to run the read before the ack came back.
    let mut fx = Fixture::new("cluster-ryw", ShardMap::hash(3), &fleet());
    for round in 1..=5u64 {
        let t = 5.0 + round as f64;
        let arc = 10.0 + 3.0 * round as f64;
        let verdict = fx.router.update(ObjectId(0), &update(t, arc)).unwrap();
        assert_eq!(verdict, RemoteUpdateVerdict::Accepted);
        let script = format!("RETRIEVE POSITION OF OBJECT 0 AT TIME {t}");
        let verdicts = fx.router.run_batch(&script).unwrap();
        let position = verdicts[0].as_ref().unwrap().as_position().unwrap().clone();
        assert_eq!(
            position.arc, arc,
            "round {round}: query must see the acknowledged update"
        );
    }
    fx.shutdown();
}

#[test]
fn dead_shard_is_a_typed_error_not_a_hang() {
    let map = ShardMap::hash(3);
    let shards: Vec<Shard> = (0..3)
        .map(|i| Shard::spawn(&format!("cluster-death-s{i}"), i))
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(Shard::addr).collect();
    let mut router = ClusterRouter::connect(&addrs, map).unwrap();
    // One registered vehicle per shard, so statements can target live
    // shards after the kill.
    let mut per_shard_id = [None::<u64>; 3];
    for id in 0..64u64 {
        let home = ShardMap::hash(3).owner_by_id(ObjectId(id)).unwrap();
        if per_shard_id[home].is_none() {
            per_shard_id[home] = Some(id);
            let arc = 10.0 + id as f64;
            let v = vehicle(id, arc);
            let routed = router.route_registration(v.id, &v.name, Point::new(arc, 0.0));
            assert_eq!(routed, home);
            shards[home].durable.register_moving(v).unwrap();
        }
        if per_shard_id.iter().all(Option::is_some) {
            break;
        }
    }

    // Kill shard 1 and broadcast: the router must fail fast and name it.
    let dead = 1usize;
    let mut survivors = Vec::new();
    let mut victim = None;
    for (i, shard) in shards.into_iter().enumerate() {
        if i == dead {
            shard.shutdown();
            victim = Some(());
        } else {
            survivors.push((i, shard));
        }
    }
    assert!(victim.is_some());

    let started = Instant::now();
    let err = router
        .run_batch("RETRIEVE OBJECTS INSIDE RECT (0, -1, 900, 1) AT TIME 3")
        .expect_err("a dead shard must surface as an error");
    assert!(
        matches!(err, ClusterError::ShardFailed { shard, .. } if shard == dead),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the router hung on a dead shard"
    );

    // Statements routed only to live shards still answer.
    for (i, _) in &survivors {
        let id = per_shard_id[*i].unwrap();
        let verdicts = router
            .run_batch(&format!("RETRIEVE POSITION OF OBJECT {id} AT TIME 3"))
            .unwrap();
        assert!(verdicts[0].is_ok(), "shard {i}: {:?}", verdicts[0]);
    }
    router.close();
    for (_, shard) in survivors {
        shard.shutdown();
    }
}

#[test]
fn shard_count_mismatch_is_rejected() {
    let err = ClusterRouter::new(Vec::new(), ShardMap::hash(3)).unwrap_err();
    assert!(matches!(
        err,
        ClusterError::ShardCountMismatch { map: 3, clients: 0 }
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized fleets, updates, and query mixes: the cluster answers
    /// exactly like the union node under both shard keys.
    #[test]
    fn cluster_equals_union_node(
        seed in 0u64..1000,
        arcs in proptest::collection::vec(5.0f64..950.0, 6..14),
        moved in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 14),
        spatial in proptest::arbitrary::any::<bool>(),
        rect_lo in 0.0f64..400.0,
        rect_w in 50.0f64..500.0,
        center in 0.0f64..900.0,
        radius in 10.0f64..300.0,
        k in 1usize..8,
        t in 4.0f64..12.0,
    ) {
        let map = if spatial {
            ShardMap::vertical_strips(corridor(), 3)
        } else {
            ShardMap::hash(3)
        };
        let vehicles: Vec<(u64, f64)> =
            arcs.iter().enumerate().map(|(i, &a)| (i as u64, a)).collect();
        let mut fx = Fixture::new(
            &format!("cluster-prop-{seed}-{spatial}"),
            map,
            &vehicles,
        );
        for (i, &(id, arc)) in vehicles.iter().enumerate() {
            if *moved.get(i).unwrap_or(&false) {
                fx.update_everywhere(id, 3.0, (arc + 40.0).min(990.0));
            }
        }
        let anchor = vehicles[0].0;
        let script = format!(
            "RETRIEVE POSITION OF OBJECT {anchor} AT TIME {t}; \
             RETRIEVE OBJECTS INSIDE RECT ({rect_lo}, -1, {}, 1) AT TIME {t}; \
             RETRIEVE OBJECTS WITHIN {radius} OF POINT ({center}, 0) AT TIME {t}; \
             RETRIEVE OBJECTS WITHIN {radius} OF OBJECT {anchor} AT TIME {t}; \
             RETRIEVE {k} NEAREST OBJECTS TO POINT ({center}, 0) AT TIME {t}",
            rect_lo + rect_w,
        );
        fx.assert_script_equivalent(&script);
        fx.shutdown();
    }
}
