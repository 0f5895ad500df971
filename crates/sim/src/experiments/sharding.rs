//! W6: shard-key evaluation — which partitioning fits which workload.
//!
//! The cluster layer asks a design question the paper's single radio
//! link never had to: *who owns which vehicle?* A hash key places
//! uniformly but answers every range query with a full fan-out; a
//! spatial key keeps local queries local but inherits the fleet's
//! geography, good and bad. Following the database-design-advisor
//! tradition (mongodb-d4), the experiment scores candidate
//! [`modb_server::ShardMap`]s against *recorded workloads* with the
//! normalized [`modb_server::CostModel`] (network fan-out, WAL
//! imbalance, temporal skew) instead of decreeing a winner:
//!
//! - **corridor-dispatch**: a commuter fleet spread along lanes, with
//!   cross-corridor dispatch rectangles chasing the rush front — range
//!   locality is along x, so vertical strips prune the fan-out.
//! - **district-rush**: the whole fleet packed into one district with
//!   city-wide queries — any spatial key piles every update on one
//!   shard, and the hash key's uniformity wins.
//!
//! The two workloads rank the keys *differently* — that reversal is
//! the experiment's point. A second leg grounds the model in the real
//! thing: it spins an actual 3-shard cluster plus a single union node
//! and checks the scatter-gather router's verdicts match statement for
//! statement (the **parity** bit), under both key strategies.

use std::path::PathBuf;
use std::sync::Arc;

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::{Point, Rect};
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{
    ClusterRouter, CostModel, DurableDatabase, QueryEngine, QueryServerConfig, RecordedWorkload,
    ShardMap, WorkloadOp,
};
use modb_wal::{FsyncPolicy, WalOptions};

use crate::report::{fmt, render_table};

/// Frame the synthetic workloads live in.
const FRAME_W: f64 = 900.0;
const FRAME_H: f64 = 90.0;

fn frame() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(FRAME_W, FRAME_H))
}

/// One scored (workload, shard map) cell.
#[derive(Debug, Clone)]
pub struct ShardingRow {
    /// Workload name.
    pub workload: &'static str,
    /// Shard-map label.
    pub map: String,
    /// Mean fan-out fraction.
    pub network: f64,
    /// WAL imbalance.
    pub disk: f64,
    /// Temporal load skew.
    pub skew: f64,
    /// Weighted total.
    pub total: f64,
}

/// Commuters on `lanes` horizontal lanes, spread along x; each tick the
/// whole fleet reports, a few are position-polled, and dispatch
/// rectangles (narrow in x, full height) chase the rush front across
/// the corridor.
fn corridor_dispatch(n_objects: usize, lanes: usize, ticks: usize) -> RecordedWorkload {
    let mut w = RecordedWorkload::new();
    let lanes = lanes.max(1);
    for i in 0..n_objects {
        let lane = i % lanes;
        let y = (lane as f64 + 0.5) * FRAME_H / lanes as f64;
        let x = (i / lanes) as f64 * 17.0 % FRAME_W;
        w.register(ObjectId(i as u64), Point::new(x, y));
    }
    for t in 0..ticks {
        let at = t as f64;
        for i in 0..n_objects {
            w.push(
                at,
                WorkloadOp::Update {
                    id: ObjectId(i as u64),
                },
            );
        }
        for poll in 0..(n_objects / 10).max(1) {
            w.push(
                at,
                WorkloadOp::Position {
                    id: ObjectId(((poll * 7 + t) % n_objects) as u64),
                },
            );
        }
        // The dispatch window follows the commute front.
        let front = FRAME_W * (t as f64 + 0.5) / ticks as f64;
        for _ in 0..4 {
            w.push(
                at,
                WorkloadOp::Range {
                    rect: Rect::new(
                        Point::new((front - 40.0).max(0.0), 0.0),
                        Point::new((front + 40.0).min(FRAME_W), FRAME_H),
                    ),
                },
            );
        }
    }
    w
}

/// The whole fleet packed into one district, with city-wide query
/// rectangles: geography is exactly what a spatial key should not
/// inherit here.
fn district_rush(n_objects: usize, ticks: usize) -> RecordedWorkload {
    let mut w = RecordedWorkload::new();
    for i in 0..n_objects {
        // A tight cluster in the south-west district.
        let x = 10.0 + (i as f64 * 13.0) % (FRAME_W / 6.0);
        let y = 5.0 + (i as f64 * 7.0) % (FRAME_H / 6.0);
        w.register(ObjectId(i as u64), Point::new(x, y));
    }
    for t in 0..ticks {
        let at = t as f64;
        for i in 0..n_objects {
            w.push(
                at,
                WorkloadOp::Update {
                    id: ObjectId(i as u64),
                },
            );
        }
        for q in 0..3 {
            let x0 = (q as f64) * FRAME_W / 4.0;
            w.push(
                at,
                WorkloadOp::Range {
                    rect: Rect::new(Point::new(x0, 0.0), Point::new(x0 + FRAME_W / 2.0, FRAME_H)),
                },
            );
        }
    }
    w
}

/// Scores the three candidate maps against both workloads.
pub fn score_shard_keys(n_objects: usize, n_shards: usize, ticks: usize) -> Vec<ShardingRow> {
    let model = CostModel::default();
    let maps: Vec<(String, ShardMap)> = vec![
        (format!("hash({n_shards})"), ShardMap::hash(n_shards)),
        (
            format!("vertical({n_shards})"),
            ShardMap::vertical_strips(frame(), n_shards),
        ),
        (
            format!("horizontal({n_shards})"),
            ShardMap::horizontal_strips(frame(), n_shards),
        ),
    ];
    let workloads: Vec<(&'static str, RecordedWorkload)> = vec![
        (
            "corridor-dispatch",
            corridor_dispatch(n_objects, n_shards, ticks),
        ),
        ("district-rush", district_rush(n_objects, ticks)),
    ];
    let mut rows = Vec::new();
    for (wname, w) in &workloads {
        for (mname, map) in &maps {
            let b = model.score(map, w);
            rows.push(ShardingRow {
                workload: wname,
                map: mname.clone(),
                network: b.network,
                disk: b.disk,
                skew: b.skew,
                total: b.total,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Parity leg: a real 3-shard cluster vs the union node.
// ---------------------------------------------------------------------

const ROUTE_LEN: f64 = 1000.0;

fn fresh_db() -> Database {
    let route = Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
    )
    .expect("straight route");
    Database::new(
        RouteNetwork::from_routes([route]).expect("singleton network"),
        DatabaseConfig::default(),
    )
}

fn vehicle(id: u64, arc: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        name: format!("veh-{id}"),
        attr: PositionAttribute {
            start_time: 0.0,
            route: RouteId(1),
            start_position: Point::new(arc, 0.0),
            start_arc: arc,
            direction: Direction::Forward,
            speed: 1.0,
            policy: PolicyDescriptor::CostBased {
                kind: BoundKind::Immediate,
                update_cost: 5.0,
            },
        },
        max_speed: 2.0,
        trip_end: None,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modb-exp-w6-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_options() -> WalOptions {
    WalOptions {
        fsync: FsyncPolicy::Never,
        max_segment_bytes: 1024 * 1024,
    }
}

/// Spins `n_shards` real servers plus a union node, pushes the fleet's
/// updates through the scatter-gather router, and checks the routed
/// verdicts match the union node statement for statement.
pub fn cluster_parity(n_objects: usize, n_shards: usize, spatial: bool) -> bool {
    let map = if spatial {
        ShardMap::vertical_strips(
            Rect::new(Point::new(0.0, -5.0), Point::new(ROUTE_LEN, 5.0)),
            n_shards,
        )
    } else {
        ShardMap::hash(n_shards)
    };
    let tag = if spatial { "spatial" } else { "hash" };

    struct Node {
        durable: DurableDatabase,
        engine: Arc<QueryEngine>,
        service: Option<modb_server::IngestService>,
        server: Option<modb_server::QueryServer>,
        dir: PathBuf,
    }
    let node = |name: &str, serve: bool| {
        let dir = scratch_dir(name);
        let durable = DurableDatabase::create(&dir, fresh_db(), wal_options()).expect("create");
        let engine = Arc::new(QueryEngine::new(durable.database().clone()));
        let (service, server) = if serve {
            let service = durable.ingest_service(2, 0);
            let server = durable
                .serve_queries(
                    Arc::clone(&engine),
                    Some(service.handle()),
                    "127.0.0.1:0",
                    QueryServerConfig::default(),
                )
                .expect("serve");
            (Some(service), Some(server))
        } else {
            (None, None)
        };
        Node {
            durable,
            engine,
            service,
            server,
            dir,
        }
    };

    let shards: Vec<Node> = (0..n_shards)
        .map(|i| node(&format!("{tag}-s{i}"), true))
        .collect();
    let union = node(&format!("{tag}-union"), false);
    let addrs: Vec<_> = shards
        .iter()
        .map(|n| n.server.as_ref().unwrap().local_addr())
        .collect();
    let mut router = ClusterRouter::connect(&addrs, map).expect("connect");

    for i in 0..n_objects as u64 {
        let arc = 5.0 + (i as f64 * 37.0) % (ROUTE_LEN - 10.0);
        let v = vehicle(i, arc);
        let home = router.route_registration(v.id, &v.name, Point::new(arc, 0.0));
        shards[home]
            .durable
            .register_moving(v.clone())
            .expect("register");
        union.durable.register_moving(v).expect("register");
    }
    // Move a third of the fleet over the remote-ingest path.
    for i in (0..n_objects as u64).step_by(3) {
        let arc = 8.0 + (i as f64 * 37.0) % (ROUTE_LEN - 10.0);
        let msg = UpdateMessage::basic(4.0, UpdatePosition::Arc(arc), 1.0);
        let v = router.update(ObjectId(i), &msg).expect("routed update");
        assert!(v.is_accepted(), "{v:?}");
        union
            .durable
            .apply_update(ObjectId(i), &msg)
            .expect("union update");
    }

    let script = (0..n_objects.min(8))
        .map(|i| {
            let x0 = (i as f64) * ROUTE_LEN / 9.0;
            format!(
                "RETRIEVE POSITION OF OBJECT {i} AT TIME 6; \
                 RETRIEVE OBJECTS INSIDE RECT ({x0}, -1, {}, 1) AT TIME 6; \
                 RETRIEVE OBJECTS WITHIN 90 OF OBJECT {i} AT TIME 6; \
                 RETRIEVE 4 NEAREST OBJECTS TO POINT ({x0}, 0) AT TIME 6",
                x0 + 150.0
            )
        })
        .collect::<Vec<_>>()
        .join("; ");

    let remote = router.run_batch(&script).expect("routed batch");
    let local = union.engine.run_batch(&script);
    let mut parity = remote.len() == local.len();
    for (r, l) in remote.iter().zip(&local) {
        let same = match (r, l) {
            // Traversal diagnostics are additive across shards; the
            // answer is the may/must sets.
            (Ok(modb_query::QueryResult::Range(r)), Ok(modb_query::QueryResult::Range(l))) => {
                r.must == l.must && r.may == l.may
            }
            (Ok(r), Ok(l)) => r == l,
            (Err(r), Err(l)) => r == &l.to_string(),
            _ => false,
        };
        parity = parity && same;
    }

    router.close();
    for n in shards.into_iter().chain(std::iter::once(union)) {
        if let Some(server) = n.server {
            server.shutdown();
        }
        if let Some(service) = n.service {
            service.shutdown();
        }
        drop(n.durable);
        let _ = std::fs::remove_dir_all(&n.dir);
    }
    parity
}

/// Renders the W6 score table.
pub fn sharding_table(n_objects: usize, n_shards: usize, rows: &[ShardingRow]) -> String {
    render_table(
        &format!(
            "W6: shard-key cost scores, {n_objects} objects over {n_shards} shards \
             (lower is better; α=β=γ=1)"
        ),
        &["workload", "shard key", "network", "disk", "skew", "total"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.to_string(),
                    r.map.clone(),
                    fmt(r.network),
                    fmt(r.disk),
                    fmt(r.skew),
                    fmt(r.total),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Serializes the scores and parity bits as a small JSON document (the
/// CI perf artifact `BENCH_sharding.json`).
pub fn sharding_json(rows: &[ShardingRow], parity_hash: bool, parity_spatial: bool) -> String {
    let mut out = String::from("{\n  \"scores\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"map\": \"{}\", \"network\": {:.6}, \
             \"disk\": {:.6}, \"skew\": {:.6}, \"total\": {:.6}}}{}\n",
            r.workload,
            r.map,
            r.network,
            r.disk,
            r.skew,
            r.total,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"parity\": {{\"hash\": {parity_hash}, \"spatial\": {parity_spatial}}}\n}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_rank_differently_across_workloads() {
        let rows = score_shard_keys(120, 3, 12);
        assert_eq!(rows.len(), 6);
        let total = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.map.starts_with(m))
                .unwrap()
                .total
        };
        // Cross-corridor dispatch: vertical strips prune the fan-out
        // that hash pays in full.
        assert!(
            total("corridor-dispatch", "vertical") < total("corridor-dispatch", "hash"),
            "{rows:?}"
        );
        // A clustered fleet: the hash key beats any strip key that
        // inherits the cluster.
        assert!(
            total("district-rush", "hash") < total("district-rush", "vertical"),
            "{rows:?}"
        );
        for r in &rows {
            for v in [r.network, r.disk, r.skew, r.total] {
                assert!((0.0..=1.0).contains(&v), "{r:?}");
            }
        }
    }

    #[test]
    fn smoke_cluster_parity_both_keys() {
        assert!(cluster_parity(12, 3, false), "hash cluster diverged");
        assert!(cluster_parity(12, 3, true), "spatial cluster diverged");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = score_shard_keys(30, 3, 4);
        let json = sharding_json(&rows, true, true);
        assert!(json.contains("\"scores\""));
        assert!(json.contains("\"parity\""));
        assert_eq!(json.matches("\"workload\"").count(), rows.len());
    }
}
