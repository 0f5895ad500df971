//! W6: shard-key evaluation — which partitioning fits which workload.
//!
//! The cluster layer asks a design question the paper's single radio
//! link never had to: *who owns which vehicle?* A hash key places
//! uniformly but answers every range query with a full fan-out; a
//! spatial key keeps local queries local but inherits the fleet's
//! geography, good and bad. Following the database-design-advisor
//! tradition (mongodb-d4), the experiment scores candidate
//! [`modb_server::ShardMap`]s against workload traces on three
//! normalized axes (network fan-out, WAL imbalance, temporal skew)
//! instead of decreeing a winner:
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
use modb_server::{ClusterRouter, DurableDatabase, QueryEngine, QueryServerConfig, ShardMap};
use modb_wal::{FsyncPolicy, WalOptions};

use crate::report::{fmt, render_table};

/// Frame the synthetic workloads live in.
const FRAME_W: f64 = 900.0;
const FRAME_H: f64 = 90.0;

fn frame() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(FRAME_W, FRAME_H))
}

/// Time slices of a trace's span the skew term is measured in.
const SKEW_SEGMENTS: usize = 9;

/// One scored (workload, shard map) cell. Each score is in `[0, 1]`,
/// lower is better.
#[derive(Debug, Clone)]
pub struct ShardingRow {
    /// Workload name.
    pub workload: &'static str,
    /// Shard-map label.
    pub map: String,
    /// Mean fraction of the cluster an operation touches: one shard for
    /// an update or a position lookup, every shard whose region a range
    /// rectangle meets (all of them under a hash key).
    pub network: f64,
    /// Imbalance of the logged updates across shards — a skewed key
    /// makes one shard's WAL the cluster's write bottleneck.
    pub disk: f64,
    /// Imbalance of all operations within each of nine equal slices of
    /// the trace's span (`SKEW_SEGMENTS`), weighted by the slice's load:
    /// a fleet balanced on average can still overload one shard every
    /// rush hour.
    pub skew: f64,
    /// Mean of the three.
    pub total: f64,
}

/// One operation of a workload trace.
enum Op {
    /// A position update, routed to the reporting object's home shard
    /// and logged there.
    Update(ObjectId),
    /// A position lookup, routed to the object's home shard.
    Position(ObjectId),
    /// A range query, sent to every shard whose region meets the
    /// rectangle.
    Range(Rect),
}

/// A workload trace: object `i`'s start position (where a spatial key
/// places it) at `starts[i]`, and time-stamped operations.
#[derive(Default)]
struct Workload {
    starts: Vec<Point>,
    ops: Vec<(f64, Op)>,
}

/// `(max − mean) / (total − mean)`: 0 when every shard carries the
/// same load, 1 when one shard carries all of it. No load, or a single
/// shard, is balanced by definition.
fn imbalance(per_shard: &[f64]) -> f64 {
    let total: f64 = per_shard.iter().sum();
    if total <= 0.0 || per_shard.len() < 2 {
        return 0.0;
    }
    let mean = total / per_shard.len() as f64;
    let max = per_shard.iter().cloned().fold(0.0, f64::max);
    ((max - mean) / (total - mean)).clamp(0.0, 1.0)
}

/// Scores `map` against the trace `w` (see [`ShardingRow`] for the
/// three axes).
fn score(workload: &'static str, label: &str, map: &ShardMap, w: &Workload) -> ShardingRow {
    let shards = map.shards();
    let (t0, t1) = w
        .ops
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(t, _)| {
            (lo.min(t), hi.max(t))
        });
    let segment = |t: f64| -> usize {
        if t1 <= t0 {
            0
        } else {
            (((t - t0) / (t1 - t0) * SKEW_SEGMENTS as f64) as usize).min(SKEW_SEGMENTS - 1)
        }
    };
    let home = |id: ObjectId| map.assign(id, w.starts[id.0 as usize]);

    let mut fanout_sum = 0.0;
    let mut wal_per_shard = vec![0.0; shards];
    let mut segment_loads = vec![vec![0.0; shards]; SKEW_SEGMENTS];
    for (t, op) in &w.ops {
        let touched = match op {
            Op::Update(id) => {
                let shard = home(*id);
                wal_per_shard[shard] += 1.0;
                vec![shard]
            }
            Op::Position(id) => vec![home(*id)],
            Op::Range(rect) => map.shards_for_rect(rect),
        };
        fanout_sum += touched.len() as f64 / shards as f64;
        let loads = &mut segment_loads[segment(*t)];
        for s in touched {
            loads[s] += 1.0;
        }
    }

    let network = fanout_sum / w.ops.len().max(1) as f64;
    let disk = imbalance(&wal_per_shard);
    let weighted: f64 = segment_loads
        .iter()
        .map(|loads| imbalance(loads) * loads.iter().sum::<f64>())
        .sum();
    let load: f64 = segment_loads.iter().map(|l| l.iter().sum::<f64>()).sum();
    let skew = weighted / load.max(1.0);
    ShardingRow {
        workload,
        map: label.to_string(),
        network,
        disk,
        skew,
        total: (network + disk + skew) / 3.0,
    }
}

/// Commuters on `lanes` horizontal lanes, spread along x; each tick the
/// whole fleet reports, a few are position-polled, and dispatch
/// rectangles (narrow in x, full height) chase the rush front across
/// the corridor.
fn corridor_dispatch(n_objects: usize, lanes: usize, ticks: usize) -> Workload {
    let mut w = Workload::default();
    let lanes = lanes.max(1);
    for i in 0..n_objects {
        let lane = i % lanes;
        let y = (lane as f64 + 0.5) * FRAME_H / lanes as f64;
        let x = (i / lanes) as f64 * 17.0 % FRAME_W;
        w.starts.push(Point::new(x, y));
    }
    for t in 0..ticks {
        let at = t as f64;
        for i in 0..n_objects {
            w.ops.push((at, Op::Update(ObjectId(i as u64))));
        }
        for poll in 0..(n_objects / 10).max(1) {
            let id = ObjectId(((poll * 7 + t) % n_objects) as u64);
            w.ops.push((at, Op::Position(id)));
        }
        // The dispatch window follows the commute front.
        let front = FRAME_W * (t as f64 + 0.5) / ticks as f64;
        let window = Rect::new(
            Point::new((front - 40.0).max(0.0), 0.0),
            Point::new((front + 40.0).min(FRAME_W), FRAME_H),
        );
        for _ in 0..4 {
            w.ops.push((at, Op::Range(window)));
        }
    }
    w
}

/// The whole fleet packed into one district, with city-wide query
/// rectangles: geography is exactly what a spatial key should not
/// inherit here.
fn district_rush(n_objects: usize, ticks: usize) -> Workload {
    let mut w = Workload::default();
    for i in 0..n_objects {
        // A tight cluster in the south-west district.
        let x = 10.0 + (i as f64 * 13.0) % (FRAME_W / 6.0);
        let y = 5.0 + (i as f64 * 7.0) % (FRAME_H / 6.0);
        w.starts.push(Point::new(x, y));
    }
    for t in 0..ticks {
        let at = t as f64;
        for i in 0..n_objects {
            w.ops.push((at, Op::Update(ObjectId(i as u64))));
        }
        for q in 0..3 {
            let x0 = (q as f64) * FRAME_W / 4.0;
            let rect = Rect::new(Point::new(x0, 0.0), Point::new(x0 + FRAME_W / 2.0, FRAME_H));
            w.ops.push((at, Op::Range(rect)));
        }
    }
    w
}

/// Scores the three candidate maps against both workloads.
pub fn score_shard_keys(n_objects: usize, n_shards: usize, ticks: usize) -> Vec<ShardingRow> {
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
    let workloads: Vec<(&'static str, Workload)> = vec![
        (
            "corridor-dispatch",
            corridor_dispatch(n_objects, n_shards, ticks),
        ),
        ("district-rush", district_rush(n_objects, ticks)),
    ];
    let mut rows = Vec::new();
    for (wname, w) in &workloads {
        for (mname, map) in &maps {
            rows.push(score(wname, mname, map, w));
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

    fn corridor() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(90.0, 30.0))
    }

    /// Fleet spread evenly over three vertical strips, each object
    /// updating in place; local range queries in the left strip.
    fn local_workload() -> Workload {
        let mut w = Workload::default();
        for i in 0..300 {
            let x = (i % 3) as f64 * 30.0 + 15.0;
            w.starts.push(Point::new(x, 15.0));
        }
        for t in 0..10 {
            for i in 0..300 {
                w.ops.push((t as f64, Op::Update(ObjectId(i))));
            }
            let rect = Rect::new(Point::new(1.0, 1.0), Point::new(20.0, 20.0));
            w.ops.push((t as f64, Op::Range(rect)));
        }
        w
    }

    #[test]
    fn spatial_key_beats_hash_on_local_range_queries() {
        let w = local_workload();
        let hash = score("local", "hash", &ShardMap::hash(3), &w);
        let strips = ShardMap::vertical_strips(corridor(), 3);
        let spatial = score("local", "vertical", &strips, &w);
        // The spatial key answers the left-strip query from one shard.
        assert!(spatial.network < hash.network, "{spatial:?} vs {hash:?}");
        assert!(spatial.total < hash.total);
        // Both keys spread this even fleet's WAL roughly evenly (hash
        // placement is statistical, so its slack is wider).
        assert!(spatial.disk < 0.1, "{spatial:?}");
        assert!(hash.disk < 0.3, "{hash:?}");
    }

    #[test]
    fn skew_term_catches_a_clustered_fleet() {
        // Whole fleet in the left strip: a vertical spatial key piles
        // every update on shard 0.
        let mut w = Workload::default();
        for i in 0..300 {
            w.starts.push(Point::new(5.0, 15.0));
            w.ops.push((0.0, Op::Update(ObjectId(i))));
            w.ops.push((1.0, Op::Update(ObjectId(i))));
        }
        let strips = ShardMap::vertical_strips(corridor(), 3);
        let spatial = score("clustered", "vertical", &strips, &w);
        let hash = score("clustered", "hash", &ShardMap::hash(3), &w);
        assert!(spatial.disk > 0.9, "{spatial:?}");
        assert!(spatial.skew > 0.9, "{spatial:?}");
        assert!(hash.disk < 0.3, "{hash:?}");
        assert!(hash.total < spatial.total);
    }

    #[test]
    fn imbalance_is_normalized() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[10.0]), 0.0);
        assert_eq!(imbalance(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(imbalance(&[12.0, 0.0, 0.0]), 1.0);
        let mid = imbalance(&[8.0, 4.0, 0.0]);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn smoke_cluster_parity_both_keys() {
        assert!(cluster_parity(12, 3, false), "hash cluster diverged");
        assert!(cluster_parity(12, 3, true), "spatial cluster diverged");
    }
}
