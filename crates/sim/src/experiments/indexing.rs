//! F5 / T3 / F6: the §4 indexing experiments.
//!
//! - **F5**: range-query latency and work, 3-D R\*-tree vs exhaustive
//!   scan, as the fleet grows — the sublinearity claim — on a fixed city
//!   and on one that grows with the fleet at constant density.
//! - **T3**: may/must answer quality — simulated ground-truth positions
//!   must satisfy `must ⊆ actually-in-G ⊆ must ∪ may`.
//! - **F6**: index-maintenance throughput for position updates (§4.2's
//!   delete-old-plane / insert-new-plane step), with and without a
//!   statement's clone pinning the structure the update writes to — and on
//!   an *aged* fleet, every vehicle already updated many times, as a
//!   long-running node's is.

use std::time::{Duration, Instant};

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::{Point, Polygon, Rect};
use modb_index::QueryRegion;
use modb_policy::BoundKind;
use modb_routes::{generators, Direction, RouteNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{fmt, render_table};
use crate::workload::fleet_positions;

/// Update cost used by the indexed fleet's policies.
const FLEET_C: f64 = 5.0;

/// Builds a city database: a grid network with `n` moving objects using
/// the ail policy descriptor.
pub fn build_city_db(seed: u64, n: usize, grid: usize) -> Database {
    let network = generators::grid_network(grid, grid, 1.0, 0).expect("valid grid");
    let route_ids = network.route_ids();
    let fleet = fleet_positions(seed, n, &route_ids, |rid| {
        network.get(rid).expect("generated route").length()
    });
    let mut db = Database::new(network, DatabaseConfig::default());
    for (i, (rid, arc, speed)) in fleet.into_iter().enumerate() {
        let route = db.network().get(rid).expect("route exists");
        let obj = MovingObject {
            id: ObjectId(i as u64),
            name: format!("veh-{i}"),
            attr: PositionAttribute {
                start_time: 0.0,
                route: rid,
                start_position: route.point_at(arc),
                start_arc: arc,
                direction: if i % 2 == 0 {
                    Direction::Forward
                } else {
                    Direction::Backward
                },
                speed,
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: FLEET_C,
                },
            },
            max_speed: 1.5,
            trip_end: Some(60.0),
        };
        db.register_moving(obj).expect("valid object");
    }
    db
}

/// Deterministic query regions over a network's extent: squares of
/// `side` miles at time `t`.
pub fn query_regions(
    network: &RouteNetwork,
    n: usize,
    side: f64,
    t: f64,
    seed: u64,
) -> Vec<QueryRegion> {
    let bbox = network.bbox();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(bbox.min.x..(bbox.max.x - side).max(bbox.min.x + 1e-9));
            let y = rng.gen_range(bbox.min.y..(bbox.max.y - side).max(bbox.min.y + 1e-9));
            let g =
                Polygon::rectangle(&Rect::new(Point::new(x, y), Point::new(x + side, y + side)))
                    .expect("valid rectangle");
            QueryRegion::at_instant(g, t)
        })
        .collect()
}

/// One fleet-size row of the sublinearity experiment.
#[derive(Debug, Clone, Copy)]
pub struct SublinearRow {
    /// Fleet size.
    pub n: usize,
    /// Streets each way of the city grid the fleet drives on.
    pub grid: usize,
    /// Mean index-query latency (microseconds).
    pub index_us: f64,
    /// Mean scan-query latency (microseconds).
    pub scan_us: f64,
    /// Scan / index speedup.
    pub speedup: f64,
    /// Mean R\*-tree nodes visited per query.
    pub nodes_visited: f64,
    /// Total nodes in the tree.
    pub tree_nodes: usize,
    /// Mean candidates (tree hits) per query.
    pub candidates: f64,
    /// Mean answer size (must + may) per query.
    pub answer: f64,
    /// Queries whose index answer differed from the scan's (expected 0).
    pub mismatches: usize,
}

/// Vehicles per square of the streets each way at which F5's
/// constant-density leg runs: the fixed leg's 20 000 on its 20 × 20 grid.
const F5_DENSITY: f64 = 20_000.0 / (20.0 * 20.0);

/// Runs F5 for the given fleet sizes on the fixed 20 × 20 city, so the
/// answer grows with the fleet.
pub fn run_sublinear(sizes: &[usize], queries_per_size: usize) -> Vec<SublinearRow> {
    sizes
        .iter()
        .map(|&n| sublinear_row(n, 20, queries_per_size))
        .collect()
}

/// Runs F5's constant-density leg: the grid grows with √n, so a 2-mile
/// query's answer stays the same size however large the fleet.
pub fn run_constant_density(sizes: &[usize], queries_per_size: usize) -> Vec<SublinearRow> {
    sizes
        .iter()
        .map(|&n| {
            let grid = ((n as f64 / F5_DENSITY).sqrt().round() as usize).max(2);
            sublinear_row(n, grid, queries_per_size)
        })
        .collect()
}

fn sublinear_row(n: usize, grid: usize, queries: usize) -> SublinearRow {
    let db = build_city_db(99, n, grid);
    let regions = query_regions(db.network(), queries, 2.0, 3.0, 7);
    // Warm-up, and the correctness check: index and scan must agree.
    let mismatches = regions
        .iter()
        .filter(|r| {
            let a = db.range_query(r).expect("query ok");
            let b = db.range_query_scan(r).expect("query ok");
            (a.must, a.may) != (b.must, b.may)
        })
        .count();
    let t0 = Instant::now();
    let (mut nodes, mut cands, mut answer) = (0, 0, 0);
    for r in &regions {
        let a = db.range_query(r).expect("query ok");
        nodes += a.stats.nodes_visited;
        cands += a.candidates;
        answer += a.must.len() + a.may.len();
    }
    let index_us = t0.elapsed().as_secs_f64() * 1e6 / regions.len() as f64;
    let t1 = Instant::now();
    for r in &regions {
        let _ = db.range_query_scan(r).expect("query ok");
    }
    let scan_us = t1.elapsed().as_secs_f64() * 1e6 / regions.len() as f64;
    let (_, tree_nodes, _) = db.index_tree_stats();
    let per_query = |total: usize| total as f64 / regions.len() as f64;
    SublinearRow {
        n,
        grid,
        index_us,
        scan_us,
        speedup: scan_us / index_us.max(1e-9),
        nodes_visited: per_query(nodes),
        tree_nodes,
        candidates: per_query(cands),
        answer: per_query(answer),
        mismatches,
    }
}

/// Renders the F5 table.
pub fn sublinear_table(rows: &[SublinearRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                fmt(r.index_us),
                fmt(r.scan_us),
                format!("{:.1}x", r.speedup),
                fmt(r.nodes_visited),
                r.tree_nodes.to_string(),
                fmt(r.candidates),
            ]
        })
        .collect();
    render_table(
        "F5: range-query cost, 3-D R*-tree vs exhaustive scan (2x2-mile queries, t=3)",
        &[
            "fleet",
            "index us/q",
            "scan us/q",
            "speedup",
            "nodes/q",
            "tree nodes",
            "cands/q",
        ],
        &table_rows,
    )
}

/// Renders F5's constant-density table.
pub fn constant_density_table(rows: &[SublinearRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{0}x{0}", r.grid),
                fmt(r.answer),
                fmt(r.nodes_visited),
                r.tree_nodes.to_string(),
                fmt(r.candidates),
                fmt(r.index_us / r.answer.max(1e-9)),
            ]
        })
        .collect();
    render_table(
        "F5 constant density: the grid grows with sqrt(fleet), the answer does not",
        &[
            "fleet",
            "grid",
            "answer/q",
            "nodes/q",
            "tree nodes",
            "cands/q",
            "index us/answer",
        ],
        &table_rows,
    )
}

/// Renders one F5 leg's count columns alone. They are exact — the same
/// fleet, queries and tree on every run — so unlike the timings beside
/// them they can be pinned byte for byte, and a change that reshapes the
/// tree or the filter shows as a diff.
pub fn counts_table(title: &str, rows: &[SublinearRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{0}x{0}", r.grid),
                fmt(r.answer),
                fmt(r.nodes_visited),
                r.tree_nodes.to_string(),
                fmt(r.candidates),
            ]
        })
        .collect();
    render_table(
        title,
        &[
            "fleet",
            "grid",
            "answer/q",
            "nodes/q",
            "tree nodes",
            "cands/q",
        ],
        &table_rows,
    )
}

/// T3 result: answer-quality counts over simulated ground truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct MayMustResult {
    /// Queries evaluated.
    pub queries: usize,
    /// Total must answers.
    pub must: usize,
    /// Total may answers.
    pub may: usize,
    /// Ground-truth objects inside their query polygon.
    pub actually_in: usize,
    /// Soundness violations: a `must` object actually outside G, or an
    /// in-G object missing from must ∪ may. Expected 0.
    pub violations: usize,
}

/// Runs T3: simulate each object's actual position uniformly inside its
/// uncertainty interval (the tightest adversary consistent with the
/// bounds) and check Theorems 5–6 semantics.
pub fn run_may_must(n_objects: usize, n_queries: usize, t: f64) -> MayMustResult {
    let db = build_city_db(123, n_objects, 20);
    let mut rng = StdRng::seed_from_u64(321);
    // Ground truth: a concrete arc for every object, inside its interval,
    // drawn in id order (the id map iterates in a per-process hash order).
    let mut ids: Vec<ObjectId> = db.moving_ids().collect();
    ids.sort_unstable();
    let mut actual: Vec<(ObjectId, Point)> = Vec::with_capacity(n_objects);
    for id in ids {
        let ans = db.position_of(id, t).expect("known object");
        let (lo, hi) = ans.interval;
        let arc = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        let obj = db.moving(id).expect("known object");
        let route = db.network().get(obj.attr.route).expect("route exists");
        actual.push((id, route.point_at(arc)));
    }
    let regions = query_regions(db.network(), n_queries, 3.0, t, 555);
    let mut result = MayMustResult {
        queries: n_queries,
        ..MayMustResult::default()
    };
    for region in &regions {
        let answer = db.range_query(region).expect("query ok");
        result.must += answer.must.len();
        result.may += answer.may.len();
        let all = answer.all();
        for (id, pos) in &actual {
            let inside = region.polygon().contains_point(*pos);
            if inside {
                result.actually_in += 1;
                if !all.contains(id) {
                    result.violations += 1; // missed an in-G object
                }
            } else if answer.must.contains(id) {
                result.violations += 1; // must object actually outside
            }
        }
    }
    result
}

/// Renders the T3 table.
pub fn may_must_table(r: &MayMustResult) -> String {
    render_table(
        "T3: may/must answer quality over simulated ground truth",
        &["queries", "must", "may", "actually in G", "violations"],
        &[vec![
            r.queries.to_string(),
            r.must.to_string(),
            r.may.to_string(),
            r.actually_in.to_string(),
            r.violations.to_string(),
        ]],
    )
}

/// How often F6's write-side leg republishes — clones the database and
/// pins the clone, as a running statement does — in updates: `None` is
/// never (no statement overlaps a write, every write is in place), 240
/// is one clone per 50 ms at the ledger's ≈ 4.8 k updates/s, 1 is the
/// worst case (a statement in flight across every write, so every write
/// finds every node it touches shared).
const F6_REPUBLISH_EVERY: [Option<usize>; 3] = [None, Some(240), Some(1)];

/// F6 result: index-maintenance throughput, and what a pinned clone adds
/// to it.
#[derive(Debug, Clone, Copy)]
pub struct IndexUpdateRow {
    /// Fleet size.
    pub n: usize,
    /// Updates between republications (`None`: never republished).
    pub republish_every: Option<usize>,
    /// Position updates applied.
    pub updates: usize,
    /// Mean microseconds per update (attribute write + plane delete +
    /// plane insert, plus this row's share of cloning the database and
    /// dropping the retired clone).
    pub us_per_update: f64,
    /// Mean allocations (tree nodes, id-map directories, chunks and
    /// buckets) an update copied because the pinned clone still held
    /// them — `Database::shared_with` read before each republication.
    pub copied_per_update: f64,
}

/// Runs F6: apply a position update to every object and time it, once
/// with nothing pinned and once per republication interval.
pub fn run_index_update(sizes: &[usize]) -> Vec<IndexUpdateRow> {
    let mut rows = Vec::with_capacity(sizes.len() * F6_REPUBLISH_EVERY.len());
    for &n in sizes {
        for republish_every in F6_REPUBLISH_EVERY {
            let mut db = build_city_db(7, n, 20);
            let mut ids: Vec<ObjectId> = db.moving_ids().collect();
            ids.sort_unstable();
            let mut published = republish_every.map(|every| (every, db.clone()));
            let mut copied = 0;
            let mut busy = Duration::ZERO;
            for (k, id) in ids.iter().enumerate() {
                let t0 = Instant::now();
                let obj = db.moving(*id).expect("known");
                let route = db.network().get(obj.attr.route).expect("route");
                let new_arc = (obj.attr.start_arc + 0.5).min(route.length());
                let msg = UpdateMessage::basic(
                    1.0 + (k as f64) * 1e-6,
                    UpdatePosition::Arc(new_arc),
                    0.8,
                );
                db.apply_update(*id, &msg).expect("valid update");
                busy += t0.elapsed();
                if let Some((every, pinned)) = &mut published {
                    if (k + 1) % *every == 0 {
                        // The count is the experiment's own cost; the clone
                        // and the drop of the retired one are the reader's.
                        let (shared, total) = db.shared_with(pinned);
                        copied += total - shared;
                        let t0 = Instant::now();
                        *pinned = db.clone();
                        busy += t0.elapsed();
                    }
                }
            }
            if let Some((_, pinned)) = &published {
                let (shared, total) = db.shared_with(pinned);
                copied += total - shared;
            }
            rows.push(IndexUpdateRow {
                n,
                republish_every,
                updates: ids.len(),
                us_per_update: busy.as_secs_f64() * 1e6 / ids.len() as f64,
                copied_per_update: copied as f64 / ids.len() as f64,
            });
        }
    }
    rows
}

/// F6's aged leg: what a fleet costs once every vehicle has reported
/// many times, nothing pinned.
#[derive(Debug, Clone, Copy)]
pub struct AgedUpdateRow {
    /// Fleet size.
    pub n: usize,
    /// Updates applied to every vehicle before the aged round.
    pub rounds: usize,
    /// What the fleet costs to hold: growth of the process's resident
    /// memory across building the city database, per vehicle (`None`
    /// where `/proc/self/statm` cannot be read).
    pub loaded_bytes_per_vehicle: Option<f64>,
    /// Growth of the process's resident memory over those rounds, per
    /// vehicle (`None` where `/proc/self/statm` cannot be read).
    pub resident_bytes_per_vehicle: Option<f64>,
    /// Mean microseconds per update in the first round (a fresh fleet).
    pub fresh_us_per_update: f64,
    /// Mean microseconds per update in one more round after the aging.
    pub aged_us_per_update: f64,
}

/// Resident set size of this process, in bytes (Linux; 4 KiB pages).
fn resident_bytes() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0)
}

/// Runs F6's aged leg: `rounds` updates per vehicle of an `n`-vehicle
/// city fleet, then one more round timed. Each update moves the vehicle
/// half a mile back or forth, so a vehicle stays on its route however
/// long the run, and rounds are 50 / `rounds` minutes apart, so every
/// update falls inside the fleet's 60-minute trips (past its trip end a
/// plane is a zero-length sliver, and a tree of slivers is another
/// experiment).
pub fn run_aged_update(n: usize, rounds: usize) -> AgedUpdateRow {
    let empty = resident_bytes();
    let mut db = build_city_db(7, n, 20);
    let loaded = resident_bytes();
    let mut ids: Vec<ObjectId> = db.moving_ids().collect();
    ids.sort_unstable();
    let round = |db: &mut Database, r: usize| -> Duration {
        let t0 = Instant::now();
        for (k, id) in ids.iter().enumerate() {
            let obj = db.moving(*id).expect("known");
            let route = db.network().get(obj.attr.route).expect("route");
            let step = if r.is_multiple_of(2) { 0.5 } else { -0.5 };
            let arc = (obj.attr.start_arc + step).clamp(0.0, route.length());
            let msg = UpdateMessage::basic(
                1.0 + r as f64 * 50.0 / rounds as f64 + (k as f64) * 1e-6,
                UpdatePosition::Arc(arc),
                0.8,
            );
            db.apply_update(*id, &msg).expect("valid update");
        }
        t0.elapsed()
    };
    let before = resident_bytes();
    let fresh = round(&mut db, 0);
    for r in 1..rounds {
        round(&mut db, r);
    }
    let after = resident_bytes();
    let aged = round(&mut db, rounds);
    let per_update = |d: Duration| d.as_secs_f64() * 1e6 / n as f64;
    let per_vehicle =
        |from: Option<f64>, to: Option<f64>| from.zip(to).map(|(b, a)| (a - b) / n as f64);
    AgedUpdateRow {
        n,
        rounds,
        loaded_bytes_per_vehicle: per_vehicle(empty, loaded),
        resident_bytes_per_vehicle: per_vehicle(before, after),
        fresh_us_per_update: per_update(fresh),
        aged_us_per_update: per_update(aged),
    }
}

/// Renders the F6 aged-fleet table.
pub fn aged_update_table(rows: &[AgedUpdateRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let bytes = |b: Option<f64>| b.map_or("n/a".to_string(), |b| format!("{b:.0}"));
            vec![
                r.n.to_string(),
                r.rounds.to_string(),
                bytes(r.loaded_bytes_per_vehicle),
                bytes(r.resident_bytes_per_vehicle),
                fmt(r.fresh_us_per_update),
                fmt(r.aged_us_per_update),
            ]
        })
        .collect();
    render_table(
        "F6 aged: a fleet every vehicle of which has already reported `updates` times",
        &[
            "fleet",
            "updates",
            "loaded B/vehicle",
            "resident B/vehicle",
            "us/update fresh",
            "us/update aged",
        ],
        &table_rows,
    )
}

/// Renders the F6 table.
pub fn index_update_table(rows: &[IndexUpdateRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.republish_every
                    .map_or("never".to_string(), |every| every.to_string()),
                r.updates.to_string(),
                fmt(r.us_per_update),
                fmt(r.copied_per_update),
            ]
        })
        .collect();
    render_table(
        "F6: index maintenance on position updates (delete old o-plane, insert new)",
        &[
            "fleet",
            "republish every",
            "updates",
            "us/update",
            "copied/update",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_db_builds() {
        let db = build_city_db(1, 50, 10);
        assert_eq!(db.moving_count(), 50);
    }

    #[test]
    fn sublinear_index_agrees_with_scan_and_wins() {
        let rows = run_sublinear(&[200, 800], 10);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.mismatches == 0), "{rows:?}");
        // The index visits far fewer entries than the fleet size at the
        // larger scale.
        let large = rows[1];
        assert!(
            large.candidates < large.n as f64 / 2.0,
            "index candidates {} should be far below fleet {}",
            large.candidates,
            large.n
        );
    }

    #[test]
    fn may_must_has_no_violations() {
        let r = run_may_must(150, 15, 3.0);
        assert_eq!(r.violations, 0, "{r:?}");
        assert!(r.must + r.may > 0, "some answers expected");
    }

    #[test]
    fn index_update_runs() {
        let rows = run_index_update(&[300]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.updates, 300);
            assert!(row.us_per_update > 0.0);
        }
        // Nothing pinned, nothing copied; a clone pinned after every
        // update makes each one copy its paths; republishing less often
        // lets later writes reuse what earlier ones already copied.
        let [never, sometimes, always] = [rows[0], rows[1], rows[2]];
        assert_eq!(never.republish_every, None);
        assert_eq!(never.copied_per_update, 0.0);
        assert!(always.copied_per_update >= 4.0, "{always:?}");
        assert!(sometimes.copied_per_update > 0.0);
        assert!(sometimes.copied_per_update < always.copied_per_update);
    }

    #[test]
    fn aged_update_runs() {
        let row = run_aged_update(200, 4);
        assert_eq!((row.n, row.rounds), (200, 4));
        assert!(row.fresh_us_per_update > 0.0 && row.aged_us_per_update > 0.0);
        let table = aged_update_table(&[row]);
        assert!(table.contains("loaded B/vehicle") && table.contains("resident B/vehicle"));
    }

    #[test]
    fn constant_density_grows_the_grid_with_the_fleet() {
        let rows = run_constant_density(&[200, 800], 5);
        assert_eq!((rows[0].grid, rows[1].grid), (2, 4));
        assert!(rows.iter().all(|r| r.mismatches == 0 && r.tree_nodes > 0));
        assert!(constant_density_table(&rows).contains("index us/answer"));
    }

    #[test]
    fn tables_render() {
        assert!(sublinear_table(&run_sublinear(&[100], 5)).contains("speedup"));
        assert!(may_must_table(&run_may_must(50, 5, 2.0)).contains("violations"));
        assert!(index_update_table(&run_index_update(&[50])).contains("us/update"));
    }
}
