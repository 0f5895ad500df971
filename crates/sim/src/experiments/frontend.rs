//! W5: query front-end overhead — what the wire adds per statement.
//!
//! The paper's cost model (§5) prices the *update* wire; the query wire
//! deserves the same honesty. A remote batch pays framing, CRC, a
//! round trip, and result serialization on top of the engine's own
//! execution, and the per-statement toll shrinks as batching amortizes
//! the round trip — the same argument the ingest path makes for
//! batching updates.
//!
//! Each phase runs the *same* script twice per repetition: once
//! in-process via [`modb_server::QueryEngine::run_batch`], once through
//! a loopback [`modb_server::QueryClient`] against a
//! [`modb_server::DurableDatabase::serve_queries`] front-end. It reports
//! per-statement wall time for both paths, the overhead ratio, and a
//! **parity** column: the remote verdicts must equal the local ones
//! statement for statement (errors compared by display string) — the
//! front-end's correctness contract, measured rather than assumed.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{DurableDatabase, QueryClient, QueryEngine, QueryServerConfig};
use modb_wal::{FsyncPolicy, WalOptions};

use crate::report::{fmt, render_table};

const ROUTE_LEN: f64 = 100_000.0;

/// One batch-size phase of the W5 experiment.
#[derive(Debug, Clone)]
pub struct FrontendRow {
    /// Statements per batch.
    pub batch_size: usize,
    /// Batches run per path (local and remote).
    pub reps: usize,
    /// Mean in-process time per statement, µs.
    pub local_us: f64,
    /// Mean over-the-wire time per statement, µs.
    pub remote_us: f64,
    /// `remote_us / local_us`.
    pub overhead: f64,
    /// `true` iff every remote verdict equalled its local twin.
    pub parity: bool,
}

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
    let dir = std::env::temp_dir().join(format!("modb-exp-w5-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A script of `size` statements cycling through the three query kinds,
/// touching different objects and regions so batches are not trivially
/// cacheable.
fn script(size: usize, n_objects: usize) -> String {
    (0..size)
        .map(|i| {
            let id = i % n_objects;
            match i % 3 {
                0 => format!("RETRIEVE POSITION OF OBJECT {id} AT TIME 8"),
                1 => {
                    let x0 = (i % 7) as f64 * 10.0;
                    format!(
                        "RETRIEVE OBJECTS INSIDE RECT ({x0}, -1, {}, 1) AT TIME 8",
                        x0 + 200.0
                    )
                }
                _ => format!(
                    "RETRIEVE 5 NEAREST OBJECTS TO POINT ({}, 0) AT TIME 8",
                    (i % 11) as f64 * 20.0
                ),
            }
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Runs the experiment: one serving database, one phase per batch size.
pub fn run_frontend_overhead(
    n_objects: usize,
    batch_sizes: &[usize],
    reps: usize,
) -> Vec<FrontendRow> {
    let dir = scratch_dir("serve");
    let durable = DurableDatabase::create(
        &dir,
        fresh_db(),
        WalOptions {
            fsync: FsyncPolicy::Never,
            max_segment_bytes: 1024 * 1024,
        },
    )
    .expect("create");
    for i in 0..n_objects as u64 {
        durable
            .register_moving(vehicle(i, 5.0 + i as f64 * 7.0))
            .expect("register");
    }
    for i in 0..n_objects as u64 {
        durable
            .apply_update(
                ObjectId(i),
                &UpdateMessage::basic(4.0, UpdatePosition::Arc(5.0 + i as f64 * 7.0 + 4.0), 1.0),
            )
            .expect("update");
    }
    let engine = Arc::new(QueryEngine::new(durable.database().clone()));
    let server = durable
        .serve_queries(
            Arc::clone(&engine),
            None,
            "127.0.0.1:0",
            QueryServerConfig::default(),
        )
        .expect("serve");
    let mut client = QueryClient::connect(server.local_addr()).expect("connect");

    let reps = reps.max(1);
    let rows = batch_sizes
        .iter()
        .map(|&size| {
            let size = size.max(1);
            let src = script(size, n_objects);
            // Warm both paths (first batch pays allocator warm-up and,
            // remotely, socket buffer growth).
            let _ = engine.run_batch(&src);
            let _ = client.batch(&src).expect("warm-up batch");

            let mut parity = true;
            let t0 = Instant::now();
            let mut local_last = Vec::new();
            for _ in 0..reps {
                local_last = engine.run_batch(&src);
            }
            let local_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * size) as f64;

            let t1 = Instant::now();
            let mut remote_last = Vec::new();
            for _ in 0..reps {
                remote_last = client.batch(&src).expect("remote batch");
            }
            let remote_us = t1.elapsed().as_secs_f64() * 1e6 / (reps * size) as f64;

            for (r, l) in remote_last.iter().zip(&local_last) {
                let same = match (r, l) {
                    (Ok(r), Ok(l)) => r == l,
                    (Err(r), Err(l)) => r == &l.to_string(),
                    _ => false,
                };
                parity = parity && same;
            }
            FrontendRow {
                batch_size: size,
                reps,
                local_us,
                remote_us,
                overhead: remote_us / local_us.max(1e-9),
                parity,
            }
        })
        .collect();
    client.close();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// Renders the W5 report table.
pub fn frontend_table(n_objects: usize, rows: &[FrontendRow]) -> String {
    render_table(
        &format!(
            "W5: query front-end overhead at {n_objects} objects \
             (loopback TCP vs in-process, same engine)"
        ),
        &[
            "batch",
            "reps",
            "local µs/stmt",
            "remote µs/stmt",
            "overhead ×",
            "parity",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.batch_size.to_string(),
                    r.reps.to_string(),
                    fmt(r.local_us),
                    fmt(r.remote_us),
                    fmt(r.overhead),
                    if r.parity { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_keeps_parity_across_the_wire() {
        let rows = run_frontend_overhead(16, &[1, 8], 3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.parity,
                "batch {}: remote diverged from local",
                r.batch_size
            );
            assert!(r.local_us > 0.0);
            assert!(r.remote_us > 0.0);
        }
        let table = frontend_table(16, &rows);
        assert!(table.contains("W5"));
        assert!(table.contains("parity"));
    }
}
