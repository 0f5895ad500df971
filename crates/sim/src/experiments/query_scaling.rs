//! W2: range-query throughput scaling — global lock vs a clone per
//! statement.
//!
//! The paper's workload (§1) is read-heavy: many users pose range queries
//! while vehicles stream position updates. This experiment measures how
//! the two read paths scale with query threads under that contention:
//!
//! - **locked**: every query takes the [`SharedDatabase`] read lock for
//!   its whole filter + refine pass, serializing against the writer.
//! - **snapshot**: queries run on [`QueryEngine`], each against a clone
//!   of the database taken when it starts — the read lock is held for
//!   the O(1) clone only, none during filter and refine; the writer pays
//!   instead, copying the path it changes while a clone holds it.
//!
//! A background writer applies position updates as fast as it can for
//! the whole measurement window, in both modes, so the numbers include
//! the reader–writer interference the clone removes. Both modes answer
//! from every write applied before the query began.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_index::QueryRegion;
use modb_server::{QueryEngine, SharedDatabase};

use crate::experiments::indexing::{build_city_db, query_regions};
use crate::report::{fmt, render_table};

/// The read paths compared by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Queries through the global readers–writer lock.
    Locked,
    /// Queries through the engine, a clone per statement.
    Snapshot,
}

impl QueryMode {
    /// Human-readable label for the report table.
    pub fn label(&self) -> &'static str {
        match self {
            QueryMode::Locked => "locked",
            QueryMode::Snapshot => "snapshot",
        }
    }
}

/// One (mode, thread-count) measurement.
#[derive(Debug, Clone)]
pub struct QueryScalingRow {
    /// Mode label.
    pub label: &'static str,
    /// Concurrent query threads.
    pub threads: usize,
    /// Range queries answered inside the window.
    pub queries: u64,
    /// Queries per second (all threads combined).
    pub qps: f64,
    /// Mean per-query latency in microseconds.
    pub mean_us: f64,
    /// Throughput relative to the locked mode at the same thread count
    /// (1.0 for the locked rows themselves).
    pub speedup: f64,
    /// Updates the background writer applied during the window — the
    /// ingest side of the interference.
    pub ingest_per_sec: f64,
}

/// Runs one (mode, threads) window and returns (queries, writer updates).
fn run_window(
    db: &SharedDatabase,
    regions: &[QueryRegion],
    mode: QueryMode,
    threads: usize,
    window: Duration,
    n_objects: usize,
) -> (u64, u64) {
    let engine = match mode {
        QueryMode::Locked => None,
        QueryMode::Snapshot => Some(QueryEngine::new(db.clone())),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let queries = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    std::thread::scope(|s| {
        // The background writer: monotone per-object report times, as
        // fast as the write lock admits.
        {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            let writes = &writes;
            s.spawn(move || {
                let mut round = 0u64;
                let mut applied = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    // Keep times below the query time so the fleet stays
                    // query-visible for the whole window.
                    let t = round as f64 * 1e-5;
                    for i in 0..64u64 {
                        let id = (round * 64 + i) % n_objects as u64;
                        let _ = db.apply_update(
                            ObjectId(id),
                            &UpdateMessage::basic(t, UpdatePosition::Arc(0.5), 0.7),
                        );
                        applied += 1;
                    }
                }
                writes.fetch_add(applied, Ordering::Relaxed);
            });
        }
        for p in 0..threads {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            let engine = engine.as_ref();
            let queries = &queries;
            s.spawn(move || {
                let deadline = Instant::now() + window;
                let mut count = 0u64;
                let mut i = p; // stagger the region sequence per thread
                while Instant::now() < deadline {
                    let region = &regions[i % regions.len()];
                    i += 1;
                    let answer = match engine {
                        Some(e) => e.range_query(region),
                        None => db.with_read(|d| d.range_query(region)),
                    };
                    answer.expect("range query succeeds");
                    count += 1;
                }
                queries.fetch_add(count, Ordering::Relaxed);
                if p == 0 {
                    stop.store(true, Ordering::Relaxed);
                }
            });
        }
    });
    (
        queries.load(Ordering::Relaxed),
        writes.load(Ordering::Relaxed),
    )
}

/// Runs the experiment: for each thread count, the same query mix and
/// writer churn through both read paths over a fresh copy of the same
/// seeded city fleet.
pub fn run_query_scaling(
    n_objects: usize,
    grid: usize,
    thread_counts: &[usize],
    window_ms: u64,
) -> Vec<QueryScalingRow> {
    let window = Duration::from_millis(window_ms.max(1));
    let mut rows = Vec::with_capacity(thread_counts.len() * 2);
    for &threads in thread_counts {
        let mut locked_qps = 0.0;
        for mode in [QueryMode::Locked, QueryMode::Snapshot] {
            // A fresh fleet per window: both modes start from identical
            // state and the writer's clock restarts.
            let raw = build_city_db(42, n_objects, grid);
            let regions = query_regions(raw.network(), 64, 2.0, 5.0, 7);
            let db = SharedDatabase::new(raw);
            let (queries, writes) = run_window(&db, &regions, mode, threads, window, n_objects);
            let secs = window.as_secs_f64();
            let qps = queries as f64 / secs;
            if mode == QueryMode::Locked {
                locked_qps = qps;
            }
            rows.push(QueryScalingRow {
                label: mode.label(),
                threads,
                queries,
                qps,
                mean_us: if queries == 0 {
                    0.0
                } else {
                    secs * 1e6 * threads as f64 / queries as f64
                },
                speedup: if mode == QueryMode::Locked || locked_qps == 0.0 {
                    1.0
                } else {
                    qps / locked_qps
                },
                ingest_per_sec: writes as f64 / secs,
            });
        }
    }
    rows
}

/// Renders the W2 report table.
pub fn query_scaling_table(rows: &[QueryScalingRow]) -> String {
    render_table(
        "W2: range-query scaling under concurrent ingest (locked vs a clone per statement)",
        &[
            "mode",
            "threads",
            "queries",
            "queries/s",
            "mean us",
            "speedup",
            "ingest/s",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    r.threads.to_string(),
                    r.queries.to_string(),
                    fmt(r.qps),
                    fmt(r.mean_us),
                    fmt(r.speedup),
                    fmt(r.ingest_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_consistent_rows() {
        let rows = run_query_scaling(200, 6, &[1, 2], 40);
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].label, "locked");
            assert_eq!(pair[1].label, "snapshot");
            assert_eq!(pair[0].threads, pair[1].threads);
            assert_eq!(pair[0].speedup, 1.0);
            assert!(pair[1].speedup > 0.0);
        }
        for r in &rows {
            assert!(
                r.queries > 0,
                "{} at {} threads answered none",
                r.label,
                r.threads
            );
            assert!(r.qps > 0.0);
            assert!(r.mean_us > 0.0);
        }
        let table = query_scaling_table(&rows);
        assert!(table.contains("snapshot"));
        assert!(table.contains("queries/s"));
    }
}
