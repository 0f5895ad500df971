//! W1: ingest throughput with and without the write-ahead log.
//!
//! The paper prices imprecision in update messages; durability has a
//! price too. This experiment measures it: the same striped ingest
//! workload is driven through [`modb_server::IngestService`] four times —
//! no WAL, then WAL-backed under each [`FsyncPolicy`] — and the wall
//! clock for the full run (send → shutdown, which flushes every
//! stripe's pending batch and fsyncs) is compared against the no-WAL
//! baseline. `workers` counts the service's lock stripes.
//!
//! `Always` fsyncs once per stripe batch and is orders of magnitude
//! slower on real disks, so its round count is scaled down by
//! [`ALWAYS_ROUNDS_DIVISOR`]; throughput numbers stay comparable because
//! the metric is updates per second.

use std::time::Instant;

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_server::{IngestService, SharedDatabase, UpdateEnvelope};
use modb_wal::{FsyncPolicy, SharedWal, WalOptions, WalWriter};

use crate::experiments::indexing::build_city_db;
use crate::report::{fmt, render_table};

/// `Always` runs `rounds / ALWAYS_ROUNDS_DIVISOR` rounds (min 1): one
/// fsync per 32-record batch makes full-length runs needlessly slow
/// without changing the per-update cost being measured.
pub const ALWAYS_ROUNDS_DIVISOR: usize = 10;

/// The durability configurations compared by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMode {
    /// Baseline: no logging.
    NoWal,
    /// WAL-backed with the given fsync policy.
    Wal(FsyncPolicy),
}

impl WalMode {
    /// Human-readable label for the report table.
    pub fn label(&self) -> &'static str {
        match self {
            WalMode::NoWal => "no-wal",
            WalMode::Wal(FsyncPolicy::Never) => "wal-never",
            WalMode::Wal(FsyncPolicy::EveryN(_)) => "wal-every-n",
            WalMode::Wal(FsyncPolicy::Always) => "wal-always",
        }
    }
}

/// One mode's measured row.
#[derive(Debug, Clone)]
pub struct WalOverheadRow {
    /// Mode label.
    pub label: &'static str,
    /// Updates sent and applied.
    pub updates: usize,
    /// Wall-clock seconds for the full run.
    pub seconds: f64,
    /// Updates per second.
    pub per_sec: f64,
    /// Throughput overhead vs the no-WAL baseline, in percent (0 for the
    /// baseline itself).
    pub overhead_pct: f64,
    /// Bytes of log written (0 without a WAL).
    pub log_bytes: u64,
    /// Segment files produced.
    pub segments: usize,
}

fn drive(
    service: IngestService,
    n_objects: usize,
    rounds: usize,
    producers: usize,
) -> (usize, f64) {
    let handle = service.handle();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for p in 0..producers {
            let handle = handle.clone();
            s.spawn(move || {
                for round in 1..=rounds {
                    for i in (p..n_objects).step_by(producers) {
                        handle
                            .send(UpdateEnvelope {
                                id: ObjectId(i as u64),
                                msg: UpdateMessage::basic(
                                    round as f64 * 0.01,
                                    UpdatePosition::Arc(0.5),
                                    0.7,
                                ),
                            })
                            .expect("service alive");
                    }
                }
            });
        }
    });
    drop(handle);
    let stats = service.shutdown();
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(stats.rejected(), 0, "monotone stamps must all apply");
    assert_eq!(stats.wal_errors, 0, "log writes must succeed");
    // Sanity: everything sent was applied.
    assert_eq!(stats.accepted, rounds * n_objects);
    (stats.accepted, seconds)
}

fn log_footprint(dir: &std::path::Path) -> (u64, usize) {
    let segments = modb_wal::list_segments(dir).expect("listable");
    let bytes = segments
        .iter()
        .map(|(_, p)| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    (bytes, segments.len())
}

/// Runs the experiment: `rounds` monotone updates per object over a
/// `n_objects` fleet, for each durability mode. Log directories are
/// created under the system temp dir and removed afterwards.
pub fn run_wal_overhead(n_objects: usize, rounds: usize, workers: usize) -> Vec<WalOverheadRow> {
    let modes = [
        WalMode::NoWal,
        WalMode::Wal(FsyncPolicy::Never),
        WalMode::Wal(FsyncPolicy::EveryN(256)),
        WalMode::Wal(FsyncPolicy::Always),
    ];
    let mut rows: Vec<WalOverheadRow> = Vec::with_capacity(modes.len());
    for mode in modes {
        let rounds = match mode {
            WalMode::Wal(FsyncPolicy::Always) => (rounds / ALWAYS_ROUNDS_DIVISOR).max(1),
            _ => rounds,
        };
        // A fresh fleet per mode: every run applies the same update
        // sequence from the same initial state.
        let db = SharedDatabase::new(build_city_db(42, n_objects, 20));
        let dir = std::env::temp_dir().join(format!(
            "modb-exp-wal-{}-{}",
            std::process::id(),
            mode.label()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (service, wal_dir) = match mode {
            WalMode::NoWal => (IngestService::new(db.clone(), workers), None),
            WalMode::Wal(fsync) => {
                let writer = WalWriter::create(
                    &dir,
                    WalOptions {
                        fsync,
                        ..WalOptions::default()
                    },
                )
                .expect("fresh log dir");
                (
                    IngestService::with_wal(db.clone(), SharedWal::new(writer), workers),
                    Some(dir.clone()),
                )
            }
        };
        let (updates, seconds) = drive(service, n_objects, rounds, 4);
        let (log_bytes, segments) = match &wal_dir {
            Some(d) => log_footprint(d),
            None => (0, 0),
        };
        let per_sec = updates as f64 / seconds;
        let baseline = rows.first().map(|r: &WalOverheadRow| r.per_sec);
        rows.push(WalOverheadRow {
            label: mode.label(),
            updates,
            seconds,
            per_sec,
            overhead_pct: match baseline {
                Some(base) => (base / per_sec - 1.0) * 100.0,
                None => 0.0,
            },
            log_bytes,
            segments,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Renders the W1 report table.
pub fn wal_overhead_table(rows: &[WalOverheadRow]) -> String {
    render_table(
        "W1: ingest throughput vs durability (striped ingest, monotone updates)",
        &[
            "mode",
            "updates",
            "seconds",
            "updates/s",
            "overhead %",
            "log MiB",
            "segments",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    r.updates.to_string(),
                    fmt(r.seconds),
                    fmt(r.per_sec),
                    fmt(r.overhead_pct),
                    fmt(r.log_bytes as f64 / (1024.0 * 1024.0)),
                    r.segments.to_string(),
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
        let rows = run_wal_overhead(50, 4, 2);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "no-wal");
        assert_eq!(rows[0].overhead_pct, 0.0);
        assert_eq!(rows[0].log_bytes, 0);
        assert_eq!(rows[0].updates, 200);
        for r in &rows[1..] {
            assert!(r.log_bytes > 0, "{} wrote a log", r.label);
            assert!(r.segments >= 1);
            assert!(r.per_sec > 0.0);
        }
        assert_eq!(rows[3].label, "wal-always");
        assert_eq!(rows[3].updates, 50, "Always runs reduced rounds");
        let table = wal_overhead_table(&rows);
        assert!(table.contains("wal-every-n"));
        assert!(table.contains("updates/s"));
    }
}
