//! Benches for the epoch-snapshot query engine: locked reads vs snapshot
//! reads (quiet and under writer churn) and the cost of publishing an
//! epoch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_server::{QueryEngineConfig, SharedDatabase};
use modb_sim::experiments::indexing::{build_city_db, query_regions};

fn fleet(n: usize) -> (SharedDatabase, Vec<modb_index::QueryRegion>) {
    let raw = build_city_db(77, n, 20);
    let regions = query_regions(raw.network(), 64, 2.0, 5.0, 7);
    (SharedDatabase::new(raw), regions)
}

fn manual_engine(db: &SharedDatabase) -> modb_server::QueryEngine {
    db.query_engine(QueryEngineConfig {
        epoch_interval: None,
    })
}

/// Locked vs snapshot range queries on a quiet database — measures the
/// pure overhead/benefit of the snapshot hop with no contention.
fn bench_quiet_reads(c: &mut Criterion) {
    let (db, regions) = fleet(5_000);
    let engine = manual_engine(&db);
    engine.publish_now();
    let mut group = c.benchmark_group("query_engine_quiet");
    let mut i = 0;
    group.bench_function("range_locked", |b| {
        b.iter(|| {
            i += 1;
            black_box(
                db.range_query(&regions[i % regions.len()])
                    .expect("ok")
                    .candidates,
            )
        })
    });
    let mut i = 0;
    group.bench_function("range_snapshot", |b| {
        b.iter(|| {
            i += 1;
            black_box(
                engine
                    .range_query(&regions[i % regions.len()])
                    .expect("ok")
                    .candidates,
            )
        })
    });
    group.finish();
}

/// The same comparison with a writer hammering the database: the locked
/// path serializes against it, the snapshot path does not.
fn bench_contended_reads(c: &mut Criterion) {
    let (db, regions) = fleet(5_000);
    let engine = db.query_engine(QueryEngineConfig {
        epoch_interval: Some(Duration::from_millis(25)),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                round += 1;
                for i in 0..64u64 {
                    let _ = db.apply_update(
                        ObjectId((round * 64 + i) % 5_000),
                        &UpdateMessage::basic(round as f64 * 1e-5, UpdatePosition::Arc(0.5), 0.7),
                    );
                }
            }
        })
    };
    let mut group = c.benchmark_group("query_engine_contended");
    group.sample_size(20);
    let mut i = 0;
    group.bench_function("range_locked_vs_writer", |b| {
        b.iter(|| {
            i += 1;
            black_box(
                db.range_query(&regions[i % regions.len()])
                    .expect("ok")
                    .candidates,
            )
        })
    });
    let mut i = 0;
    group.bench_function("range_snapshot_vs_writer", |b| {
        b.iter(|| {
            i += 1;
            black_box(
                engine
                    .range_query(&regions[i % regions.len()])
                    .expect("ok")
                    .candidates,
            )
        })
    });
    group.finish();
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer exits");
}

/// Publication at 10k objects across churn levels (0.1%, 1%, 10% of
/// the fleet touched between epochs). Each iteration applies the churn
/// batch and republishes, so what grows with the churn is what the
/// published clone costs the writes that follow it (each copies the
/// path it changes) plus dropping the retired snapshot; the clone
/// itself is O(1). `publish_epoch_10k_fleet` is the floor: a publish
/// with nothing changed since the last one.
fn bench_epoch_publish(c: &mut Criterion) {
    const FLEET: usize = 10_000;
    let mut group = c.benchmark_group("epoch_publish");
    group.sample_size(20);
    {
        let (db, _) = fleet(FLEET);
        let engine = manual_engine(&db);
        engine.publish_now();
        group.bench_function("publish_epoch_10k_fleet", |b| {
            b.iter(|| black_box(engine.publish_now()))
        });
    }
    for churn in [FLEET / 1000, FLEET / 100, FLEET / 10] {
        let (db, _) = fleet(FLEET);
        let engine = manual_engine(&db);
        let mut round = 0u64;
        group.bench_function(format!("publish_10k_churn_{churn}"), |b| {
            b.iter(|| {
                round += 1;
                let t = round as f64 * 1e-5;
                for i in 0..churn as u64 {
                    let _ = db.apply_update(
                        ObjectId((round * churn as u64 + i) % FLEET as u64),
                        &UpdateMessage::basic(t, UpdatePosition::Arc(0.5), 0.7),
                    );
                }
                black_box(engine.publish_now())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_quiet_reads,
    bench_contended_reads,
    bench_epoch_publish
);
criterion_main!(benches);
