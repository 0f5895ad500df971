//! Benches for the epoch-snapshot query engine: locked reads vs snapshot
//! reads (quiet and under writer churn) and the cost of publishing an
//! epoch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use modb_core::{Database, ObjectId, UpdateMessage, UpdatePosition};
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

/// Full-clone vs change-log delta publication at 10k objects across
/// churn levels (0.1%, 1%, 10% of the fleet touched between epochs).
/// Each iteration applies the churn batch and republishes; the churn
/// cost is identical in both modes, so the spread between the `full`
/// and `delta` rows is publication cost alone. The `delta` rows time
/// the whole `publish_now` cycle, post-swap shadow catch-up included;
/// the `full` rows time what the engine did before it had a change log
/// (clone the database under the read lock, wrap it in an `Arc`, drop
/// the snapshot it replaces). The W3 experiment (`exp_epoch_publish`)
/// splits out the pre-swap visibility latency. `publish_epoch_10k_fleet`
/// is the floor: a publish with nothing changed since the last one.
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
        for mode in ["full", "delta"] {
            let (db, _) = fleet(FLEET);
            let mut publish: Box<dyn FnMut()> = if mode == "delta" {
                let engine = manual_engine(&db);
                // Past the cold-buffer publish: the first publish into
                // an empty shadow buffer is a full clone.
                engine.publish_now();
                engine.publish_now();
                Box::new(move || {
                    black_box(engine.publish_now());
                })
            } else {
                let db = db.clone();
                let mut published = Arc::new(db.with_read(Database::clone));
                Box::new(move || {
                    let next = Arc::new(db.with_read(Database::clone));
                    drop(std::mem::replace(&mut published, black_box(next)));
                })
            };
            let mut round = 2u64;
            group.bench_function(format!("{mode}_10k_churn_{churn}"), |b| {
                b.iter(|| {
                    round += 1;
                    let t = round as f64 * 1e-5;
                    for i in 0..churn as u64 {
                        let _ = db.apply_update(
                            ObjectId((round * churn as u64 + i) % FLEET as u64),
                            &UpdateMessage::basic(t, UpdatePosition::Arc(0.5), 0.7),
                        );
                    }
                    publish()
                })
            });
        }
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
