//! Benches for the query engine: locked reads vs reads from a clone
//! taken per statement, quiet and under writer churn. What a clone costs
//! the writes that overlap it is F6's republish leg.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_server::{QueryEngine, SharedDatabase};
use modb_sim::experiments::indexing::{build_city_db, query_regions};

fn fleet(n: usize) -> (SharedDatabase, Vec<modb_index::QueryRegion>) {
    let raw = build_city_db(77, n, 20);
    let regions = query_regions(raw.network(), 64, 2.0, 5.0, 7);
    (SharedDatabase::new(raw), regions)
}

/// Locked vs snapshot range queries on a quiet database — measures the
/// pure overhead/benefit of the clone with no contention.
fn bench_quiet_reads(c: &mut Criterion) {
    let (db, regions) = fleet(5_000);
    let engine = QueryEngine::new(db.clone());
    let mut group = c.benchmark_group("query_engine_quiet");
    let mut i = 0;
    group.bench_function("range_locked", |b| {
        b.iter(|| {
            i += 1;
            black_box(
                db.with_read(|d| d.range_query(&regions[i % regions.len()]))
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
    let engine = QueryEngine::new(db.clone());
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
                db.with_read(|d| d.range_query(&regions[i % regions.len()]))
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

criterion_group!(benches, bench_quiet_reads, bench_contended_reads);
criterion_main!(benches);
