//! Benches for the service façade: ingestion throughput,
//! shared-handle query latency under write contention, and the query
//! language's parse + execute cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_geom::Point;
use modb_server::{IngestService, SharedDatabase, UpdateEnvelope};
use modb_sim::experiments::indexing::build_city_db;

fn shared_fleet(n: usize) -> SharedDatabase {
    SharedDatabase::new(build_city_db(77, n, 20))
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_ingest");
    group.sample_size(10);
    // One long-lived fleet and service; each iteration pushes a batch of
    // 2 000 updates with strictly increasing timestamps. A `send` that
    // returned has been applied, so the measurement covers the apply
    // work with nothing to wait for.
    let db = shared_fleet(2_000);
    let service = IngestService::new(db, 4);
    let handle = service.handle();
    let mut stamp = 1.0_f64;
    group.bench_function("ingest_2000_updates", |b| {
        b.iter(|| {
            stamp += 1.0;
            for i in 0..2_000u64 {
                handle
                    .send(UpdateEnvelope {
                        id: ObjectId(i),
                        msg: UpdateMessage::basic(stamp, UpdatePosition::Arc(0.5), 0.7),
                    })
                    .expect("service alive");
            }
            black_box(service.stats().accepted())
        })
    });
    group.finish();
    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.rejected(), 0, "monotone stamps must all apply");
}

fn bench_shared_queries(c: &mut Criterion) {
    let db = shared_fleet(5_000);
    let mut group = c.benchmark_group("server_query");
    group.bench_function("within_point_shared_handle", |b| {
        b.iter(|| {
            black_box(
                db.with_read(|d| d.within_distance_of_point(Point::new(10.0, 10.0), 2.0, 3.0))
                    .expect("ok")
                    .candidates,
            )
        })
    });
    group.finish();
}

fn bench_query_language(c: &mut Criterion) {
    let db = shared_fleet(1_000);
    let mut group = c.benchmark_group("query_language");
    group.bench_function("parse_only", |b| {
        b.iter(|| {
            black_box(
                modb_query::parse(black_box(
                    "RETRIEVE OBJECTS INSIDE POLYGON ((0,0), (4,0), (4,4), (0,4)) DURING 0 TO 15",
                ))
                .expect("parses"),
            )
        })
    });
    group.bench_function("parse_and_execute_range", |b| {
        b.iter(|| {
            black_box(
                db.with_read(|d| {
                    modb_query::run(d, "RETRIEVE OBJECTS INSIDE RECT (5, 5, 9, 9) AT TIME 3")
                })
                .expect("ok"),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_shared_queries,
    bench_query_language
);
criterion_main!(benches);
