//! Benches for the durability layer: block encoding, batched append
//! throughput under each fsync policy, and snapshot round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;

use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
use modb_sim::experiments::indexing::build_city_db;
use modb_wal::{
    encode_block, frame_block, read_snapshot, write_snapshot, FsyncPolicy, WalBatch, WalOptions,
    WalRecord, WalWriter,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modb-bench-wal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn update(i: u64) -> WalRecord {
    WalRecord::Update {
        id: ObjectId(i % 512),
        msg: UpdateMessage::basic(i as f64, UpdatePosition::Arc(0.5), 0.7),
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_encode");
    for (name, n) in [("block_1_update", 1u64), ("block_100_updates", 100)] {
        group.bench_function(name, |b| {
            let records: Vec<WalRecord> = (0..n).map(update).collect();
            let (mut payload, mut frame) = (Vec::new(), Vec::new());
            b.iter(|| {
                payload.clear();
                frame.clear();
                encode_block(black_box(&records), true, &mut payload);
                frame_block(&payload, &mut frame);
                black_box(frame.len())
            })
        });
    }
    group.finish();
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    group.sample_size(20);
    for (name, fsync) in [
        ("batch_100_fsync_never", FsyncPolicy::Never),
        ("batch_100_fsync_every_256", FsyncPolicy::EveryN(256)),
    ] {
        let dir = tmp(name);
        let mut writer = WalWriter::create(
            &dir,
            WalOptions {
                fsync,
                max_segment_bytes: 256 * 1024 * 1024,
            },
        )
        .expect("fresh dir");
        let mut i = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut batch = WalBatch::new();
                for _ in 0..100 {
                    batch.push(&update(i));
                    i += 1;
                }
                writer.append_batch(&mut batch).expect("append ok");
                black_box(writer.next_lsn())
            })
        });
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_snapshot");
    group.sample_size(10);
    let db = build_city_db(7, 2_000, 20);
    let dir = tmp("snapshot");
    std::fs::create_dir_all(&dir).expect("temp dir");
    group.bench_function("write_2000_objects", |b| {
        b.iter(|| black_box(write_snapshot(&dir, &db, 0).expect("write ok")))
    });
    let path = write_snapshot(&dir, &db, 0).expect("write ok");
    group.bench_function("read_2000_objects", |b| {
        b.iter(|| black_box(read_snapshot(&path).expect("read ok").1))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_encode, bench_append, bench_snapshot);
criterion_main!(benches);
