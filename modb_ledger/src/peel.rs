//! The peel: the same generated inputs replayed in-process at each depth
//! of the stack, each depth timed from outside through the layer's
//! public functions. A layer's self time is its median minus the medians
//! of the layers it calls (see [`Layer`]).
//!
//! One request at a time, so nothing here waits for a shared fsync or a
//! lock another client holds; what concurrency adds shows as the gap
//! between a window's median and the root of the tree
//! (`unattributed_us`).

use std::time::Instant;

use crate::api::{
    execute, parse, BoundKind, Database, DatabaseConfig, MovingObjectIndex, OPlane, ObjectId,
    Query, QueryEngineConfig, SharedWal, UpdateEnvelope, WalBatch, WalOptions, WalRecord,
    WalWriter, WAL_BATCH_RECORDS,
};
use crate::deploy::{apply_acked, Leader, Scratch};
use crate::fleet::{Fleet, StmtKind, Update, UPDATE_COST};
use crate::stats::{time_each, Layer, Samples};

/// Updates replayed at each depth of the write path, and range
/// statements at each depth of the read path.
pub const PEEL_UPDATES: usize = 2_000;
pub const PEEL_STATEMENTS: usize = 600;
/// Trace updates the peel consumes: one slice per depth that needs a
/// database of its own state (net, ingest, core/index), plus the churn.
pub fn trace_needed(objects: usize) -> usize {
    3 * PEEL_UPDATES + objects / 100
}

pub struct Peel {
    pub update: Layer,
    pub wal_append_us_per_update: f64,
    pub shadow_sync_us_per_change: f64,
    pub read: ReadPeel,
}

pub struct ReadPeel {
    pub range: Layer,
    pub parse_us_per_stmt: f64,
    pub refine_us_per_candidate: f64,
    pub may_share: f64,
    pub nodes_per_query: f64,
}

/// Runs the peel against the deployed, quiescent leader. `updates` is
/// the next stretch of the trace (at least [`trace_needed`] long); the
/// leader has applied all of it when this returns.
pub fn run(
    leader: &Leader,
    fleet: &Fleet,
    updates: &[Update],
    now: f64,
    scratch: &Scratch,
) -> Result<Peel, String> {
    let plain = leader.durable.database().with_read(Database::clone);
    let read = peel_reads(leader, fleet, &plain, now)?;
    let (for_net, rest) = updates.split_at(PEEL_UPDATES);
    let (for_ingest, rest) = rest.split_at(PEEL_UPDATES);
    let (for_core, churn) = rest.split_at(PEEL_UPDATES);

    // net: one Update frame over loopback, ack awaited.
    let mut client = leader.connect()?;
    let mut refused = 0;
    let net = time_each(for_net, |u| match client.update(u.object(), &u.message()) {
        Ok(v) if v.is_accepted() => {}
        _ => refused += 1,
    });
    client.close();
    // ingest: the same path without the socket.
    let handle = leader.ingest.handle();
    let ingest = time_each(for_ingest, |u| {
        let accepted = handle
            .send_acked(UpdateEnvelope {
                id: u.object(),
                msg: u.message(),
            })
            .ok()
            .and_then(|rx| rx.recv().ok())
            .is_some_and(|outcome| outcome.verdict.is_ok());
        refused += usize::from(!accepted);
    });
    if refused > 0 {
        return Err(format!("peel: {refused} truthful updates refused"));
    }

    // core and index: a plain in-memory database in the leader's state,
    // and an index of its own holding the same o-planes.
    let mut plain = leader.durable.database().with_read(Database::clone);
    let mut index = MovingObjectIndex::with_config(DatabaseConfig::default().bands);
    for object in plain.moving_objects() {
        let attr = &object.attr;
        let u = Update {
            time: attr.start_time,
            id: object.id.0 as u32,
            arc: attr.start_arc,
            speed: attr.speed,
        };
        let (plane, route) = plane_of(fleet, &u)?;
        index
            .upsert(object.id, plane, route)
            .map_err(|e| format!("peel index build: {e}"))?;
    }
    let core = time_each(for_core, |u| {
        refused += usize::from(plain.apply_update(u.object(), &u.message()).is_err());
    });
    let planes: Vec<_> = for_core
        .iter()
        .map(|u| plane_of(fleet, u).map(|(plane, route)| (u.object(), plane, route)))
        .collect::<Result<_, _>>()?;
    let upsert = time_each(planes, |(id, plane, route)| {
        refused += usize::from(index.upsert(id, plane, route).is_err());
    });
    if refused > 0 {
        return Err(format!("peel: {refused} in-memory updates refused"));
    }
    // The leader must not miss what its copy was given.
    apply_acked(&leader.ingest, for_core)?;

    // wal: a scratch log. First the acked path's shape (one record per
    // block, one fsync per record), then the batched shape.
    let wal = SharedWal::new(
        WalWriter::create(scratch.fresh("peel-wal"), WalOptions::default())
            .map_err(|e| format!("peel wal: {e}"))?,
    );
    let records: Vec<WalRecord> = for_core
        .iter()
        .map(|u| WalRecord::Update {
            id: u.object(),
            msg: u.message(),
        })
        .collect();
    let mut batch = WalBatch::new();
    let (mut append, mut fsync) = (Samples::default(), Samples::default());
    let mut io_failed = false;
    for rec in &records {
        let started = Instant::now();
        batch.push(rec);
        io_failed |= wal.append_batch(&mut batch).is_err();
        let appended = Instant::now();
        io_failed |= wal.sync().is_err();
        append.push((appended - started).as_nanos() as u64);
        fsync.push(appended.elapsed().as_nanos() as u64);
    }
    append.sort();
    fsync.sort();
    let started = Instant::now();
    for block in records.chunks(WAL_BATCH_RECORDS as usize) {
        block.iter().for_each(|rec| batch.push(rec));
        io_failed |= wal.append_batch(&mut batch).is_err();
    }
    let wal_append_us_per_update = started.elapsed().as_secs_f64() * 1e6 / records.len() as f64;
    if io_failed {
        return Err("peel: scratch log I/O failed".into());
    }

    // shadow: what one changed object costs an epoch publication. An
    // engine without a background publisher, so the delta is all ours.
    let engine = leader.durable.query_engine(QueryEngineConfig {
        epoch_interval: None,
        ..QueryEngineConfig::default()
    });
    engine.publish_now();
    apply_acked(&leader.ingest, churn)?;
    let started = Instant::now();
    engine.publish_now();
    let shadow_sync_us_per_change = started.elapsed().as_secs_f64() * 1e6 / churn.len() as f64;
    engine.shutdown();

    let update = Layer {
        name: "net.update",
        median_us: net.median_us(),
        children: vec![Layer {
            name: "ingest.send_acked",
            median_us: ingest.median_us(),
            children: vec![
                Layer::leaf("wal.append", append.median_us()),
                Layer::leaf("wal.fsync", fsync.median_us()),
                Layer {
                    name: "core.apply_update",
                    median_us: core.median_us(),
                    children: vec![Layer::leaf("index.upsert", upsert.median_us())],
                },
            ],
        }],
    };
    Ok(Peel {
        update,
        wal_append_us_per_update,
        shadow_sync_us_per_change,
        read,
    })
}

/// The o-plane `Database::apply_update` would index for this update.
fn plane_of<'a>(fleet: &'a Fleet, u: &Update) -> Result<(OPlane, &'a crate::api::Route), String> {
    let ride = &fleet.rides[u.id as usize];
    let route = fleet.network.get(ride.route).map_err(|e| e.to_string())?;
    OPlane::new(
        ride.route,
        u.arc,
        ride.direction,
        u.speed,
        fleet.max_speeds[ride.curve as usize],
        UPDATE_COST,
        BoundKind::Immediate,
        u.time,
        fleet.trip_end(u.id as usize),
    )
    .map(|plane| (plane, route))
    .map_err(|e| format!("o-plane: {e}"))
}

/// The read path on the first [`PEEL_STATEMENTS`] range statements of
/// the script, plus parse time over every kind.
fn peel_reads(
    leader: &Leader,
    fleet: &Fleet,
    plain: &Database,
    now: f64,
) -> Result<ReadPeel, String> {
    let ranges: Vec<_> = fleet
        .script
        .iter()
        .filter(|s| s.kind == StmtKind::Range)
        .take(PEEL_STATEMENTS)
        .map(|s| (s.render(now).0, s.region(now).expect("range statement")))
        .collect();
    let mut failed = 0;
    let front = leader.front()?;
    let mut client = leader.connect()?;
    let net = time_each(&ranges, |(text, _)| match client.batch(text) {
        Ok(verdicts) if verdicts.iter().all(Result::is_ok) => {}
        _ => failed += 1,
    });
    client.close();
    let engine = time_each(&ranges, |(text, _)| {
        failed += front
            .engine
            .run_batch(text)
            .iter()
            .filter(|v| v.is_err())
            .count();
    });
    let mut queries: Vec<Query> = Vec::with_capacity(ranges.len());
    let parsed = time_each(&ranges, |(text, _)| match parse(text) {
        Ok(query) => queries.push(query),
        Err(_) => failed += 1,
    });
    let executed = time_each(&queries, |query| {
        failed += usize::from(execute(plain, query).is_err());
    });
    let mut candidates: Vec<Vec<ObjectId>> = Vec::with_capacity(ranges.len());
    let mut nodes = 0usize;
    let filter = time_each(&ranges, |(_, region)| {
        let (ids, stats) = plain.range_candidates(region);
        nodes += stats.nodes_visited;
        candidates.push(ids);
    });
    let (mut must, mut may) = (0usize, 0usize);
    let refine = time_each(
        ranges.iter().zip(&candidates),
        |((_, region), ids)| match plain.refine_slice(ids, region) {
            Ok((a, b)) => {
                must += a.len();
                may += b.len();
            }
            Err(_) => failed += 1,
        },
    );
    let all = time_each(&fleet.script[..PEEL_STATEMENTS], |s| {
        failed += usize::from(parse(&s.render(now).0).is_err());
    });
    if failed > 0 {
        return Err(format!("peel: {failed} statements failed"));
    }
    let n_candidates: usize = candidates.iter().map(Vec::len).sum();
    let n = ranges.len() as f64;
    let range = Layer {
        name: "net.batch",
        median_us: net.median_us(),
        children: vec![Layer {
            name: "query_engine.run_batch",
            median_us: engine.median_us(),
            children: vec![
                Layer::leaf("query.parse", parsed.median_us()),
                Layer {
                    name: "query.execute",
                    median_us: executed.median_us(),
                    children: vec![
                        Layer::leaf("index.range_candidates", filter.median_us()),
                        Layer::leaf("core.refine_slice", refine.median_us()),
                    ],
                },
            ],
        }],
    };
    Ok(ReadPeel {
        range,
        parse_us_per_stmt: all.mean_us(),
        refine_us_per_candidate: refine.mean_us() * n / (n_candidates.max(1)) as f64,
        may_share: may as f64 / (may + must).max(1) as f64,
        nodes_per_query: nodes as f64 / n,
    })
}
