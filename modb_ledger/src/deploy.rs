//! What a run stands up and tears down: the scratch root, the leader
//! with its ingest shards and query front-end, and the follower.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    Database, DatabaseConfig, DurableDatabase, IngestService, IngestStatsSnapshot, QueryClient,
    QueryEngine, QueryEngineConfig, QueryServer, QueryServerConfig, ReplicaConfig,
    ReplicationConfig, ReplicationServer, StandbyReplica, UpdateEnvelope, UpdateOutcome,
    WalOptions,
};
use crate::fleet::{Fleet, Update};

/// Ingest shards and queue depth of the leader, as the issue fixes them.
const INGEST_WORKERS: usize = 2;
const INGEST_QUEUE: usize = 4096;
/// The most envelopes the shards' queues can hold.
pub const INGEST_CAPACITY: u64 = (INGEST_WORKERS * INGEST_QUEUE) as u64;
/// Acked updates in flight at most when a stretch of trace is applied
/// outside a measured window.
const ACKED_IN_FLIGHT: usize = 256;

/// Every directory a run writes lives under one root inside the
/// checkout, removed when the run ends — also when it fails or panics.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

/// Runs of one process (the tests) get roots of their own.
static ROOTS: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let root = std::env::current_dir()?
            .join(".bench_scratch")
            .join(format!(
                "run-{}-{}",
                std::process::id(),
                ROOTS.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh path (not created) under the root.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Remove the parent too when no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// How a workload wants its log built before traffic starts.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Set-up applies the trace up to this simulated minute, which is
    /// where traffic starts. (A time, not a count: what the served
    /// imprecision is at the start then depends on the seed only through
    /// the fleet, not through how far a count happens to reach.)
    pub until: f64,
    /// Take a snapshot once the trace has been applied up to this minute.
    pub snapshot_at: Option<f64>,
    /// `true`: through the ingest shards without acks
    /// (`IngestHandle::send`), which leaves blocks of up to
    /// `WAL_BATCH_RECORDS` delta-coded, compressed records, durable when
    /// the shards shut down. `false`: `DurableDatabase::apply_update`,
    /// one record to a block, synced at the end.
    pub batched: bool,
}

/// What a stretch of updates cost the log — or, with no `updates`, the
/// log's and the committer's counters as they stand.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalCost {
    pub bytes: u64,
    pub fsyncs: u64,
    /// Group-commit tickets taken and fsyncs the committer issued for
    /// them (both 0 where nothing waited for an ack).
    pub tickets: u64,
    pub commits: u64,
    pub updates: u64,
}

impl WalCost {
    fn counters(durable: &DurableDatabase, ingest: Option<&IngestService>) -> WalCost {
        let (bytes, fsyncs) = durable.wal().io_counters();
        let group = ingest
            .and_then(IngestService::group_commit_stats)
            .unwrap_or_default();
        WalCost {
            bytes,
            fsyncs,
            tickets: group.tickets,
            commits: group.commits,
            updates: 0,
        }
    }

    /// What the `updates` applied since `earlier` was read have cost.
    pub fn since(self, earlier: WalCost, updates: u64) -> WalCost {
        WalCost {
            bytes: self.bytes - earlier.bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            tickets: self.tickets - earlier.tickets,
            commits: self.commits - earlier.commits,
            updates,
        }
    }

    pub fn bytes_per_update(&self) -> f64 {
        self.bytes as f64 / self.updates.max(1) as f64
    }

    pub fn fsyncs_per_update(&self) -> f64 {
        self.fsyncs as f64 / self.updates.max(1) as f64
    }

    pub fn group_batch_mean(&self) -> f64 {
        self.tickets as f64 / self.commits.max(1) as f64
    }
}

fn snapshot(durable: &DurableDatabase) -> Result<(), String> {
    durable
        .snapshot_with_retention(2)
        .map(drop)
        .map_err(|e| format!("snapshot: {e}"))
}

/// Sends `updates` through fresh ingest shards without waiting for acks
/// and shuts the shards down, which drains them and syncs the log.
fn send_unacked(durable: &DurableDatabase, updates: &[Update]) -> Result<(), String> {
    let ingest = durable.ingest_service(INGEST_WORKERS, INGEST_QUEUE);
    let handle = ingest.handle();
    for u in updates {
        handle
            .send(UpdateEnvelope {
                id: u.object(),
                msg: u.message(),
            })
            .map_err(|_| "ingest stopped mid-load")?;
    }
    drop(handle);
    let ingested = ingest.shutdown();
    if ingested.rejected() + ingested.wal_errors > 0 {
        return Err(format!(
            "the trace is truthful, yet the load reports: {ingested}"
        ));
    }
    Ok(())
}

/// Creates the log in `dir`, registers the fleet and applies the load.
/// Returns the database with what the load's updates cost the log.
fn build_log(dir: &Path, fleet: &Fleet, load: Load) -> Result<(DurableDatabase, WalCost), String> {
    let durable = DurableDatabase::create(
        dir,
        Database::new(fleet.network.clone(), DatabaseConfig::default()),
        WalOptions::default(),
    )
    .map_err(|e| format!("create leader: {e}"))?;
    for id in 0..fleet.rides.len() {
        durable
            .register_moving(fleet.object(id))
            .map_err(|e| format!("register {id}: {e}"))?;
    }
    let before = WalCost::counters(&durable, None);
    let loaded = fleet.updates_until(load.until);
    let cut = fleet.updates_until(load.snapshot_at.unwrap_or(load.until).min(load.until));
    for (n, stretch) in [&fleet.updates[..cut], &fleet.updates[cut..loaded]]
        .into_iter()
        .enumerate()
    {
        if n == 1 && load.snapshot_at.is_some() {
            snapshot(&durable)?;
        }
        if load.batched {
            send_unacked(&durable, stretch)?;
        } else {
            for u in stretch {
                durable
                    .apply_update(u.object(), &u.message())
                    .map_err(|e| format!("load update: {e}"))?;
            }
        }
    }
    durable
        .wal()
        .sync()
        .map_err(|e| format!("sync the load: {e}"))?;
    let cost = WalCost::counters(&durable, None).since(before, loaded as u64);
    Ok((durable, cost))
}

/// An engine's first two publications clone the whole database (it
/// double-buffers); take them before anything is timed.
fn warm(engine: &QueryEngine) {
    engine.publish_now();
    engine.publish_now();
}

/// The query engine and the front-end clients connect to.
pub struct Front {
    pub engine: Arc<QueryEngine>,
    pub server: QueryServer,
}

/// The leader: a durable database and its ingest shards, and — unless
/// the run never opens a socket — its front-end.
pub struct Leader {
    pub durable: DurableDatabase,
    pub ingest: IngestService,
    pub front: Option<Front>,
    /// What the load's updates cost the log.
    pub load_cost: WalCost,
}

impl Leader {
    /// Builds the log in `dir` and starts the ingest shards; with
    /// `serve`, also publishes the state and starts serving.
    pub fn deploy(dir: &Path, fleet: &Fleet, load: Load, serve: bool) -> Result<Leader, String> {
        let (durable, load_cost) = build_log(dir, fleet, load)?;
        let ingest = durable.ingest_service(INGEST_WORKERS, INGEST_QUEUE);
        let front = if serve {
            let engine = Arc::new(durable.query_engine(QueryEngineConfig::default()));
            warm(&engine);
            let server = durable
                .serve_queries(
                    Arc::clone(&engine),
                    Some(ingest.frontend()),
                    "127.0.0.1:0",
                    QueryServerConfig::default(),
                )
                .map_err(|e| format!("serve queries: {e}"))?;
            Some(Front { engine, server })
        } else {
            None
        };
        Ok(Leader {
            durable,
            ingest,
            front,
            load_cost,
        })
    }

    pub fn front(&self) -> Result<&Front, String> {
        self.front
            .as_ref()
            .ok_or("this run has no front-end".into())
    }

    pub fn connect(&self) -> Result<QueryClient, String> {
        QueryClient::connect(self.front()?.server.local_addr())
            .map_err(|e| format!("connect leader: {e}"))
    }

    /// The log's and the committer's counters as they stand.
    pub fn wal_counters(&self) -> WalCost {
        WalCost::counters(&self.durable, Some(&self.ingest))
    }

    /// Stops serving, then the engine, then the shards (which drain and
    /// sync the log), so nothing of the leader outlives the call. Returns
    /// the shards' final counters with the database.
    pub fn shutdown(self) -> (DurableDatabase, IngestStatsSnapshot) {
        if let Some(Front { engine, server }) = self.front {
            server.shutdown();
            if let Ok(engine) = Arc::try_unwrap(engine) {
                engine.shutdown();
            }
        }
        let ingested = self.ingest.shutdown();
        (self.durable, ingested)
    }
}

/// Applies `updates` through `IngestHandle::send_acked`, keeping a
/// bounded number in flight; any verdict but accepted is an error.
pub fn apply_acked(ingest: &IngestService, updates: &[Update]) -> Result<(), String> {
    let handle = ingest.handle();
    let mut in_flight = VecDeque::with_capacity(ACKED_IN_FLIGHT);
    let settle = |outcome: Option<UpdateOutcome>| -> Result<(), String> {
        outcome
            .ok_or("ingest stopped mid-stretch")?
            .verdict
            .map_err(|e| format!("truthful update rejected: {e}"))
    };
    for u in updates {
        let rx = handle
            .send_acked(UpdateEnvelope {
                id: u.object(),
                msg: u.message(),
            })
            .map_err(|_| "ingest stopped mid-stretch")?;
        in_flight.push_back(rx);
        if in_flight.len() > ACKED_IN_FLIGHT {
            let oldest = in_flight.pop_front().expect("non-empty");
            settle(oldest.recv().ok())?;
        }
    }
    in_flight
        .into_iter()
        .try_for_each(|rx| settle(rx.recv().ok()))
}

/// The follower: a standby replica of the leader's log that serves
/// queries.
pub struct Follower {
    pub shipper: ReplicationServer,
    pub replica: StandbyReplica,
    pub engine: Arc<QueryEngine>,
    pub server: QueryServer,
    /// Seconds from opening the replica until it had applied the
    /// leader's whole backlog, and that backlog's length in records.
    pub catch_up: (f64, u64),
}

impl Follower {
    pub fn deploy(dir: &Path, leader: &Leader) -> Result<Follower, String> {
        let shipper = leader
            .durable
            .serve_replication("127.0.0.1:0", ReplicationConfig::default())
            .map_err(|e| format!("serve replication: {e}"))?;
        let frontier = leader.durable.wal().next_lsn();
        let started = Instant::now();
        let replica = StandbyReplica::open(
            dir,
            shipper.local_addr().to_string(),
            ReplicaConfig::default(),
        )
        .map_err(|e| format!("open replica: {e}"))?;
        if !replica.wait_for_lsn(frontier, Duration::from_secs(60)) {
            return Err(format!("follower never caught up: {}", replica.stats()));
        }
        let catch_up = (started.elapsed().as_secs_f64(), frontier);
        let engine = Arc::new(
            replica
                .database()
                .query_engine(QueryEngineConfig::default()),
        );
        warm(&engine);
        let server = replica
            .serve_queries(
                Arc::clone(&engine),
                "127.0.0.1:0",
                QueryServerConfig::default(),
            )
            .map_err(|e| format!("follower serve queries: {e}"))?;
        Ok(Follower {
            shipper,
            replica,
            engine,
            server,
            catch_up,
        })
    }

    pub fn connect(&self) -> Result<QueryClient, String> {
        QueryClient::connect(self.server.local_addr()).map_err(|e| format!("connect follower: {e}"))
    }

    /// Records shipped by the leader, as its replication server counted.
    pub fn shutdown(self) -> u64 {
        self.server.shutdown();
        if let Ok(engine) = Arc::try_unwrap(self.engine) {
            engine.shutdown();
        }
        self.replica.shutdown();
        self.shipper.shutdown().records_shipped
    }
}
