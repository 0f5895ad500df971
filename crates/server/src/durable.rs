//! A [`SharedDatabase`] paired with a write-ahead log and snapshots: the
//! durable deployment shape.
//!
//! [`DurableDatabase`] routes every mutation through both the in-memory
//! database and the log, so the state in `dir` can always be rebuilt by
//! [`DurableDatabase::open`] (or bare [`SharedDatabase::recover`]):
//!
//! - **One write path.** Every mutation — the five methods below,
//!   every [`crate::IngestHandle`] send and every run a follower applies
//!   — is applied through the one apply seam ([`modb_wal::apply_record`],
//!   run under the database's write lock) and framed under the log's
//!   *tail lock*, in [`SharedWal::write`], which also decides when the
//!   tail is appended and when the log is synced. So the log holds
//!   mutations in the order they were applied: the paper's DBMS keeps
//!   one position attribute per object and a same-instant update
//!   replaces it (last writer wins), and replay must end where the live
//!   database did. This is the write order DESIGN §7 states (*frame →
//!   apply → LSN → fsync → ack*), and its **watermark invariant** is
//!   what makes online snapshots sound: every record with an assigned
//!   LSN is already reflected in the in-memory state.
//! - **The leader's logging rule** lives in one crate-private write
//!   call, of which the five methods and a promotion's seal are one-line
//!   calls: a record too large to frame is refused unapplied; a
//!   **position update** is logged accepted or not — replay re-derives
//!   the same verdicts, and the log doubles as a complete update-stream
//!   trace; **any other record** (registration, landmark, route,
//!   removal, seal) is logged only when it applied, so the log carries
//!   only mutations that changed state. The five methods append the tail
//!   at once (their record has an LSN when they return); an
//!   unacknowledged send waits in it for up to
//!   [`crate::WAL_BATCH_RECORDS`] records.
//! - **Snapshots** ([`DurableDatabase::snapshot`]) bound replay work and
//!   are **pause-free**: the tail is appended, the log fsynced and its
//!   frontier read as the watermark, the state is cloned under a brief
//!   read lock (pointer copies; [`SharedDatabase::write_snapshot`]), and
//!   serialization runs with *no* database lock held — ingest and
//!   queries proceed throughout. The clone is dropped when the file is on disk: no copy
//!   of the fleet stays resident between snapshots. Replay from the
//!   watermark re-applies any overlap idempotently (re-deliveries of an
//!   already-applied update are no-ops; duplicate registrations
//!   re-reject).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use modb_core::{Database, MovingObject, ObjectId, StationaryObject, UpdateMessage};
use modb_routes::Route;
use modb_wal::{
    EpochHistory, RecoveryReport, SharedWal, WalError, WalOptions, WalRecord, WalWriter,
};

use crate::ingest::IngestService;
use crate::node::{Node, Watermark};
use crate::shared::SharedDatabase;

/// A shared database whose mutations are persisted to a directory of
/// write-ahead-log segments and snapshots.
#[derive(Debug, Clone)]
pub struct DurableDatabase {
    /// The database, directory, horizon, epochs and watermark, shared
    /// with a standby's handle when this is its local log.
    node: Arc<Node>,
    wal: SharedWal,
    /// One snapshot at a time (clones share it): two takers at one
    /// watermark would share a `.tmp` name.
    snapshots: Arc<Mutex<()>>,
}

impl DurableDatabase {
    /// Starts durability for a freshly built database: creates the log in
    /// `dir` and writes a genesis snapshot (which carries the route
    /// network and configuration — the log alone cannot seed those).
    ///
    /// # Errors
    ///
    /// [`WalError::AlreadyExists`] when `dir` already holds a log (use
    /// [`DurableDatabase::open`]); I/O failures.
    pub fn create(
        dir: impl Into<PathBuf>,
        db: Database,
        opts: WalOptions,
    ) -> Result<Self, WalError> {
        let dir = dir.into();
        let writer = WalWriter::create(&dir, opts)?;
        let db = SharedDatabase::new(db);
        let epochs = EpochHistory::new();
        db.write_snapshot(&dir, &epochs, writer.next_lsn())?;
        Ok(DurableDatabase::leading(db, dir, epochs, writer))
    }

    /// Reopens a durability directory: recovers the state (snapshot +
    /// replay + torn-tail truncation) and resumes the log where it left
    /// off. Returns the handle and the recovery report.
    ///
    /// # Errors
    ///
    /// See [`modb_wal::recover`] and [`WalWriter::resume`].
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: WalOptions,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let dir = dir.into();
        let recovered = modb_wal::recover(&dir)?;
        let writer = WalWriter::resume(&dir, opts, recovered.report.next_lsn)?;
        let db = SharedDatabase::new(recovered.database);
        let durable = DurableDatabase::leading(db, dir, recovered.epochs, writer);
        Ok((durable, recovered.report))
    }

    /// A leader from birth: the node over `db` and `dir` leads the log
    /// `writer` writes.
    fn leading(db: SharedDatabase, dir: PathBuf, epochs: EpochHistory, writer: WalWriter) -> Self {
        let wal = SharedWal::new(writer);
        let node = Node::new(db, dir, epochs, Watermark::leader(wal.clone()));
        DurableDatabase::over(node, wal)
    }

    /// Resumes the log of `node` at `next_lsn`, over a database holding
    /// every record below it: a standby's local log, which shares the
    /// standby's node, so downstream acks keep pinning compaction and the
    /// replication gate sees the epochs it logs. The node does not lead
    /// this log until it is promoted. Fails as [`WalWriter::resume`]
    /// does.
    pub(crate) fn from_parts(
        node: Arc<Node>,
        opts: WalOptions,
        next_lsn: u64,
    ) -> Result<Self, WalError> {
        let writer = WalWriter::resume(node.dir(), opts, next_lsn)?;
        Ok(DurableDatabase::over(node, SharedWal::new(writer)))
    }

    /// The handle that writes `wal`, a log of `node`.
    fn over(node: Arc<Node>, wal: SharedWal) -> Self {
        DurableDatabase {
            node,
            wal,
            snapshots: Arc::default(),
        }
    }

    /// The in-memory handle, for reads: it has no public write, so every
    /// change goes through this handle's methods and reaches the log.
    pub fn database(&self) -> &SharedDatabase {
        self.node.database()
    }

    /// The shared log writer and its commit point. Mutations go through
    /// this handle's methods, which apply them under the log's tail lock
    /// and so keep the log in apply order.
    pub fn wal(&self) -> &SharedWal {
        &self.wal
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        self.node.dir()
    }

    /// The current leadership epoch (1 for a log that never lived
    /// through a promotion).
    pub fn epoch(&self) -> u64 {
        self.node.epoch()
    }

    /// The node this log belongs to.
    pub(crate) fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// An ingest service over this database: its sends take the same
    /// write path as this handle's own mutations. Both arguments are
    /// ignored — there is one write path and no queue; `modb_ledger/`
    /// still passes them.
    pub fn ingest_service(&self, _workers: usize, _queue_depth: usize) -> IngestService {
        IngestService::new(self.clone())
    }

    /// `QueryEngine::new(self.database().clone())`; the config is
    /// ignored. Kept because `modb_ledger/` calls it.
    #[doc(hidden)]
    pub fn query_engine(&self, _config: crate::QueryEngineConfig) -> crate::QueryEngine {
        crate::QueryEngine::new(self.database().clone())
    }

    /// The leader's one write call, and its logging rule. A record too
    /// large to frame is refused before it is applied — applied and never
    /// logged, it would be gone at the next reopen. Under the log's tail
    /// lock ([`SharedWal::write`]) the record is applied; an `Update` is
    /// logged whatever its verdict (replay re-derives it, and the log
    /// stays a complete update-stream trace), any other record only when
    /// it applied. The tail is appended at once, so the record has its
    /// LSN when this returns. The log's failure is reported before the
    /// database's rejection.
    pub(crate) fn write(&self, record: WalRecord) -> Result<(), WalError> {
        modb_wal::check_frame(&record)?;
        let (verdict, appended) = self.wal.write(true, || {
            let verdict = self.database().apply(record.clone());
            let logged = verdict.is_ok() || matches!(record, WalRecord::Update { .. });
            (verdict, logged.then_some(record))
        })?;
        appended?;
        Ok(verdict?)
    }

    /// Registers a moving object, logging it on success.
    ///
    /// # Errors
    ///
    /// Database rejections ([`WalError::Core`]), a record too large to
    /// log ([`WalError::FrameTooLarge`], nothing applied) and log I/O
    /// failures.
    pub fn register_moving(&self, obj: MovingObject) -> Result<(), WalError> {
        self.write(WalRecord::RegisterMoving(obj))
    }

    /// Registers a stationary landmark, logging it on success.
    ///
    /// # Errors
    ///
    /// As for [`DurableDatabase::register_moving`].
    pub fn insert_stationary(&self, obj: StationaryObject) -> Result<(), WalError> {
        self.write(WalRecord::InsertStationary(obj))
    }

    /// Adds a route, logging it on success.
    ///
    /// # Errors
    ///
    /// As for [`DurableDatabase::register_moving`].
    pub fn insert_route(&self, route: Route) -> Result<(), WalError> {
        self.write(WalRecord::InsertRoute(route))
    }

    /// Removes a moving object, logging it on success.
    ///
    /// # Errors
    ///
    /// Database rejections and log I/O failures.
    pub fn remove_moving(&self, id: ObjectId) -> Result<(), WalError> {
        self.write(WalRecord::RemoveMoving(id))
    }

    /// Applies a position update and logs it, accepted or not, appending
    /// it at once. For high-volume ingestion use
    /// [`DurableDatabase::ingest_service`], whose unacknowledged sends
    /// share a block.
    ///
    /// # Errors
    ///
    /// Log I/O failures ([`WalError::Io`] — the update was applied but
    /// not logged, like an ingest-service `wal_error`); database
    /// rejections ([`WalError::Core`] — the update is still logged, and
    /// replay rejects it again).
    pub fn apply_update(&self, id: ObjectId, msg: &UpdateMessage) -> Result<(), WalError> {
        self.write(WalRecord::Update { id, msg: *msg })
    }

    /// Takes a pause-free point-in-time snapshot: syncs the log, tail
    /// included, and takes the frontier it made durable as the watermark
    /// LSN, clones the state under a brief read lock and serializes the
    /// clone with **no database lock held**
    /// ([`SharedDatabase::write_snapshot`]), then compacts the directory
    /// down to [`modb_wal::DEFAULT_SNAPSHOT_RETENTION`] snapshots
    /// (deleting log segments every retained snapshot covers).
    ///
    /// Safe while ingest is live: by the watermark invariant (DESIGN §7)
    /// the clone holds every record below the watermark, and replay
    /// re-applies idempotently whatever it caught past it.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn snapshot(&self) -> Result<PathBuf, WalError> {
        self.snapshot_with_retention(modb_wal::DEFAULT_SNAPSHOT_RETENTION)
    }

    /// [`DurableDatabase::snapshot`] with an explicit snapshot retention
    /// count (clamped to ≥ 1) for the post-snapshot compaction pass.
    /// Compaction runs under the writer lock, so it cannot race a segment
    /// rotation.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn snapshot_with_retention(&self, retention: usize) -> Result<PathBuf, WalError> {
        // One snapshot at a time; queries and ingest never touch this
        // mutex.
        let _one_taker = self.snapshots.lock().unwrap_or_else(|e| e.into_inner());
        // Watermark: every assigned LSN is already applied (DESIGN §7),
        // so state captured after this point reflects at least every
        // record below `lsn`.
        let lsn = self.wal.sync()?;
        // A leader's history changes only when it is promoted, and a
        // standby's as it logs the seals it is shipped: either way it
        // holds every epoch begun below `lsn`.
        let epochs = self.node.epochs().clone();
        // Ingest blocks only for the clone; serialization runs unlocked.
        let path = self.database().write_snapshot(self.dir(), &epochs, lsn)?;
        // The ship barrier (minimum acknowledged LSN across
        // connected replication followers) caps segment deletion so a
        // slow-but-live follower is never orphaned mid-stream.
        self.wal.compact(retention, self.node.horizon().min())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{DatabaseConfig, PolicyDescriptor, PositionAttribute, UpdatePosition};
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, RouteId, RouteNetwork};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("modb-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_db() -> Database {
        let route = Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap();
        Database::new(
            RouteNetwork::from_routes([route]).unwrap(),
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
            max_speed: 1.5,
            trip_end: None,
        }
    }

    #[test]
    fn create_mutate_reopen_preserves_state() {
        let dir = tmp("reopen");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        durable.register_moving(vehicle(1, 10.0)).unwrap();
        durable.register_moving(vehicle(2, 40.0)).unwrap();
        durable
            .insert_stationary(StationaryObject::new(
                ObjectId(100),
                "depot",
                Point::new(12.0, 0.0),
            ))
            .unwrap();
        durable
            .apply_update(
                ObjectId(1),
                &UpdateMessage::basic(5.0, UpdatePosition::Arc(14.0), 0.5),
            )
            .unwrap();
        // A rejected update is logged and the rejection surfaces.
        assert!(matches!(
            durable.apply_update(
                ObjectId(1),
                &UpdateMessage::basic(4.0, UpdatePosition::Arc(15.0), 0.5),
            ),
            Err(WalError::Core(_))
        ));
        durable.remove_moving(ObjectId(2)).unwrap();
        let expected = durable.database().with_read(|db| db.clone());
        drop(durable);

        let (reopened, report) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 0, "only the genesis snapshot exists");
        assert_eq!(report.rejected, 1, "the stale update re-rejects on replay");
        reopened.database().with_read(|db| {
            assert_eq!(db.moving_count(), expected.moving_count());
            assert_eq!(db.stationary_count(), expected.stationary_count());
            assert_eq!(
                db.moving(ObjectId(1)).unwrap(),
                expected.moving(ObjectId(1)).unwrap()
            );
        });
        // The reopened handle keeps logging at the right LSN.
        reopened.register_moving(vehicle(3, 70.0)).unwrap();
        drop(reopened);
        let (again, report) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        assert!(again
            .database()
            .with_read(|db| db.moving(ObjectId(3)).is_ok()));
        assert_eq!(report.next_lsn, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bounds_replay() {
        let dir = tmp("snapshot");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        for i in 1..=5u64 {
            durable
                .register_moving(vehicle(i, 10.0 * i as f64))
                .unwrap();
        }
        let path = durable.snapshot().unwrap();
        assert!(path.exists());
        durable
            .apply_update(
                ObjectId(1),
                &UpdateMessage::basic(2.0, UpdatePosition::Arc(11.0), 1.0),
            )
            .unwrap();
        drop(durable);
        let (reopened, report) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 5);
        assert_eq!(report.replayed, 1, "only the post-snapshot update replays");
        assert_eq!(report.skipped_records, 5);
        reopened.database().with_read(|db| {
            assert_eq!(db.moving_count(), 5);
            assert_eq!(db.moving(ObjectId(1)).unwrap().attr.start_arc, 11.0);
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_old_snapshots_and_covered_segments() {
        let dir = tmp("compact");
        let opts = WalOptions {
            max_segment_bytes: 256, // force frequent rotation
        };
        let durable = DurableDatabase::create(&dir, fresh_db(), opts).unwrap();
        durable.register_moving(vehicle(1, 10.0)).unwrap();
        for round in 1..=6u64 {
            for step in 0..10u64 {
                durable
                    .apply_update(
                        ObjectId(1),
                        &UpdateMessage::basic(
                            round as f64 + step as f64 * 0.01,
                            UpdatePosition::Arc(10.0 + step as f64),
                            0.9,
                        ),
                    )
                    .unwrap();
            }
            durable.snapshot().unwrap();
        }
        // Genesis + 6 snapshots taken, but retention keeps only the
        // newest DEFAULT_SNAPSHOT_RETENTION; covered segments are gone.
        let snaps = modb_wal::list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), modb_wal::DEFAULT_SNAPSHOT_RETENTION);
        let segs = modb_wal::list_segments(&dir).unwrap();
        for pair in segs.windows(2) {
            assert!(pair[1].0 > snaps[0].0, "covered segment survived");
        }
        // Reopening still recovers the exact final state.
        let expected = durable.database().with_read(|db| db.clone());
        drop(durable);
        let (reopened, report) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(report.replayed, 0, "snapshot is current");
        reopened.database().with_read(|db| {
            assert_eq!(
                db.moving(ObjectId(1)).unwrap(),
                expected.moving(ObjectId(1)).unwrap()
            );
        });
        // Tight retention through the explicit knob.
        reopened.snapshot_with_retention(1).unwrap();
        assert_eq!(modb_wal::list_snapshots(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every `Database` clone shares the route network, so its reference
    /// count counts the handles on the fleet alive in the process: the
    /// live database, and nothing else — a snapshot keeps no copy once
    /// written, and a query engine holds none between statements.
    #[test]
    fn snapshot_leaves_no_resident_copy() {
        let dir = tmp("no-resident-copy");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        durable.register_moving(vehicle(1, 10.0)).unwrap();
        let copies = || {
            durable
                .database()
                .with_read(|db| Arc::strong_count(&db.network_arc()))
        };
        let live_only = copies();
        durable.snapshot().unwrap();
        assert_eq!(
            copies(),
            live_only,
            "a snapshot kept a copy of the database"
        );
        let engine = crate::QueryEngine::new(durable.database().clone());
        assert_eq!(copies(), live_only, "an idle engine holds a copy");
        for round in 1..=3 {
            let moved = UpdateMessage::basic(f64::from(round), UpdatePosition::Arc(20.0), 1.0);
            durable.apply_update(ObjectId(1), &moved).unwrap();
            let verdicts = engine.run_batch("RETRIEVE POSITION OF OBJECT 1 AT TIME 5");
            assert!(verdicts[0].is_ok());
            durable.snapshot().unwrap();
            assert_eq!(copies(), live_only, "round {round} left a copy behind");
        }
        drop(engine);
        assert_eq!(copies(), live_only);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_dir_and_open_needs_snapshot() {
        let dir = tmp("guards");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        drop(durable);
        assert!(matches!(
            DurableDatabase::create(&dir, fresh_db(), WalOptions::default()),
            Err(WalError::AlreadyExists(_))
        ));
        // A directory with no snapshot cannot be opened.
        let empty = tmp("guards-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            DurableDatabase::open(&empty, WalOptions::default()),
            Err(WalError::NoSnapshot(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    /// With several threads racing `send` and `send_acked` at the *same*
    /// objects, the log holds each object's updates in the order they
    /// were applied — so a replay (recovery, or a follower) re-derives
    /// every verdict and ends in the same state.
    #[test]
    fn wal_backed_ingest_round_trips_through_recovery() {
        use crate::replication::{ReplicaConfig, ReplicationConfig, StandbyReplica};
        use std::sync::Barrier;
        use std::time::Duration;

        const OBJECTS: u64 = 5;
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 60;
        let dir = tmp("ingest");
        let follower_dir = tmp("ingest-follower");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        for i in 0..OBJECTS {
            durable.register_moving(vehicle(i, i as f64)).unwrap();
        }
        let shipper = durable
            .serve_replication("127.0.0.1:0", ReplicationConfig::default())
            .unwrap();
        let replica = StandbyReplica::open(
            &follower_dir,
            shipper.local_addr().to_string(),
            ReplicaConfig::default(),
        )
        .unwrap();

        let service = durable.ingest_service(4, 0);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for p in 0..THREADS {
                let handle = service.handle();
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for k in 1..=PER_THREAD {
                        // Every thread walks the same objects with
                        // timestamps interleaved with the others', so
                        // which update is stale is decided by the race.
                        let envelope = crate::ingest::UpdateEnvelope {
                            id: ObjectId(k % OBJECTS),
                            msg: UpdateMessage::basic(
                                (k * THREADS + p) as f64 * 0.25,
                                UpdatePosition::Arc(k as f64 * 0.5),
                                0.9,
                            ),
                        };
                        if (k + p) % 2 == 0 {
                            handle.send(envelope).unwrap();
                        } else {
                            let outcome = handle.send_acked(envelope).unwrap().recv().unwrap();
                            assert!(outcome.lsn > OBJECTS, "an acked record has its LSN");
                        }
                    }
                });
            }
        });
        let stats = service.shutdown();
        assert_eq!(stats.total() as u64, THREADS * PER_THREAD);
        assert_eq!(stats.rejected(), stats.stale, "only the race rejects");
        assert_eq!(stats.wal_errors, 0);

        // The follower, fed the log the race wrote, answers as the leader.
        assert!(replica.wait_for_lsn(durable.wal().next_lsn(), Duration::from_secs(30)));
        let script = "RETRIEVE OBJECTS INSIDE RECT (0, -1, 100, 1) AT TIME 70; \
                      RETRIEVE POSITION OF OBJECT 3 AT TIME 70; \
                      RETRIEVE 3 NEAREST OBJECTS TO POINT (20, 0) AT TIME 70";
        let answers = |db: &SharedDatabase| crate::QueryEngine::new(db.clone()).run_batch(script);
        let (led, followed) = (answers(durable.database()), answers(replica.database()));
        assert_eq!(led.len(), 3);
        for (l, f) in led.iter().zip(&followed) {
            assert!(l.as_ref().unwrap().same_answer(f.as_ref().unwrap()));
        }
        replica.shutdown();
        shipper.shutdown();

        let expected = durable.database().with_read(|db| db.clone());
        drop(durable);
        let (reopened, report) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        // Replay re-derives the live verdicts, count for count.
        assert_eq!(report.replayed, OBJECTS + stats.accepted as u64);
        assert_eq!(report.rejected as usize, stats.rejected());
        reopened.database().with_read(|db| {
            for i in (0..OBJECTS).map(ObjectId) {
                assert_eq!(db.moving(i).unwrap(), expected.moving(i).unwrap());
            }
        });
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&follower_dir).unwrap();
    }

    #[test]
    fn ingest_proceeds_during_an_in_flight_snapshot() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = tmp("online-snap");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        for i in 1..=4000u64 {
            durable
                .register_moving(vehicle(i, (i % 90) as f64))
                .unwrap();
        }
        // Serializing 4000 objects holds no database lock, so the writer
        // loop below must land updates strictly inside the snapshot
        // window. The outer loop re-takes the snapshot in the (unlikely)
        // event the scheduler never interleaved the two threads.
        let in_flight = Arc::new(AtomicBool::new(false));
        let mut updates_during_snapshot = 0u64;
        let mut t = 1.0f64;
        for _attempt in 0..20 {
            std::thread::scope(|s| {
                let snapper = {
                    let durable = durable.clone();
                    let in_flight = Arc::clone(&in_flight);
                    s.spawn(move || {
                        in_flight.store(true, Ordering::SeqCst);
                        let path = durable.snapshot().unwrap();
                        in_flight.store(false, Ordering::SeqCst);
                        path
                    })
                };
                while !in_flight.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                while in_flight.load(Ordering::SeqCst) {
                    t += 0.001;
                    durable
                        .apply_update(
                            ObjectId(1),
                            &UpdateMessage::basic(t, UpdatePosition::Arc(20.0 + (t % 50.0)), 0.9),
                        )
                        .unwrap();
                    updates_during_snapshot += 1;
                }
                assert!(snapper.join().unwrap().exists());
            });
            if updates_during_snapshot > 0 {
                break;
            }
        }
        assert!(
            updates_during_snapshot > 0,
            "ingest never progressed while a snapshot was in flight"
        );

        // Crash (drop) and recover: replay resumes from the watermark and
        // converges with the live state, including updates that raced the
        // serialization (the overlap re-applies idempotently).
        let expected = durable.database().with_read(|db| db.clone());
        drop(durable);
        let (reopened, report) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        assert!(report.snapshot_lsn > 0, "recovery starts from a snapshot");
        reopened.database().with_read(|db| {
            assert_eq!(db.moving_count(), expected.moving_count());
            assert_eq!(
                db.moving(ObjectId(1)).unwrap(),
                expected.moving(ObjectId(1)).unwrap()
            );
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequential_durable_writes_interleave_with_shared_queries() {
        let dir = tmp("queries");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        durable.register_moving(vehicle(1, 10.0)).unwrap();
        let db = durable.database().clone();
        let p = db.with_read(|d| d.position_of(ObjectId(1), 2.0)).unwrap();
        assert_eq!(p.arc, 12.0);
        durable
            .insert_route(
                Route::from_vertices(
                    RouteId(2),
                    "spur",
                    vec![Point::new(0.0, 10.0), Point::new(100.0, 10.0)],
                )
                .unwrap(),
            )
            .unwrap();
        durable
            .apply_update(
                ObjectId(1),
                &UpdateMessage::route_change(
                    3.0,
                    RouteId(2),
                    UpdatePosition::Arc(50.0),
                    Direction::Forward,
                    1.0,
                ),
            )
            .unwrap();
        drop(durable);
        let (reopened, _) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        reopened.database().with_read(|db| {
            assert_eq!(db.moving(ObjectId(1)).unwrap().attr.route, RouteId(2));
            assert!(db.network().get(RouteId(2)).is_ok());
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopens `dir` and asserts that every object `ids` names is as
    /// `live` holds it, and so do its landmark count and its route
    /// network: replay ends where the live database did. Returns the
    /// reopen's report.
    fn assert_reopens_as(
        dir: &Path,
        live: &Database,
        ids: impl IntoIterator<Item = u64>,
    ) -> RecoveryReport {
        let (reopened, report) = DurableDatabase::open(dir, WalOptions::default()).unwrap();
        reopened.database().with_read(|db| {
            assert_eq!(db.moving_count(), live.moving_count());
            assert_eq!(db.stationary_count(), live.stationary_count());
            assert_eq!(db.network().len(), live.network().len());
            for id in ids.into_iter().map(ObjectId) {
                assert_eq!(db.moving(id).ok(), live.moving(id).ok(), "object {id:?}");
            }
        });
        report
    }

    /// A same-instant revision replaces the stored attribute (last
    /// writer wins), so an unacknowledged send and a direct update of the
    /// same object at the same instant must reach the log in the order
    /// they were applied — not the send's whenever its block fills.
    #[test]
    fn a_send_and_a_same_instant_apply_update_replay_in_apply_order() {
        let dir = tmp("same-instant");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        durable.register_moving(vehicle(1, 10.0)).unwrap();
        let service = durable.ingest_service(2, 0);
        let at = |arc: f64| UpdateMessage::basic(1.0, UpdatePosition::Arc(arc), 1.0);
        service
            .handle()
            .send(crate::ingest::UpdateEnvelope {
                id: ObjectId(1),
                msg: at(12.0),
            })
            .unwrap();
        durable.apply_update(ObjectId(1), &at(20.0)).unwrap();
        service.shutdown();
        let live = durable.database().with_read(Database::clone);
        assert_eq!(live.moving(ObjectId(1)).unwrap().attr.start_arc, 20.0);
        drop(durable);
        assert_reopens_as(&dir, &live, [1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The tail lock spans apply and append, checked without a race on
    /// the outcome: one thread is parked inside the write path's apply
    /// closure, holding the tail lock, before another (ordered by two
    /// channels) sends an acknowledged update of the same object at the
    /// same instant. The parked thread watches the database for the send
    /// for 500 ms; it must not see it, and then applies and logs its own
    /// update. So the log holds the two in the order they were applied,
    /// and replay ends where the live database did. A write path that
    /// applies before it takes the lock lets the send apply at once
    /// while the other is parked, and fails both checks.
    #[test]
    fn a_send_waits_for_a_write_parked_under_the_tail_lock() {
        use std::time::{Duration, Instant};
        let dir = tmp("parked");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        durable.register_moving(vehicle(1, 10.0)).unwrap();
        let service = durable.ingest_service(2, 0);
        let handle = service.handle();
        let at = |arc: f64| UpdateMessage::basic(1.0, UpdatePosition::Arc(arc), 1.0);
        let arc_of_1 =
            |db: &SharedDatabase| db.with_read(|db| db.moving(ObjectId(1)).unwrap().attr.start_arc);
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (sending, about_to_send) = std::sync::mpsc::channel();
        let seen_while_parked = std::thread::scope(|s| {
            let durable = &durable;
            let parked = s.spawn(move || {
                let (seen, appended) = durable
                    .wal()
                    .write(true, || {
                        let db = durable.database();
                        parked_tx.send(()).unwrap();
                        about_to_send.recv().unwrap();
                        let deadline = Instant::now() + Duration::from_millis(500);
                        let mut seen = arc_of_1(db);
                        while seen == 10.0 && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(1));
                            seen = arc_of_1(db);
                        }
                        let record = WalRecord::Update {
                            id: ObjectId(1),
                            msg: at(12.0),
                        };
                        db.apply(record.clone()).unwrap();
                        (seen, Some(record))
                    })
                    .unwrap();
                appended.unwrap();
                seen
            });
            s.spawn(move || {
                parked_rx.recv().unwrap();
                sending.send(()).unwrap();
                let envelope = crate::ingest::UpdateEnvelope {
                    id: ObjectId(1),
                    msg: at(20.0),
                };
                handle.send_acked(envelope).unwrap().recv().unwrap();
            });
            parked.join().unwrap()
        });
        assert_eq!(
            seen_while_parked, 10.0,
            "the send applied while a write held the tail lock"
        );
        service.shutdown();
        let live = durable.database().with_read(Database::clone);
        assert_eq!(live.moving(ObjectId(1)).unwrap().attr.start_arc, 20.0);
        drop(durable);
        assert_reopens_as(&dir, &live, [1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A send the leader rejected for an unknown object stays rejected on
    /// replay: the registration that followed it is logged after it.
    #[test]
    fn a_send_rejected_before_a_registration_stays_rejected_on_replay() {
        let dir = tmp("send-before-register");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        let service = durable.ingest_service(2, 0);
        service
            .handle()
            .send(crate::ingest::UpdateEnvelope {
                id: ObjectId(7),
                msg: UpdateMessage::basic(1.0, UpdatePosition::Arc(30.0), 1.0),
            })
            .unwrap();
        assert_eq!(service.stats().snapshot().unknown_object, 1);
        durable.register_moving(vehicle(7, 10.0)).unwrap();
        service.shutdown();
        let live = durable.database().with_read(Database::clone);
        assert_eq!(live.moving(ObjectId(7)).unwrap().attr.start_arc, 10.0);
        drop(durable);
        assert_reopens_as(&dir, &live, [7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record too large for any block is refused before its mutation
    /// is applied, and an unacknowledged send waiting in the tail is
    /// appended all the same: the refusal costs no other record.
    #[test]
    fn an_oversized_record_is_refused_unapplied_and_a_pending_send_survives_it() {
        let dir = tmp("oversized");
        let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
        durable.register_moving(vehicle(1, 10.0)).unwrap();
        let service = durable.ingest_service(2, 0);
        service
            .handle()
            .send(crate::ingest::UpdateEnvelope {
                id: ObjectId(1),
                msg: UpdateMessage::basic(1.0, UpdatePosition::Arc(12.0), 1.0),
            })
            .unwrap();
        let huge = StationaryObject::new(
            ObjectId(50),
            "x".repeat(modb_wal::MAX_RECORD_BYTES as usize),
            Point::new(5.0, 0.0),
        );
        assert!(matches!(
            durable.insert_stationary(huge),
            Err(WalError::FrameTooLarge { .. })
        ));
        durable
            .insert_stationary(StationaryObject::new(
                ObjectId(51),
                "depot",
                Point::new(5.0, 0.0),
            ))
            .unwrap();
        service.shutdown();
        let live = durable.database().with_read(Database::clone);
        assert_eq!(
            live.stationary_count(),
            1,
            "the oversized landmark was not applied"
        );
        assert_eq!(live.moving(ObjectId(1)).unwrap().attr.start_arc, 12.0);
        drop(durable);
        assert_reopens_as(&dir, &live, [1]);
        let (reopened, _) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(reopened.database().with_read(|db| db.stationary_count()), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed log stays failed until the database is reopened: the
    /// write whose append failed is not logged, and every later write — an
    /// update, a registration, a landmark, a removal — is refused with
    /// the log's error before it is applied. Reopened, the database holds
    /// exactly the logged prefix, and its next write lands at the next
    /// LSN.
    #[test]
    fn a_failed_log_stays_failed_until_the_database_is_reopened() {
        let dir = tmp("sticky");
        let small = WalOptions {
            max_segment_bytes: 64,
        };
        let durable = DurableDatabase::create(&dir, fresh_db(), small).unwrap();
        durable.register_moving(vehicle(1, 10.0)).unwrap();
        let logged = durable.database().with_read(Database::clone);
        // The segment is past its size, so the next append rotates, onto
        // a name a directory squats.
        let squatter = dir.join(modb_wal::segment::segment_file_name(1));
        std::fs::create_dir(&squatter).unwrap();
        assert!(matches!(
            durable.register_moving(vehicle(2, 40.0)),
            Err(WalError::Io(_))
        ));
        std::fs::remove_dir(&squatter).unwrap();
        let failed = durable.database().with_read(Database::clone);

        let at = UpdateMessage::basic(5.0, UpdatePosition::Arc(14.0), 0.5);
        let depot = StationaryObject::new(ObjectId(100), "depot", Point::new(12.0, 0.0));
        for refused in [
            durable.apply_update(ObjectId(1), &at),
            durable.register_moving(vehicle(3, 70.0)),
            durable.insert_stationary(depot),
            durable.remove_moving(ObjectId(1)).map(drop),
        ] {
            let err = refused.unwrap_err();
            assert!(err.to_string().contains("failed earlier"), "{err}");
        }
        durable.database().with_read(|db| {
            assert_eq!(db.moving(ObjectId(1)).unwrap().attr.start_time, 0.0);
            assert_eq!(db.moving_count(), failed.moving_count());
            assert_eq!(db.stationary_count(), 0);
        });
        assert_eq!(durable.wal().next_lsn(), 1, "a failed log takes no record");
        drop(durable);

        let (reopened, report) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(report.next_lsn, 1);
        reopened.database().with_read(|db| {
            assert_eq!(db.moving_count(), logged.moving_count());
            assert_eq!(db.moving(ObjectId(1)).ok(), logged.moving(ObjectId(1)).ok());
        });
        reopened.apply_update(ObjectId(1), &at).unwrap();
        assert_eq!(reopened.wal().next_lsn(), 2);
        drop(reopened);
        assert_reopens_as(
            &dir,
            &{
                let mut db = logged;
                db.apply_update(ObjectId(1), &at).unwrap();
                db
            },
            [1],
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One mutation of the interleaving property below.
    #[derive(Debug, Clone)]
    enum Op {
        Send(u64, UpdateMessage),
        SendAcked(u64, UpdateMessage),
        ApplyUpdate(u64, UpdateMessage),
        Register(u64, f64),
        Remove(u64),
        InsertStationary(u64),
        InsertRoute(u64),
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::strategy::Strategy;
        // Four ids and four instants: same-instant revisions, stale
        // updates, updates to removed or unregistered objects and
        // duplicate registrations all come up often. A landmark takes an
        // id from 2 to 5, so it collides with vehicles 2 and 3 and with
        // itself; a route an id from 1 to 3, so route 1 (the genesis
        // network's) and every second insert collide.
        (0u8..7, 0u64..4, 0u8..4, 0u8..60).prop_map(|(kind, id, t, arc)| {
            let msg = UpdateMessage::basic(f64::from(t), UpdatePosition::Arc(f64::from(arc)), 1.0);
            match kind {
                0 => Op::Send(id, msg),
                1 => Op::SendAcked(id, msg),
                2 => Op::ApplyUpdate(id, msg),
                3 => Op::Register(id, f64::from(arc)),
                4 => Op::Remove(id),
                5 => Op::InsertStationary(id + 2),
                _ => Op::InsertRoute(id % 3 + 1),
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]

        /// Every mutation method, interleaved: the reopened state equals
        /// the live one object by object, and replay gives the live
        /// verdicts — every update the leader rejected is rejected again,
        /// and every other logged record applies, as it did live.
        #[test]
        fn interleaved_mutations_reopen_as_the_live_state(
            ops in proptest::collection::vec(op(), 1..60),
        ) {
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = tmp(&format!("interleaved-{case}"));
            let durable = DurableDatabase::create(&dir, fresh_db(), WalOptions::default()).unwrap();
            let service = durable.ingest_service(2, 0);
            let handle = service.handle();
            let envelope = |id: u64, msg: UpdateMessage| crate::ingest::UpdateEnvelope {
                id: ObjectId(id),
                msg,
            };
            // The live verdicts of this handle's own writes; the sends'
            // are the service's counters.
            let (mut applied, mut rejected_updates) = (0u64, 0u64);
            for op in ops {
                // Rejections are part of the property: they must
                // re-reject on replay.
                let written = match op {
                    Op::Send(id, msg) => {
                        handle.send(envelope(id, msg)).unwrap();
                        continue;
                    }
                    Op::SendAcked(id, msg) => {
                        handle.send_acked(envelope(id, msg)).unwrap().recv().unwrap();
                        continue;
                    }
                    Op::ApplyUpdate(id, msg) => {
                        let written = durable.apply_update(ObjectId(id), &msg);
                        rejected_updates += u64::from(written.is_err());
                        written
                    }
                    Op::Register(id, arc) => durable.register_moving(vehicle(id, arc)),
                    Op::Remove(id) => durable.remove_moving(ObjectId(id)),
                    Op::InsertStationary(id) => durable.insert_stationary(
                        StationaryObject::new(ObjectId(id), "depot", Point::new(5.0, 0.0)),
                    ),
                    Op::InsertRoute(id) => durable.insert_route(
                        Route::from_vertices(
                            RouteId(id),
                            "spur",
                            vec![Point::new(0.0, 5.0), Point::new(50.0, 5.0)],
                        )
                        .unwrap(),
                    ),
                };
                match written {
                    Ok(()) => applied += 1,
                    Err(WalError::Core(_)) => {}
                    Err(e) => panic!("the log failed: {e}"),
                }
            }
            let sends = service.shutdown();
            let live = durable.database().with_read(Database::clone);
            drop(durable);
            let report = assert_reopens_as(&dir, &live, 0..4);
            assert_eq!(report.rejected, rejected_updates + sends.rejected() as u64);
            assert_eq!(report.replayed, applied + sends.accepted as u64);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
