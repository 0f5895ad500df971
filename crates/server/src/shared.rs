//! A thread-safe database handle.
//!
//! Reads take the read lock ([`SharedDatabase::with_read`]); the one
//! mutation is crate-private: a log record becomes state only through
//! `SharedDatabase::apply`, which runs [`modb_wal::apply_record`] — the
//! seam recovery and snapshot loads use — under the write lock. So no
//! public call changes a node's memory without its log: a leader writes
//! through [`crate::DurableDatabase`], a follower through the runs it
//! logs (DESIGN §7, §10).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use modb_core::{CoreError, Database};
use modb_wal::{EpochHistory, RecoveryReport, WalError, WalRecord};
use parking_lot::RwLock;

/// A cloneable, thread-safe handle to one moving-objects database.
///
/// A write takes the write lock for one record — the underlying
/// [`Database`] operations are all short (no I/O). Reads go through
/// [`SharedDatabase::with_read`]; a served statement takes the read lock
/// only to clone the database ([`crate::QueryEngine`]).
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    inner: Arc<RwLock<Database>>,
}

impl SharedDatabase {
    /// Wraps a database for shared use.
    pub fn new(db: Database) -> Self {
        SharedDatabase {
            inner: Arc::new(RwLock::new(db)),
        }
    }

    /// Rebuilds a shared database from a durability directory (latest
    /// snapshot + write-ahead-log replay, torn tails truncated). See
    /// [`modb_wal::recover`] for the procedure; see
    /// [`crate::DurableDatabase::open`] to also resume logging.
    ///
    /// # Errors
    ///
    /// See [`modb_wal::recover`].
    pub fn recover(dir: &Path) -> Result<(Self, RecoveryReport), WalError> {
        let recovered = modb_wal::recover(dir)?;
        Ok((SharedDatabase::new(recovered.database), recovered.report))
    }

    /// Writes a point-in-time snapshot into `dir` with `lsn` as the log
    /// high-water mark it covers and `epochs` as the leadership history
    /// below it — the inverse of
    /// [`SharedDatabase::recover`], and the one capture path of the
    /// leader ([`crate::DurableDatabase::snapshot`]), a follower's local
    /// snapshot and the REPL's `\save`. The state is cloned under a
    /// brief read lock (pointer copies, DESIGN §9); encoding, writing
    /// and fsyncing hold **no database lock**, and the clone is dropped
    /// on return. The caller picks `lsn` so that every record below it
    /// is already applied (DESIGN §7); what races past it may be
    /// captured too, and replay re-applies that overlap idempotently.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_snapshot(
        &self,
        dir: &Path,
        epochs: &EpochHistory,
        lsn: u64,
    ) -> Result<PathBuf, WalError> {
        let state = self.inner.read().clone();
        modb_wal::write_snapshot(dir, &state, epochs, lsn)
    }

    /// `QueryEngine::new(self.clone())`; the config is ignored. Kept
    /// because `modb_ledger/` calls it.
    #[doc(hidden)]
    pub fn query_engine(&self, _config: crate::QueryEngineConfig) -> crate::QueryEngine {
        crate::QueryEngine::new(self.clone())
    }

    /// Turns one log record into the database change it stands for,
    /// under the write lock, and returns the database's verdict: the one
    /// mutation of a shared database ([`modb_wal::apply_record`]).
    /// Crate-private, so every change reaches the log: a leader's writes
    /// come through [`crate::DurableDatabase`] and its ingest handles, a
    /// follower's through the runs it logs.
    pub(crate) fn apply(&self, record: WalRecord) -> Result<(), CoreError> {
        modb_wal::apply_record(&mut self.inner.write(), record)
    }

    /// Number of moving objects.
    pub fn moving_count(&self) -> usize {
        self.inner.read().moving_count()
    }

    /// Runs a read-only closure against the database under the read
    /// lock.
    pub fn with_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.inner.read())
    }

    /// Swaps the wrapped database in place. Existing clones (and query
    /// engines built over them) observe the new state on their next lock
    /// acquisition — this is how a replica installs a bootstrap snapshot
    /// without invalidating handles.
    pub(crate) fn replace(&self, db: Database) {
        *self.inner.write() = db;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{
        DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
        StationaryObject, UpdateMessage, UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};

    fn shared() -> SharedDatabase {
        let route = Route::from_vertices(
            RouteId(1),
            "r",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap();
        let network = RouteNetwork::from_routes([route]).unwrap();
        SharedDatabase::new(Database::new(network, DatabaseConfig::default()))
    }

    fn update(db: &SharedDatabase, id: u64, msg: UpdateMessage) -> Result<(), CoreError> {
        db.apply(WalRecord::Update {
            id: ObjectId(id),
            msg,
        })
    }

    fn obj(id: u64, arc: f64) -> MovingObject {
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
    fn basic_operations_through_handle() {
        let db = shared();
        db.apply(WalRecord::RegisterMoving(obj(1, 10.0))).unwrap();
        assert_eq!(db.moving_count(), 1);
        update(
            &db,
            1,
            UpdateMessage::basic(2.0, UpdatePosition::Arc(12.0), 0.5),
        )
        .unwrap();
        let p = db.with_read(|d| d.position_of(ObjectId(1), 4.0)).unwrap();
        assert_eq!(p.arc, 13.0);
        let r = db
            .with_read(|d| {
                modb_query::run(d, "RETRIEVE OBJECTS WITHIN 5 OF POINT (13, 0) AT TIME 4")
            })
            .unwrap();
        assert_eq!(r.as_range().unwrap().all(), vec![ObjectId(1)]);
        db.apply(WalRecord::RemoveMoving(ObjectId(1))).unwrap();
        assert_eq!(db.moving_count(), 0);
    }

    #[test]
    fn clones_share_state() {
        let a = shared();
        let b = a.clone();
        a.apply(WalRecord::RegisterMoving(obj(1, 10.0))).unwrap();
        assert_eq!(b.moving_count(), 1);
        b.with_read(|db| assert!(db.moving(ObjectId(1)).is_ok()));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let db = shared();
        for i in 0..20 {
            db.apply(WalRecord::RegisterMoving(obj(i, i as f64)))
                .unwrap();
        }
        std::thread::scope(|s| {
            // Writers: each thread updates its own disjoint objects.
            for w in 0..4u64 {
                let handle = db.clone();
                s.spawn(move || {
                    for round in 1..=50u64 {
                        for i in (w * 5)..(w * 5 + 5) {
                            let t = round as f64 * 0.1;
                            update(
                                &handle,
                                i,
                                UpdateMessage::basic(
                                    t,
                                    UpdatePosition::Arc((i as f64 + t).min(100.0)),
                                    0.8,
                                ),
                            )
                            .unwrap();
                        }
                    }
                });
            }
            // Readers hammer queries concurrently.
            for _ in 0..4 {
                let handle = db.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let r = handle
                            .with_read(|d| {
                                d.within_distance_of_point(Point::new(50.0, 0.0), 30.0, 5.0)
                            })
                            .unwrap();
                        assert!(r.candidates <= 20);
                    }
                });
            }
        });
        // All final updates applied: every object's start_time is 5.0.
        db.with_read(|inner| {
            for id in inner.moving_ids().collect::<Vec<_>>() {
                assert_eq!(inner.moving(id).unwrap().attr.start_time, 5.0);
            }
        });
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("modb-shared-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_snapshot_then_recover_round_trips() {
        let dir = tmp("round-trip");
        let db = shared();
        for i in 1..=3 {
            db.apply(WalRecord::RegisterMoving(obj(i, 10.0 * i as f64)))
                .unwrap();
        }
        let depot = StationaryObject::new(ObjectId(100), "depot", Point::new(12.0, 0.0));
        db.apply(WalRecord::InsertStationary(depot)).unwrap();
        for t in [2.0, 4.0] {
            update(
                &db,
                1,
                UpdateMessage::basic(t, UpdatePosition::Arc(10.0 + t), 0.5),
            )
            .unwrap();
        }
        let path = db.write_snapshot(&dir, &EpochHistory::new(), 7).unwrap();
        assert!(path.exists());

        let (recovered, report) = SharedDatabase::recover(&dir).unwrap();
        assert_eq!((report.snapshot_lsn, report.replayed), (7, 0));
        db.with_read(|live| {
            recovered.with_read(|back| {
                assert_eq!(back.moving_count(), live.moving_count());
                for id in live.moving_ids() {
                    assert_eq!(back.moving(id).unwrap(), live.moving(id).unwrap());
                }
                assert_eq!(back.moving(ObjectId(1)).unwrap().attr.start_time, 4.0);
                assert_eq!(
                    back.stationary(ObjectId(100)).unwrap(),
                    live.stationary(ObjectId(100)).unwrap()
                );
            })
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writers_proceed_during_an_in_flight_write_snapshot() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = tmp("in-flight");
        let db = shared();
        for i in 1..=4000u64 {
            db.apply(WalRecord::RegisterMoving(obj(i, (i % 90) as f64)))
                .unwrap();
        }
        // Encoding 4000 objects holds no database lock, so the writer
        // loop below must land updates strictly inside the snapshot
        // window. The outer loop re-takes the snapshot in the (unlikely)
        // event the scheduler never interleaved the two threads.
        let in_flight = AtomicBool::new(false);
        let mut updates_during_snapshot = 0u64;
        let mut t = 0.0f64; // object 1's `start_time`
        for attempt in 0..20 {
            let before = t;
            std::thread::scope(|s| {
                let snapper = s.spawn(|| {
                    in_flight.store(true, Ordering::SeqCst);
                    let path = db.write_snapshot(&dir, &EpochHistory::new(), attempt);
                    in_flight.store(false, Ordering::SeqCst);
                    path
                });
                while !in_flight.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                while in_flight.load(Ordering::SeqCst) {
                    t += 0.001;
                    update(
                        &db,
                        1,
                        UpdateMessage::basic(t, UpdatePosition::Arc(20.0 + (t % 50.0)), 0.9),
                    )
                    .unwrap();
                    updates_during_snapshot += 1;
                }
                assert!(snapper.join().unwrap().unwrap().exists());
            });
            // What was captured is a state the database passed through
            // while the snapshot was in flight.
            let (recovered, _) = SharedDatabase::recover(&dir).unwrap();
            assert_eq!(recovered.moving_count(), 4000);
            let captured = recovered.with_read(|back| back.moving(ObjectId(1)).unwrap());
            assert!(
                (before..=t).contains(&captured.attr.start_time),
                "captured t = {} outside [{before}, {t}]",
                captured.attr.start_time
            );
            if updates_during_snapshot > 0 {
                break;
            }
        }
        assert!(
            updates_during_snapshot > 0,
            "no update landed while a snapshot was in flight"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
