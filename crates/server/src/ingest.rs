//! Update ingestion: the server side of the wireless link.
//!
//! Position updates from thousands of vehicles arrive asynchronously, on
//! whatever thread received them — a session thread of the query
//! front-end, a producer in an experiment. [`IngestHandle::send`] and
//! [`IngestHandle::send_acked`] log and apply the update **on that
//! thread**; the [`IngestService`] owns no thread and no queue, so a call
//! that returned has been applied.
//!
//! **One write path.** A send is the log's one write call
//! ([`modb_wal::SharedWal::write`], through [`crate::DurableDatabase`]):
//! under the log's tail lock the update is applied through the one apply
//! seam (`SharedDatabase::apply`: [`modb_wal::apply_record`] under the
//! write lock) and its record framed into the log's tail whatever its
//! verdict, as the leader's logging rule has it (DESIGN §7). The log
//! appends the tail every [`WAL_BATCH_RECORDS`] records, on an
//! acknowledged send or any other mutation, and at the sync that ends a
//! shutdown. So the log holds every update in the order it was applied,
//! and no record has an LSN ahead of the in-memory state. Rejected
//! updates are logged too: replay re-derives the same verdicts.
//!
//! Acknowledged sends additionally promise durability:
//! [`PendingAck::recv`] waits on the log's group commit
//! ([`modb_wal::SharedWal::commit`]) *after* the tail lock is released,
//! so one fsync serves every thread acking at once.
//!
//! Rejections (stale timestamps after a vehicle reboot, off-route fixes,
//! unknown objects) are normal radio-network operation — counted by
//! reason in [`IngestStats`], not fatal.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use modb_core::{CoreError, ObjectId, UpdateMessage};
pub use modb_wal::WAL_BATCH_RECORDS;
use modb_wal::{GroupCommitStats, SharedWal, WalError, WalRecord};

use crate::durable::DurableDatabase;

/// What an acknowledged send reports back to the producer.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The WAL frontier (next LSN) right after this envelope's record
    /// was appended — every record of the log below `lsn` is already
    /// applied to the in-memory database (DESIGN §7), so any statement
    /// that starts after this outcome is returned reads this update.
    pub lsn: u64,
    /// The DBMS verdict (rejected updates are applied-and-logged as
    /// rejections, same as the fire-and-forget path).
    pub verdict: Result<(), CoreError>,
}

/// The service has shut down: the envelope, handed back, was neither
/// applied nor logged.
#[derive(Debug)]
pub struct IngestClosed(pub UpdateEnvelope);

impl fmt::Display for IngestClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ingest service shut down")
    }
}

impl std::error::Error for IngestClosed {}

/// A position update addressed to one object.
#[derive(Debug, Clone)]
pub struct UpdateEnvelope {
    /// The sending object.
    pub id: ObjectId,
    /// The update payload.
    pub msg: UpdateMessage,
}

/// Counters of the ingest path, read through
/// [`IngestStats::snapshot`]. Rejections are broken down by the DBMS
/// verdict so operators can tell a fleet of rebooting vehicles (stale
/// timestamps) from a map-matching problem (off-route).
#[derive(Debug, Default)]
pub struct IngestStats {
    accepted: AtomicUsize,
    stale: AtomicUsize,
    off_route: AtomicUsize,
    unknown_object: AtomicUsize,
    other_rejected: AtomicUsize,
    wal_errors: AtomicUsize,
}

impl IngestStats {
    /// A coherent copy of all counters (each counter is read once; the
    /// snapshot is consistent to within concurrent increments).
    pub fn snapshot(&self) -> IngestStatsSnapshot {
        let read = |counter: &AtomicUsize| counter.load(Ordering::Relaxed);
        IngestStatsSnapshot {
            accepted: read(&self.accepted),
            stale: read(&self.stale),
            off_route: read(&self.off_route),
            unknown_object: read(&self.unknown_object),
            other_rejected: read(&self.other_rejected),
            wal_errors: read(&self.wal_errors),
        }
    }

    fn record(&self, outcome: &Result<(), CoreError>) {
        let counter = match outcome {
            Ok(()) => &self.accepted,
            Err(CoreError::StaleUpdate { .. }) => &self.stale,
            Err(CoreError::OffRoute { .. }) => &self.off_route,
            Err(CoreError::UnknownObject(_)) => &self.unknown_object,
            Err(_) => &self.other_rejected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A plain-value copy of [`IngestStats`], printable for operator logs and
/// experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStatsSnapshot {
    /// Updates applied successfully.
    pub accepted: usize,
    /// Rejected: stale timestamp.
    pub stale: usize,
    /// Rejected: off-route position.
    pub off_route: usize,
    /// Rejected: unknown object.
    pub unknown_object: usize,
    /// Rejected: everything else.
    pub other_rejected: usize,
    /// WAL append and commit failures (the update was still applied;
    /// the durable log is missing records, a recovery would replay a
    /// shorter prefix, and no acknowledged send was answered `Ok` for
    /// them).
    pub wal_errors: usize,
}

impl IngestStatsSnapshot {
    /// Total rejected, all reasons combined.
    pub fn rejected(&self) -> usize {
        self.stale + self.off_route + self.unknown_object + self.other_rejected
    }

    /// Total envelopes processed.
    pub fn total(&self) -> usize {
        self.accepted + self.rejected()
    }
}

impl fmt::Display for IngestStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accepted, {} rejected ({} stale, {} off-route, {} unknown, {} other)",
            self.accepted,
            self.rejected(),
            self.stale,
            self.off_route,
            self.unknown_object,
            self.other_rejected,
        )?;
        if self.wal_errors > 0 {
            write!(f, ", {} wal errors", self.wal_errors)?;
        }
        Ok(())
    }
}

/// An acknowledged send that has been applied and appended but not yet
/// waited on for durability (see [`IngestHandle::send_acked`]).
pub struct PendingAck {
    wal: SharedWal,
    stats: Arc<IngestStats>,
    /// The send's verdict and the frontier right after its append, or
    /// why it was not logged.
    logged: Result<(Result<(), CoreError>, u64), WalError>,
}

impl PendingAck {
    /// Waits until the record is durable and returns the outcome. The
    /// fsync is shared with every thread waiting at the same time, and
    /// covers every record appended before it starts.
    ///
    /// # Errors
    ///
    /// The append or sync failure: the update is applied in memory but
    /// **not** in the durable log, and must not be acknowledged; or the
    /// sticky failure of a log that had failed before the send, which
    /// applied nothing.
    pub fn recv(self) -> Result<UpdateOutcome, WalError> {
        let (verdict, lsn) = self.logged?;
        if let Err(e) = self.wal.commit(lsn) {
            self.stats.wal_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        Ok(UpdateOutcome { lsn, verdict })
    }
}

/// Producer-side handle: logs and applies envelopes on the calling
/// thread, through the database's one write path. Cloneable, and
/// detached from the service's lifetime — after
/// [`IngestService::shutdown`] every send is refused.
#[derive(Clone)]
pub struct IngestHandle {
    durable: DurableDatabase,
    stats: Arc<IngestStats>,
    /// Set by [`IngestService`]'s shutdown before its sync takes the tail
    /// lock; read under that lock, so a send either lands in the tail the
    /// sync appends or is refused.
    closed: Arc<AtomicBool>,
}

impl fmt::Debug for IngestHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestHandle")
            .field("dir", &self.durable.dir())
            .finish()
    }
}

impl IngestHandle {
    /// The write path for one envelope: apply and frame under the tail
    /// lock, and append on `acked` or a full tail. Durability is the
    /// caller's to wait for, after the lock is gone.
    fn apply(&self, env: UpdateEnvelope, acked: bool) -> Result<PendingAck, IngestClosed> {
        let written = self.durable.wal().write(acked, || {
            if self.closed.load(Ordering::Relaxed) {
                return (None, None);
            }
            let record = WalRecord::Update {
                id: env.id,
                msg: env.msg,
            };
            let verdict = self.durable.database().apply(record.clone());
            // Counted under the lock: the shutdown snapshot counts every
            // send that returned `Ok`.
            self.stats.record(&verdict);
            (Some(verdict), Some(record))
        });
        let logged = match written {
            Ok((None, _)) => return Err(IngestClosed(env)),
            Ok((Some(verdict), appended)) => appended.map(|lsn| (verdict, lsn)),
            Err(refused) => Err(refused),
        };
        if logged.is_err() {
            self.stats.wal_errors.fetch_add(1, Ordering::Relaxed);
        }
        Ok(PendingAck {
            wal: self.durable.wal().clone(),
            stats: Arc::clone(&self.stats),
            logged,
        })
    }

    /// Applies an update and frames it for the log; when this returns the
    /// database reflects it. The record reaches the writer with the next
    /// append of the tail, and is durable once the service has shut down.
    /// A log that has failed refuses it unapplied, counted as a WAL error.
    ///
    /// # Errors
    ///
    /// [`IngestClosed`] when the service has shut down; the envelope was
    /// neither applied nor logged.
    pub fn send(&self, envelope: UpdateEnvelope) -> Result<(), IngestClosed> {
        self.apply(envelope, false).map(drop)
    }

    /// Applies an update for an *acknowledged* send: the tail is appended
    /// at once (assigning the record an LSN), and the returned
    /// [`PendingAck`] waits for the fsync.
    ///
    /// # Errors
    ///
    /// [`IngestClosed`] when the service has shut down.
    pub fn send_acked(&self, envelope: UpdateEnvelope) -> Result<PendingAck, IngestClosed> {
        self.apply(envelope, true)
    }

    /// Shared accept/reject counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }
}

/// The owner of an ingest path into the database: hands out
/// [`IngestHandle`]s and, on [`IngestService::shutdown`] or drop, closes
/// them and makes the log durable. It owns no thread.
pub struct IngestService {
    handle: IngestHandle,
}

impl IngestService {
    /// An ingest path into `durable` (see the module docs).
    pub(crate) fn new(durable: DurableDatabase) -> Self {
        IngestService {
            handle: IngestHandle {
                durable,
                stats: Arc::default(),
                closed: Arc::default(),
            },
        }
    }

    /// A producer handle (one per vehicle link, typically). Cloneable.
    pub fn handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// What [`crate::DurableDatabase::serve_queries`] takes to accept
    /// remote `Update` frames and fill the scrape's ingest rows: the same
    /// handle as [`IngestService::handle`]. (Kept under this name because
    /// `modb_ledger/` calls it.)
    pub fn frontend(&self) -> IngestHandle {
        self.handle()
    }

    /// Shared counters.
    pub fn stats(&self) -> &IngestStats {
        self.handle.stats()
    }

    /// The log's group-commit coalescing counters, always `Some`. (The
    /// `Option` is kept because `modb_ledger/` reads it through
    /// `.and_then(..)`.)
    pub fn group_commit_stats(&self) -> Option<GroupCommitStats> {
        Some(self.handle.durable.wal().commit_stats())
    }

    /// Closes the service, even if producer handles are still alive, and
    /// returns the final counters.
    ///
    /// **Contract.** Every [`IngestHandle::send`] that returned `Ok` —
    /// before this call or racing it — is applied to the database, in the
    /// log and fsynced when this returns; every send that returned `Err`
    /// is in neither.
    pub fn shutdown(self) -> IngestStatsSnapshot {
        let handle = self.handle();
        drop(self);
        handle.stats().snapshot()
    }
}

impl Drop for IngestService {
    fn drop(&mut self) {
        let handle = &self.handle;
        // A sender holding the tail lock has framed its record, which the
        // sync appends once it has the lock; the next one finds the
        // service closed.
        handle.closed.store(true, Ordering::Relaxed);
        if handle.durable.wal().sync().is_err() {
            handle.stats.wal_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{
        Database, DatabaseConfig, MovingObject, PolicyDescriptor, PositionAttribute, UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};
    use modb_wal::WalOptions;

    /// A fresh durable database under the temp dir with `n_objects`
    /// vehicles in its genesis snapshot, so its log starts empty.
    fn durable(name: &str, n_objects: u64) -> (std::path::PathBuf, DurableDatabase) {
        let dir = std::env::temp_dir().join(format!("modb-ingest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let route = Route::from_vertices(
            RouteId(1),
            "r",
            vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)],
        )
        .unwrap();
        let network = RouteNetwork::from_routes([route]).unwrap();
        let mut db = Database::new(network, DatabaseConfig::default());
        for i in 0..n_objects {
            db.register_moving(MovingObject {
                id: ObjectId(i),
                name: format!("veh-{i}"),
                attr: PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(1),
                    start_position: Point::new(i as f64, 0.0),
                    start_arc: i as f64,
                    direction: Direction::Forward,
                    speed: 1.0,
                    policy: PolicyDescriptor::CostBased {
                        kind: BoundKind::Immediate,
                        update_cost: 5.0,
                    },
                },
                max_speed: 1.5,
                trip_end: None,
            })
            .unwrap();
        }
        let durable = DurableDatabase::create(&dir, db, WalOptions::default()).unwrap();
        (dir, durable)
    }

    #[test]
    fn ingest_applies_all_valid_updates_in_order() {
        let (dir, durable) = durable("order", 50);
        let db = durable.database();
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        // 10 producers; each owns 5 objects and sends monotone updates.
        std::thread::scope(|s| {
            for p in 0..10u64 {
                let handle = handle.clone();
                s.spawn(move || {
                    for round in 1..=5u64 {
                        for i in 0..50u64 {
                            if i % 10 != p {
                                continue;
                            }
                            handle
                                .send(UpdateEnvelope {
                                    id: ObjectId(i),
                                    msg: UpdateMessage::basic(
                                        round as f64,
                                        UpdatePosition::Arc(i as f64 + round as f64),
                                        0.9,
                                    ),
                                })
                                .unwrap();
                        }
                    }
                });
            }
        });
        drop(handle);
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 250);
        assert_eq!(stats.rejected(), 0);
        db.with_read(|inner| {
            for i in 0..50u64 {
                assert_eq!(inner.moving(ObjectId(i)).unwrap().attr.start_time, 5.0);
            }
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejections_are_counted_by_reason() {
        let (dir, durable) = durable("reasons", 2);
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        let send = |id: u64, msg: UpdateMessage| {
            handle
                .send(UpdateEnvelope {
                    id: ObjectId(id),
                    msg,
                })
                .unwrap();
        };
        send(0, UpdateMessage::basic(5.0, UpdatePosition::Arc(10.0), 1.0)); // ok
        send(0, UpdateMessage::basic(4.0, UpdatePosition::Arc(11.0), 1.0)); // stale
        send(99, UpdateMessage::basic(5.0, UpdatePosition::Arc(1.0), 1.0)); // unknown
        send(
            1,
            UpdateMessage::basic(
                5.0,
                UpdatePosition::Coordinates(Point::new(10.0, 50.0)),
                1.0,
            ),
        ); // off-route
        send(1, UpdateMessage::basic(5.0, UpdatePosition::Arc(-3.0), 1.0)); // invalid
        drop(handle);
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.unknown_object, 1);
        assert_eq!(stats.off_route, 1);
        assert_eq!(stats.other_rejected, 1);
        assert_eq!(stats.rejected(), 4);
        assert_eq!(stats.total(), 5);
        let line = stats.to_string();
        assert!(line.contains("1 accepted"), "{line}");
        assert!(line.contains("4 rejected"), "{line}");
        assert!(line.contains("1 stale"), "{line}");
        assert!(!line.contains("wal errors"), "{line}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queries_run_while_ingesting() {
        let (dir, durable) = durable("queries", 100);
        let db = durable.database().clone();
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        let producer = std::thread::spawn(move || {
            for round in 1..=20u64 {
                for i in 0..100u64 {
                    handle
                        .send(UpdateEnvelope {
                            id: ObjectId(i),
                            msg: UpdateMessage::basic(
                                round as f64 * 0.1,
                                UpdatePosition::Arc(i as f64 + round as f64 * 0.1),
                                1.0,
                            ),
                        })
                        .unwrap();
                }
            }
        });
        for _ in 0..50 {
            let r = db
                .with_read(|d| d.within_distance_of_point(Point::new(50.0, 0.0), 25.0, 2.0))
                .unwrap();
            assert!(r.candidates <= 100);
        }
        producer.join().unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.total(), 2000);
        assert_eq!(stats.rejected(), 0, "one producer: per-object order holds");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn send_after_shutdown_errors() {
        let (dir, durable) = durable("closed", 1);
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        let stats = service.shutdown();
        assert_eq!(stats.total(), 0);
        assert!(handle
            .send(UpdateEnvelope {
                id: ObjectId(0),
                msg: UpdateMessage::basic(1.0, UpdatePosition::Arc(1.0), 1.0),
            })
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn acked_apply_flushes_immediately_and_reports_the_frontier() {
        let (dir, durable) = durable("ack", 4);
        let wal = durable.wal();
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        let mut last_lsn = 0;
        for round in 1..=5u64 {
            let rx = handle
                .send_acked(UpdateEnvelope {
                    id: ObjectId(round % 4),
                    msg: UpdateMessage::basic(round as f64, UpdatePosition::Arc(round as f64), 1.0),
                })
                .unwrap();
            let outcome = rx.recv().unwrap();
            assert!(outcome.verdict.is_ok());
            // Acked applies bypass the 32-record batch threshold: every
            // ack sees its own record already flushed, so the reported
            // frontier strictly advances.
            assert!(outcome.lsn > last_lsn, "{} !> {last_lsn}", outcome.lsn);
            last_lsn = outcome.lsn;
        }
        assert_eq!(wal.next_lsn(), 5);
        // A rejected update is applied-and-logged too: the frontier
        // still advances and the verdict carries the DBMS error.
        let rx = handle
            .send_acked(UpdateEnvelope {
                id: ObjectId(1),
                msg: UpdateMessage::basic(0.5, UpdatePosition::Arc(9.0), 1.0),
            })
            .unwrap();
        let outcome = rx.recv().unwrap();
        assert!(matches!(
            outcome.verdict,
            Err(CoreError::StaleUpdate { .. })
        ));
        assert_eq!(outcome.lsn, 6);
        drop(handle);
        let stats = service.shutdown();
        assert_eq!(stats.total(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_acked_ingest_group_commits() {
        let (dir, durable) = durable("gc", 16);
        let wal = durable.wal();
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        let per_producer = 20u64;
        std::thread::scope(|s| {
            for p in 0..8u64 {
                let handle = handle.clone();
                s.spawn(move || {
                    for round in 1..=per_producer {
                        let rx = handle
                            .send_acked(UpdateEnvelope {
                                id: ObjectId((p * 2) % 16),
                                msg: UpdateMessage::basic(
                                    (p * per_producer + round) as f64,
                                    UpdatePosition::Arc(round as f64),
                                    1.0,
                                ),
                            })
                            .unwrap();
                        let outcome = rx.recv().unwrap();
                        assert!(outcome.lsn > 0, "acked applies carry a frontier");
                    }
                });
            }
        });
        let gc = service.group_commit_stats().expect("wal-backed service");
        assert!(gc.commits >= 1);
        assert!(
            gc.commits <= gc.tickets,
            "never more fsyncs than tickets: {gc:?}"
        );
        assert_eq!(wal.commit_stats(), gc);
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(
            fsyncs, gc.commits,
            "160 records are far from a periodic sync: every fsync is a commit's"
        );
        drop(handle);
        let stats = service.shutdown();
        assert_eq!(stats.total() as u64, 8 * per_producer);
        assert_eq!(stats.wal_errors, 0);
        assert_eq!(wal.next_lsn(), 8 * per_producer);
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(fsyncs, gc.commits + 1, "shutdown adds its one sync");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_backed_ingest_logs_every_envelope_before_stopping() {
        let (dir, durable) = durable("wal", 10);
        let wal = durable.wal();
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let handle = handle.clone();
                s.spawn(move || {
                    for round in 1..=25u64 {
                        for i in 0..10u64 {
                            if i % 4 != p {
                                continue;
                            }
                            handle
                                .send(UpdateEnvelope {
                                    id: ObjectId(i),
                                    // Every other round is stale: rejected
                                    // but still logged.
                                    msg: UpdateMessage::basic(
                                        if round % 2 == 0 { 0.0 } else { round as f64 },
                                        UpdatePosition::Arc(i as f64 + round as f64),
                                        0.9,
                                    ),
                                })
                                .unwrap();
                        }
                    }
                });
            }
        });
        drop(handle);
        let stats = service.shutdown();
        assert_eq!(stats.total(), 250);
        assert!(stats.stale > 0, "even-round updates are stale");
        assert_eq!(stats.wal_errors, 0);
        // Shutdown flushed the tail: the log holds all 250 envelopes,
        // accepted and rejected alike.
        assert_eq!(wal.next_lsn(), 250);
        let mut logged = 0;
        for (_, path) in modb_wal::list_segments(&dir).unwrap() {
            let scan = modb_wal::scan_segment(&path).unwrap();
            assert!(scan.torn.is_none());
            logged += scan.records.len();
        }
        assert_eq!(logged, 250);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sync makes every send that returned before it durable: the
    /// log appends the tail's records first. A copy of the directory
    /// taken after the sync — what a crash would leave — reopens with
    /// every one of them.
    #[test]
    fn a_sync_appends_the_unacknowledged_sends_before_it() {
        let (dir, durable) = durable("sync-tail", 4);
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        let sent = WAL_BATCH_RECORDS - 1;
        for t in 1..=sent {
            let msg = UpdateMessage::basic(t as f64, UpdatePosition::Arc(t as f64), 1.0);
            let id = ObjectId(t % 4);
            handle.send(UpdateEnvelope { id, msg }).unwrap();
        }
        assert_eq!(durable.wal().sync().unwrap(), sent);
        let copy = dir.with_extension("copy");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        let (reopened, report) = DurableDatabase::open(&copy, WalOptions::default()).unwrap();
        assert_eq!((report.next_lsn, report.replayed), (sent, sent));
        let live = durable.database().with_read(Database::clone);
        reopened.database().with_read(|db| {
            for id in (0..4).map(ObjectId) {
                assert_eq!(db.moving(id).ok(), live.moving(id).ok(), "{id:?}");
            }
        });
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&copy).unwrap();
    }

    #[test]
    fn an_ack_does_not_lie_about_a_failed_commit() {
        let (dir, durable) = durable("lie", 2);
        let db = durable.database();
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        let envelope = |t: f64| UpdateEnvelope {
            id: ObjectId(1),
            msg: UpdateMessage::basic(t, UpdatePosition::Arc(t), 1.0),
        };
        assert!(handle.send_acked(envelope(1.0)).unwrap().recv().is_ok());
        // Appended, then its commit's fsync fails: applied in memory and
        // in the segment, but not acknowledged — the log cannot vouch
        // for it.
        let pending = handle.send_acked(envelope(2.0)).unwrap();
        assert_eq!(durable.wal().next_lsn(), 2, "the append succeeded");
        durable.wal().fail_for_test("disk on fire");
        let err = pending.recv().unwrap_err();
        assert!(err.to_string().contains("disk on fire"), "{err}");
        assert_eq!(handle.stats().snapshot().wal_errors, 1, "the failed commit");
        assert_eq!(durable.wal().durable_lsn(), 1);
        // The failure is sticky: the next acked send is refused before
        // it is applied, and it is not acknowledged either.
        let err = handle
            .send_acked(envelope(3.0))
            .unwrap()
            .recv()
            .unwrap_err();
        assert!(err.to_string().contains("disk on fire"), "{err}");
        assert_eq!(handle.stats().snapshot().wal_errors, 2, "the refused send");
        db.with_read(|inner| assert_eq!(inner.moving(ObjectId(1)).unwrap().attr.start_time, 2.0));
        assert_eq!(durable.wal().next_lsn(), 2, "a failed log takes no record");
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 2, "the refused send was never applied");
        assert_eq!(stats.wal_errors, 3, "and the final sync on the failed log");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The shutdown contract, with senders racing the shutdown itself:
    /// the log holds the sends that returned `Ok` and no others.
    #[test]
    fn sends_racing_shutdown_are_logged_iff_they_returned_ok() {
        use std::sync::atomic::AtomicU64;
        let (dir, durable) = durable("race", 8);
        let service = durable.ingest_service(0, 0);
        let handle = service.handle();
        const SENDERS: u64 = 4;
        let progress = AtomicU64::new(0);
        // Each sender stamps its updates uniquely — (object, time) names
        // one send — and keeps going until it is refused.
        let mut sent: Vec<(u64, u64)> = std::thread::scope(|s| {
            let senders: Vec<_> = (0..SENDERS)
                .map(|p| {
                    let (handle, progress) = (handle.clone(), &progress);
                    s.spawn(move || {
                        let mut sent = Vec::new();
                        for k in 1u64.. {
                            let (id, time) = (k % 8, k * SENDERS + p);
                            let envelope = UpdateEnvelope {
                                id: ObjectId(id),
                                msg: UpdateMessage::basic(
                                    time as f64,
                                    UpdatePosition::Arc(1.0),
                                    1.0,
                                ),
                            };
                            let outcome = if k % 3 == 0 {
                                handle.send_acked(envelope).map(drop)
                            } else {
                                handle.send(envelope)
                            };
                            if outcome.is_err() {
                                break;
                            }
                            sent.push((id, time));
                            progress.fetch_add(1, Ordering::Relaxed);
                        }
                        sent
                    })
                })
                .collect();
            // Shut down only once every sender is demonstrably mid-stream.
            while progress.load(Ordering::Relaxed) < 200 * SENDERS {
                std::thread::yield_now();
            }
            let stats = service.shutdown();
            let sent: Vec<_> = senders
                .into_iter()
                .flat_map(|s| s.join().unwrap())
                .collect();
            assert_eq!(stats.total(), sent.len(), "counted = returned Ok");
            assert_eq!(stats.wal_errors, 0);
            sent
        });
        let mut logged = Vec::new();
        for (_, path) in modb_wal::list_segments(&dir).unwrap() {
            let scan = modb_wal::scan_segment(&path).unwrap();
            assert!(scan.torn.is_none());
            for record in scan.records {
                let WalRecord::Update { id, msg } = record else {
                    panic!("only updates were sent");
                };
                logged.push((id.0, msg.time as u64));
            }
        }
        sent.sort_unstable();
        logged.sort_unstable();
        assert_eq!(
            logged, sent,
            "the log holds exactly the sends that returned Ok"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
