//! Group commit: collapse many concurrent durability requests into few
//! fsyncs.
//!
//! The ingest path's unit of durability is the fsync, and fsyncs are the
//! expensive part of logging (the cost ledger's `wal.fsync_us` row prices
//! one). With many
//! sessions each wanting an acknowledged update to be durable before the
//! ack goes out, per-session fsyncs serialize the whole ingest tier on
//! the disk's flush latency.
//!
//! A [`GroupCommitter`] replaces them with a *commit ticket* protocol,
//! run entirely by the threads that want durability:
//!
//! 1. A producer appends its records (taking the [`SharedWal`] lock only
//!    for the buffered write), reads the log frontier, and calls
//!    [`GroupCommitter::commit`] with it.
//! 2. `commit` takes a ticket — the LSN the caller needs durable. When
//!    no sync is in flight the caller becomes the **syncer**: it claims
//!    every ticket taken so far, issues **one** `fsync`, advances the
//!    shared durable-LSN watermark to the frontier it read just before,
//!    and broadcasts. Otherwise it waits on the condvar.
//! 3. A waiter woken by the broadcast either finds the watermark past
//!    its LSN and returns, or — its record landed after the syncer's
//!    frontier read — becomes the next syncer for everyone who queued
//!    up during the last sync.
//!
//! The collapse needs no dedicated thread: the pile-up happens *while
//! the disk is busy* — [`SharedWal::sync`] does not hold the writer lock
//! across the fsync, so other producers keep appending and taking
//! tickets — and whoever syncs next carries the whole pile.
//! Under load the batch size grows with concurrency and the fsync rate
//! stays pinned near the disk's flush rate regardless of producer
//! count — the classic group-commit shape. Under a single slow producer
//! every commit degenerates to one private fsync on the caller's own
//! thread.
//!
//! A sync failure is sticky: every current and future waiter gets the
//! error, and no ack can be issued for an LSN that never became durable.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::error::WalError;
use crate::writer::SharedWal;

/// Counters describing the coalescing behaviour. Snapshot via
/// [`GroupCommitter::stats`]; exported through the server stats scrape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Commit tickets taken (one per [`GroupCommitter::commit`] call
    /// that was not already durable on arrival).
    pub tickets: u64,
    /// Fsyncs issued for them. `tickets / commits` is the mean batch
    /// size; > 1 means collapsing is happening.
    pub commits: u64,
    /// Tickets credited to the most recent sync. Approximate under
    /// races (a ticket that arrives mid-sync is credited to the next
    /// one), exact in the steady state.
    pub last_batch: u64,
    /// Largest single-sync batch observed.
    pub max_batch: u64,
}

#[derive(Debug)]
struct State {
    /// Everything at or below this LSN frontier is known durable.
    durable_lsn: u64,
    /// Tickets taken since the last sync claimed its batch.
    pending: u64,
    /// A caller is inside `fsync` right now; everyone else waits for its
    /// broadcast.
    syncing: bool,
    /// A failed sync, verbatim; poisons all current and future commits.
    failed: Option<String>,
    stats: GroupCommitStats,
}

#[derive(Debug)]
struct Inner {
    wal: SharedWal,
    state: Mutex<State>,
    /// Broadcast by the syncer when its sync ends, either way.
    committed: Condvar,
}

/// The shared commit point of one log; see the module docs for the
/// protocol. Cheap to clone — every clone requests durability against
/// the same watermark.
#[derive(Debug, Clone)]
pub struct GroupCommitter {
    inner: Arc<Inner>,
}

impl GroupCommitter {
    /// A commit point over `wal`. The `durable_lsn` watermark starts at
    /// the current log frontier: a resumed log's existing records were
    /// synced at shutdown (or survived recovery), so they are durable by
    /// construction.
    pub fn new(wal: SharedWal) -> GroupCommitter {
        let durable_lsn = wal.next_lsn();
        GroupCommitter {
            inner: Arc::new(Inner {
                wal,
                state: Mutex::new(State {
                    durable_lsn,
                    pending: 0,
                    syncing: false,
                    failed: None,
                    stats: GroupCommitStats::default(),
                }),
                committed: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .expect("group-commit state poisoned: a committing thread panicked")
    }

    /// Blocks until every record below `lsn` (a log frontier, i.e. a
    /// `next_lsn` value) is durable, sharing the fsync with every other
    /// concurrent caller — by riding one in flight, or by issuing the
    /// next one itself. Returns the durable frontier, which is ≥ `lsn`.
    ///
    /// # Errors
    ///
    /// The sync error, for every waiter, once any sync fails (sticky).
    pub fn commit(&self, lsn: u64) -> Result<u64, WalError> {
        let mut st = self.lock();
        let mut ticketed = false;
        loop {
            if let Some(msg) = &st.failed {
                return Err(sticky(msg));
            }
            if st.durable_lsn >= lsn {
                return Ok(st.durable_lsn); // someone's sync already covered us
            }
            if !ticketed {
                st.stats.tickets += 1;
                st.pending += 1;
                ticketed = true;
            }
            if st.syncing {
                st = self
                    .inner
                    .committed
                    .wait(st)
                    .expect("group-commit state poisoned: a committing thread panicked");
                continue;
            }
            // No sync in flight: this caller's fsync serves every ticket
            // taken so far. The frontier is read first: fsync flushes
            // everything appended before the call, so records appended
            // between the frontier read and the sync are a bonus the
            // *next* batch will re-claim harmlessly.
            st.syncing = true;
            let batch = std::mem::take(&mut st.pending);
            drop(st);
            let frontier = self.inner.wal.next_lsn();
            let result = self.inner.wal.sync();
            st = self.lock();
            st.syncing = false;
            match result {
                Ok(()) => {
                    st.durable_lsn = st.durable_lsn.max(frontier);
                    st.stats.commits += 1;
                    st.stats.last_batch = batch;
                    st.stats.max_batch = st.stats.max_batch.max(batch);
                }
                Err(e) => st.failed = Some(e.to_string()),
            }
            self.inner.committed.notify_all();
        }
    }

    /// The durable-LSN watermark: every record below it is on disk.
    pub fn durable_lsn(&self) -> u64 {
        self.lock().durable_lsn
    }

    /// A snapshot of the coalescing counters.
    pub fn stats(&self) -> GroupCommitStats {
        self.lock().stats
    }

    /// Puts the commit point into the state a failed `fsync` leaves it
    /// in — the probe the acks-never-lie tests assert on.
    #[doc(hidden)]
    pub fn fail_for_test(&self, msg: &str) {
        self.lock().failed = Some(msg.to_owned());
    }
}

fn sticky(msg: &str) -> WalError {
    WalError::Io(std::io::Error::other(format!("group commit failed: {msg}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalRecord;
    use crate::writer::{FsyncPolicy, WalOptions, WalWriter};
    use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("modb-wal-commit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn update(i: u64) -> WalRecord {
        WalRecord::Update {
            id: ObjectId(i),
            msg: UpdateMessage::basic(i as f64, UpdatePosition::Arc(0.0), 1.0),
        }
    }

    fn never_sync_wal(dir: &PathBuf) -> SharedWal {
        SharedWal::new(
            WalWriter::create(
                dir,
                WalOptions {
                    fsync: FsyncPolicy::Never,
                    ..WalOptions::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn serial_commits_are_durable_and_idempotent() {
        let dir = tmp("serial");
        let wal = never_sync_wal(&dir);
        let committer = GroupCommitter::new(wal.clone());
        for i in 0..5u64 {
            wal.append(&update(i)).unwrap();
            let durable = committer.commit(wal.next_lsn()).unwrap();
            assert!(durable > i);
            assert_eq!(committer.durable_lsn(), durable);
        }
        // Re-committing an already-durable frontier is free: no new ticket.
        let before = committer.stats();
        assert_eq!(committer.commit(3).unwrap(), 5);
        assert_eq!(committer.stats().tickets, before.tickets);
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(
            fsyncs,
            committer.stats().commits,
            "policy is Never: every fsync is a commit's"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A group commit's fsync closes the `EveryN` window too: under the
    /// default `EveryN(256)`, 512 single-record appends each committed
    /// cost exactly their 512 commits — no policy fsync inside `append`,
    /// under the writer lock, for records already durable — and appends
    /// with no commit still get the policy's fsync every 256 records.
    #[test]
    fn a_group_commit_closes_the_every_n_window() {
        let dir = tmp("every-n");
        let wal = SharedWal::new(WalWriter::create(&dir, WalOptions::default()).unwrap());
        assert_eq!(
            wal.with_writer(|w| w.options().fsync),
            FsyncPolicy::EveryN(256)
        );
        let committer = GroupCommitter::new(wal.clone());
        for i in 0..512 {
            wal.append(&update(i)).unwrap();
            committer.commit(wal.next_lsn()).unwrap();
        }
        assert_eq!(wal.io_counters().1, 512);
        assert_eq!(committer.stats().commits, 512);
        for i in 512..1024 {
            wal.append(&update(i)).unwrap();
        }
        assert_eq!(wal.io_counters().1, 514, "one policy fsync per 256 records");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_commits_collapse_into_one_fsync() {
        let dir = tmp("collapse");
        let wal = never_sync_wal(&dir);
        let committer = GroupCommitter::new(wal.clone());
        let workers = 4u64;
        // Records are appended up front; durability is what's pending.
        for i in 0..workers {
            wal.append(&update(i)).unwrap();
        }
        // Hold the WAL lock so the first producer — the syncer — stalls on
        // its frontier read while every other producer takes its ticket
        // behind it: a deterministic pile-up.
        let producers = wal.with_writer(|_w| {
            let producers: Vec<_> = (1..=workers)
                .map(|lsn| {
                    let committer = committer.clone();
                    std::thread::spawn(move || committer.commit(lsn).unwrap())
                })
                .collect();
            // Tickets go through the commit point's own state lock, not
            // the WAL lock we are holding, so we can watch them line up.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while committer.stats().tickets < workers {
                assert!(std::time::Instant::now() < deadline, "tickets never queued");
                std::thread::sleep(Duration::from_millis(1));
            }
            producers
        });
        // Lock released: one sync covers the whole pile.
        for p in producers {
            assert!(p.join().unwrap() >= workers);
        }
        let stats = committer.stats();
        assert_eq!(stats.tickets, workers);
        assert_eq!(
            stats.commits, 1,
            "all tickets must share one fsync: {stats:?}"
        );
        assert!(stats.max_batch >= 1);
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(fsyncs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn many_producers_all_get_durable_acks() {
        let dir = tmp("many");
        let wal = never_sync_wal(&dir);
        let committer = GroupCommitter::new(wal.clone());
        let per_thread = 25u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let wal = wal.clone();
                let committer = committer.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        wal.append(&update(i)).unwrap();
                        let frontier = wal.next_lsn();
                        let durable = committer.commit(frontier).unwrap();
                        assert!(durable >= frontier);
                    }
                });
            }
        });
        let stats = committer.stats();
        assert!(stats.tickets <= 100, "at most one ticket per commit call");
        assert!(stats.commits >= 1);
        assert_eq!(committer.durable_lsn(), 100);
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(fsyncs, stats.commits);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_sync_is_sticky_for_every_later_commit() {
        let dir = tmp("sticky");
        let wal = never_sync_wal(&dir);
        let committer = GroupCommitter::new(wal.clone());
        wal.append(&update(0)).unwrap();
        assert_eq!(committer.commit(1).unwrap(), 1);
        committer.fail_for_test("disk on fire");
        wal.append(&update(1)).unwrap();
        let err = committer.clone().commit(2).unwrap_err();
        assert!(err.to_string().contains("disk on fire"), "{err}");
        // Even an LSN that was durable before the failure: the log can
        // no longer vouch for anything it is asked about.
        assert!(committer.commit(1).is_err());
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(fsyncs, 1, "a failed commit point never syncs again");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
