//! Group commit: collapse many concurrent durability requests into few
//! fsyncs, at the one commit point of a log — its [`SharedWal`].
//!
//! The unit of durability is the fsync, and fsyncs are the expensive
//! part of logging (the cost ledger's `wal.fsync_us` row prices one).
//! [`SharedWal::commit`] runs a *commit ticket* protocol on the threads
//! that want durability, with no thread of its own:
//!
//! 1. A producer appends its records and calls [`SharedWal::commit`]
//!    with the frontier after them; `commit` takes a ticket for it.
//! 2. When no sync is in flight the caller becomes the **syncer**: it
//!    claims every ticket taken so far, issues **one** fsync — which
//!    reads the frontier, syncs without the writer lock and advances the
//!    durable watermark to that frontier — and broadcasts. Otherwise it
//!    waits on the condvar.
//! 3. A waiter woken by the broadcast either finds the watermark past
//!    its LSN and returns, or becomes the next syncer for everyone who
//!    queued up during the last sync.
//!
//! Producers keep appending and taking tickets while the disk is busy,
//! and whoever syncs next carries the whole pile: under load the batch
//! grows with concurrency and the fsync rate stays near the disk's flush
//! rate. The log's other fsyncs — the window sync of
//! [`SharedWal::write`], a rotation's, [`SharedWal::sync`]'s — advance
//! the same watermark and take no ticket, so a commit they already cover
//! returns at once.
//!
//! **Failures are sticky.** Any I/O error from a write or a sync through
//! a [`SharedWal`] poisons it: every later append, sync and commit
//! returns that error until the log is reopened. A failed `write_all`
//! can leave a torn frame, where recovery truncates — dropping any acked
//! record appended behind it — and a failed fsync may have dropped pages
//! a later one would claim to cover. [`WalError::FrameTooLarge`] is
//! refused before a byte is written and poisons nothing.

use std::sync::{Condvar, Mutex, MutexGuard};

use crate::error::WalError;
#[cfg(doc)]
use crate::SharedWal;

/// Counters describing the coalescing behaviour. Snapshot via
/// [`SharedWal::commit_stats`]; exported through the server stats
/// scrape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Commit tickets taken (one per [`SharedWal::commit`] call that was
    /// not already durable on arrival).
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

/// A log's commit point: its durable watermark, tickets and sticky
/// failure, under a lock of their own so a commit waits without blocking
/// appends. It never takes the writer lock (`commit` runs its `sync`
/// with this lock released): the writer lock, when held too, came first.
#[derive(Debug, Default)]
pub(crate) struct CommitPoint {
    state: Mutex<State>,
    /// Broadcast by the syncer when its sync ends, either way.
    committed: Condvar,
}

#[derive(Debug, Default)]
struct State {
    /// Everything below this LSN frontier is known durable.
    durable_lsn: u64,
    /// Tickets taken since the last sync claimed its batch.
    pending: u64,
    /// A caller is inside `fsync` right now; everyone else waits for its
    /// broadcast.
    syncing: bool,
    /// The first I/O failure, verbatim; poisons every later operation.
    failed: Option<String>,
    /// A failure the next sync reports ([`SharedWal::fail_for_test`]).
    armed: Option<String>,
    stats: GroupCommitStats,
}

impl CommitPoint {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The sticky failure, once the log has failed.
    pub(crate) fn check(&self) -> Result<(), WalError> {
        self.state()
            .failed
            .as_deref()
            .map_or(Ok(()), |m| Err(sticky(m)))
    }

    /// Records the first I/O failure; other errors poison nothing.
    pub(crate) fn poison(&self, e: &WalError) {
        if let WalError::Io(e) = e {
            self.state().failed.get_or_insert_with(|| e.to_string());
        }
    }

    /// Marks every record below `frontier` durable.
    pub(crate) fn advance(&self, frontier: u64) {
        let mut st = self.state();
        st.durable_lsn = st.durable_lsn.max(frontier);
    }

    pub(crate) fn durable_lsn(&self) -> u64 {
        self.state().durable_lsn
    }

    pub(crate) fn stats(&self) -> GroupCommitStats {
        self.state().stats
    }

    pub(crate) fn arm_failure(&self, msg: &str) {
        self.state().armed = Some(msg.to_owned());
    }

    pub(crate) fn take_armed(&self) -> Option<std::io::Error> {
        self.state().armed.take().map(std::io::Error::other)
    }

    /// [`SharedWal::commit`], given the log's [`SharedWal::sync`].
    pub(crate) fn commit(
        &self,
        lsn: u64,
        sync: impl Fn() -> Result<u64, WalError>,
    ) -> Result<u64, WalError> {
        let mut st = self.state();
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
                st = self.committed.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // No sync in flight: this caller's fsync serves every ticket
            // taken so far. Records appended between `sync`'s frontier
            // read and the fsync are a bonus the *next* batch re-claims
            // harmlessly.
            st.syncing = true;
            let batch = std::mem::take(&mut st.pending);
            drop(st);
            let synced = sync();
            st = self.state();
            st.syncing = false;
            if synced.is_ok() {
                st.stats.commits += 1;
                st.stats.last_batch = batch;
                st.stats.max_batch = st.stats.max_batch.max(batch);
            }
            self.committed.notify_all();
        }
    }
}

fn sticky(msg: &str) -> WalError {
    WalError::Io(std::io::Error::other(format!(
        "the log failed earlier: {msg}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalRecord;
    use crate::writer::{SharedWal, WalBatch, WalOptions, WalWriter};
    use modb_core::{ObjectId, UpdateMessage, UpdatePosition};
    use std::path::{Path, PathBuf};
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

    /// A one-record block; returns the frontier after it.
    fn append(wal: &SharedWal, rec: &WalRecord) -> Result<u64, WalError> {
        let mut batch = WalBatch::new();
        batch.push(rec);
        wal.append_batch(&mut batch)
    }

    fn fresh_wal(dir: &Path) -> SharedWal {
        SharedWal::new(WalWriter::create(dir, WalOptions::default()).unwrap())
    }

    #[test]
    fn serial_commits_are_durable_and_idempotent() {
        let dir = tmp("serial");
        let wal = fresh_wal(&dir);
        for i in 0..5u64 {
            append(&wal, &update(i)).unwrap();
            let durable = wal.commit(wal.next_lsn()).unwrap();
            assert!(durable > i);
            assert_eq!(wal.durable_lsn(), durable);
        }
        // Re-committing an already-durable frontier is free: no new ticket.
        let before = wal.commit_stats();
        assert_eq!(wal.commit(3).unwrap(), 5);
        assert_eq!(wal.commit_stats().tickets, before.tickets);
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(
            fsyncs,
            wal.commit_stats().commits,
            "5 records are far from a periodic sync: every fsync is a commit's"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A group commit's fsync closes the writer's periodic-sync window
    /// too: 512 single-record appends each committed cost exactly their
    /// 512 commits — no periodic fsync inside `append`, under the writer
    /// lock, for records already durable — and appends with no commit
    /// still get the writer's fsync every 256 records. A bare `sync`
    /// advances the same watermark the commits read.
    #[test]
    fn a_group_commit_closes_the_every_n_window() {
        let dir = tmp("every-n");
        let wal = fresh_wal(&dir);
        for i in 0..512 {
            append(&wal, &update(i)).unwrap();
            wal.commit(wal.next_lsn()).unwrap();
        }
        assert_eq!(wal.io_counters().1, 512);
        assert_eq!(wal.commit_stats().commits, 512);
        for i in 512..1024 {
            append(&wal, &update(i)).unwrap();
        }
        assert_eq!(
            wal.io_counters().1,
            514,
            "one periodic fsync per 256 records"
        );
        assert_eq!(wal.sync().unwrap(), 1024);
        assert_eq!(wal.durable_lsn(), 1024);
        let before = wal.commit_stats();
        assert_eq!(wal.commit(1024).unwrap(), 1024);
        assert_eq!(wal.commit_stats(), before, "already durable: no ticket");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_commits_collapse_into_one_fsync() {
        let dir = tmp("collapse");
        let wal = fresh_wal(&dir);
        let workers = 4u64;
        // Records are appended up front; durability is what's pending.
        for i in 0..workers {
            append(&wal, &update(i)).unwrap();
        }
        // Hold the writer lock so the first producer — the syncer — stalls
        // on its frontier read while every other producer takes its
        // ticket behind it: a deterministic pile-up.
        let producers = wal.with_writer(|_w| {
            let producers: Vec<_> = (1..=workers)
                .map(|lsn| {
                    let wal = wal.clone();
                    std::thread::spawn(move || wal.commit(lsn).unwrap())
                })
                .collect();
            // Tickets go through the commit state's own lock, not the
            // writer lock we are holding, so we can watch them line up.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while wal.commit_stats().tickets < workers {
                assert!(std::time::Instant::now() < deadline, "tickets never queued");
                std::thread::sleep(Duration::from_millis(1));
            }
            producers
        });
        // Lock released: one sync covers the whole pile.
        for p in producers {
            assert!(p.join().unwrap() >= workers);
        }
        let stats = wal.commit_stats();
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
        let wal = fresh_wal(&dir);
        let per_thread = 25u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let wal = wal.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        append(&wal, &update(i)).unwrap();
                        let frontier = wal.next_lsn();
                        let durable = wal.commit(frontier).unwrap();
                        assert!(durable >= frontier);
                    }
                });
            }
        });
        let stats = wal.commit_stats();
        assert!(stats.tickets <= 100, "at most one ticket per commit call");
        assert!(stats.commits >= 1);
        assert_eq!(wal.durable_lsn(), 100);
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(fsyncs, stats.commits);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A commit whose fsync fails vouches for nothing, and once the log
    /// has failed nothing more is written or vouched for: every append,
    /// batch, sync and commit — even of an LSN that was durable before
    /// the failure — returns the sticky error, and the segment on disk
    /// ends where it was.
    #[test]
    fn a_failed_sync_is_sticky_for_every_later_commit() {
        let dir = tmp("sticky");
        let wal = fresh_wal(&dir);
        append(&wal, &update(0)).unwrap();
        assert_eq!(wal.commit(1).unwrap(), 1);
        append(&wal, &update(1)).unwrap();
        wal.fail_for_test("disk on fire");
        let err = wal.commit(2).unwrap_err();
        assert!(err.to_string().contains("disk on fire"), "{err}");
        assert_eq!(wal.durable_lsn(), 1, "the failed sync advanced nothing");
        assert_eq!(wal.commit_stats().commits, 1, "a failed sync is no commit");
        let mut batch = WalBatch::new();
        batch.push(&update(3));
        for err in [
            append(&wal, &update(2)).unwrap_err(),
            wal.append_batch(&mut batch).unwrap_err(),
            wal.sync().unwrap_err(),
            wal.clone().commit(2).unwrap_err(),
            wal.commit(1).unwrap_err(),
        ] {
            assert!(matches!(err, WalError::Io(_)), "{err}");
            assert!(
                err.to_string().contains("failed earlier: disk on fire"),
                "{err}"
            );
        }
        assert_eq!(wal.next_lsn(), 2, "a failed log takes no record");
        assert_eq!(batch.records(), 1, "a refused batch is left unconsumed");
        let (_, fsyncs) = wal.io_counters();
        assert_eq!(fsyncs, 1, "a failed log never syncs again");
        let scan = crate::segment::scan_segment(&crate::list_segments(&dir).unwrap()[0].1);
        assert_eq!(scan.unwrap().records, vec![update(0), update(1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A real I/O failure poisons the log just as the hook's failed sync
    /// does: a rotation into a directory that has gone fails, and the
    /// log stays failed after the directory is back — so no record lands
    /// behind whatever the failed write left. A block too large to frame
    /// is refused before a byte is written and poisons nothing.
    #[test]
    fn an_io_failure_poisons_the_log_and_an_oversized_block_does_not() {
        let dir = tmp("poison");
        // Every append after the first rotates.
        let opts = WalOptions {
            max_segment_bytes: 1,
        };
        let wal = SharedWal::new(WalWriter::create(&dir, opts).unwrap());
        let huge = WalRecord::InsertStationary(modb_core::StationaryObject::new(
            ObjectId(1),
            "x".repeat(crate::MAX_RECORD_BYTES as usize),
            modb_geom::Point::new(0.0, 0.0),
        ));
        assert!(matches!(
            append(&wal, &huge),
            Err(WalError::FrameTooLarge { .. })
        ));
        append(&wal, &update(0)).unwrap();
        wal.commit(1).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(append(&wal, &update(1)), Err(WalError::Io(_))));
        std::fs::create_dir_all(&dir).unwrap();
        let err = append(&wal, &update(1)).unwrap_err();
        assert!(err.to_string().contains("failed earlier"), "{err}");
        assert!(wal.commit(1).is_err());
        assert_eq!(wal.next_lsn(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
