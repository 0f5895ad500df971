//! The node core: what every node the server runs is, however its log is
//! fed.
//!
//! A leader's [`crate::DurableDatabase`], a standby's
//! [`crate::StandbyReplica`] and the local log of the standby's worker
//! all hold one [`Node`]: the database, the durability directory, the
//! ship horizon and the leadership history of the log in it, and one
//! [`Watermark`], from which the node's frontier and staleness are read.
//! The query front-end ([`Node::serve_queries`]) and the ship context
//! ([`Node::ship_context`]) hold the node and read its watermark; neither
//! is told at construction which kind of node it serves, so a standby
//! promoted under them serves as a leader from the next read on.
//!
//! The watermark is in one of two states:
//!
//! - **published by a follower's worker**: the applied LSN, the lag clock
//!   and the replica's stats, swapped in together under one lock (a
//!   reader that sees `applied ≥ floor` also sees the clock of that
//!   contact), and waited on through a condition variable;
//! - **leading a log**: a leader from birth, a standby from `promote`.
//!   The log's next LSN is the frontier and the lag is zero. The slot is
//!   set once and never unset.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use modb_wal::{EpochHistory, SharedWal};

use crate::framed::{Clock, WallClock};
use crate::replication::{Published, ShipHorizon};
use crate::shared::SharedDatabase;

/// How long a wait on a leading log sleeps between looks at it: its
/// appends wake no one.
const LEAD_POLL: Duration = Duration::from_millis(1);

/// One node: its database, its directory and its log's horizon, epochs
/// and watermark (see the module docs).
#[derive(Debug)]
pub(crate) struct Node {
    db: SharedDatabase,
    dir: PathBuf,
    /// Per-follower acknowledged LSNs; their minimum is the ship barrier
    /// every compaction of this node's log respects.
    horizon: ShipHorizon,
    /// Leadership epochs of this node's log (the promotion divergence
    /// guard): read by the replication handshake gate and written into
    /// every snapshot's head.
    epochs: Mutex<EpochHistory>,
    watermark: Watermark,
}

impl Node {
    pub(crate) fn new(
        db: SharedDatabase,
        dir: PathBuf,
        epochs: EpochHistory,
        watermark: Watermark,
    ) -> Arc<Self> {
        Arc::new(Node {
            db,
            dir,
            horizon: ShipHorizon::new(),
            epochs: Mutex::new(epochs),
            watermark,
        })
    }

    /// The in-memory handle (queries go here; they never touch the log).
    pub(crate) fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// The durability directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Connected followers' acknowledged LSNs.
    pub(crate) fn horizon(&self) -> &ShipHorizon {
        &self.horizon
    }

    /// The leadership history of the log, locked.
    pub(crate) fn epochs(&self) -> MutexGuard<'_, EpochHistory> {
        self.epochs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current leadership epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epochs().current()
    }

    /// Where the node's frontier and staleness are read.
    pub(crate) fn watermark(&self) -> &Watermark {
        &self.watermark
    }
}

/// A node's frontier and staleness, in one of two states (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Watermark {
    /// What the worker last published; unread once the node leads.
    published: Mutex<Published>,
    published_cv: Condvar,
    /// The log this node leads, once it leads one.
    leading: OnceLock<SharedWal>,
    /// What the lag and the waits read the time from.
    clock: Arc<dyn Clock>,
}

impl Watermark {
    /// A follower's watermark, at `published` until its worker publishes.
    pub(crate) fn new(published: Published, clock: Arc<dyn Clock>) -> Self {
        Watermark {
            published: Mutex::new(published),
            published_cv: Condvar::new(),
            leading: OnceLock::new(),
            clock,
        }
    }

    /// A leader's watermark: it leads `wal` from birth.
    pub(crate) fn leader(wal: SharedWal) -> Self {
        let watermark = Watermark::new(Published::new(0, Instant::now()), Arc::new(WallClock));
        watermark.lead(wal);
        watermark
    }

    /// What the lag and the waits read the time from.
    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// What the worker last published, locked.
    pub(crate) fn published(&self) -> MutexGuard<'_, Published> {
        self.published.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Swaps in what the worker published and wakes the waiters.
    pub(crate) fn publish(&self, published: Published) {
        *self.published() = published;
        self.published_cv.notify_all();
    }

    /// Makes the node lead `wal` from now on, and wakes the waiters; a
    /// node already leading keeps its log. A waiter that found the slot
    /// empty holds the lock until it waits, so this wake-up reaches it.
    pub(crate) fn lead(&self, wal: SharedWal) {
        if self.leading.set(wal).is_ok() {
            let _waiters_parked = self.published();
            self.published_cv.notify_all();
        }
    }

    /// The log this node leads, if it leads one.
    pub(crate) fn leads(&self) -> Option<&SharedWal> {
        self.leading.get()
    }

    /// The frontier: every record below it is in the node's database.
    pub(crate) fn applied(&self) -> u64 {
        match self.leads() {
            Some(wal) => wal.next_lsn(),
            None => self.published().stats.applied_lsn,
        }
    }

    /// The `Δ` that widens served answers by `2·v_max·Δ`: the lag clock
    /// read now on a follower, zero on a node that leads its log (there
    /// is nothing upstream to trail).
    pub(crate) fn lag(&self) -> Duration {
        match self.leads() {
            Some(_) => Duration::ZERO,
            None => self.published().clock.lag_at(self.clock.now()),
        }
    }

    /// Blocks until the frontier reaches `lsn` or `timeout` elapses;
    /// `true` when reached. The state is read again every time round, so
    /// a wait begun on a follower ends on the log it leads once promoted.
    pub(crate) fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = self.clock.now() + timeout;
        let mut published = self.published();
        loop {
            let (applied, slice) = match self.leads() {
                Some(wal) => (wal.next_lsn(), LEAD_POLL),
                None => (published.stats.applied_lsn, timeout),
            };
            if applied >= lsn {
                return true;
            }
            let now = self.clock.now();
            if now >= deadline {
                return false;
            }
            let slice = slice.min(deadline - now);
            let (guard, waited) = self
                .published_cv
                .wait_timeout(published, slice)
                .unwrap_or_else(|e| e.into_inner());
            published = guard;
            if waited.timed_out() {
                // The wall clock is past the slice already; a virtual
                // one is moved there.
                self.clock.sleep_until(now + slice);
            }
        }
    }
}
