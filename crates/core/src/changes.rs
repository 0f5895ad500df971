//! Change tracking for the versioned store: an epoch-stamped log of
//! which objects a [`Database`](crate::Database) mutated, drained
//! through a cursor.
//!
//! Every mutation appends one `Change` naming the touched object (not
//! the mutation payload — the drain copies the object's *current* state
//! from the source, so entries are idempotent and order-insensitive
//! within a drain). The holder of a stale copy keeps a [`ChangeCursor`]
//! and periodically pulls the copy forward with
//! [`Database::sync_from`](crate::Database::sync_from); if it waited so
//! long that the bounded log already evicted entries it needs, the sync
//! falls back to a full copy. There is one such holder: the epoch
//! publisher of `modb-server`'s query engine. A snapshot to disk is a
//! plain clone.

use std::collections::VecDeque;

use crate::object::ObjectId;
use modb_routes::RouteId;

/// One recorded mutation: the identity of what changed, not how.
///
/// A [`Change::Moving`] entry covers registration, position updates
/// (including the history append they imply), and removal alike — the
/// sync resolves it by copying the object's current state from the
/// source (absence in the source means "remove").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Change {
    /// A moving object was registered, updated, or removed.
    Moving(ObjectId),
    /// A stationary landmark was inserted.
    Stationary(ObjectId),
    /// A route was appended to the network.
    Route(RouteId),
}

/// An opaque position in a database's change log.
///
/// Cursors are only meaningful against the database instance (or its
/// full clones) they were taken from;
/// [`Database::sync_from`](crate::Database::sync_from) answers a cursor
/// it cannot serve with a full resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChangeCursor {
    pub(crate) seq: u64,
}

impl ChangeCursor {
    /// The cursor's raw sequence number, for diagnostics and logs.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Bounded FIFO of recorded changes with monotonically increasing
/// sequence numbers. Entry `i` of `entries` has sequence `tail + i`;
/// `head` is the sequence the next recorded change will take.
#[derive(Debug, Clone)]
pub(crate) struct ChangeLog {
    entries: VecDeque<Change>,
    head: u64,
    capacity: usize,
}

impl ChangeLog {
    pub(crate) fn new(capacity: usize) -> Self {
        ChangeLog {
            entries: VecDeque::new(),
            head: 0,
            capacity,
        }
    }

    /// Appends a change, evicting the oldest entry when full. With
    /// capacity 0 nothing is retained but the sequence still advances,
    /// so subscribers always resync — useful to disable the mechanism
    /// without changing its observable contract.
    pub(crate) fn record(&mut self, change: Change) {
        if self.capacity > 0 {
            if self.entries.len() == self.capacity {
                self.entries.pop_front();
            }
            self.entries.push_back(change);
        }
        self.head += 1;
    }

    /// The cursor one past the newest recorded change.
    pub(crate) fn cursor(&self) -> ChangeCursor {
        ChangeCursor { seq: self.head }
    }

    fn tail(&self) -> u64 {
        self.head - self.entries.len() as u64
    }

    /// Changes recorded at or after `cursor`, oldest first. `None` when
    /// the log cannot serve the cursor — entries were evicted, or the
    /// cursor belongs to a log that ran ahead of this one.
    pub(crate) fn since(&self, cursor: ChangeCursor) -> Option<impl Iterator<Item = Change> + '_> {
        if cursor.seq > self.head || cursor.seq < self.tail() {
            return None;
        }
        let skip = (cursor.seq - self.tail()) as usize;
        Some(self.entries.iter().skip(skip).copied())
    }
}

/// What [`Database::sync_from`](crate::Database::sync_from) did: the
/// cursor to resume from next time, and how the delta was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Resume cursor — the source's head at the moment of the sync.
    pub cursor: ChangeCursor,
    /// `true` when the delta could not be served (first sync, or the
    /// cursor was evicted) and the target was rebuilt by full clone.
    pub full_resync: bool,
    /// Distinct objects/routes copied when the delta path was taken
    /// (0 on a full resync).
    pub applied: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(id: u64) -> Change {
        Change::Moving(ObjectId(id))
    }

    #[test]
    fn cursor_drains_in_order() {
        let mut log = ChangeLog::new(8);
        let start = log.cursor();
        log.record(m(1));
        log.record(Change::Stationary(ObjectId(2)));
        log.record(Change::Route(RouteId(3)));
        let drained: Vec<Change> = log.since(start).unwrap().collect();
        assert_eq!(
            drained,
            vec![
                m(1),
                Change::Stationary(ObjectId(2)),
                Change::Route(RouteId(3))
            ]
        );
        // Draining from the new head yields nothing.
        let head = log.cursor();
        assert_eq!(log.since(head).unwrap().count(), 0);
    }

    #[test]
    fn eviction_invalidates_old_cursors() {
        let mut log = ChangeLog::new(2);
        let start = log.cursor();
        log.record(m(1));
        log.record(m(2));
        assert_eq!(log.since(start).unwrap().count(), 2);
        log.record(m(3)); // evicts m(1)
        assert!(log.since(start).is_none(), "evicted range is unservable");
        let mid = ChangeCursor { seq: 1 };
        assert_eq!(
            log.since(mid).unwrap().collect::<Vec<_>>(),
            vec![m(2), m(3)]
        );
    }

    #[test]
    fn zero_capacity_always_resyncs() {
        let mut log = ChangeLog::new(0);
        let start = log.cursor();
        assert_eq!(
            log.since(start).unwrap().count(),
            0,
            "empty head is servable"
        );
        log.record(m(1));
        assert!(log.since(start).is_none());
        assert_eq!(log.cursor().seq(), 1, "sequence still advances");
    }

    #[test]
    fn foreign_cursor_ahead_of_head_is_unservable() {
        let log = ChangeLog::new(4);
        assert!(log.since(ChangeCursor { seq: 10 }).is_none());
    }
}
