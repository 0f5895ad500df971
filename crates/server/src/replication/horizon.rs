//! The replication horizon: the compaction barrier that keeps unshipped
//! log alive.
//!
//! Every connected follower registers an entry holding the LSN it has
//! acknowledged; [`ShipHorizon::min`] is the lowest such LSN across all
//! of them, and every compaction of the node's log
//! ([`crate::DurableDatabase::snapshot_with_retention`]) stops at it, so
//! no segment a live follower still has to read is ever
//! garbage-collected. A follower that
//! disconnects releases its entry — its log may then be compacted away,
//! and on reconnect it re-bootstraps from a snapshot if its cursor fell
//! behind the oldest surviving segment.

use std::collections::HashMap;
use std::sync::Mutex;

/// Registry of per-follower acknowledged LSNs; the minimum across all
/// live entries is the ship barrier for log compaction. Shared between
/// the replication server's connection handlers and
/// [`crate::DurableDatabase::snapshot_with_retention`].
#[derive(Debug, Default)]
pub struct ShipHorizon {
    entries: Mutex<HorizonEntries>,
}

#[derive(Debug, Default)]
struct HorizonEntries {
    next_id: u64,
    acked: HashMap<u64, u64>,
}

impl ShipHorizon {
    /// An empty horizon (no followers; compaction is unconstrained).
    pub fn new() -> Self {
        ShipHorizon::default()
    }

    /// Registers a follower whose unshipped log starts at `lsn`,
    /// returning an id for [`ShipHorizon::advance`] /
    /// [`ShipHorizon::release`]. Registering at 0 pins the whole log —
    /// the right opening move while a handshake decides the real cursor.
    pub fn register(&self, lsn: u64) -> u64 {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let id = entries.next_id;
        entries.next_id += 1;
        entries.acked.insert(id, lsn);
        id
    }

    /// Moves a follower's barrier forward (acknowledged through `lsn`).
    /// A stale `lsn` below the current value is ignored — the barrier
    /// never moves backwards.
    pub fn advance(&self, id: u64, lsn: u64) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = entries.acked.get_mut(&id) {
            *v = (*v).max(lsn);
        }
    }

    /// Drops a follower's entry (it disconnected); its log becomes
    /// eligible for compaction again.
    pub fn release(&self, id: u64) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.acked.remove(&id);
    }

    /// The compaction barrier: the lowest acknowledged LSN across live
    /// followers, or `None` when none are connected.
    pub fn min(&self) -> Option<u64> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.acked.values().copied().min()
    }

    /// Number of registered followers.
    pub fn followers(&self) -> usize {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.acked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_tracks_registrations_and_releases() {
        let h = ShipHorizon::new();
        assert_eq!(h.min(), None);
        let a = h.register(0);
        let b = h.register(40);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.followers(), 2);
        h.advance(a, 25);
        assert_eq!(h.min(), Some(25));
        h.advance(a, 10); // never backwards
        assert_eq!(h.min(), Some(25));
        h.release(a);
        assert_eq!(h.min(), Some(40));
        h.release(b);
        assert_eq!(h.min(), None);
        h.advance(b, 99); // released id: no-op
        assert_eq!(h.min(), None);
    }

    /// Concurrent register/advance/release from many follower threads
    /// while a compactor thread polls `min`: ids stay unique, the
    /// barrier observed mid-flight is never above any live follower's
    /// acked LSN (monotone per follower), and the registry drains to
    /// empty once every thread has released.
    #[test]
    fn concurrent_register_advance_release_converges() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let h = Arc::new(ShipHorizon::new());
        let done = Arc::new(AtomicBool::new(false));

        // Compactor side: the barrier must always be a plausible value —
        // while any follower is live it is Some(lsn ≤ the largest LSN any
        // follower will ever ack).
        let poller = {
            let h = Arc::clone(&h);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if let Some(m) = h.min() {
                        assert!(m <= 1_000, "barrier {m} above any acked LSN");
                    }
                    std::thread::yield_now();
                }
            })
        };

        let followers: Vec<_> = (0..8)
            .map(|f| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for round in 0..50u64 {
                        let id = h.register(0);
                        // Advance out of order: the entry must stay
                        // monotone regardless.
                        h.advance(id, 500 + round);
                        h.advance(id, round);
                        h.advance(id, 1_000);
                        ids.push(id);
                        if round % 3 == 0 {
                            h.release(id);
                            ids.pop();
                        }
                    }
                    for id in ids.drain(..) {
                        h.release(id);
                    }
                    // Ids are unique across threads: every register got a
                    // fresh slot (no double-release panics, no aliasing).
                    (f, ())
                })
            })
            .collect();
        for t in followers {
            t.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        poller.join().unwrap();
        assert_eq!(h.followers(), 0, "registry must drain after releases");
        assert_eq!(h.min(), None);
    }
}
