//! The epoch publisher's delta-maintained copy of a [`Database`] — the
//! consumer side of `modb-core`'s change log.
//!
//! A [`ShadowBuffer`] owns (at most) one `Arc<Database>` copy plus the
//! [`ChangeCursor`] describing how far it lags the live database. On
//! [`ShadowBuffer::refresh`] the copy is pulled forward in O(changes)
//! via [`Database::sync_from`] and handed out; once the publisher has
//! retired a snapshot, [`ShadowBuffer::store`] returns its arc to the
//! buffer so the *next* refresh can mutate it in place again. A full
//! clone of the source happens when the buffer is cold, when some
//! straggler still holds the arc, or when the delta is unservable or
//! outsized (`Database::delta_affordable`).
//!
//! [`QueryEngine`](crate::QueryEngine)'s publisher is the only driver:
//! a snapshot to disk is a plain clone
//! ([`SharedDatabase::write_snapshot`](crate::SharedDatabase::write_snapshot))
//! that is dropped once written.

use std::sync::Arc;

use modb_core::{ChangeCursor, Database, SyncReport};

/// A reusable delta-applied shadow of a live [`Database`].
///
/// Not synchronized itself — callers serialize access (the engine's
/// publisher holds it behind a mutex). The default is an empty buffer:
/// the first refresh takes a full clone.
#[derive(Debug, Default)]
pub(crate) struct ShadowBuffer {
    slot: Option<(Arc<Database>, ChangeCursor)>,
    /// A buffer set aside by [`ShadowBuffer::refresh`]'s full-clone
    /// path. Dropping a whole database is itself O(fleet) and need not
    /// happen inside the caller's lock window, so the replaced copy is
    /// parked here until [`ShadowBuffer::reap`] frees it.
    discard: Option<Arc<Database>>,
}

impl ShadowBuffer {
    /// Brings the buffered copy up to date with `src` and hands it out
    /// together with the report describing the sync. The caller must
    /// hold whatever lock keeps `src` stable for the duration — the
    /// point of the mechanism is that this critical section costs
    /// O(changes since the last refresh), not O(fleet).
    pub(crate) fn refresh(&mut self, src: &Database) -> (Arc<Database>, SyncReport) {
        if let Some((mut arc, cursor)) = self.slot.take() {
            match Arc::get_mut(&mut arc) {
                Some(copy) if src.delta_affordable(cursor) => {
                    let report = copy.sync_from(src, cursor);
                    return (arc, report);
                }
                // A straggler still pinning the arc (a long query on a
                // two-epochs-old snapshot), a truncated log, or a delta
                // past the clone break-even point: park the stale copy
                // for an out-of-lock drop and start over below.
                _ => self.discard = Some(arc),
            }
        }
        // Cold or unusable buffer: a fresh clone of the source.
        let report = SyncReport {
            cursor: src.change_cursor(),
            full_resync: true,
            applied: 0,
        };
        (Arc::new(src.clone()), report)
    }

    /// Frees any buffer parked by [`ShadowBuffer::refresh`]'s
    /// full-clone path. Call it outside the critical section — the
    /// epoch publisher does so right after the snapshot swap — so the
    /// O(fleet) drop never extends a lock window.
    pub(crate) fn reap(&mut self) {
        self.discard = None;
    }

    /// Returns a previously refreshed copy (typically the snapshot
    /// being retired) to the buffer, to be delta-advanced next time.
    /// `cursor` must be the [`SyncReport::cursor`] from the refresh that
    /// produced `db`.
    pub(crate) fn store(&mut self, db: Arc<Database>, cursor: ChangeCursor) {
        self.slot = Some((db, cursor));
    }

    /// Opportunistically pulls the stored copy forward to `src` right
    /// after it was stored. The double-buffered publisher calls this
    /// *after* swapping the new epoch in, so by the next publish the
    /// buffer lags by one inter-epoch round of changes instead of two —
    /// the pre-swap critical section (what readers wait on for a fresh
    /// epoch) halves, while total work per publish is unchanged.
    ///
    /// Returns `false` without touching the buffer when the catch-up
    /// would not pay: a straggling reader still pins the arc (mutating
    /// would force a clone — the next refresh deals with it), or the
    /// pending delta is unservable/too large (the next refresh will
    /// full-resync anyway, superseding anything done here).
    pub(crate) fn catch_up(&mut self, src: &Database) -> bool {
        let Some((arc, cursor)) = self.slot.as_mut() else {
            return false;
        };
        if !src.delta_affordable(*cursor) {
            return false;
        }
        let Some(db) = Arc::get_mut(arc) else {
            return false;
        };
        *cursor = db.sync_from(src, *cursor).cursor;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{
        DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute, UpdateMessage,
        UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};

    fn live() -> Database {
        let network = RouteNetwork::from_routes([Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap()])
        .unwrap();
        let mut db = Database::new(network, DatabaseConfig::default());
        for id in 1..=5u64 {
            db.register_moving(MovingObject {
                id: ObjectId(id),
                name: format!("veh-{id}"),
                attr: PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(1),
                    start_position: Point::new(10.0 * id as f64, 0.0),
                    start_arc: 10.0 * id as f64,
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
        db
    }

    #[test]
    fn refresh_store_cycle_tracks_the_source() {
        let mut src = live();
        let mut buf = ShadowBuffer::default();
        let (first, report) = buf.refresh(&src);
        assert!(report.full_resync, "first refresh is a full clone");
        assert_eq!(first.moving_count(), 5);
        buf.store(first, report.cursor);

        src.apply_update(
            ObjectId(2),
            &UpdateMessage::basic(4.0, UpdatePosition::Arc(33.0), 0.9),
        )
        .unwrap();
        src.remove_moving(ObjectId(5)).unwrap();
        let (second, report) = buf.refresh(&src);
        assert!(!report.full_resync, "delta path taken");
        assert_eq!(report.applied, 2);
        assert_eq!(second.moving_count(), 4);
        assert_eq!(second.moving(ObjectId(2)).unwrap().attr.start_arc, 33.0);
        assert!(second.moving(ObjectId(5)).is_err());
        buf.store(second, report.cursor);

        // No changes: the delta is empty and the state already agrees.
        let (third, report) = buf.refresh(&src);
        assert!(!report.full_resync);
        assert_eq!(report.applied, 0);
        assert_eq!(third.moving_count(), 4);
    }

    #[test]
    fn catch_up_advances_the_stored_copy_unless_pinned() {
        let mut src = live();
        let mut buf = ShadowBuffer::default();
        let (first, report) = buf.refresh(&src);
        buf.store(first, report.cursor);

        src.apply_update(
            ObjectId(2),
            &UpdateMessage::basic(4.0, UpdatePosition::Arc(33.0), 0.9),
        )
        .unwrap();
        assert!(buf.catch_up(&src), "unpinned buffer catches up");
        // The change was already applied: the next refresh is a no-op
        // delta, and the state agrees with the source.
        let (copy, report) = buf.refresh(&src);
        assert!(!report.full_resync);
        assert_eq!(report.applied, 0);
        assert_eq!(copy.moving(ObjectId(2)).unwrap().attr.start_arc, 33.0);

        let pin = Arc::clone(&copy); // straggler
        buf.store(copy, report.cursor);
        src.apply_update(
            ObjectId(3),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(44.0), 0.9),
        )
        .unwrap();
        assert!(!buf.catch_up(&src), "pinned arc skips the catch-up");
        // The next refresh cannot mutate the pinned copy either: it
        // starts over from a clone of the source.
        let (after, report) = buf.refresh(&src);
        assert!(report.full_resync);
        assert_eq!(after.moving(ObjectId(3)).unwrap().attr.start_arc, 44.0);
        assert_eq!(pin.moving(ObjectId(3)).unwrap().attr.start_arc, 30.0);
    }

    #[test]
    fn pinned_arc_forces_a_clone_but_stays_correct() {
        let mut src = live();
        let mut buf = ShadowBuffer::default();
        let (first, report) = buf.refresh(&src);
        let pin = Arc::clone(&first); // straggler keeps the old epoch
        buf.store(first, report.cursor);

        src.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(2.0, UpdatePosition::Arc(12.0), 1.0),
        )
        .unwrap();
        let (second, report) = buf.refresh(&src);
        // One change, well inside the delta budget — but the only copy
        // to apply it to is pinned, so this is a clone of the source and
        // says so (the publisher counts it under `full_publishes`).
        assert_eq!(
            report,
            SyncReport {
                cursor: src.change_cursor(),
                full_resync: true,
                applied: 0,
            }
        );
        assert!(!Arc::ptr_eq(&second, &pin));
        assert_eq!(second.moving(ObjectId(1)).unwrap().attr.start_arc, 12.0);
        // The pinned copy still shows the old state.
        assert_eq!(pin.moving(ObjectId(1)).unwrap().attr.start_arc, 10.0);
    }
}
