//! The moving-object index: o-plane maintenance over one R\*-tree (§4.2).
//!
//! "The index is updated whenever a position-update is received from a
//! moving object o. … the id of o is removed from the 3-dimensional
//! rectangles of the index that intersect [the old o-plane] p1, and it is
//! inserted in the 3-dimensional rectangles that intersect [the new
//! o-plane] p2."
//!
//! Each object is filed under one box: the union of its o-plane's §4.2
//! slab boxes. The slab boxes themselves are an approximation of the
//! plane and are not stored: a tree hit (union box meets the query box)
//! computes, from the plane, the slab duration and the route, only the
//! slab or two whose time span meets the query's, and becomes a candidate
//! when one of those intersects it. The candidate set is identical to
//! indexing every slab box individually (an object qualifies iff some
//! slab box intersects the query box), but the §4.2 position-update
//! maintenance is a single delete+insert instead of one per slab, and
//! what an object costs in memory does not grow with how far ahead its
//! trip is declared (22 boxes ≈ 1 KiB for a 105-minute trip at 5-minute
//! slabs; one box, whatever the trip).
//!
//! **One record per key, one copy of each fact.** The index is also the
//! keyed table: each key owns one immutable [`Entry`] — the key, a
//! payload `V` and the union box. The plane is not stored beside the
//! payload, because it is a function of it (§4.1.1: "the geometric
//! representation of a position attribute"): the caller hands
//! [`MovingObjectIndex::insert`] the plane to file under, and the
//! `candidates*` probes a closure that derives it again from a hit's
//! payload. `modb-core` keeps the whole moving object as the payload and
//! derives the plane from its attribute; a filter-only index keeps the
//! plane itself (`V = OPlane`, the default). The entry lives behind one
//! `Arc` that both the key → entry map and the tree's leaf hold, so a
//! tree hit reaches the payload with no lookup, and a write builds one
//! new entry and hands the old one to the tree to find and replace.
//!
//! **A copy is two roots.** The tree ([`RStarTree`]) and the map
//! (`CowMap`) are path-copying, so cloning the index copies two
//! pointers and the clone shares every node, bucket and entry until one
//! side writes.
//!
//! **Routes and planes at query time.** Slab geometry needs the plane's
//! route, so the `candidates*` probes take the `RouteNetwork`. Routes
//! are append-only and individually immutable, so a slab box computed at
//! query time is the box an upsert-time decomposition would have stored
//! — provided the closure derives the plane the entry was filed under,
//! which is the caller's contract. A hit whose closure yields no plane,
//! whose route the network cannot resolve, or whose slab box errors
//! **stays a candidate**: the filter may over-approximate, never drop,
//! and exact refinement reports the error.
//!
//! Filtering a [`QueryRegion`] yields candidate entries (or their keys);
//! exact may/must refinement against uncertainty intervals happens in
//! `modb-core`, where routes are resolvable.

use std::hash::Hash;
use std::sync::Arc;

use modb_geom::Aabb3;
use modb_routes::{Route, RouteNetwork};

use crate::cow_map::CowMap;
use crate::error::IndexError;
use crate::oplane::OPlane;
use crate::rtree::{RStarTree, SearchStats};
use crate::timespace::QueryRegion;

/// Default slab duration (minutes) for o-plane decomposition: fine enough
/// that slab over-approximation stays tight, coarse enough that a one-hour
/// plane is ~12 boxes.
pub const DEFAULT_SLAB_MINUTES: f64 = 5.0;

/// One key's record: the key, its payload and the box the tree files it
/// under — the union of the slab boxes of the o-plane it was inserted
/// with, or the empty box when it is held in the map only. Immutable,
/// and shared (never copied) between the tree, the map and every clone
/// of the index. The same size for every plane: no per-slab heap behind
/// it, and no copy of the plane, which the payload determines.
#[derive(Debug)]
pub struct Entry<K, V> {
    key: K,
    value: V,
    union: Aabb3,
}

impl<K, V> Entry<K, V> {
    /// The payload.
    #[inline]
    pub fn value(&self) -> &V {
        &self.value
    }

    /// The payload, by value.
    pub fn into_value(self) -> V {
        self.value
    }

    /// The box the tree files this entry under; `None` when the entry is
    /// held in the map only — the probe the filing tests compare with.
    #[doc(hidden)]
    pub fn union(&self) -> Option<Aabb3> {
        (!self.union.is_empty()).then_some(self.union)
    }
}

/// The per-hit slab filter: `true` when one of `plane`'s *slab* boxes
/// intersects `query`. No plane, a route `network` cannot resolve, or a
/// slab box that errors also answers `true`: the filter must never drop
/// what exact refinement would report, the error included.
fn some_slab_intersects(
    plane: Option<OPlane>,
    slab_minutes: f64,
    network: &RouteNetwork,
    query: &Aabb3,
) -> bool {
    plane.is_none_or(|plane| {
        network.get(plane.route).map_or(true, |route| {
            plane
                .any_slab_intersects(route, slab_minutes, query)
                .unwrap_or(true)
        })
    })
}

/// What a tree leaf holds: the shared entry itself, so a hit needs no
/// lookup to reach its plane or payload. Two hits are equal when they are
/// the same allocation — how `remove` / `update` tell the tree which
/// entry to find.
#[derive(Debug)]
struct Hit<K, V>(Arc<Entry<K, V>>);

impl<K, V> Clone for Hit<K, V> {
    fn clone(&self) -> Self {
        Hit(Arc::clone(&self.0))
    }
}

impl<K, V> PartialEq for Hit<K, V> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A 3-D time-space index over the o-planes of a fleet of moving
/// objects — one R\*-tree of per-object union boxes — that is also the
/// fleet's keyed table: one [`Entry`] per key, carrying a payload `V`
/// the plane is derived from (by default the plane itself).
#[derive(Debug, Clone)]
pub struct MovingObjectIndex<K, V = OPlane> {
    tree: RStarTree<Hit<K, V>>,
    entries: CowMap<K, Arc<Entry<K, V>>>,
    /// Slab duration (minutes) of the §4.2 decomposition.
    slab_minutes: f64,
}

impl<K: Copy + Eq + Hash, V> Default for MovingObjectIndex<K, V> {
    fn default() -> Self {
        MovingObjectIndex::new(DEFAULT_SLAB_MINUTES)
    }
}

impl<K: Copy + Eq + Hash, V> MovingObjectIndex<K, V> {
    /// Creates an empty index with the given slab duration (minutes);
    /// non-positive or non-finite values fall back to
    /// [`DEFAULT_SLAB_MINUTES`].
    pub fn new(slab_minutes: f64) -> Self {
        MovingObjectIndex {
            tree: RStarTree::new(),
            entries: CowMap::new(),
            slab_minutes: if slab_minutes.is_finite() && slab_minutes > 0.0 {
                slab_minutes
            } else {
                DEFAULT_SLAB_MINUTES
            },
        }
    }

    /// Number of entries (indexed or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the index holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The payload stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|entry| &entry.value)
    }

    /// The shared entry under `key` — the probe the footprint tests count
    /// references with.
    #[doc(hidden)]
    pub fn entry(&self, key: &K) -> Option<&Arc<Entry<K, V>>> {
        self.entries.get(key)
    }

    /// `true` when `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Every key, in arbitrary order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }

    /// Every payload, in arbitrary order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|entry| &entry.value)
    }

    /// Stores `value` under `key`, filed in the tree under `plane` (on
    /// its `route`) or, with `None`, held in the map only — the §4.2
    /// position-update maintenance step. One new entry is built; an entry
    /// it replaces is handed to the tree to find and swap. `plane` must be
    /// the plane the `candidates*` closures derive from `value`: only its
    /// union box is kept.
    ///
    /// # Errors
    ///
    /// Propagates o-plane decomposition errors; on error nothing changes.
    pub fn insert(
        &mut self,
        key: K,
        value: V,
        plane: Option<(&OPlane, &Route)>,
    ) -> Result<(), IndexError> {
        // Touch the old entry only after every slab of the new plane
        // computed cleanly.
        let union = match plane {
            Some((plane, route)) => plane.union_box(route, self.slab_minutes)?,
            None => Aabb3::empty(),
        };
        let next = Arc::new(Entry { key, value, union });
        let old = self.entries.insert(key, Arc::clone(&next));
        let from = old.as_ref().and_then(|old| old.union());
        match (old, from, next.union()) {
            (Some(old), Some(from), Some(to)) => {
                let updated = self.tree.update(&from, &Hit(old), to, Hit(next));
                debug_assert!(updated, "index out of sync: missing old entry");
            }
            (Some(old), Some(from), None) => {
                let removed = self.tree.remove(&from, &Hit(old));
                debug_assert!(removed, "index out of sync: missing old entry");
            }
            (_, _, Some(to)) => self.tree.insert(to, Hit(next)),
            (_, _, None) => {}
        }
        Ok(())
    }

    /// Removes `key`'s entry (trip ended) and returns it.
    pub fn remove(&mut self, key: &K) -> Option<Arc<Entry<K, V>>> {
        let entry = self.entries.remove(key)?;
        if let Some(union) = entry.union() {
            let removed = self.tree.remove(&union, &Hit(Arc::clone(&entry)));
            debug_assert!(removed, "index out of sync: missing tree entry");
        }
        Some(entry)
    }

    /// Appends the candidate keys for `region` to `out` and returns the
    /// search statistics. The caller owns (and typically reuses) the
    /// buffer, so a hot query loop filters without allocating a fresh
    /// vector per query. `plane_of` is as for
    /// [`MovingObjectIndex::for_each_candidate`].
    pub fn candidates_into(
        &self,
        region: &QueryRegion,
        network: &RouteNetwork,
        plane_of: impl Fn(&V) -> Option<OPlane>,
        out: &mut Vec<K>,
    ) -> SearchStats {
        self.for_each_candidate(region, network, plane_of, |entry| out.push(entry.key))
    }

    /// Visits every candidate entry for `region` and returns the search
    /// statistics. The tree prefilters on per-object union boxes; an
    /// object only qualifies when one of its slab boxes intersects the
    /// query box, so the candidate set equals what per-slab indexing
    /// would produce (already deduplicated — one tree entry per object).
    /// `plane_of` derives a hit's plane from its payload — the plane it
    /// was inserted with — and `network` resolves that plane's route.
    /// Entries with no plane are not in the tree and are never visited.
    /// `&self` only, so any number of threads may filter one immutable
    /// index concurrently.
    pub fn for_each_candidate(
        &self,
        region: &QueryRegion,
        network: &RouteNetwork,
        plane_of: impl Fn(&V) -> Option<OPlane>,
        mut visit: impl FnMut(&Entry<K, V>),
    ) -> SearchStats {
        let query = region.aabb();
        // A tree hit (union box intersects) becomes a candidate when
        // one of its slab boxes does.
        self.tree.for_each_with_stats(&query, |Hit(entry)| {
            let plane = plane_of(&entry.value);
            if some_slab_intersects(plane, self.slab_minutes, network, &query) {
                visit(entry);
            }
        })
    }

    /// `(shared, total)`: how many of the allocations this copy is made
    /// of (tree nodes; the map's directory, chunks and buckets) `other`
    /// holds too — the probe the sharing tests count with. A fresh clone
    /// shares all of them.
    #[doc(hidden)]
    pub fn shared_with(&self, other: &Self) -> (usize, usize) {
        let (tree_shared, tree_total) = self.tree.shared_nodes_with(&other.tree);
        let (map_shared, map_total) = self.entries.shared_with(&other.entries);
        (tree_shared + map_shared, tree_total + map_total)
    }

    /// Tree statistics: `(entries, nodes, height)`.
    pub fn tree_stats(&self) -> (usize, usize, usize) {
        (self.tree.len(), self.tree.node_count(), self.tree.height())
    }
}

/// The filter-only index: each entry's payload is its plane.
impl<K: Copy + Eq + Hash> MovingObjectIndex<K> {
    /// Alias of [`MovingObjectIndex::new`] for a filter-only index, kept
    /// because `modb_ledger/` calls it with `DatabaseConfig::bands` and
    /// may not be edited.
    pub fn with_config(slab_minutes: f64) -> Self {
        MovingObjectIndex::new(slab_minutes)
    }

    /// Installs (or replaces) the o-plane of object `key` in a
    /// filter-only index.
    ///
    /// # Errors
    ///
    /// Propagates o-plane decomposition errors; on error the old plane (if
    /// any) is left untouched.
    pub fn upsert(&mut self, key: K, plane: OPlane, route: &Route) -> Result<(), IndexError> {
        self.insert(key, plane.clone(), Some((&plane, route)))
    }

    /// Candidate keys whose o-plane boxes intersect the query region's
    /// box — the sublinear filtering step. Deduplicated.
    /// `network` resolves each hit's route for its slab geometry.
    pub fn candidates(&self, region: &QueryRegion, network: &RouteNetwork) -> Vec<K> {
        let mut out = Vec::new();
        self.candidates_into(region, network, |plane| Some(plane.clone()), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_geom::{Point, Polygon, Rect};
    use modb_policy::BoundKind;
    use modb_routes::{Direction, RouteId};

    const C: f64 = 5.0;

    fn route() -> Route {
        Route::from_vertices(
            RouteId(1),
            "r",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap()
    }

    fn network() -> RouteNetwork {
        RouteNetwork::from_routes([route()]).unwrap()
    }

    fn plane(start_arc: f64, t0: f64) -> OPlane {
        OPlane::new(
            RouteId(1),
            start_arc,
            Direction::Forward,
            1.0,
            1.5,
            C,
            BoundKind::Immediate,
            t0,
            t0 + 60.0,
        )
        .unwrap()
    }

    fn region(x0: f64, x1: f64, t: f64) -> QueryRegion {
        let g = Polygon::rectangle(&Rect::new(Point::new(x0, -1.0), Point::new(x1, 1.0))).unwrap();
        QueryRegion::at_instant(g, t)
    }

    /// A filter-only index's candidates with their search statistics.
    fn candidates_with_stats(
        idx: &MovingObjectIndex<u64>,
        q: &QueryRegion,
        n: &RouteNetwork,
    ) -> (Vec<u64>, SearchStats) {
        let mut out = Vec::new();
        let stats = idx.candidates_into(q, n, |plane| Some(plane.clone()), &mut out);
        (out, stats)
    }

    #[test]
    fn upsert_and_query() {
        let r = route();
        let n = network();
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        idx.upsert(2u64, plane(50.0, 0.0), &r).unwrap();
        assert_eq!(idx.len(), 2);
        // At t = 2 object 1 is near arc 2, object 2 near arc 52.
        let c = idx.candidates(&region(0.0, 10.0, 2.0), &n);
        assert_eq!(c, vec![1]);
        let c = idx.candidates(&region(45.0, 60.0, 2.0), &n);
        assert_eq!(c, vec![2]);
        let mut c = idx.candidates(&region(0.0, 100.0, 2.0), &n);
        c.sort_unstable();
        assert_eq!(c, vec![1, 2]);
        assert!(idx.candidates(&region(90.0, 100.0, 0.5), &n).is_empty());
    }

    #[test]
    fn update_moves_object() {
        let r = route();
        let n = network();
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        assert_eq!(idx.candidates(&region(0.0, 5.0, 1.0), &n), vec![1]);
        // The object reports from arc 80 at t = 10: replace its plane.
        idx.upsert(1u64, plane(80.0, 10.0), &r).unwrap();
        assert_eq!(idx.len(), 1);
        assert!(idx.candidates(&region(0.0, 5.0, 11.0), &n).is_empty());
        assert_eq!(idx.candidates(&region(78.0, 85.0, 11.0), &n), vec![1]);
        // One tree entry per object, covering only the new plane.
        let (entries, _, _) = idx.tree_stats();
        assert_eq!(entries, 1);
    }

    #[test]
    fn remove_object() {
        let r = route();
        let n = network();
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        idx.upsert(2u64, plane(50.0, 0.0), &r).unwrap();
        assert!(idx.remove(&1).is_some());
        assert!(idx.remove(&1).is_none());
        assert_eq!(idx.len(), 1);
        assert!(idx.candidates(&region(0.0, 10.0, 2.0), &n).is_empty());
        let (entries, _, _) = idx.tree_stats();
        assert_eq!(entries, 1); // object 2's entry remains
    }

    /// A payload rides in the entry, filed or not: a hit hands over the
    /// payload it carries and its plane is derived from that payload, an
    /// entry without a plane stays in the table but out of the tree, and
    /// moving an entry between the two keeps one tree entry per filed key.
    #[test]
    fn payloads_ride_in_the_entry_filed_or_not() {
        type Named = (&'static str, Option<OPlane>);
        fn put(
            idx: &mut MovingObjectIndex<u64, Named>,
            key: u64,
            name: &'static str,
            plane: Option<OPlane>,
            route: &Route,
        ) -> Result<(), IndexError> {
            let filed = plane.clone();
            idx.insert(key, (name, plane), filed.as_ref().map(|p| (p, route)))
        }
        let r = route();
        let n = network();
        let names = |idx: &MovingObjectIndex<u64, Named>| {
            let mut seen = Vec::new();
            idx.for_each_candidate(
                &region(0.0, 100.0, 2.0),
                &n,
                |(_, plane)| plane.clone(),
                |e| seen.push(e.value().0),
            );
            seen
        };
        let mut idx = MovingObjectIndex::new(5.0);
        put(&mut idx, 1, "filed", Some(plane(0.0, 0.0)), &r).unwrap();
        put(&mut idx, 2, "held", None, &r).unwrap();
        assert_eq!((idx.len(), idx.tree_stats().0), (2, 1));
        assert_eq!(idx.get(&2).map(|v| v.0), Some("held"));
        assert_eq!(idx.entry(&2).unwrap().union(), None);
        assert_eq!(names(&idx), ["filed"]);

        // Filed → held → filed again; the tree follows.
        put(&mut idx, 1, "unfiled", None, &r).unwrap();
        assert_eq!((idx.len(), idx.tree_stats().0), (2, 0));
        assert!(names(&idx).is_empty());
        put(&mut idx, 2, "refiled", Some(plane(50.0, 0.0)), &r).unwrap();
        // A plane that cannot be decomposed changes nothing.
        let wrong =
            Route::from_vertices(RouteId(9), "w", vec![Point::ORIGIN, Point::new(1.0, 0.0)])
                .unwrap();
        assert!(put(&mut idx, 2, "bad", Some(plane(50.0, 0.0)), &wrong).is_err());
        assert_eq!(idx.get(&2).map(|v| v.0), Some("refiled"));
        assert_eq!(names(&idx), ["refiled"]);
        assert_eq!(idx.remove(&1).map(|e| e.value().0), Some("unfiled"));
        assert_eq!((idx.len(), idx.tree_stats().0), (1, 1));
        let values: Vec<_> = idx.values().map(|v| v.0).collect();
        assert_eq!(values, ["refiled"]);
        assert!(idx.entry(&2).unwrap().union().is_some());
    }

    #[test]
    fn candidates_deduplicated() {
        let r = route();
        let n = network();
        // Tiny slabs → many boxes per plane; a wide query catches several.
        let mut idx = MovingObjectIndex::new(0.5);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        let g =
            Polygon::rectangle(&Rect::new(Point::new(0.0, -1.0), Point::new(100.0, 1.0))).unwrap();
        let q = QueryRegion::during(g, 0.0, 30.0);
        let c = idx.candidates(&q, &n);
        assert_eq!(c, vec![1], "one candidate even with many boxes hit");
    }

    #[test]
    fn candidates_into_reuses_buffer_and_matches_allocating_path() {
        let r = route();
        let n = network();
        let mut idx = MovingObjectIndex::new(0.5);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        idx.upsert(2u64, plane(50.0, 0.0), &r).unwrap();
        let q = region(0.0, 100.0, 2.0);
        let (alloc, alloc_stats) = candidates_with_stats(&idx, &q, &n);
        assert_eq!(alloc, idx.candidates(&q, &n));
        let mut buf = Vec::new();
        for _ in 0..3 {
            buf.clear();
            let stats = idx.candidates_into(&q, &n, |p| Some(p.clone()), &mut buf);
            assert_eq!(buf, alloc);
            assert_eq!(stats, alloc_stats);
        }
        // Appends after existing content, deduplicating only the tail.
        buf.clear();
        buf.push(999);
        idx.candidates_into(&q, &n, |p| Some(p.clone()), &mut buf);
        assert_eq!(buf[0], 999);
        assert_eq!(&buf[1..], &alloc[..]);
    }

    #[test]
    fn future_time_query() {
        let r = route();
        let n = network();
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        // "Where will it be at t = 30?" Nominal arc 30.
        assert_eq!(idx.candidates(&region(25.0, 35.0, 30.0), &n), vec![1]);
        assert!(idx.candidates(&region(0.0, 3.0, 30.0), &n).is_empty());
    }

    #[test]
    fn default_slab_fallback() {
        let idx: MovingObjectIndex<u64> = MovingObjectIndex::new(-3.0);
        assert!(idx.is_empty());
        // No panic; slab fell back to default.
        let r = route();
        let mut idx = idx;
        idx.upsert(9u64, plane(0.0, 0.0), &r).unwrap();
        assert_eq!(idx.len(), 1);
    }

    /// `with_config` is the name `modb_ledger/` builds its index by: the
    /// same index as `new`, tree shape and search statistics included.
    #[test]
    fn with_config_is_an_alias_of_new() {
        let r = route();
        let n = network();
        let mut aliased = MovingObjectIndex::with_config(5.0);
        let mut plain = MovingObjectIndex::new(5.0);
        for (k, arc) in [(1u64, 0.0), (2, 30.0), (3, 60.0), (4, 90.0)] {
            aliased.upsert(k, plane(arc, 0.0), &r).unwrap();
            plain.upsert(k, plane(arc, 0.0), &r).unwrap();
        }
        assert_eq!(aliased.tree_stats(), plain.tree_stats());
        for q in [
            region(0.0, 10.0, 2.0),
            region(25.0, 65.0, 4.0),
            region(0.0, 100.0, 9.0),
        ] {
            assert_eq!(
                candidates_with_stats(&aliased, &q, &n),
                candidates_with_stats(&plain, &q, &n)
            );
        }
    }

    /// What an object costs does not depend on how far ahead its trip is
    /// declared: the entry is the key, the payload and one box, nothing
    /// per slab — and a filter-only entry, whose payload is the plane,
    /// holds that plane once.
    #[test]
    fn stored_entry_size_is_independent_of_trip_length() {
        let r = route();
        let n = network();
        let trip = |minutes: f64| {
            OPlane::new(
                RouteId(1),
                0.0,
                Direction::Forward,
                0.1,
                0.15,
                C,
                BoundKind::Delayed,
                0.0,
                minutes,
            )
            .unwrap()
        };
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, trip(6.0), &r).unwrap();
        idx.upsert(2u64, trip(600.0), &r).unwrap();
        assert_eq!(trip(600.0).to_boxes(&r, 5.0).unwrap().len(), 120);
        // Both are an `Entry`, and a filter-only `Entry` is a key, the
        // plane and a box (an unfiled entry is the empty box, not an
        // `Option`): no pointer in it means no heap behind it to grow
        // with the trip, and no second plane beside the payload.
        assert_eq!(
            std::mem::size_of::<Entry<u64, OPlane>>(),
            std::mem::size_of::<u64>()
                + std::mem::size_of::<OPlane>()
                + std::mem::size_of::<Aabb3>()
        );
        assert!(std::mem::size_of::<Entry<u64, OPlane>>() <= 128);
        // Both answer from the plane alone, at either end of the trip.
        assert_eq!(idx.candidates(&region(0.0, 5.0, 3.0), &n), vec![1, 2]);
        assert_eq!(idx.candidates(&region(50.0, 70.0, 599.0), &n), vec![2]);
    }

    /// The failure modes computing slab boxes at query time adds: the
    /// filter cannot see the route, or cannot derive the plane. The hit
    /// stays a candidate — dropping it would hide the object *and* the
    /// error exact refinement reports. (With the route resolved a slab box cannot fail: the
    /// slab duration was validated by `new` and the arcs are clamped to
    /// the route; `any_slab_intersects` refusing a wrong route
    /// is tested in `oplane.rs`, and the filter keeps that hit too.)
    #[test]
    fn unresolvable_route_stays_a_candidate() {
        let r = route();
        let n = network();
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        // The union box spans the whole hour; at t = 50 the object is
        // near arc 50, so a query at arc 0–5 is refused by its slab…
        let q = region(0.0, 5.0, 50.0);
        assert!(idx.candidates(&q, &n).is_empty());
        // …unless the network has no such route: then it is kept.
        assert_eq!(idx.candidates(&q, &RouteNetwork::new()), vec![1]);
        // So is a hit whose payload yields no plane.
        let mut kept = Vec::new();
        idx.candidates_into(&q, &n, |_| None, &mut kept);
        assert_eq!(kept, vec![1]);
        // Outside the union box nothing is a tree hit, so nothing is kept
        // that the parent would not have tested.
        assert!(idx
            .candidates(&region(0.0, 5.0, 500.0), &RouteNetwork::new())
            .is_empty());
    }
}
