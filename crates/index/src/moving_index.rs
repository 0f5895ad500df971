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
//! keyed table: each key owns one immutable [`Entry`] — the key and a
//! payload `V`. Neither the plane nor its union box is stored beside the
//! payload, because both are functions of it (§4.1.1: "the geometric
//! representation of a position attribute"): the caller hands every
//! write a closure that derives a payload's [`Filing`] — its plane and
//! route — and the `candidates*` probes a closure that derives the plane
//! again from a hit's payload. The union box lives in one place, the
//! tree leaf that files the entry. `modb-core` keeps the whole moving
//! object as the payload and derives the plane from its attribute; a
//! filter-only index keeps the plane itself (`V = OPlane`, the default).
//! The entry lives behind one `Arc` that both the key → entry map and
//! the tree's leaf hold, so a tree hit reaches the payload with no
//! lookup, and the key is kept once, in the entry: the map's bucket holds
//! only the pointer and reads the key through it.
//!
//! **A write locates before it writes.** §4.2 removes an object "from
//! the rectangles … that intersect [the old o-plane] p1": p1 is derived
//! again from the superseded entry's payload, and its union box leads
//! the tree to the leaf to replace or remove. The leaf stores that box
//! rounded outward to `f32` (a cover: the tree only filters, and the slab
//! test and refinement stay exact `f64`); rounding is a function of the
//! box, so the box derived again rounds to the stored one exactly and
//! the leaf is found by equality. The new box is computed
//! first, the old entry is located second, the tree is written third and
//! the map last, so an error at any step — a plane that cannot be
//! decomposed, or a derived box that finds no leaf
//! ([`IndexError::Misfiled`]) — leaves the map, the tree and `len()` as
//! they were.
//!
//! **A copy is two roots.** The tree ([`RStarTree`], each node one
//! allocation) and the map (`CowMap`) are path-copying, so cloning the
//! index copies two roots and the clone shares every node, bucket and
//! entry until one side writes.
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

use crate::cow_map::{CowMap, Keyed};
use crate::error::IndexError;
use crate::oplane::OPlane;
use crate::rtree::{RStarTree, SearchStats};
use crate::timespace::QueryRegion;

/// Default slab duration (minutes) for o-plane decomposition: fine enough
/// that slab over-approximation stays tight, coarse enough that a one-hour
/// plane is ~12 boxes.
pub const DEFAULT_SLAB_MINUTES: f64 = 5.0;

/// How a payload is filed: the o-plane whose union box the tree files it
/// under, on that plane's route — or `None` for a payload held in the map
/// only. Every write derives it, from the new payload and from the one it
/// supersedes, with the closure its caller passes.
pub type Filing<'r> = Option<(OPlane, &'r Route)>;

/// One key's record: the key and its payload. Immutable, and shared
/// (never copied) between the tree, the map and every clone of the index.
/// The same size for every plane: no per-slab heap behind it, no copy of
/// the plane and no copy of the box the tree files it under — the payload
/// determines both, and the box is kept in the tree's leaf.
#[derive(Debug)]
pub struct Entry<K, V> {
    key: K,
    value: V,
}

impl<K, V> Entry<K, V> {
    /// The key the entry is stored under.
    #[inline]
    pub fn key(&self) -> &K {
        &self.key
    }

    /// The payload.
    #[inline]
    pub fn value(&self) -> &V {
        &self.value
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

/// The id map reads an entry's key through the entry, so a bucket holds
/// one pointer per key.
impl<K: Eq + Hash, V> Keyed for Arc<Entry<K, V>> {
    type Key = K;

    fn key(&self) -> &K {
        &self.key
    }
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
    entries: CowMap<Arc<Entry<K, V>>>,
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
        self.entries.iter().map(|entry| &entry.key)
    }

    /// Every entry, in arbitrary order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry<K, V>> {
        self.entries.iter().map(|entry| &**entry)
    }

    /// Stores `value` under `key`, filed in the tree under the union box
    /// of the plane `filing_of` derives from it, or held in the map only
    /// when that is `None` — the §4.2 position-update maintenance step.
    /// The entry it supersedes is found in the tree by the box of the
    /// plane `filing_of` derives from *its* payload, so `filing_of` must
    /// derive, for every payload, the plane it was filed under — and it
    /// must be the plane the `candidates*` closures derive.
    ///
    /// # Errors
    ///
    /// Propagates `filing_of`'s errors and o-plane decomposition errors,
    /// and answers [`IndexError::Misfiled`] when the superseded entry is
    /// not in the tree under its derived box. On error nothing changes.
    pub fn insert<'r, E: From<IndexError>>(
        &mut self,
        key: K,
        value: V,
        filing_of: impl Fn(&V) -> Result<Filing<'r>, E>,
    ) -> Result<(), E> {
        let to = self.union_box(filing_of(&value)?)?;
        let old = match self.entries.get(&key) {
            Some(old) => Some((
                Hit(Arc::clone(old)),
                self.union_box(filing_of(&old.value)?)?,
            )),
            None => None,
        };
        let next = Arc::new(Entry { key, value });
        let located = match (old, to) {
            (Some((old, Some(from))), Some(to)) => {
                self.tree.update(&from, &old, to, Hit(Arc::clone(&next)))
            }
            (Some((old, Some(from))), None) => self.tree.remove(&from, &old),
            (_, Some(to)) => {
                self.tree.insert(to, Hit(Arc::clone(&next)));
                true
            }
            (_, None) => true,
        };
        if !located {
            return Err(IndexError::Misfiled.into());
        }
        self.entries.insert(next);
        Ok(())
    }

    /// Removes `key`'s entry (trip ended) and returns it, or `None` when
    /// there is none. The entry is found in the tree by the box of the
    /// plane `filing_of` derives from its payload, as for
    /// [`MovingObjectIndex::insert`].
    ///
    /// # Errors
    ///
    /// As for [`MovingObjectIndex::insert`]; on error nothing changes.
    pub fn remove<'r, E: From<IndexError>>(
        &mut self,
        key: &K,
        filing_of: impl Fn(&V) -> Result<Filing<'r>, E>,
    ) -> Result<Option<Arc<Entry<K, V>>>, E> {
        let Some(entry) = self.entries.get(key) else {
            return Ok(None);
        };
        if let Some(union) = self.union_box(filing_of(&entry.value)?)? {
            let hit = Hit(Arc::clone(entry));
            if !self.tree.remove(&union, &hit) {
                return Err(IndexError::Misfiled.into());
            }
        }
        Ok(self.entries.remove(key))
    }

    /// The box a [`Filing`] files its payload under: the union of its
    /// plane's slab boxes.
    fn union_box(&self, filing: Filing<'_>) -> Result<Option<Aabb3>, IndexError> {
        filing
            .map(|(plane, route)| plane.union_box(route, self.slab_minutes))
            .transpose()
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

    /// Visits every tree leaf: the box it files and the entry it holds —
    /// the probe the filing tests compare each box with the one derived
    /// from the entry's payload, rounded as the tree stores it
    /// ([`crate::stored_box`]).
    #[doc(hidden)]
    pub fn for_each_leaf(&self, mut visit: impl FnMut(&Aabb3, &Entry<K, V>)) {
        self.tree
            .for_each_entry(|union, Hit(entry)| visit(union, entry));
    }

    /// `(leaf slot, internal slot, id-map slot)` sizes in bytes of this
    /// index's tree and map — the probe the footprint tests pin.
    #[doc(hidden)]
    pub fn slot_bytes() -> (usize, usize, usize) {
        let (leaf, internal) = RStarTree::<Hit<K, V>>::slot_bytes();
        (leaf, internal, CowMap::<Arc<Entry<K, V>>>::slot_bytes())
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
    /// filter-only index. The plane it replaces is filed on `route` too:
    /// an object's route cannot change through this call.
    ///
    /// # Errors
    ///
    /// Propagates o-plane decomposition errors —
    /// [`IndexError::RouteMismatch`] when `plane`, or the plane it would
    /// replace, is not on `route` — and [`IndexError::Misfiled`]; on error
    /// the old plane (if any) is left untouched.
    pub fn upsert(&mut self, key: K, plane: OPlane, route: &Route) -> Result<(), IndexError> {
        self.insert(key, plane, |plane| Ok(Some((plane.clone(), route))))
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

    /// A filter-only payload's filing: its own plane, on `r`.
    fn on<'r>(r: &'r Route) -> impl Fn(&OPlane) -> Result<Filing<'r>, IndexError> + 'r {
        move |plane| Ok(Some((plane.clone(), r)))
    }

    /// The keys the tree's leaves hold, each checked against the box
    /// `plane_of` derives from its payload on `r`, rounded as the tree
    /// stores it.
    fn filed_keys<V>(
        idx: &MovingObjectIndex<u64, V>,
        r: &Route,
        plane_of: impl Fn(&V) -> Option<OPlane>,
    ) -> Vec<u64> {
        let mut keys = Vec::new();
        idx.for_each_leaf(|union, entry| {
            let plane = plane_of(&entry.value).expect("a filed payload derives a plane");
            let derived = plane.union_box(r, idx.slab_minutes).unwrap();
            assert_eq!(*union, crate::stored_box(&derived));
            keys.push(entry.key);
        });
        keys.sort_unstable();
        keys
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
        assert!(idx.remove(&1, on(&r)).unwrap().is_some());
        assert!(idx.remove(&1, on(&r)).unwrap().is_none());
        assert_eq!(idx.len(), 1);
        assert!(idx.candidates(&region(0.0, 10.0, 2.0), &n).is_empty());
        let (entries, _, _) = idx.tree_stats();
        assert_eq!(entries, 1); // object 2's entry remains
    }

    /// A payload rides in the entry, filed or not: a hit hands over the
    /// payload it carries and its plane is derived from that payload, an
    /// entry without a plane stays in the table but out of the tree, and
    /// moving an entry between the two keeps one tree leaf per filed key,
    /// under the box its payload derives.
    #[test]
    fn payloads_ride_in_the_entry_filed_or_not() {
        type Named = (&'static str, Option<OPlane>);
        fn filing<'r>(route: &'r Route) -> impl Fn(&Named) -> Result<Filing<'r>, IndexError> + 'r {
            move |(_, plane)| Ok(plane.clone().map(|plane| (plane, route)))
        }
        fn put(
            idx: &mut MovingObjectIndex<u64, Named>,
            key: u64,
            name: &'static str,
            plane: Option<OPlane>,
            route: &Route,
        ) -> Result<(), IndexError> {
            idx.insert(key, (name, plane), filing(route))
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
        let filed = |idx: &MovingObjectIndex<u64, Named>| filed_keys(idx, &r, |v| v.1.clone());
        let mut idx = MovingObjectIndex::new(5.0);
        put(&mut idx, 1, "filed", Some(plane(0.0, 0.0)), &r).unwrap();
        put(&mut idx, 2, "held", None, &r).unwrap();
        assert_eq!((idx.len(), idx.tree_stats().0), (2, 1));
        assert_eq!(idx.get(&2).map(|v| v.0), Some("held"));
        assert_eq!(filed(&idx), [1]);
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
        let removed = idx.remove(&1, filing(&r)).unwrap();
        assert_eq!(removed.map(|e| e.value().0), Some("unfiled"));
        assert_eq!((idx.len(), idx.tree_stats().0), (1, 1));
        let values: Vec<_> = idx.entries().map(|e| e.value().0).collect();
        assert_eq!(values, ["refiled"]);
        assert_eq!(filed(&idx), [2]);
    }

    /// Everything a refused write could have touched, to compare before
    /// and after it.
    fn state(
        idx: &MovingObjectIndex<u64>,
        r: &Route,
        n: &RouteNetwork,
    ) -> (usize, (usize, usize, usize), Vec<u64>, Vec<u64>) {
        let mut wide = idx.candidates(&region(0.0, 100.0, 2.0), n);
        wide.sort_unstable();
        (
            idx.len(),
            idx.tree_stats(),
            wide,
            filed_keys(idx, r, |p| Some(p.clone())),
        )
    }

    /// The filter-only `upsert` files the plane it replaces on the route
    /// it is given, so moving an object to another route through it is
    /// refused, typed, and the index is as it was.
    #[test]
    fn a_route_change_through_upsert_is_refused() {
        let (r, n) = (route(), network());
        let other = Route::from_vertices(
            RouteId(2),
            "other",
            vec![Point::new(0.0, 5.0), Point::new(100.0, 5.0)],
        )
        .unwrap();
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        idx.upsert(2u64, plane(50.0, 0.0), &r).unwrap();
        let before = state(&idx, &r, &n);
        let moved = OPlane {
            route: RouteId(2),
            ..plane(10.0, 1.0)
        };
        assert_eq!(idx.upsert(1, moved, &other), Err(IndexError::RouteMismatch));
        assert_eq!(state(&idx, &r, &n), before);
        assert_eq!(idx.get(&1), Some(&plane(0.0, 0.0)));
    }

    /// A write whose derivation of the superseded entry misses — it
    /// derives a box the entry was not filed under — is refused with
    /// [`IndexError::Misfiled`] before anything is written: no ghost leaf
    /// beside a new map entry, no map entry without its leaf.
    #[test]
    fn a_write_that_cannot_locate_the_old_entry_is_refused() {
        let (r, n) = (route(), network());
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        idx.upsert(2u64, plane(50.0, 0.0), &r).unwrap();
        let before = state(&idx, &r, &n);
        // A derivation that is not the one the entries were filed by.
        let astray = |p: &OPlane| {
            Ok(Some((
                OPlane {
                    start_arc: p.start_arc + 30.0,
                    ..p.clone()
                },
                &r,
            )))
        };
        assert_eq!(
            idx.remove(&1, astray).map(|e| e.is_some()),
            Err(IndexError::Misfiled)
        );
        assert_eq!(state(&idx, &r, &n), before);
        assert_eq!(
            idx.insert(1, plane(80.0, 10.0), astray),
            Err(IndexError::Misfiled)
        );
        assert_eq!(state(&idx, &r, &n), before);
        assert_eq!(idx.get(&1), Some(&plane(0.0, 0.0)));
        // Unfiling (the new payload derives no plane) must locate too.
        let unfile = |p: &OPlane| match p.start_arc == 80.0 {
            true => Ok(None),
            false => astray(p),
        };
        assert_eq!(
            idx.insert(1, plane(80.0, 10.0), unfile),
            Err(IndexError::Misfiled)
        );
        assert_eq!(state(&idx, &r, &n), before);
        // The right derivation still finds both.
        assert!(idx.remove(&1, on(&r)).unwrap().is_some());
        idx.upsert(2, plane(80.0, 10.0), &r).unwrap();
        assert_eq!(
            (idx.len(), filed_keys(&idx, &r, |p| Some(p.clone()))),
            (1, vec![2])
        );
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
    /// declared: the entry is the key and the payload, nothing per slab
    /// and not even the one box, which the tree's leaf keeps — and a
    /// filter-only entry, whose payload is the plane, holds that plane
    /// once.
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
        // Both are an `Entry`, and a filter-only `Entry` is a key and the
        // plane: no pointer in it means no heap behind it to grow with
        // the trip, and no second plane or box beside the payload.
        assert_eq!(
            std::mem::size_of::<Entry<u64, OPlane>>(),
            std::mem::size_of::<u64>() + std::mem::size_of::<OPlane>()
        );
        assert!(std::mem::size_of::<Entry<u64, OPlane>>() <= 80);
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
