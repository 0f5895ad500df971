//! The moving-object index: o-plane maintenance over speed-banded
//! R\*-trees (§4.2, extended with speed partitioning).
//!
//! "The index is updated whenever a position-update is received from a
//! moving object o. … the id of o is removed from the 3-dimensional
//! rectangles of the index that intersect [the old o-plane] p1, and it is
//! inserted in the 3-dimensional rectangles that intersect [the new
//! o-plane] p2."
//!
//! Here each object's current o-plane is kept as what it is — the seven
//! sub-attributes of [`OPlane`] — beside the one box its band's tree
//! files it under: the union of its §4.2 slab boxes. The slab boxes
//! themselves are an approximation of the plane and are not stored: a
//! tree hit (union box meets the query box) computes, from the plane, the
//! band's knobs and the route, only the slab or two whose time span meets
//! the query's, and becomes a candidate when one of those intersects it.
//! The candidate set is identical to indexing every slab box individually
//! (an object qualifies iff some slab box intersects the query box), but
//! the §4.2 position-update maintenance is a single delete+insert instead
//! of one per slab, and what an object costs in memory no longer grows
//! with how far ahead its trip is declared (22 boxes ≈ 1 KiB for a
//! 105-minute trip at 5-minute slabs; ≈ 136 B now, whatever the trip).
//!
//! **Speed bands.** A fast object's o-plane sweeps a long stretch of
//! route, so its union box is enormous next to a slow neighbour's; in one
//! shared tree those boxes inflate every internal node they touch and
//! smother the slow objects filed under them ("Speed Partitioning for
//! Indexing Moving Objects", arXiv 1411.4940). The index is therefore a
//! *partition-aware facade*: a [`BandConfig`] cuts the fleet into speed
//! bands by the o-plane's `max_speed`, each band gets its own
//! [`RStarTree`] (with a band-specific slab duration and fine-horizon),
//! and an upsert that lands in a different band than the stored entry
//! *migrates* the object — delete from the old band's tree, insert into
//! the new band's. A query probes every band and merges; since an object
//! lives in exactly one band, the merged candidate set needs no
//! cross-band dedup. [`BandConfig::single`] (one all-speeds band) is
//! bit-identical to the pre-banding single-tree index.
//!
//! **Shared payloads.** A plane and its union box are immutable once
//! installed, so they live behind one `Arc`: cloning the index and
//! [`MovingObjectIndex::sync_entry_from`] copy the pointer, never the
//! entry. Only the per-band trees and the id → entry map are per copy.
//!
//! **Routes at query time.** Slab geometry needs the plane's route, so
//! the `candidates*` probes take the `RouteNetwork`. Routes are
//! append-only and individually immutable, so a slab box computed at
//! query time is the box an upsert-time decomposition would have stored.
//! A plane whose route the network cannot resolve, or whose slab box
//! errors, **stays a candidate**: the filter may over-approximate, never
//! drop, and exact refinement reports the route error.
//!
//! Filtering a [`QueryRegion`] returns candidate ids; exact may/must
//! refinement against uncertainty intervals happens in `modb-core`,
//! where routes are resolvable.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use modb_geom::Aabb3;
use modb_routes::{Route, RouteNetwork};

use crate::error::IndexError;
use crate::oplane::OPlane;
use crate::rtree::{RStarTree, SearchStats};
use crate::timespace::QueryRegion;

/// Default slab duration (minutes) for o-plane decomposition: fine enough
/// that slab over-approximation stays tight, coarse enough that a one-hour
/// plane is ~12 boxes.
pub const DEFAULT_SLAB_MINUTES: f64 = 5.0;

/// Hard cap on the number of speed bands. Keeps [`BandConfig`] `Copy`
/// (it rides inside `DatabaseConfig`, WAL snapshots, and the stats
/// frame) and matches practice — speed-partitioning studies use a
/// handful of partitions, not dozens.
pub const MAX_BANDS: usize = 8;

/// One speed band: the objects whose o-plane `max_speed` falls at or
/// below `max_speed` (and above the previous band's edge), indexed in
/// their own R\*-tree with this band's decomposition knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandSpec {
    /// Upper speed edge (inclusive); `f64::INFINITY` on the last band.
    pub max_speed: f64,
    /// Slab duration (minutes) for o-plane decomposition in this band.
    pub slab_minutes: f64,
    /// Fine-decomposition horizon (minutes past an o-plane's update):
    /// slabs beyond it collapse into one coarse tail box
    /// ([`OPlane::to_boxes_with_horizon`]). `f64::INFINITY` = fine slabs
    /// over the whole plane, exactly [`OPlane::to_boxes`].
    pub fine_horizon: f64,
}

/// Speed-band layout of a [`MovingObjectIndex`]: ascending upper speed
/// edges, each with a per-band slab duration and fine-horizon. The last
/// band always has an infinite edge, so every `max_speed` maps to
/// exactly one band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandConfig {
    bands: [BandSpec; MAX_BANDS],
    len: usize,
}

fn sane_slab(slab_minutes: f64) -> f64 {
    if slab_minutes.is_finite() && slab_minutes > 0.0 {
        slab_minutes
    } else {
        DEFAULT_SLAB_MINUTES
    }
}

impl Default for BandConfig {
    fn default() -> Self {
        BandConfig::single(DEFAULT_SLAB_MINUTES)
    }
}

impl BandConfig {
    /// One all-speeds band — the pre-banding behavior, bit-identical to
    /// the historical single-tree index. Non-positive or non-finite slab
    /// durations fall back to [`DEFAULT_SLAB_MINUTES`].
    pub fn single(slab_minutes: f64) -> Self {
        let mut bands = [BandSpec {
            max_speed: f64::INFINITY,
            slab_minutes: sane_slab(slab_minutes),
            fine_horizon: f64::INFINITY,
        }; MAX_BANDS];
        bands[0].max_speed = f64::INFINITY;
        BandConfig { bands, len: 1 }
    }

    /// Bands cut at `edges` (ascending upper speed edges; an implicit
    /// unbounded band is appended), every band using the same
    /// `slab_minutes` and no fine-horizon. Candidate sets are **equal**
    /// to [`BandConfig::single`]'s — only the tree partitioning changes —
    /// which is what the banded≡single proptest pins down.
    ///
    /// # Errors
    ///
    /// [`IndexError::InvalidParameter`] when an edge is non-finite,
    /// non-positive, or not strictly ascending, or when `edges` needs
    /// more than [`MAX_BANDS`] bands.
    pub fn uniform(edges: &[f64], slab_minutes: f64) -> Result<Self, IndexError> {
        if edges.len() + 1 > MAX_BANDS {
            return Err(IndexError::InvalidParameter(
                "band_edges",
                edges.len() as f64,
            ));
        }
        let mut config = BandConfig::single(slab_minutes);
        let mut prev = 0.0;
        for (i, &edge) in edges.iter().enumerate() {
            if !edge.is_finite() || edge <= prev {
                return Err(IndexError::InvalidParameter("band_edge", edge));
            }
            prev = edge;
            config.bands[i].max_speed = edge;
            config.bands[i].slab_minutes = config.bands[0].slab_minutes;
        }
        config.len = edges.len() + 1;
        config.bands[edges.len()] = BandSpec {
            max_speed: f64::INFINITY,
            slab_minutes: config.bands[0].slab_minutes,
            fine_horizon: f64::INFINITY,
        };
        Ok(config)
    }

    /// Like [`BandConfig::uniform`], but each band's slab duration is
    /// scaled so the route stretch swept per slab stays roughly constant:
    /// band `i` gets `base_slab · e₀ / eᵢ` where `eᵢ` is its upper edge
    /// (the unbounded last band uses twice its lower edge as a nominal
    /// top). Faster bands therefore get finer slabs — tighter slab boxes,
    /// fewer false-positive candidates — which is the banded index's
    /// candidate-ratio win in W8. Slabs are floored at `base_slab / 16`.
    ///
    /// # Errors
    ///
    /// Same as [`BandConfig::uniform`].
    pub fn speed_scaled(edges: &[f64], base_slab: f64) -> Result<Self, IndexError> {
        let mut config = BandConfig::uniform(edges, base_slab)?;
        if edges.is_empty() {
            return Ok(config);
        }
        let base = config.bands[0].slab_minutes;
        let e0 = edges[0];
        for i in 0..config.len {
            let top = if config.bands[i].max_speed.is_finite() {
                config.bands[i].max_speed
            } else {
                2.0 * edges[edges.len() - 1]
            };
            config.bands[i].slab_minutes = (base * e0 / top).max(base / 16.0);
        }
        Ok(config)
    }

    /// Reassembles a config from explicit band specs — the
    /// deserialization path (WAL snapshots, the stats frame). Accepts
    /// exactly what the builders produce: 1..=[`MAX_BANDS`] bands,
    /// strictly ascending positive edges with the last infinite,
    /// finite positive slab durations, positive (possibly infinite)
    /// fine-horizons.
    ///
    /// # Errors
    ///
    /// [`IndexError::InvalidParameter`] on any violation.
    pub fn from_bands(specs: &[BandSpec]) -> Result<Self, IndexError> {
        if specs.is_empty() || specs.len() > MAX_BANDS {
            return Err(IndexError::InvalidParameter(
                "band_count",
                specs.len() as f64,
            ));
        }
        let mut prev = 0.0;
        for (i, spec) in specs.iter().enumerate() {
            let last = i == specs.len() - 1;
            if last != spec.max_speed.is_infinite() || spec.max_speed <= prev {
                return Err(IndexError::InvalidParameter("band_edge", spec.max_speed));
            }
            prev = spec.max_speed;
            if !spec.slab_minutes.is_finite() || spec.slab_minutes <= 0.0 {
                return Err(IndexError::InvalidParameter(
                    "slab_minutes",
                    spec.slab_minutes,
                ));
            }
            if spec.fine_horizon.is_nan() || spec.fine_horizon <= 0.0 {
                return Err(IndexError::InvalidParameter(
                    "fine_horizon",
                    spec.fine_horizon,
                ));
            }
        }
        let mut config = BandConfig::single(specs[0].slab_minutes);
        config.bands[..specs.len()].copy_from_slice(specs);
        config.len = specs.len();
        Ok(config)
    }

    /// Returns `self` with band `band`'s slab duration replaced
    /// (out-of-range bands and bad durations are ignored).
    #[must_use]
    pub fn with_band_slab(mut self, band: usize, slab_minutes: f64) -> Self {
        if band < self.len && slab_minutes.is_finite() && slab_minutes > 0.0 {
            self.bands[band].slab_minutes = slab_minutes;
        }
        self
    }

    /// Returns `self` with band `band`'s fine-horizon replaced
    /// (out-of-range bands and non-positive/NaN horizons are ignored;
    /// `f64::INFINITY` restores full fine decomposition).
    #[must_use]
    pub fn with_band_horizon(mut self, band: usize, fine_horizon: f64) -> Self {
        if band < self.len && !fine_horizon.is_nan() && fine_horizon > 0.0 {
            self.bands[band].fine_horizon = fine_horizon;
        }
        self
    }

    /// The configured bands, slowest first.
    pub fn bands(&self) -> &[BandSpec] {
        &self.bands[..self.len]
    }

    /// Number of bands (≥ 1).
    pub fn band_count(&self) -> usize {
        self.len
    }

    /// The band index for an o-plane with this `max_speed`: the first
    /// band whose upper edge is at or above it. The last band's edge is
    /// infinite, so every finite speed (and, defensively, NaN) lands
    /// somewhere.
    pub fn band_for(&self, max_speed: f64) -> usize {
        self.bands[..self.len]
            .iter()
            .position(|b| max_speed <= b.max_speed)
            .unwrap_or(self.len - 1)
    }
}

/// Per-band tree statistics, for the stats frame and the W8 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandStats {
    /// Band index (0 = slowest).
    pub band: usize,
    /// Objects whose union box lives in this band's tree.
    pub entries: usize,
    /// Nodes in this band's tree.
    pub nodes: usize,
    /// Height of this band's tree.
    pub height: usize,
}

/// One object's stored state: its o-plane and the union of the slab
/// boxes the plane decomposes into under its band's knobs — the box the
/// band's tree files it under. Immutable, and shared (never copied)
/// between an index and its clones. The same size for every plane: no
/// per-slab heap behind it. The band is not stored; it is
/// `config.band_for(plane.max_speed)`.
#[derive(Debug)]
struct Stored {
    plane: OPlane,
    union: Aabb3,
}

impl Stored {
    /// The band whose tree files this entry.
    fn band(&self, config: &BandConfig) -> usize {
        config.band_for(self.plane.max_speed)
    }

    /// The per-hit slab filter: `true` when one of the plane's *slab*
    /// boxes under `spec` intersects `query`. A route `network` cannot
    /// resolve, or a slab box that errors, also answers `true`: the
    /// filter must never drop what exact refinement would report, the
    /// error included.
    fn some_slab_intersects(&self, spec: &BandSpec, network: &RouteNetwork, query: &Aabb3) -> bool {
        network.get(self.plane.route).map_or(true, |route| {
            self.plane
                .any_slab_intersects(route, spec.slab_minutes, spec.fine_horizon, query)
                .unwrap_or(true)
        })
    }
}

/// A 3-D time-space index over the o-planes of a fleet of moving
/// objects, partitioned into speed bands (one R\*-tree per band).
#[derive(Debug, Clone)]
pub struct MovingObjectIndex<K> {
    /// One tree per band; `trees[i]` holds the union boxes of the
    /// objects in band `i`.
    trees: Vec<RStarTree<K>>,
    planes: HashMap<K, Arc<Stored>>,
    config: BandConfig,
    /// Upserts (and entry syncs) that moved an object between bands.
    migrations: u64,
}

impl<K: Copy + Eq + Hash> Default for MovingObjectIndex<K> {
    fn default() -> Self {
        MovingObjectIndex::new(DEFAULT_SLAB_MINUTES)
    }
}

impl<K: Copy + Eq + Hash> MovingObjectIndex<K> {
    /// Creates an empty single-band index with the given slab duration
    /// (minutes); non-positive values fall back to
    /// [`DEFAULT_SLAB_MINUTES`]. Identical to the historical
    /// un-partitioned index.
    pub fn new(slab_minutes: f64) -> Self {
        MovingObjectIndex::with_config(BandConfig::single(slab_minutes))
    }

    /// Creates an empty index partitioned per `config`.
    pub fn with_config(config: BandConfig) -> Self {
        MovingObjectIndex {
            trees: (0..config.band_count()).map(|_| RStarTree::new()).collect(),
            planes: HashMap::new(),
            config,
            migrations: 0,
        }
    }

    /// The band layout.
    pub fn config(&self) -> &BandConfig {
        &self.config
    }

    /// Number of indexed objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// `true` when no objects are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// The band `key`'s entry is filed in, if indexed.
    pub fn band_of(&self, key: &K) -> Option<usize> {
        self.planes.get(key).map(|s| s.band(&self.config))
    }

    /// Upserts (and entry syncs) that moved an object from one band's
    /// tree to another — the city↔highway regime-change counter
    /// surfaced as `modb_index_band_migrations_total`.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Files `key` under `next`: tree surgery (update in place within a
    /// band, delete+insert across bands) plus the side-table write.
    fn install(&mut self, key: K, next: Arc<Stored>) {
        let band = next.band(&self.config);
        match self.planes.entry(key) {
            Entry::Occupied(mut slot) => {
                let stored = slot.get();
                let old_band = stored.band(&self.config);
                if old_band == band {
                    let updated = self.trees[band].update(&stored.union, next.union, &key);
                    debug_assert!(updated, "index out of sync: missing old entry");
                } else {
                    // Band migration: the object's speed regime
                    // changed, so its union box moves trees.
                    self.trees[band].insert(next.union, key);
                    let removed = self.trees[old_band].remove(&stored.union, &key);
                    debug_assert!(removed, "index out of sync: missing tree entry");
                    self.migrations += 1;
                }
                slot.insert(next);
            }
            Entry::Vacant(slot) => {
                self.trees[band].insert(next.union, key);
                slot.insert(next);
            }
        }
    }

    /// Installs (or replaces) the o-plane of object `key` — the §4.2
    /// position-update maintenance step. The plane's `max_speed` selects
    /// the band; an entry whose band changed is migrated (delete from
    /// the old band's tree, insert into the new band's).
    ///
    /// # Errors
    ///
    /// Propagates o-plane decomposition errors; on error the old plane (if
    /// any) is left untouched.
    pub fn upsert(&mut self, key: K, plane: OPlane, route: &Route) -> Result<(), IndexError> {
        let spec = self.config.bands()[self.config.band_for(plane.max_speed)];
        // Touch the old entry only after every slab of the new plane
        // computed cleanly.
        let union = plane.union_box(route, spec.slab_minutes, spec.fine_horizon)?;
        self.install(key, Arc::new(Stored { plane, union }));
        Ok(())
    }

    /// Mirrors `src`'s entry for `key` into this index — the same §4.2
    /// delete+insert maintenance as [`MovingObjectIndex::upsert`], but
    /// *sharing* `src`'s plane and already-computed union box instead of
    /// walking the slabs again or copying them. **Band membership is
    /// mirrored too**: the band follows from the plane and the config,
    /// so a delta-synced shadow copy partitions identically to its source
    /// (the caller guarantees the configs match — shadows are clones).
    /// Returns `true` when `src` holds an entry for `key` (otherwise the
    /// local entry, if any, was removed).
    pub fn sync_entry_from(&mut self, src: &Self, key: &K) -> bool {
        debug_assert_eq!(
            self.config, src.config,
            "sync_entry_from across band configs"
        );
        match src.planes.get(key) {
            Some(entry) => {
                self.install(*key, Arc::clone(entry));
                true
            }
            None => {
                self.remove(key);
                false
            }
        }
    }

    /// `true` when `key`'s entry here and in `other` is one shared
    /// allocation — the probe the sharing tests assert on.
    #[doc(hidden)]
    pub fn shares_entry_with(&self, other: &Self, key: &K) -> bool {
        match (self.planes.get(key), other.planes.get(key)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Removes an object entirely (trip ended). Returns `true` when it was
    /// present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.planes.remove(key) {
            Some(stored) => {
                let band = stored.band(&self.config);
                let removed = self.trees[band].remove(&stored.union, key);
                debug_assert!(removed, "index out of sync: missing tree entry");
                true
            }
            None => false,
        }
    }

    /// Candidate object ids whose o-plane boxes intersect the query
    /// region's box — the sublinear filtering step. Deduplicated.
    /// `network` resolves each hit's route for its slab geometry.
    pub fn candidates(&self, region: &QueryRegion, network: &RouteNetwork) -> Vec<K> {
        self.candidates_with_stats(region, network).0
    }

    /// Like [`MovingObjectIndex::candidates`], with R\*-tree search
    /// statistics (summed across bands) for the sublinearity experiments.
    pub fn candidates_with_stats(
        &self,
        region: &QueryRegion,
        network: &RouteNetwork,
    ) -> (Vec<K>, SearchStats) {
        let mut hits = Vec::new();
        let stats = self.candidates_into(region, network, &mut hits);
        (hits, stats)
    }

    /// Appends the candidates for `region` to `out` and returns the
    /// search statistics (summed across the band trees). Each tree
    /// prefilters on per-object union boxes; an object only qualifies
    /// when one of its slab boxes intersects the query box, so the
    /// candidate set equals what per-slab indexing would produce
    /// (already deduplicated — one tree entry per object, each object in
    /// exactly one band). The caller owns (and typically reuses) the
    /// buffer, so a hot query loop filters without allocating a fresh
    /// vector per query; `&self` only, so any number of threads may
    /// filter one immutable index concurrently.
    pub fn candidates_into(
        &self,
        region: &QueryRegion,
        network: &RouteNetwork,
        out: &mut Vec<K>,
    ) -> SearchStats {
        let query = region.aabb();
        let mut stats = SearchStats::default();
        for (tree, spec) in self.trees.iter().zip(self.config.bands()) {
            // A tree hit (union box intersects) becomes a candidate when
            // one of its slab boxes does.
            let s = tree.for_each_with_stats(&query, |k| {
                if let Some(stored) = self.planes.get(k) {
                    if stored.some_slab_intersects(spec, network, &query) {
                        out.push(*k);
                    }
                }
            });
            stats.nodes_visited += s.nodes_visited;
            stats.entries_tested += s.entries_tested;
            stats.matches += s.matches;
        }
        stats
    }

    /// Aggregate tree statistics across bands: `(entries, nodes,
    /// max height)`.
    pub fn tree_stats(&self) -> (usize, usize, usize) {
        self.trees.iter().fold((0, 0, 0), |(e, n, h), t| {
            (e + t.len(), n + t.node_count(), h.max(t.height()))
        })
    }

    /// Per-band tree statistics, slowest band first.
    pub fn band_stats(&self) -> Vec<BandStats> {
        self.trees
            .iter()
            .enumerate()
            .map(|(band, t)| BandStats {
                band,
                entries: t.len(),
                nodes: t.node_count(),
                height: t.height(),
            })
            .collect()
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
        plane_v(start_arc, t0, 1.5)
    }

    fn plane_v(start_arc: f64, t0: f64, max_speed: f64) -> OPlane {
        OPlane::new(
            RouteId(1),
            start_arc,
            Direction::Forward,
            1.0_f64.min(max_speed),
            max_speed,
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
        // Same band both times: no migration counted.
        assert_eq!(idx.migrations(), 0);
    }

    #[test]
    fn remove_object() {
        let r = route();
        let n = network();
        let mut idx = MovingObjectIndex::new(5.0);
        idx.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        idx.upsert(2u64, plane(50.0, 0.0), &r).unwrap();
        assert!(idx.remove(&1));
        assert!(!idx.remove(&1));
        assert_eq!(idx.len(), 1);
        assert!(idx.candidates(&region(0.0, 10.0, 2.0), &n).is_empty());
        let (entries, _, _) = idx.tree_stats();
        assert_eq!(entries, 1); // object 2's entry remains
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
        let (alloc, alloc_stats) = idx.candidates_with_stats(&q, &n);
        let mut buf = Vec::new();
        for _ in 0..3 {
            buf.clear();
            let stats = idx.candidates_into(&q, &n, &mut buf);
            assert_eq!(buf, alloc);
            assert_eq!(stats, alloc_stats);
        }
        // Appends after existing content, deduplicating only the tail.
        buf.clear();
        buf.push(999);
        idx.candidates_into(&q, &n, &mut buf);
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
    fn sync_entry_mirrors_source() {
        let r = route();
        let n = network();
        let mut src = MovingObjectIndex::new(5.0);
        src.upsert(1u64, plane(0.0, 0.0), &r).unwrap();
        src.upsert(2u64, plane(50.0, 0.0), &r).unwrap();
        let mut shadow = src.clone();
        // Source moves object 1 and drops object 2; the shadow mirrors
        // entry-by-entry without re-decomposing.
        src.upsert(1u64, plane(80.0, 10.0), &r).unwrap();
        src.remove(&2);
        assert!(shadow.sync_entry_from(&src, &1));
        assert!(!shadow.sync_entry_from(&src, &2));
        assert_eq!(shadow.len(), src.len());
        assert_eq!(shadow.tree_stats().0, src.tree_stats().0);
        for q in [
            region(78.0, 85.0, 11.0),
            region(0.0, 10.0, 2.0),
            region(45.0, 60.0, 2.0),
        ] {
            assert_eq!(shadow.candidates(&q, &n), src.candidates(&q, &n));
        }
        // Syncing an id neither side holds is a no-op.
        assert!(!shadow.sync_entry_from(&src, &99));
        assert_eq!(shadow.len(), 1);
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

    // --- band-specific behavior -------------------------------------

    #[test]
    fn band_config_layout_and_selection() {
        let c = BandConfig::single(5.0);
        assert_eq!(c.band_count(), 1);
        assert_eq!(c.band_for(0.0), 0);
        assert_eq!(c.band_for(1e9), 0);

        let c = BandConfig::uniform(&[0.5, 1.5], 5.0).unwrap();
        assert_eq!(c.band_count(), 3);
        assert_eq!(c.band_for(0.3), 0);
        assert_eq!(c.band_for(0.5), 0); // edge inclusive
        assert_eq!(c.band_for(1.0), 1);
        assert_eq!(c.band_for(7.0), 2);
        assert_eq!(c.band_for(f64::NAN), 2); // defensively: last band
        assert!(c.bands()[2].max_speed.is_infinite());

        // Bad edges rejected.
        assert!(BandConfig::uniform(&[1.0, 0.5], 5.0).is_err());
        assert!(BandConfig::uniform(&[0.0], 5.0).is_err());
        assert!(BandConfig::uniform(&[f64::NAN], 5.0).is_err());
        assert!(BandConfig::uniform(&[1., 2., 3., 4., 5., 6., 7., 8.], 5.0).is_err());

        // Scaled slabs shrink for faster bands; floored at base/16.
        let c = BandConfig::speed_scaled(&[0.5, 2.0], 4.0).unwrap();
        assert_eq!(c.bands()[0].slab_minutes, 4.0);
        assert_eq!(c.bands()[1].slab_minutes, 1.0); // 4 · 0.5/2.0
        assert_eq!(c.bands()[2].slab_minutes, 0.5); // 4 · 0.5/(2·2.0)
        let c = BandConfig::speed_scaled(&[0.1, 100.0], 4.0).unwrap();
        assert_eq!(c.bands()[2].slab_minutes, 0.25); // floored

        // Builder overrides.
        let c = BandConfig::uniform(&[1.0], 5.0)
            .unwrap()
            .with_band_slab(1, 2.5)
            .with_band_horizon(1, 30.0);
        assert_eq!(c.bands()[1].slab_minutes, 2.5);
        assert_eq!(c.bands()[1].fine_horizon, 30.0);
        // Out-of-range / bad values ignored.
        let same = c.with_band_slab(9, 1.0).with_band_horizon(0, f64::NAN);
        assert_eq!(same, c);
    }

    #[test]
    fn objects_partition_by_max_speed() {
        let r = route();
        let n = network();
        let config = BandConfig::uniform(&[1.0], 5.0).unwrap();
        let mut idx = MovingObjectIndex::with_config(config);
        idx.upsert(1u64, plane_v(0.0, 0.0, 0.6), &r).unwrap(); // slow band
        idx.upsert(2u64, plane_v(50.0, 0.0, 2.5), &r).unwrap(); // fast band
        assert_eq!(idx.band_of(&1), Some(0));
        assert_eq!(idx.band_of(&2), Some(1));
        let stats = idx.band_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].entries, 1);
        assert_eq!(stats[1].entries, 1);
        assert_eq!(idx.tree_stats().0, 2);
        // Queries probe both bands and merge.
        let mut c = idx.candidates(&region(0.0, 100.0, 1.0), &n);
        c.sort_unstable();
        assert_eq!(c, vec![1, 2]);
    }

    #[test]
    fn upsert_across_bands_migrates() {
        let r = route();
        let n = network();
        let config = BandConfig::uniform(&[1.0], 5.0).unwrap();
        let mut idx = MovingObjectIndex::with_config(config);
        idx.upsert(1u64, plane_v(10.0, 0.0, 0.6), &r).unwrap();
        assert_eq!(idx.band_of(&1), Some(0));
        assert_eq!(idx.migrations(), 0);
        // The DBMS learns a highway-grade top speed: the entry migrates.
        idx.upsert(1u64, plane_v(12.0, 5.0, 2.0), &r).unwrap();
        assert_eq!(idx.band_of(&1), Some(1));
        assert_eq!(idx.migrations(), 1);
        let stats = idx.band_stats();
        assert_eq!((stats[0].entries, stats[1].entries), (0, 1));
        // Still exactly one entry overall, findable where it now is.
        assert_eq!(idx.tree_stats().0, 1);
        assert_eq!(idx.candidates(&region(10.0, 25.0, 6.0), &n), vec![1]);
        // And back: stop-and-go again.
        idx.upsert(1u64, plane_v(14.0, 10.0, 0.5), &r).unwrap();
        assert_eq!(idx.band_of(&1), Some(0));
        assert_eq!(idx.migrations(), 2);
    }

    #[test]
    fn sync_mirrors_band_membership_and_migrations() {
        let r = route();
        let n = network();
        let config = BandConfig::uniform(&[1.0], 5.0).unwrap();
        let mut src = MovingObjectIndex::with_config(config);
        src.upsert(1u64, plane_v(0.0, 0.0, 0.6), &r).unwrap();
        src.upsert(2u64, plane_v(50.0, 0.0, 2.5), &r).unwrap();
        let mut shadow = src.clone();
        // Source migrates object 1 to the fast band.
        src.upsert(1u64, plane_v(5.0, 5.0, 3.0), &r).unwrap();
        assert!(shadow.sync_entry_from(&src, &1));
        assert_eq!(shadow.band_of(&1), src.band_of(&1));
        assert_eq!(shadow.band_of(&1), Some(1));
        // The shadow observed the band move as a migration of its own.
        assert_eq!(shadow.migrations(), 1);
        for (a, b) in shadow.band_stats().iter().zip(src.band_stats()) {
            assert_eq!(a.entries, b.entries);
        }
        for q in [region(0.0, 30.0, 6.0), region(40.0, 70.0, 2.0)] {
            let mut cs = shadow.candidates(&q, &n);
            let mut ct = src.candidates(&q, &n);
            cs.sort_unstable();
            ct.sort_unstable();
            assert_eq!(cs, ct);
        }
    }

    #[test]
    fn single_band_is_bit_identical_to_legacy_layout() {
        let r = route();
        let n = network();
        let mut banded = MovingObjectIndex::with_config(BandConfig::single(5.0));
        let mut legacy = MovingObjectIndex::new(5.0);
        for (k, arc) in [(1u64, 0.0), (2, 30.0), (3, 60.0), (4, 90.0)] {
            banded.upsert(k, plane(arc, 0.0), &r).unwrap();
            legacy.upsert(k, plane(arc, 0.0), &r).unwrap();
        }
        assert_eq!(banded.tree_stats(), legacy.tree_stats());
        for q in [
            region(0.0, 10.0, 2.0),
            region(25.0, 65.0, 4.0),
            region(0.0, 100.0, 9.0),
        ] {
            let (ca, sa) = banded.candidates_with_stats(&q, &n);
            let (cb, sb) = legacy.candidates_with_stats(&q, &n);
            assert_eq!(ca, cb);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn per_band_horizon_bounds_fast_band_boxes() {
        let r = route();
        let n = network();
        let config = BandConfig::uniform(&[1.0], 5.0)
            .unwrap()
            .with_band_horizon(1, 20.0);
        let mut idx = MovingObjectIndex::with_config(config);
        idx.upsert(1u64, plane_v(0.0, 0.0, 2.5), &r).unwrap();
        // 4 fine slabs + 1 coarse tail instead of 12 fine slabs —
        // but the far future is still covered (soundness).
        assert_eq!(idx.candidates(&region(30.0, 60.0, 50.0), &n), vec![1]);
    }

    /// What an object costs does not depend on how far ahead its trip is
    /// declared: the entry is the plane and one box, nothing per slab.
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
        // Both are a `Stored`, and a `Stored` is a plane and a box: no
        // pointer in it means no heap behind it to grow with the trip.
        assert_eq!(
            std::mem::size_of::<Stored>(),
            std::mem::size_of::<OPlane>() + std::mem::size_of::<Aabb3>()
        );
        assert!(std::mem::size_of::<Stored>() <= 128);
        // Both answer from the plane alone, at either end of the trip.
        assert_eq!(idx.candidates(&region(0.0, 5.0, 3.0), &n), vec![1, 2]);
        assert_eq!(idx.candidates(&region(50.0, 70.0, 599.0), &n), vec![2]);
    }

    /// The one failure mode computing slab boxes at query time adds: the
    /// filter cannot see the route. The hit stays a candidate — dropping
    /// it would hide the object *and* the route error exact refinement
    /// reports. (With the route resolved a slab box cannot fail: the
    /// band's knobs were validated with the config and the arcs are
    /// clamped to the route; `any_slab_intersects` refusing a wrong route
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
        // Outside the union box nothing is a tree hit, so nothing is kept
        // that the parent would not have tested.
        assert!(idx
            .candidates(&region(0.0, 5.0, 500.0), &RouteNetwork::new())
            .is_empty());
    }
}
