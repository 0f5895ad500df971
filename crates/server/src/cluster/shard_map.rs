//! Shard-key strategies: who owns which moving object.
//!
//! A cluster partitions the fleet across N `modb-server` processes. The
//! *shard key* decides the home shard of each object — and thereby the
//! network, disk, and skew profile of the whole deployment (experiment
//! W6 scores both). Two strategies, per the mongodb-d4
//! tradition of evaluating candidate designs rather than decreeing one:
//!
//! - **Hash of object id**: placement is uniform and queryable from the
//!   id alone (point lookups touch one shard), but has no spatial
//!   locality — every range query fans out to all N shards.
//! - **Spatial regions**: each shard owns a rectangle; an object lands
//!   on the shard containing its position at assignment time. Range
//!   queries touching few rectangles can be answered by few shards, but
//!   objects *move* — placement is only a locality hint, and a fleet
//!   that drifts across region borders skews load toward the shards it
//!   drifts into.

use modb_core::ObjectId;
use modb_geom::{Point, Rect};

/// How objects map to shards. See the module docs for the tradeoff.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardKey {
    /// Mixed hash of the object id, modulo the shard count.
    HashById,
    /// One axis-aligned rectangle per shard; assignment by containment
    /// of the object's position at registration (first containing
    /// region wins; outside every region, the nearest region center).
    Spatial(Vec<Rect>),
}

/// A concrete assignment of objects to `shards()` shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMap {
    key: ShardKey,
    shards: usize,
}

/// Fibonacci-style mixer so consecutive vehicle ids don't all land on
/// consecutive shards (plain `id % n` would put a contiguously numbered
/// depot fleet on one shard for small fleets and stride patterns).
fn mix(id: u64) -> u64 {
    let x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

impl ShardMap {
    /// A hash-of-id map over `shards` shards (clamped to ≥ 1).
    pub fn hash(shards: usize) -> Self {
        ShardMap {
            key: ShardKey::HashById,
            shards: shards.max(1),
        }
    }

    /// A spatial map: one region per shard, in shard order.
    ///
    /// # Panics
    ///
    /// Panics on an empty region list.
    pub fn spatial(regions: Vec<Rect>) -> Self {
        assert!(!regions.is_empty(), "spatial shard map needs ≥ 1 region");
        let shards = regions.len();
        ShardMap {
            key: ShardKey::Spatial(regions),
            shards,
        }
    }

    /// Number of shards this map spreads the fleet over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The key strategy.
    pub fn key(&self) -> &ShardKey {
        &self.key
    }

    /// The home shard for `id` starting at `start` — where the object
    /// is registered and where its updates are routed.
    pub fn assign(&self, id: ObjectId, start: Point) -> usize {
        match &self.key {
            ShardKey::HashById => (mix(id.0) % self.shards as u64) as usize,
            ShardKey::Spatial(regions) => {
                if let Some(i) = regions.iter().position(|r| r.contains_point(start)) {
                    return i;
                }
                // Outside every region: nearest region center, so the
                // map is total even for objects off the planned grid.
                regions
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.center()
                            .distance(start)
                            .partial_cmp(&b.center().distance(start))
                            .expect("finite region centers")
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        }
    }

    /// The shard an id-only lookup can be routed to without knowing the
    /// object's position: `Some` for hash maps (placement is a pure
    /// function of the id), `None` for spatial maps (placement depended
    /// on where the object was — a router needs a directory).
    pub fn owner_by_id(&self, id: ObjectId) -> Option<usize> {
        match &self.key {
            ShardKey::HashById => Some((mix(id.0) % self.shards as u64) as usize),
            ShardKey::Spatial(_) => None,
        }
    }

    /// Shards whose region intersects `rect`, for W6's fan-out estimate
    /// of a spatial range query (hash maps return all shards — ids carry
    /// no spatial information). Placement is a
    /// locality *hint*, not an invariant (objects move after
    /// assignment), so a correctness-preserving router still broadcasts;
    /// this prices the fan-out a drift-aware pruning router could reach.
    pub fn shards_for_rect(&self, rect: &Rect) -> Vec<usize> {
        match &self.key {
            ShardKey::HashById => (0..self.shards).collect(),
            ShardKey::Spatial(regions) => {
                let hit: Vec<usize> = regions
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.intersects(rect))
                    .map(|(i, _)| i)
                    .collect();
                if hit.is_empty() {
                    // A query off the grid still costs one shard's work.
                    vec![0]
                } else {
                    hit
                }
            }
        }
    }

    /// Splits `frame` into `n` equal vertical strips (left to right) —
    /// the standard spatial map for a corridor-shaped road network.
    pub fn vertical_strips(frame: Rect, n: usize) -> Self {
        let n = n.max(1);
        let w = frame.width() / n as f64;
        let regions = (0..n)
            .map(|i| {
                Rect::new(
                    Point::new(frame.min.x + i as f64 * w, frame.min.y),
                    Point::new(frame.min.x + (i + 1) as f64 * w, frame.max.y),
                )
            })
            .collect();
        ShardMap::spatial(regions)
    }

    /// Splits `frame` into `n` equal horizontal strips (bottom to top).
    pub fn horizontal_strips(frame: Rect, n: usize) -> Self {
        let n = n.max(1);
        let h = frame.height() / n as f64;
        let regions = (0..n)
            .map(|i| {
                Rect::new(
                    Point::new(frame.min.x, frame.min.y + i as f64 * h),
                    Point::new(frame.max.x, frame.min.y + (i + 1) as f64 * h),
                )
            })
            .collect();
        ShardMap::spatial(regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_map_covers_all_shards_and_is_stable() {
        let map = ShardMap::hash(4);
        assert_eq!(map.shards(), 4);
        let mut seen = [false; 4];
        for id in 0..64u64 {
            let s = map.assign(ObjectId(id), Point::new(0.0, 0.0));
            assert_eq!(Some(s), map.owner_by_id(ObjectId(id)));
            assert!(s < 4);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&b| b), "64 ids should hit all 4 shards");
        // Position is irrelevant to a hash map.
        assert_eq!(
            map.assign(ObjectId(9), Point::new(0.0, 0.0)),
            map.assign(ObjectId(9), Point::new(500.0, 500.0)),
        );
    }

    #[test]
    fn spatial_map_assigns_by_containment_with_nearest_fallback() {
        let map =
            ShardMap::vertical_strips(Rect::new(Point::new(0.0, 0.0), Point::new(30.0, 10.0)), 3);
        assert_eq!(map.shards(), 3);
        assert_eq!(map.assign(ObjectId(1), Point::new(5.0, 5.0)), 0);
        assert_eq!(map.assign(ObjectId(1), Point::new(15.0, 5.0)), 1);
        assert_eq!(map.assign(ObjectId(1), Point::new(25.0, 5.0)), 2);
        // Off the grid entirely: nearest region center.
        assert_eq!(map.assign(ObjectId(1), Point::new(-100.0, 5.0)), 0);
        assert_eq!(map.assign(ObjectId(1), Point::new(999.0, 5.0)), 2);
        // Id-only routing is impossible.
        assert_eq!(map.owner_by_id(ObjectId(1)), None);
    }

    #[test]
    fn rect_fanout_prunes_spatial_but_not_hash() {
        let frame = Rect::new(Point::new(0.0, 0.0), Point::new(30.0, 10.0));
        let spatial = ShardMap::vertical_strips(frame, 3);
        let hash = ShardMap::hash(3);
        let q = Rect::new(Point::new(1.0, 1.0), Point::new(9.0, 9.0));
        assert_eq!(spatial.shards_for_rect(&q), vec![0]);
        assert_eq!(hash.shards_for_rect(&q), vec![0, 1, 2]);
        let wide = Rect::new(Point::new(5.0, 1.0), Point::new(25.0, 9.0));
        assert_eq!(spatial.shards_for_rect(&wide), vec![0, 1, 2]);
        // Off-grid queries still cost one shard.
        let off = Rect::new(Point::new(100.0, 100.0), Point::new(101.0, 101.0));
        assert_eq!(spatial.shards_for_rect(&off), vec![0]);
    }
}
