//! The moving-objects database: update ingestion and query processing.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use modb_geom::Point;
use modb_index::{
    Entry, MovingObjectIndex, OPlane, QueryRegion, SearchStats, DEFAULT_SLAB_MINUTES,
};
use modb_routes::{Route, RouteNetwork};

use crate::attr::{PolicyDescriptor, PositionAttribute};
use crate::error::CoreError;
use crate::object::{ObjectId, StationaryObject};
use crate::query::{Containment, PositionAnswer, RangeAnswer};
use crate::update::{UpdateMessage, UpdatePosition};

/// Tuning knobs for the DBMS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatabaseConfig {
    /// Maximum distance (miles) a reported coordinate may lie from its
    /// route before the update is rejected as off-route.
    pub map_match_tolerance: f64,
    /// Horizon (minutes) an o-plane extends past its update when the
    /// object has no known trip end — the `T` of §4.2's index time span.
    pub default_horizon: f64,
    /// Slab duration (minutes) of the index's o-plane decomposition
    /// (§4.2). The name is what is left of the speed-band layout this
    /// field used to hold; it stays because `modb_ledger/` reads it and
    /// may not be edited.
    pub bands: f64,
    /// Sampling step (minutes) for exact refinement of time-interval
    /// queries.
    pub refinement_dt: f64,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            map_match_tolerance: 0.25,
            default_horizon: 60.0,
            bands: DEFAULT_SLAB_MINUTES,
            refinement_dt: 1.0,
        }
    }
}

/// A mobile point object (§2) as stored by the DBMS.
#[derive(Debug, Clone, PartialEq)]
pub struct MovingObject {
    /// Identifier.
    pub id: ObjectId,
    /// Human-readable name (e.g. a cab number).
    pub name: String,
    /// The position attribute — the seven sub-attributes.
    pub attr: PositionAttribute,
    /// Maximum trip speed `V` known to the DBMS (§3.3).
    pub max_speed: f64,
    /// Known trip-end time `Z`, if any (§4.2 cutoff).
    pub trip_end: Option<f64>,
}

/// The DBMS of the paper: a route database, stationary landmarks, moving
/// objects with position attributes, and the 3-D time-space index.
///
/// **One record per vehicle.** The object table *is* the time-space
/// index: one [`MovingObjectIndex`] entry per object holds the object
/// and the box it is filed under in one allocation, which the id map and
/// the tree's leaf share. The o-plane is not stored: it is a function of
/// the object's position attribute, derived when the object is filed
/// and again, by the same function, for each tree hit. A range query
/// refines the object its tree hit carries; only a lookup by id hashes.
///
/// **A copy is a handful of roots.** Cloning is O(1) whatever the fleet:
/// the network, the table (a path-copying tree and map), the stationary
/// table and the unindexed set are each one `Arc` clone, and the clone
/// shares every entry, tree node and bucket with the original. A write
/// copies the one path it changes, and only what a clone still holds; a
/// database nobody has cloned mutates in place. That is what lets a
/// served node give each statement, and each snapshot, a clone taken
/// under a read lock held for nanoseconds, and keep one resident copy of
/// the fleet.
#[derive(Debug, Clone)]
pub struct Database {
    /// The road map, shared: routes are append-only and individually
    /// immutable, so clones of the database alias one network and
    /// [`Database::insert_route`] copies-on-write only when aliased.
    network: Arc<RouteNetwork>,
    /// Moving objects, one immutable entry each: the object with its
    /// current position attribute and — for a cost-based policy — the
    /// union box of its o-plane, filed in the tree. A write replaces the
    /// entry whole, so a clone pinned by a reader never sees it.
    moving: MovingObjectIndex<ObjectId, MovingObject>,
    /// Landmarks: few and rarely written, so the table is shared whole
    /// and copied on the first insert after a clone.
    stationary: Arc<HashMap<ObjectId, StationaryObject>>,
    /// Ids of moving objects whose policies cannot be o-plane-indexed;
    /// they are appended to every candidate set (exact refinement still
    /// applies). Shared whole, like `stationary`.
    unindexed: Arc<BTreeSet<ObjectId>>,
    config: DatabaseConfig,
}

impl Database {
    /// Creates a database over a route network (owned or already
    /// shared — clones of an `Arc`'d network are free).
    pub fn new(network: impl Into<Arc<RouteNetwork>>, config: DatabaseConfig) -> Self {
        Database {
            network: network.into(),
            moving: MovingObjectIndex::new(config.bands),
            stationary: Arc::default(),
            unindexed: Arc::default(),
            config,
        }
    }

    /// The route database.
    pub fn network(&self) -> &RouteNetwork {
        &self.network
    }

    /// The route database's shared handle — cloning it is free, and the
    /// routes behind it never change in place (network growth is
    /// append-only and copies-on-write).
    pub fn network_arc(&self) -> Arc<RouteNetwork> {
        Arc::clone(&self.network)
    }

    /// Adds a route to the route database after construction (network
    /// growth is append-only: existing routes never change, so index
    /// entries stay valid). When the network is aliased by clones the
    /// insert copies it first — readers of old handles keep the old map.
    ///
    /// # Errors
    ///
    /// [`CoreError::Route`] when the id is already taken.
    pub fn insert_route(&mut self, route: Route) -> Result<(), CoreError> {
        Arc::make_mut(&mut self.network).insert(route)?;
        Ok(())
    }

    /// The configuration.
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// Number of moving objects.
    pub fn moving_count(&self) -> usize {
        self.moving.len()
    }

    /// Number of stationary objects.
    pub fn stationary_count(&self) -> usize {
        self.stationary.len()
    }

    /// `(entries, nodes, height)` of the index's tree.
    pub fn index_tree_stats(&self) -> (usize, usize, usize) {
        self.moving.tree_stats()
    }

    /// Iterator over moving-object ids.
    pub fn moving_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.moving.keys().copied()
    }

    /// Iterator over all moving objects (arbitrary order).
    pub fn moving_objects(&self) -> impl Iterator<Item = &MovingObject> {
        self.moving.values()
    }

    /// Iterator over all stationary objects (arbitrary order).
    pub fn stationary_objects(&self) -> impl Iterator<Item = &StationaryObject> {
        self.stationary.values()
    }

    /// Looks up a moving object.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownObject`] when absent.
    pub fn moving(&self, id: ObjectId) -> Result<&MovingObject, CoreError> {
        self.moving.get(&id).ok_or(CoreError::UnknownObject(id))
    }

    /// Looks up a stationary object.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownObject`] when absent.
    pub fn stationary(&self, id: ObjectId) -> Result<&StationaryObject, CoreError> {
        self.stationary.get(&id).ok_or(CoreError::UnknownObject(id))
    }

    /// Finds a moving object by its human-readable name. Names need not
    /// be unique: of several objects sharing one, the one with the
    /// smallest id answers, so every copy of the same state — a follower,
    /// a restored snapshot, whatever order its table iterates in —
    /// resolves a name to the same object. A linear scan: names are a UI
    /// convenience, not a hot path, and a name index would cost memory
    /// per vehicle.
    pub fn find_moving_by_name(&self, name: &str) -> Option<&MovingObject> {
        self.moving_objects()
            .filter(|o| o.name == name)
            .min_by_key(|o| o.id)
    }

    /// Registers a stationary landmark.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateObject`] when the id is taken.
    pub fn insert_stationary(&mut self, obj: StationaryObject) -> Result<(), CoreError> {
        if self.stationary.contains_key(&obj.id) || self.moving.contains_key(&obj.id) {
            return Err(CoreError::DuplicateObject(obj.id));
        }
        Arc::make_mut(&mut self.stationary).insert(obj.id, obj);
        Ok(())
    }

    /// Registers a moving object — "at the beginning of the trip the
    /// moving object writes all the sub-attributes of the position
    /// attribute" (§3.1).
    ///
    /// # Errors
    ///
    /// Duplicate ids, unknown routes, and invalid numeric fields are
    /// rejected; index failures propagate. On error nothing is stored.
    pub fn register_moving(&mut self, obj: MovingObject) -> Result<(), CoreError> {
        if self.moving.contains_key(&obj.id) || self.stationary.contains_key(&obj.id) {
            return Err(CoreError::DuplicateObject(obj.id));
        }
        let route = self.network.get(obj.attr.route)?;
        if !obj.attr.speed.is_finite() || obj.attr.speed < 0.0 {
            return Err(CoreError::InvalidField("speed", obj.attr.speed));
        }
        if !obj.max_speed.is_finite() || obj.max_speed <= 0.0 {
            return Err(CoreError::InvalidField("max_speed", obj.max_speed));
        }
        obj.attr.policy.validate()?;
        if !obj.attr.start_arc.is_finite()
            || obj.attr.start_arc < 0.0
            || obj.attr.start_arc > route.length()
        {
            return Err(CoreError::InvalidField("start_arc", obj.attr.start_arc));
        }
        self.store(obj)
    }

    /// Removes a moving object (trip over).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownObject`] when absent.
    pub fn remove_moving(&mut self, id: ObjectId) -> Result<MovingObject, CoreError> {
        let entry = self
            .moving
            .remove(&id)
            .ok_or(CoreError::UnknownObject(id))?;
        self.set_unindexed(id, false);
        // Copies still holding the entry keep it; take it when unshared.
        Ok(Arc::try_unwrap(entry).map_or_else(|shared| shared.value().clone(), Entry::into_value))
    }

    /// Adds `id` to, or drops it from, the unindexed set — touching the
    /// shared set only when its membership actually changes, so the
    /// common update (a cost-based object staying indexed) copies nothing.
    fn set_unindexed(&mut self, id: ObjectId, unindexed: bool) {
        if self.unindexed.contains(&id) != unindexed {
            let set = Arc::make_mut(&mut self.unindexed);
            if unindexed {
                set.insert(id);
            } else {
                set.remove(&id);
            }
        }
    }

    /// `(shared, total)`: of the allocations this copy's per-fleet
    /// structures are made of — tree nodes, the id map's directory,
    /// chunks and buckets, the stationary table, the unindexed set — how
    /// many `other` holds too. A fresh clone shares all of them; each
    /// write un-shares the one path it copies. The probe the sharing
    /// tests (and F6's write-side leg) count with.
    #[doc(hidden)]
    pub fn shared_with(&self, other: &Database) -> (usize, usize) {
        let (shared, total) = self.moving.shared_with(&other.moving);
        let whole = usize::from(Arc::ptr_eq(&self.stationary, &other.stationary))
            + usize::from(Arc::ptr_eq(&self.unindexed, &other.unindexed));
        (shared + whole, total + 2)
    }

    /// Applies a position-update message (§3.1), refreshing the position
    /// attribute and the time-space index (§4.2).
    ///
    /// # Errors
    ///
    /// Unknown objects/routes, off-route coordinates, stale timestamps,
    /// and invalid fields are rejected; on error the stored state is
    /// unchanged.
    pub fn apply_update(&mut self, id: ObjectId, msg: &UpdateMessage) -> Result<(), CoreError> {
        let obj = self.moving(id)?;
        if !msg.time.is_finite() {
            return Err(CoreError::InvalidField("time", msg.time));
        }
        if msg.time < obj.attr.start_time {
            return Err(CoreError::StaleUpdate {
                stored: obj.attr.start_time,
                received: msg.time,
            });
        }
        if !msg.speed.is_finite() || msg.speed < 0.0 {
            return Err(CoreError::InvalidField("speed", msg.speed));
        }
        if let Some(policy) = &msg.policy {
            policy.validate()?;
        }
        let route_id = msg.route.unwrap_or(obj.attr.route);
        let route = self.network.get(route_id)?;
        let (arc, point) = self.resolve_position(route, msg.position)?;

        let mut next = obj.attr.clone();
        next.start_time = msg.time;
        next.route = route_id;
        next.start_arc = arc;
        next.start_position = point;
        next.speed = msg.speed;
        if let Some(dir) = msg.direction {
            next.direction = dir;
        }
        if let Some(policy) = msg.policy {
            next.policy = policy;
        }
        if next == obj.attr {
            // Exact re-delivery of the attribute already in force (e.g.
            // WAL replay over a snapshot that reflects it): accept
            // without a write or a re-index, so replay is idempotent.
            return Ok(());
        }
        // The new attribute replaces the old one — at a later instant or
        // the same one (last writer wins): the DBMS keeps one attribute
        // per object (§2), and the past is not served. One new entry
        // replaces the old; a clone (a pinned epoch, a snapshot being
        // written) keeps the one it has.
        let updated = MovingObject {
            id,
            name: obj.name.clone(),
            attr: next,
            max_speed: obj.max_speed,
            trip_end: obj.trip_end,
        };
        self.store(updated)
    }

    fn resolve_position(
        &self,
        route: &Route,
        pos: UpdatePosition,
    ) -> Result<(f64, Point), CoreError> {
        match pos {
            UpdatePosition::Arc(a) => {
                if !a.is_finite() || a < 0.0 || a > route.length() {
                    return Err(CoreError::InvalidField("arc", a));
                }
                Ok((a, route.point_at(a)))
            }
            UpdatePosition::Coordinates(p) => {
                if !p.is_finite() {
                    return Err(CoreError::InvalidField("position.x/y", p.x));
                }
                let (arc, dist) = route.locate(p);
                if dist > self.config.map_match_tolerance {
                    return Err(CoreError::OffRoute {
                        distance: dist,
                        tolerance: self.config.map_match_tolerance,
                    });
                }
                Ok((arc, route.point_at(arc)))
            }
        }
    }

    /// The o-plane `obj`'s position attribute defines (§4.1.1), cut off at
    /// its trip end `Z` or else `default_horizon` past its update (§4.2);
    /// `None` when its policy is not cost-based. The one derivation of a
    /// plane: [`Database::store`] files an object under the plane this
    /// returns, and the range filter tests each tree hit against the plane
    /// this returns for it, so the two are the same plane, bit for bit —
    /// it reads only the object and the configuration, and neither changes
    /// while the entry is filed.
    fn plane_of(&self, obj: &MovingObject) -> Result<Option<OPlane>, CoreError> {
        let PolicyDescriptor::CostBased { kind, update_cost } = obj.attr.policy else {
            return Ok(None);
        };
        let end_time = obj
            .trip_end
            .unwrap_or(obj.attr.start_time + self.config.default_horizon)
            .max(obj.attr.start_time + 1e-6);
        let plane = OPlane::new(
            obj.attr.route,
            obj.attr.start_arc,
            obj.attr.direction,
            obj.attr.speed,
            obj.max_speed,
            update_cost,
            kind,
            obj.attr.start_time,
            end_time,
        )?;
        Ok(Some(plane))
    }

    /// Stores `obj` as its id's one entry, filed in the tree under the
    /// o-plane its attribute defines (§4.2) when its policy is
    /// cost-based, in the unindexed set otherwise. The plane's union box
    /// is computed before anything is written, so an error changes
    /// nothing; the plane itself is not kept.
    fn store(&mut self, obj: MovingObject) -> Result<(), CoreError> {
        let id = obj.id;
        let plane = self.plane_of(&obj)?;
        let route = match &plane {
            Some(plane) => Some(self.network.get(plane.route)?),
            None => None,
        };
        self.moving.insert(id, obj, plane.as_ref().zip(route))?;
        self.set_unindexed(id, plane.is_none());
        Ok(())
    }

    /// Answers "what is the current position of m?" at time `t`, with the
    /// §3.3 error bound and the §4.1.1 uncertainty interval.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownObject`] and route/geometry failures.
    pub fn position_of(&self, id: ObjectId, t: f64) -> Result<PositionAnswer, CoreError> {
        let obj = self.moving(id)?;
        let (route, arc, bound) = self.locate(obj, t)?;
        let interval = obj.attr.uncertainty_arcs(route.length(), obj.max_speed, t);
        let interval_path = route.polyline().interval_points(interval.0, interval.1)?;
        Ok(PositionAnswer {
            position: route.point_at(arc),
            arc,
            bound,
            interval,
            interval_path,
        })
    }

    /// The database position of an object already in hand: its route, the
    /// arc the attribute extrapolates to at `t`, and the §3.3 deviation
    /// bound. All a fleet scan (k-nearest, route distance) needs per
    /// object — no lookup, no interval geometry.
    pub(crate) fn locate(
        &self,
        obj: &MovingObject,
        t: f64,
    ) -> Result<(&Route, f64, f64), CoreError> {
        let route = self.network.get(obj.attr.route)?;
        let arc = obj.attr.database_arc(route.length(), t);
        let elapsed = (t - obj.attr.start_time).max(0.0);
        let bound = obj
            .attr
            .policy
            .deviation_bound(obj.attr.speed, obj.max_speed, elapsed);
        Ok((route, arc, bound))
    }

    /// Classifies one object against a query region using exact
    /// uncertainty-interval geometry (Theorems 5–6). `None` means the
    /// object is certainly outside G over the region's time span.
    ///
    /// Range queries are defined for the present and future ("t₀ may be
    /// the current time, or some time in the future", §4.2): times before
    /// the object's `P.starttime` are skipped — the DBMS had no position
    /// knowledge for the object then, and the past is not served.
    fn classify(
        &self,
        obj: &MovingObject,
        region: &QueryRegion,
    ) -> Result<Option<Containment>, CoreError> {
        let route = self.network.get(obj.attr.route)?;
        let mut best: Option<Containment> = None;
        for t in region.refinement_times(self.config.refinement_dt) {
            if t < obj.attr.start_time {
                continue;
            }
            let (lo, hi) = obj.attr.uncertainty_arcs(route.length(), obj.max_speed, t);
            let path = route.polyline().interval_points(lo, hi)?;
            if region.polygon().contains_path(&path) {
                return Ok(Some(Containment::Must));
            }
            if region.polygon().intersects_path(&path) {
                best = Some(Containment::May);
            }
        }
        Ok(best)
    }

    /// Range query via the time-space index (§4.2): filter candidates with
    /// the R\*-tree, then refine exactly — each tree hit refines the
    /// object its entry carries, so no id is looked up. Objects with
    /// non-cost-based policies are refined too (they are not
    /// o-plane-indexable and join the candidate set directly, found by
    /// id).
    ///
    /// A tree hit's slab test reads the plane derived again from the hit's
    /// object by the function that filed it — the plane it was filed
    /// under. One that cannot be derived (which filing would have
    /// refused) reads as no plane, and the hit stays a candidate.
    ///
    /// # Errors
    ///
    /// Route/geometry failures during refinement.
    pub fn range_query(&self, region: &QueryRegion) -> Result<RangeAnswer, CoreError> {
        let mut answer = RangeAnswer::default();
        let mut refined = Ok(());
        let stats = self.moving.for_each_candidate(
            region,
            &self.network,
            |obj| self.plane_of(obj).ok().flatten(),
            |entry| {
                if refined.is_ok() {
                    refined = self.tally(&mut answer, entry.value(), region);
                }
            },
        );
        refined?;
        answer.stats = stats;
        for &id in self.unindexed.iter() {
            self.tally(&mut answer, self.moving(id)?, region)?;
        }
        answer.normalize();
        Ok(answer)
    }

    /// The filter step alone: candidate ids the index proposes for
    /// `region` (plus the unindexed tail), with search statistics. Callers
    /// that time or run the refine step separately (`modb_ledger`'s
    /// per-layer peel) start here and feed slices to
    /// [`Database::refine_slice`].
    pub fn range_candidates(&self, region: &QueryRegion) -> (Vec<ObjectId>, SearchStats) {
        let mut candidates = Vec::new();
        let stats = self.moving.candidates_into(
            region,
            &self.network,
            |obj| self.plane_of(obj).ok().flatten(),
            &mut candidates,
        );
        candidates.extend(self.unindexed.iter().copied());
        (candidates, stats)
    }

    /// Range query by exhaustive scan — the baseline the index is measured
    /// against (§4's sublinearity claim). Produces identical answers.
    /// Candidates stream straight out of the object table.
    ///
    /// # Errors
    ///
    /// Route/geometry failures during refinement.
    pub fn range_query_scan(&self, region: &QueryRegion) -> Result<RangeAnswer, CoreError> {
        let mut answer = RangeAnswer::default();
        for obj in self.moving_objects() {
            self.tally(&mut answer, obj, region)?;
        }
        answer.normalize();
        Ok(answer)
    }

    /// Refines a slice of pre-filtered candidates into `(must, may)` id
    /// sets (unsorted — the caller merges and normalizes): the refine
    /// step of [`Database::range_query`] on its own, `&self` only.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownObject`] and route/geometry failures.
    pub fn refine_slice(
        &self,
        candidates: &[ObjectId],
        region: &QueryRegion,
    ) -> Result<(Vec<ObjectId>, Vec<ObjectId>), CoreError> {
        let mut answer = RangeAnswer::default();
        for &id in candidates {
            self.tally(&mut answer, self.moving(id)?, region)?;
        }
        Ok((answer.must, answer.may))
    }

    /// Refines one candidate into `answer`: counts it and files its id
    /// under must or may (unsorted — the caller normalizes).
    fn tally(
        &self,
        answer: &mut RangeAnswer,
        obj: &MovingObject,
        region: &QueryRegion,
    ) -> Result<(), CoreError> {
        answer.candidates += 1;
        match self.classify(obj, region)? {
            Some(Containment::Must) => answer.must.push(obj.id),
            Some(Containment::May) => answer.may.push(obj.id),
            None => {}
        }
        Ok(())
    }

    /// "Retrieve the objects currently within `radius` miles of `center`"
    /// — the paper's taxi-cab query, as a 32-gon range query at time `t`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidField`] for a bad radius; refinement errors
    /// propagate.
    pub fn within_distance_of_point(
        &self,
        center: Point,
        radius: f64,
        t: f64,
    ) -> Result<RangeAnswer, CoreError> {
        let region = modb_index::within_radius(center, radius, t)
            .ok_or(CoreError::InvalidField("radius", radius))?;
        self.range_query(&region)
    }

    /// "Retrieve the objects currently within `radius` miles of moving
    /// object `target`" — the paper's trucking query (§1).
    ///
    /// The target's own position is uncertain, so the *may* set uses the
    /// radius inflated by the target's deviation bound and the *must* set
    /// uses the radius deflated by it; the target itself is excluded.
    ///
    /// # Errors
    ///
    /// Unknown target, bad radius, refinement failures.
    pub fn within_distance_of_object(
        &self,
        target: ObjectId,
        radius: f64,
        t: f64,
    ) -> Result<RangeAnswer, CoreError> {
        if !radius.is_finite() || radius <= 0.0 {
            return Err(CoreError::InvalidField("radius", radius));
        }
        let target_pos = self.position_of(target, t)?;
        let center = target_pos.position;
        // may: the object could be anywhere within its bound of the db
        // position, so anything within radius + bound may qualify.
        let may_region = modb_index::within_radius(center, radius + target_pos.bound, t)
            .ok_or(CoreError::InvalidField("radius", radius))?;
        let mut may_side = self.range_query(&may_region)?;
        // must: only objects certainly within radius − bound qualify
        // regardless of where the target actually is.
        let must_radius = radius - target_pos.bound;
        let must_ids = if must_radius > 0.0 {
            let must_region = modb_index::within_radius(center, must_radius, t)
                .ok_or(CoreError::InvalidField("radius", radius))?;
            self.range_query(&must_region)?.must
        } else {
            Vec::new()
        };
        // Assemble: must from the deflated query; everything else that may
        // qualify goes to `may`. Exclude the target.
        let mut answer = RangeAnswer {
            candidates: may_side.candidates,
            stats: may_side.stats,
            ..RangeAnswer::default()
        };
        answer.must = must_ids.into_iter().filter(|&i| i != target).collect();
        may_side.normalize();
        for id in may_side.all() {
            if id != target && !answer.must.contains(&id) {
                answer.may.push(id);
            }
        }
        answer.normalize();
        Ok(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_geom::{Polygon, Rect};
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId};
    use proptest::prelude::*;

    const C: f64 = 5.0;

    fn cost_based() -> PolicyDescriptor {
        PolicyDescriptor::CostBased {
            kind: BoundKind::Immediate,
            update_cost: C,
        }
    }

    fn network() -> RouteNetwork {
        RouteNetwork::from_routes([
            Route::from_vertices(
                RouteId(1),
                "main",
                vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            )
            .unwrap(),
            Route::from_vertices(
                RouteId(2),
                "cross",
                vec![Point::new(50.0, -50.0), Point::new(50.0, 50.0)],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    fn object(id: u64, arc: f64, speed: f64) -> MovingObject {
        MovingObject {
            id: ObjectId(id),
            name: format!("veh-{id}"),
            attr: PositionAttribute {
                start_time: 0.0,
                route: RouteId(1),
                start_position: Point::new(arc, 0.0),
                start_arc: arc,
                direction: Direction::Forward,
                speed,
                policy: cost_based(),
            },
            max_speed: 1.5,
            trip_end: None,
        }
    }

    fn db_with(objects: Vec<MovingObject>) -> Database {
        let mut db = Database::new(network(), DatabaseConfig::default());
        for o in objects {
            db.register_moving(o).unwrap();
        }
        db
    }

    fn rect_region(x0: f64, x1: f64, t: f64) -> QueryRegion {
        let g = Polygon::rectangle(&Rect::new(Point::new(x0, -1.0), Point::new(x1, 1.0))).unwrap();
        QueryRegion::at_instant(g, t)
    }

    #[test]
    fn register_and_position_query() {
        let db = db_with(vec![object(1, 10.0, 1.0)]);
        let ans = db.position_of(ObjectId(1), 5.0).unwrap();
        assert_eq!(ans.arc, 15.0);
        assert_eq!(ans.position, Point::new(15.0, 0.0));
        // Bound matches Prop 4's combined bound at t = 5: min(2C/t, D·t)
        // with D = max(1, 0.5) = 1 → min(2, 5) = 2.
        assert!((ans.bound - 2.0).abs() < 1e-12);
        assert!(ans.interval.0 <= 15.0 && ans.interval.1 >= 15.0);
        assert!(!ans.interval_path.is_empty());
    }

    #[test]
    fn registration_validation() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        assert!(matches!(
            db.register_moving(object(1, 0.0, 1.0)),
            Err(CoreError::DuplicateObject(_))
        ));
        let mut bad = object(2, 10.0, 1.0);
        bad.attr.route = RouteId(99);
        assert!(matches!(db.register_moving(bad), Err(CoreError::Route(_))));
        let mut bad = object(3, 200.0, 1.0);
        bad.attr.start_position = Point::new(200.0, 0.0);
        assert!(matches!(
            db.register_moving(bad),
            Err(CoreError::InvalidField("start_arc", _))
        ));
        let mut bad = object(4, 10.0, f64::NAN);
        bad.attr.speed = f64::NAN;
        assert!(db.register_moving(bad).is_err());
        for policy in unsound_policies() {
            let mut bad = object(5, 10.0, 1.0);
            bad.attr.policy = policy;
            assert!(
                matches!(
                    db.register_moving(bad),
                    Err(CoreError::InvalidField("update_cost" | "bound", _))
                ),
                "{policy:?} registered"
            );
            assert_eq!(db.moving_count(), 1, "{policy:?} left a record");
        }
        // The edges that stay sound: a zero fixed bound, a tiny cost.
        let mut edge = object(5, 10.0, 1.0);
        edge.attr.policy = PolicyDescriptor::FixedBound { bound: 0.0 };
        db.register_moving(edge).unwrap();
        let mut edge = object(6, 10.0, 1.0);
        edge.attr.policy = PolicyDescriptor::CostBased {
            kind: BoundKind::Delayed,
            update_cost: f64::MIN_POSITIVE,
        };
        db.register_moving(edge).unwrap();
    }

    /// Policy parameters under which the deviation bound is unsound:
    /// a cost `C` that is not finite and positive, a fixed `B` that is
    /// not finite and non-negative.
    fn unsound_policies() -> Vec<PolicyDescriptor> {
        let cost = |kind, update_cost| PolicyDescriptor::CostBased { kind, update_cost };
        let mut bad = vec![
            cost(BoundKind::Delayed, 0.0),
            cost(BoundKind::Delayed, -1.0),
        ];
        for c in [0.0, -0.0, -5.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            bad.push(cost(BoundKind::Immediate, c));
        }
        for bound in [-1.0, -1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            bad.push(PolicyDescriptor::FixedBound { bound });
        }
        bad
    }

    #[test]
    fn apply_update_moves_object() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(12.0), 0.5),
        )
        .unwrap();
        let o = db.moving(ObjectId(1)).unwrap();
        assert_eq!(o.attr.start_time, 5.0);
        assert_eq!(o.attr.start_arc, 12.0);
        assert_eq!(o.attr.speed, 0.5);
        // Position now extrapolates from the new update.
        let ans = db.position_of(ObjectId(1), 7.0).unwrap();
        assert_eq!(ans.arc, 13.0);
    }

    #[test]
    fn same_timestamp_update_coalesces_without_history_push() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(12.0), 0.5),
        )
        .unwrap();
        // Same instant, different content: the revision replaces the
        // attribute in place — last writer wins, and nothing of the
        // superseded t=5 attribute is kept to answer for t=5 beside it.
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(20.0), 1.0),
        )
        .unwrap();
        let o = db.moving(ObjectId(1)).unwrap();
        assert_eq!(o.attr.start_arc, 20.0);
        assert_eq!(o.attr.speed, 1.0);
        // Exactly one attribute answers for t=5: queries see the winner.
        assert_eq!(db.position_of(ObjectId(1), 5.0).unwrap().arc, 20.0);
        let ans = db.position_of(ObjectId(1), 7.0).unwrap();
        assert_eq!(ans.arc, 22.0);
        // The index reflects the winner too (it moved 8 arc units).
        let region = rect_region(18.0, 26.0, 7.0);
        assert_eq!(db.range_query(&region).unwrap().all(), vec![ObjectId(1)]);
        assert!(db
            .range_query(&rect_region(11.0, 15.0, 7.0))
            .unwrap()
            .all()
            .is_empty());
    }

    #[test]
    fn same_timestamp_idempotent_redelivery_still_accepted() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        let msg = UpdateMessage::basic(5.0, UpdatePosition::Arc(12.0), 0.5);
        db.apply_update(ObjectId(1), &msg).unwrap();
        let attr = db.moving(ObjectId(1)).unwrap().attr.clone();
        db.apply_update(ObjectId(1), &msg).unwrap();
        assert_eq!(db.moving(ObjectId(1)).unwrap().attr, attr);
        assert_eq!(db.moving(ObjectId(1)).unwrap().attr.start_arc, 12.0);
    }

    #[test]
    fn apply_update_with_coordinates_map_matches() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        // Slightly off the route (0.1 < 0.25 tolerance).
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(1.0, UpdatePosition::Coordinates(Point::new(20.0, 0.1)), 1.0),
        )
        .unwrap();
        assert_eq!(db.moving(ObjectId(1)).unwrap().attr.start_arc, 20.0);
        // Too far off: rejected.
        let err = db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(2.0, UpdatePosition::Coordinates(Point::new(20.0, 3.0)), 1.0),
        );
        assert!(matches!(err, Err(CoreError::OffRoute { .. })));
    }

    #[test]
    fn stale_and_invalid_updates_rejected() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(12.0), 1.0),
        )
        .unwrap();
        assert!(matches!(
            db.apply_update(
                ObjectId(1),
                &UpdateMessage::basic(4.0, UpdatePosition::Arc(13.0), 1.0)
            ),
            Err(CoreError::StaleUpdate { .. })
        ));
        assert!(db
            .apply_update(
                ObjectId(1),
                &UpdateMessage::basic(6.0, UpdatePosition::Arc(-1.0), 1.0)
            )
            .is_err());
        assert!(db
            .apply_update(
                ObjectId(1),
                &UpdateMessage::basic(6.0, UpdatePosition::Arc(12.0), -1.0)
            )
            .is_err());
        assert!(matches!(
            db.apply_update(
                ObjectId(9),
                &UpdateMessage::basic(6.0, UpdatePosition::Arc(1.0), 1.0)
            ),
            Err(CoreError::UnknownObject(_))
        ));
        let before = db.moving(ObjectId(1)).unwrap().clone();
        for policy in unsound_policies() {
            let mut msg = UpdateMessage::basic(6.0, UpdatePosition::Arc(13.0), 1.0);
            msg.policy = Some(policy);
            assert!(
                matches!(
                    db.apply_update(ObjectId(1), &msg),
                    Err(CoreError::InvalidField("update_cost" | "bound", _))
                ),
                "{policy:?} applied"
            );
            assert_eq!(db.moving(ObjectId(1)).unwrap(), &before, "{policy:?}");
        }
    }

    #[test]
    fn route_change_update() {
        let mut db = db_with(vec![object(1, 50.0, 1.0)]);
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::route_change(
                3.0,
                RouteId(2),
                UpdatePosition::Arc(50.0), // mid of the cross street
                Direction::Forward,
                0.8,
            ),
        )
        .unwrap();
        let o = db.moving(ObjectId(1)).unwrap();
        assert_eq!(o.attr.route, RouteId(2));
        let ans = db.position_of(ObjectId(1), 3.0).unwrap();
        assert_eq!(ans.position, Point::new(50.0, 0.0));
    }

    #[test]
    fn range_query_index_matches_scan() {
        let db = db_with(vec![
            object(1, 0.0, 1.0),
            object(2, 30.0, 1.0),
            object(3, 60.0, 0.5),
            object(4, 90.0, 0.0),
        ]);
        for t in [0.0, 2.0, 5.0, 10.0] {
            for (x0, x1) in [(0.0, 10.0), (25.0, 45.0), (0.0, 100.0), (95.0, 100.0)] {
                let region = rect_region(x0, x1, t);
                let a = db.range_query(&region).unwrap();
                let b = db.range_query_scan(&region).unwrap();
                assert_eq!(a.must, b.must, "t={t} x=[{x0},{x1}]");
                assert_eq!(a.may, b.may, "t={t} x=[{x0},{x1}]");
            }
        }
    }

    #[test]
    fn slice_refinement_matches_full_query() {
        let db = db_with(vec![
            object(1, 0.0, 1.0),
            object(2, 30.0, 1.0),
            object(3, 60.0, 0.5),
            object(4, 90.0, 0.0),
        ]);
        for (x0, x1, t) in [(0.0, 40.0, 2.0), (25.0, 95.0, 5.0), (0.0, 100.0, 0.0)] {
            let region = rect_region(x0, x1, t);
            let full = db.range_query(&region).unwrap();
            let (candidates, stats) = db.range_candidates(&region);
            assert_eq!(candidates.len(), full.candidates);
            assert_eq!(stats, full.stats);
            // Split the candidates into two slices, refine each, merge:
            // the same answer `range_query` gave.
            let mid = candidates.len() / 2;
            let (mut must, mut may) = db.refine_slice(&candidates[..mid], &region).unwrap();
            let (m2, y2) = db.refine_slice(&candidates[mid..], &region).unwrap();
            must.extend(m2);
            may.extend(y2);
            must.sort_unstable();
            may.sort_unstable();
            assert_eq!(must, full.must, "x=[{x0},{x1}] t={t}");
            assert_eq!(may, full.may, "x=[{x0},{x1}] t={t}");
        }
        assert!(matches!(
            db.refine_slice(&[ObjectId(99)], &rect_region(0.0, 1.0, 0.0)),
            Err(CoreError::UnknownObject(_))
        ));
    }

    #[test]
    fn may_must_semantics() {
        // Object 1 at arc 10 updated at t = 0 with speed 1: at t = 2 its
        // interval (immediate kind) is [10, 15] (l = 0 pre-crossover,
        // u = 12 + 1 ... compute: nominal 12, BS = min(5,2)=2, BF =
        // min(5,1)=1 → [10, 13]).
        let db = db_with(vec![object(1, 10.0, 1.0)]);
        // Region containing the whole interval: must.
        let a = db.range_query(&rect_region(5.0, 20.0, 2.0)).unwrap();
        assert_eq!(a.must, vec![ObjectId(1)]);
        assert!(a.may.is_empty());
        // Region overlapping part of the interval: may.
        let a = db.range_query(&rect_region(12.0, 20.0, 2.0)).unwrap();
        assert!(a.must.is_empty());
        assert_eq!(a.may, vec![ObjectId(1)]);
        // Region beyond the interval: neither.
        let a = db.range_query(&rect_region(40.0, 60.0, 2.0)).unwrap();
        assert!(a.must.is_empty() && a.may.is_empty());
    }

    #[test]
    fn non_indexed_policies_still_answered() {
        let mut fixed = object(1, 10.0, 1.0);
        fixed.attr.policy = PolicyDescriptor::FixedBound { bound: 1.0 };
        let mut unbounded = object(2, 30.0, 1.0);
        unbounded.attr.policy = PolicyDescriptor::Unbounded;
        let db = db_with(vec![fixed, unbounded, object(3, 60.0, 1.0)]);
        let region = rect_region(0.0, 100.0, 2.0);
        let a = db.range_query(&region).unwrap();
        let b = db.range_query_scan(&region).unwrap();
        assert_eq!(a.must, b.must);
        assert_eq!(a.may, b.may);
        assert_eq!(a.all().len(), 3);
    }

    #[test]
    fn future_time_query() {
        let db = db_with(vec![object(1, 0.0, 1.0)]);
        // "Where will it be at t = 50?" Nominal arc 50; immediate bounds
        // have decayed to 2C/t = 0.2.
        let a = db.range_query(&rect_region(45.0, 55.0, 50.0)).unwrap();
        assert_eq!(a.must, vec![ObjectId(1)]);
        let a = db.range_query(&rect_region(0.0, 5.0, 50.0)).unwrap();
        assert!(a.all().is_empty());
    }

    #[test]
    fn within_distance_queries() {
        let mut db = db_with(vec![object(1, 10.0, 1.0), object(2, 13.0, 1.0)]);
        db.insert_stationary(StationaryObject::new(
            ObjectId(100),
            "depot",
            Point::new(12.0, 0.0),
        ))
        .unwrap();
        // At t = 0 object 1 is at 10, object 2 at 13; depot at 12.
        let a = db
            .within_distance_of_point(Point::new(12.0, 0.0), 2.5, 0.0)
            .unwrap();
        let mut all = a.all();
        all.sort_unstable();
        assert_eq!(all, vec![ObjectId(1), ObjectId(2)]);
        // Trucking query: near object 1, excluding itself.
        let a = db.within_distance_of_object(ObjectId(1), 4.0, 0.0).unwrap();
        assert!(!a.all().contains(&ObjectId(1)));
        assert!(a.all().contains(&ObjectId(2)));
        // Invalid radius.
        assert!(db
            .within_distance_of_point(Point::new(0.0, 0.0), 0.0, 0.0)
            .is_err());
        assert!(db
            .within_distance_of_object(ObjectId(1), -1.0, 0.0)
            .is_err());
    }

    #[test]
    fn remove_moving_object() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        let o = db.remove_moving(ObjectId(1)).unwrap();
        assert_eq!(o.id, ObjectId(1));
        assert_eq!(db.moving_count(), 0);
        assert!(matches!(
            db.remove_moving(ObjectId(1)),
            Err(CoreError::UnknownObject(_))
        ));
        let a = db.range_query(&rect_region(0.0, 100.0, 0.0)).unwrap();
        assert!(a.all().is_empty());
    }

    #[test]
    fn policy_change_via_update_reindexes() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        // Switch to a fixed-bound policy: object leaves the o-plane index
        // but queries still find it.
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(1.0, UpdatePosition::Arc(11.0), 1.0)
                .with_policy(PolicyDescriptor::FixedBound { bound: 0.5 }),
        )
        .unwrap();
        let a = db.range_query(&rect_region(5.0, 20.0, 1.0)).unwrap();
        assert_eq!(a.must, vec![ObjectId(1)]);
        // And back to cost-based.
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(2.0, UpdatePosition::Arc(12.0), 1.0).with_policy(cost_based()),
        )
        .unwrap();
        let a = db.range_query(&rect_region(5.0, 20.0, 2.0)).unwrap();
        assert_eq!(a.must, vec![ObjectId(1)]);
    }

    #[test]
    fn find_by_name() {
        let db = db_with(vec![object(1, 10.0, 1.0)]);
        assert_eq!(db.find_moving_by_name("veh-1").unwrap().id, ObjectId(1));
        assert!(db.find_moving_by_name("ghost").is_none());
    }

    /// A shared name resolves to the smallest id, in every copy of the
    /// state. Each restored copy's table hashes with a seed of its own, so
    /// a rule that followed iteration order ("the first match") would let
    /// copies of one state answer about different objects.
    #[test]
    fn a_shared_name_resolves_to_the_smallest_id_in_every_copy() {
        let named = |id: u64, name: &str| MovingObject {
            name: name.into(),
            ..object(id, id as f64, 1.0)
        };
        let mut db = db_with((10..26).rev().map(|id| named(id, "dup")).collect());
        db.register_moving(named(3, "solo")).unwrap();
        for _ in 0..16 {
            let copy = rebuilt(&db);
            assert_eq!(copy.find_moving_by_name("dup").unwrap().id, ObjectId(10));
            assert_eq!(copy.find_moving_by_name("solo").unwrap().id, ObjectId(3));
        }
        // The rule is the id, not registration order: object 10 was
        // registered last of the sixteen.
        assert_eq!(db.find_moving_by_name("dup").unwrap().id, ObjectId(10));
    }

    /// A copy of `db` built the way a snapshot restore builds one: every
    /// landmark re-inserted and every vehicle re-registered into a fresh
    /// database over the same network.
    fn rebuilt(db: &Database) -> Database {
        let mut copy = Database::new(db.network_arc(), *db.config());
        for obj in db.stationary_objects() {
            copy.insert_stationary(obj.clone()).unwrap();
        }
        for obj in db.moving_objects() {
            copy.register_moving(obj.clone()).unwrap();
        }
        copy
    }

    #[test]
    fn rebuilding_restores_state_and_reindexes() {
        let mut db = db_with(vec![object(1, 10.0, 1.0), object(2, 40.0, 0.5)]);
        db.insert_stationary(StationaryObject::new(
            ObjectId(100),
            "depot",
            Point::new(12.0, 0.0),
        ))
        .unwrap();
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(14.0), 0.5),
        )
        .unwrap();
        // Disassemble through the public accessors, as a snapshot would.
        let rebuilt = rebuilt(&db);
        assert_eq!(rebuilt.moving_count(), 2);
        assert_eq!(rebuilt.stationary_count(), 1);
        assert_eq!(rebuilt.moving(ObjectId(1)), db.moving(ObjectId(1)));
        // Identical query answers, index path included.
        for t in [0.0, 5.0, 9.0] {
            assert_eq!(
                rebuilt.position_of(ObjectId(1), t).unwrap(),
                db.position_of(ObjectId(1), t).unwrap()
            );
            let region = rect_region(0.0, 100.0, t);
            let a = rebuilt.range_query(&region).unwrap();
            let b = db.range_query(&region).unwrap();
            assert_eq!(a.must, b.must);
            assert_eq!(a.may, b.may);
        }
    }

    #[test]
    fn insert_route_grows_network() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        db.insert_route(
            Route::from_vertices(
                RouteId(7),
                "new",
                vec![Point::new(0.0, 10.0), Point::new(100.0, 10.0)],
            )
            .unwrap(),
        )
        .unwrap();
        assert!(db.network().get(RouteId(7)).is_ok());
        // Duplicate id rejected.
        let dup =
            Route::from_vertices(RouteId(7), "dup", vec![Point::ORIGIN, Point::new(1.0, 0.0)])
                .unwrap();
        assert!(matches!(db.insert_route(dup), Err(CoreError::Route(_))));
        // Objects can move onto the new route.
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::route_change(
                1.0,
                RouteId(7),
                UpdatePosition::Arc(5.0),
                Direction::Forward,
                1.0,
            ),
        )
        .unwrap();
        assert_eq!(db.moving(ObjectId(1)).unwrap().attr.route, RouteId(7));
    }

    /// The memory contract of one record per vehicle: a vehicle is one
    /// entry — one allocation, which the id map and the tree's leaf
    /// share — however often it reports. An update builds a new entry
    /// and the old one is freed as soon as no clone pins it; while clones
    /// do (a snapshot being written, a statement's clone) they keep
    /// exactly the old entry, and dropping them frees it with nobody
    /// having had to sync anything.
    #[test]
    fn update_leaves_one_entry_once_clones_drop() {
        // The entry is the id, the object and the box it is filed under:
        // no copy of the o-plane the object determines, and an unfiled
        // entry is the empty box, not an `Option` (which would add 8 B).
        // 184 B, 200 B with the `Arc`'s counts: a 208-B allocator chunk,
        // where an entry with the plane beside it took 272 B.
        assert_eq!(
            std::mem::size_of::<Entry<ObjectId, MovingObject>>(),
            std::mem::size_of::<ObjectId>()
                + std::mem::size_of::<MovingObject>()
                + std::mem::size_of::<modb_geom::Aabb3>()
        );
        let id = ObjectId(1);
        let mut db = db_with(vec![object(1, 10.0, 1.0), object(2, 50.0, 1.0)]);
        let report = |t: f64| UpdateMessage::basic(t, UpdatePosition::Arc(10.0 + t % 80.0), 1.0);
        let entry = |db: &Database| Arc::clone(db.moving.entry(&id).unwrap());

        // Updated once or a thousand times: one entry, held by the map
        // and the leaf and nothing else, and nothing around it grows.
        db.apply_update(id, &report(1.0)).unwrap();
        let allocations = db.shared_with(&db).1;
        let mut superseded = Vec::new();
        for t in 2..=1_000 {
            superseded.push(Arc::downgrade(&entry(&db)));
            db.apply_update(id, &report(f64::from(t))).unwrap();
        }
        assert!(superseded.iter().all(|old| old.strong_count() == 0));
        assert_eq!(
            Arc::strong_count(&entry(&db)),
            1 + 2,
            "ours, the map's, the leaf's"
        );
        assert_eq!(db.shared_with(&db).1, allocations);

        let superseded = Arc::downgrade(&entry(&db));
        let pinned = [db.clone(), db.clone()];
        assert_eq!(
            superseded.strong_count(),
            2,
            "clones share the map and the tree"
        );
        assert_eq!(db.shared_with(&pinned[0]), db.shared_with(&db));
        db.apply_update(id, &report(1_001.0)).unwrap();
        assert_eq!(
            superseded.strong_count(),
            2,
            "the clones keep the old entry"
        );
        for clone in &pinned {
            assert_eq!(clone.moving(id).unwrap().attr.start_time, 1_000.0);
        }
        // An entry no clone saw is freed by the next update.
        let unpinned = Arc::downgrade(&entry(&db));
        db.apply_update(id, &report(1_002.0)).unwrap();
        assert_eq!(unpinned.strong_count(), 0);

        drop(pinned);
        assert_eq!(superseded.strong_count(), 0, "old entry freed");
        assert_eq!(db.moving(id).unwrap().attr.start_time, 1_002.0);
    }

    /// `Database::clone` is O(1): a fresh clone shares every tree node
    /// and bucket, a write un-shares only its own paths, a rejected write
    /// un-shares nothing, and sharing does not decay over many
    /// publish-then-update rounds.
    #[test]
    fn a_clone_shares_everything_and_writes_copy_only_their_paths() {
        let mut db = Database::new(network(), DatabaseConfig::default());
        for i in 0..2_000u64 {
            db.register_moving(object(i, (i % 100) as f64, 1.0))
                .unwrap();
        }
        let height = db.index_tree_stats().2;
        // What one update copies when a clone pins everything: one tree
        // path out (locate → remove) and one in (insert) with a split on
        // the way, and in the one id map a chunk and a bucket (the
        // directory once per clone). An update that fits in place copies
        // half of that; one whose leaf falls under the R\* minimum
        // dissolves it and reinserts the orphans down paths of their own,
        // so the bound is on the mean, with the worst case kept well
        // short of "the tree".
        let per_update = 2 * height + 2 + 2;
        let pinned = db.clone();
        let (shared, total) = db.shared_with(&pinned);
        assert_eq!(shared, total, "a fresh clone shares all {total}");

        // Rejected writes copy nothing.
        let stale = UpdateMessage::basic(-1.0, UpdatePosition::Arc(1.0), 1.0);
        assert!(db.apply_update(ObjectId(3), &stale).is_err());
        assert!(db.apply_update(ObjectId(99_999), &stale).is_err());
        assert!(db.remove_moving(ObjectId(99_999)).is_err());
        assert_eq!(db.shared_with(&pinned), (total, total));

        let k = 25;
        for i in 0..k {
            let msg = UpdateMessage::basic(1.0, UpdatePosition::Arc((i * 4) as f64), 0.7);
            db.apply_update(ObjectId(i * 31), &msg).unwrap();
        }
        let (shared, now) = db.shared_with(&pinned);
        assert!(
            now - shared <= 1 + k as usize * per_update,
            "{} of {now} copied by {k} updates (height {height})",
            now - shared
        );
        assert_eq!(pinned.moving(ObjectId(31)).unwrap().attr.start_time, 0.0);
        drop(pinned);

        // 1 000 publish-then-update rounds: what a round copies does not
        // grow (sharing does not decay), and no round comes near copying
        // the structure wholesale.
        let mut published = db.clone();
        let (mut copied, mut worst) = (0, 0);
        for round in 0..1_000u64 {
            let id = ObjectId((round * 7) % 2_000);
            let arc = ((round * 13) % 100) as f64;
            let msg = UpdateMessage::basic(2.0 + round as f64, UpdatePosition::Arc(arc), 0.9);
            db.apply_update(id, &msg).unwrap();
            let (shared, total) = db.shared_with(&published);
            copied += total - shared;
            worst = worst.max(total - shared);
            assert!(
                total - shared <= total / 4,
                "round {round}: {} of {total} unshared",
                total - shared
            );
            published = db.clone();
        }
        assert!(
            copied <= 1_000 * (1 + per_update),
            "{copied} allocations copied by 1000 single-update rounds (worst {worst})"
        );
        let (shared, total) = db.shared_with(&published);
        assert_eq!(shared, total);
    }

    #[test]
    fn clones_share_the_network_until_a_route_is_inserted() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        let clone = db.clone();
        assert!(Arc::ptr_eq(&db.network_arc(), &clone.network_arc()));
        db.insert_route(
            Route::from_vertices(
                RouteId(9),
                "new",
                vec![Point::new(0.0, 20.0), Point::new(100.0, 20.0)],
            )
            .unwrap(),
        )
        .unwrap();
        // Copy-on-write: the clone keeps the old map.
        assert!(!Arc::ptr_eq(&db.network_arc(), &clone.network_arc()));
        assert!(db.network().get(RouteId(9)).is_ok());
        assert!(clone.network().get(RouteId(9)).is_err());
    }

    #[test]
    fn identical_update_is_an_idempotent_noop() {
        let mut db = db_with(vec![object(1, 10.0, 1.0)]);
        let msg = UpdateMessage::basic(5.0, UpdatePosition::Arc(14.0), 0.5);
        db.apply_update(ObjectId(1), &msg).unwrap();
        let attr = db.moving(ObjectId(1)).unwrap().attr.clone();
        let pinned = db.clone();
        // Re-delivering the exact same update (the WAL-replay case)
        // succeeds without a write: nothing the clone shares is copied.
        db.apply_update(ObjectId(1), &msg).unwrap();
        assert_eq!(db.moving(ObjectId(1)).unwrap().attr, attr);
        assert_eq!(db.shared_with(&pinned), pinned.shared_with(&pinned));
        // A same-time update with different content is a real change:
        // last writer wins.
        db.apply_update(
            ObjectId(1),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(15.0), 0.5),
        )
        .unwrap();
        assert_eq!(db.moving(ObjectId(1)).unwrap().attr.start_arc, 15.0);
        assert_ne!(db.shared_with(&pinned), pinned.shared_with(&pinned));
        assert_eq!(pinned.moving(ObjectId(1)).unwrap().attr.start_arc, 14.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The plane a tree hit is tested against is the plane its entry
        /// was filed under. Through random registrations, updates (some
        /// moving to another route, some naming a route that does not
        /// exist and refused), policy switches that take an object out
        /// of the tree and back, and removals — beside a fixed-bound
        /// object that is never filed — every entry's box is the union
        /// box of the plane derived from its object, and the index
        /// answers every query exactly like the scan.
        #[test]
        fn a_hit_derives_the_plane_its_entry_was_filed_under(
            steps in proptest::collection::vec(
                (0usize..5, 0u64..8, 0.0f64..100.0, 0.0f64..1.4, 0.0f64..0.8),
                1..60,
            ),
            (x0, w, t0, dt) in (-10.0f64..100.0, 1.0f64..60.0, 0.0f64..50.0, 0.0f64..10.0),
        ) {
            let policy = |id: u64| match id % 3 {
                0 => PolicyDescriptor::FixedBound { bound: 1.0 },
                1 => cost_based(),
                _ => PolicyDescriptor::CostBased { kind: BoundKind::Delayed, update_cost: 2.0 },
            };
            let vehicle = |id: u64, arc: f64, speed: f64| MovingObject {
                attr: PositionAttribute { policy: policy(id), ..object(id, arc, speed).attr },
                trip_end: (id % 2 == 1).then_some(90.0),
                ..object(id, arc, speed)
            };
            let mut db = db_with(vec![vehicle(0, 10.0, 1.0), vehicle(1, 20.0, 1.0)]);
            let g = Polygon::rectangle(&Rect::new(
                Point::new(x0, -60.0),
                Point::new(x0 + w, 5.0),
            ))
            .unwrap();
            let regions = [
                QueryRegion::at_instant(g.clone(), t0),
                QueryRegion::during(g, t0, t0 + dt),
            ];
            let mut clock = 0.0f64;
            for (op, pick, arc, speed, tick) in steps {
                clock = (clock + tick).min(50.0);
                let id = ObjectId(pick);
                let basic = UpdateMessage::basic(clock, UpdatePosition::Arc(arc), speed);
                let _ = match op {
                    0 => db.register_moving(vehicle(pick, arc, speed)),
                    1 => db.apply_update(id, &basic),
                    // Route 99 does not exist: refused, nothing changes.
                    2 => db.apply_update(
                        id,
                        &UpdateMessage::route_change(
                            clock,
                            RouteId(if arc < 80.0 { 2 } else { 99 }),
                            UpdatePosition::Arc(arc),
                            Direction::Backward,
                            speed,
                        ),
                    ),
                    3 => db.apply_update(id, &basic.with_policy(policy(pick + (arc as u64)))),
                    _ => db.remove_moving(id).map(drop),
                };
                for id in db.moving_ids() {
                    let entry = db.moving.entry(&id).unwrap();
                    let derived = db.plane_of(entry.value()).unwrap().map(|plane| {
                        let route = db.network().get(plane.route).unwrap();
                        plane.union_box(route, db.config().bands).unwrap()
                    });
                    prop_assert_eq!(entry.union(), derived, "object {:?}", id);
                }
                for region in &regions {
                    let index = db.range_query(region).unwrap();
                    let scan = db.range_query_scan(region).unwrap();
                    prop_assert_eq!((index.must, index.may), (scan.must, scan.may));
                }
            }
        }
    }

    #[test]
    fn stationary_lookup() {
        let mut db = db_with(vec![]);
        db.insert_stationary(StationaryObject::new(
            ObjectId(1),
            "33 N Michigan Ave",
            Point::new(1.0, 1.0),
        ))
        .unwrap();
        assert_eq!(
            db.stationary(ObjectId(1)).unwrap().name,
            "33 N Michigan Ave"
        );
        assert!(matches!(
            db.insert_stationary(StationaryObject::new(ObjectId(1), "dup", Point::ORIGIN)),
            Err(CoreError::DuplicateObject(_))
        ));
        assert_eq!(db.stationary_count(), 1);
    }
}
