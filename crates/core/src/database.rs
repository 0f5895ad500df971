//! The moving-objects database: update ingestion and query processing.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use modb_geom::{Point, Polygon, Rect};
use modb_index::{
    Filing, MovingObjectIndex, OPlane, QueryRegion, SearchStats, DEFAULT_SLAB_MINUTES,
};
use modb_routes::{Route, RouteNetwork};

use crate::attr::{PolicyDescriptor, PositionAttribute};
use crate::error::CoreError;
use crate::object::{ObjectId, StationaryObject};
use crate::query::{Containment, PositionAnswer, RangeAnswer};
use crate::resident::Resident;
use crate::update::{UpdateMessage, UpdatePosition};

/// Maximum distance (miles) a reported coordinate may lie from its route
/// before the update is rejected as off-route.
pub const MAP_MATCH_TOLERANCE: f64 = 0.25;

/// Horizon (minutes) an o-plane extends past its update when the object
/// has no known trip end — the `T` of §4.2's index time span.
pub const DEFAULT_HORIZON: f64 = 60.0;

/// Sampling step (minutes) for exact refinement of time-interval queries.
pub const REFINEMENT_DT: f64 = 1.0;

/// The index's one setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatabaseConfig {
    /// Slab duration (minutes) of the index's o-plane decomposition
    /// (§4.2). The name is what is left of the speed-band layout this
    /// field used to hold; it stays because `modb_ledger/` reads it and
    /// may not be edited.
    pub bands: f64,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            bands: DEFAULT_SLAB_MINUTES,
        }
    }
}

/// A mobile point object (§2): what registration takes and what a
/// lookup returns. The table keeps each one in a compact form of its own
/// (the id as the entry's key, the start position as route + arc only,
/// the name inline when short), built once at registration, and builds
/// this form again for each answer, its start point as
/// `route.point_at(start_arc)`.
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
/// in one allocation — a 112-B malloc chunk with the name inline when it
/// fits 14 bytes — which the id map and the tree's leaf share. The id
/// map keeps one 8-B pointer to it and reads the id through it; the
/// leaf, a 32-B slot, also keeps the one copy of the box the object is
/// filed under.
/// Neither the o-plane nor that box is stored in the entry: both are
/// functions of the object's position attribute, derived when the
/// object is filed, again by the same function when a later write looks
/// for its leaf, and again for each tree hit. A range query refines the
/// object its tree hit carries; only a lookup by id hashes.
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
    /// Moving objects, one immutable entry each: the object's resident
    /// record under its id, filed in the tree under the union box of its
    /// o-plane when its policy is cost-based. A write replaces the entry
    /// whole, so a clone pinned by a reader never sees it.
    moving: MovingObjectIndex<ObjectId, Resident>,
    /// Landmarks: few and rarely written, so the table is shared whole
    /// and copied on the first insert after a clone.
    stationary: Arc<HashMap<ObjectId, StationaryObject>>,
    /// Ids of moving objects whose policies cannot be o-plane-indexed;
    /// they are appended to every candidate set (exact refinement still
    /// applies). Shared whole, like `stationary`.
    unindexed: Arc<BTreeSet<ObjectId>>,
    /// The largest `max_speed` any object ever stored here had: raised
    /// by every write, never lowered by a removal (a cap above the
    /// fleet's only widens what it bounds).
    speed_cap: f64,
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
            speed_cap: 0.0,
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

    /// An upper bound on every moving object's `max_speed`, read in
    /// O(1): the largest one ever stored (0.0 for an empty database).
    /// Registration, snapshot decode and replay all store through one
    /// path, which raises it; a removal does not lower it, so after one
    /// it may exceed the fleet's true maximum — sound for a bound, since
    /// a larger cap only widens it.
    pub fn speed_cap(&self) -> f64 {
        self.speed_cap
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

    /// Every moving object, in id order, each built from its resident
    /// record as the iterator reaches it: the iterator holds one
    /// reference per vehicle (8 B, sized exactly), never the fleet's
    /// objects at once, and the same state always yields the same
    /// sequence — a snapshot of it writes the same bytes.
    pub fn moving_objects(&self) -> impl Iterator<Item = MovingObject> + '_ {
        let mut entries = Vec::with_capacity(self.moving.len());
        entries.extend(self.moving.entries());
        entries.sort_unstable_by_key(|entry| *entry.key());
        entries
            .into_iter()
            .map(|entry| self.object(*entry.key(), entry.value()))
    }

    /// Every resident record with its id, in arbitrary order: what the
    /// scans read, borrowed, where [`Database::moving_objects`] builds
    /// objects.
    pub(crate) fn residents(&self) -> impl Iterator<Item = (ObjectId, &Resident)> {
        self.moving
            .entries()
            .map(|entry| (*entry.key(), entry.value()))
    }

    /// Iterator over all stationary objects (arbitrary order).
    pub fn stationary_objects(&self) -> impl Iterator<Item = &StationaryObject> {
        self.stationary.values()
    }

    /// Looks up a moving object, built from its resident record.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownObject`] when absent.
    pub fn moving(&self, id: ObjectId) -> Result<MovingObject, CoreError> {
        Ok(self.object(id, self.resident(id)?))
    }

    /// The API's form of `resident`, stored under `id`.
    fn object(&self, id: ObjectId, resident: &Resident) -> MovingObject {
        let route = self.network.get(resident.attr.route).expect(
            "a stored route is in the network: writes check it, and routes are never removed",
        );
        resident.to_object(id, route)
    }

    /// The resident record of `id`, borrowed.
    fn resident(&self, id: ObjectId) -> Result<&Resident, CoreError> {
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
    pub fn find_moving_by_name(&self, name: &str) -> Option<MovingObject> {
        self.residents()
            .filter(|(_, r)| r.name() == name)
            .min_by_key(|&(id, _)| id)
            .map(|(id, r)| self.object(id, r))
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
    /// attribute" (§3.1). The start position is kept as route + arc:
    /// `start_position` must lie within the map-matching tolerance of
    /// `route.point_at(start_arc)`, the point every answer reports.
    ///
    /// # Errors
    ///
    /// Duplicate ids, unknown routes, and invalid numeric fields are
    /// rejected, and a start position off its arc is
    /// [`CoreError::OffRoute`]; index failures propagate. On error
    /// nothing is stored.
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
        if let Some(end) = obj.trip_end.filter(|end| !end.is_finite()) {
            return Err(CoreError::InvalidField("trip_end", end));
        }
        obj.attr.policy.validate()?;
        if !obj.attr.start_arc.is_finite()
            || obj.attr.start_arc < 0.0
            || obj.attr.start_arc > route.length()
        {
            return Err(CoreError::InvalidField("start_arc", obj.attr.start_arc));
        }
        let start = obj.attr.start_position;
        if !start.is_finite() {
            let bad = if start.x.is_finite() {
                start.y
            } else {
                start.x
            };
            return Err(CoreError::InvalidField("start_position", bad));
        }
        let distance = start.distance(route.point_at(obj.attr.start_arc));
        if distance > MAP_MATCH_TOLERANCE {
            return Err(CoreError::OffRoute {
                distance,
                tolerance: MAP_MATCH_TOLERANCE,
            });
        }
        let (id, resident) = Resident::new(obj);
        self.store(id, resident)
    }

    /// Removes a moving object (trip over).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownObject`] when absent.
    pub fn remove_moving(&mut self, id: ObjectId) -> Result<MovingObject, CoreError> {
        let network = &*self.network;
        let entry = self
            .moving
            .remove(&id, |resident| Self::filing(network, resident))?
            .ok_or(CoreError::UnknownObject(id))?;
        self.set_unindexed(id, false);
        Ok(self.object(id, entry.value()))
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
        let obj = self.resident(id)?;
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
        let arc = self.resolve_arc(route, msg.position)?;

        let mut next = obj.attr;
        next.start_time = msg.time;
        next.route = route_id;
        next.start_arc = arc;
        next.speed = msg.speed;
        if let Some(dir) = msg.direction {
            next.direction = dir;
        }
        if let Some(policy) = msg.policy {
            next.set_policy(policy);
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
        let updated = obj.with_attr(next);
        self.store(id, updated)
    }

    /// The arc on `route` an update's position names: an arc as is, a
    /// coordinate map-matched.
    fn resolve_arc(&self, route: &Route, pos: UpdatePosition) -> Result<f64, CoreError> {
        match pos {
            UpdatePosition::Arc(a) => {
                if !a.is_finite() || a < 0.0 || a > route.length() {
                    return Err(CoreError::InvalidField("arc", a));
                }
                Ok(a)
            }
            UpdatePosition::Coordinates(p) => {
                if !p.is_finite() {
                    return Err(CoreError::InvalidField("position.x/y", p.x));
                }
                let (arc, dist) = route.locate(p);
                if dist > MAP_MATCH_TOLERANCE {
                    return Err(CoreError::OffRoute {
                        distance: dist,
                        tolerance: MAP_MATCH_TOLERANCE,
                    });
                }
                Ok(arc)
            }
        }
    }

    /// The o-plane `obj`'s position attribute defines (§4.1.1), cut off at
    /// its trip end `Z` or else [`DEFAULT_HORIZON`] past its update (§4.2);
    /// `None` when its policy is not cost-based. The one derivation of a
    /// plane: [`Database::store`] files an object under the union box of
    /// the plane this returns, a later write finds that box again by
    /// calling it on the superseded object, and the range filter tests
    /// each tree hit against the plane this returns for it — so all three
    /// are the same plane, bit for bit: it reads only the object, which
    /// does not change while the entry is filed, and the box also reads
    /// the plane's route, which never changes (the network is
    /// append-only).
    fn plane_of(obj: &Resident) -> Result<Option<OPlane>, CoreError> {
        let PolicyDescriptor::CostBased { kind, update_cost } = obj.attr.policy() else {
            return Ok(None);
        };
        let end_time = obj
            .trip_end()
            .unwrap_or(obj.attr.start_time + DEFAULT_HORIZON)
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

    /// Where `obj` is filed: [`Database::plane_of`]'s plane on its route.
    /// An associated function over the network it reads, so a write can
    /// hand it to the index while borrowing the index mutably.
    fn filing<'n>(network: &'n RouteNetwork, obj: &Resident) -> Result<Filing<'n>, CoreError> {
        match Self::plane_of(obj)? {
            Some(plane) => {
                let route = network.get(plane.route)?;
                Ok(Some((plane, route)))
            }
            None => Ok(None),
        }
    }

    /// Stores `obj` as `id`'s one entry, filed in the tree under the
    /// union box of the o-plane its attribute defines (§4.2) when its
    /// policy is cost-based, in the unindexed set otherwise. The index
    /// computes the new box and locates the superseded entry by its
    /// derived box before writing anything, so an error changes nothing;
    /// neither the plane nor the box is kept in the entry. Raises the
    /// [`Database::speed_cap`].
    fn store(&mut self, id: ObjectId, obj: Resident) -> Result<(), CoreError> {
        let filed = matches!(obj.attr.policy(), PolicyDescriptor::CostBased { .. });
        let max_speed = obj.max_speed;
        let network = &*self.network;
        self.moving
            .insert(id, obj, |obj| Self::filing(network, obj))?;
        self.set_unindexed(id, !filed);
        self.speed_cap = self.speed_cap.max(max_speed);
        Ok(())
    }

    /// Answers "what is the current position of m?" at time `t`, with the
    /// §3.3 error bound and the §4.1.1 uncertainty interval.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownObject`] and route/geometry failures.
    pub fn position_of(&self, id: ObjectId, t: f64) -> Result<PositionAnswer, CoreError> {
        self.position_of_lagging(id, t, 0.0)
    }

    /// [`Database::position_of`] answered by a copy that may trail the
    /// truth by `lag` minutes: the deviation bound and both ends of the
    /// uncertainty interval grow by the fleet's `2·speed_cap·lag` (DESIGN
    /// §15), the interval stays on the route (`[0, length]`), and its path
    /// is the widened interval's. `lag == 0` is the plain query.
    ///
    /// # Errors
    ///
    /// As for [`Database::position_of`], and
    /// [`CoreError::InvalidField`] for a negative or non-finite `lag`.
    pub fn position_of_lagging(
        &self,
        id: ObjectId,
        t: f64,
        lag: f64,
    ) -> Result<PositionAnswer, CoreError> {
        if !(lag.is_finite() && lag >= 0.0) {
            return Err(CoreError::InvalidField("lag", lag));
        }
        let obj = self.resident(id)?;
        let (route, arc, mut bound) = self.locate(obj, t)?;
        let mut interval = obj.attr.uncertainty_arcs(route.length(), obj.max_speed, t);
        let slack = 2.0 * self.speed_cap * lag;
        if slack > 0.0 {
            bound += slack;
            interval = (
                (interval.0 - slack).max(0.0),
                (interval.1 + slack).min(route.length()),
            );
        }
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
    pub(crate) fn locate(&self, obj: &Resident, t: f64) -> Result<(&Route, f64, f64), CoreError> {
        let route = self.network.get(obj.attr.route)?;
        let arc = obj.attr.database_arc(route.length(), t);
        let elapsed = (t - obj.attr.start_time).max(0.0);
        let bound = obj
            .attr
            .policy()
            .deviation_bound(obj.attr.speed, obj.max_speed, elapsed);
        Ok((route, arc, bound))
    }

    /// Classifies one object against a query region using exact
    /// uncertainty-interval geometry (Theorems 5–6). `None` means the
    /// object is certainly outside G over the region's time span.
    ///
    /// `slack` widens the interval to every point within `slack` miles
    /// of it — where the object can be on a copy that trails the truth
    /// (see [`Database::range_query_lagging`]). The object *may* be in G
    /// when that widened set meets G, and *must* be when it lies inside
    /// G. At `slack == 0` the tests are Theorems 5–6's own.
    ///
    /// Range queries are defined for the present and future ("t₀ may be
    /// the current time, or some time in the future", §4.2): times before
    /// the object's `P.starttime` are skipped — the DBMS had no position
    /// knowledge for the object then, and the past is not served.
    fn classify(
        &self,
        obj: &Resident,
        region: &QueryRegion,
        slack: f64,
    ) -> Result<Option<Containment>, CoreError> {
        let route = self.network.get(obj.attr.route)?;
        let polygon = region.polygon();
        let mut best: Option<Containment> = None;
        for t in region.refinement_times(REFINEMENT_DT) {
            if t < obj.attr.start_time {
                continue;
            }
            let (lo, hi) = obj.attr.uncertainty_arcs(route.length(), obj.max_speed, t);
            let path = route.polyline().interval_points(lo, hi)?;
            let (must, may) = if slack == 0.0 {
                (polygon.contains_path(&path), polygon.intersects_path(&path))
            } else {
                let inside = polygon.contains_path(&path);
                let clearance = polygon.boundary_distance(&path);
                (inside && clearance > slack, inside || clearance <= slack)
            };
            if must {
                return Ok(Some(Containment::Must));
            }
            if may {
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
        self.range_query_lagging(region, 0.0)
    }

    /// [`Database::range_query`] answered by a copy that may trail the
    /// truth by `lag` minutes — a follower whose last contact with a
    /// caught-up leader is that old. In that time an object may have
    /// reported and moved off the attribute this copy holds, by at most
    /// `2·max_speed·lag` (DESIGN §15), so each candidate is refined
    /// against its interval widened by its own such slack: it *may* be in
    /// G when the widened interval meets G, and *must* be only while the
    /// widened interval stays inside. The filter runs on the query box
    /// dilated by the fleet's slack, `2·speed_cap·lag`, so no object
    /// whose widened interval reaches G is missed. `lag == 0` is
    /// [`Database::range_query`], bit for bit.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidField`] for a negative or non-finite `lag`;
    /// route/geometry failures during refinement.
    pub fn range_query_lagging(
        &self,
        region: &QueryRegion,
        lag: f64,
    ) -> Result<RangeAnswer, CoreError> {
        if !(lag.is_finite() && lag >= 0.0) {
            return Err(CoreError::InvalidField("lag", lag));
        }
        let dilated = dilate(region, 2.0 * self.speed_cap * lag)?;
        let filter = dilated.as_ref().unwrap_or(region);
        let mut answer = RangeAnswer::default();
        let mut refined = Ok(());
        let stats = self.moving.for_each_candidate(
            filter,
            &self.network,
            |obj| Self::plane_of(obj).ok().flatten(),
            |entry| {
                if refined.is_ok() {
                    refined = self.tally(&mut answer, *entry.key(), entry.value(), region, lag);
                }
            },
        );
        refined?;
        answer.stats = stats;
        for &id in self.unindexed.iter() {
            self.tally(&mut answer, id, self.resident(id)?, region, lag)?;
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
            |obj| Self::plane_of(obj).ok().flatten(),
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
        for (id, obj) in self.residents() {
            self.tally(&mut answer, id, obj, region, 0.0)?;
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
            self.tally(&mut answer, id, self.resident(id)?, region, 0.0)?;
        }
        Ok((answer.must, answer.may))
    }

    /// Refines one candidate into `answer` as seen `lag` minutes behind
    /// the truth: counts it and files `id` under must or may (unsorted —
    /// the caller normalizes).
    fn tally(
        &self,
        answer: &mut RangeAnswer,
        id: ObjectId,
        obj: &Resident,
        region: &QueryRegion,
        lag: f64,
    ) -> Result<(), CoreError> {
        answer.candidates += 1;
        match self.classify(obj, region, 2.0 * obj.max_speed * lag)? {
            Some(Containment::Must) => answer.must.push(id),
            Some(Containment::May) => answer.may.push(id),
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
        self.within_distance_of_object_lagging(target, radius, t, 0.0)
    }

    /// [`Database::within_distance_of_object`] answered by a copy that
    /// may trail the truth by `lag` minutes: the target's bound grows by
    /// its own `2·max_speed·lag`, and both range queries are
    /// [`Database::range_query_lagging`]. `lag == 0` is the plain query.
    ///
    /// # Errors
    ///
    /// As for [`Database::within_distance_of_object`] and
    /// [`Database::range_query_lagging`].
    pub fn within_distance_of_object_lagging(
        &self,
        target: ObjectId,
        radius: f64,
        t: f64,
        lag: f64,
    ) -> Result<RangeAnswer, CoreError> {
        if !radius.is_finite() || radius <= 0.0 {
            return Err(CoreError::InvalidField("radius", radius));
        }
        let target_pos = self.position_of(target, t)?;
        let center = target_pos.position;
        let bound = target_pos.bound + 2.0 * self.resident(target)?.max_speed * lag;
        // may: the object could be anywhere within its bound of the db
        // position, so anything within radius + bound may qualify.
        let may_region = modb_index::within_radius(center, radius + bound, t)
            .ok_or(CoreError::InvalidField("radius", radius))?;
        let mut may_side = self.range_query_lagging(&may_region, lag)?;
        // must: only objects certainly within radius − bound qualify
        // regardless of where the target actually is.
        let must_radius = radius - bound;
        let must_ids = if must_radius > 0.0 {
            let must_region = modb_index::within_radius(center, must_radius, t)
                .ok_or(CoreError::InvalidField("radius", radius))?;
            self.range_query_lagging(&must_region, lag)?.must
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

/// The filter region of a query answered with up to `slack` miles of
/// widening: the query polygon's bounding rectangle grown by `slack` on
/// every side, over the same time span. `None` at `slack == 0`, where the
/// query's own region filters.
fn dilate(region: &QueryRegion, slack: f64) -> Result<Option<QueryRegion>, CoreError> {
    if slack == 0.0 {
        return Ok(None);
    }
    let b = region.polygon().bbox();
    let grown = Rect::new(
        Point::new(b.min.x - slack, b.min.y - slack),
        Point::new(b.max.x + slack, b.max.y + slack),
    );
    let polygon = Polygon::rectangle(&grown)?;
    Ok(Some(QueryRegion::during(polygon, region.t0(), region.t1())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_index::Entry;
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
    fn the_speed_cap_is_the_largest_max_speed_ever_stored() {
        let fast = |id, max_speed| MovingObject {
            max_speed,
            ..object(id, 10.0, 1.0)
        };
        let mut db = Database::new(network(), DatabaseConfig::default());
        assert_eq!(db.speed_cap(), 0.0);
        db.register_moving(fast(1, 1.5)).unwrap();
        db.register_moving(fast(2, 4.0)).unwrap();
        db.register_moving(fast(3, 2.5)).unwrap();
        assert_eq!(db.speed_cap(), 4.0, "the fleet's largest");
        // A refused registration stores nothing and raises nothing.
        assert!(db.register_moving(fast(1, 9.0)).is_err());
        assert_eq!(db.speed_cap(), 4.0);
        // An update keeps the object's max_speed, and a clone carries the cap.
        db.apply_update(
            ObjectId(2),
            &UpdateMessage::basic(1.0, UpdatePosition::Arc(12.0), 1.0),
        )
        .unwrap();
        assert_eq!(db.clone().speed_cap(), 4.0);
        // A removal never lowers it: a cap above the fleet only widens.
        db.remove_moving(ObjectId(2)).unwrap();
        assert_eq!(db.speed_cap(), 4.0);
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
        // The start point must be where its arc is, within the
        // map-matching tolerance (0.25 mi), as a coordinate update's
        // must: 0.3 mi beside it, or on the route 50 mi along, is off.
        for sent in [Point::new(10.0, 0.3), Point::new(60.0, 0.0)] {
            let mut bad = object(4, 10.0, 1.0);
            bad.attr.start_position = sent;
            match db.register_moving(bad) {
                Err(CoreError::OffRoute {
                    distance,
                    tolerance,
                }) => assert_eq!(
                    (distance, tolerance),
                    (sent.distance(Point::new(10.0, 0.0)), 0.25)
                ),
                other => panic!("start point {sent:?} for arc 10: {other:?}"),
            }
        }
        let mut bad = object(4, 10.0, 1.0);
        bad.attr.start_position = Point::new(10.0, f64::NAN);
        assert!(matches!(
            db.register_moving(bad),
            Err(CoreError::InvalidField("start_position", y)) if y.is_nan()
        ));
        assert_eq!(db.moving_count(), 1, "a refused start point left a record");
        // Within the tolerance it registers, and the point reported is the
        // one its arc names, not the one sent.
        let mut near = object(4, 10.0, 1.0);
        near.attr.start_position = Point::new(10.0, 0.2);
        db.register_moving(near).unwrap();
        let reported = db.remove_moving(ObjectId(4)).unwrap().attr.start_position;
        assert_eq!(reported, Point::new(10.0, 0.0));
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

    /// A trip end that is not a number or infinite is refused under
    /// every policy and stores nothing: accepted, NaN would file a plane
    /// 1e-6 minutes long (`NaN.max(start + 1e-6)`), and the table uses
    /// NaN for "no trip end".
    #[test]
    fn a_non_finite_trip_end_is_refused_for_every_policy() {
        let policies = [
            cost_based(),
            PolicyDescriptor::CostBased {
                kind: BoundKind::Delayed,
                update_cost: 2.0,
            },
            PolicyDescriptor::FixedBound { bound: 1.0 },
            PolicyDescriptor::Unbounded,
        ];
        let mut db = db_with(vec![]);
        for policy in policies {
            for end in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bad = object(1, 10.0, 1.0);
                bad.attr.policy = policy;
                bad.trip_end = Some(end);
                match db.register_moving(bad) {
                    Err(CoreError::InvalidField("trip_end", got)) => {
                        assert!(got.is_nan() == end.is_nan() && (got.is_nan() || got == end));
                    }
                    other => panic!("{policy:?} with trip end {end}: {other:?}"),
                }
                assert_eq!(db.moving_count(), 0);
                assert_eq!(db.index_tree_stats().0, 0);
            }
            // A finite one, even before the update, and none, register.
            for end in [Some(-5.0), Some(90.0), None] {
                let mut good = object(1, 10.0, 1.0);
                good.attr.policy = policy;
                good.trip_end = end;
                db.register_moving(good.clone()).unwrap();
                // Reported as the point its arc names, not the point sent.
                good.attr.start_position = network().get(RouteId(1)).unwrap().point_at(10.0);
                assert_eq!(db.moving(ObjectId(1)).unwrap(), good);
                db.remove_moving(ObjectId(1)).unwrap();
            }
        }
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
        let before = db.moving(ObjectId(1)).unwrap();
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
            assert_eq!(db.moving(ObjectId(1)).unwrap(), before, "{policy:?}");
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
            copy.register_moving(obj).unwrap();
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
        // The entry is the id and the resident record: the id once, the
        // start position once (as route + arc, no point), the trip end
        // unboxed, a name of up to 14 bytes inline; no copy of the
        // o-plane the record determines, and no copy of the box it is
        // filed under, which the tree's leaf keeps. 80 + 8 = 88 B, 104 B
        // with the `Arc`'s counts: the 112-B malloc chunk.
        assert_eq!(std::mem::size_of::<Resident>(), 80);
        assert_eq!(std::mem::size_of::<Entry<ObjectId, Resident>>(), 88);
        // The leaf that files it is a 32-B slot: the box rounded outward
        // to six `f32`s, and one pointer. Each link above is a 48-B slot:
        // the box and the child node, which is its one allocation (a tag
        // and the slice's pointer and length). The id map keeps the one
        // 8-B pointer and reads the id through it.
        assert_eq!(
            MovingObjectIndex::<ObjectId, Resident>::slot_bytes(),
            (32, 48, 8)
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

    /// Where `db`'s tree and its objects disagree: a leaf whose box is
    /// not the union box of the plane derived from its entry's object
    /// (rounded as the tree stores it, exactly), a
    /// leaf for an object that is not cost-based or held twice, and a
    /// cost-based object with no leaf. Empty when every object is filed
    /// exactly where a write will look for it.
    fn misfilings(db: &Database) -> Vec<String> {
        let mut out = Vec::new();
        let mut leaves = Vec::new();
        db.moving.for_each_leaf(|union, entry| {
            let (id, obj) = (*entry.key(), entry.value());
            let derived = Database::filing(&db.network, obj)
                .unwrap()
                .map(|(plane, route)| plane.union_box(route, db.config.bands).unwrap())
                .map(|union| modb_index::stored_box(&union));
            if derived != Some(*union) {
                out.push(format!("{id:?} filed under {union:?}, derives {derived:?}"));
            }
            leaves.push(id);
        });
        leaves.sort_unstable();
        let mut cost_based: Vec<ObjectId> = db
            .moving_objects()
            .filter(|o| matches!(o.attr.policy, PolicyDescriptor::CostBased { .. }))
            .map(|o| o.id)
            .collect();
        cost_based.sort_unstable();
        if leaves != cost_based {
            out.push(format!("leaves {leaves:?}, cost-based {cost_based:?}"));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The plane a tree hit is tested against, and the box a write
        /// derives again to find its leaf, are the ones the entry was
        /// filed under. Through random registrations, updates (some moving to another
        /// route, some naming a route that does not exist and refused,
        /// some turning round on their route), policy switches that take
        /// an object out of the tree and back, and removals — beside a
        /// fixed-bound object that is never filed, and with clones pinned
        /// along the way — each leaf's box is the union box of the plane
        /// derived from its object, the tree holds one leaf per cost-based
        /// object, the index answers every query exactly like the scan,
        /// and a pinned clone still answers what it answered when pinned.
        #[test]
        fn a_hit_derives_the_plane_its_entry_was_filed_under(
            steps in proptest::collection::vec(
                (0usize..7, 0u64..8, 0.0f64..100.0, 0.0f64..1.4, 0.0f64..0.8),
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
            let answers = |db: &Database| -> Vec<_> {
                regions
                    .iter()
                    .map(|region| {
                        let index = db.range_query(region).unwrap();
                        let scan = db.range_query_scan(region).unwrap();
                        ((index.must, index.may), (scan.must, scan.may))
                    })
                    .collect()
            };
            let mut pinned = Vec::new();
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
                    4 => {
                        let turn = if arc < 50.0 { Direction::Backward } else { Direction::Forward };
                        db.apply_update(id, &UpdateMessage { direction: Some(turn), ..basic })
                    }
                    5 => {
                        pinned.push((db.clone(), answers(&db)));
                        Ok(())
                    }
                    _ => db.remove_moving(id).map(drop),
                };
                prop_assert_eq!(misfilings(&db), Vec::<String>::new());
                for (index, scan) in answers(&db) {
                    prop_assert_eq!(index, scan);
                }
            }
            for (clone, then) in &pinned {
                prop_assert_eq!(misfilings(clone), Vec::<String>::new());
                prop_assert_eq!(&answers(clone), then);
            }
        }
    }

    /// A copy `lag` behind widens each candidate by its own
    /// `2·max_speed·lag` in both directions, and the dilated filter
    /// misses none: the index answer equals refining every object, `may`
    /// only grows and `must` only shrinks as the lag does, and a lag of
    /// zero is the plain query. A bad lag is refused.
    #[test]
    fn a_lagging_answer_widens_each_candidate_by_its_own_slack() {
        let mut db = Database::new(network(), DatabaseConfig::default());
        for i in 0..60u64 {
            let mut obj = object(i, (i * 13 % 100) as f64, 0.2 + (i % 5) as f64 * 0.2);
            obj.max_speed = 1.0 + (i % 4) as f64;
            if i % 7 == 0 {
                obj.attr.policy = PolicyDescriptor::FixedBound { bound: 0.5 };
            }
            if i % 3 == 0 {
                obj.attr.route = RouteId(2);
                obj.attr.start_position = Point::new(50.0, obj.attr.start_arc - 50.0);
            }
            db.register_moving(obj).unwrap();
        }
        let regions = [
            rect_region(10.0, 30.0, 2.0),
            rect_region(45.0, 55.0, 5.0),
            QueryRegion::during(
                Polygon::regular(Point::new(50.0, 10.0), 8.0, 32).unwrap(),
                1.0,
                4.0,
            ),
        ];
        for region in &regions {
            assert_eq!(
                db.range_query_lagging(region, 0.0).unwrap(),
                db.range_query(region).unwrap()
            );
            let mut previous = db.range_query(region).unwrap();
            for lag in [0.25, 1.0, 4.0] {
                let answer = db.range_query_lagging(region, lag).unwrap();
                let mut every = RangeAnswer::default();
                for (id, obj) in db.residents() {
                    db.tally(&mut every, id, obj, region, lag).unwrap();
                }
                every.normalize();
                assert_eq!((&answer.must, &answer.may), (&every.must, &every.may));
                assert!(answer.must.iter().all(|id| previous.must.contains(id)));
                let all = answer.all();
                assert!(previous.all().iter().all(|id| all.contains(id)));
                previous = answer;
            }
            assert!(previous.all().len() > db.range_query(region).unwrap().all().len());
        }
        for lag in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                db.range_query_lagging(&regions[0], lag),
                Err(CoreError::InvalidField("lag", _))
            ));
        }
        // The trucking query: the target's own bound grows too.
        let plain = db.within_distance_of_object(ObjectId(1), 6.0, 2.0).unwrap();
        assert_eq!(
            db.within_distance_of_object_lagging(ObjectId(1), 6.0, 2.0, 0.0)
                .unwrap(),
            plain
        );
        let lagging = db
            .within_distance_of_object_lagging(ObjectId(1), 6.0, 2.0, 0.5)
            .unwrap();
        assert!(lagging.must.iter().all(|id| plain.must.contains(id)));
        assert!(plain.all().iter().all(|id| lagging.all().contains(id)));
        assert!(!lagging.all().contains(&ObjectId(1)));
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
